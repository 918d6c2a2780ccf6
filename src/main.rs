//! `spur-repro` — run one simulation of the SPUR reference/dirty-bit
//! reproduction from the command line.
//!
//! ```text
//! spur-repro run --workload <slc|workload1> [--mem <MB>] [--dirty <policy>]
//!                [--refbit <policy>] [--refs <N>] [--seed <N>] [--cpus <N>]
//! ```
//!
//! A value that does not parse, or a `--mem` outside 1..=4096 MB (the
//! limit scenario configs and `POST /v1/jobs` enforce), prints the
//! usage text and exits 2.
//!
//! The paper's tables come from `reproduce_all`, the `table_*`
//! binaries (2.1, 3.1, 3.2) and `spur-scenario run
//! scenarios/table_*.json --legacy-stdout` (3.3–3.5, 4.1).

use std::process::ExitCode;
use std::str::FromStr;

use spur_core::dirty::DirtyPolicy;
use spur_core::system::{SimConfig, SpurSystem};
use spur_scenario::config::MAX_MEM_MB;
use spur_trace::workloads::{slc, workload1, Workload};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         spur-repro run --workload <slc|workload1|spec-file> [--mem 1..={MAX_MEM_MB}]\n              \
         [--dirty fault|flush|spur|write|min] [--refbit miss|ref|noref]\n              \
         [--refs N] [--seed N] [--cpus N]"
    );
    ExitCode::from(2)
}

/// The flags `run` takes.
const RUN_FLAGS: [&str; 7] = ["workload", "mem", "dirty", "refbit", "refs", "seed", "cpus"];

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Splits `raw` into one command word and `--flag value` pairs;
    /// `None` for a flag `run` does not take, a flag without a value,
    /// or any argument besides the command word.
    fn parse(raw: Vec<String>) -> Option<Args> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !RUN_FLAGS.contains(&name) {
                    return None;
                }
                let value = it.next()?;
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        (positional.len() == 1).then_some(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A numeric flag's value: `default` when the flag is absent, `None`
/// when its value does not parse.
fn num_flag<T: FromStr>(args: &Args, name: &str, default: T) -> Option<T> {
    args.flag(name).map_or(Some(default), |v| v.parse().ok())
}

fn workload_of(name: &str) -> Option<Workload> {
    match name {
        "slc" | "SLC" => Some(slc()),
        "workload1" | "w1" | "WORKLOAD1" => Some(workload1()),
        // Anything else is tried as a workload spec file (see
        // `spur_trace::spec` for the format).
        path => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("error reading {path}: {e}");
                    return None;
                }
            };
            match spur_trace::spec::parse_workload(&text) {
                Ok(w) => Some(w),
                Err(e) => {
                    eprintln!("error parsing {path}: {e}");
                    None
                }
            }
        }
    }
}

fn cmd_run(args: &Args) -> ExitCode {
    let Some(workload) = args.flag("workload").and_then(workload_of) else {
        return usage();
    };
    // A numeric flag takes its default when absent; a value that does
    // not parse, or a memory size the scenario configs would refuse,
    // is a usage error rather than a silent default or a panic.
    let (Some(mem_mb), Some(refs), Some(seed), Some(cpus)) = (
        num_flag(args, "mem", 6u64),
        num_flag(args, "refs", 2_000_000u64),
        num_flag(args, "seed", 1989u64),
        num_flag(args, "cpus", 1usize),
    ) else {
        return usage();
    };
    if !(1..=MAX_MEM_MB).contains(&mem_mb) {
        return usage();
    }
    let mem = MemSize::new(mem_mb as u32);
    let Ok(dirty) = args.flag("dirty").unwrap_or("spur").parse::<DirtyPolicy>() else {
        return usage();
    };
    let Ok(ref_policy) = args.flag("refbit").unwrap_or("miss").parse::<RefPolicy>() else {
        return usage();
    };

    let sim = match SpurSystem::new(SimConfig {
        mem,
        dirty,
        ref_policy,
        cpus,
        ..SimConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "running {} refs of {} @ {mem}, dirty={dirty}, refbit={ref_policy}, {cpus} cpu(s), seed {seed}",
        refs,
        workload.name()
    );
    let sim = match sim.simulate(&workload, workload.generator(seed), refs, None) {
        Ok((sim, _)) => sim,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ev = sim.events();
    println!("{ev}");
    println!(
        "page-ins {}  soft-faults {}  miss ratio {:.2}%",
        ev.page_ins,
        sim.vm().stats().soft_faults,
        100.0 * ev.miss_ratio()
    );
    println!("elapsed decomposition:");
    print!("{}", sim.breakdown().render());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = Args::parse(raw) else {
        return usage();
    };
    match args.positional.first().map(String::as_str) {
        Some("run") => cmd_run(&args),
        _ => usage(),
    }
}
