//! `spur-fuzz`: differential fuzzer and lockstep matrix driver for the
//! SPUR reproduction, built on `spur-check`.
//!
//! ```text
//! spur-fuzz --cases 100 --seed 1 [--out results/repros] [--mutate NAME]
//! spur-fuzz --replay results/repros/repro-case0042.json [--mutate NAME]
//! spur-fuzz --matrix [--refs N]
//! spur-fuzz --selftest
//! ```
//!
//! * `--cases` generates that many random workloads+configs and runs
//!   each one system-vs-oracle. A failing case is shrunk to a minimal
//!   explicit repro and written under `--out` (default
//!   `results/repros/`), named by case number so reruns overwrite
//!   rather than accumulate.
//! * `--replay` re-runs one saved repro spec bit-for-bit.
//! * `--matrix` locksteps every shipped workload under all 5 dirty-bit
//!   mechanisms × all 3 reference-bit policies.
//! * `--selftest` proves the checker can still catch (and shrink) an
//!   intentionally injected divergence.
//! * `--mutate` (`skip-spur-dirty-refresh`, `pageout-always`) runs the
//!   fuzz or replay against a deliberately wrong oracle, for
//!   demonstrating what a real divergence report looks like.
//!
//! Every line this binary prints is a pure function of its arguments —
//! no timestamps, no wall-clock durations — so CI runs the same
//! invocation twice and diffs the output to prove determinism.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spur_check::{
    mutation_selftest, run_case_with, shrink, FuzzCase, FuzzOutcome, Lockstep, Mutation,
};
use spur_core::{DirtyPolicy, SimConfig};
use spur_mp::MpScheduler;
use spur_trace::workloads::{devmachine, mp_workers, slc, workload1, DevHost, Workload};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// The value of `flag` as a number, if the flag is given.
fn number_arg(flag: &str) -> Result<Option<u64>, String> {
    arg_value(flag)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a number, got {v:?}"))
        })
        .transpose()
}

/// Per-case seed derivation: spreads a base seed across case indices so
/// `--seed 1` and `--seed 2` share no cases.
fn case_seed(base: u64, index: u64) -> u64 {
    base.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(index)
}

fn parse_mutation() -> Result<Option<Mutation>, String> {
    match arg_value("--mutate") {
        None => Ok(None),
        Some(name) => Mutation::parse(&name).map(Some).ok_or(format!(
            "unknown mutation {name:?} (try skip-spur-dirty-refresh or pageout-always)"
        )),
    }
}

/// Generate-and-run `cases` random cases; shrink and save any failure.
fn fuzz(cases: u64, seed: u64, out: &Path, mutation: Option<Mutation>) -> Result<u64, String> {
    let mut failures = 0u64;
    for i in 0..cases {
        let case = FuzzCase::generate(case_seed(seed, i));
        match run_case_with(&case, mutation) {
            FuzzOutcome::Pass { refs } => {
                println!(
                    "case {i:04} seed {:#018x} pass  {refs} refs  {}/{} {} regions",
                    case.seed,
                    case.dirty,
                    case.ref_policy,
                    case.regions.len()
                );
            }
            FuzzOutcome::Fail {
                failing_index,
                divergence,
            } => {
                failures += 1;
                println!(
                    "case {i:04} seed {:#018x} FAIL  at ref {failing_index}  {}/{}",
                    case.seed, case.dirty, case.ref_policy
                );
                let shrunk = shrink(&case, mutation);
                std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
                let path = out.join(format!("repro-case{i:04}.json"));
                std::fs::write(&path, shrunk.encode())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!(
                    "  shrunk {} -> {} refs, saved {}",
                    case.refs.len(),
                    shrunk.refs.len(),
                    path.display()
                );
                println!("{divergence}");
            }
        }
    }
    println!("spur-fuzz: {cases} cases, {failures} failures");
    Ok(failures)
}

/// Replay one saved repro spec.
fn replay(path: &Path, mutation: Option<Mutation>) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let case = FuzzCase::decode(&text)?;
    println!(
        "replay {}: {} refs, {}/{}, {} regions, mem {} MB",
        path.display(),
        case.refs.len(),
        case.dirty,
        case.ref_policy,
        case.regions.len(),
        case.mem_mb
    );
    match run_case_with(&case, mutation) {
        FuzzOutcome::Pass { refs } => {
            println!("replay: pass ({refs} refs)");
            Ok(true)
        }
        FuzzOutcome::Fail {
            failing_index,
            divergence,
        } => {
            println!("replay: FAIL at ref {failing_index}");
            println!("{divergence}");
            Ok(false)
        }
    }
}

/// Every shipped workload, paired with the cpu count it needs.
fn shipped_workloads() -> Vec<(Workload, usize)> {
    vec![
        (workload1(), 1),
        (slc(), 1),
        (mp_workers(4, 256), 4),
        (devmachine(&DevHost::table_3_5()[0]), 1),
    ]
}

/// Lockstep every shipped workload × dirty mechanism × ref policy.
fn matrix(refs_per_cell: u64) -> Result<u64, String> {
    let mut failures = 0u64;
    let mut combo = 0u64;
    for (workload, cpus) in shipped_workloads() {
        for dirty in DirtyPolicy::ALL {
            for ref_policy in RefPolicy::ALL {
                combo += 1;
                let config = SimConfig {
                    mem: MemSize::new(5),
                    dirty,
                    ref_policy,
                    cpus,
                    ..SimConfig::default()
                };
                let mut lock = Lockstep::new(config)?;
                lock.load_workload(&workload)?;
                let mut gen = workload.generator(1989 + combo);
                match lock.run(&mut gen, refs_per_cell) {
                    Ok(n) => println!(
                        "matrix {:<12} {:<6} {:<6} ok  {n} refs",
                        workload.name(),
                        dirty.to_string(),
                        ref_policy.to_string()
                    ),
                    Err(d) => {
                        failures += 1;
                        println!(
                            "matrix {:<12} {:<6} {:<6} FAIL",
                            workload.name(),
                            dirty.to_string(),
                            ref_policy.to_string()
                        );
                        println!("{d}");
                    }
                }
            }
        }
    }
    // The multiprocessor cells: the same differential check, but with
    // the trace sharded across CPUs by the deterministic mp scheduler
    // (per-CPU streams, epoch barriers) rather than one serial stream.
    for cpus in [2usize, 4] {
        let workload = mp_workers(cpus, 256);
        for dirty in DirtyPolicy::ALL {
            for ref_policy in RefPolicy::ALL {
                combo += 1;
                let config = SimConfig {
                    mem: MemSize::new(5),
                    dirty,
                    ref_policy,
                    cpus,
                    ..SimConfig::default()
                };
                let mut lock = Lockstep::new(config)?;
                lock.load_workload(&workload)?;
                let mut sched = MpScheduler::new(&workload, cpus, 1989 + combo)?;
                match lock.run(&mut sched, refs_per_cell) {
                    Ok(n) => println!(
                        "matrix-mp {cpus}cpu       {:<6} {:<6} ok  {n} refs",
                        dirty.to_string(),
                        ref_policy.to_string()
                    ),
                    Err(d) => {
                        failures += 1;
                        println!(
                            "matrix-mp {cpus}cpu       {:<6} {:<6} FAIL",
                            dirty.to_string(),
                            ref_policy.to_string()
                        );
                        println!("{d}");
                    }
                }
            }
        }
    }
    println!("spur-fuzz: matrix {combo} cells, {failures} failures");
    Ok(failures)
}

/// Prove the checker still catches an injected divergence and shrinks
/// it small.
fn selftest() -> Result<(), String> {
    let report = mutation_selftest()?;
    println!(
        "selftest: injected skip-spur-dirty-refresh caught at seed {}, \
         shrunk {} -> {} refs",
        report.seed,
        report.original_len,
        report.shrunk.refs.len()
    );
    println!("shrunk repro:\n{}", report.shrunk.encode());
    println!("{}", report.divergence);
    Ok(())
}

/// Prints `msg` and the usage text. A usage error exits 2, apart from
/// the 1 of a failing case.
fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "spur-fuzz: {msg}\n\
         usage: spur-fuzz --cases N --seed S [--out DIR] [--mutate NAME]\n\
         \x20      spur-fuzz --replay FILE [--mutate NAME]\n\
         \x20      spur-fuzz --matrix [--refs N]\n\
         \x20      spur-fuzz --selftest"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mutation, cases, seed, refs) = match (
        parse_mutation(),
        number_arg("--cases"),
        number_arg("--seed"),
        number_arg("--refs"),
    ) {
        (Ok(m), Ok(c), Ok(s), Ok(r)) => (m, c, s, r),
        (Err(e), ..) | (_, Err(e), ..) | (_, _, Err(e), _) | (.., Err(e)) => return usage(&e),
    };

    let outcome = if has_flag("--selftest") {
        selftest().map(|()| 0)
    } else if has_flag("--matrix") {
        matrix(refs.unwrap_or(30_000))
    } else if let Some(file) = arg_value("--replay") {
        replay(Path::new(&file), mutation).map(|ok| u64::from(!ok))
    } else if let Some(cases) = cases {
        let seed = seed.unwrap_or(1);
        let out = arg_value("--out")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results/repros"));
        fuzz(cases, seed, &out, mutation)
    } else {
        return usage("no mode given");
    };

    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spur-fuzz: {e}");
            ExitCode::FAILURE
        }
    }
}
