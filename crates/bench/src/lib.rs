//! The experiment binaries' shared command line.
//!
//! `reproduce_all`, `reproduce_mp`, `sweep_memory` and the studies read
//! the run flags through [`parse_args`], the parser `spur-scenario run`
//! uses, plus a few bare flags of their own:
//!
//! ```text
//! cargo run --release -p spur-bench --bin reproduce_all -- --scale quick --jobs 8
//! cargo run --release -p spur-bench --bin sweep_memory -- --scale quick --csv
//! ```
//!
//! A bad value or an argument the binary does not take prints its
//! usage text and exits 2, before any cell runs. Tables 3.3–3.5 and
//! 4.1 have no binary of their own: their cells are committed scenario
//! configs, run on their own by
//! `spur-scenario run scenarios/table_*.json --legacy-stdout` and all
//! together by `reproduce_all`. Timing lives in `perfbench/`, the
//! repository's one benchmark.

use std::path::Path;

use spur_core::experiments::Scale;
use spur_scenario::render::banner;
use spur_scenario::{run_flags, RunnerOptions, RUN_FLAGS_USAGE};

/// Parses the process's command line: the run flags
/// ([`spur_scenario::run_flags`], which also reads `SPUR_JOBS` and
/// `SPUR_PROGRESS`), plus `extras`, the binary's own bare flags as
/// `(flag, help)` pairs. On a bad value or any other argument it
/// prints the usage text and exits 2. Returns the options and the
/// extras given.
pub fn parse_args(extras: &[(&str, &str)]) -> (RunnerOptions, Vec<String>) {
    let (opts, rest) = run_flags(std::env::args().skip(1)).unwrap_or_else(|e| usage(extras, &e));
    if let Some(arg) = rest.iter().find(|a| !extras.iter().any(|(f, _)| f == a)) {
        usage(extras, &format!("unexpected argument {arg:?}"));
    }
    (opts, rest)
}

/// A study's scale: `--scale` with its references capped at
/// `max_refs`, after printing the study's [`banner`]. A study ignores
/// the other run flags.
pub fn study(what: &str, max_refs: u64) -> Scale {
    let mut scale = parse_args(&[]).0.scale.unwrap_or_else(Scale::default_scale);
    scale.refs = scale.refs.min(max_refs);
    print!("{}", banner(what, &scale));
    scale
}

/// Prints `msg` and the usage text of the running binary, named by
/// its file name, and exits 2.
fn usage(extras: &[(&str, &str)], msg: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let bin = Path::new(&argv0).file_name().unwrap_or_default();
    let flags: String = extras.iter().map(|(f, _)| format!(" [{f}]")).collect();
    let help: String = extras
        .iter()
        .map(|(f, h)| format!("  {f:<29}{h}\n"))
        .collect();
    let bin = bin.to_string_lossy();
    eprintln!("{msg}\n\nusage: {bin} [run flags]{flags}\n{help}\nrun flags:\n{RUN_FLAGS_USAGE}");
    std::process::exit(2)
}

pub mod load;

pub mod jobs {
    //! The memory sweep as harness jobs: its keys, its cells, and its
    //! assembly back into serial row order. The cell builders live in
    //! [`spur_core::jobs`] and the run epilogue in
    //! [`spur_scenario::persist_run`].

    use spur_core::experiments::refbit::RefbitRow;
    use spur_core::experiments::sweep::MemorySweepRow;
    use spur_core::experiments::Scale;
    use spur_core::jobs::{refbit_job_obs, WorkloadCtor};
    use spur_core::obs::ObsParams;
    use spur_harness::{Job, RunReport};
    use spur_types::MemSize;
    use spur_vm::policy::RefPolicy;

    /// The key for one memory-sweep cell.
    pub(crate) fn memory_sweep_key(mb: u32, policy: RefPolicy) -> String {
        format!("memory_sweep/{mb:02}MB/{policy}")
    }

    /// Every cell of the memory sweep, `sizes` × [`RefPolicy::ALL`],
    /// with optional observability.
    pub fn memory_sweep_jobs(
        make: WorkloadCtor,
        sizes: &[u32],
        scale: Scale,
        obs: Option<ObsParams>,
    ) -> Vec<Job<RefbitRow>> {
        let mut jobs = Vec::new();
        for &mb in sizes {
            for policy in RefPolicy::ALL {
                jobs.push(refbit_job_obs(
                    memory_sweep_key(mb, policy),
                    make,
                    MemSize::new(mb),
                    policy,
                    scale,
                    obs,
                ));
            }
        }
        jobs
    }

    /// Collects a completed memory-sweep run back into the serial
    /// row order ([`RefPolicy::ALL`] within each size).
    ///
    /// # Errors
    ///
    /// Returns the first missing or failed cell's description.
    pub fn assemble_memory_sweep(
        report: &RunReport<RefbitRow>,
        sizes: &[u32],
    ) -> Result<Vec<MemorySweepRow>, String> {
        sizes
            .iter()
            .map(|&mb| {
                let policies = RefPolicy::ALL
                    .iter()
                    .map(|&policy| report.require(&memory_sweep_key(mb, policy)).cloned())
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(MemorySweepRow {
                    mem: MemSize::new(mb),
                    policies,
                })
            })
            .collect()
    }
}
