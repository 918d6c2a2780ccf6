//! Regenerates the multiprocessor reference-bit artifacts: the measured
//! policy × CPU count × sharing-degree sweep on the real N-cache
//! `MpSystem`, with the old analytic extrapolation from the measured
//! 1-CPU rows printed alongside as a cross-check.
//!
//! The sweep is an `mp` scenario named `reproduce_mp` (sharing degree
//! × the scale's CPU counts × MISS/REF), run by `run_scenario`, so it
//! parallelizes across `--jobs N` workers while the assembled table
//! and the JSON artifacts in `results/json/reproduce_mp-<scale>/` stay
//! byte-identical to a serial run (wall-clock times live only in the
//! manifest).
//!
//! `--verify` additionally drives the lockstep differential matrix —
//! the multiprocessor system against the multi-CPU oracle — and writes
//! any divergence dump (which names the CPU) to
//! `results/mp-divergence.txt` before exiting nonzero.
//!
//! ```text
//! cargo run --release -p spur-bench --bin reproduce_mp -- --scale quick --jobs 4 --verify
//! ```

use spur_bench::parse_args;
use spur_check::Lockstep;
use spur_core::experiments::Scale;
use spur_core::{DirtyPolicy, SimConfig};
use spur_mp::{mp_model, render_mp, render_mp_model, MpScheduler};
use spur_scenario::render::mp_rows;
use spur_scenario::{run_scenario, Scenario};
use spur_trace::workloads::mp_workers;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

const POLICIES: [RefPolicy; 2] = [RefPolicy::Miss, RefPolicy::Ref];

/// Per-cell reference budget for `--verify`'s differential matrix.
const VERIFY_REFS: u64 = 200_000;

fn cpu_counts(scale: &Scale) -> &'static [usize] {
    if *scale == Scale::quick() {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    }
}

/// The measured sweep at `scale`: cells in (sharing, cpus, policy)
/// order.
fn sweep(scale: &Scale) -> Scenario {
    Scenario::parse_str(&format!(
        r#"{{"schema_version": 1, "name": "reproduce_mp", "experiment": "mp",
            "matrix": {{"shared_pages": [64, 256, 1024], "cpus": {:?},
                        "ref": ["MISS", "REF"]}}}}"#,
        cpu_counts(scale)
    ))
    .expect("the reproduce_mp scenario is valid")
}

/// Runs the differential matrix. Returns the first divergence dump, if
/// any.
fn verify(seed: u64) -> Option<String> {
    for cpus in [2usize, 4] {
        for policy in POLICIES {
            for shared_pages in [64u64, 1024] {
                eprintln!(
                    "verify: cpus={cpus} policy={policy} shared={shared_pages} \
                     ({VERIFY_REFS} refs)"
                );
                let workload = mp_workers(cpus, shared_pages);
                let mut lock = match Lockstep::new(SimConfig {
                    mem: MemSize::new(5),
                    dirty: DirtyPolicy::Spur,
                    ref_policy: policy,
                    cpus,
                    ..SimConfig::default()
                }) {
                    Ok(l) => l,
                    Err(e) => return Some(format!("verify setup failed: {e}")),
                };
                if let Err(e) = lock.load_workload(&workload) {
                    return Some(format!("verify workload failed: {e}"));
                }
                let mut sched = match MpScheduler::new(&workload, cpus, seed) {
                    Ok(s) => s,
                    Err(e) => return Some(format!("verify scheduler failed: {e}")),
                };
                if let Err(d) = lock.run(&mut sched, VERIFY_REFS) {
                    return Some(format!(
                        "cell cpus={cpus} policy={policy} shared={shared_pages}:\n{d}"
                    ));
                }
            }
        }
    }
    None
}

fn main() {
    let (opts, extras) = parse_args(&[("--verify", "run the lockstep differential matrix first")]);
    let scale = opts.scale.unwrap_or_else(Scale::default_scale);
    // Stdout is a pure function of scale + flags (worker counts go to
    // stderr): CI diffs two runs with different --jobs to prove it.
    println!("SPUR multiprocessor reproduction — measured Berkeley-coherent node");
    println!(
        "scale: {} references/run, seed {}\n",
        scale.refs, scale.seed
    );
    eprintln!("reproduce_mp: {} worker(s)", opts.workers);

    if !extras.is_empty() {
        if let Some(dump) = verify(scale.seed) {
            eprintln!("LOCKSTEP DIVERGENCE:\n{dump}");
            let _ = std::fs::create_dir_all("results");
            if let Err(e) = std::fs::write("results/mp-divergence.txt", &dump) {
                eprintln!("could not write results/mp-divergence.txt: {e}");
            }
            std::process::exit(1);
        }
        println!("lockstep verification: zero divergences across the matrix\n");
    }

    let scenario = sweep(&scale);
    let run = run_scenario(&scenario, &opts);
    let rows = match run.and_then(|run| mp_rows(&scenario, &run.report)) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("multiprocessor sweep failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", render_mp(&rows));
    println!("REF's daemon flush bill grows with the processor count (every cache");
    println!("holds copies the daemon must destroy) while MISS stays flat — the");
    println!("paper's §4.1 argument, measured.");

    match mp_model(&rows, cpu_counts(&scale)) {
        Ok(rows) => {
            println!();
            println!("{}", render_mp_model(&rows));
            println!("(cross-check: the pre-measurement analytic model, kept for contrast)");
        }
        Err(e) => {
            eprintln!("model cross-check failed: {e}");
            std::process::exit(1);
        }
    }
}
