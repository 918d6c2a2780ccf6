//! The multiprocessor scaling gates: MP-WORKERS(8, 256) at 8 MB, seed
//! 1989, 2M references per run, on `MpSystem` at 1, 2, 4 and 8 CPUs.
//!
//! - The snoop-filter directory stays bounded by the live cache lines,
//!   with room for stale residue: at most `2 · cpus · CACHE_LINES`
//!   entries. Unbounded growth (115,413 entries at 4 CPUs) was the root
//!   cause of the multiprocessor slowdown OPTIMIZATION_LOG entry 8
//!   fixed, and timing at smoke scale cannot see it. The count is
//!   deterministic, so this gate runs with every `cargo test`, in debug
//!   builds too.
//! - The timing floor: every N-CPU rate holds at least half the 1-CPU
//!   rate (the median of 2 interleaved runs each, after one warm-up).
//!   It is deliberately loose for noisy hosts. A serial simulator's
//!   uniprocessor skips every coherence path, so "more CPUs are
//!   faster" would not be honest; the floor catches collapse, not
//!   absent speedup. It reads the wall clock, so it is `#[ignore]`d
//!   and CI runs it in release:
//!
//! ```text
//! cargo test --release -p spur-mp --test scaling_gates -- --ignored
//! ```

use std::time::Instant;

use spur_core::SimConfig;
use spur_mp::{MpParams, MpSystem};
use spur_trace::workloads::mp_workers;
use spur_types::{MemSize, CACHE_LINES};

const REFS: u64 = 2_000_000;
const SEED: u64 = 1989;

/// A loaded 8 MB node running MP-WORKERS(8, 256) on `cpus` CPUs.
fn node(cpus: usize) -> MpSystem {
    let config = SimConfig {
        mem: MemSize::MB8,
        cpus,
        ..SimConfig::default()
    };
    MpSystem::new(config, &mp_workers(8, 256), SEED, MpParams::default()).expect("node builds")
}

/// One timed run: simulated references per wall-clock second.
fn refs_per_sec(cpus: usize) -> f64 {
    let mut node = node(cpus);
    let start = Instant::now();
    node.run(REFS).expect("run completes");
    node.refs() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

#[test]
fn snoop_filter_stays_bounded_by_live_cache_lines() {
    for cpus in [2, 4, 8] {
        let mut node = node(cpus);
        node.run(REFS).expect("run completes");
        let entries = node.system().snoop_filter_entries();
        let bound = 2 * cpus * CACHE_LINES as usize;
        assert!(
            entries <= bound,
            "{cpus} cpus: snoop filter has {entries} entries, bound {bound} — directory leak"
        );
    }
}

#[test]
#[ignore = "reads the wall clock; CI runs it in release with --ignored"]
fn multiprocessor_rates_hold_half_the_uniprocessor_rate() {
    const CPUS: [usize; 4] = [1, 2, 4, 8];
    const RUNS: usize = 2;
    // One untimed warm-up per configuration, then interleaved rounds,
    // so slow drifts in host load hit every configuration alike.
    for cpus in CPUS {
        refs_per_sec(cpus);
    }
    let mut samples = vec![Vec::with_capacity(RUNS); CPUS.len()];
    for _ in 0..RUNS {
        for (runs, &cpus) in samples.iter_mut().zip(&CPUS) {
            runs.push(refs_per_sec(cpus));
        }
    }
    // The median of two samples is their mean.
    let median = |runs: &[f64]| runs.iter().sum::<f64>() / runs.len() as f64;
    let one_cpu = median(&samples[0]);
    for (runs, &cpus) in samples.iter().zip(&CPUS).skip(1) {
        let rate = median(runs);
        assert!(
            rate >= 0.5 * one_cpu,
            "scaling collapse: {cpus} cpus {rate:.0} < half of 1 cpu {one_cpu:.0} refs/sec"
        );
        println!("ok: {cpus} cpus {rate:.0} vs 1 cpu {one_cpu:.0} refs/sec");
    }
}
