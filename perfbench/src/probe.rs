//! Host-speed probe: scales measured times to a steady host.
//!
//! On a shared machine the same unit of simulator work can take half
//! again as long for a minute or more at a time while neighbours load
//! the memory system. The thread stays on its CPU the whole while (no
//! steal time, CPU time equal to wall time), so no clock leaves the
//! slowdown out. Integer-only code hardly slows; code that misses in
//! the caches slows most, and the simulator sits between the two.
//!
//! The probe is a fixed kernel owned by this benchmark: hashed random
//! read-modify-writes over a table four times the per-core cache,
//! integer work and cache misses mixed as in the simulator, on as many
//! threads as the workload keeps busy. A run samples the probe before
//! its first unit of work and after each one, divides every time it
//! reports by the median sample, [`Probe::slowdown`], and multiplies
//! every rate by it. A change to the benchmarked code leaves the probe
//! as it is, so it still moves the scaled figures in full.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Table words: 8 MiB. Of the sizes tried (2, 4 and 8 MiB, and a
/// pointer chase), this one tracked both stream workloads closest.
const WORDS: usize = 1 << 20;

/// Read-modify-writes per pass, about 7 ms.
const STEPS: u64 = 1_000_000;

/// Passes per sample. The fastest counts, so a pass that an interrupt
/// or a page reclaim happened to hit does not.
const PASSES: usize = 3;

/// Nanoseconds per step on a steady host. Scaled figures read as if
/// the probe had taken this long.
pub const NOMINAL_NS_PER_STEP: f64 = 6.0;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^ (x >> 33)
}

/// Times `PASSES` passes over `table` and returns the fastest, in
/// seconds.
fn fastest_pass(table: &mut [u64]) -> f64 {
    let mask = table.len() - 1;
    (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            let mut x = 7u64;
            for i in 0..STEPS {
                x = mix(x.wrapping_add(i));
                let slot = &mut table[x as usize & mask];
                *slot = if *slot & 1 == 0 {
                    slot.wrapping_add(x)
                } else {
                    *slot ^ (x >> 3)
                };
            }
            black_box(&*table);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The probe's tables, one per thread, and the slowdowns sampled so
/// far. Every sample writes the tables, so they stay resident for the
/// whole run.
pub struct Probe {
    tables: Vec<Vec<u64>>,
    samples: Vec<f64>,
}

impl Probe {
    /// A probe that runs on `threads` threads at once, as many as the
    /// workload keeps busy, so that a neighbour slowing either core
    /// shows. Builds the tables and probes once without recording.
    pub fn new(threads: usize) -> Probe {
        let mut probe = Probe {
            tables: (0..threads).map(|_| vec![0; WORDS]).collect(),
            samples: Vec::new(),
        };
        probe.measure();
        probe
    }

    /// Records how much slower than nominal the host runs the probe
    /// right now.
    pub fn sample(&mut self) {
        let slowdown = self.measure();
        self.samples.push(slowdown);
    }

    /// The median sampled slowdown: 1.0 on a steady host, 1.5 when the
    /// probe takes half again as long. 1.0 before any sample.
    pub fn slowdown(&self) -> f64 {
        match self.samples.len() {
            0 => 1.0,
            _ => median(&self.samples),
        }
    }

    /// Every sampled slowdown, in order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The slowdown right now, averaged over the probe's threads.
    fn measure(&mut self) -> f64 {
        let threads = self.tables.len() as f64;
        let secs = match self.tables.as_mut_slice() {
            [one] => fastest_pass(one),
            many => std::thread::scope(|s| {
                let handles: Vec<_> = many
                    .iter_mut()
                    .map(|table| s.spawn(move || fastest_pass(table)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .sum::<f64>()
                    / threads
            }),
        };
        secs * 1e9 / STEPS as f64 / NOMINAL_NS_PER_STEP
    }

    /// The tables' size in megabytes, which `max_rss_mb` leaves out.
    pub fn table_mb(&self) -> f64 {
        let words: usize = self.tables.iter().map(Vec::len).sum();
        (words * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_sample() {
        for threads in [1, 2] {
            let mut probe = Probe::new(threads);
            assert_eq!(probe.slowdown(), 1.0);
            for _ in 0..3 {
                probe.sample();
            }
            let s = probe.slowdown();
            assert!(s.is_finite() && s > 0.0, "{s}");
            assert_eq!(s, median(probe.samples()));
            assert_eq!(probe.table_mb(), 8.0 * threads as f64);
        }
    }
}
