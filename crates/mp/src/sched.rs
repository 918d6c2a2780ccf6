//! The deterministic multiprocessor scheduler.
//!
//! A multiprocessor run interleaves one reference stream per CPU into
//! the single serialized order the simulator (and the lockstep oracle)
//! consumes. The determinism contract:
//!
//! 1. **Sharding.** The workload's processes are dealt round-robin
//!    across CPUs: shard `c` owns process indices `{i : i % cpus == c}`.
//!    Because `TraceGenerator` keeps the workload's process indices as
//!    pids, every reference a shard emits satisfies
//!    `pid % cpus == c` — exactly the pid-affinity mapping
//!    `SpurSystem::cpu_of` (and the spur-check oracle) use to pick the
//!    cache a reference runs against.
//! 2. **Per-shard streams.** Each shard is an independent
//!    [`TraceGenerator`] seeded from the run seed and the CPU index, so
//!    a shard's stream is a pure function of (workload, cpus, seed,
//!    cpu). CPU 0's shard keeps the base seed: with `cpus == 1` the
//!    scheduler degenerates to exactly `workload.generator(seed)`.
//! 3. **Epochs.** Generation proceeds in epochs of `epoch` references
//!    per CPU. With one worker (every caller's choice) each reference
//!    is pulled straight off its shard as it is committed. With more,
//!    every shard's slice is generated as one job on the spur-harness
//!    pool; [`run_jobs`] returning *is* the barrier, and its
//!    key-ordered collection makes the result independent of how many
//!    worker threads ran.
//! 4. **Round-robin commit.** The epoch's slices are committed
//!    reference-by-reference in fixed CPU order (ref `k` of CPU 0, ref
//!    `k` of CPU 1, …), so the interleave — and therefore every
//!    simulator counter and event — is byte-reproducible regardless of
//!    host thread count.

use spur_harness::{run_jobs, Job, JobOutput, Json};
use spur_trace::stream::TraceRef;
use spur_trace::workloads::Workload;
use spur_trace::TraceGenerator;

/// References each CPU contributes per epoch. Matches the trace
/// generator's scheduling quantum so a shard's own round-robin over its
/// processes is never cut mid-quantum more often than on a
/// uniprocessor.
pub(crate) const DEFAULT_EPOCH: u64 = 4_096;

/// Spreads the run seed across CPU indices (golden-ratio stride).
/// CPU 0 multiplies by zero and keeps the base seed.
const SHARD_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// The per-shard generator seed.
pub(crate) fn shard_seed(seed: u64, cpu: usize) -> u64 {
    seed ^ (cpu as u64).wrapping_mul(SHARD_SEED_STRIDE)
}

/// A deterministic N-CPU reference interleaver.
///
/// Implements `Iterator<Item = TraceRef>`, so anything that drives a
/// uniprocessor stream — `SpurSystem::run`, `Lockstep::run` — drives a
/// multiprocessor one unchanged.
#[derive(Debug)]
pub struct MpScheduler {
    shards: Vec<TraceGenerator>,
    epoch: u64,
    workers: usize,
    /// The committed interleave for the current epoch (multi-worker
    /// path only), drained by cursor. Reused across epochs so
    /// steady-state generation is allocation-free.
    buf: Vec<TraceRef>,
    pos: usize,
    /// Per-shard "returned None this epoch" marks (reused).
    done: Vec<bool>,
    /// Direct-pull cursor state (single-worker path): next shard to
    /// pull, row within the epoch, and whether the current round /
    /// epoch produced anything.
    col: usize,
    row: u64,
    row_produced: bool,
    epoch_produced: bool,
    exhausted: bool,
}

impl MpScheduler {
    /// Builds a scheduler with the default epoch, generating slices on
    /// the calling thread (one pool worker).
    ///
    /// # Errors
    ///
    /// Rejects `cpus == 0` and workloads with fewer processes than
    /// CPUs (an empty shard would idle a cache forever).
    pub fn new(workload: &Workload, cpus: usize, seed: u64) -> Result<Self, String> {
        Self::with_params(workload, cpus, seed, DEFAULT_EPOCH, 1)
    }

    /// Builds a scheduler with an explicit epoch length (references per
    /// CPU per barrier) and pool worker count. The emitted stream is a
    /// pure function of (workload, cpus, seed, epoch); `workers` only
    /// changes wall-clock time.
    ///
    /// # Errors
    ///
    /// Rejects zero CPUs, a zero epoch, and workloads with fewer
    /// processes than CPUs.
    pub fn with_params(
        workload: &Workload,
        cpus: usize,
        seed: u64,
        epoch: u64,
        workers: usize,
    ) -> Result<Self, String> {
        if cpus == 0 {
            return Err("a multiprocessor needs at least one CPU".into());
        }
        if epoch == 0 {
            return Err("the scheduler epoch must be positive".into());
        }
        let procs = workload.processes().len();
        if procs < cpus {
            return Err(format!(
                "workload {:?} has {procs} process(es) for {cpus} CPUs: \
                 every CPU shard needs at least one process",
                workload.name()
            ));
        }
        let shards = (0..cpus)
            .map(|c| {
                let indices: Vec<usize> = (c..procs).step_by(cpus).collect();
                TraceGenerator::with_processes(workload, &indices, shard_seed(seed, c))
            })
            .collect();
        Ok(MpScheduler {
            shards,
            epoch,
            workers: workers.max(1),
            buf: Vec::new(),
            pos: 0,
            done: vec![false; cpus],
            col: 0,
            row: 0,
            row_produced: false,
            epoch_produced: false,
            exhausted: false,
        })
    }

    /// Single-worker path: pull the next reference straight off the
    /// shards in commit order — ref `k` of CPU 0, ref `k` of CPU 1, …
    /// — with no intermediate buffer at all. Each shard is an
    /// independent generator, so pumping them interleaved yields the
    /// same per-shard sequences as slicing an epoch first and then
    /// committing round-robin (pinned by
    /// `stream_is_independent_of_worker_count`).
    ///
    /// Epoch semantics are preserved exactly: a shard that returns
    /// `None` sits out the rest of the epoch (its slice ended) and is
    /// re-polled at the next epoch boundary; the stream ends when a
    /// whole epoch produces nothing.
    fn next_direct(&mut self) -> Option<TraceRef> {
        loop {
            if self.col == self.shards.len() {
                self.col = 0;
                self.row += 1;
                if self.row == self.epoch || !self.row_produced {
                    // Epoch over — full, or every shard went idle.
                    if !self.epoch_produced {
                        self.exhausted = true;
                        return None;
                    }
                    self.row = 0;
                    self.done.iter_mut().for_each(|d| *d = false);
                    self.epoch_produced = false;
                }
                self.row_produced = false;
            }
            let c = self.col;
            self.col += 1;
            if self.done[c] {
                continue;
            }
            match self.shards[c].next() {
                Some(r) => {
                    self.row_produced = true;
                    self.epoch_produced = true;
                    return Some(r);
                }
                None => self.done[c] = true,
            }
        }
    }

    /// Multi-worker path: refills the commit buffer one epoch at a
    /// time.
    fn fill_epoch(&mut self) {
        self.buf.clear();
        self.pos = 0;
        self.fill_pooled();
        if self.buf.is_empty() {
            self.exhausted = true;
        }
    }

    /// Multi-worker epoch: every shard's slice in parallel on the
    /// harness pool, then a serial round-robin commit. Key order ==
    /// CPU order (two-digit keys), however many workers ran, so the
    /// commit is deterministic by construction.
    fn fill_pooled(&mut self) {
        let epoch = self.epoch as usize;
        let gens = std::mem::take(&mut self.shards);
        let jobs: Vec<Job<(Vec<TraceRef>, TraceGenerator)>> = gens
            .into_iter()
            .enumerate()
            .map(|(c, mut g)| {
                Job::new(format!("cpu/{c:02}"), move || {
                    let slice: Vec<TraceRef> = g.by_ref().take(epoch).collect();
                    Ok(JobOutput::new((slice, g), Json::Null))
                })
            })
            .collect();
        let mut slices: Vec<Vec<TraceRef>> = Vec::with_capacity(jobs.len());
        for done in run_jobs(jobs, self.workers).into_jobs() {
            let key = done.key;
            let out = done
                .outcome
                .unwrap_or_else(|f| panic!("shard {key} died generating its slice: {}", f.reason));
            slices.push(out.value.0);
            self.shards.push(out.value.1);
        }
        let longest = slices.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..longest {
            for slice in &slices {
                if let Some(&r) = slice.get(k) {
                    self.buf.push(r);
                }
            }
        }
    }
}

impl Iterator for MpScheduler {
    type Item = TraceRef;

    fn next(&mut self) -> Option<TraceRef> {
        if self.workers <= 1 {
            if self.exhausted {
                return None;
            }
            return self.next_direct();
        }
        while self.pos == self.buf.len() {
            if self.exhausted {
                return None;
            }
            self.fill_epoch();
        }
        let r = self.buf[self.pos];
        self.pos += 1;
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_trace::workloads::{mp_workers, slc};

    #[test]
    fn one_cpu_is_exactly_the_uniprocessor_stream() {
        let w = mp_workers(4, 128);
        let uni: Vec<_> = w.generator(7).take(20_000).collect();
        let mp: Vec<_> = MpScheduler::new(&w, 1, 7).unwrap().take(20_000).collect();
        assert_eq!(uni, mp, "cpus=1 must degenerate to workload.generator");
    }

    #[test]
    fn stream_is_independent_of_worker_count() {
        let w = mp_workers(4, 128);
        let a: Vec<_> = MpScheduler::with_params(&w, 4, 9, 1024, 1)
            .unwrap()
            .take(40_000)
            .collect();
        let b: Vec<_> = MpScheduler::with_params(&w, 4, 9, 1024, 8)
            .unwrap()
            .take(40_000)
            .collect();
        assert_eq!(a, b, "worker count must not change the interleave");
    }

    #[test]
    fn stream_is_independent_of_epoch_length_while_shards_flow() {
        // With every shard always producing a full slice, concatenated
        // small epochs commit in the same round-robin order as one big
        // epoch.
        let w = mp_workers(4, 128);
        let small: Vec<_> = MpScheduler::with_params(&w, 2, 5, 512, 1)
            .unwrap()
            .take(30_000)
            .collect();
        let large: Vec<_> = MpScheduler::with_params(&w, 2, 5, 8_192, 1)
            .unwrap()
            .take(30_000)
            .collect();
        assert_eq!(small, large);
    }

    #[test]
    fn every_reference_lands_on_its_pid_affine_cpu() {
        let cpus = 4;
        let w = mp_workers(cpus, 128);
        let refs: Vec<_> = MpScheduler::new(&w, cpus, 3)
            .unwrap()
            .take(50_000)
            .collect();
        // The round-robin commit cycles CPUs; each reference's pid must
        // map back to the shard that issued it.
        for window in refs.chunks(cpus) {
            for (offset, r) in window.iter().enumerate() {
                assert_eq!(
                    r.pid.0 as usize % cpus,
                    offset % cpus,
                    "reference committed out of CPU order"
                );
            }
        }
        // All CPUs actually run.
        let mut seen = std::collections::HashSet::new();
        for r in &refs {
            seen.insert(r.pid.0 as usize % cpus);
        }
        assert_eq!(seen.len(), cpus);
    }

    #[test]
    fn different_seeds_diverge() {
        let w = mp_workers(2, 64);
        let a: Vec<_> = MpScheduler::new(&w, 2, 1).unwrap().take(5_000).collect();
        let b: Vec<_> = MpScheduler::new(&w, 2, 2).unwrap().take(5_000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn too_few_processes_is_rejected() {
        let w = slc();
        let err = MpScheduler::new(&w, 8, 1).unwrap_err();
        assert!(err.contains("shard"), "{err}");
        assert!(MpScheduler::new(&w, 0, 1).is_err());
        assert!(MpScheduler::with_params(&w, 1, 1, 0, 1).is_err());
    }
}
