//! The multiprocessor system: N private virtual-address caches under
//! Berkeley ownership, driven by the deterministic epoch scheduler.
//!
//! The cache array, bus snooping, ownership states, and the shared
//! Sprite-like VM all live in `spur-core`'s `SpurSystem` (which is
//! N-cache capable and keyed by pid affinity); what was missing for a
//! *true* multiprocessor was a reference stream that actually runs one
//! multiprogrammed trace per CPU instead of round-robining a single
//! uniprocessor stream. [`MpSystem`] binds a `SpurSystem` configured
//! for `config.cpus` caches to an [`MpScheduler`] over the same
//! workload, so counters, obs events (stamped with their CPU), and the
//! lockstep oracle all see a genuine per-CPU interleave.

use spur_core::{SimConfig, SpurSystem};
use spur_trace::workloads::Workload;
use spur_types::Cycles;

use crate::sched::{MpScheduler, DEFAULT_EPOCH};

/// Scheduler knobs for a multiprocessor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpParams {
    /// References per CPU per epoch (barrier interval).
    pub epoch: u64,
    /// Harness-pool workers for slice generation. Keep at 1 when the
    /// run itself executes inside a harness job (e.g. `reproduce_mp`
    /// cells) so nested pools don't multiply threads; the stream is
    /// identical either way.
    pub workers: usize,
}

impl Default for MpParams {
    fn default() -> Self {
        MpParams {
            epoch: DEFAULT_EPOCH,
            workers: 1,
        }
    }
}

/// An N-CPU SPUR node: one simulator with `config.cpus` private caches
/// plus the deterministic scheduler feeding it.
#[derive(Debug)]
pub struct MpSystem {
    sys: SpurSystem,
    sched: MpScheduler,
}

impl MpSystem {
    /// Builds the node and loads `workload` into its VM. `config.cpus`
    /// sets the CPU (and cache) count; the scheduler shards the
    /// workload's processes across exactly those CPUs.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction/workload errors and scheduler
    /// validation (zero CPUs, more CPUs than processes).
    pub fn new(
        config: SimConfig,
        workload: &Workload,
        seed: u64,
        params: MpParams,
    ) -> Result<Self, String> {
        let sched =
            MpScheduler::with_params(workload, config.cpus, seed, params.epoch, params.workers)?;
        let mut sys = SpurSystem::new(config).map_err(|e| e.to_string())?;
        sys.load_workload(workload).map_err(|e| e.to_string())?;
        Ok(MpSystem { sys, sched })
    }

    /// Runs up to `limit` references through the node.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors as strings.
    pub fn run(&mut self, limit: u64) -> Result<(), String> {
        let MpSystem { sys, sched } = self;
        sys.run(sched, limit).map_err(|e| e.to_string())
    }

    /// The underlying simulator, for counters, VM stats, and event
    /// totals.
    pub fn system(&self) -> &SpurSystem {
        &self.sys
    }

    /// References executed.
    pub fn refs(&self) -> u64 {
        self.sys.refs()
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> Cycles {
        self.sys.cycles()
    }
}
