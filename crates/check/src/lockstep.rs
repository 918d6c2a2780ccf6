//! Lockstep differential verification: a real [`SpurSystem`] and the
//! `Oracle` step through the same reference stream, and every
//! reference's event delta is checked the moment it is produced.
//!
//! The driver reads the system's event stream through the spur-obs
//! trace ring ([`SpurSystem::obs_tail`]): before each reference it
//! notes `obs_emitted_total()`, afterwards it pulls exactly the delta.
//! The ring must therefore be large enough to hold one reference's
//! worth of events — a daemon sweep over a big clock is the worst case,
//! so [`Lockstep::new`] sizes the ring generously and `step` errors out
//! loudly (rather than silently missing events) if a delta ever
//! overflows it.

use std::fmt;

use spur_core::system::page_kind;
use spur_core::{SimConfig, SpurSystem};
use spur_obs::SimEvent;
use spur_trace::stream::TraceRef;
use spur_trace::workloads::Workload;
use spur_types::{Vpn, CACHE_LINES};
use spur_vm::region::PageKind;

use crate::oracle::{Mutation, Oracle, OracleConfig};

/// Trace-ring capacity for lockstep runs: large enough that one
/// reference (including a full daemon sweep) never wraps past a delta.
const LOCKSTEP_TRACE_CAPACITY: usize = 1 << 16;

/// The first point where the system and the oracle disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// 0-based index of the offending reference in the stream.
    pub ref_index: u64,
    /// The CPU the offending reference ran on (pid-affinity mapping).
    pub cpu: usize,
    /// The reference being processed when the models split.
    pub reference: TraceRef,
    /// What the oracle expected vs. what the system emitted.
    pub reason: String,
    /// Index into `events` where the mismatch sits.
    pub at: usize,
    /// The full event delta of the offending reference.
    pub events: Vec<SimEvent>,
    /// The oracle's view of the page and cache line involved.
    pub context: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence at reference #{} on cpu{}: {}",
            self.ref_index, self.cpu, self.reference
        )?;
        writeln!(f, "  reason: {}", self.reason)?;
        writeln!(f, "  {}", self.context)?;
        writeln!(f, "  event delta ({} events):", self.events.len())?;
        // Show a window around the mismatch, not a megabyte of daemon
        // scans.
        let lo = self.at.saturating_sub(5);
        let hi = (self.at + 6).min(self.events.len());
        if lo > 0 {
            writeln!(f, "    … {lo} earlier event(s)")?;
        }
        for (i, ev) in self.events[lo..hi].iter().enumerate() {
            let idx = lo + i;
            let marker = if idx == self.at { " <-- here" } else { "" };
            writeln!(
                f,
                "    [{idx}] {:?} page={} cost={}{marker}",
                ev.kind, ev.page, ev.cost
            )?;
        }
        if hi < self.events.len() {
            writeln!(f, "    … {} later event(s)", self.events.len() - hi)?;
        }
        Ok(())
    }
}

/// Drives a system and an oracle in lockstep.
pub struct Lockstep {
    sys: SpurSystem,
    oracle: Oracle,
    ref_index: u64,
    emitted: u64,
}

impl Lockstep {
    /// Builds the pair from one `SimConfig`. The oracle gets only the
    /// policy-relevant knobs; the system gets observability with a
    /// lockstep-sized trace ring.
    ///
    /// # Errors
    ///
    /// Propagates `SpurSystem` construction failure as a string.
    pub fn new(config: SimConfig) -> Result<Self, String> {
        let mut sys = SpurSystem::new(config).map_err(|e| e.to_string())?;
        sys.enable_obs(spur_core::ObsParams {
            epoch: None,
            trace_capacity: LOCKSTEP_TRACE_CAPACITY,
        });
        let oracle = Oracle::new(OracleConfig {
            dirty: config.dirty,
            ref_policy: config.ref_policy,
            cpus: config.cpus,
            cache_lines: CACHE_LINES as usize,
            daemon_period: config.daemon_period,
            soft_faults: config.soft_faults,
        });
        Ok(Lockstep {
            sys,
            oracle,
            ref_index: 0,
            emitted: 0,
        })
    }

    /// Installs an intentional oracle defect (checker self-test).
    pub fn with_mutation(mut self, mutation: Option<Mutation>) -> Self {
        self.oracle = self.oracle.with_mutation(mutation);
        self
    }

    /// Registers a workload's regions with both models.
    ///
    /// # Errors
    ///
    /// Propagates region-registration failure as a string.
    pub fn load_workload(&mut self, workload: &Workload) -> Result<(), String> {
        self.sys
            .load_workload(workload)
            .map_err(|e| e.to_string())?;
        for region in workload.regions() {
            self.oracle
                .add_region(region.start.index(), region.pages, page_kind(region.kind));
        }
        Ok(())
    }

    /// Registers one raw region with both models (fuzzer path).
    ///
    /// # Errors
    ///
    /// Propagates region-registration failure as a string.
    pub(crate) fn register_region(
        &mut self,
        start: Vpn,
        pages: u64,
        kind: PageKind,
    ) -> Result<(), String> {
        self.sys
            .register_region(start, pages, kind)
            .map_err(|e| e.to_string())?;
        self.oracle.add_region(start.index(), pages, kind);
        Ok(())
    }

    /// The system under test (for post-run assertions).
    pub fn system(&self) -> &SpurSystem {
        &self.sys
    }

    /// Runs one reference through the system, pulls the event delta,
    /// and steps the oracle over it.
    ///
    /// # Errors
    ///
    /// Returns the divergence (or an infrastructure failure dressed as
    /// one: system error, trace-ring overflow) at the first mismatch.
    pub(crate) fn step(&mut self, r: TraceRef) -> Result<(), Divergence> {
        let before = self.sys.obs_emitted_total().unwrap_or(0);
        debug_assert_eq!(before, self.emitted);
        if let Err(e) = self.sys.reference(r) {
            return Err(self.divergence(r, format!("system error: {e}"), 0, Vec::new()));
        }
        let after = self.sys.obs_emitted_total().unwrap_or(0);
        let delta = (after - before) as usize;
        self.emitted = after;
        let capacity = self.sys.obs_trace_capacity().unwrap_or(0);
        if delta > capacity {
            return Err(self.divergence(
                r,
                format!("event delta ({delta}) overflowed the trace ring ({capacity}): lockstep cannot see every event"),
                0,
                Vec::new(),
            ));
        }
        let events = self.sys.obs_tail(delta);
        match self.oracle.step(&r, &events) {
            Ok(()) => {
                self.ref_index += 1;
                Ok(())
            }
            Err(err) => Err(self.divergence(r, err.reason, err.at, events)),
        }
    }

    /// Steps every reference `gen` yields, up to `limit`.
    ///
    /// # Errors
    ///
    /// Returns the first divergence.
    pub fn run<I: Iterator<Item = TraceRef>>(
        &mut self,
        gen: &mut I,
        limit: u64,
    ) -> Result<u64, Divergence> {
        let mut n = 0;
        while n < limit {
            let Some(r) = gen.next() else { break };
            self.step(r)?;
            n += 1;
        }
        Ok(n)
    }

    fn divergence(
        &self,
        r: TraceRef,
        reason: String,
        at: usize,
        events: Vec<SimEvent>,
    ) -> Divergence {
        let cpu = r.pid.0 as usize % self.sys.config().cpus;
        Divergence {
            ref_index: self.ref_index,
            cpu,
            reference: r,
            reason,
            at,
            events,
            context: self
                .oracle
                .context(cpu, r.addr.vpn().index(), r.addr.block().index()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_core::DirtyPolicy;
    use spur_trace::workloads;

    #[test]
    fn workload1_min_lockstep_holds_for_a_short_run() {
        let config = SimConfig {
            dirty: DirtyPolicy::Min,
            ..SimConfig::default()
        };
        let mut lock = Lockstep::new(config).unwrap();
        let workload = workloads::workload1();
        lock.load_workload(&workload).unwrap();
        let mut gen = workload.generator(7);
        let n = lock.run(&mut gen, 5_000).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(n, 5_000);
    }

    #[test]
    fn a_mutated_oracle_diverges_and_reports_context() {
        let config = SimConfig {
            dirty: DirtyPolicy::Spur,
            ..SimConfig::default()
        };
        let mut lock = Lockstep::new(config)
            .unwrap()
            .with_mutation(Some(Mutation::SkipSpurDirtyRefresh));
        let workload = workloads::workload1();
        lock.load_workload(&workload).unwrap();
        let mut gen = workload.generator(7);
        let d = lock
            .run(&mut gen, 200_000)
            .expect_err("the mutated oracle must diverge on a SPUR run");
        let report = d.to_string();
        assert!(report.contains("divergence at reference #"), "{report}");
        assert!(report.contains("oracle: page"), "{report}");
    }
}
