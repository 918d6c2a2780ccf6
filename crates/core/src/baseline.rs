//! The conventional baseline: a TLB plus a physically-addressed cache.
//!
//! The paper's premise is a comparison it never runs end to end:
//! virtual-address caches "provide faster access times than physical
//! address caches, because translation is only required on cache misses"
//! — but in a TLB system "checking the [reference and dirty] bits incurs
//! no additional overhead." This module builds that conventional machine
//! so the trade can be measured on the same workloads:
//!
//! * every reference probes the TLB; a physically-indexed cache cannot
//!   fully overlap indexing with translation at SPUR's geometry (128 KB
//!   direct-mapped vs 4 KB pages needs 5 index bits from the frame
//!   number), so each access pays a configurable serialization penalty;
//! * TLB entries carry R/D; R is hardware-set for free, D traps to the
//!   same software handler as SPUR's policies — but there are **no
//!   excess faults**: the per-page TLB entry can never go stale the way
//!   per-block cached copies do;
//! * TLB misses pay a refill (hardware walk or an R2000-style software
//!   handler); page faults go through the same Sprite VM as the
//!   virtual-cache system.

use std::collections::HashMap;

use spur_cache::cache::FlushStats;
use spur_cache::counters::{CounterEvent, PerfCounters};
use spur_cache::tlb::Tlb;
use spur_trace::stream::TraceRef;
use spur_trace::workloads::Workload;
use spur_types::{
    AccessKind, CostParams, Cycles, Error, MemSize, Pfn, Result, Vpn, BLOCKS_PER_PAGE, CACHE_LINES,
};
use spur_vm::policy::RefPolicy;
use spur_vm::system::{PageFlusher, VmConfig, VmCtx, VmSystem};

use crate::breakdown::{CycleBreakdown, CycleCategory};
use crate::system::page_kind;

/// Configuration of the conventional machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Main-memory size.
    pub mem: MemSize,
    /// Cycle costs (shared with the virtual-cache system).
    pub costs: CostParams,
    /// TLB entries (64 was typical; the R2000 had 64).
    pub entries: usize,
    /// Extra cycles every access pays because cache indexing serializes
    /// behind translation.
    pub serial_penalty: u64,
    /// Cycles to refill a missing TLB entry (hardware walk of the
    /// two-level table, or a tuned software refill handler).
    pub refill: u64,
    /// Flush the whole TLB on every context switch (an untagged TLB —
    /// the R2000 had address-space IDs, many contemporaries did not).
    pub flush_on_switch: bool,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            mem: MemSize::MB8,
            costs: CostParams::paper(),
            entries: 64,
            serial_penalty: 1,
            refill: 30,
            flush_on_switch: false,
        }
    }
}

/// A minimal physically-indexed, direct-mapped, write-back cache.
///
/// Stores block-level valid/dirty state only; physical blocks are
/// identified by `pfn * 128 + block-within-page`.
#[derive(Debug, Clone)]
struct PhysCache {
    lines: Vec<(bool, u64, bool)>, // valid, phys block, dirty
    mask: u64,
}

impl PhysCache {
    fn new(lines: usize) -> Self {
        PhysCache {
            lines: vec![(false, 0, false); lines],
            mask: lines as u64 - 1,
        }
    }

    fn index(&self, block: u64) -> usize {
        (block & self.mask) as usize
    }

    fn probe(&self, block: u64) -> bool {
        let (valid, tag, _) = self.lines[self.index(block)];
        valid && tag == block
    }

    /// Fills; returns whether a dirty block was displaced.
    fn fill(&mut self, block: u64, dirty: bool) -> bool {
        let i = self.index(block);
        let (valid, _, was_dirty) = self.lines[i];
        self.lines[i] = (true, block, dirty);
        valid && was_dirty
    }

    fn mark_dirty(&mut self, block: u64) {
        let i = self.index(block);
        debug_assert!(self.lines[i].0 && self.lines[i].1 == block);
        self.lines[i].2 = true;
    }

    /// Flushes all blocks of frame `pfn`; returns (flushed, writebacks).
    fn flush_frame(&mut self, pfn: Pfn) -> (u64, u64) {
        let base = pfn.index() as u64 * BLOCKS_PER_PAGE;
        let mut flushed = 0;
        let mut wb = 0;
        for b in base..base + BLOCKS_PER_PAGE {
            let i = self.index(b);
            let (valid, tag, dirty) = self.lines[i];
            if valid && tag == b {
                flushed += 1;
                wb += u64::from(dirty);
                self.lines[i] = (false, 0, false);
            }
        }
        (flushed, wb)
    }
}

/// The TLB + physical-cache hardware, bundled so the VM's reclaim hook
/// can scrub both.
#[derive(Debug)]
struct TlbHardware {
    tlb: Tlb,
    cache: PhysCache,
    /// Resident mapping shadow, so the reclaim hook can find the frame.
    frames: HashMap<Vpn, Pfn>,
}

impl PageFlusher for TlbHardware {
    fn flush_page(&mut self, vpn: Vpn) -> FlushStats {
        // Reclaim: shoot down the TLB entry and scrub the frame's blocks.
        self.tlb.invalidate(vpn);
        let mut stats = FlushStats {
            probed: BLOCKS_PER_PAGE,
            ..FlushStats::default()
        };
        if let Some(pfn) = self.frames.remove(&vpn) {
            let (flushed, wb) = self.cache.flush_frame(pfn);
            stats.flushed = flushed;
            stats.written_back = wb;
        }
        stats
    }
}

/// The conventional TLB + physical-cache system, runnable on the same
/// workloads as [`crate::system::SpurSystem`].
#[derive(Debug)]
pub struct TlbSystem {
    config: TlbConfig,
    vm: VmSystem,
    hw: TlbHardware,
    counters: PerfCounters,
    cycles: Cycles,
    breakdown: CycleBreakdown,
    last_pid: Option<spur_trace::stream::Pid>,
}

impl TlbSystem {
    /// Builds the baseline machine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for inconsistent sizing.
    pub fn new(config: TlbConfig) -> Result<Self> {
        let vm_config = VmConfig::for_mem(config.mem);
        // Reference bits are exact in a TLB system (hardware-set on every
        // access); the closest policy is REF semantics without flush cost,
        // which MISS approximates best here because the daemon reads real
        // PTE bits that we keep up to date below.
        let vm = VmSystem::new(vm_config, config.costs, RefPolicy::Miss)?;
        Ok(TlbSystem {
            config,
            vm,
            hw: TlbHardware {
                tlb: Tlb::new(config.entries),
                cache: PhysCache::new(CACHE_LINES as usize),
                frames: HashMap::new(),
            },
            counters: PerfCounters::promiscuous(),
            cycles: Cycles::ZERO,
            breakdown: CycleBreakdown::new(),
            last_pid: None,
        })
    }

    /// Registers a workload's regions.
    ///
    /// # Errors
    ///
    /// Propagates region errors.
    pub fn load_workload(&mut self, workload: &Workload) -> Result<()> {
        for region in workload.regions() {
            self.vm
                .register_region(region.start, region.pages, page_kind(region.kind))?;
        }
        Ok(())
    }

    /// Modeled elapsed time.
    pub fn cycles(&self) -> Cycles {
        self.cycles
    }

    /// Elapsed-time decomposition.
    pub fn breakdown(&self) -> &CycleBreakdown {
        &self.breakdown
    }

    /// Counter bank (dirty faults, page-ins, ...).
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// TLB hit ratio so far.
    pub fn tlb_hit_ratio(&self) -> f64 {
        self.hw.tlb.hit_ratio()
    }

    /// TLB misses so far.
    pub fn tlb_misses(&self) -> u64 {
        self.hw.tlb.misses()
    }

    /// The VM system (page-in statistics).
    pub fn vm(&self) -> &VmSystem {
        &self.vm
    }

    fn charge(&mut self, cat: CycleCategory, cycles: u64) {
        let c = Cycles::new(cycles);
        self.cycles += c;
        self.breakdown[cat] += c;
    }

    /// Runs references from `gen` until `limit`.
    ///
    /// # Errors
    ///
    /// Propagates the first reference error.
    pub fn run<I: Iterator<Item = TraceRef>>(&mut self, gen: &mut I, limit: u64) -> Result<()> {
        for _ in 0..limit {
            match gen.next() {
                Some(r) => self.reference(r)?,
                None => break,
            }
        }
        Ok(())
    }

    /// Executes one reference.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] for addresses outside every region.
    pub fn reference(&mut self, r: TraceRef) -> Result<()> {
        let costs = self.config.costs;
        // Every access: cache cycle + translation serialization.
        self.charge(
            CycleCategory::BaseExecution,
            costs.cache_hit + self.config.serial_penalty,
        );
        self.counters.record(match r.kind {
            AccessKind::InstrFetch => CounterEvent::IFetch,
            AccessKind::Read => CounterEvent::Read,
            AccessKind::Write => CounterEvent::Write,
        });

        // An untagged TLB loses everything on a context switch.
        if self.last_pid != Some(r.pid) {
            if self.last_pid.is_some() && self.config.flush_on_switch {
                self.hw.tlb.flush_all();
            }
            self.last_pid = Some(r.pid);
        }

        let vpn = r.addr.vpn();
        // TLB probe happens on EVERY access (that is the baseline's whole
        // point: R/D checks ride along for free).
        let (pfn, entry_dirty) = match self.hw.tlb.probe(vpn) {
            Some(entry) => {
                if !entry.referenced {
                    entry.referenced = true;
                }
                (entry.pfn, entry.dirty)
            }
            None => self.tlb_miss(vpn)?,
        };
        // Hardware-set R propagates to the PTE without cost.
        if !self.vm.pte(vpn).referenced() {
            self.vm.set_referenced(vpn);
        }

        // Dirty check: free on the TLB hit path; the first write traps.
        if r.kind.is_write() && !entry_dirty {
            if !self.vm.pte(vpn).dirty() {
                self.counters.record(CounterEvent::DirtyFault);
                self.charge(CycleCategory::DirtyBit, costs.t_ds);
                self.vm.mark_dirty(vpn);
            }
            if let Some(entry) = self.hw.tlb.probe(vpn) {
                entry.dirty = true;
            }
        }

        // Physical cache access.
        let block = pfn.index() as u64 * BLOCKS_PER_PAGE + r.addr.block().within_page();
        if self.hw.cache.probe(block) {
            if r.kind.is_write() {
                self.hw.cache.mark_dirty(block);
            }
            return Ok(());
        }
        self.counters.record(match r.kind {
            AccessKind::InstrFetch => CounterEvent::IFetchMiss,
            AccessKind::Read => CounterEvent::ReadMiss,
            AccessKind::Write => CounterEvent::WriteMiss,
        });
        self.counters.record(CounterEvent::Fill);
        self.charge(CycleCategory::MissService, costs.block_fill);
        if self.hw.cache.fill(block, r.kind.is_write()) {
            self.counters.record(CounterEvent::Writeback);
            self.charge(CycleCategory::MissService, costs.flush_writeback);
        }
        Ok(())
    }

    /// TLB miss: refill from the page table, faulting the page in first
    /// if needed.
    fn tlb_miss(&mut self, vpn: Vpn) -> Result<(Pfn, bool)> {
        self.charge(CycleCategory::MissService, self.config.refill);
        let mut pte = self.vm.pte(vpn);
        if !pte.valid() {
            let kind = self
                .vm
                .kind_of(vpn)
                .ok_or_else(|| Error::BadWorkload(format!("{vpn} is in no region")))?;
            let mut ctx = VmCtx::new(&mut self.hw, &mut self.counters);
            self.vm.fault_in(vpn, kind.natural_protection(), &mut ctx)?;
            let (paging, daemon, ref_flush) =
                (ctx.paging_cycles, ctx.daemon_cycles, ctx.ref_flush_cycles);
            self.charge(CycleCategory::Paging, paging.raw());
            self.charge(CycleCategory::Daemon, daemon.raw());
            self.charge(CycleCategory::RefBit, ref_flush.raw());
            pte = self.vm.pte(vpn);
            debug_assert!(pte.valid());
        }
        self.hw.frames.insert(vpn, pte.pfn());
        if let Some(evicted) = self.hw.tlb.insert(vpn, pte.pfn(), pte.protection()) {
            // Write evicted R/D state back to the PTE (free in hardware).
            if evicted.dirty {
                self.vm.mark_dirty(evicted.vpn);
            }
        }
        Ok((pte.pfn(), pte.dirty()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_trace::workloads::slc;

    fn run(mem: MemSize, refs: u64) -> TlbSystem {
        let w = slc();
        let mut sys = TlbSystem::new(TlbConfig {
            mem,
            ..TlbConfig::default()
        })
        .unwrap();
        sys.load_workload(&w).unwrap();
        sys.run(&mut w.generator(1989), refs).unwrap();
        sys
    }

    /// Cross-component audit: the VM's own invariants, and a shadow map
    /// that holds only resident pages.
    fn check_invariants(sys: &TlbSystem) -> std::result::Result<(), String> {
        sys.vm.check_invariants()?;
        for vpn in sys.hw.frames.keys() {
            if !sys.vm.is_resident(*vpn) {
                return Err(format!("shadow map holds non-resident {vpn}"));
            }
        }
        Ok(())
    }

    #[test]
    fn runs_and_upholds_invariants() {
        let sys = run(MemSize::MB8, 300_000);
        let c = sys.counters();
        let refs: u64 = [
            CounterEvent::IFetch,
            CounterEvent::Read,
            CounterEvent::Write,
        ]
        .into_iter()
        .map(|e| c.total(e))
        .sum();
        assert_eq!(refs, 300_000);
        check_invariants(&sys).unwrap();
        assert!(sys.tlb_hit_ratio() > 0.9, "64 entries should cover the WS");
        assert!(c.total(CounterEvent::Fill) > 0);
    }

    #[test]
    fn no_excess_faults_are_possible() {
        // Per-page TLB state cannot go stale per block: the dirty-fault
        // count equals the number of first-writes, with no excess class
        // at all.
        let sys = run(MemSize::MB8, 300_000);
        assert_eq!(sys.counters().total(CounterEvent::ExcessFault), 0);
        assert_eq!(sys.counters().total(CounterEvent::DirtyBitMiss), 0);
        assert!(sys.counters().total(CounterEvent::DirtyFault) > 0);
    }

    #[test]
    fn every_access_pays_the_serialization_penalty() {
        let sys = run(MemSize::MB8, 100_000);
        let base = sys.breakdown()[CycleCategory::BaseExecution].raw();
        let per_ref = TlbConfig::default().costs.cache_hit + TlbConfig::default().serial_penalty;
        assert_eq!(base, 100_000 * per_ref);
    }

    #[test]
    fn paging_pressure_still_works_through_the_shared_vm() {
        let sys = run(MemSize::MB5, 1_000_000);
        assert!(sys.vm().stats().page_ins > 0, "5 MB must page");
        check_invariants(&sys).unwrap();
    }

    #[test]
    fn untagged_tlb_pays_for_context_switches() {
        // A 64-entry TLB turns over completely within a 12k-reference
        // quantum, so flushing it on a switch costs nothing — the effect
        // only appears once the TLB is large enough to retain a
        // process's entries across other quanta.
        let w = spur_trace::workloads::workload1();
        let run = |flush: bool| {
            let mut sys = TlbSystem::new(TlbConfig {
                mem: MemSize::MB8,
                entries: 2048,
                flush_on_switch: flush,
                ..TlbConfig::default()
            })
            .unwrap();
            sys.load_workload(&w).unwrap();
            sys.run(&mut w.generator(7), 400_000).unwrap();
            sys
        };
        let tagged = run(false);
        let untagged = run(true);
        assert!(
            untagged.tlb_misses() > tagged.tlb_misses(),
            "flushing on switch must cost refills: {} vs {}",
            untagged.tlb_misses(),
            tagged.tlb_misses()
        );
    }

    #[test]
    fn breakdown_sums_to_elapsed() {
        let sys = run(MemSize::MB5, 200_000);
        assert_eq!(sys.breakdown().total(), sys.cycles());
    }
}
