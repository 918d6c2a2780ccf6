//! The VM system: page-fault handling, the free list, and the clock page
//! daemon.
//!
//! Replacement follows Sprite's structure: a free list with low/high
//! watermarks and a clock ("page daemon") that sweeps resident pages when
//! the free list runs low. Each sweep step examines one page:
//!
//! * if the policy reads its reference bit as set, the bit is cleared
//!   (under `REF`, the page is also flushed from the cache so the next
//!   reference will miss and re-set the bit) and the hand advances;
//! * otherwise the page is reclaimed: its blocks are flushed from the
//!   cache (**mandatory** in a virtual-address cache — a later fault-in of
//!   the same global page must not hit stale lines), it is written to
//!   backing store if its dirty bit says so, and its frame joins the free
//!   list.

use std::collections::VecDeque;

use spur_types::{FastMap, FastSet};

use spur_cache::cache::VirtualCache;
use spur_cache::counters::PerfCounters;
use spur_mem::pagetable::PageTable;
use spur_mem::phys::PhysMemory;
use spur_mem::pte::Pte;
use spur_obs::{EventKind, Recorder, SimEvent};
use spur_types::{CostParams, Cycles, Error, MemSize, Pfn, Protection, Result, Vpn};

use crate::policy::RefPolicy;
use crate::region::{PageKind, RegionMap};
use crate::residency::ResidencyStats;
use crate::stats::VmStats;
use crate::swap::Swap;

/// Sizing and watermark configuration for the VM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmConfig {
    /// Total main memory.
    pub mem: MemSize,
    /// Frames wired at boot for the kernel (text, static data). Sprite's
    /// kernel occupied roughly a megabyte of the measured machines.
    pub kernel_reserved_frames: u32,
    /// Start a daemon sweep when free frames drop below this.
    pub free_low_water: u32,
    /// Sweep until free frames reach this.
    pub free_high_water: u32,
    /// Whether reclaimed pages park on the free queue and can be
    /// soft-faulted back without I/O (Sprite's behavior). Disable only
    /// for ablation studies: without it, every reclaim of a still-active
    /// page costs a full page-in.
    pub soft_faults: bool,
}

impl VmConfig {
    /// A sensible configuration for a machine of the given size:
    /// watermarks scale with memory as Sprite's did (sizing the
    /// free-list soft-fault window), and the kernel reservation follows
    /// [`spur_mem::kernel::KernelLayout::sprite_1989`].
    pub fn for_mem(mem: MemSize) -> Self {
        Self::with_kernel(mem, spur_mem::kernel::KernelLayout::sprite_1989())
    }

    /// A configuration with an explicit kernel layout.
    pub fn with_kernel(mem: MemSize, kernel: spur_mem::kernel::KernelLayout) -> Self {
        VmConfig {
            mem,
            kernel_reserved_frames: kernel.total_pages(),
            free_low_water: (mem.frames() / 64).max(16),
            free_high_water: (mem.frames() / 12).max(48),
            soft_faults: true,
        }
    }

    /// Validates watermark sanity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the watermarks are inverted or
    /// the kernel reservation exceeds memory.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.free_low_water >= self.free_high_water {
            return Err(Error::InvalidConfig(
                "low watermark must be below high watermark".to_string(),
            ));
        }
        let reserved = u64::from(self.kernel_reserved_frames) + u64::from(self.free_high_water);
        if reserved >= u64::from(self.mem.frames()) {
            return Err(Error::InvalidConfig(format!(
                "kernel reservation {} + watermark leaves no usable memory in {}",
                self.kernel_reserved_frames, self.mem
            )));
        }
        Ok(())
    }
}

/// Something the page daemon can flush a page out of.
///
/// On a uniprocessor this is the one virtual cache; on a multiprocessor
/// it is *every* cache on the bus — the cost Section 4.1 warns about.
pub trait PageFlusher {
    /// Flushes every block of `vpn`, returning aggregate flush statistics.
    fn flush_page(&mut self, vpn: Vpn) -> spur_cache::cache::FlushStats;
}

impl PageFlusher for VirtualCache {
    fn flush_page(&mut self, vpn: Vpn) -> spur_cache::cache::FlushStats {
        self.flush_page_tag_checked(vpn)
    }
}

/// A flusher over several caches (one per CPU): the daemon's flush hits
/// every cache on the bus.
impl PageFlusher for Vec<VirtualCache> {
    fn flush_page(&mut self, vpn: Vpn) -> spur_cache::cache::FlushStats {
        let mut total = spur_cache::cache::FlushStats::default();
        for cache in self.iter_mut() {
            let s = cache.flush_page_tag_checked(vpn);
            total.probed += s.probed;
            total.flushed += s.flushed;
            total.written_back += s.written_back;
        }
        total
    }
}

/// Mutable context a VM operation runs in: the cache(s) it may flush,
/// the counters it reports to, and per-category cycle accumulators (the
/// simulator's elapsed-time decomposition needs to know paging I/O from
/// daemon scanning from reference-bit flush work).
pub struct VmCtx<'a> {
    /// The cache(s) the daemon flushes pages from.
    pub flusher: &'a mut dyn PageFlusher,
    /// The cache controller's performance counters.
    pub counters: &'a mut PerfCounters,
    /// Fault service, backing-store I/O, zero-fill, and page-out cycles.
    pub paging_cycles: Cycles,
    /// Clock-scan and reclaim-flush cycles.
    pub daemon_cycles: Cycles,
    /// `REF`-policy page-flush cycles (clearing reference bits).
    pub ref_flush_cycles: Cycles,
    /// Optional event recorder; `None` keeps the uninstrumented path.
    recorder: Option<&'a mut dyn Recorder>,
    /// Simulated clock at context creation; emitted event timestamps
    /// are this base plus the cycles charged so far.
    cycle_base: u64,
    /// Pages reclaimed through this context (their VPN indices), in
    /// reclaim order. Only tracked when a recorder is attached — the
    /// caller uses it to close per-residency histograms.
    pub reclaimed: Vec<u64>,
}

impl<'a> VmCtx<'a> {
    /// Creates a context with zeroed cycle accumulators.
    pub fn new(flusher: &'a mut dyn PageFlusher, counters: &'a mut PerfCounters) -> Self {
        VmCtx {
            flusher,
            counters,
            paging_cycles: Cycles::ZERO,
            daemon_cycles: Cycles::ZERO,
            ref_flush_cycles: Cycles::ZERO,
            recorder: None,
            cycle_base: 0,
            reclaimed: Vec::new(),
        }
    }

    /// [`VmCtx::new`] with an event recorder attached. `cycle_base` is
    /// the simulated clock at context creation.
    pub fn with_recorder(
        flusher: &'a mut dyn PageFlusher,
        counters: &'a mut PerfCounters,
        recorder: &'a mut dyn Recorder,
        cycle_base: u64,
    ) -> Self {
        let mut ctx = Self::new(flusher, counters);
        ctx.recorder = Some(recorder);
        ctx.cycle_base = cycle_base;
        ctx
    }

    /// Total cycles charged through this context.
    pub(crate) fn total(&self) -> Cycles {
        self.paging_cycles + self.daemon_cycles + self.ref_flush_cycles
    }

    /// Counts one event and, with a recorder attached, traces it at the
    /// current simulated time (base + cycles charged so far), so callers
    /// charge its cycles first.
    fn event(&mut self, kind: EventKind, page: Vpn, cost: u64) {
        self.counters.record(kind.into());
        let cycle = self.cycle_base + self.total().raw();
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.emit(SimEvent {
                kind,
                cycle,
                page: page.index(),
                cost,
                cpu: 0,
            });
        }
    }
}

impl std::fmt::Debug for VmCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmCtx")
            .field("paging", &self.paging_cycles)
            .field("daemon", &self.daemon_cycles)
            .field("ref_flush", &self.ref_flush_cycles)
            .finish()
    }
}

/// What a page fault resolution did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInOutcome {
    /// The frame now holding the page.
    pub pfn: Pfn,
    /// `true` if the page was read from backing store; `false` if it was
    /// zero-filled.
    pub read_from_store: bool,
    /// The page's kind.
    pub kind: PageKind,
}

/// The Sprite-like VM system.
///
/// ```
/// use spur_cache::cache::VirtualCache;
/// use spur_cache::counters::PerfCounters;
/// use spur_vm::policy::RefPolicy;
/// use spur_vm::region::PageKind;
/// use spur_vm::system::{VmConfig, VmCtx, VmSystem};
/// use spur_types::{CostParams, MemSize, Protection, Vpn};
///
/// let mut vm = VmSystem::new(
///     VmConfig::for_mem(MemSize::MB5),
///     CostParams::paper(),
///     RefPolicy::Miss,
/// ).unwrap();
/// vm.register_region(Vpn::new(1000), 64, PageKind::Heap).unwrap();
///
/// let mut cache = VirtualCache::prototype();
/// let mut ctrs = PerfCounters::promiscuous();
/// let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
/// let out = vm.fault_in(Vpn::new(1000), Protection::ReadWrite, &mut ctx).unwrap();
/// assert!(!out.read_from_store); // fresh heap page zero-fills
/// assert!(vm.is_resident(Vpn::new(1000)));
/// ```
#[derive(Debug)]
pub struct VmSystem {
    config: VmConfig,
    costs: CostParams,
    ref_policy: RefPolicy,
    phys: PhysMemory,
    pt: PageTable,
    regions: RegionMap,
    swap: Swap,
    stats: VmStats,
    /// Resident replaceable pages in clock order: the hand is the front;
    /// surviving pages rotate to the back. (A plain rotation keeps strict
    /// fault-LRU order — an indexed swap-remove here would interleave
    /// young pages into the hand position and wreck FIFO behavior, which
    /// matters enormously under `NOREF`.)
    clock: VecDeque<Vpn>,
    /// Resident pages whose current residency began as a zero-fill.
    zero_filled: FastSet<Vpn>,
    /// Reclaimed pages whose frames have not been reused yet, oldest
    /// first. A fault on one of these is a **soft fault**: the page is
    /// pulled back without I/O, the mechanism that keeps poor replacement
    /// decisions (e.g. NOREF's FIFO-like behavior) survivable in Sprite.
    free_queue: VecDeque<Vpn>,
    /// Index of the free queue: page → its retained frame.
    queued: FastMap<Vpn, Pfn>,
    /// Residency birth stamps (in faults) for resident pages.
    born: FastMap<Vpn, u64>,
    /// Completed-residency histogram.
    residency: ResidencyStats,
}

impl VmSystem {
    /// Boots the VM system, wiring the kernel reservation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for bad watermarks, or
    /// [`Error::NoFreeFrames`] if the kernel cannot be wired.
    pub fn new(config: VmConfig, costs: CostParams, ref_policy: RefPolicy) -> Result<Self> {
        config.validate()?;
        let mut phys = PhysMemory::new(config.mem);
        for _ in 0..config.kernel_reserved_frames {
            phys.allocate_wired()?;
        }
        Ok(VmSystem {
            config,
            costs,
            ref_policy,
            phys,
            pt: PageTable::new(),
            regions: RegionMap::new(),
            swap: Swap::new(),
            stats: VmStats::new(),
            clock: VecDeque::new(),
            zero_filled: FastSet::default(),
            free_queue: VecDeque::new(),
            queued: FastMap::default(),
            born: FastMap::default(),
            residency: ResidencyStats::new(),
        })
    }

    /// Registers an address-space region; see `RegionMap::register`.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::BadWorkload`] from the region map.
    pub fn register_region(&mut self, start: Vpn, pages: u64, kind: PageKind) -> Result<()> {
        self.regions.register(start, pages, kind)
    }

    /// The reference-bit policy in force.
    pub fn ref_policy(&self) -> RefPolicy {
        self.ref_policy
    }

    /// The page table (for translation and policy checks).
    pub fn page_table(&self) -> &PageTable {
        &self.pt
    }

    /// Reads a PTE (invalid if absent).
    #[inline]
    pub fn pte(&self, vpn: Vpn) -> Pte {
        self.pt.pte(vpn)
    }

    /// Updates a PTE in place (software fault handlers setting D or R).
    pub fn update_pte<F: FnOnce(&mut Pte)>(&mut self, vpn: Vpn, f: F) -> Pte {
        self.pt.update(vpn, f)
    }

    /// Whether `vpn` is resident (has a valid PTE).
    pub fn is_resident(&self, vpn: Vpn) -> bool {
        self.pt.pte(vpn).valid()
    }

    /// The page kind of `vpn`, if it belongs to a registered region.
    #[inline]
    pub fn kind_of(&self, vpn: Vpn) -> Option<PageKind> {
        self.regions.kind_of(vpn)
    }

    /// Accumulated VM statistics.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Backing-store accounting (Table 3.5 inputs).
    pub fn swap(&self) -> &Swap {
        &self.swap
    }

    /// Completed page-residency statistics (lifetimes in faults).
    pub fn residency(&self) -> &ResidencyStats {
        &self.residency
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> usize {
        self.phys.free_frames()
    }

    /// Frames available for allocation: truly free plus reclaimable from
    /// the free queue (tombstones of soft-faulted pages excluded).
    pub(crate) fn available_frames(&self) -> usize {
        self.phys.free_frames() + self.queued.len()
    }

    /// Handles a page fault on `vpn`, making it resident with protection
    /// `initial_prot` (chosen by the dirty-bit policy in force: protection
    /// emulation starts writable pages read-only).
    ///
    /// Charges `ctx.cycles` for the fault service, any backing-store read
    /// or zero-fill, and any daemon sweeping needed to find a frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] if `vpn` is in no registered region,
    /// or [`Error::NoFreeFrames`] if memory is so small that even a full
    /// sweep frees nothing.
    pub fn fault_in(
        &mut self,
        vpn: Vpn,
        initial_prot: Protection,
        ctx: &mut VmCtx<'_>,
    ) -> Result<FaultInOutcome> {
        debug_assert!(!self.is_resident(vpn), "fault on resident page {vpn}");
        let kind = self
            .regions
            .kind_of(vpn)
            .ok_or_else(|| Error::BadWorkload(format!("{vpn} is in no region")))?;

        ctx.paging_cycles += Cycles::new(self.costs.page_fault_service);

        // Soft fault: the page is still sitting on the free queue with
        // its frame intact — revalidate it without any I/O.
        if let Some(pfn) = self.soft_fault_frame(vpn) {
            // Compact the queue when tombstones dominate, keeping pops
            // O(1) amortized.
            if self.free_queue.len() > 64 && self.free_queue.len() > 2 * self.queued.len() {
                self.free_queue.retain(|v| self.queued.contains_key(v));
            }
            self.stats.soft_faults += 1;
            self.stats.page_faults += 1;
            ctx.event(EventKind::SoftFault, vpn, self.costs.page_fault_service);
            let mut pte = Pte::resident(pfn, initial_prot);
            pte.set_referenced(true);
            self.pt.insert(vpn, pte);
            self.clock_push(vpn);
            // A soft fault resumes the interrupted residency.
            self.born.entry(vpn).or_insert(self.stats.page_faults);
            return Ok(FaultInOutcome {
                pfn,
                read_from_store: false,
                kind,
            });
        }

        // Keep the free list healthy, then wire the second-level entry
        // (which may itself take a frame), then allocate.
        if self.available_frames() < self.config.free_low_water as usize {
            self.sweep(ctx);
        }
        self.ensure_truly_free()?;
        self.pt.ensure_second_level(vpn, &mut self.phys)?;
        if self.available_frames() == 0 {
            self.sweep(ctx);
        }
        let pfn = self.take_frame(vpn)?;

        let read_from_store = self.swap.fault_in_reads(vpn, kind);
        if read_from_store {
            self.stats.page_ins += 1;
            ctx.paging_cycles += Cycles::new(self.costs.page_in);
            ctx.event(EventKind::PageIn, vpn, self.costs.page_in);
        } else {
            self.stats.zero_fills += 1;
            self.zero_filled.insert(vpn);
            ctx.paging_cycles += Cycles::new(self.costs.zero_fill);
            ctx.event(EventKind::ZeroFill, vpn, self.costs.zero_fill);
        }
        self.stats.page_faults += 1;

        // The faulting reference counts as a reference: R starts set.
        // (Under NOREF the hardware bit is always set anyway.)
        let mut pte = Pte::resident(pfn, initial_prot);
        pte.set_referenced(true);
        self.pt.insert(vpn, pte);

        self.clock_push(vpn);
        self.born.insert(vpn, self.stats.page_faults);
        Ok(FaultInOutcome {
            pfn,
            read_from_store,
            kind,
        })
    }

    /// Software dirty-bit handler: marks the page dirty in its PTE.
    pub fn mark_dirty(&mut self, vpn: Vpn) {
        self.pt.update(vpn, |p| p.set_dirty(true));
    }

    /// Whether `vpn`'s *current residency* began as a zero-fill — the
    /// predicate behind the paper's `N_zfod` exclusion (a dirty fault on
    /// such a page is the unavoidable first write to a fresh page, not a
    /// policy cost).
    pub fn residency_zero_filled(&self, vpn: Vpn) -> bool {
        self.zero_filled.contains(&vpn)
    }

    /// Software reference-bit handler: marks the page referenced.
    pub fn set_referenced(&mut self, vpn: Vpn) {
        self.pt.update(vpn, |p| p.set_referenced(true));
    }

    /// Pops `vpn` from the free queue if soft faults are enabled and it
    /// is parked there.
    fn soft_fault_frame(&mut self, vpn: Vpn) -> Option<Pfn> {
        if !self.config.soft_faults {
            return None;
        }
        self.queued.remove(&vpn)
    }

    /// Guarantees the raw free list is nonempty, permanently evicting the
    /// oldest free-queue page if needed (its frame returns to the free
    /// list and its soft-fault window closes).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoFreeFrames`] if nothing can be evicted.
    fn ensure_truly_free(&mut self) -> Result<()> {
        while self.phys.free_frames() == 0 {
            let old = self.free_queue.pop_front().ok_or(Error::NoFreeFrames)?;
            if let Some(pfn) = self.queued.remove(&old) {
                self.phys.free(pfn);
                self.end_residency(old);
            }
            // Tombstones (soft-faulted pages) are skipped.
        }
        Ok(())
    }

    /// Closes the residency record for a permanently evicted page.
    fn end_residency(&mut self, vpn: Vpn) {
        if let Some(born) = self.born.remove(&vpn) {
            self.residency
                .record(self.stats.page_faults.saturating_sub(born));
        }
    }

    /// Obtains a frame: from the free list if possible, otherwise by
    /// permanently evicting the oldest free-queue page.
    fn take_frame(&mut self, vpn: Vpn) -> Result<Pfn> {
        self.ensure_truly_free()?;
        self.phys.allocate(vpn)
    }

    /// Runs the page daemon until the free list reaches the high
    /// watermark (or everything reclaimable is reclaimed).
    ///
    /// `fault_in` invokes this automatically on free-list pressure.
    pub(crate) fn sweep(&mut self, ctx: &mut VmCtx<'_>) {
        self.sweep_target(ctx, self.config.free_high_water as usize);
    }

    /// Runs the page daemon until at least `target` frames are free (or
    /// two full clock rotations pass). Exposed for tests and for explicit
    /// periodic-daemon workloads.
    pub fn sweep_target(&mut self, ctx: &mut VmCtx<'_>, target: usize) {
        // Two full rotations guarantee progress for MISS/REF (first pass
        // clears bits, second reclaims); NOREF reclaims immediately.
        let mut budget = 2 * self.clock.len() + 2;
        while self.available_frames() < target && !self.clock.is_empty() && budget > 0 {
            budget -= 1;
            if self.clock_step(ctx) {
                // Second chance: rotate to the back.
                self.clock.rotate_left(1);
            } else {
                self.reclaim_front(ctx);
            }
        }
    }

    /// One clearing pass of a two-handed clock: visits every resident
    /// page once, clearing reference bits per the policy (and flushing
    /// under `REF`) without reclaiming anything. `fault_in`'s
    /// pressure-driven sweep is the reclaiming hand.
    pub fn daemon_clear_pass(&mut self, ctx: &mut VmCtx<'_>) {
        for _ in 0..self.clock.len() {
            self.clock_step(ctx);
            self.clock.rotate_left(1);
        }
    }

    /// One step of either clock hand over the page at the front, which
    /// stays there: scans it and, when the policy reads its reference
    /// bit as set, clears the bit (flushing the page under `REF`).
    /// Returns whether the bit read as set.
    fn clock_step(&mut self, ctx: &mut VmCtx<'_>) -> bool {
        let vpn = *self.clock.front().expect("clock nonempty");
        self.stats.daemon_scans += 1;
        ctx.daemon_cycles += Cycles::new(self.costs.daemon_per_page);
        ctx.event(EventKind::DaemonScan, vpn, self.costs.daemon_per_page);
        if !self.ref_policy.read_ref(self.pt.pte(vpn)) {
            return false;
        }
        if self.ref_policy.clear_clears_bit() {
            self.pt.update(vpn, |p| p.set_referenced(false));
            self.stats.ref_clears += 1;
        }
        if self.ref_policy.clear_flushes_page() {
            let flush = ctx.flusher.flush_page(vpn);
            self.stats.ref_flushes += 1;
            self.stats.flush_writebacks += flush.written_back;
            // Charge the actual work: probe + loop overhead per line and
            // a write-back per dirty block, per cache (~t_flush = 500
            // cycles on a uniprocessor, scaling with the number of caches
            // on a multiprocessor).
            let flush_cost = flush.probed * (self.costs.flush_probe + 2)
                + flush.written_back * self.costs.flush_writeback;
            ctx.ref_flush_cycles += Cycles::new(flush_cost);
            ctx.event(EventKind::PageFlush, vpn, flush_cost);
        }
        true
    }

    /// Reclaims the page at the clock's front.
    fn reclaim_front(&mut self, ctx: &mut VmCtx<'_>) {
        let vpn = *self.clock.front().expect("clock nonempty");
        let pte = self.pt.pte(vpn);
        debug_assert!(pte.valid(), "clock holds non-resident page {vpn}");

        // Mandatory cache scrub: a virtual-address cache must not keep
        // blocks of a non-resident page.
        let flush = ctx.flusher.flush_page(vpn);
        self.stats.flush_writebacks += flush.written_back;
        let flush_cost =
            flush.probed * self.costs.flush_probe + flush.written_back * self.costs.flush_writeback;
        ctx.daemon_cycles += Cycles::new(flush_cost);
        ctx.event(EventKind::PageFlush, vpn, flush_cost);

        let kind = self
            .regions
            .kind_of(vpn)
            .expect("resident page lost its region");
        let outcome = self.swap.replace(vpn, kind, pte.dirty());
        if outcome.wrote {
            ctx.paging_cycles += Cycles::new(self.costs.page_out_cpu);
            ctx.event(EventKind::PageOut, vpn, self.costs.page_out_cpu);
        }
        if ctx.recorder.is_some() {
            ctx.reclaimed.push(vpn.index());
        }

        if self.config.soft_faults {
            // The frame is not freed: the page parks on the free queue
            // and can be soft-faulted back until the frame is reused.
            self.free_queue.push_back(vpn);
            self.queued.insert(vpn, pte.pfn());
        } else {
            self.phys.free(pte.pfn());
            self.end_residency(vpn);
        }
        self.pt.remove(vpn);
        self.zero_filled.remove(&vpn);
        self.clock.pop_front();
        self.stats.reclaims += 1;
    }

    fn clock_push(&mut self, vpn: Vpn) {
        debug_assert!(!self.clock.contains(&vpn));
        self.clock.push_back(vpn);
        self.stats.resident_high_water =
            self.stats.resident_high_water.max(self.clock.len() as u64);
    }

    /// Consistency audit for tests: every clock entry is resident and
    /// every in-use frame is on the clock or the free queue.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for vpn in &self.clock {
            if !self.pt.pte(*vpn).valid() {
                return Err(format!("clock holds non-resident {vpn}"));
            }
        }
        let in_use = self.phys.in_use_frames();
        if in_use != self.clock.len() + self.queued.len() {
            return Err(format!(
                "{in_use} frames in use but {} on the clock + {} queued",
                self.clock.len(),
                self.queued.len()
            ));
        }
        for (pfn, vpn) in self.phys.iter_in_use() {
            if let Some(&qpfn) = self.queued.get(&vpn) {
                if qpfn != pfn {
                    return Err(format!("queued page {vpn} frame mismatch"));
                }
                if self.pt.pte(vpn).valid() {
                    return Err(format!("queued page {vpn} still has a valid PTE"));
                }
                continue;
            }
            let pte = self.pt.pte(vpn);
            if !pte.valid() || pte.pfn() != pfn {
                return Err(format!("frame {pfn} owner {vpn} has stale PTE"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_cache::counters::{CounterEvent, CounterMode};

    fn small_vm(policy: RefPolicy) -> VmSystem {
        let config = VmConfig {
            mem: MemSize::new(1), // 256 frames
            kernel_reserved_frames: 16,
            free_low_water: 8,
            free_high_water: 24,
            soft_faults: true,
        };
        let mut vm = VmSystem::new(config, CostParams::paper(), policy).unwrap();
        vm.register_region(Vpn::new(0x1000), 1024, PageKind::Heap)
            .unwrap();
        vm.register_region(Vpn::new(0x2000), 1024, PageKind::Code)
            .unwrap();
        vm.register_region(Vpn::new(0x3000), 1024, PageKind::FileData)
            .unwrap();
        vm
    }

    fn ctx_parts() -> (VirtualCache, PerfCounters) {
        (VirtualCache::prototype(), PerfCounters::promiscuous())
    }

    #[test]
    fn config_validation() {
        let mut cfg = VmConfig::for_mem(MemSize::MB5);
        cfg.validate().unwrap();
        cfg.free_low_water = cfg.free_high_water;
        assert!(cfg.validate().is_err());
        let mut cfg2 = VmConfig::for_mem(MemSize::new(1));
        cfg2.kernel_reserved_frames = 256;
        assert!(cfg2.validate().is_err());
    }

    #[test]
    fn an_oversize_kernel_reservation_is_invalid_not_an_overflow() {
        let config = VmConfig {
            kernel_reserved_frames: u32::MAX,
            ..VmConfig::for_mem(MemSize::MB5)
        };
        let err = VmSystem::new(config, CostParams::paper(), RefPolicy::Miss).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn heap_fault_zero_fills_then_reads_after_swap() {
        let mut vm = small_vm(RefPolicy::Miss);
        let (mut cache, mut ctrs) = ctx_parts();
        let vpn = Vpn::new(0x1000);
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        let out = vm.fault_in(vpn, Protection::ReadWrite, &mut ctx).unwrap();
        assert!(!out.read_from_store);
        assert_eq!(vm.stats().zero_fills, 1);
        assert!(ctx.total().raw() >= CostParams::paper().page_fault_service);
    }

    #[test]
    fn code_fault_reads_from_store() {
        let mut vm = small_vm(RefPolicy::Miss);
        let (mut cache, mut ctrs) = ctx_parts();
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        let out = vm
            .fault_in(Vpn::new(0x2000), Protection::ReadOnly, &mut ctx)
            .unwrap();
        assert!(out.read_from_store);
        assert_eq!(vm.stats().page_ins, 1);
        assert_eq!(ctrs.total(CounterEvent::PageIn), 1);
    }

    #[test]
    fn fault_on_unregistered_page_is_rejected() {
        let mut vm = small_vm(RefPolicy::Miss);
        let (mut cache, mut ctrs) = ctx_parts();
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        assert!(matches!(
            vm.fault_in(Vpn::new(0x9999), Protection::ReadWrite, &mut ctx),
            Err(Error::BadWorkload(_))
        ));
    }

    #[test]
    fn pressure_triggers_sweep_and_reclaim() {
        let mut vm = small_vm(RefPolicy::Miss);
        let (mut cache, mut ctrs) = ctx_parts();
        // 1 MB = 256 frames, 16 wired kernel + some PT pages; fault far
        // more pages than fit.
        for i in 0..400u64 {
            let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
            vm.fault_in(Vpn::new(0x1000 + i), Protection::ReadWrite, &mut ctx)
                .unwrap();
            vm.check_invariants().unwrap();
        }
        assert!(vm.stats().reclaims > 0, "daemon must have reclaimed");
        assert!(vm.clock.len() < 256);
        assert!(vm.available_frames() >= 1);
    }

    #[test]
    fn clock_second_chance_spares_referenced_pages() {
        let mut vm = small_vm(RefPolicy::Miss);
        let (mut cache, mut ctrs) = ctx_parts();
        // Make three pages resident.
        for i in 0..3u64 {
            let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
            vm.fault_in(Vpn::new(0x1000 + i), Protection::ReadWrite, &mut ctx)
                .unwrap();
        }
        // All three have R set; a sweep to high water clears bits first,
        // then reclaims on the second rotation.
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        let target = vm.free_frames() + 1;
        vm.sweep_target(&mut ctx, target);
        assert!(vm.stats().ref_clears >= 3, "first rotation clears R");
        vm.check_invariants().unwrap();
    }

    #[test]
    fn reclaim_flushes_page_from_cache() {
        let mut vm = small_vm(RefPolicy::Noref);
        let (mut cache, mut ctrs) = ctx_parts();
        let vpn = Vpn::new(0x1000);
        {
            let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
            vm.fault_in(vpn, Protection::ReadWrite, &mut ctx).unwrap();
        }
        cache.fill_for_write(vpn.base_addr(), Protection::ReadWrite, false);
        assert_eq!(cache.resident_blocks_of_page(vpn), 1);
        // NOREF reclaims unconditionally on sweep.
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        let target = vm.free_frames() + 1;
        vm.sweep_target(&mut ctx, target);
        assert!(!vm.is_resident(vpn));
        let _ = ctx;
        assert_eq!(cache.resident_blocks_of_page(vpn), 0);
    }

    #[test]
    fn ref_policy_flushes_on_clear() {
        let mut vm = small_vm(RefPolicy::Ref);
        let (mut cache, mut ctrs) = ctx_parts();
        let vpn = Vpn::new(0x1000);
        {
            let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
            vm.fault_in(vpn, Protection::ReadWrite, &mut ctx).unwrap();
        }
        cache.fill_for_read(vpn.base_addr(), Protection::ReadWrite, false);
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        let target = vm.free_frames() + 1;
        vm.sweep_target(&mut ctx, target);
        // The single resident page had R set: first visit clears AND
        // flushes.
        assert!(vm.stats().ref_flushes >= 1);
        let _ = ctx;
        assert_eq!(cache.resident_blocks_of_page(vpn), 0);
    }

    #[test]
    fn dirty_page_reclaim_writes_back_clean_skips() {
        let mut vm = small_vm(RefPolicy::Noref);
        let (mut cache, mut ctrs) = ctx_parts();
        let dirty = Vpn::new(0x3000);
        let clean = Vpn::new(0x3001);
        for vpn in [dirty, clean] {
            let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
            vm.fault_in(vpn, Protection::ReadWrite, &mut ctx).unwrap();
        }
        vm.mark_dirty(dirty);
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        let target = vm.free_frames() + 2;
        vm.sweep_target(&mut ctx, target);
        assert!(!vm.is_resident(dirty) && !vm.is_resident(clean));
        assert_eq!(vm.swap().page_outs, 1, "only the dirty page writes");
        assert_eq!(vm.swap().not_modified, 1);
        assert_eq!(vm.swap().potentially_modified, 2);
    }

    #[test]
    fn zero_fill_round_trip_soft_faults_then_reads() {
        let mut vm = small_vm(RefPolicy::Noref);
        let (mut cache, mut ctrs) = ctx_parts();
        let vpn = Vpn::new(0x1000);
        {
            let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
            let out = vm.fault_in(vpn, Protection::ReadWrite, &mut ctx).unwrap();
            assert!(!out.read_from_store);
        }
        vm.mark_dirty(vpn);
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        let target = vm.available_frames() + 1;
        vm.sweep_target(&mut ctx, target); // reclaims, writes to swap
        assert_eq!(vm.queued.len(), 1);

        // Faulting immediately finds the page still on the free queue:
        // a soft fault, no I/O.
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        let again = vm.fault_in(vpn, Protection::ReadWrite, &mut ctx).unwrap();
        assert!(!again.read_from_store, "soft fault needs no I/O");
        assert_eq!(vm.stats().soft_faults, 1);
        vm.check_invariants().unwrap();

        // Reclaim again, then reuse the frame for other pages so the
        // queue entry is consumed; only now does a fault read from swap.
        vm.mark_dirty(vpn);
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        let target = vm.available_frames() + 1;
        vm.sweep_target(&mut ctx, target);
        let free = vm.free_frames() + 1;
        for i in 0..free as u64 {
            let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
            vm.fault_in(Vpn::new(0x1100 + i), Protection::ReadWrite, &mut ctx)
                .unwrap();
        }
        let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
        let hard = vm.fault_in(vpn, Protection::ReadWrite, &mut ctx).unwrap();
        assert!(hard.read_from_store, "page now lives on swap");
    }

    #[test]
    fn traced_vm_events_reconcile_with_counters() {
        use spur_obs::TraceRecorder;
        let mut vm = small_vm(RefPolicy::Miss);
        let (mut cache, mut ctrs) = ctx_parts();
        let mut rec = TraceRecorder::new(1 << 14);
        let mut clock = 0u64;
        let mut reclaimed_pages = 0u64;
        for i in 0..400u64 {
            let mut ctx = VmCtx::with_recorder(&mut cache, &mut ctrs, &mut rec, clock);
            vm.fault_in(Vpn::new(0x1000 + i), Protection::ReadWrite, &mut ctx)
                .unwrap();
            clock += ctx.total().raw();
            reclaimed_pages += ctx.reclaimed.len() as u64;
        }
        for kind in [
            EventKind::ZeroFill,
            EventKind::PageIn,
            EventKind::PageOut,
            EventKind::DaemonScan,
            EventKind::SoftFault,
            EventKind::PageFlush,
        ] {
            assert_eq!(
                rec.emitted(kind),
                ctrs.total(kind.into()),
                "trace/counter mismatch for {}",
                kind.name()
            );
        }
        assert_eq!(reclaimed_pages, vm.stats().reclaims);
        assert!(rec.emitted(EventKind::DaemonScan) > 0, "pressure must scan");
    }

    #[test]
    fn recorder_does_not_perturb_vm_behavior() {
        use spur_obs::TraceRecorder;
        let run = |record: bool| {
            let mut vm = small_vm(RefPolicy::Miss);
            let (mut cache, mut ctrs) = ctx_parts();
            let mut rec = TraceRecorder::new(1 << 12);
            let mut total = Cycles::ZERO;
            for i in 0..300u64 {
                let mut ctx = if record {
                    VmCtx::with_recorder(&mut cache, &mut ctrs, &mut rec, total.raw())
                } else {
                    VmCtx::new(&mut cache, &mut ctrs)
                };
                vm.fault_in(Vpn::new(0x1000 + i), Protection::ReadWrite, &mut ctx)
                    .unwrap();
                total += ctx.total();
            }
            (total, vm.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn counters_mirror_vm_events() {
        let mut vm = small_vm(RefPolicy::Noref);
        let (mut cache, mut ctrs) = ctx_parts();
        for i in 0..300u64 {
            let mut ctx = VmCtx::new(&mut cache, &mut ctrs);
            vm.fault_in(Vpn::new(0x2000 + i), Protection::ReadOnly, &mut ctx)
                .unwrap();
        }
        assert_eq!(ctrs.total(CounterEvent::PageIn), vm.stats().page_ins);
        assert_eq!(
            ctrs.total(CounterEvent::DaemonScan),
            vm.stats().daemon_scans
        );
        // Architectural check through the mode register:
        let mut hw = PerfCounters::new(CounterMode::VirtualMemory);
        hw.record_n(CounterEvent::PageIn, vm.stats().page_ins);
        assert_eq!(u64::from(hw.read_slot(6)), vm.stats().page_ins % (1 << 32));
    }
}
