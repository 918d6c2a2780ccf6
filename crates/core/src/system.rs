//! The full-system simulator: processor references flow through the
//! virtual-address cache, in-cache translation, the dirty-bit policy, the
//! reference-bit policy, and the VM system.
//!
//! One [`SpurSystem`] models one SPUR node of 1–12 processors exactly as
//! the measured prototype was configured (Table 2.1), with the dirty-bit
//! mechanism and reference-bit policy selectable — the two knobs the paper
//! turns.
//!
//! [`SpurSystem::run`] overlaps the two halves of a long run when a core
//! is free: a scoped helper thread generates the reference stream in
//! batches while the calling thread simulates them, in order, so the
//! outcome is the serial loop's.

use spur_cache::cache::VirtualCache;
use spur_cache::coherence::{CoherenceMsg, CoherencyState};
use spur_cache::counters::{CounterEvent, CounterMode, PerfCounters};
use spur_cache::line::{CacheLine, LineIndex};
use spur_cache::translate::{InCacheTranslator, TranslationOutcome};
use spur_mem::pagetable::PT_GLOBAL_SEGMENT;
use spur_mem::pte::Pte;
use spur_obs::{EventKind, SimEvent};
use spur_trace::layout::SegKind;
use spur_trace::stream::TraceRef;
use spur_trace::workloads::Workload;
use spur_types::{
    AccessKind, CostParams, Cycles, Error, FastMap, GlobalAddr, MemSize, Protection, Result, Vpn,
};
use spur_vm::policy::RefPolicy;
use spur_vm::region::PageKind;
use spur_vm::system::{VmConfig, VmCtx, VmSystem};

use std::collections::HashMap;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::OnceLock;
use std::thread;

use crate::breakdown::{CycleBreakdown, CycleCategory};
use crate::dirty::DirtyPolicy;
use crate::events::EventCounts;
use crate::obs::{ObsParams, ObsReport, SystemObs, EPOCH_COLUMNS};

/// Simulator configuration: the machine plus the two policies under
/// study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Main-memory size (the paper's ladder: 5, 6, 8 MB).
    pub mem: MemSize,
    /// Cycle costs (Table 3.2 plus elapsed-time model).
    pub costs: CostParams,
    /// Dirty-bit mechanism.
    pub dirty: DirtyPolicy,
    /// Reference-bit policy.
    pub ref_policy: RefPolicy,
    /// Frames wired for the kernel at boot.
    pub kernel_reserved_frames: u32,
    /// Page-daemon low watermark.
    pub free_low_water: u32,
    /// Page-daemon high watermark.
    pub free_high_water: u32,
    /// Number of processors, each with its own cache, sharing one bus
    /// and one memory (the prototype board held up to 12). The paper's
    /// measurements are uniprocessor; the default is 1.
    pub cpus: usize,
    /// Free-list soft faults (Sprite behavior; disable for ablation).
    pub soft_faults: bool,
    /// Run a clear-only daemon pass every N references (two-handed-clock
    /// style), in addition to pressure-driven sweeps. `None` (default)
    /// clears bits only under pressure. Periodic clearing is what makes
    /// reference-bit *maintenance* cost visible at large memories — the
    /// regime where the paper found NOREF competitive or faster.
    pub daemon_period: Option<u64>,
    /// Hardware-faithful counter mode: only the selected set's events
    /// are counted, exactly like the CC chip's mode register. `None`
    /// (default) uses the simulator's promiscuous counters, which record
    /// every set in one pass. The paper measured all four sets by
    /// re-running its deterministic workloads once per mode — both
    /// approaches yield identical numbers (see
    /// `tests/counter_fidelity.rs`).
    pub counter_mode: Option<CounterMode>,
}

impl Default for SimConfig {
    fn default() -> Self {
        let mem = MemSize::MB8;
        let vm = VmConfig::for_mem(mem);
        SimConfig {
            mem,
            costs: CostParams::paper(),
            dirty: DirtyPolicy::Spur,
            ref_policy: RefPolicy::Miss,
            kernel_reserved_frames: vm.kernel_reserved_frames,
            free_low_water: vm.free_low_water,
            free_high_water: vm.free_high_water,
            cpus: 1,
            soft_faults: true,
            daemon_period: None,
            counter_mode: None,
        }
    }
}

/// Optional [`SimConfig`] knob overrides, applied on top of whatever
/// configuration an experiment runner builds.
///
/// Experiment entry points like
/// [`crate::experiments::refbit::measure_refbit_obs_with`] construct
/// their canonical `SimConfig` and then apply these, so a caller (the
/// `spur-serve` API, an ablation binary) can turn individual knobs
/// without owning the whole config. `None` fields leave the runner's
/// value untouched; [`SimOverrides::default`] is therefore the exact
/// unmodified experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOverrides {
    /// Number of processors.
    pub cpus: Option<usize>,
    /// Free-list soft faults on/off.
    pub soft_faults: Option<bool>,
    /// Periodic daemon scan: `Some(None)` forces pressure-only
    /// clearing, `Some(Some(n))` scans every `n` references.
    pub daemon_period: Option<Option<u64>>,
    /// Frames wired for the kernel at boot.
    pub kernel_reserved_frames: Option<u32>,
    /// Page-daemon low watermark.
    pub free_low_water: Option<u32>,
    /// Page-daemon high watermark.
    pub free_high_water: Option<u32>,
}

impl SimOverrides {
    /// Whether every field is `None` (the configuration passes through
    /// untouched — the byte-identical-artifact case).
    pub fn is_noop(&self) -> bool {
        *self == SimOverrides::default()
    }

    /// Applies the set fields to `cfg`.
    pub(crate) fn apply(&self, mut cfg: SimConfig) -> SimConfig {
        if let Some(cpus) = self.cpus {
            cfg.cpus = cpus;
        }
        if let Some(soft) = self.soft_faults {
            cfg.soft_faults = soft;
        }
        if let Some(period) = self.daemon_period {
            cfg.daemon_period = period;
        }
        if let Some(frames) = self.kernel_reserved_frames {
            cfg.kernel_reserved_frames = frames;
        }
        if let Some(low) = self.free_low_water {
            cfg.free_low_water = low;
        }
        if let Some(high) = self.free_high_water {
            cfg.free_high_water = high;
        }
        cfg
    }
}

impl SimConfig {
    fn vm_config(&self) -> VmConfig {
        VmConfig {
            mem: self.mem,
            kernel_reserved_frames: self.kernel_reserved_frames,
            free_low_water: self.free_low_water,
            free_high_water: self.free_high_water,
            soft_faults: self.soft_faults,
        }
    }
}

/// Maps a trace segment kind onto a VM page kind.
fn page_kind(kind: SegKind) -> PageKind {
    match kind {
        SegKind::Code => PageKind::Code,
        SegKind::Heap => PageKind::Heap,
        SegKind::Stack => PageKind::Stack,
        SegKind::FileData => PageKind::FileData,
    }
}

/// Per-policy write-hit handler; see [`SpurSystem::write_hit`].
///
/// Returns whether the write proceeds (marking the line dirty and
/// owned); `false` means the policy absorbed or aborted the write
/// (protection violation, or a FLUSH refill that already finished the
/// job).
type WriteHitFn = fn(&mut SpurSystem, usize, LineIndex, GlobalAddr, CacheLine) -> Result<bool>;

/// References per batch the stream helper hands the simulating thread.
const BATCH: usize = 4096;

/// A run pipelines only when it is at least this many batches long;
/// a shorter one would spend a visible share of its time starting the
/// helper and waiting for the first batch.
const MIN_BATCHES: u64 = 16;

/// Batch buffers a pipelined run cycles between its two threads: one
/// being filled, one being simulated and one spare, which absorbs the
/// jitter between the two (two buffers ran about 10% slower, four no
/// faster).
const BUFFERS: usize = 3;

/// Threads busy with simulation, process-wide: each [`SpurSystem::run`]
/// caller counts one, and each stream helper one more.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Cores this process may run on (1 under `taskset -c 0`).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether more simulation threads are busy than there are cores.
fn oversubscribed() -> bool {
    BUSY.load(Ordering::Relaxed) > cores()
}

/// One thread's share of [`BUSY`], released on drop (panics included).
struct Busy;

impl Busy {
    /// Counts the calling thread.
    fn enter() -> Busy {
        BUSY.fetch_add(1, Ordering::Relaxed);
        Busy
    }

    /// Claims a share for a helper, only while a core is free.
    fn claim_free_core() -> Option<Busy> {
        BUSY.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
            (busy < cores()).then_some(busy + 1)
        })
        .ok()
        .map(|_| Busy)
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The stream helper's side of [`SpurSystem::run_pipelined`]: pulls
/// exactly `limit` references of `gen` (fewer if it ends first) into
/// the buffers `empty` hands back and sends them in order. Stops
/// pulling at a batch boundary once `stop` is set, and returns whether
/// it stopped so.
fn generate<I: Iterator<Item = TraceRef>>(
    gen: &mut I,
    limit: u64,
    full: &SyncSender<Vec<TraceRef>>,
    empty: &Receiver<Vec<TraceRef>>,
    stop: &AtomicBool,
) -> bool {
    let mut left = limit;
    while left > 0 {
        if stop.load(Ordering::Relaxed) {
            return true;
        }
        let want = left.min(BATCH as u64) as usize;
        let Ok(mut batch) = empty.recv() else {
            break;
        };
        batch.clear();
        batch.extend(gen.by_ref().take(want));
        let ended = batch.len() < want;
        left -= batch.len() as u64;
        if batch.is_empty() || full.send(batch).is_err() || ended {
            break;
        }
    }
    false
}

/// The full-system simulator: one node of 1–12 CPUs, each with its own
/// virtual-address cache, sharing one bus and one VM system.
///
/// Aligned to a cache line, so that a stream stored beside it (the
/// scheduler inside spur-mp's `MpSystem`) shares no line with the
/// simulator's state while a helper thread advances the stream.
#[derive(Debug)]
#[repr(align(64))]
pub struct SpurSystem {
    config: SimConfig,
    caches: Vec<VirtualCache>,
    vm: VmSystem,
    translator: InCacheTranslator,
    counters: PerfCounters,
    cycles: Cycles,
    breakdown: CycleBreakdown,
    refs: u64,
    misses: u64,
    whit: u64,
    wmiss: u64,
    zfod_faults: u64,
    /// Write-hit handler for the configured dirty policy, resolved at
    /// construction (see [`SpurSystem::write_hit_handler`]).
    write_hit_fn: WriteHitFn,
    /// Observability bundle (`None` keeps the uninstrumented paths).
    obs: Option<Box<SystemObs>>,
    /// The CPU driving the reference in flight; trace events are
    /// stamped with it. Always 0 on a uniprocessor.
    cur_cpu: u32,
    /// Multiprocessor snoop filter: block index → over-approximate
    /// mask of caches that may hold the block. Bits are set on data
    /// fills and retired lazily when a snoop probe finds the line gone
    /// (evicted, flushed, or invalidated since). A snoop broadcast
    /// only probes caches whose bit is set — non-holders were no-ops
    /// anyway, so counters and the event stream are bit-identical to
    /// the full O(cpus) broadcast. Empty (and unmaintained) on a
    /// uniprocessor.
    block_dir: FastMap<u64, u16>,
}

impl SpurSystem {
    /// Builds a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for inconsistent sizing.
    pub fn new(config: SimConfig) -> Result<Self> {
        Self::with_cache_lines(config, spur_types::CACHE_LINES as usize)
    }

    /// Rescales default watermarks when the user overrode only `mem` via
    /// struct-update syntax from `SimConfig::default()`.
    fn rescale(mut config: SimConfig) -> SimConfig {
        let defaults = SimConfig::default();
        if config.free_low_water == defaults.free_low_water
            && config.free_high_water == defaults.free_high_water
            && config.mem != defaults.mem
        {
            let vm = VmConfig::for_mem(config.mem);
            config.free_low_water = vm.free_low_water;
            config.free_high_water = vm.free_high_water;
        }
        config
    }

    /// Builds a simulator with a non-prototype cache size (for the
    /// Section 4.1 cache-scaling extrapolation). `lines` must be a power
    /// of two and at least one page (128 lines).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for inconsistent sizing.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not a valid cache geometry (see
    /// [`VirtualCache::with_lines`]).
    pub fn with_cache_lines(config: SimConfig, lines: usize) -> Result<Self> {
        let config = Self::rescale(config);
        if config.cpus == 0 || config.cpus > 12 {
            return Err(Error::InvalidConfig(format!(
                "a SPUR node holds 1..=12 processor boards, not {}",
                config.cpus
            )));
        }
        let vm = VmSystem::new(config.vm_config(), config.costs, config.ref_policy)?;
        Ok(SpurSystem {
            config,
            caches: (0..config.cpus)
                .map(|_| VirtualCache::with_lines(lines))
                .collect(),
            vm,
            translator: InCacheTranslator::new(config.costs),
            counters: match config.counter_mode {
                Some(mode) => PerfCounters::new(mode),
                None => PerfCounters::promiscuous(),
            },
            cycles: Cycles::ZERO,
            breakdown: CycleBreakdown::new(),
            refs: 0,
            misses: 0,
            whit: 0,
            wmiss: 0,
            zfod_faults: 0,
            obs: None,
            cur_cpu: 0,
            block_dir: FastMap::default(),
            write_hit_fn: Self::write_hit_handler(config.dirty),
        })
    }

    /// Resolves the dirty policy's write-hit handler once, at
    /// construction — the per-write path pays one indirect call instead
    /// of re-matching the policy enum on every write hit.
    fn write_hit_handler(policy: DirtyPolicy) -> WriteHitFn {
        match policy {
            DirtyPolicy::Min => Self::write_hit_min,
            DirtyPolicy::Spur => Self::write_hit_spur,
            DirtyPolicy::Fault => Self::write_hit_fault,
            DirtyPolicy::Flush => Self::write_hit_flush,
            DirtyPolicy::Write => Self::write_hit_write,
        }
    }

    /// Registers every region of `workload` with the VM system.
    ///
    /// # Errors
    ///
    /// Propagates region-overlap errors.
    pub fn load_workload(&mut self, workload: &Workload) -> Result<()> {
        for region in workload.regions() {
            self.vm
                .register_region(region.start, region.pages, page_kind(region.kind))?;
        }
        Ok(())
    }

    /// Registers a single region directly, bypassing workload
    /// construction — the hook the differential fuzzer uses to drive
    /// the simulator over arbitrary synthetic page maps.
    ///
    /// # Errors
    ///
    /// Propagates region-overlap errors.
    pub fn register_region(&mut self, start: Vpn, pages: u64, kind: PageKind) -> Result<()> {
        self.vm.register_region(start, pages, kind)
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Total references executed.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Total cache misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Blocks currently tracked by the snoop filter (diagnostic;
    /// always 0 on a uniprocessor, bounded by total cache lines).
    pub fn snoop_filter_entries(&self) -> usize {
        self.block_dir.len()
    }

    /// Modeled elapsed time.
    pub fn cycles(&self) -> Cycles {
        self.cycles
    }

    /// Where the elapsed time went, by category.
    pub fn breakdown(&self) -> &CycleBreakdown {
        &self.breakdown
    }

    fn charge(&mut self, cat: CycleCategory, cycles: u64) {
        let c = Cycles::new(cycles);
        self.cycles += c;
        self.breakdown[cat] += c;
    }

    /// The cache controller's counters.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Enables observability for the rest of the run: event tracing,
    /// fault/residency histograms, and (when `params.epoch` is set) the
    /// per-epoch counter series. Replaces any previous bundle.
    pub fn enable_obs(&mut self, params: ObsParams) {
        self.obs = Some(Box::new(SystemObs::new(params)));
    }

    /// Detaches and finalizes the observability bundle: flushes the
    /// partial last epoch and closes the residency histogram for pages
    /// still resident. Returns `None` if observability was never
    /// enabled.
    pub fn finish_obs(&mut self) -> Option<ObsReport> {
        let totals = self.obs_totals();
        let refs = self.refs;
        self.obs.take().map(|o| o.finish(refs, &totals))
    }

    /// Total trace events emitted so far (including any that fell off
    /// the ring), or `None` with observability off. A lockstep checker
    /// diffs this across one [`SpurSystem::reference`] call to size its
    /// [`SpurSystem::obs_tail`] read. Flushes the pending event batch
    /// first, so the total is always current.
    pub fn obs_emitted_total(&mut self) -> Option<u64> {
        self.obs.as_deref_mut().map(|o| {
            o.flush_events();
            o.recorder.emitted_total()
        })
    }

    /// The `k` most recent retained trace events, oldest first. Empty
    /// with observability off. Flushes the pending event batch first,
    /// so the tail is always current.
    pub fn obs_tail(&mut self, k: usize) -> Vec<SimEvent> {
        self.obs
            .as_deref_mut()
            .map(|o| {
                o.flush_events();
                o.recorder.tail(k)
            })
            .unwrap_or_default()
    }

    /// The trace ring's capacity, or `None` with observability off —
    /// the most [`SpurSystem::obs_tail`] can return for one step.
    pub fn obs_trace_capacity(&self) -> Option<usize> {
        self.obs.as_ref().map(|o| o.recorder.capacity())
    }

    /// Running totals for the epoch series, one per
    /// [`EPOCH_COLUMNS`] entry. Under a hardware-faithful
    /// [`CounterMode`], events outside the selected set read zero here,
    /// exactly as they do in `PerfCounters::total`.
    fn obs_totals(&self) -> [u64; EPOCH_COLUMNS.len()] {
        [
            self.misses,
            self.counters.total(CounterEvent::DirtyFault),
            self.counters.total(CounterEvent::ExcessFault),
            self.counters.total(CounterEvent::DirtyBitMiss),
            self.counters.total(CounterEvent::RefFault),
            self.counters.total(CounterEvent::ZeroFill),
            self.counters.total(CounterEvent::PageIn),
            self.counters.total(CounterEvent::PageOut),
            self.counters.total(CounterEvent::DaemonScan),
            self.counters.total(CounterEvent::SoftFault),
            self.counters.total(CounterEvent::PageFlush),
            self.cycles.raw(),
        ]
    }

    /// Emits one trace event at the current simulated time, stamped
    /// with the CPU driving the reference in flight. Fault-category
    /// events also feed the fault distributions.
    fn obs_emit(&mut self, kind: EventKind, page: u64, cost: u64) {
        let cpu = self.cur_cpu;
        self.obs_emit_on(kind, page, cost, cpu);
    }

    /// Emits one trace event attributed to an explicit CPU (coherence
    /// events name the *peer* whose cache reacted, not the requester).
    ///
    /// The obs-off check is the first instruction — an uninstrumented
    /// run pays one branch here, nothing else. Events land in the
    /// per-epoch batch buffer, not the ring; fault distributions are
    /// noted eagerly because they sample the reference index at
    /// emission time.
    #[inline]
    fn obs_emit_on(&mut self, kind: EventKind, page: u64, cost: u64, cpu: u32) {
        let Some(o) = self.obs.as_deref_mut() else {
            return;
        };
        o.buf.push(SimEvent {
            kind,
            cycle: self.cycles.raw(),
            page,
            cost,
            cpu,
        });
        if kind.category() == "fault" {
            o.note_fault(self.refs, cost);
        }
    }

    /// Samples an epoch row when the reference count crosses a
    /// boundary, and flushes the event batch when it reaches one
    /// epoch's worth.
    fn obs_tick(&mut self) {
        if let Some(o) = self.obs.as_deref_mut() {
            if o.buf.len() >= o.batch {
                o.flush_events();
            }
        }
        let due = self
            .obs
            .as_ref()
            .and_then(|o| o.series.as_ref())
            .is_some_and(|s| s.due(self.refs));
        if due {
            let totals = self.obs_totals();
            if let Some(series) = self.obs.as_deref_mut().and_then(|o| o.series.as_mut()) {
                series.sample(self.refs, &totals);
            }
        }
    }

    /// Translates through the recorder when observability is on.
    fn translate_obs(&mut self, cpu: usize, addr: GlobalAddr) -> TranslationOutcome {
        let base = self.cycles.raw();
        let cur = self.cur_cpu;
        match self.obs.as_deref_mut() {
            Some(o) => {
                o.buf.cpu = cur;
                self.translator.translate_traced(
                    addr,
                    &mut self.caches[cpu],
                    self.vm.page_table(),
                    &mut self.counters,
                    &mut o.buf,
                    base,
                )
            }
            None => self.translator.translate(
                addr,
                &mut self.caches[cpu],
                self.vm.page_table(),
                &mut self.counters,
            ),
        }
    }

    /// Runs `f` with a [`VmCtx`] — recorder-attached when observability
    /// is on — then charges its accumulated cycles and closes residency
    /// histograms for any pages it reclaimed.
    fn with_vm_ctx<R>(&mut self, f: impl FnOnce(&mut VmSystem, &mut VmCtx) -> R) -> R {
        let cycle_base = self.cycles.raw();
        let cur = self.cur_cpu;
        let (out, paging, daemon, ref_flush, reclaimed) = {
            let mut ctx = match self.obs.as_deref_mut() {
                Some(o) => {
                    o.buf.cpu = cur;
                    VmCtx::with_recorder(
                        &mut self.caches,
                        &mut self.counters,
                        &mut o.buf,
                        cycle_base,
                    )
                }
                None => VmCtx::new(&mut self.caches, &mut self.counters),
            };
            let out = f(&mut self.vm, &mut ctx);
            (
                out,
                ctx.paging_cycles,
                ctx.daemon_cycles,
                ctx.ref_flush_cycles,
                std::mem::take(&mut ctx.reclaimed),
            )
        };
        self.charge(CycleCategory::Paging, paging.raw());
        self.charge(CycleCategory::Daemon, daemon.raw());
        self.charge(CycleCategory::RefBit, ref_flush.raw());
        if let Some(o) = self.obs.as_deref_mut() {
            o.note_reclaims(&reclaimed);
        }
        out
    }

    /// The VM system (stats, swap accounting).
    pub fn vm(&self) -> &VmSystem {
        &self.vm
    }

    /// CPU 0's cache (occupancy, lines).
    pub fn cache(&self) -> &VirtualCache {
        &self.caches[0]
    }

    /// The cache of a specific CPU.
    pub fn cache_of(&self, cpu: usize) -> &VirtualCache {
        &self.caches[cpu]
    }

    /// How many of CPU 0's cache lines currently hold PTE blocks — the
    /// "very large TLB" share of the cache under in-cache translation.
    pub fn pte_lines_cached(&self) -> usize {
        self.caches[0].occupancy_of_segment(PT_GLOBAL_SEGMENT)
    }

    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.caches.len()
    }

    /// Which CPU a process runs on (static assignment, like Sprite's
    /// processor affinity on SPUR).
    #[inline]
    pub(crate) fn cpu_of(&self, pid: spur_trace::stream::Pid) -> usize {
        // CPU counts are powers of two on every configuration we model;
        // masking avoids a hardware divide on the per-reference path.
        let n = self.caches.len();
        if n.is_power_of_two() {
            pid.0 as usize & (n - 1)
        } else {
            pid.0 as usize % n
        }
    }

    /// Executes references from `gen` until `limit` references have run
    /// (or the generator ends).
    ///
    /// On success exactly the references run have been pulled from
    /// `gen`, so a later call continues the same stream. A run of at
    /// least 16 batches of 4,096 references, started while a core is
    /// free, generates on a helper thread while this thread simulates;
    /// counters, events and the stream's state come out as the serial
    /// loop leaves them. The helper hands the stream back at a batch
    /// boundary once more simulation threads are busy than there are
    /// cores, and the run finishes serially.
    ///
    /// # Errors
    ///
    /// Propagates the first reference error (exhausted memory, workload
    /// escaping its regions). [`SpurSystem::refs`] then counts the
    /// failing reference, as in the serial loop, but the helper may
    /// have pulled up to a few batches past it from `gen`.
    ///
    /// # Panics
    ///
    /// A panic in `gen` or in the simulator is re-raised with its own
    /// payload.
    pub fn run<I: Iterator<Item = TraceRef> + Send>(
        &mut self,
        gen: &mut I,
        limit: u64,
    ) -> Result<()> {
        let _busy = Busy::enter();
        let mut left = limit;
        if limit >= MIN_BATCHES * BATCH as u64 {
            if let Some(helper) = Busy::claim_free_core() {
                match self.run_pipelined(gen, limit, helper, oversubscribed)? {
                    Some(pulled) => left -= pulled,
                    None => return Ok(()),
                }
            }
        }
        self.run_serial(gen, left)
    }

    /// The serial loop: pulls and simulates one reference at a time.
    fn run_serial<I: Iterator<Item = TraceRef>>(&mut self, gen: &mut I, limit: u64) -> Result<()> {
        for _ in 0..limit {
            match gen.next() {
                Some(r) => self.reference(r)?,
                None => break,
            }
        }
        Ok(())
    }

    /// Runs up to `limit` references of `gen` while a scoped helper
    /// thread (holding `helper`'s core) generates them ahead into
    /// batches over a bounded channel. `yield_core` is asked at every
    /// batch boundary; once it answers true the helper stops pulling,
    /// the batches it made are simulated, and the number of references
    /// pulled comes back as `Some`, for the caller to finish serially.
    /// `None` means the run is complete: `limit` reached or the stream
    /// ended. A failed spawn returns `Some(0)`.
    fn run_pipelined<I: Iterator<Item = TraceRef> + Send>(
        &mut self,
        gen: &mut I,
        limit: u64,
        helper: Busy,
        yield_core: impl Fn() -> bool,
    ) -> Result<Option<u64>> {
        let stop = AtomicBool::new(false);
        thread::scope(|s| {
            let (full_tx, full_rx) = mpsc::sync_channel(BUFFERS);
            let (empty_tx, empty_rx) = mpsc::sync_channel(BUFFERS);
            for _ in 0..BUFFERS {
                let _ = empty_tx.send(Vec::with_capacity(BATCH));
            }
            let stop = &stop;
            let spawned = thread::Builder::new()
                .name("spur-stream".into())
                .spawn_scoped(s, move || {
                    let _helper = helper;
                    generate(gen, limit, &full_tx, &empty_rx, stop)
                });
            let Ok(handle) = spawned else {
                return Ok(Some(0));
            };
            let mut pulled = 0;
            let mut failed = None;
            while let Ok(batch) = full_rx.recv() {
                pulled += batch.len() as u64;
                if let Err(e) = batch.iter().try_for_each(|&r| self.reference(r)) {
                    failed = Some(e);
                    break;
                }
                // Never blocks: only `BUFFERS` buffers exist. The helper
                // may be gone; then the buffer just drops.
                let _ = empty_tx.send(batch);
                if yield_core() {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            if let Some(e) = failed {
                // Unblock and retire the helper. A panic it meets in
                // its read-ahead is one the serial loop never reaches.
                stop.store(true, Ordering::Relaxed);
                drop((full_rx, empty_tx));
                let _ = handle.join();
                return Err(e);
            }
            match handle.join() {
                Ok(true) => Ok(Some(pulled)),
                Ok(false) => Ok(None),
                Err(payload) => resume_unwind(payload),
            }
        })
    }

    /// Runs one whole simulation: turns observability on when `obs` is
    /// set, registers `workload`'s regions, executes up to `refs`
    /// references of `stream` (a live generator or a recorded trace),
    /// and finishes observability. Returns the system, for its
    /// counters, with the finished [`ObsReport`] (`None` when `obs`
    /// is).
    ///
    /// Every measurement, scenario cell and study that runs a whole
    /// workload on a freshly built system takes this one step. The
    /// references run through [`SpurSystem::run`], so a long stream is
    /// generated on a free core while this thread simulates.
    ///
    /// # Errors
    ///
    /// Propagates region-registration and simulation errors; see
    /// [`SpurSystem::run`] for how far `stream` has then advanced.
    pub fn simulate<I: Iterator<Item = TraceRef> + Send>(
        mut self,
        workload: &Workload,
        mut stream: I,
        refs: u64,
        obs: Option<ObsParams>,
    ) -> Result<(Self, Option<ObsReport>)> {
        if let Some(params) = obs {
            self.enable_obs(params);
        }
        self.load_workload(workload)?;
        self.run(&mut stream, refs)?;
        let report = self.finish_obs();
        Ok((self, report))
    }

    /// Executes one reference.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] if the address is in no registered
    /// region, or [`Error::NoFreeFrames`] if memory is unrecoverably
    /// exhausted.
    pub fn reference(&mut self, r: TraceRef) -> Result<()> {
        self.refs += 1;
        let cpu = self.cpu_of(r.pid);
        self.cur_cpu = cpu as u32;
        if let Some(period) = self.config.daemon_period {
            if self.refs.is_multiple_of(period) {
                self.daemon_clear_pass();
            }
        }
        self.charge(CycleCategory::BaseExecution, self.config.costs.cache_hit);
        self.counters.record(match r.kind {
            AccessKind::InstrFetch => CounterEvent::IFetch,
            AccessKind::Read => CounterEvent::Read,
            AccessKind::Write => CounterEvent::Write,
        });

        if r.kind.is_write() {
            if let Some(o) = self.obs.as_deref_mut() {
                *o.page_writes.entry(r.addr.vpn().index()).or_insert(0) += 1;
            }
        }

        let probe = self.caches[cpu].probe(r.addr);
        if probe.hit {
            if r.kind.is_write() {
                self.write_hit(cpu, probe.index, r.addr)?;
            }
            self.obs_tick();
            return Ok(());
        }

        self.misses += 1;
        self.counters.record(match r.kind {
            AccessKind::InstrFetch => CounterEvent::IFetchMiss,
            AccessKind::Read => CounterEvent::ReadMiss,
            AccessKind::Write => CounterEvent::WriteMiss,
        });
        let before = self.cycles.raw();
        self.handle_miss(cpu, r.addr, r.kind)?;
        if self.obs.is_some() {
            let kind = match r.kind {
                AccessKind::InstrFetch => EventKind::IFetchMiss,
                AccessKind::Read => EventKind::ReadMiss,
                AccessKind::Write => EventKind::WriteMiss,
            };
            let cost = self.cycles.raw() - before;
            self.obs_emit(kind, r.addr.vpn().index(), cost);
        }
        self.obs_tick();
        Ok(())
    }

    /// Records a data fill in the snoop filter (multiprocessor only).
    /// PTE-block fills don't register: no data snoop ever targets a
    /// page-table address, so tracking them would only grow the map.
    #[inline]
    fn dir_note_fill(&mut self, cpu: usize, addr: GlobalAddr) {
        if self.caches.len() > 1 {
            *self.block_dir.entry(addr.block().index()).or_default() |= 1 << cpu;
        }
    }

    /// Clears a displaced block's presence bit. Without this the filter
    /// only ever grows (fills register, evictions don't unregister) and
    /// ends up orders of magnitude past the live-line bound, so every
    /// probe walks a cold multi-megabyte map. Stale bits left by the
    /// rare paths that bypass this (VM page flushes, a PTE fill
    /// displacing a data block) stay sound — a snoop on a non-holder is
    /// a no-op — and get reclaimed when the block refills or a snoop
    /// discovers the mismatch.
    #[inline]
    fn dir_note_evict(&mut self, cpu: usize, block: spur_types::BlockNum) {
        if self.caches.len() > 1 {
            if let Some(mask) = self.block_dir.get_mut(&block.index()) {
                *mask &= !(1u16 << cpu);
                if *mask == 0 {
                    self.block_dir.remove(&block.index());
                }
            }
        }
    }

    /// Snoop for a write by `cpu`: invalidate every other cache's copy of
    /// the block (Berkeley `WriteForInvalidation` / the invalidating half
    /// of `ReadForOwnership`). Only caches named by the snoop filter are
    /// probed, in ascending CPU order — the order and outcome of the
    /// full broadcast.
    fn snoop_invalidate(&mut self, cpu: usize, addr: GlobalAddr) {
        if self.caches.len() == 1 {
            return;
        }
        let key = addr.block().index();
        let Some(&dir_mask) = self.block_dir.get(&key) else {
            return;
        };
        let msg = CoherenceMsg::WriteForInvalidation(addr.block());
        let mut mask = dir_mask;
        let mut peers = dir_mask & !(1u16 << cpu);
        while peers != 0 {
            let i = peers.trailing_zeros() as usize;
            peers &= peers - 1;
            if self.caches[i].snoop(msg).invalidated {
                self.counters.record(CounterEvent::Invalidation);
                self.obs_emit_on(
                    EventKind::CoherenceInvalidate,
                    addr.vpn().index(),
                    0,
                    i as u32,
                );
            }
            // Invalidated or stale: either way the line is gone.
            mask &= !(1u16 << i);
        }
        if mask == 0 {
            self.block_dir.remove(&key);
        } else if mask != dir_mask {
            self.block_dir.insert(key, mask);
        }
    }

    /// Snoop for a read by `cpu`: a dirty owner elsewhere supplies the
    /// data and downgrades to shared ownership. Filtered like
    /// [`SpurSystem::snoop_invalidate`].
    fn snoop_read(&mut self, cpu: usize, addr: GlobalAddr) {
        if self.caches.len() == 1 {
            return;
        }
        let key = addr.block().index();
        let Some(&dir_mask) = self.block_dir.get(&key) else {
            return;
        };
        let msg = CoherenceMsg::ReadShared(addr.block());
        let mut mask = dir_mask;
        let mut peers = dir_mask & !(1u16 << cpu);
        while peers != 0 {
            let i = peers.trailing_zeros() as usize;
            peers &= peers - 1;
            let resp = self.caches[i].snoop(msg);
            if resp.supplied {
                self.counters.record(CounterEvent::OwnerSupply);
                self.obs_emit_on(
                    EventKind::OwnershipTransfer,
                    addr.vpn().index(),
                    0,
                    i as u32,
                );
            }
            if !resp.matched {
                // Stale bit: the copy was evicted or flushed since.
                mask &= !(1u16 << i);
            }
        }
        if mask == 0 {
            self.block_dir.remove(&key);
        } else if mask != dir_mask {
            self.block_dir.insert(key, mask);
        }
    }

    /// Write hit: the dirty-bit policy's fast path. The policy-specific
    /// work is dispatched through the handler resolved at construction
    /// ([`SpurSystem::write_hit_handler`]).
    fn write_hit(&mut self, cpu: usize, index: LineIndex, addr: GlobalAddr) -> Result<()> {
        let line = *self.caches[cpu].line(index);
        if line.state != CoherencyState::OwnedExclusive {
            self.counters.record(CounterEvent::BusWriteInvalidate);
            self.snoop_invalidate(cpu, addr);
        }

        // N_w-hit bookkeeping: first write to a block that a read brought
        // in (policy-independent; Table 3.3 measures it with the SPUR
        // hardware).
        if !line.block_dirty && !line.filled_by_write {
            self.whit += 1;
        }

        let handler = self.write_hit_fn;
        if !handler(self, cpu, index, addr, line)? {
            return Ok(());
        }

        let line = self.caches[cpu].line_mut(index);
        line.block_dirty = true;
        line.state = CoherencyState::OwnedExclusive;
        Ok(())
    }

    /// MIN write hit: only the unavoidable first-write-per-page fault.
    fn write_hit_min(
        &mut self,
        _cpu: usize,
        _index: LineIndex,
        addr: GlobalAddr,
        _line: CacheLine,
    ) -> Result<bool> {
        let vpn = addr.vpn();
        let t_ds = self.config.costs.t_ds;
        if !self.vm.pte(vpn).dirty() && !self.necessary_fault(vpn, t_ds)? {
            return Ok(false);
        }
        Ok(true)
    }

    /// SPUR write hit: check the cached page-dirty copy; refresh a stale
    /// copy with a dirty-bit miss.
    fn write_hit_spur(
        &mut self,
        cpu: usize,
        index: LineIndex,
        addr: GlobalAddr,
        line: CacheLine,
    ) -> Result<bool> {
        let vpn = addr.vpn();
        let costs = self.config.costs;
        if !line.page_dirty {
            if self.vm.pte(vpn).dirty() {
                // Stale cached copy: refresh with a dirty-bit miss.
                self.counters.record(CounterEvent::DirtyBitMiss);
                self.charge(CycleCategory::DirtyBit, costs.t_dm);
                self.obs_emit(EventKind::DirtyBitMiss, vpn.index(), costs.t_dm);
            } else if !self.necessary_fault(vpn, costs.t_ds + costs.t_dm)? {
                // First write to the page faults; a true
                // protection violation aborts the write.
                return Ok(false);
            }
            self.caches[cpu].line_mut(index).page_dirty = true;
        }
        Ok(true)
    }

    /// FAULT write hit: emulate dirty bits with protection; stale cached
    /// protection causes an excess fault.
    fn write_hit_fault(
        &mut self,
        cpu: usize,
        index: LineIndex,
        addr: GlobalAddr,
        line: CacheLine,
    ) -> Result<bool> {
        let vpn = addr.vpn();
        let costs = self.config.costs;
        if !line.prot.permits(AccessKind::Write) {
            let pte = self.vm.pte(vpn);
            if pte.protection().permits(AccessKind::Write) {
                // The PTE was already upgraded by a fault on some
                // other block of this page: an excess fault.
                self.counters.record(CounterEvent::ExcessFault);
                self.charge(CycleCategory::DirtyBit, costs.t_ds);
                self.obs_emit(EventKind::ExcessFault, vpn.index(), costs.t_ds);
                self.caches[cpu].line_mut(index).prot = pte.protection();
            } else if self.emulation_fault(vpn)? {
                self.caches[cpu].line_mut(index).prot = Protection::ReadWrite;
            } else {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// FLUSH write hit: like FAULT, but the handler flushes the page
    /// from the cache so no stale protection remains.
    fn write_hit_flush(
        &mut self,
        cpu: usize,
        index: LineIndex,
        addr: GlobalAddr,
        line: CacheLine,
    ) -> Result<bool> {
        let vpn = addr.vpn();
        let costs = self.config.costs;
        if !line.prot.permits(AccessKind::Write) {
            let pte = self.vm.pte(vpn);
            if pte.protection().permits(AccessKind::Write) {
                // Unreachable in steady state (the flush removed
                // stale lines), but handle it as FAULT would.
                self.counters.record(CounterEvent::ExcessFault);
                self.charge(CycleCategory::DirtyBit, costs.t_ds);
                self.obs_emit(EventKind::ExcessFault, vpn.index(), costs.t_ds);
                self.caches[cpu].line_mut(index).prot = pte.protection();
            } else {
                if !self.emulation_fault(vpn)? {
                    return Ok(false);
                }
                // Flush the page so no stale lines remain; our own
                // line goes too, so refill it for the write.
                let stats = self.caches[cpu].flush_page_tag_checked(vpn);
                self.counters.record(CounterEvent::PageFlush);
                self.counters
                    .record_n(CounterEvent::Writeback, stats.written_back);
                self.charge(CycleCategory::DirtyBit, costs.t_flush);
                self.obs_emit(EventKind::PageFlush, vpn.index(), costs.t_flush);
                self.fill_for_write(cpu, addr, Protection::ReadWrite, true);
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// WRITE write hit: check the PTE dirty bit on the first write to
    /// each cache block.
    fn write_hit_write(
        &mut self,
        _cpu: usize,
        _index: LineIndex,
        addr: GlobalAddr,
        line: CacheLine,
    ) -> Result<bool> {
        let vpn = addr.vpn();
        let costs = self.config.costs;
        if !line.block_dirty {
            // First write to this block: check the PTE dirty bit.
            self.charge(CycleCategory::DirtyBit, costs.t_dc);
            if !self.vm.pte(vpn).dirty() && !self.necessary_fault(vpn, costs.t_ds)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Cache miss: translate, fault the page in if needed, check the
    /// reference bit, and fill.
    fn handle_miss(&mut self, cpu: usize, addr: GlobalAddr, kind: AccessKind) -> Result<()> {
        let vpn = addr.vpn();
        let costs = self.config.costs;

        let out = self.translate_obs(cpu, addr);
        self.charge(CycleCategory::MissService, out.cycles.raw());
        let mut pte = out.pte;

        if !pte.valid() {
            let kindp = self
                .vm
                .kind_of(vpn)
                .ok_or_else(|| Error::BadWorkload(format!("{addr} is in no region")))?;
            let init = self
                .config
                .dirty
                .initial_protection(kindp.natural_protection());
            // The daemon flushes replaced pages out of *every* cache.
            self.with_vm_ctx(|vm, ctx| vm.fault_in(vpn, init, ctx))?;
            // The restarted reference translates again (the PTE block may
            // or may not still be cached).
            let out2 = self.translate_obs(cpu, addr);
            self.charge(CycleCategory::MissService, out2.cycles.raw());
            pte = out2.pte;
            debug_assert!(pte.valid(), "page still invalid after fault-in");
        }

        // The reference bit is checked for free on a miss; *setting* it
        // takes a software fault. Under NOREF the bit is never clear.
        if self.vm.ref_policy().faults_enabled() && !pte.referenced() {
            self.counters.record(CounterEvent::RefFault);
            self.charge(CycleCategory::RefBit, costs.t_ref_fault);
            self.obs_emit(EventKind::RefFault, vpn.index(), costs.t_ref_fault);
            self.vm.set_referenced(vpn);
            pte.set_referenced(true);
        }

        match kind {
            AccessKind::InstrFetch | AccessKind::Read => {
                self.counters.record(CounterEvent::BusReadShared);
                self.snoop_read(cpu, addr);
                self.fill_for_read(cpu, addr, pte.protection(), pte.dirty());
                Ok(())
            }
            AccessKind::Write => {
                self.counters.record(CounterEvent::BusReadForOwnership);
                self.snoop_invalidate(cpu, addr);
                self.write_miss(cpu, addr, pte)
            }
        }
    }

    /// Write miss: the PTE is in hand, so every policy checks it without
    /// extra cost; protection-emulation policies may still fault.
    fn write_miss(&mut self, cpu: usize, addr: GlobalAddr, pte: Pte) -> Result<()> {
        let vpn = addr.vpn();
        let costs = self.config.costs;
        self.wmiss += 1;

        match self.config.dirty {
            DirtyPolicy::Min | DirtyPolicy::Write => {
                if !pte.dirty() && !self.necessary_fault(vpn, costs.t_ds)? {
                    return Ok(());
                }
                self.fill_for_write(cpu, addr, pte.protection(), true);
            }
            DirtyPolicy::Spur => {
                if !pte.dirty() && !self.necessary_fault(vpn, costs.t_ds + costs.t_dm)? {
                    return Ok(());
                }
                self.fill_for_write(cpu, addr, pte.protection(), true);
            }
            DirtyPolicy::Fault | DirtyPolicy::Flush => {
                if !pte.protection().permits(AccessKind::Write) {
                    if !self.emulation_fault(vpn)? {
                        return Ok(());
                    }
                    if self.config.dirty == DirtyPolicy::Flush {
                        let stats = self.caches[cpu].flush_page_tag_checked(vpn);
                        self.counters.record(CounterEvent::PageFlush);
                        self.counters
                            .record_n(CounterEvent::Writeback, stats.written_back);
                        self.charge(CycleCategory::DirtyBit, costs.t_flush);
                        self.obs_emit(EventKind::PageFlush, vpn.index(), costs.t_flush);
                    }
                }
                self.fill_for_write(cpu, addr, Protection::ReadWrite, true);
            }
        }
        Ok(())
    }

    /// A necessary dirty-bit fault: the software handler sets the PTE's
    /// dirty bit. Returns `false` if the access was actually a true
    /// protection violation (the write must abort).
    fn necessary_fault(&mut self, vpn: Vpn, cost: u64) -> Result<bool> {
        let kind = self
            .vm
            .kind_of(vpn)
            .ok_or_else(|| Error::BadWorkload(format!("{vpn} is in no region")))?;
        if !kind.writable() {
            // A true protection violation (writing code).
            self.counters.record(CounterEvent::ProtFault);
            self.charge(CycleCategory::DirtyBit, self.config.costs.t_ds);
            self.obs_emit(EventKind::ProtFault, vpn.index(), self.config.costs.t_ds);
            return Ok(false);
        }
        self.counters.record(CounterEvent::DirtyFault);
        self.charge(CycleCategory::DirtyBit, cost);
        self.obs_emit(EventKind::DirtyFault, vpn.index(), cost);
        if self.vm.residency_zero_filled(vpn) {
            self.zfod_faults += 1;
        }
        self.vm.mark_dirty(vpn);
        Ok(true)
    }

    /// A protection-emulation fault: set the software dirty bit and
    /// upgrade the page to read-write. Returns `false` on a true
    /// protection violation.
    fn emulation_fault(&mut self, vpn: Vpn) -> Result<bool> {
        let kind = self
            .vm
            .kind_of(vpn)
            .ok_or_else(|| Error::BadWorkload(format!("{vpn} is in no region")))?;
        if !kind.writable() {
            self.counters.record(CounterEvent::ProtFault);
            self.charge(CycleCategory::DirtyBit, self.config.costs.t_ds);
            self.obs_emit(EventKind::ProtFault, vpn.index(), self.config.costs.t_ds);
            return Ok(false);
        }
        self.counters.record(CounterEvent::DirtyFault);
        self.charge(CycleCategory::DirtyBit, self.config.costs.t_ds);
        self.obs_emit(EventKind::DirtyFault, vpn.index(), self.config.costs.t_ds);
        if self.vm.residency_zero_filled(vpn) {
            self.zfod_faults += 1;
        }
        self.vm.mark_dirty(vpn);
        self.vm
            .update_pte(vpn, |p| p.set_protection(Protection::ReadWrite));
        Ok(true)
    }

    fn fill_for_read(&mut self, cpu: usize, addr: GlobalAddr, prot: Protection, page_dirty: bool) {
        self.charge(CycleCategory::MissService, self.config.costs.block_fill);
        self.counters.record(CounterEvent::Fill);
        self.dir_note_fill(cpu, addr);
        if let Some(ev) = self.caches[cpu].fill_for_read(addr, prot, page_dirty) {
            self.dir_note_evict(cpu, ev.block);
            self.counters.record(CounterEvent::Eviction);
            if ev.block_dirty {
                self.counters.record(CounterEvent::Writeback);
                self.charge(
                    CycleCategory::MissService,
                    self.config.costs.flush_writeback,
                );
            }
        }
    }

    fn fill_for_write(&mut self, cpu: usize, addr: GlobalAddr, prot: Protection, page_dirty: bool) {
        self.charge(CycleCategory::MissService, self.config.costs.block_fill);
        self.counters.record(CounterEvent::Fill);
        self.dir_note_fill(cpu, addr);
        if let Some(ev) = self.caches[cpu].fill_for_write(addr, prot, page_dirty) {
            self.dir_note_evict(cpu, ev.block);
            self.counters.record(CounterEvent::Eviction);
            if ev.block_dirty {
                self.counters.record(CounterEvent::Writeback);
                self.charge(
                    CycleCategory::MissService,
                    self.config.costs.flush_writeback,
                );
            }
        }
    }

    /// Runs one clear-only daemon pass over every resident page (the
    /// first hand of a two-handed clock): reference bits are cleared per
    /// the policy, nothing is reclaimed.
    pub fn daemon_clear_pass(&mut self) {
        self.with_vm_ctx(|vm, ctx| vm.daemon_clear_pass(ctx));
    }

    /// Gathers the Table 3.3 event record for this run.
    pub fn events(&self) -> EventCounts {
        EventCounts {
            n_ds: self.counters.total(CounterEvent::DirtyFault),
            // N_zfod as the paper uses it: necessary dirty faults whose
            // page was freshly zero-filled (their exclusion leaves the
            // faults a policy could actually avoid).
            n_zfod: self.zfod_faults,
            // N_ef and N_dm are the same population seen through
            // different mechanisms; whichever the policy generated is the
            // count.
            n_ef: self.counters.total(CounterEvent::ExcessFault)
                + self.counters.total(CounterEvent::DirtyBitMiss),
            n_whit: self.whit,
            n_wmiss: self.wmiss,
            refs: self.refs,
            misses: self.misses,
            page_ins: self.vm.stats().page_ins,
            ref_faults: self.counters.total(CounterEvent::RefFault),
            elapsed: self.cycles,
        }
    }

    /// Audits cross-component invariants (tests): every valid non-PTE
    /// cache line belongs to a resident page, at most one cache owns a
    /// block, an `OwnedExclusive` block is cached by no other CPU, and
    /// the VM's own invariants hold.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        self.vm.check_invariants()?;
        let mut owners: HashMap<u64, usize> = HashMap::new();
        let mut exclusive = Vec::new();
        for (cpu, cache) in self.caches.iter().enumerate() {
            for (idx, line) in cache.iter_valid() {
                let vpn = line.block.vpn();
                if vpn.base_addr().global_segment() == PT_GLOBAL_SEGMENT {
                    continue; // PTE blocks are wired data, always "resident"
                }
                if !self.vm.is_resident(vpn) {
                    return Err(format!(
                        "cpu{cpu} line {idx} holds block {} of non-resident page {vpn}",
                        line.block
                    ));
                }
                if line.state.is_owner() {
                    if let Some(prev) = owners.insert(line.block.index(), cpu) {
                        return Err(format!(
                            "block {} owned by both cpu{prev} and cpu{cpu}",
                            line.block
                        ));
                    }
                }
                if line.state == CoherencyState::OwnedExclusive {
                    exclusive.push((cpu, line.block));
                }
            }
        }
        for (cpu, block) in exclusive {
            for (other, cache) in self.caches.iter().enumerate() {
                if other != cpu && cache.find(block).is_some() {
                    return Err(format!(
                        "block {block} is exclusive in cpu{cpu} but also cached by cpu{other}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_trace::workloads::{mp_workers, slc, workload1};

    fn sim(mem: MemSize, dirty: DirtyPolicy, ref_policy: RefPolicy) -> SpurSystem {
        SpurSystem::new(SimConfig {
            mem,
            dirty,
            ref_policy,
            ..SimConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn runs_a_small_slice_of_slc() {
        let w = slc();
        let mut s = sim(MemSize::MB8, DirtyPolicy::Spur, RefPolicy::Miss);
        s.load_workload(&w).unwrap();
        let mut gen = w.generator(1);
        s.run(&mut gen, 200_000).unwrap();
        assert_eq!(s.refs(), 200_000);
        assert!(s.misses() > 0);
        assert!(s.cycles() > Cycles::new(200_000));
        s.check_invariants().unwrap();
        let ev = s.events();
        assert!(ev.n_ds > 0, "some pages must get dirtied");
        assert!(ev.n_zfod > 0, "heap first-touches zero-fill");
    }

    #[test]
    fn policies_see_identical_reference_streams() {
        // Different dirty policies must not change what is resident or
        // which pages get logically dirtied — only the cycle accounting
        // and fault counts differ. (Run at 8 MB so policy-induced timing
        // differences cannot perturb replacement.)
        let w = slc();
        let mut dirty_pages: Vec<u64> = Vec::new();
        for policy in DirtyPolicy::ALL {
            let mut s = sim(MemSize::MB8, policy, RefPolicy::Miss);
            s.load_workload(&w).unwrap();
            let mut gen = w.generator(99);
            s.run(&mut gen, 150_000).unwrap();
            s.check_invariants().unwrap();
            dirty_pages.push(s.events().n_ds);
        }
        // Every policy observes the same number of necessary faults.
        for pair in dirty_pages.windows(2) {
            assert_eq!(pair[0], pair[1], "necessary faults differ across policies");
        }
    }

    #[test]
    fn fault_policy_generates_excess_faults_spur_generates_dirty_misses() {
        let w = workload1();
        let mut fault_sim = sim(MemSize::MB8, DirtyPolicy::Fault, RefPolicy::Miss);
        fault_sim.load_workload(&w).unwrap();
        fault_sim.run(&mut w.generator(5), 400_000).unwrap();
        let fault_ev = fault_sim.events();

        let mut spur_sim = sim(MemSize::MB8, DirtyPolicy::Spur, RefPolicy::Miss);
        spur_sim.load_workload(&w).unwrap();
        spur_sim.run(&mut w.generator(5), 400_000).unwrap();
        let spur_ev = spur_sim.events();

        assert!(fault_ev.n_ef > 0, "FAULT must see excess faults");
        assert!(spur_ev.n_ef > 0, "SPUR must see dirty-bit misses");
        assert_eq!(
            fault_sim.counters().total(CounterEvent::DirtyBitMiss),
            0,
            "FAULT never dirty-bit-misses"
        );
        assert_eq!(
            spur_sim.counters().total(CounterEvent::ExcessFault),
            0,
            "SPUR never excess-faults"
        );
        // The same stale-block population drives both counts.
        assert_eq!(fault_ev.n_ef, spur_ev.n_ef, "N_ef = N_dm");
    }

    #[test]
    fn flush_policy_prevents_excess_faults() {
        let w = workload1();
        let mut s = sim(MemSize::MB8, DirtyPolicy::Flush, RefPolicy::Miss);
        s.load_workload(&w).unwrap();
        s.run(&mut w.generator(5), 400_000).unwrap();
        assert_eq!(
            s.counters().total(CounterEvent::ExcessFault),
            0,
            "FLUSH prevents excess faults"
        );
        assert!(s.counters().total(CounterEvent::PageFlush) > 0);
    }

    #[test]
    fn min_policy_has_least_cycles() {
        let w = slc();
        let mut elapsed = Vec::new();
        for policy in DirtyPolicy::ALL {
            let mut s = sim(MemSize::MB8, policy, RefPolicy::Miss);
            s.load_workload(&w).unwrap();
            s.run(&mut w.generator(7), 300_000).unwrap();
            elapsed.push((policy, s.cycles()));
        }
        let min = elapsed
            .iter()
            .find(|(p, _)| *p == DirtyPolicy::Min)
            .unwrap()
            .1;
        for (p, c) in &elapsed {
            assert!(*c >= min, "{p} must not beat MIN");
        }
    }

    #[test]
    fn noref_never_takes_ref_faults() {
        let w = slc();
        let mut s = sim(MemSize::MB5, DirtyPolicy::Spur, RefPolicy::Noref);
        s.load_workload(&w).unwrap();
        s.run(&mut w.generator(3), 400_000).unwrap();
        assert_eq!(s.counters().total(CounterEvent::RefFault), 0);
    }

    #[test]
    fn unregistered_address_is_an_error() {
        let mut s = sim(MemSize::MB8, DirtyPolicy::Spur, RefPolicy::Miss);
        let r = TraceRef {
            pid: spur_trace::stream::Pid(0),
            addr: GlobalAddr::from_parts(40, 0),
            kind: AccessKind::Read,
        };
        assert!(matches!(s.reference(r), Err(Error::BadWorkload(_))));
    }

    /// The counter event carrying the same population as a traced kind.
    fn counter_for(kind: EventKind) -> CounterEvent {
        match kind {
            EventKind::IFetchMiss => CounterEvent::IFetchMiss,
            EventKind::ReadMiss => CounterEvent::ReadMiss,
            EventKind::WriteMiss => CounterEvent::WriteMiss,
            EventKind::PteCacheMiss => CounterEvent::PteCacheMiss,
            EventKind::SecondLevelFetch => CounterEvent::SecondLevelFetch,
            EventKind::DirtyFault => CounterEvent::DirtyFault,
            EventKind::ExcessFault => CounterEvent::ExcessFault,
            EventKind::DirtyBitMiss => CounterEvent::DirtyBitMiss,
            EventKind::RefFault => CounterEvent::RefFault,
            EventKind::ProtFault => CounterEvent::ProtFault,
            EventKind::ZeroFill => CounterEvent::ZeroFill,
            EventKind::PageIn => CounterEvent::PageIn,
            EventKind::PageOut => CounterEvent::PageOut,
            EventKind::DaemonScan => CounterEvent::DaemonScan,
            EventKind::SoftFault => CounterEvent::SoftFault,
            EventKind::PageFlush => CounterEvent::PageFlush,
            EventKind::CoherenceInvalidate => CounterEvent::Invalidation,
            EventKind::OwnershipTransfer => CounterEvent::OwnerSupply,
        }
    }

    #[test]
    fn trace_reconciles_with_counters_across_the_whole_system() {
        // Memory pressure at 5 MB drives the daemon, page-outs, and soft
        // faults, so every traced kind is exercised or provably zero.
        let w = slc();
        let mut s = sim(MemSize::MB5, DirtyPolicy::Spur, RefPolicy::Miss);
        s.load_workload(&w).unwrap();
        s.enable_obs(ObsParams::default());
        s.run(&mut w.generator(1), 300_000).unwrap();
        let report = s.finish_obs().unwrap();
        for kind in EventKind::ALL {
            assert_eq!(
                report.emitted(kind),
                s.counters().total(counter_for(kind)),
                "trace and counters disagree on {}",
                kind.name()
            );
        }
        assert!(report.emitted(EventKind::ReadMiss) > 0);
        assert!(report.emitted(EventKind::DirtyFault) > 0);
        assert!(report.emitted(EventKind::PageIn) > 0);
    }

    #[test]
    fn recording_does_not_perturb_the_simulation() {
        let w = slc();
        let run = |obs: bool| {
            let mut s = sim(MemSize::MB5, DirtyPolicy::Spur, RefPolicy::Miss);
            s.load_workload(&w).unwrap();
            if obs {
                s.enable_obs(ObsParams {
                    epoch: Some(25_000),
                    ..ObsParams::default()
                });
            }
            s.run(&mut w.generator(42), 200_000).unwrap();
            (s.cycles(), s.misses(), s.events())
        };
        assert_eq!(run(false), run(true), "observability must be invisible");
    }

    #[test]
    fn epoch_series_covers_the_run_and_sums_to_totals() {
        let w = slc();
        let mut s = sim(MemSize::MB6, DirtyPolicy::Spur, RefPolicy::Miss);
        s.load_workload(&w).unwrap();
        s.enable_obs(ObsParams {
            epoch: Some(30_000),
            ..ObsParams::default()
        });
        s.run(&mut w.generator(9), 100_000).unwrap();
        let misses = s.misses();
        let cycles = s.cycles().raw();
        let report = s.finish_obs().unwrap();
        let series = report.series.as_ref().unwrap();
        // 100_000 refs at epoch 30_000: three full rows plus the flushed
        // partial tail.
        assert_eq!(series.rows().len(), 4);
        assert_eq!(series.rows().last().unwrap().end_ref, 100_000);
        let col = |name: &str| {
            let i = series.columns().iter().position(|c| c == name).unwrap();
            series.rows().iter().map(|r| r.deltas[i]).sum::<u64>()
        };
        assert_eq!(col("misses"), misses, "epoch deltas must sum to totals");
        assert_eq!(col("cycles"), cycles);
    }

    #[test]
    fn residency_histogram_accounts_for_every_write() {
        let w = slc();
        let mut s = sim(MemSize::MB5, DirtyPolicy::Spur, RefPolicy::Miss);
        s.load_workload(&w).unwrap();
        s.enable_obs(ObsParams::default());
        s.run(&mut w.generator(3), 250_000).unwrap();
        let writes = s.counters().total(CounterEvent::Write);
        let reclaims = s.vm().stats().reclaims;
        let report = s.finish_obs().unwrap();
        let hist = report
            .histograms
            .iter()
            .find(|h| h.name() == "writes_per_residency")
            .unwrap();
        // Every write lands in exactly one residency; every reclaimed
        // page closes one histogram entry.
        assert_eq!(hist.sum(), writes);
        assert!(hist.count() >= reclaims);
    }

    #[test]
    fn finish_obs_is_none_when_never_enabled() {
        let mut s = sim(MemSize::MB8, DirtyPolicy::Spur, RefPolicy::Miss);
        assert!(s.finish_obs().is_none());
    }

    #[test]
    fn events_accumulate_consistently() {
        let w = slc();
        let mut s = sim(MemSize::MB6, DirtyPolicy::Spur, RefPolicy::Miss);
        s.load_workload(&w).unwrap();
        s.run(&mut w.generator(11), 250_000).unwrap();
        let ev = s.events();
        assert_eq!(ev.refs, 250_000);
        assert!(ev.misses <= ev.refs);
        assert!(ev.n_zfod <= ev.n_ds + ev.n_zfod, "sanity");
        // Write misses fill blocks; they cannot exceed total misses.
        assert!(ev.n_wmiss <= ev.misses);
        // Zero-fill pages are a subset of page faults.
        assert!(ev.n_zfod <= s.vm().stats().page_faults);
    }

    #[test]
    fn multiprocessor_runs_uphold_invariants() {
        let workload = mp_workers(4, 128);
        let mut sim = SpurSystem::new(SimConfig {
            mem: MemSize::MB8,
            cpus: 4,
            ..SimConfig::default()
        })
        .unwrap();
        sim.load_workload(&workload).unwrap();
        sim.run(&mut workload.generator(3), 400_000).unwrap();
        sim.check_invariants().unwrap();
        // Sharing must actually generate coherence traffic.
        assert!(
            sim.counters()
                .total(spur_cache::counters::CounterEvent::Invalidation)
                > 0,
            "shared writes must invalidate peer copies"
        );
    }

    /// A pipelined-path limit that is not a multiple of the batch size.
    const PIPE_REFS: u64 = 20 * BATCH as u64 + 1_234;

    fn loaded(w: &Workload) -> SpurSystem {
        let mut s = sim(MemSize::MB5, DirtyPolicy::Spur, RefPolicy::Miss);
        s.load_workload(w).unwrap();
        s
    }

    /// The state a run must reproduce: every counter, cycles and events.
    fn outcome(s: &SpurSystem) -> (Vec<u64>, Cycles, EventCounts) {
        let counters = CounterMode::ALL
            .iter()
            .flat_map(|m| m.events())
            .map(|&e| s.counters().total(e))
            .collect();
        (counters, s.cycles(), s.events())
    }

    /// `refs` references of `gen`, one `reference` call at a time.
    fn reference_loop(w: &Workload, seed: u64, refs: u64) -> SpurSystem {
        let mut s = loaded(w);
        for r in w.generator(seed).take(refs as usize) {
            s.reference(r).unwrap();
        }
        s
    }

    #[test]
    fn pipelined_run_matches_the_reference_loop() {
        let w = slc();
        let mut s = loaded(&w);
        let done = s.run_pipelined(&mut w.generator(4), PIPE_REFS, Busy::enter(), || false);
        assert_eq!(done.unwrap(), None, "the run completes on the helper");
        assert_eq!(s.refs(), PIPE_REFS);
        assert_eq!(outcome(&s), outcome(&reference_loop(&w, 4, PIPE_REFS)));
    }

    #[test]
    fn pipelined_run_pulls_exactly_its_limit() {
        let w = workload1();
        let mut gen = w.generator(8);
        let done = loaded(&w).run_pipelined(&mut gen, PIPE_REFS, Busy::enter(), || false);
        assert_eq!(done.unwrap(), None);
        let next = w.generator(8).nth(PIPE_REFS as usize);
        assert_eq!(gen.next(), next, "the stream resumes at ref n+1");
    }

    #[test]
    fn a_helper_handed_back_leaves_the_stream_at_what_ran() {
        let w = slc();
        let mut s = loaded(&w);
        let mut gen = w.generator(6);
        let done = s.run_pipelined(&mut gen, PIPE_REFS, Busy::enter(), || true);
        let pulled = done.unwrap().expect("the helper hands the stream back");
        assert!(pulled < PIPE_REFS, "handed back early, after {pulled}");
        assert_eq!(s.refs(), pulled, "every pulled reference ran");
        s.run_serial(&mut gen, PIPE_REFS - pulled).unwrap();
        assert_eq!(outcome(&s), outcome(&reference_loop(&w, 6, PIPE_REFS)));
        let next = w.generator(6).nth(PIPE_REFS as usize);
        assert_eq!(gen.next(), next);
    }

    #[test]
    fn a_short_stream_stops_the_pipelined_run() {
        let w = slc();
        let short = 5 * BATCH as u64 + 17;
        let mut s = loaded(&w);
        let mut gen = w.generator(2).take(short as usize);
        let done = s.run_pipelined(&mut gen, PIPE_REFS, Busy::enter(), || false);
        assert_eq!(done.unwrap(), None);
        assert_eq!(s.refs(), short);
        assert_eq!(outcome(&s), outcome(&reference_loop(&w, 2, short)));
    }

    #[test]
    fn a_bad_address_fails_the_pipelined_run_at_its_reference() {
        let w = slc();
        let k = 7 * BATCH + 300;
        let bad = TraceRef {
            pid: spur_trace::stream::Pid(0),
            addr: GlobalAddr::from_parts(40, 0),
            kind: AccessKind::Read,
        };
        let mut gen = w
            .generator(3)
            .take(k - 1)
            .chain(std::iter::once(bad))
            .chain(w.generator(5));
        let mut s = loaded(&w);
        let done = s.run_pipelined(&mut gen, PIPE_REFS, Busy::enter(), || false);
        assert!(matches!(done, Err(Error::BadWorkload(_))), "{done:?}");
        assert_eq!(s.refs(), k as u64, "the failing reference is counted");
    }

    #[test]
    fn a_short_run_pulls_on_the_calling_thread() {
        let w = slc();
        let me = thread::current().id();
        let mut gen = w
            .generator(1)
            .inspect(|_| assert_eq!(thread::current().id(), me, "a helper pulled"));
        let mut s = loaded(&w);
        s.run(&mut gen, MIN_BATCHES * BATCH as u64 - 1).unwrap();
    }

    #[test]
    fn no_helper_is_claimed_while_every_core_is_busy() {
        // Other tests only add shares they hold, so the count stays at
        // or above these.
        let held: Vec<Busy> = (0..cores()).map(|_| Busy::enter()).collect();
        assert!(Busy::claim_free_core().is_none());
        drop(held);
    }

    /// The message of a caught panic.
    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn a_panicking_stream_surfaces_its_own_message() {
        let w = slc();
        let mut gen = w
            .generator(1)
            .take(3 * BATCH + 5)
            .chain(std::iter::from_fn(|| panic!("stream broke")));
        let mut s = loaded(&w);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run_pipelined(&mut gen, PIPE_REFS, Busy::enter(), || false)
        }));
        assert_eq!(panic_text(caught.unwrap_err()), "stream broke");
    }

    #[test]
    fn a_panic_on_the_simulating_side_keeps_its_message() {
        let w = slc();
        let mut s = loaded(&w);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run_pipelined(&mut w.generator(1), PIPE_REFS, Busy::enter(), || {
                panic!("simulator broke")
            })
        }));
        assert_eq!(panic_text(caught.unwrap_err()), "simulator broke");
    }

    #[test]
    fn too_many_cpus_is_rejected() {
        let err = SpurSystem::new(SimConfig {
            cpus: 13,
            ..SimConfig::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("12"));
    }
}
