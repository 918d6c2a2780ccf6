//! The trace generator: turns a [`Workload`]
//! into a deterministic reference stream.
//!
//! The per-reference path does no division and no heap allocation. A
//! running process's activation end is cached at each scheduling
//! decision, phases count down, every probability test compares the
//! RNG's 53-bit draw against an integer [`Threshold`] (exactly
//! `random::<f64>() < p`, drawing the same value), and the read/write
//! histories and scripted touch-ups live in fixed rings.

use spur_types::rng::{SmallRng, Threshold};
use spur_types::{AccessKind, GlobalAddr, BLOCKS_PER_PAGE};

use crate::layout::Region;
use crate::locality::HotSet;
use crate::process::{BehaviorSpec, Schedule};
use crate::stream::{Pid, TraceRef};
use crate::workloads::Workload;

/// References per scheduling quantum (times the process's weight).
const QUANTUM: u64 = 4_096;

/// Capacity of the recent-reads and recent-writes rings that feed
/// read-before-write behavior.
const READ_HISTORY: usize = 32;

const _: () = assert!(READ_HISTORY.is_power_of_two());

/// Per-segment generation state.
///
/// References are generated in **bursts**: a burst pins a page and a
/// small window of blocks within it and re-touches them repeatedly
/// before moving on. Block-level temporal reuse is what gives the
/// 128 KB cache its high hit ratio; without it every reference would be
/// a compulsory-style miss and none of the paper's cost structure would
/// hold.
#[derive(Debug, Clone)]
struct SegState {
    region: Region,
    hot: HotSet,
    /// The write-hot subset: pages that are actively being modified.
    /// Keeping writes concentrated here is what makes real programs
    /// "modify pages quickly" — the property behind the paper's low
    /// excess-fault counts.
    write_hot: HotSet,
    /// Bump pointer for fresh-page allocation (page index within region).
    alloc_next: u64,
    /// Current read burst: (page, window base block, refs left).
    rd_page: u64,
    rd_base: u64,
    rd_left: u32,
    /// Current write burst.
    wr_page: u64,
    wr_base: u64,
    wr_left: u32,
}

/// The shortest burst a `burst_len` draw may give: half the length,
/// but never zero, so a burst of length 1 still counts down from 1.
/// Identical to `burst_len / 2` for every length of 2 or more.
fn burst_floor(burst_len: u32) -> u32 {
    (burst_len / 2).max(1)
}

/// Blocks in a burst's reuse window.
const BURST_WINDOW: u64 = 4;

impl SegState {
    fn new(region: Region, hot_pages: usize, theta: f64) -> Self {
        let hot_pages = hot_pages.min(region.pages as usize).max(1);
        let wr_pages = (hot_pages / 3).max(1);
        // The write-hot seed pages sit at the far end of the region,
        // disjoint from the read working set: their first touch is a
        // write, so they are dirty from the start of their residency
        // (real allocation behavior, and the reason excess faults are
        // rare in the paper's measurements).
        let wr_first = region.pages.saturating_sub(wr_pages as u64);
        SegState {
            region,
            hot: HotSet::new(hot_pages, 0, theta),
            write_hot: HotSet::new(wr_pages, wr_first, theta),
            alloc_next: hot_pages as u64 % region.pages,
            rd_page: 0,
            rd_base: 0,
            rd_left: 0,
            wr_page: 0,
            wr_base: 0,
            wr_left: 0,
        }
    }

    /// One read access: continue the current burst or start a new one.
    /// `cold` is the chance a new burst revisits an old page.
    fn read_step(&mut self, rng: &mut SmallRng, burst_len: u32, cold: Threshold) -> (u64, u64) {
        if self.rd_left == 0 {
            self.rd_page = if rng.chance(cold) {
                // Cold reference: revisit an *old* page — one behind the
                // allocation pointer, so it has been written already.
                // (Reading ahead of the pointer would zero-fill a page
                // the allocator later writes, manufacturing stale-copy
                // faults that real programs do not exhibit.)
                let pages = self.region.pages;
                let back = 1 + rng.random_range(0..(pages / 2).max(1));
                // alloc_next < pages and 1 <= back <= pages, so one
                // conditional subtraction wraps it into the region.
                let page = self.alloc_next + pages - back;
                let page = if page >= pages { page - pages } else { page };
                self.hot.promote(page);
                page
            } else {
                self.hot.sample(rng)
            };
            self.rd_base = rng.random_range(0..BLOCKS_PER_PAGE);
            self.rd_left = rng.random_range(burst_floor(burst_len)..=burst_len.max(1));
        }
        self.rd_left -= 1;
        let block = (self.rd_base + rng.random_range(0..BURST_WINDOW)) % BLOCKS_PER_PAGE;
        (self.rd_page, block)
    }

    /// One in-place update write: continues a burst on a write-hot page
    /// (already dirty).
    fn write_step(&mut self, rng: &mut SmallRng, burst_len: u32) -> (u64, u64) {
        // Each step first draws an old-page test whose probability is
        // zero (old-page writes are the scripted touch-ups in
        // `ProcState::write`). The draw stays: every pinned stream
        // includes it.
        rng.next_u64();
        if self.wr_left == 0 {
            self.wr_page = self.write_hot.sample(rng);
            self.wr_base = rng.random_range(0..BLOCKS_PER_PAGE);
            self.wr_left = rng.random_range(burst_floor(burst_len)..=burst_len.max(1));
        }
        self.wr_left -= 1;
        let block = (self.wr_base + rng.random_range(0..BURST_WINDOW)) % BLOCKS_PER_PAGE;
        (self.wr_page, block)
    }

    /// Takes the next fresh page from the bump pointer (wrapping around
    /// the region).
    fn next_fresh(&mut self) -> u64 {
        let page = self.alloc_next;
        self.alloc_next += 1;
        if self.alloc_next == self.region.pages {
            self.alloc_next = 0;
        }
        page
    }

    /// Takes the next `n` fresh pages.
    fn take_fresh(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_fresh()).collect()
    }

    fn addr_of(&self, page: u64, block: u64) -> GlobalAddr {
        debug_assert!(page < self.region.pages);
        self.region
            .start
            .offset(page)
            .block(block % BLOCKS_PER_PAGE)
            .base_addr()
    }
}

/// Instruction-fetch state: a loop model. The PC runs a short loop many
/// iterations, then jumps to a new loop site; loops are what make
/// instruction streams cache-friendly.
#[derive(Debug, Clone)]
struct CodeState {
    region: Region,
    hot: HotSet,
    page: u64,
    start_block: u64,
    len: u64,
    pos: u64,
    iters_left: u32,
}

impl CodeState {
    fn new(region: Region, hot_pages: usize, theta: f64) -> Self {
        let hot_pages = hot_pages.min(region.pages as usize).max(1);
        CodeState {
            region,
            hot: HotSet::new(hot_pages, 0, theta),
            page: 0,
            start_block: 0,
            len: 4,
            pos: 0,
            iters_left: 1,
        }
    }

    fn step(&mut self, rng: &mut SmallRng) -> (u64, u64) {
        let block = (self.start_block + self.pos) % BLOCKS_PER_PAGE;
        self.pos += 1;
        if self.pos >= self.len {
            self.pos = 0;
            self.iters_left = self.iters_left.saturating_sub(1);
            if self.iters_left == 0 {
                // Jump to a new loop site.
                self.page = self.hot.sample(rng);
                self.start_block = rng.random_range(0..BLOCKS_PER_PAGE);
                self.len = rng.random_range(2..=16);
                self.iters_left = rng.random_range(8..=256);
            }
        }
        (self.page, block)
    }

    fn shift(&mut self, n: usize, rng: &mut SmallRng) {
        let pages = self.region.pages;
        self.hot
            .shift(n, (0..n as u64).map(|_| rng.random_range(0..pages)));
    }

    fn addr_of(&self, page: u64, block: u64) -> GlobalAddr {
        self.region
            .start
            .offset(page)
            .block(block % BLOCKS_PER_PAGE)
            .base_addr()
    }
}

/// The last [`READ_HISTORY`] entries pushed, in a fixed ring; index 0
/// is the oldest.
#[derive(Debug, Clone)]
struct History<T> {
    slots: [T; READ_HISTORY],
    /// Slot of the oldest entry.
    head: usize,
    len: usize,
}

impl<T: Copy> History<T> {
    fn new(fill: T) -> Self {
        History {
            slots: [fill; READ_HISTORY],
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `v`, dropping the oldest entry when full.
    fn push(&mut self, v: T) {
        if self.len == READ_HISTORY {
            self.slots[self.head] = v;
            self.head = (self.head + 1) % READ_HISTORY;
        } else {
            self.slots[(self.head + self.len) % READ_HISTORY] = v;
            self.len += 1;
        }
    }

    /// The `i`-th oldest entry.
    fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        self.slots[(self.head + i) % READ_HISTORY]
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// A process's per-reference probabilities as integer thresholds,
/// computed once from its [`BehaviorSpec`]. A cut point that is a sum
/// of fractions is summed in `f64` first and then converted, so each
/// test is exactly the float comparison `u < a + b`.
#[derive(Debug, Clone, Copy)]
struct Odds {
    /// The mix's cut points ([`crate::stream::RefMix::cut_points`]):
    /// below the first an instruction fetch, below the second a read,
    /// otherwise a write.
    ifetch: Threshold,
    ifetch_read: Threshold,
    /// The shared-region test, drawn only when the workload has a
    /// shared region and `shared_frac > 0`.
    shared: Option<Threshold>,
    /// Segment cut points for private data: heap, then heap + stack.
    heap: Threshold,
    heap_stack: Threshold,
    rw_read: Threshold,
    cold_read: Threshold,
    /// Write cut points: read-before-write, then that plus allocation.
    read_before_write: Threshold,
    rbw_alloc: Threshold,
    old_write: Threshold,
    /// A touch-up reads a second block first (Figure 3.1's scenario).
    touch_up_read: Threshold,
}

impl Odds {
    fn new(b: &BehaviorSpec, has_shared: bool) -> Self {
        let (ifetch, ifetch_read) = b.mix.cut_points();
        Odds {
            ifetch: Threshold::new(ifetch),
            ifetch_read: Threshold::new(ifetch_read),
            shared: (has_shared && b.shared_frac > 0.0).then(|| Threshold::new(b.shared_frac)),
            heap: Threshold::new(b.heap_frac),
            heap_stack: Threshold::new(b.heap_frac + b.stack_frac),
            rw_read: Threshold::new(b.rw_read_frac),
            cold_read: Threshold::new(b.cold_read_frac),
            read_before_write: Threshold::new(b.read_before_write),
            rbw_alloc: Threshold::new(b.read_before_write + b.alloc_write_frac),
            old_write: Threshold::new(b.old_page_write_frac),
            touch_up_read: Threshold::new(0.25),
        }
    }
}

/// Per-process generation state.
#[derive(Debug, Clone)]
struct ProcState {
    pid: Pid,
    behavior: BehaviorSpec,
    schedule: Schedule,
    weight: u32,
    odds: Odds,
    /// References left until the next phase shift.
    phase_left: u64,
    code: CodeState,
    heap: SegState,
    stack: SegState,
    file: SegState,
    shared: Option<SegState>,
    /// Allocation write stream: current fresh heap page and block cursor.
    alloc_page: u64,
    alloc_block: u64,
    /// Recently read (page, block) pairs on actively-written pages.
    read_history: History<(u64, u64, Seg)>,
    /// Pages recently written (guaranteed dirty): the population rw-reads
    /// sample from, so reads of "active data" never race a page's first
    /// write.
    write_history: History<(u64, Seg)>,
    /// Scripted follow-up writes of an old-page touch-up, as file
    /// (page, block) pairs issued from the top: `touch_ups_left` of them
    /// remain, the next at `touch_ups[touch_ups_left - 1]`. The scripted
    /// triple read(b2), write(b1), write(b2) reproduces Figure 3.1's
    /// scenario exactly: the read caches b2 while the page is clean, the
    /// first write faults the page dirty, and the second write then finds
    /// a stale cached copy — one controlled excess fault.
    touch_ups: [(u64, u64); 2],
    touch_ups_left: usize,
    /// Activation instance currently running (None while idle).
    instance: Option<u64>,
}

/// Which segment a history entry refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    Heap,
    Stack,
    File,
    /// The workload-wide shared region (if declared).
    Shared,
}

impl ProcState {
    fn new(workload: &Workload, idx: usize) -> Self {
        let spec = &workload.processes()[idx];
        let regions = workload.proc_regions(idx);
        let b = &spec.behavior;
        let mut heap = SegState::new(regions.heap, b.heap_hot_pages, b.zipf_theta);
        let alloc_page = heap.next_fresh();
        ProcState {
            pid: Pid(idx as u32),
            behavior: *b,
            schedule: spec.schedule,
            weight: spec.weight,
            odds: Odds::new(b, workload.shared_region().is_some()),
            phase_left: b.phase_len,
            code: CodeState::new(regions.code, b.code_hot_pages, b.zipf_theta),
            heap,
            stack: SegState::new(regions.stack, b.stack_hot_pages, b.zipf_theta),
            file: SegState::new(regions.file, b.file_hot_pages, b.zipf_theta),
            shared: workload
                .shared_region()
                .map(|r| SegState::new(r, b.shared_hot_pages, b.zipf_theta)),
            alloc_page,
            alloc_block: 0,
            read_history: History::new((0, 0, Seg::Heap)),
            write_history: History::new((0, Seg::Heap)),
            touch_ups: [(0, 0); 2],
            touch_ups_left: 0,
            instance: Some(0),
        }
    }

    fn seg(&mut self, which: Seg) -> &mut SegState {
        match which {
            Seg::Heap => &mut self.heap,
            Seg::Stack => &mut self.stack,
            Seg::File => &mut self.file,
            Seg::Shared => self
                .shared
                .as_mut()
                .expect("Seg::Shared only chosen when a shared region exists"),
        }
    }

    /// Phase shift: replace part of each working set. Heap pulls fresh
    /// pages (zero-fill churn); code and file re-touch other parts of
    /// their (file-backed) regions.
    fn phase_shift(&mut self, rng: &mut SmallRng) {
        let b = &self.behavior;
        let heap_n = (b.heap_hot_pages as f64 * b.phase_shift_frac).ceil() as usize;
        let fresh = self.heap.take_fresh(heap_n);
        self.heap.hot.shift(heap_n, fresh.into_iter());

        let code_n = (b.code_hot_pages as f64 * b.phase_shift_frac).ceil() as usize;
        self.code.shift(code_n, rng);

        let file_n = (b.file_hot_pages as f64 * b.phase_shift_frac).ceil() as usize;
        let file_pages = self.file.region.pages;
        self.file.hot.shift(
            file_n,
            (0..file_n as u64).map(|_| rng.random_range(0..file_pages)),
        );
    }

    /// A fresh activation: the process restarts as a new program
    /// instance. The heap working set moves wholesale onto fresh pages.
    fn restart(&mut self, rng: &mut SmallRng) {
        let n = self.behavior.heap_hot_pages;
        let fresh = self.heap.take_fresh(n);
        self.heap.hot.shift(n, fresh.into_iter());
        // The new program instance's actively-written data is brand new
        // too: re-seed the write-hot set from fresh allocation pages so
        // first touches are writes.
        let wr_n = self.heap.write_hot.len();
        let wr_fresh = self.heap.take_fresh(wr_n);
        self.heap.write_hot.shift(wr_n, wr_fresh.into_iter());
        self.code.shift(self.behavior.code_hot_pages, rng);
        self.read_history.clear();
        self.write_history.clear();
        self.touch_ups_left = 0;
        self.alloc_page = self.heap.next_fresh();
        self.alloc_block = 0;
    }

    /// Generates one reference.
    fn gen_ref(&mut self, rng: &mut SmallRng) -> (GlobalAddr, AccessKind) {
        self.phase_left -= 1;
        if self.phase_left == 0 {
            self.phase_left = self.behavior.phase_len;
            self.phase_shift(rng);
        }

        if self.touch_ups_left != 0 {
            self.touch_ups_left -= 1;
            let (page, block) = self.touch_ups[self.touch_ups_left];
            return (self.file.addr_of(page, block), AccessKind::Write);
        }

        let u = rng.draw53();
        if self.odds.ifetch.admits(u) {
            let (page, block) = self.code.step(rng);
            (self.code.addr_of(page, block), AccessKind::InstrFetch)
        } else if self.odds.ifetch_read.admits(u) {
            self.read(rng)
        } else {
            self.write(rng)
        }
    }

    fn read(&mut self, rng: &mut SmallRng) -> (GlobalAddr, AccessKind) {
        let which = self.pick_data_seg(rng);
        if rng.chance(self.odds.rw_read) && !self.write_history.is_empty() {
            // Read of actively-modified data: sample a page that
            // was recently *written*, so it is certainly dirty.
            // Only these reads feed the read-before-write
            // history, so the blocks they bring in are later
            // modified *without* faulting — the N_w-hit
            // population.
            let i = rng.random_range(0..self.write_history.len());
            let (page, which) = self.write_history.get(i);
            let block = rng.random_range(0..BLOCKS_PER_PAGE);
            self.read_history.push((page, block, which));
            (self.seg(which).addr_of(page, block), AccessKind::Read)
        } else {
            // Only heap bursts go cold; the others still draw the test.
            let cold = if which == Seg::Heap {
                self.odds.cold_read
            } else {
                Threshold::NEVER
            };
            let burst = self.behavior.read_burst;
            let seg = self.seg(which);
            let (page, block) = seg.read_step(rng, burst, cold);
            (seg.addr_of(page, block), AccessKind::Read)
        }
    }

    fn write(&mut self, rng: &mut SmallRng) -> (GlobalAddr, AccessKind) {
        let kind = AccessKind::Write;
        let u = rng.draw53();
        if self.odds.read_before_write.admits(u) && !self.read_history.is_empty() {
            // Modify something we read recently: this block was
            // brought into the cache by a read (N_w-hit).
            let i = rng.random_range(0..self.read_history.len());
            let (page, block, which) = self.read_history.get(i);
            return (self.seg(which).addr_of(page, block), kind);
        }
        if self.odds.rbw_alloc.admits(u) {
            // Allocation stream: write sequentially through fresh
            // heap pages (zero-fill, write-first).
            let addr = self.heap.addr_of(self.alloc_page, self.alloc_block);
            self.alloc_block += 1;
            if self.alloc_block == BLOCKS_PER_PAGE {
                self.alloc_block = 0;
                // The finished page is fully written (dirty):
                // only now does it join the working sets, so
                // reads can never race its first write.
                self.heap.hot.promote(self.alloc_page);
                self.heap.write_hot.promote(self.alloc_page);
                self.alloc_page = self.heap.next_fresh();
            }
            return (addr, kind);
        }
        if rng.chance(self.odds.old_write) {
            // A touch-up write to file data (saving an edit):
            // file pages arrive by page-in, so the first
            // write of a residency is a *non-zero-fill*
            // necessary fault — the population Table 3.4's
            // models charge for.
            let page = rng.random_range(0..self.file.region.pages);
            let b1 = rng.random_range(0..BLOCKS_PER_PAGE);
            if rng.chance(self.odds.touch_up_read) {
                // Figure 3.1's scenario: read a second block
                // first (cached while clean), then write both.
                let b2 = (b1 + 1 + rng.random_range(0..8)) % BLOCKS_PER_PAGE;
                self.touch_ups = [(page, b2), (page, b1)];
                self.touch_ups_left = 2;
                return (self.file.addr_of(page, b2), AccessKind::Read);
            }
            return (self.file.addr_of(page, b1), kind);
        }
        // In-place update on the write-hot set.
        let which = self.pick_data_seg(rng);
        let burst = self.behavior.write_burst;
        let (page, block) = self.seg(which).write_step(rng, burst);
        self.write_history.push((page, which));
        (self.seg(which).addr_of(page, block), kind)
    }

    fn pick_data_seg(&mut self, rng: &mut SmallRng) -> Seg {
        if let Some(shared) = self.odds.shared {
            if rng.chance(shared) {
                return Seg::Shared;
            }
        }
        let u = rng.draw53();
        if self.odds.heap.admits(u) {
            Seg::Heap
        } else if self.odds.heap_stack.admits(u) {
            Seg::Stack
        } else {
            Seg::File
        }
    }
}

/// A deterministic reference-stream generator over a workload.
///
/// ```
/// use spur_trace::workloads::slc;
/// use spur_trace::TraceGenerator;
///
/// let workload = slc();
/// let mut gen = TraceGenerator::new(&workload, 42);
/// let first: Vec<_> = gen.by_ref().take(1000).collect();
/// assert_eq!(first.len(), 1000);
///
/// // Same seed, same stream:
/// let again: Vec<_> = TraceGenerator::new(&workload, 42).take(1000).collect();
/// assert_eq!(first, again);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    rng: SmallRng,
    procs: Vec<ProcState>,
    current: usize,
    quantum_left: u64,
    /// Where the current process's activation ends, cached when
    /// `schedule` picks it; 0 (nothing cached) after `current` changes
    /// or `schedule` returns `None`.
    active_end: u64,
    global_time: u64,
}

impl TraceGenerator {
    /// Creates a generator for `workload` with a deterministic `seed`.
    pub fn new(workload: &Workload, seed: u64) -> Self {
        let all: Vec<usize> = (0..workload.processes().len()).collect();
        Self::with_processes(workload, &all, seed)
    }

    /// Creates a generator running only the processes named by
    /// `indices` (indices into `workload.processes()`, in the order
    /// given). With every index present this is exactly
    /// [`TraceGenerator::new`] — a multiprocessor shard holding all
    /// processes degenerates to the uniprocessor stream.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or names a process out of range.
    pub fn with_processes(workload: &Workload, indices: &[usize], seed: u64) -> Self {
        assert!(
            !indices.is_empty(),
            "a generator needs at least one process"
        );
        let procs: Vec<ProcState> = indices
            .iter()
            .map(|&i| {
                assert!(
                    i < workload.processes().len(),
                    "process index {i} out of range"
                );
                ProcState::new(workload, i)
            })
            .collect();
        let quantum = QUANTUM * procs[0].weight as u64;
        TraceGenerator {
            rng: SmallRng::seed_from_u64(seed ^ 0x5f0e_a7c3_9b1d_2468),
            procs,
            current: 0,
            quantum_left: quantum,
            active_end: 0,
            global_time: 0,
        }
    }

    /// Total references generated so far.
    pub fn global_time(&self) -> u64 {
        self.global_time
    }

    /// Advances the scheduler to an active process; handles activations,
    /// restarts, and all-idle gaps.
    #[inline]
    fn schedule(&mut self) -> Option<usize> {
        // Steady state: the quantum has time left and the activation
        // has not ended, so the current process keeps running.
        if self.quantum_left != 0 && self.global_time < self.active_end {
            return Some(self.current);
        }
        self.reschedule()
    }

    /// A scheduling decision: rotate past expired quanta and idle
    /// processes, restart processes entering a new activation, and let
    /// time pass while everyone is idle (returning `None` after 64
    /// idle quanta).
    #[cold]
    fn reschedule(&mut self) -> Option<usize> {
        self.active_end = 0;
        let n = self.procs.len();
        for attempt in 0..n * 64 {
            let mut act = self.procs[self.current]
                .schedule
                .activation_at(self.global_time);
            if self.quantum_left == 0 || act.is_none() {
                self.current = (self.current + 1) % n;
                self.quantum_left = QUANTUM * self.procs[self.current].weight as u64;
                act = self.procs[self.current]
                    .schedule
                    .activation_at(self.global_time);
            }
            let p = &mut self.procs[self.current];
            match act {
                Some(a) => {
                    if p.instance != Some(a.instance) {
                        p.instance = Some(a.instance);
                        if a.instance > 0 {
                            p.restart(&mut self.rng);
                        }
                    }
                    self.active_end = a.end;
                    return Some(self.current);
                }
                None => {
                    p.instance = None;
                    // Everyone idle this instant? Let time pass.
                    if attempt % n == n - 1 {
                        self.global_time += QUANTUM;
                    }
                }
            }
        }
        None
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceRef;

    #[inline]
    fn next(&mut self) -> Option<TraceRef> {
        let idx = self.schedule()?;
        self.quantum_left -= 1;
        self.global_time += 1;
        let p = &mut self.procs[idx];
        let (addr, kind) = p.gen_ref(&mut self.rng);
        Some(TraceRef {
            pid: p.pid,
            addr,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{slc, workload1};

    #[test]
    fn determinism_across_generators() {
        let w = workload1();
        let a: Vec<_> = TraceGenerator::new(&w, 7).take(5_000).collect();
        let b: Vec<_> = TraceGenerator::new(&w, 7).take(5_000).collect();
        assert_eq!(a, b);
        let c: Vec<_> = TraceGenerator::new(&w, 8).take(5_000).collect();
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn addresses_stay_inside_registered_regions() {
        let w = slc();
        let regions = w.regions().to_vec();
        for r in TraceGenerator::new(&w, 1).take(50_000) {
            let vpn = r.addr.vpn();
            let inside = regions.iter().any(|reg| {
                vpn.index() >= reg.start.index() && vpn.index() < reg.start.index() + reg.pages
            });
            assert!(inside, "{} escaped all regions", r.addr);
        }
    }

    #[test]
    fn mix_fractions_are_respected() {
        let w = slc();
        let n = 200_000;
        let mut writes = 0u64;
        let mut ifetches = 0u64;
        for r in TraceGenerator::new(&w, 3).take(n) {
            match r.kind {
                AccessKind::Write => writes += 1,
                AccessKind::InstrFetch => ifetches += 1,
                AccessKind::Read => {}
            }
        }
        let wf = writes as f64 / n as f64;
        let inf = ifetches as f64 / n as f64;
        assert!((0.08..0.25).contains(&wf), "write fraction {wf}");
        assert!((0.35..0.65).contains(&inf), "ifetch fraction {inf}");
    }

    #[test]
    fn one_reference_bursts_count_down_without_wrapping() {
        // A zero-length burst would wrap its countdown: a panic in debug
        // builds, a 4-billion-reference burst in release. Run long
        // enough to start many bursts of both kinds.
        let w = crate::spec::parse_workload(
            "workload T\nprocess a\n  pages code=8 heap=32 stack=8 file=8\n  \
             tune read_burst=1 write_burst=1\n",
        )
        .unwrap();
        let mut writes = 0u64;
        for r in TraceGenerator::new(&w, 1).take(1_000_000) {
            writes += u64::from(r.kind == AccessKind::Write);
        }
        assert!(writes > 0, "write bursts started");
    }

    #[test]
    fn multiple_processes_appear() {
        use crate::process::{ProcessSpec, Schedule};
        let mut a = ProcessSpec::new("a", 16, 64, 8, 16);
        a.weight = 2;
        let b = ProcessSpec::new("b", 16, 64, 8, 16);
        let mut c = ProcessSpec::new("c", 16, 64, 8, 16);
        c.schedule = Schedule::Periodic {
            active: 50_000,
            idle: 50_000,
            offset: 0,
        };
        let w = Workload::build("multi", vec![a, b, c]).unwrap();
        let mut pids = std::collections::HashSet::new();
        for r in TraceGenerator::new(&w, 1).take(100_000) {
            pids.insert(r.pid);
        }
        assert_eq!(pids.len(), 3, "all three processes must run");
    }

    #[test]
    fn footprint_grows_over_time_as_phases_shift() {
        // The set of distinct pages touched keeps growing across phases —
        // the paging pressure the experiments rely on.
        use crate::process::ProcessSpec;
        let mut p = ProcessSpec::new("grower", 32, 2048, 8, 64);
        p.behavior.phase_len = 100_000;
        p.behavior.heap_hot_pages = 128;
        let w = Workload::build("grower", vec![p]).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut early = 0usize;
        for (i, r) in TraceGenerator::new(&w, 2).take(2_000_000).enumerate() {
            seen.insert(r.addr.vpn());
            if i == 150_000 {
                early = seen.len();
            }
        }
        assert!(
            seen.len() > early * 2,
            "footprint stalled: {} at 150k vs {} at 2M",
            early,
            seen.len()
        );
    }

    #[test]
    fn process_subset_keeps_pids_and_full_set_matches_new() {
        let w = crate::workloads::mp_workers(4, 64);
        let full: Vec<_> = TraceGenerator::new(&w, 9).take(20_000).collect();
        let all: Vec<usize> = (0..w.processes().len()).collect();
        let same: Vec<_> = TraceGenerator::with_processes(&w, &all, 9)
            .take(20_000)
            .collect();
        assert_eq!(full, same, "full subset must equal the plain generator");

        // A shard holding processes {1, 3} only ever issues their pids.
        let shard: Vec<_> = TraceGenerator::with_processes(&w, &[1, 3], 9)
            .take(20_000)
            .collect();
        assert!(shard.iter().all(|r| r.pid == Pid(1) || r.pid == Pid(3)));
        assert!(shard.iter().any(|r| r.pid == Pid(1)));
        assert!(shard.iter().any(|r| r.pid == Pid(3)));
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_subset_panics() {
        let w = slc();
        let _ = TraceGenerator::with_processes(&w, &[], 1);
    }

    #[test]
    fn global_time_advances() {
        let w = slc();
        let mut gen = TraceGenerator::new(&w, 1);
        let _ = gen.by_ref().take(100).count();
        assert!(gen.global_time() >= 100);
    }
}
