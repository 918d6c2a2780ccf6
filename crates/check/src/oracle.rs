//! The reference oracle: an independent re-implementation of the
//! dirty-bit and reference-bit state machines.
//!
//! The oracle consumes one [`TraceRef`] plus the spur-obs event delta
//! that reference produced, and checks the delta against what the
//! paper's transition tables say must happen. It keeps its own model
//! of:
//!
//! * **pages** — resident pages with software dirty/reference bits and
//!   the current PTE protection (protection-emulation policies start
//!   writable pages read-only and upgrade on the first write fault);
//! * **cache lines** — one direct-mapped image per CPU, each line
//!   carrying the block tag, the line's protection copy, SPUR's
//!   per-line `page dirty` hint, the block dirty bit, and whether the
//!   CPU owns the block exclusively (Berkeley ownership);
//! * **backing store** — which pages currently have a swap copy, which
//!   decides `PageIn` vs `ZeroFill` on fault and whether a reclaim
//!   writes (`PageOut` iff the page is dirty, *or* it is the forced
//!   first replacement of a zero-fill page — Sprite footnote 4);
//! * **wired page-table pages** — whose PTE blocks are fillable by
//!   in-cache translation.
//!
//! Event kinds and pages are verified in order; cycle timestamps and
//! costs are not (see the crate docs for why).

use std::collections::{HashMap, HashSet};

use spur_core::DirtyPolicy;
use spur_obs::{EventKind, SimEvent};
use spur_trace::stream::TraceRef;
use spur_types::{AccessKind, Protection, BLOCKS_PER_PAGE};
use spur_vm::policy::RefPolicy;
use spur_vm::region::PageKind;

/// The page-table global segment (PTEs live at segment 255; one 4-byte
/// PTE per page). Re-derived here rather than imported so the oracle
/// stays independent of `spur-mem`.
const PT_SEGMENT: u64 = 255;
const PTE_SIZE: u64 = 4;

/// The knobs the oracle mirrors. Everything else about the machine
/// (costs, watermarks, memory size) is irrelevant to *which* events
/// fire and is deliberately absent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OracleConfig {
    /// Dirty-bit mechanism under test.
    pub dirty: DirtyPolicy,
    /// Reference-bit policy under test.
    pub ref_policy: RefPolicy,
    /// Processor count (pid → cpu is `pid % cpus`).
    pub cpus: usize,
    /// Cache lines per CPU (direct-mapped).
    pub cache_lines: usize,
    /// Clear-only daemon pass every N references, if configured.
    pub daemon_period: Option<u64>,
    /// Whether reclaimed pages park on the free queue (soft faults).
    /// The oracle does not predict soft vs. hard faults (that depends
    /// on frame-level state it does not model); the flag only widens
    /// what it accepts.
    pub soft_faults: bool,
}

/// An intentional oracle defect, used to prove the checker catches
/// divergences (and that the fuzzer shrinks them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Under SPUR, pretend a stale cached line never needs its
    /// `page dirty` hint refreshed: the oracle stops expecting
    /// `DirtyBitMiss` events the real hardware takes.
    SkipSpurDirtyRefresh,
    /// Believe `PageOut` is unconditional on reclaim: the oracle
    /// demands a write-back even for clean pages — the exact claim the
    /// dirty bit exists to falsify.
    PageOutAlways,
}

impl Mutation {
    /// Parses a mutation name (for the fuzz binary's `--mutate` flag).
    pub fn parse(name: &str) -> Option<Mutation> {
        match name {
            "skip-spur-dirty-refresh" => Some(Mutation::SkipSpurDirtyRefresh),
            "pageout-always" => Some(Mutation::PageOutAlways),
            _ => None,
        }
    }
}

/// A mismatch between the oracle's prediction and the event tape.
#[derive(Debug, Clone)]
pub(crate) struct OracleError {
    /// What the oracle expected vs. what it saw.
    pub reason: String,
    /// Index into the per-reference event delta where the mismatch sits
    /// (== delta length when the tape ended early or ran long).
    pub at: usize,
}

#[derive(Debug, Clone, Copy)]
struct LineModel {
    block: u64,
    prot: Protection,
    page_dirty: bool,
    block_dirty: bool,
    exclusive: bool,
}

#[derive(Debug)]
struct CacheModel {
    lines: Vec<Option<LineModel>>,
    mask: u64,
}

impl CacheModel {
    fn new(lines: usize) -> Self {
        assert!(lines.is_power_of_two() && lines >= BLOCKS_PER_PAGE as usize);
        CacheModel {
            lines: vec![None; lines],
            mask: lines as u64 - 1,
        }
    }

    fn index(&self, block: u64) -> usize {
        (block & self.mask) as usize
    }

    fn get(&self, block: u64) -> Option<LineModel> {
        self.lines[self.index(block)].filter(|l| l.block == block)
    }

    fn get_mut(&mut self, block: u64) -> Option<&mut LineModel> {
        let idx = self.index(block);
        self.lines[idx].as_mut().filter(|l| l.block == block)
    }

    /// Fills `block`, silently displacing whatever held its line.
    fn fill(&mut self, block: u64, prot: Protection, page_dirty: bool, by_write: bool) {
        let idx = self.index(block);
        self.lines[idx] = Some(LineModel {
            block,
            prot,
            page_dirty,
            block_dirty: by_write,
            exclusive: by_write,
        });
    }

    /// Removes every block of `page` (tag-checked page flush).
    fn flush_page(&mut self, page: u64) {
        for slot in &mut self.lines {
            if slot.is_some_and(|l| l.block / BLOCKS_PER_PAGE == page) {
                *slot = None;
            }
        }
    }

    fn invalidate(&mut self, block: u64) {
        let idx = self.index(block);
        if self.lines[idx].is_some_and(|l| l.block == block) {
            self.lines[idx] = None;
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PageModel {
    dirty: bool,
    referenced: bool,
    prot: Protection,
}

/// A cursor over one reference's event delta.
struct Tape<'a> {
    events: &'a [SimEvent],
    pos: usize,
}

impl<'a> Tape<'a> {
    fn peek(&self) -> Option<&'a SimEvent> {
        self.events.get(self.pos)
    }

    fn take(&mut self) -> Option<&'a SimEvent> {
        let ev = self.events.get(self.pos);
        if ev.is_some() {
            self.pos += 1;
        }
        ev
    }

    fn err(&self, reason: impl Into<String>) -> OracleError {
        OracleError {
            reason: reason.into(),
            at: self.pos,
        }
    }

    /// Consumes one event that must be `(kind, page)`.
    fn expect(&mut self, kind: EventKind, page: u64) -> Result<(), OracleError> {
        match self.peek() {
            Some(ev) if ev.kind == kind && ev.page == page => {
                self.pos += 1;
                Ok(())
            }
            Some(ev) => Err(self.err(format!(
                "expected {kind:?} on page {page}, saw {:?} on page {}",
                ev.kind, ev.page
            ))),
            None => Err(self.err(format!(
                "expected {kind:?} on page {page}, but the event tape ended"
            ))),
        }
    }

    /// Consumes one event that must be `(kind, page)` **on** `cpu` —
    /// coherence events name the peer cache that reacted, and the
    /// oracle knows exactly which peer that must be.
    fn expect_on(&mut self, kind: EventKind, page: u64, cpu: u32) -> Result<(), OracleError> {
        match self.peek() {
            Some(ev) if ev.kind == kind && ev.page == page && ev.cpu == cpu => {
                self.pos += 1;
                Ok(())
            }
            Some(ev) => Err(self.err(format!(
                "expected {kind:?} on page {page} cpu{cpu}, saw {:?} on page {} cpu{}",
                ev.kind, ev.page, ev.cpu
            ))),
            None => Err(self.err(format!(
                "expected {kind:?} on page {page} cpu{cpu}, but the event tape ended"
            ))),
        }
    }
}

/// The independent state machine. Feed it every reference (in order)
/// with the event delta that reference produced.
#[derive(Debug)]
pub(crate) struct Oracle {
    cfg: OracleConfig,
    /// Registered regions: (first page index, page count, kind).
    regions: Vec<(u64, u64, PageKind)>,
    caches: Vec<CacheModel>,
    pages: HashMap<u64, PageModel>,
    wired_pt: HashSet<u64>,
    on_swap: HashSet<u64>,
    refs: u64,
    mutation: Option<Mutation>,
}

impl Oracle {
    /// Creates an oracle with an empty page map.
    pub(crate) fn new(cfg: OracleConfig) -> Self {
        assert!(cfg.cpus >= 1);
        Oracle {
            caches: (0..cfg.cpus)
                .map(|_| CacheModel::new(cfg.cache_lines))
                .collect(),
            cfg,
            regions: Vec::new(),
            pages: HashMap::new(),
            wired_pt: HashSet::new(),
            on_swap: HashSet::new(),
            refs: 0,
            mutation: None,
        }
    }

    /// Installs an intentional defect (testing the checker itself).
    pub(crate) fn with_mutation(mut self, mutation: Option<Mutation>) -> Self {
        self.mutation = mutation;
        self
    }

    /// Registers a region of `pages` pages starting at page index
    /// `start`.
    pub(crate) fn add_region(&mut self, start: u64, pages: u64, kind: PageKind) {
        self.regions.push((start, pages, kind));
    }

    fn kind_of(&self, page: u64) -> Option<PageKind> {
        self.regions
            .iter()
            .find(|(start, pages, _)| page >= *start && page < start + pages)
            .map(|(_, _, k)| *k)
    }

    /// Protection a page starts its residency with: the
    /// protection-emulation policies (FAULT, FLUSH) map writable pages
    /// to read-only so the first write traps; everything else gets the
    /// page's natural protection. Re-derived from the paper, not
    /// imported from the policy code under test.
    fn initial_prot(&self, kind: PageKind) -> Protection {
        if !kind.writable() {
            return Protection::ReadOnly;
        }
        match self.cfg.dirty {
            DirtyPolicy::Fault | DirtyPolicy::Flush => Protection::ReadOnly,
            _ => Protection::ReadWrite,
        }
    }

    fn pte_block_of(page: u64) -> u64 {
        // PTEs are 4 bytes in segment 255; 32-byte blocks ⇒ one PTE
        // block covers 8 neighboring pages.
        let pte_addr = (PT_SEGMENT << 30) | (page * PTE_SIZE);
        pte_addr >> 5
    }

    fn pte_page_of(page: u64) -> u64 {
        Self::pte_block_of(page) / BLOCKS_PER_PAGE
    }

    /// A one-line dump of the oracle's view of `page` (and the line
    /// holding `block` on `cpu`), for divergence reports.
    pub(crate) fn context(&self, cpu: usize, page: u64, block: u64) -> String {
        let pstate = match self.pages.get(&page) {
            Some(p) => format!(
                "resident dirty={} referenced={} prot={:?}",
                p.dirty, p.referenced, p.prot
            ),
            None => "not resident".to_string(),
        };
        let line = match self.caches[cpu].get(block) {
            Some(l) => format!(
                "cached prot={:?} page_dirty={} block_dirty={} exclusive={}",
                l.prot, l.page_dirty, l.block_dirty, l.exclusive
            ),
            None => "not cached".to_string(),
        };
        format!(
            "oracle: page {page} [{pstate}] kind={:?} on_swap={} | cpu{cpu} block {block} [{line}] | resident_pages={} refs={}",
            self.kind_of(page),
            self.on_swap.contains(&page),
            self.pages.len(),
            self.refs,
        )
    }

    /// Steps the oracle over one reference and its event delta.
    ///
    /// # Errors
    ///
    /// Returns the first point where the tape contradicts the model.
    pub(crate) fn step(&mut self, r: &TraceRef, events: &[SimEvent]) -> Result<(), OracleError> {
        self.refs += 1;
        let mut tape = Tape { events, pos: 0 };

        // A clear-only daemon pass fires first when the period divides
        // the (already incremented) reference count.
        if let Some(period) = self.cfg.daemon_period {
            if period > 0 && self.refs.is_multiple_of(period) {
                self.clear_pass(&mut tape)?;
            }
        }

        let cpu = r.pid.0 as usize % self.cfg.cpus;
        let page = r.addr.vpn().index();
        let block = r.addr.block().index();

        if self.caches[cpu].get(block).is_some() {
            // Cache hit: reads and fetches are silent; writes run the
            // dirty-bit fast path.
            if r.kind.is_write() {
                self.write_hit(cpu, block, page, &mut tape)?;
            }
        } else {
            self.miss(cpu, block, page, r.kind, &mut tape)?;
        }

        if let Some(ev) = tape.peek() {
            return Err(tape.err(format!(
                "event tape has {} unconsumed event(s), next is {:?} on page {}",
                events.len() - tape.pos,
                ev.kind,
                ev.page
            )));
        }
        Ok(())
    }

    // ----- miss path -------------------------------------------------

    fn miss(
        &mut self,
        cpu: usize,
        block: u64,
        page: u64,
        kind: AccessKind,
        tape: &mut Tape<'_>,
    ) -> Result<(), OracleError> {
        self.translate(cpu, page, tape)?;
        if !self.pages.contains_key(&page) {
            self.fault_in(page, tape)?;
            // The restarted reference translates again; the PTE block
            // may or may not still be cached.
            self.translate(cpu, page, tape)?;
        }

        // The reference bit is read for free on a miss; setting it
        // costs a software fault (never under NOREF).
        let referenced = self.pages[&page].referenced;
        if matches!(self.cfg.ref_policy, RefPolicy::Miss | RefPolicy::Ref) && !referenced {
            tape.expect(EventKind::RefFault, page)?;
            self.pages.get_mut(&page).expect("resident").referenced = true;
        }

        match kind {
            AccessKind::InstrFetch | AccessKind::Read => {
                self.snoop_read(cpu, block, page, tape)?;
                let p = self.pages[&page];
                self.caches[cpu].fill(block, p.prot, p.dirty, false);
            }
            AccessKind::Write => {
                self.snoop_invalidate(cpu, block, page, tape)?;
                self.write_miss(cpu, block, page, tape)?;
            }
        }

        let terminal = match kind {
            AccessKind::InstrFetch => EventKind::IFetchMiss,
            AccessKind::Read => EventKind::ReadMiss,
            AccessKind::Write => EventKind::WriteMiss,
        };
        tape.expect(terminal, page)
    }

    /// Mirrors in-cache translation: a cached PTE block is silent; a
    /// missed one costs `PteCacheMiss` + `SecondLevelFetch` and fills
    /// the PTE block only if its page-table page is wired.
    fn translate(&mut self, cpu: usize, page: u64, tape: &mut Tape<'_>) -> Result<(), OracleError> {
        let pte_block = Self::pte_block_of(page);
        if self.caches[cpu].get(pte_block).is_some() {
            return Ok(());
        }
        tape.expect(EventKind::PteCacheMiss, page)?;
        tape.expect(EventKind::SecondLevelFetch, page)?;
        if self.wired_pt.contains(&Self::pte_page_of(page)) {
            // Page-table data is kernel read-write, marked page-dirty so
            // it never trips the dirty-bit machinery.
            self.caches[cpu].fill(pte_block, Protection::ReadWrite, true, false);
        }
        Ok(())
    }

    /// Consumes a fault-in: optional daemon sweeping, then exactly one
    /// of `SoftFault` / `PageIn` / `ZeroFill` for the faulting page.
    fn fault_in(&mut self, page: u64, tape: &mut Tape<'_>) -> Result<(), OracleError> {
        let kind = self
            .kind_of(page)
            .ok_or_else(|| tape.err(format!("fault on page {page} outside every region")))?;
        loop {
            match tape.peek() {
                Some(ev) if ev.kind == EventKind::DaemonScan => {
                    self.sweep_visit(tape)?;
                }
                Some(ev) if ev.kind == EventKind::SoftFault && ev.page == page => {
                    if !self.cfg.soft_faults {
                        return Err(tape.err(format!(
                            "SoftFault on page {page} with soft faults disabled"
                        )));
                    }
                    tape.take();
                    break;
                }
                Some(ev)
                    if (ev.kind == EventKind::PageIn || ev.kind == EventKind::ZeroFill)
                        && ev.page == page =>
                {
                    // PageIn vs ZeroFill is exactly predictable: file-backed
                    // kinds always read; zero-fill kinds read only once a
                    // swap copy exists.
                    let reads = !kind.zero_fill() || self.on_swap.contains(&page);
                    let want = if reads {
                        EventKind::PageIn
                    } else {
                        EventKind::ZeroFill
                    };
                    tape.expect(want, page)?;
                    break;
                }
                Some(ev) => {
                    let reason = format!(
                        "faulting page {page}: expected daemon/fault-in events, \
                         saw {:?} on page {}",
                        ev.kind, ev.page
                    );
                    return Err(tape.err(reason));
                }
                None => {
                    return Err(tape.err(format!(
                        "faulting page {page}: event tape ended before the page came in"
                    )))
                }
            }
        }
        // Residency starts clean, referenced, at the policy's initial
        // protection; its page-table page is wired from here on.
        self.pages.insert(
            page,
            PageModel {
                dirty: false,
                referenced: true,
                prot: self.initial_prot(kind),
            },
        );
        self.wired_pt.insert(Self::pte_page_of(page));
        Ok(())
    }

    // ----- daemon ----------------------------------------------------

    /// One `DaemonScan` inside a pressure sweep: a referenced page (per
    /// the policy's read) gets a second chance, everything else is
    /// reclaimed.
    fn sweep_visit(&mut self, tape: &mut Tape<'_>) -> Result<(), OracleError> {
        let ev = tape.take().expect("caller peeked DaemonScan");
        let page = ev.page;
        let Some(state) = self.pages.get_mut(&page) else {
            return Err(tape.err(format!("daemon scanned non-resident page {page}")));
        };
        let survives = match self.cfg.ref_policy {
            RefPolicy::Noref => false,
            RefPolicy::Miss | RefPolicy::Ref => state.referenced,
        };
        if survives {
            state.referenced = false;
            if self.cfg.ref_policy == RefPolicy::Ref {
                // REF pairs every clear with a page flush.
                tape.expect(EventKind::PageFlush, page)?;
                for cache in &mut self.caches {
                    cache.flush_page(page);
                }
            }
            return Ok(());
        }
        self.reclaim(page, tape)
    }

    /// A reclaim: mandatory flush from every cache, a write-back iff
    /// the dirty bit (or the forced zero-fill first replacement) says
    /// so, and the page leaves residency.
    fn reclaim(&mut self, page: u64, tape: &mut Tape<'_>) -> Result<(), OracleError> {
        tape.expect(EventKind::PageFlush, page)?;
        for cache in &mut self.caches {
            cache.flush_page(page);
        }
        let kind = self
            .kind_of(page)
            .ok_or_else(|| tape.err(format!("reclaimed page {page} outside every region")))?;
        let dirty = self.pages[&page].dirty;
        let mut wrote =
            kind.writable() && (dirty || (kind.zero_fill() && !self.on_swap.contains(&page)));
        if self.mutation == Some(Mutation::PageOutAlways) {
            wrote = kind.writable();
        }
        if wrote {
            tape.expect(EventKind::PageOut, page)?;
            self.on_swap.insert(page);
        } else if tape
            .peek()
            .is_some_and(|ev| ev.kind == EventKind::PageOut && ev.page == page)
        {
            // The paper's core claim, checked explicitly: a clean page
            // must not be written back.
            return Err(tape.err(format!(
                "PageOut of page {page}, which the oracle holds clean (dirty bit clear, {})",
                if self.on_swap.contains(&page) {
                    "swap copy present"
                } else {
                    "non-zero-fill kind"
                }
            )));
        }
        self.pages.remove(&page);
        Ok(())
    }

    /// A clear-only daemon pass: every resident page is scanned once;
    /// nothing is reclaimed.
    fn clear_pass(&mut self, tape: &mut Tape<'_>) -> Result<(), OracleError> {
        for _ in 0..self.pages.len() {
            let Some(ev) = tape.peek() else {
                return Err(tape.err(format!(
                    "clear pass must scan all {} resident pages, tape ended early",
                    self.pages.len()
                )));
            };
            if ev.kind != EventKind::DaemonScan {
                return Err(tape.err(format!(
                    "clear pass expected DaemonScan, saw {:?} on page {}",
                    ev.kind, ev.page
                )));
            }
            let page = ev.page;
            tape.take();
            let Some(state) = self.pages.get_mut(&page) else {
                return Err(tape.err(format!("clear pass scanned non-resident page {page}")));
            };
            let referenced = match self.cfg.ref_policy {
                RefPolicy::Noref => false,
                RefPolicy::Miss | RefPolicy::Ref => state.referenced,
            };
            if referenced {
                state.referenced = false;
                if self.cfg.ref_policy == RefPolicy::Ref {
                    tape.expect(EventKind::PageFlush, page)?;
                    for cache in &mut self.caches {
                        cache.flush_page(page);
                    }
                }
            }
        }
        Ok(())
    }

    // ----- coherency -------------------------------------------------

    /// A write's invalidating snoop: every peer copy dies, and the real
    /// system must have emitted one `CoherenceInvalidate` per peer that
    /// held the block, in ascending CPU order. Silent on a uniprocessor
    /// (the real system never puts the transaction on the bus).
    fn snoop_invalidate(
        &mut self,
        cpu: usize,
        block: u64,
        page: u64,
        tape: &mut Tape<'_>,
    ) -> Result<(), OracleError> {
        if self.cfg.cpus == 1 {
            return Ok(());
        }
        for i in 0..self.caches.len() {
            if i == cpu {
                continue;
            }
            if self.caches[i].get(block).is_some() {
                self.caches[i].invalidate(block);
                tape.expect_on(EventKind::CoherenceInvalidate, page, i as u32)?;
            }
        }
        Ok(())
    }

    /// A read's snoop: an owning peer supplies the data and downgrades
    /// to shared ownership, announced as one `OwnershipTransfer` per
    /// owner. Ownership is exactly "holds the block dirty" (Berkeley:
    /// only modified blocks are owned), which is why `block_dirty` is
    /// the predicate here.
    fn snoop_read(
        &mut self,
        cpu: usize,
        block: u64,
        page: u64,
        tape: &mut Tape<'_>,
    ) -> Result<(), OracleError> {
        if self.cfg.cpus == 1 {
            return Ok(());
        }
        for i in 0..self.caches.len() {
            if i == cpu {
                continue;
            }
            if let Some(line) = self.caches[i].get_mut(block) {
                if line.block_dirty {
                    line.exclusive = false;
                    tape.expect_on(EventKind::OwnershipTransfer, page, i as u32)?;
                }
            }
        }
        Ok(())
    }

    // ----- dirty-bit machines ---------------------------------------

    /// The write-fault on a page whose hardware would set a dirty bit:
    /// `DirtyFault` for writable pages (the handler sets the software
    /// bit), `ProtFault` for a true violation (the write aborts).
    /// Returns whether the write proceeds.
    fn necessary_fault(&mut self, page: u64, tape: &mut Tape<'_>) -> Result<bool, OracleError> {
        let kind = self
            .kind_of(page)
            .ok_or_else(|| tape.err(format!("write fault on page {page} outside every region")))?;
        if !kind.writable() {
            tape.expect(EventKind::ProtFault, page)?;
            return Ok(false);
        }
        tape.expect(EventKind::DirtyFault, page)?;
        self.pages.get_mut(&page).expect("resident").dirty = true;
        Ok(true)
    }

    /// The protection-emulation fault (FAULT/FLUSH): like a necessary
    /// fault, but the handler also upgrades the PTE to read-write.
    fn emulation_fault(&mut self, page: u64, tape: &mut Tape<'_>) -> Result<bool, OracleError> {
        if !self.necessary_fault(page, tape)? {
            return Ok(false);
        }
        self.pages.get_mut(&page).expect("resident").prot = Protection::ReadWrite;
        Ok(true)
    }

    fn write_hit(
        &mut self,
        cpu: usize,
        block: u64,
        page: u64,
        tape: &mut Tape<'_>,
    ) -> Result<(), OracleError> {
        let line = self.caches[cpu].get(block).expect("caller probed a hit");
        if !line.exclusive {
            self.snoop_invalidate(cpu, block, page, tape)?;
        }

        match self.cfg.dirty {
            DirtyPolicy::Min => {
                if !self.pages[&page].dirty && !self.necessary_fault(page, tape)? {
                    return Ok(());
                }
            }
            DirtyPolicy::Spur => {
                if !line.page_dirty {
                    if self.pages[&page].dirty {
                        // A stale cached copy: the hardware refreshes the
                        // per-line hint with a dirty-bit miss.
                        if self.mutation != Some(Mutation::SkipSpurDirtyRefresh) {
                            tape.expect(EventKind::DirtyBitMiss, page)?;
                        }
                    } else if !self.necessary_fault(page, tape)? {
                        return Ok(());
                    }
                    self.caches[cpu].get_mut(block).expect("hit").page_dirty = true;
                }
            }
            DirtyPolicy::Fault => {
                if !line.prot.permits(AccessKind::Write) {
                    if self.pages[&page].prot.permits(AccessKind::Write) {
                        // The PTE was upgraded by a fault on another block
                        // of this page: an excess fault.
                        tape.expect(EventKind::ExcessFault, page)?;
                        let prot = self.pages[&page].prot;
                        self.caches[cpu].get_mut(block).expect("hit").prot = prot;
                    } else if self.emulation_fault(page, tape)? {
                        self.caches[cpu].get_mut(block).expect("hit").prot = Protection::ReadWrite;
                    } else {
                        return Ok(());
                    }
                }
            }
            DirtyPolicy::Flush => {
                if !line.prot.permits(AccessKind::Write) {
                    if self.pages[&page].prot.permits(AccessKind::Write) {
                        tape.expect(EventKind::ExcessFault, page)?;
                        let prot = self.pages[&page].prot;
                        self.caches[cpu].get_mut(block).expect("hit").prot = prot;
                    } else {
                        if !self.emulation_fault(page, tape)? {
                            return Ok(());
                        }
                        // The flush removes every stale line of the page
                        // from *this* cache — our own line included, so it
                        // is refilled for the write.
                        tape.expect(EventKind::PageFlush, page)?;
                        self.caches[cpu].flush_page(page);
                        self.caches[cpu].fill(block, Protection::ReadWrite, true, true);
                        return Ok(());
                    }
                }
            }
            DirtyPolicy::Write => {
                if !line.block_dirty
                    && !self.pages[&page].dirty
                    && !self.necessary_fault(page, tape)?
                {
                    return Ok(());
                }
            }
        }

        let line = self.caches[cpu].get_mut(block).expect("hit");
        line.block_dirty = true;
        line.exclusive = true;
        Ok(())
    }

    fn write_miss(
        &mut self,
        cpu: usize,
        block: u64,
        page: u64,
        tape: &mut Tape<'_>,
    ) -> Result<(), OracleError> {
        match self.cfg.dirty {
            DirtyPolicy::Min | DirtyPolicy::Write | DirtyPolicy::Spur => {
                if !self.pages[&page].dirty && !self.necessary_fault(page, tape)? {
                    // A true protection violation: the write aborts and
                    // nothing is filled.
                    return Ok(());
                }
                let prot = self.pages[&page].prot;
                self.caches[cpu].fill(block, prot, true, true);
            }
            DirtyPolicy::Fault | DirtyPolicy::Flush => {
                if !self.pages[&page].prot.permits(AccessKind::Write) {
                    if !self.emulation_fault(page, tape)? {
                        return Ok(());
                    }
                    if self.cfg.dirty == DirtyPolicy::Flush {
                        tape.expect(EventKind::PageFlush, page)?;
                        self.caches[cpu].flush_page(page);
                    }
                }
                self.caches[cpu].fill(block, Protection::ReadWrite, true, true);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_trace::stream::Pid;
    use spur_types::GlobalAddr;

    fn cfg(dirty: DirtyPolicy) -> OracleConfig {
        OracleConfig {
            dirty,
            ref_policy: RefPolicy::Miss,
            cpus: 1,
            cache_lines: 4096,
            daemon_period: None,
            soft_faults: true,
        }
    }

    fn wref(page: u64, block_in_page: u64) -> TraceRef {
        TraceRef {
            pid: Pid(0),
            addr: GlobalAddr::new(page * 4096 + block_in_page * 32),
            kind: AccessKind::Write,
        }
    }

    fn ev(kind: EventKind, page: u64) -> SimEvent {
        SimEvent {
            kind,
            cycle: 0,
            page,
            cost: 0,
            cpu: 0,
        }
    }

    #[test]
    fn a_clean_heap_write_miss_needs_translate_fault_dirty_and_terminal() {
        let mut o = Oracle::new(cfg(DirtyPolicy::Min));
        o.add_region(100, 8, PageKind::Heap);
        let events = [
            ev(EventKind::PteCacheMiss, 100),
            ev(EventKind::SecondLevelFetch, 100),
            ev(EventKind::ZeroFill, 100),
            ev(EventKind::PteCacheMiss, 100),
            ev(EventKind::SecondLevelFetch, 100),
            ev(EventKind::DirtyFault, 100),
            ev(EventKind::WriteMiss, 100),
        ];
        o.step(&wref(100, 0), &events).unwrap();
        // A second write to the same block is a silent hit (block
        // already dirty, MIN checks the now-set PTE bit).
        o.step(&wref(100, 0), &[]).unwrap();
    }

    #[test]
    fn a_missing_dirty_fault_is_flagged_at_the_right_position() {
        let mut o = Oracle::new(cfg(DirtyPolicy::Min));
        o.add_region(100, 8, PageKind::Heap);
        let events = [
            ev(EventKind::PteCacheMiss, 100),
            ev(EventKind::SecondLevelFetch, 100),
            ev(EventKind::ZeroFill, 100),
            ev(EventKind::PteCacheMiss, 100),
            ev(EventKind::SecondLevelFetch, 100),
            // DirtyFault missing.
            ev(EventKind::WriteMiss, 100),
        ];
        let err = o.step(&wref(100, 0), &events).unwrap_err();
        assert!(err.reason.contains("DirtyFault"), "{}", err.reason);
        assert_eq!(err.at, 5);
    }

    #[test]
    fn writing_code_aborts_with_a_prot_fault_and_no_fill() {
        let mut o = Oracle::new(cfg(DirtyPolicy::Min));
        o.add_region(100, 8, PageKind::Code);
        let events = [
            ev(EventKind::PteCacheMiss, 100),
            ev(EventKind::SecondLevelFetch, 100),
            ev(EventKind::PageIn, 100), // code is file-backed
            ev(EventKind::PteCacheMiss, 100),
            ev(EventKind::SecondLevelFetch, 100),
            ev(EventKind::ProtFault, 100),
            ev(EventKind::WriteMiss, 100),
        ];
        o.step(&wref(100, 0), &events).unwrap();
        // The aborted write filled nothing: the next write misses again
        // (PTE block is cached now, the page is resident).
        let events2 = [ev(EventKind::ProtFault, 100), ev(EventKind::WriteMiss, 100)];
        o.step(&wref(100, 0), &events2).unwrap();
    }

    #[test]
    fn spur_refresh_mutation_rejects_the_dirty_bit_miss() {
        let build = |mutation| {
            let mut o = Oracle::new(cfg(DirtyPolicy::Spur)).with_mutation(mutation);
            o.add_region(100, 8, PageKind::Heap);
            // Read block 1 (line caches page_dirty=false), then write
            // block 0 (DirtyFault sets the PTE bit), then write block 1:
            // its line's hint is stale ⇒ DirtyBitMiss.
            let rread = TraceRef {
                pid: Pid(0),
                addr: GlobalAddr::new(100 * 4096 + 32),
                kind: AccessKind::Read,
            };
            o.step(
                &rread,
                &[
                    ev(EventKind::PteCacheMiss, 100),
                    ev(EventKind::SecondLevelFetch, 100),
                    ev(EventKind::ZeroFill, 100),
                    ev(EventKind::PteCacheMiss, 100),
                    ev(EventKind::SecondLevelFetch, 100),
                    ev(EventKind::ReadMiss, 100),
                ],
            )
            .unwrap();
            o.step(
                &wref(100, 0),
                &[
                    ev(EventKind::DirtyFault, 100),
                    ev(EventKind::WriteMiss, 100),
                ],
            )
            .unwrap();
            o.step(&wref(100, 1), &[ev(EventKind::DirtyBitMiss, 100)])
        };
        build(None).unwrap();
        let err = build(Some(Mutation::SkipSpurDirtyRefresh)).unwrap_err();
        assert!(err.reason.contains("unconsumed"), "{}", err.reason);
    }
}
