//! A scripted-scenario harness for demos and regression tests.
//!
//! The paper's figures are tiny scripts ("two blocks from Page A were
//! brought into the cache while the page protection was read-only...").
//! [`Scenario`] lets those scripts be written as chains of reads and
//! writes against a single small process, with fault-count assertions in
//! between — used by the `fig_3_1`/`fig_miss_pathology` regenerators and
//! by unit tests of tricky policy interleavings.

use spur_cache::counters::CounterEvent;
use spur_trace::process::ProcessSpec;
use spur_trace::stream::{Pid, TraceRef};
use spur_trace::workloads::Workload;
use spur_types::{AccessKind, MemSize, Result, Vpn};
use spur_vm::policy::RefPolicy;

use crate::dirty::DirtyPolicy;
use crate::system::{SimConfig, SpurSystem};

/// A one-process micro-world for scripting references by page and block.
///
/// ```
/// use spur_core::dirty::DirtyPolicy;
/// use spur_core::testkit::Scenario;
/// use spur_cache::counters::CounterEvent;
///
/// // Figure 3.1 in five lines:
/// let mut s = Scenario::new(DirtyPolicy::Fault).unwrap();
/// s.read(0, 0).read(0, 1);        // two blocks cached read-only
/// s.write(0, 0);                   // necessary fault, PTE upgraded
/// s.write(0, 1);                   // stale line: excess fault
/// assert_eq!(s.count(CounterEvent::DirtyFault), 1);
/// assert_eq!(s.count(CounterEvent::ExcessFault), 1);
/// ```
#[derive(Debug)]
pub struct Scenario {
    sim: SpurSystem,
    heap_start: Vpn,
    heap_pages: u64,
}

/// The micro-world's one process: 8 code, 64 heap, 8 stack and 8 file
/// pages.
fn script() -> Result<Workload> {
    Workload::build("scenario", vec![ProcessSpec::new("script", 8, 64, 8, 8)])
}

impl Scenario {
    /// Builds a 2 MB machine with a 64-page heap under `dirty`, using the
    /// `MISS` reference policy.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(dirty: DirtyPolicy) -> Result<Self> {
        Self::with_policies(dirty, RefPolicy::Miss)
    }

    /// Builds the micro-world with both policies chosen.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub(crate) fn with_policies(dirty: DirtyPolicy, ref_policy: RefPolicy) -> Result<Self> {
        let workload = script()?;
        let heap = workload.proc_regions(0).heap;
        let mut sim = SpurSystem::new(SimConfig {
            mem: MemSize::new(2),
            kernel_reserved_frames: 64,
            dirty,
            ref_policy,
            ..SimConfig::default()
        })?;
        sim.load_workload(&workload)?;
        Ok(Scenario {
            sim,
            heap_start: heap.start,
            heap_pages: heap.pages,
        })
    }

    fn issue(&mut self, page: u64, block: u64, kind: AccessKind) -> &mut Self {
        assert!(page < self.heap_pages, "scenario heap has 64 pages");
        let addr = self.heap_start.offset(page).block(block).base_addr();
        self.sim
            .reference(TraceRef {
                pid: Pid(0),
                addr,
                kind,
            })
            .expect("scripted reference stays in the heap region");
        self
    }

    /// Reads block `block` of heap page `page`.
    pub fn read(&mut self, page: u64, block: u64) -> &mut Self {
        self.issue(page, block, AccessKind::Read)
    }

    /// Writes block `block` of heap page `page`.
    pub fn write(&mut self, page: u64, block: u64) -> &mut Self {
        self.issue(page, block, AccessKind::Write)
    }

    /// Fetches an instruction from... the heap is all this world has, so
    /// scripted ifetches also target heap blocks (protection permits it).
    pub fn ifetch(&mut self, page: u64, block: u64) -> &mut Self {
        self.issue(page, block, AccessKind::InstrFetch)
    }

    /// Total occurrences of `event` so far.
    pub fn count(&self, event: CounterEvent) -> u64 {
        self.sim.counters().total(event)
    }

    /// The heap page `page`'s VPN.
    pub fn page(&self, page: u64) -> Vpn {
        self.heap_start.offset(page)
    }

    /// The underlying simulator, for ad-hoc inspection.
    pub fn sim(&self) -> &SpurSystem {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// References block `block` of the script's code region. A write is
    /// a true protection violation, which every policy must turn into a
    /// `ProtFault` and abort.
    fn code_ref(s: &mut Scenario, block: u64, kind: AccessKind) {
        let addr = script()
            .unwrap()
            .proc_regions(0)
            .code
            .start
            .block(block)
            .base_addr();
        s.sim
            .reference(TraceRef {
                pid: Pid(0),
                addr,
                kind,
            })
            .expect("the violation is modeled, not an API error");
    }

    #[test]
    fn figure_3_1_script() {
        let mut s = Scenario::new(DirtyPolicy::Fault).unwrap();
        s.read(0, 0).read(0, 1);
        assert_eq!(s.count(CounterEvent::DirtyFault), 0);
        s.write(0, 0);
        assert_eq!(s.count(CounterEvent::DirtyFault), 1);
        assert_eq!(s.count(CounterEvent::ExcessFault), 0);
        s.write(0, 1);
        assert_eq!(s.count(CounterEvent::ExcessFault), 1, "the stale block");
        s.write(0, 1);
        assert_eq!(s.count(CounterEvent::ExcessFault), 1, "only once per block");
    }

    #[test]
    fn same_script_under_spur_gives_dirty_misses_instead() {
        let mut s = Scenario::new(DirtyPolicy::Spur).unwrap();
        s.read(0, 0).read(0, 1).write(0, 0).write(0, 1);
        assert_eq!(s.count(CounterEvent::DirtyFault), 1);
        assert_eq!(s.count(CounterEvent::ExcessFault), 0);
        assert_eq!(s.count(CounterEvent::DirtyBitMiss), 1);
    }

    #[test]
    fn flush_policy_pays_a_page_flush_instead_of_excess() {
        let mut s = Scenario::new(DirtyPolicy::Flush).unwrap();
        s.read(0, 0).read(0, 1).write(0, 0);
        assert_eq!(s.count(CounterEvent::PageFlush), 1);
        s.write(0, 1);
        assert_eq!(s.count(CounterEvent::ExcessFault), 0);
        // The flushed block re-misses instead.
        assert!(s.count(CounterEvent::WriteMiss) >= 1);
    }

    #[test]
    fn write_policy_checks_each_block_once() {
        let mut s = Scenario::new(DirtyPolicy::Write).unwrap();
        s.write(0, 0); // write miss: PTE in hand, fault, no t_dc event
        s.read(0, 1); // read-fill a second block
        s.write(0, 1); // first write to that block: t_dc check, no fault
        s.write(0, 1); // block already dirty: nothing
        assert_eq!(s.count(CounterEvent::DirtyFault), 1);
        assert_eq!(s.count(CounterEvent::ExcessFault), 0);
    }

    #[test]
    fn daemon_clear_plus_cached_hits_leave_r_clear_under_miss() {
        let mut s = Scenario::new(DirtyPolicy::Spur).unwrap();
        s.read(3, 0).read(3, 1);
        assert!(s.sim().vm().pte(s.page(3)).referenced());
        s.sim.daemon_clear_pass();
        assert!(!s.sim().vm().pte(s.page(3)).referenced());
        // Cached hits never set R back — the MISS approximation.
        s.read(3, 0).read(3, 1).read(3, 0);
        assert!(!s.sim().vm().pte(s.page(3)).referenced());
        // A miss (new block) does.
        s.read(3, 2);
        assert!(s.sim().vm().pte(s.page(3)).referenced());
        assert_eq!(s.count(CounterEvent::RefFault), 1);
    }

    #[test]
    fn writing_code_is_a_protection_fault_under_every_policy() {
        for dirty in DirtyPolicy::ALL {
            let mut s = Scenario::new(dirty).unwrap();
            // Fault the code page in cleanly first, then violate it.
            code_ref(&mut s, 0, AccessKind::Read);
            code_ref(&mut s, 0, AccessKind::Write);
            assert_eq!(
                s.count(CounterEvent::ProtFault),
                1,
                "{dirty}: a code write must prot-fault"
            );
            assert_eq!(
                s.count(CounterEvent::DirtyFault),
                0,
                "{dirty}: a violation is not a dirty fault"
            );
            // The aborted write must not have dirtied anything.
            let vpn = s.sim().vm().pte(s.page(0));
            let _ = vpn;
            code_ref(&mut s, 5, AccessKind::Write); // a write MISS to code prot-faults too
            assert_eq!(s.count(CounterEvent::ProtFault), 2, "{dirty}");
        }
    }

    #[test]
    #[should_panic(expected = "64 pages")]
    fn out_of_world_pages_panic() {
        let mut s = Scenario::new(DirtyPolicy::Min).unwrap();
        s.read(64, 0);
    }
}
