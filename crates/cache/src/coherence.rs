//! The Berkeley Ownership cache-coherency protocol (Katz et al.,
//! ISCA 1985) on a snooping bus.
//!
//! The SPUR prototype implements this protocol in its cache controller;
//! the paper's measurements were taken on a uniprocessor system, but the
//! protocol machinery is present and its states occupy two bits of every
//! cache line (the `CS` field of Figure 3.2(b)). We implement the full
//! multiprocessor protocol so that (a) the line format is complete and
//! (b) the `REF` policy's "flush the page from **all** the caches" cost
//! discussion can be exercised in tests.
//!
//! States:
//!
//! * `Invalid` — no data.
//! * `UnOwned` — valid, clean, possibly shared; memory is up to date.
//! * `OwnedExclusive` — dirty, the only cached copy; this cache must
//!   supply data and write back.
//! * `OwnedShared` — dirty but other clean copies exist; this cache is
//!   still responsible for the data.
//!
//! Ownership (the responsibility to supply data and eventually write back)
//! moves with write activity; invalidation happens on writes by others.

use core::fmt;

use spur_types::{BlockNum, Protection};

use crate::cache::VirtualCache;

/// The two-bit coherency state of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoherencyState {
    /// No valid data.
    #[default]
    Invalid,
    /// Valid, clean, possibly shared.
    UnOwned,
    /// Dirty and exclusively held: writes may proceed without bus traffic.
    OwnedExclusive,
    /// Dirty but shared: a write must invalidate other copies first.
    OwnedShared,
}

impl CoherencyState {
    /// Encodes the state into the two `CS` bits.
    pub(crate) const fn bits(self) -> u8 {
        match self {
            CoherencyState::Invalid => 0,
            CoherencyState::UnOwned => 1,
            CoherencyState::OwnedExclusive => 2,
            CoherencyState::OwnedShared => 3,
        }
    }

    /// Is this cache the owner (responsible for supplying data)?
    pub const fn is_owner(self) -> bool {
        matches!(
            self,
            CoherencyState::OwnedExclusive | CoherencyState::OwnedShared
        )
    }
}

impl fmt::Display for CoherencyState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CoherencyState::Invalid => "INV",
            CoherencyState::UnOwned => "UNO",
            CoherencyState::OwnedExclusive => "OWN-X",
            CoherencyState::OwnedShared => "OWN-S",
        };
        f.write_str(s)
    }
}

/// A snoop message delivered to one cache when a peer's transaction
/// appears on the bus.
///
/// This is the coherence interface a cache exposes to *any* interconnect
/// — the toy [`Bus`] here and the full `spur-mp` system both drive their
/// peers' caches through [`VirtualCache::snoop`] rather than reaching
/// into lines directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceMsg {
    /// A peer issued a read for a shared copy: an owner must supply the
    /// data and downgrade to [`CoherencyState::OwnedShared`].
    ReadShared(BlockNum),
    /// A peer issued a read with intent to modify: any copy must be
    /// invalidated; an owner supplies the data on the way out.
    ReadForOwnership(BlockNum),
    /// A peer already holding the block issued a write for
    /// invalidation: any copy must be invalidated.
    WriteForInvalidation(BlockNum),
}

impl CoherenceMsg {
    /// The block the message is about.
    pub(crate) fn block(self) -> BlockNum {
        match self {
            CoherenceMsg::ReadShared(b)
            | CoherenceMsg::ReadForOwnership(b)
            | CoherenceMsg::WriteForInvalidation(b) => b,
        }
    }
}

/// What a cache did in response to a snooped [`CoherenceMsg`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnoopResponse {
    /// The cache held the block at all (its tag matched). `false`
    /// means the snoop was a complete no-op — the signal a snoop
    /// filter uses to retire a stale presence bit.
    pub matched: bool,
    /// The cache owned the block and supplied the data (instead of
    /// memory).
    pub supplied: bool,
    /// The cache invalidated its copy.
    pub invalidated: bool,
}

impl VirtualCache {
    /// Applies one snooped coherence message, returning what this cache
    /// did. A cache not holding the block does nothing.
    ///
    /// Invalidation through this interface never writes back: under
    /// Berkeley ownership the requester receives the owner's data with
    /// the transaction itself, so the dirty copy leaves the cache on
    /// the bus, not through memory.
    pub fn snoop(&mut self, msg: CoherenceMsg) -> SnoopResponse {
        let mut resp = SnoopResponse::default();
        let Some(idx) = self.find(msg.block()) else {
            return resp;
        };
        resp.matched = true;
        let line = self.line_mut(idx);
        match msg {
            CoherenceMsg::ReadShared(_) => {
                if line.state.is_owner() {
                    line.state = CoherencyState::OwnedShared;
                    resp.supplied = true;
                }
            }
            CoherenceMsg::ReadForOwnership(_) => {
                resp.supplied = line.state.is_owner();
                line.valid = false;
                line.state = CoherencyState::Invalid;
                resp.invalidated = true;
            }
            CoherenceMsg::WriteForInvalidation(_) => {
                line.valid = false;
                line.state = CoherencyState::Invalid;
                resp.invalidated = true;
            }
        }
        resp
    }
}

/// Per-bus traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Count of read-shared transactions.
    pub read_shared: u64,
    /// Count of read-for-ownership transactions.
    pub read_for_ownership: u64,
    /// Count of write-for-invalidation transactions.
    pub write_for_invalidation: u64,
    /// Count of write-back transactions (eviction or flush).
    pub write_backs: u64,
    /// Times an owning cache supplied data instead of memory.
    pub owner_supplies: u64,
    /// Lines invalidated by snooping.
    pub invalidations: u64,
}

impl BusStats {
    /// Total bus transactions.
    pub fn total(&self) -> u64 {
        self.read_shared + self.read_for_ownership + self.write_for_invalidation + self.write_backs
    }
}

/// A snooping bus connecting several virtual-address caches.
///
/// The bus owns the caches; processors are addressed by index. All four
/// Berkeley state transitions are centralized here so the invariants
/// (single owner, no stale sharing of dirty data) are easy to audit and
/// property-test.
///
/// ```
/// use spur_cache::coherence::{Bus, CoherencyState};
/// use spur_types::{GlobalAddr, Protection};
///
/// let mut bus = Bus::new(2);
/// let a = GlobalAddr::new(0x1000);
/// bus.processor_read(0, a, Protection::ReadWrite, false);
/// bus.processor_write(1, a, Protection::ReadWrite, false);
/// // CPU 1 now owns the block exclusively; CPU 0's copy is invalid.
/// assert_eq!(bus.line_state(1, a), CoherencyState::OwnedExclusive);
/// assert_eq!(bus.line_state(0, a), CoherencyState::Invalid);
/// ```
#[derive(Debug)]
pub struct Bus {
    caches: Vec<VirtualCache>,
    stats: BusStats,
}

impl Bus {
    /// Creates a bus with `n` prototype-configured caches.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a bus needs at least one cache");
        Bus {
            caches: (0..n).map(|_| VirtualCache::prototype()).collect(),
            stats: BusStats::default(),
        }
    }

    /// Immutable access to a cache (for assertions).
    pub fn cache(&self, cpu: usize) -> &VirtualCache {
        &self.caches[cpu]
    }

    /// Bus traffic statistics so far.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// The coherency state of `addr`'s block in `cpu`'s cache
    /// ([`CoherencyState::Invalid`] if absent or displaced).
    pub fn line_state(&self, cpu: usize, addr: spur_types::GlobalAddr) -> CoherencyState {
        let cache = &self.caches[cpu];
        let probe = cache.probe(addr);
        if probe.hit {
            cache.line(probe.index).state
        } else {
            CoherencyState::Invalid
        }
    }

    /// Processor `cpu` reads `addr`. Returns `true` on a cache hit.
    pub fn processor_read(
        &mut self,
        cpu: usize,
        addr: spur_types::GlobalAddr,
        prot: Protection,
        page_dirty: bool,
    ) -> bool {
        let block = addr.block();
        let probe = self.caches[cpu].probe(addr);
        if probe.hit {
            return true;
        }
        // Read miss: ReadShared on the bus. An owner (if any) supplies the
        // data and downgrades to OwnedShared; memory supplies it otherwise.
        self.stats.read_shared += 1;
        self.snoop_read_shared(cpu, block);
        let evicted = self.caches[cpu].fill_for_read(addr, prot, page_dirty);
        if let Some(ev) = evicted {
            if ev.block_dirty {
                self.stats.write_backs += 1;
            }
        }
        // The new copy is clean and unowned.
        let idx = self.caches[cpu].probe(addr).index;
        self.caches[cpu].line_mut(idx).state = CoherencyState::UnOwned;
        false
    }

    /// Processor `cpu` writes `addr`. Returns `true` on a cache hit.
    pub fn processor_write(
        &mut self,
        cpu: usize,
        addr: spur_types::GlobalAddr,
        prot: Protection,
        page_dirty: bool,
    ) -> bool {
        let block = addr.block();
        let probe = self.caches[cpu].probe(addr);
        if probe.hit {
            let state = self.caches[cpu].line(probe.index).state;
            match state {
                CoherencyState::OwnedExclusive => {}
                CoherencyState::UnOwned | CoherencyState::OwnedShared => {
                    // Must invalidate other copies before writing.
                    self.stats.write_for_invalidation += 1;
                    self.snoop_invalidate(cpu, block);
                }
                CoherencyState::Invalid => unreachable!("probe hit on invalid line"),
            }
            let line = self.caches[cpu].line_mut(probe.index);
            line.state = CoherencyState::OwnedExclusive;
            line.block_dirty = true;
            return true;
        }
        // Write miss: ReadForOwnership — fetch the block and invalidate all
        // other copies in one transaction.
        self.stats.read_for_ownership += 1;
        self.snoop_read_for_ownership(cpu, block);
        let evicted = self.caches[cpu].fill_for_write(addr, prot, page_dirty);
        if let Some(ev) = evicted {
            if ev.block_dirty {
                self.stats.write_backs += 1;
            }
        }
        let idx = self.caches[cpu].probe(addr).index;
        let line = self.caches[cpu].line_mut(idx);
        line.state = CoherencyState::OwnedExclusive;
        line.block_dirty = true;
        false
    }

    /// Flushes `addr`'s page from **every** cache on the bus (the
    /// multiprocessor cost the `REF` policy pays when clearing a reference
    /// bit). Returns the total number of lines flushed.
    pub fn flush_page_all(&mut self, vpn: spur_types::Vpn) -> u64 {
        let mut flushed = 0;
        for cache in &mut self.caches {
            let stats = cache.flush_page_tag_checked(vpn);
            flushed += stats.flushed;
            self.stats.write_backs += stats.written_back;
        }
        flushed
    }

    fn snoop_read_shared(&mut self, requester: usize, block: BlockNum) {
        self.broadcast(requester, CoherenceMsg::ReadShared(block));
    }

    fn snoop_read_for_ownership(&mut self, requester: usize, block: BlockNum) {
        self.broadcast(requester, CoherenceMsg::ReadForOwnership(block));
    }

    fn snoop_invalidate(&mut self, requester: usize, block: BlockNum) {
        self.broadcast(requester, CoherenceMsg::WriteForInvalidation(block));
    }

    /// Delivers `msg` to every cache but the requester's, tallying what
    /// the peers did.
    fn broadcast(&mut self, requester: usize, msg: CoherenceMsg) {
        for (i, cache) in self.caches.iter_mut().enumerate() {
            if i == requester {
                continue;
            }
            let resp = cache.snoop(msg);
            if resp.supplied {
                self.stats.owner_supplies += 1;
            }
            if resp.invalidated {
                self.stats.invalidations += 1;
            }
        }
    }

    /// Checks the protocol's safety invariant: at most one owner per
    /// block, and if any cache holds a dirty (owned) copy no other cache
    /// may hold that block in any state other than `UnOwned` via
    /// `OwnedShared` sharing.
    ///
    /// Intended for tests; walks every line of every cache.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        use std::collections::HashMap;
        let mut owners: HashMap<u64, usize> = HashMap::new();
        let mut exclusive: HashMap<u64, usize> = HashMap::new();
        for (cpu, cache) in self.caches.iter().enumerate() {
            for idx in 0..cache.num_lines() {
                let line = cache.line(crate::line::LineIndex(idx));
                if !line.valid {
                    continue;
                }
                let b = line.block.index();
                if line.state.is_owner() {
                    if let Some(prev) = owners.insert(b, cpu) {
                        return Err(format!("block {b:#x} owned by both cpu{prev} and cpu{cpu}"));
                    }
                }
                if line.state == CoherencyState::OwnedExclusive {
                    exclusive.insert(b, cpu);
                }
            }
        }
        // Exclusively-owned blocks must not appear in any other cache.
        for (b, cpu) in &exclusive {
            for (other_cpu, cache) in self.caches.iter().enumerate() {
                if other_cpu == *cpu {
                    continue;
                }
                if cache.find(BlockNum::new(*b)).is_some() {
                    return Err(format!(
                        "block {b:#x} is exclusive in cpu{cpu} but also cached by cpu{other_cpu}"
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
    use spur_types::GlobalAddr;

    const RW: Protection = Protection::ReadWrite;

    #[test]
    fn read_then_read_shares_cleanly() {
        let mut bus = Bus::new(2);
        let a = GlobalAddr::new(0x2000);
        assert!(!bus.processor_read(0, a, RW, false));
        assert!(!bus.processor_read(1, a, RW, false));
        assert_eq!(bus.line_state(0, a), CoherencyState::UnOwned);
        assert_eq!(bus.line_state(1, a), CoherencyState::UnOwned);
        assert_eq!(bus.stats().read_shared, 2);
        bus.check_invariants().unwrap();
    }

    #[test]
    fn write_hit_on_shared_invalidates_others() {
        let mut bus = Bus::new(3);
        let a = GlobalAddr::new(0x3000);
        bus.processor_read(0, a, RW, false);
        bus.processor_read(1, a, RW, false);
        bus.processor_read(2, a, RW, false);
        assert!(bus.processor_write(1, a, RW, false));
        assert_eq!(bus.line_state(1, a), CoherencyState::OwnedExclusive);
        assert_eq!(bus.line_state(0, a), CoherencyState::Invalid);
        assert_eq!(bus.line_state(2, a), CoherencyState::Invalid);
        assert_eq!(bus.stats().write_for_invalidation, 1);
        assert_eq!(bus.stats().invalidations, 2);
        bus.check_invariants().unwrap();
    }

    #[test]
    fn write_miss_takes_ownership_from_owner() {
        let mut bus = Bus::new(2);
        let a = GlobalAddr::new(0x4000);
        bus.processor_write(0, a, RW, false);
        assert_eq!(bus.line_state(0, a), CoherencyState::OwnedExclusive);
        bus.processor_write(1, a, RW, false);
        assert_eq!(bus.line_state(1, a), CoherencyState::OwnedExclusive);
        assert_eq!(bus.line_state(0, a), CoherencyState::Invalid);
        assert_eq!(bus.stats().owner_supplies, 1);
        bus.check_invariants().unwrap();
    }

    #[test]
    fn read_of_dirty_block_downgrades_owner_to_shared() {
        let mut bus = Bus::new(2);
        let a = GlobalAddr::new(0x5000);
        bus.processor_write(0, a, RW, false);
        bus.processor_read(1, a, RW, false);
        assert_eq!(bus.line_state(0, a), CoherencyState::OwnedShared);
        assert_eq!(bus.line_state(1, a), CoherencyState::UnOwned);
        assert_eq!(bus.stats().owner_supplies, 1);
        bus.check_invariants().unwrap();
    }

    #[test]
    fn flush_page_all_empties_every_cache() {
        let mut bus = Bus::new(2);
        let page = spur_types::Vpn::new(8);
        let a = GlobalAddr::new(page.base_addr().raw());
        let b = GlobalAddr::new(page.base_addr().raw() + 64);
        bus.processor_write(0, a, RW, false);
        bus.processor_read(1, a, RW, false);
        bus.processor_read(1, b, RW, false);
        let flushed = bus.flush_page_all(page);
        assert_eq!(flushed, 3);
        assert_eq!(bus.line_state(0, a), CoherencyState::Invalid);
        assert_eq!(bus.line_state(1, a), CoherencyState::Invalid);
        assert_eq!(bus.line_state(1, b), CoherencyState::Invalid);
    }

    #[test]
    #[should_panic(expected = "at least one cache")]
    fn empty_bus_panics() {
        let _ = Bus::new(0);
    }

    #[test]
    fn snoop_on_absent_block_does_nothing() {
        let mut c = VirtualCache::prototype();
        let b = GlobalAddr::new(0x2000).block();
        assert_eq!(
            c.snoop(CoherenceMsg::ReadShared(b)),
            SnoopResponse::default()
        );
        assert_eq!(
            c.snoop(CoherenceMsg::ReadForOwnership(b)),
            SnoopResponse::default()
        );
    }

    #[test]
    fn snoop_read_shared_downgrades_only_owners() {
        let a = GlobalAddr::new(0x2000);
        let mut owner = VirtualCache::prototype();
        owner.fill_for_write(a, RW, false);
        let resp = owner.snoop(CoherenceMsg::ReadShared(a.block()));
        assert!(resp.supplied && !resp.invalidated);
        assert_eq!(
            owner.line(owner.probe(a).index).state,
            CoherencyState::OwnedShared
        );

        let mut sharer = VirtualCache::prototype();
        sharer.fill_for_read(a, RW, false);
        let resp = sharer.snoop(CoherenceMsg::ReadShared(a.block()));
        assert!(
            resp.matched && !resp.supplied && !resp.invalidated,
            "UnOwned copy stays put"
        );
        assert!(sharer.probe(a).hit);
    }

    #[test]
    fn snoop_read_for_ownership_invalidates_and_reports_supply() {
        let a = GlobalAddr::new(0x2000);
        let mut owner = VirtualCache::prototype();
        owner.fill_for_write(a, RW, false);
        let resp = owner.snoop(CoherenceMsg::ReadForOwnership(a.block()));
        assert!(resp.supplied && resp.invalidated);
        assert!(!owner.probe(a).hit);

        let mut sharer = VirtualCache::prototype();
        sharer.fill_for_read(a, RW, false);
        let resp = sharer.snoop(CoherenceMsg::ReadForOwnership(a.block()));
        assert!(!resp.supplied && resp.invalidated);
        assert!(!sharer.probe(a).hit);
    }

    #[test]
    fn snoop_write_invalidation_never_claims_supply() {
        let a = GlobalAddr::new(0x2000);
        let mut owner = VirtualCache::prototype();
        owner.fill_for_write(a, RW, false);
        let resp = owner.snoop(CoherenceMsg::WriteForInvalidation(a.block()));
        assert!(!resp.supplied && resp.invalidated);
        assert!(!owner.probe(a).hit);
    }
}
