//! A set-associative variant of the virtual cache, for the road not
//! taken.
//!
//! Section 1 notes that "the Sun-3 architecture prevents synonyms by
//! restricting the cache to be direct-mapped, and restricting virtual
//! address synonyms (aliases) to be equal modulo the cache size" — in a
//! direct-mapped cache two synonymous addresses then collide on the same
//! line and can never coexist. SPUR instead prevents synonyms in
//! *software* (one global address per datum), which frees the hardware
//! to use associativity. This module provides that hypothetical n-way
//! SPUR cache so the choice can be studied, and a demonstration of why
//! the Sun-3 could not have done the same (see
//! [`synonym_hazard_demo`]).

use spur_types::{BlockNum, GlobalAddr, Protection};

use crate::cache::EvictedBlock;
use crate::coherence::CoherencyState;
use crate::line::CacheLine;

/// An n-way set-associative virtually-addressed cache with LRU
/// replacement within each set.
///
/// ```
/// use spur_cache::assoc::SetAssocCache;
/// use spur_types::{GlobalAddr, Protection};
///
/// let mut c = SetAssocCache::new(4096, 2); // 128 KB, 2-way
/// let a = GlobalAddr::new(0x0_0040);
/// let b = GlobalAddr::new(0x2_0040); // conflicts in a direct map
/// c.fill(a, Protection::ReadWrite, false, false);
/// c.fill(b, Protection::ReadWrite, false, false);
/// // Both survive: associativity absorbs the conflict.
/// assert!(c.probe(a));
/// assert!(c.probe(b));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `sets × ways` lines, row-major by set.
    lines: Vec<CacheLine>,
    /// Per-line LRU stamps, same layout.
    stamps: Vec<u64>,
    sets: u64,
    ways: usize,
    clock: u64,
}

impl SetAssocCache {
    /// Creates a cache with `total_lines` lines organized `ways`-wide.
    ///
    /// # Panics
    ///
    /// Panics unless `total_lines` is a power of two divisible by `ways`
    /// (itself a nonzero power of two).
    pub fn new(total_lines: usize, ways: usize) -> Self {
        assert!(
            total_lines.is_power_of_two(),
            "line count must be a power of two"
        );
        assert!(
            ways.is_power_of_two() && ways > 0,
            "ways must be a nonzero power of two"
        );
        assert!(total_lines.is_multiple_of(ways) && total_lines >= ways);
        SetAssocCache {
            lines: vec![CacheLine::empty(); total_lines],
            stamps: vec![0; total_lines],
            sets: (total_lines / ways) as u64,
            ways,
            clock: 0,
        }
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    fn set_of(&self, block: BlockNum) -> usize {
        (block.index() % self.sets) as usize
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Is `addr`'s block cached? Updates LRU recency on a hit.
    pub fn probe(&mut self, addr: GlobalAddr) -> bool {
        let block = addr.block();
        let set = self.set_of(block);
        self.clock += 1;
        for i in self.slot_range(set) {
            if self.lines[i].matches(block) {
                self.stamps[i] = self.clock;
                return true;
            }
        }
        false
    }

    /// Fills `addr`'s block, evicting the set's LRU line if full.
    pub fn fill(
        &mut self,
        addr: GlobalAddr,
        prot: Protection,
        page_dirty: bool,
        by_write: bool,
    ) -> Option<EvictedBlock> {
        let block = addr.block();
        let set = self.set_of(block);
        self.clock += 1;
        debug_assert!(
            !self.lines[self.slot_range(set)]
                .iter()
                .any(|l| l.matches(block)),
            "filling an already-cached block"
        );
        // Choose an invalid slot, else the LRU one.
        let slot = self
            .slot_range(set)
            .find(|&i| !self.lines[i].valid)
            .unwrap_or_else(|| {
                self.slot_range(set)
                    .min_by_key(|&i| self.stamps[i])
                    .expect("sets are nonempty")
            });
        let evicted = self.lines[slot].valid.then(|| EvictedBlock {
            block: self.lines[slot].block,
            block_dirty: self.lines[slot].block_dirty,
        });
        self.lines[slot] = CacheLine {
            valid: true,
            block,
            prot,
            page_dirty,
            block_dirty: by_write,
            state: if by_write {
                CoherencyState::OwnedExclusive
            } else {
                CoherencyState::UnOwned
            },
            filled_by_write: by_write,
        };
        self.stamps[slot] = self.clock;
        evicted
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// Demonstrates the synonym hazard that forced the Sun-3's hand.
///
/// Sun-3 rule: aliases must be equal modulo the cache size, so that in a
/// *direct-mapped* cache both names map to the same line and can never
/// coexist. Under associativity the same two names land in the same
/// *set* but different *ways* — two copies of one datum, and a write to
/// one leaves the other stale. SPUR is immune because its OS gives the
/// datum a single global address.
///
/// Returns `(copies_in_direct_map, copies_in_two_way)` for one synonym
/// pair; the caller (tests, the ablation binary) asserts `(1, 2)`.
pub fn synonym_hazard_demo() -> (usize, usize) {
    use crate::cache::VirtualCache;

    // Two virtual names for the same datum, equal modulo the 128 KB
    // cache size — legal aliases under the Sun-3 rule.
    let name_a = GlobalAddr::new(0x1_0040);
    let name_b = GlobalAddr::new(0x1_0040 + 128 * 1024);

    // Direct map: the second name displaces the first. One copy.
    let mut direct = VirtualCache::prototype();
    direct.fill_for_read(name_a, Protection::ReadWrite, false);
    direct.fill_for_read(name_b, Protection::ReadWrite, false);
    let direct_copies =
        usize::from(direct.probe(name_a).hit) + usize::from(direct.probe(name_b).hit);

    // Two-way: both names stick. Two incoherent copies of one datum.
    let mut assoc = SetAssocCache::new(4096, 2);
    assoc.fill(name_a, Protection::ReadWrite, false, false);
    assoc.fill(name_b, Protection::ReadWrite, false, false);
    let assoc_copies = usize::from(assoc.probe(name_a)) + usize::from(assoc.probe(name_b));

    (direct_copies, assoc_copies)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RW: Protection = Protection::ReadWrite;

    #[test]
    fn conflicting_blocks_coexist_up_to_associativity() {
        let mut c = SetAssocCache::new(256, 2);
        // Three blocks mapping to the same set of a 128-set cache.
        let a = GlobalAddr::new(128 * 32);
        let b = GlobalAddr::new(2 * 128 * 32 + 128 * 32);
        let d = GlobalAddr::new(4 * 128 * 32 + 128 * 32);
        c.fill(a, RW, false, false);
        c.fill(b, RW, false, false);
        assert!(c.probe(a) && c.probe(b), "2-way holds 2 conflicting blocks");
        // Touch a so b becomes LRU; the third fill evicts b.
        c.probe(a);
        let ev = c.fill(d, RW, false, true).expect("set is full");
        assert_eq!(ev.block, b.block());
        assert!(c.probe(a) && c.probe(d) && !c.probe(b));
    }

    #[test]
    fn fill_prefers_invalid_slots() {
        let mut c = SetAssocCache::new(256, 4);
        let base = 128 * 32;
        for i in 0..4u64 {
            assert!(
                c.fill(GlobalAddr::new(base + i * 128 * 32), RW, false, false)
                    .is_none(),
                "no eviction while invalid ways remain"
            );
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn one_way_behaves_like_a_direct_map() {
        let mut c = SetAssocCache::new(4096, 1);
        let a = GlobalAddr::new(0x0_0040);
        let b = GlobalAddr::new(0x2_0040);
        c.fill(a, RW, false, false);
        let ev = c.fill(b, RW, false, false).expect("direct conflict evicts");
        assert_eq!(ev.block, a.block());
    }

    #[test]
    fn sun3_synonym_hazard() {
        let (direct, assoc) = synonym_hazard_demo();
        assert_eq!(direct, 1, "direct map: aliases displace each other");
        assert_eq!(
            assoc, 2,
            "2-way: two live copies of one datum (incoherent!)"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::new(300, 2);
    }
}
