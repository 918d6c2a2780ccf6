//! The direct-mapped virtual-address cache proper.
//!
//! Geometry (Table 2.1): 128 KB capacity, 32-byte blocks, direct mapped —
//! 4096 lines, indexed by bits [5, 17) of the global virtual address. A
//! useful consequence: the 128 blocks of one 4 KB page map to 128
//! *consecutive* cache lines, which is what makes page flushes a bounded
//! 128-probe loop (Section 3.2's `t_flush` estimate).
//!
//! The simulator tracks metadata only; no data bytes are stored. Fills
//! record whether they were triggered by a write (for the paper's
//! `N_w-miss` / `N_w-hit` accounting) and copy the PTE's protection and
//! page-dirty bit into the line — the copies whose staleness drives the
//! whole study.

use spur_types::{BlockNum, GlobalAddr, Protection, Vpn, BLOCKS_PER_PAGE, CACHE_LINES};

use crate::coherence::CoherencyState;
use crate::line::{CacheLine, LineIndex};

/// Result of probing the cache for an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResult {
    /// Whether the addressed block is present.
    pub hit: bool,
    /// The (unique, direct-mapped) line the block maps to.
    pub index: LineIndex,
}

/// A block displaced from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// The displaced block.
    pub block: BlockNum,
    /// Whether it was modified and required a write-back.
    pub block_dirty: bool,
}

/// Counters returned by page-flush operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Lines probed.
    pub probed: u64,
    /// Valid lines actually flushed (invalidated).
    pub flushed: u64,
    /// Flushed lines that were dirty and had to be written back.
    pub written_back: u64,
}

/// The direct-mapped virtual-address cache.
///
/// ```
/// use spur_cache::cache::VirtualCache;
/// use spur_types::{GlobalAddr, Protection, CACHE_LINES};
///
/// let mut c = VirtualCache::prototype();
/// assert_eq!(c.num_lines() as u64, CACHE_LINES);
///
/// let a = GlobalAddr::new(0x10_0000);
/// c.fill_for_write(a, Protection::ReadWrite, false);
/// let probe = c.probe(a);
/// assert!(probe.hit);
/// assert!(c.line(probe.index).block_dirty);
/// ```
#[derive(Debug, Clone)]
pub struct VirtualCache {
    lines: Vec<CacheLine>,
    mask: u64,
}

impl VirtualCache {
    /// Creates the prototype's 4096-line cache.
    pub fn prototype() -> Self {
        Self::with_lines(CACHE_LINES as usize)
    }

    /// Creates a cache with `n` lines (for scaling studies).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is smaller than one page
    /// (128 lines).
    pub fn with_lines(n: usize) -> Self {
        assert!(n.is_power_of_two(), "line count must be a power of two");
        assert!(
            n as u64 >= BLOCKS_PER_PAGE,
            "cache must hold at least one page"
        );
        VirtualCache {
            lines: vec![CacheLine::empty(); n],
            mask: n as u64 - 1,
        }
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// The line a block maps to.
    pub fn index_of(&self, block: BlockNum) -> LineIndex {
        LineIndex((block.index() & self.mask) as usize)
    }

    /// Probes for `addr`'s block.
    pub fn probe(&self, addr: GlobalAddr) -> ProbeResult {
        let block = addr.block();
        let index = self.index_of(block);
        ProbeResult {
            hit: self.lines[index.0].matches(block),
            index,
        }
    }

    /// Finds the line holding `block`, if cached.
    pub fn find(&self, block: BlockNum) -> Option<LineIndex> {
        let index = self.index_of(block);
        self.lines[index.0].matches(block).then_some(index)
    }

    /// Immutable access to a line.
    pub fn line(&self, index: LineIndex) -> &CacheLine {
        &self.lines[index.0]
    }

    /// Mutable access to a line (used by coherence and policy code).
    pub fn line_mut(&mut self, index: LineIndex) -> &mut CacheLine {
        &mut self.lines[index.0]
    }

    /// Fills `addr`'s block after a read (or instruction-fetch) miss,
    /// copying `prot` and `page_dirty` from the PTE into the line.
    ///
    /// Returns the displaced block, if the line held one.
    pub fn fill_for_read(
        &mut self,
        addr: GlobalAddr,
        prot: Protection,
        page_dirty: bool,
    ) -> Option<EvictedBlock> {
        self.fill(addr, prot, page_dirty, false)
    }

    /// Fills `addr`'s block after a write miss. The new line is born dirty
    /// and exclusively owned.
    pub fn fill_for_write(
        &mut self,
        addr: GlobalAddr,
        prot: Protection,
        page_dirty: bool,
    ) -> Option<EvictedBlock> {
        self.fill(addr, prot, page_dirty, true)
    }

    fn fill(
        &mut self,
        addr: GlobalAddr,
        prot: Protection,
        page_dirty: bool,
        by_write: bool,
    ) -> Option<EvictedBlock> {
        let block = addr.block();
        let index = self.index_of(block);
        let line = &mut self.lines[index.0];
        debug_assert!(
            !line.matches(block),
            "filling a block that is already cached: {block}"
        );
        let evicted = line.valid.then_some(EvictedBlock {
            block: line.block,
            block_dirty: line.block_dirty,
        });
        *line = CacheLine {
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
        evicted
    }

    /// Flushes page `vpn` with a **tag-checked** flush: probe each of the
    /// page's 128 line slots and flush only lines whose tag belongs to the
    /// page. This is the "generic" operation Section 3.2 assumes when
    /// costing `t_flush` at ~500 cycles.
    pub fn flush_page_tag_checked(&mut self, vpn: Vpn) -> FlushStats {
        let mut stats = FlushStats::default();
        for i in 0..BLOCKS_PER_PAGE {
            let block = vpn.block(i);
            let index = self.index_of(block);
            stats.probed += 1;
            let line = &mut self.lines[index.0];
            if line.matches(block) {
                stats.flushed += 1;
                if line.block_dirty {
                    stats.written_back += 1;
                }
                *line = CacheLine::empty();
            }
        }
        stats
    }

    /// Flushes page `vpn` with SPUR's actual **tag-blind** flush: each of
    /// the 128 flush operations empties whatever block occupies the line,
    /// "substantially increasing the bus traffic" (Section 3.2) because
    /// blocks from *other* pages sharing those lines are flushed too.
    pub fn flush_page_tag_blind(&mut self, vpn: Vpn) -> FlushStats {
        let mut stats = FlushStats::default();
        for i in 0..BLOCKS_PER_PAGE {
            let index = self.index_of(vpn.block(i));
            stats.probed += 1;
            let line = &mut self.lines[index.0];
            if line.valid {
                stats.flushed += 1;
                if line.block_dirty {
                    stats.written_back += 1;
                }
                *line = CacheLine::empty();
            }
        }
        stats
    }

    /// Counts how many of page `vpn`'s blocks are currently cached.
    pub fn resident_blocks_of_page(&self, vpn: Vpn) -> u64 {
        (0..BLOCKS_PER_PAGE)
            .filter(|&i| {
                let block = vpn.block(i);
                self.lines[self.index_of(block).0].matches(block)
            })
            .count() as u64
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Number of valid lines whose block lives in global segment `seg` —
    /// e.g. segment 255 counts the PTE blocks competing with data.
    pub fn occupancy_of_segment(&self, seg: u64) -> usize {
        self.lines
            .iter()
            .filter(|l| l.valid && l.block.base_addr().global_segment() == seg)
            .count()
    }

    /// Iterates over all valid lines.
    pub fn iter_valid(&self) -> impl Iterator<Item = (LineIndex, &CacheLine)> + '_ {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.valid)
            .map(|(i, l)| (LineIndex(i), l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RW: Protection = Protection::ReadWrite;

    fn addr(raw: u64) -> GlobalAddr {
        GlobalAddr::new(raw)
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut c = VirtualCache::prototype();
        let a = addr(0x1234_5678 & !0x1f);
        assert!(!c.probe(a).hit);
        assert!(c.fill_for_read(a, RW, false).is_none());
        assert!(c.probe(a).hit);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn same_page_blocks_map_to_consecutive_lines() {
        let c = VirtualCache::prototype();
        let vpn = Vpn::new(77);
        let first = c.index_of(vpn.block(0)).0;
        for i in 0..128 {
            assert_eq!(c.index_of(vpn.block(i)).0, first + i as usize);
        }
    }

    #[test]
    fn conflicting_blocks_evict() {
        let mut c = VirtualCache::prototype();
        // Two addresses 128 KB apart conflict in a 128 KB direct-mapped
        // cache.
        let a = addr(0x0_0040);
        let b = addr(0x2_0040);
        c.fill_for_write(a, RW, false);
        let ev = c.fill_for_read(b, RW, false).expect("must evict");
        assert_eq!(ev.block, a.block());
        assert!(
            ev.block_dirty,
            "written block must be flagged for write-back"
        );
        assert!(!c.probe(a).hit);
        assert!(c.probe(b).hit);
    }

    #[test]
    fn fill_copies_pte_metadata() {
        let mut c = VirtualCache::prototype();
        let a = addr(0x8000);
        c.fill_for_read(a, Protection::ReadOnly, true);
        let line = *c.line(c.probe(a).index);
        assert_eq!(line.prot, Protection::ReadOnly);
        assert!(line.page_dirty);
        assert!(!line.block_dirty);
        assert!(!line.filled_by_write);
        assert_eq!(line.state, CoherencyState::UnOwned);
    }

    #[test]
    fn write_fill_is_born_dirty_and_owned() {
        let mut c = VirtualCache::prototype();
        let a = addr(0x8000);
        c.fill_for_write(a, RW, false);
        let line = *c.line(c.probe(a).index);
        assert!(line.block_dirty);
        assert!(line.filled_by_write);
        assert_eq!(line.state, CoherencyState::OwnedExclusive);
    }

    #[test]
    fn tag_checked_page_flush_spares_other_pages() {
        let mut c = VirtualCache::prototype();
        let vpn = Vpn::new(4);
        // Cache 3 blocks of the target page and one block of the page that
        // aliases to the same lines (32 pages = 128 KB away).
        c.fill_for_read(addr(vpn.block(0).base_addr().raw()), RW, false);
        c.fill_for_read(addr(vpn.block(5).base_addr().raw()), RW, false);
        c.fill_for_write(addr(vpn.block(9).base_addr().raw()), RW, false);
        let alias = Vpn::new(4 + 32);
        c.fill_for_read(addr(alias.block(70).base_addr().raw()), RW, false);

        let stats = c.flush_page_tag_checked(vpn);
        assert_eq!(stats.probed, 128);
        assert_eq!(stats.flushed, 3);
        assert_eq!(stats.written_back, 1);
        assert_eq!(c.resident_blocks_of_page(vpn), 0);
        assert_eq!(c.resident_blocks_of_page(alias), 1, "alias page survives");
    }

    #[test]
    fn tag_blind_page_flush_collaterally_flushes_aliases() {
        let mut c = VirtualCache::prototype();
        let vpn = Vpn::new(4);
        let alias = Vpn::new(4 + 32);
        c.fill_for_read(addr(vpn.block(0).base_addr().raw()), RW, false);
        c.fill_for_read(addr(alias.block(70).base_addr().raw()), RW, false);

        let stats = c.flush_page_tag_blind(vpn);
        assert_eq!(stats.probed, 128);
        assert_eq!(stats.flushed, 2, "alias block is collateral damage");
        assert_eq!(c.resident_blocks_of_page(alias), 0);
    }

    #[test]
    fn segment_occupancy_counts_only_that_segment() {
        let mut c = VirtualCache::prototype();
        // Segment bases alias modulo the cache size, so keep the three
        // blocks on distinct line indices.
        c.fill_for_read(GlobalAddr::from_parts(1, 0), RW, false);
        c.fill_for_read(GlobalAddr::from_parts(1, 64), RW, false);
        c.fill_for_read(GlobalAddr::from_parts(255, 128), RW, true);
        assert_eq!(c.occupancy_of_segment(1), 2);
        assert_eq!(c.occupancy_of_segment(255), 1);
        assert_eq!(c.occupancy_of_segment(7), 0);
    }

    #[test]
    fn small_cache_for_scaling_studies() {
        let c = VirtualCache::with_lines(256);
        assert_eq!(c.num_lines(), 256);
        // Blocks 256 apart conflict.
        assert_eq!(
            c.index_of(BlockNum::new(3)),
            c.index_of(BlockNum::new(3 + 256))
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = VirtualCache::with_lines(1000);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn sub_page_cache_panics() {
        let _ = VirtualCache::with_lines(64);
    }
}
