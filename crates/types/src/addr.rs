//! Address newtypes and the arithmetic between them.
//!
//! Three address spaces coexist in SPUR:
//!
//! 1. **Process virtual addresses** ([`ProcAddr`], 32 bits). The top two
//!    bits select one of four per-process segment registers.
//! 2. **Global virtual addresses** ([`GlobalAddr`], 38 bits). The cache and
//!    page tables operate entirely in this space; the operating system
//!    prevents synonyms by giving shared memory a single global address.
//! 3. **Physical addresses** ([`PhysAddr`], 32 bits), produced by the
//!    in-cache translation mechanism on cache misses.
//!
//! Derived quantities get their own newtypes: [`Vpn`] (global virtual page
//! number), [`Pfn`] (physical frame number), and [`BlockNum`] (global
//! virtual block number). Keeping them distinct prevents a whole class of
//! unit errors (indexing a page table with a block number, for example).

use core::fmt;

use crate::{BLOCKS_PER_PAGE, BLOCK_SHIFT, GLOBAL_ADDR_BITS, PAGE_SHIFT, SEGMENT_SHIFT};

/// A 32-bit per-process virtual address.
///
/// The top two bits select one of the process's four segment registers;
/// the low 30 bits are the offset within that segment.
///
/// # Example
///
/// ```
/// use spur_types::addr::{ProcAddr, SegmentId};
///
/// let a = ProcAddr::new(0xC000_0010);
/// assert_eq!(a.segment(), SegmentId::new(3));
/// assert_eq!(a.segment_offset(), 0x10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcAddr(u32);

impl ProcAddr {
    /// Creates a process address from its raw 32-bit value.
    pub const fn new(raw: u32) -> Self {
        ProcAddr(raw)
    }

    /// Returns which of the four segment registers this address selects.
    pub const fn segment(self) -> SegmentId {
        SegmentId((self.0 >> SEGMENT_SHIFT) as u8)
    }

    /// Returns the 30-bit offset within the selected segment.
    pub const fn segment_offset(self) -> u64 {
        (self.0 as u64) & ((1 << SEGMENT_SHIFT) - 1)
    }
}

impl fmt::Display for ProcAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p:{:#010x}", self.0)
    }
}

impl From<u32> for ProcAddr {
    fn from(raw: u32) -> Self {
        ProcAddr(raw)
    }
}

/// Identifies one of a process's four segment registers (0..=3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SegmentId(u8);

impl SegmentId {
    /// Creates a segment id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 4`; a process has exactly four segment registers.
    pub const fn new(id: u8) -> Self {
        assert!(id < 4, "a process has exactly 4 segment registers");
        SegmentId(id)
    }

    /// Returns the register index (0..=3).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// A 38-bit global virtual address.
///
/// The cache is indexed and tagged with global virtual addresses, so cache
/// hits never consult translation information. All page-table indexing also
/// happens in this space.
///
/// # Example
///
/// ```
/// use spur_types::addr::GlobalAddr;
///
/// let ga = GlobalAddr::from_parts(5, 0x1234);
/// assert_eq!(ga.global_segment(), 5);
/// assert_eq!(ga.page_offset(), 0x234);
/// assert_eq!(ga.vpn().index(), (5 << 18) | 1); // segment 5 starts at page 5 << 18
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalAddr(u64);

impl GlobalAddr {
    /// Bit mask covering the 38-bit global space.
    pub const MASK: u64 = (1 << GLOBAL_ADDR_BITS) - 1;

    /// Creates a global address from a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not fit in 38 bits.
    pub const fn new(raw: u64) -> Self {
        assert!(raw <= Self::MASK, "global address exceeds 38 bits");
        GlobalAddr(raw)
    }

    /// Creates a global address from a global segment number and an offset
    /// within the segment.
    ///
    /// # Panics
    ///
    /// Panics if `segment >= 256` or `offset >= 1 GB`.
    #[inline]
    pub const fn from_parts(segment: u64, offset: u64) -> Self {
        assert!(segment < (1 << (GLOBAL_ADDR_BITS - SEGMENT_SHIFT)));
        assert!(offset < (1 << SEGMENT_SHIFT));
        GlobalAddr((segment << SEGMENT_SHIFT) | offset)
    }

    /// Returns the raw 38-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the global segment number (top 8 bits).
    pub const fn global_segment(self) -> u64 {
        self.0 >> SEGMENT_SHIFT
    }

    /// Returns the offset within the global segment (low 30 bits).
    pub const fn segment_offset(self) -> u64 {
        self.0 & ((1 << SEGMENT_SHIFT) - 1)
    }

    /// Returns the global virtual page number.
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Returns the byte offset within the page.
    pub const fn page_offset(self) -> u64 {
        self.0 & ((1 << PAGE_SHIFT) - 1)
    }

    /// Returns the global virtual block number (address / 32).
    pub const fn block(self) -> BlockNum {
        BlockNum(self.0 >> BLOCK_SHIFT)
    }

    /// Returns the byte offset within the cache block.
    pub const fn block_offset(self) -> u64 {
        self.0 & ((1 << BLOCK_SHIFT) - 1)
    }

    /// Returns the address rounded down to its block boundary.
    pub const fn block_aligned(self) -> GlobalAddr {
        GlobalAddr(self.0 & !((1 << BLOCK_SHIFT) - 1))
    }

    /// Returns the address rounded down to its page boundary.
    pub const fn page_aligned(self) -> GlobalAddr {
        GlobalAddr(self.0 & !((1 << PAGE_SHIFT) - 1))
    }

    /// Returns the address `bytes` later in the global space, wrapping at
    /// the 38-bit boundary.
    pub const fn wrapping_add(self, bytes: u64) -> GlobalAddr {
        GlobalAddr(self.0.wrapping_add(bytes) & Self::MASK)
    }
}

impl fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g:{:#012x}", self.0)
    }
}

/// A global virtual page number (38 − 12 = 26 significant bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(u64);

impl Vpn {
    /// Creates a VPN from its raw index.
    pub const fn new(index: u64) -> Self {
        Vpn(index)
    }

    /// Returns the raw page index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the global address of the first byte of the page.
    pub const fn base_addr(self) -> GlobalAddr {
        GlobalAddr(self.0 << PAGE_SHIFT)
    }

    /// Returns the global block number of the `i`-th block of this page.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 128` (there are 128 blocks per page).
    #[inline]
    pub const fn block(self, i: u64) -> BlockNum {
        assert!(i < BLOCKS_PER_PAGE);
        BlockNum(self.0 * BLOCKS_PER_PAGE + i)
    }

    /// Returns the VPN `n` pages later.
    pub const fn offset(self, n: u64) -> Vpn {
        Vpn(self.0 + n)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// A global virtual block number (address / 32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockNum(u64);

impl BlockNum {
    /// Creates a block number from its raw index.
    pub const fn new(index: u64) -> Self {
        BlockNum(index)
    }

    /// Returns the raw block index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the page this block belongs to.
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 / BLOCKS_PER_PAGE)
    }

    /// Returns the block's position within its page (0..128).
    pub const fn within_page(self) -> u64 {
        self.0 % BLOCKS_PER_PAGE
    }

    /// Returns the global address of the first byte of the block.
    pub const fn base_addr(self) -> GlobalAddr {
        GlobalAddr(self.0 << BLOCK_SHIFT)
    }
}

impl fmt::Display for BlockNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

/// A 32-bit physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u32);

impl PhysAddr {
    /// Creates a physical address from its raw value.
    pub const fn new(raw: u32) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw 32-bit value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the physical frame number.
    pub const fn pfn(self) -> Pfn {
        Pfn(self.0 >> PAGE_SHIFT)
    }

    /// Returns the byte offset within the frame.
    pub const fn page_offset(self) -> u32 {
        self.0 & ((1 << PAGE_SHIFT) - 1)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phys:{:#010x}", self.0)
    }
}

/// A physical page-frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(u32);

impl Pfn {
    /// Creates a frame number from its raw index.
    pub const fn new(index: u32) -> Self {
        Pfn(index)
    }

    /// Returns the raw frame index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the physical address of the first byte of the frame.
    pub const fn base_addr(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn proc_addr_segment_decode() {
        assert_eq!(ProcAddr::new(0x0000_0000).segment().index(), 0);
        assert_eq!(ProcAddr::new(0x3fff_ffff).segment().index(), 0);
        assert_eq!(ProcAddr::new(0x4000_0000).segment().index(), 1);
        assert_eq!(ProcAddr::new(0x8000_0000).segment().index(), 2);
        assert_eq!(ProcAddr::new(0xffff_ffff).segment().index(), 3);
        assert_eq!(ProcAddr::new(0xffff_ffff).segment_offset(), 0x3fff_ffff);
    }

    #[test]
    #[should_panic(expected = "4 segment registers")]
    fn segment_id_rejects_out_of_range() {
        let _ = SegmentId::new(4);
    }

    #[test]
    fn global_addr_decomposition() {
        let ga = GlobalAddr::from_parts(3, (7 * PAGE_SIZE) + 45);
        assert_eq!(ga.global_segment(), 3);
        assert_eq!(ga.page_offset(), 45);
        assert_eq!(ga.block_offset(), 45 % 32);
        assert_eq!(ga.vpn().base_addr().page_offset(), 0);
        assert_eq!(ga.block().vpn(), ga.vpn());
        assert_eq!(ga.block().within_page(), 45 / 32);
    }

    #[test]
    fn global_addr_alignment() {
        let ga = GlobalAddr::new(0x12345);
        assert_eq!(ga.block_aligned().raw(), 0x12340);
        assert_eq!(ga.page_aligned().raw(), 0x12000);
    }

    #[test]
    #[should_panic(expected = "38 bits")]
    fn global_addr_rejects_wide_values() {
        let _ = GlobalAddr::new(1 << 38);
    }

    #[test]
    fn wrapping_add_wraps_at_38_bits() {
        let ga = GlobalAddr::new(GlobalAddr::MASK);
        assert_eq!(ga.wrapping_add(1).raw(), 0);
    }

    #[test]
    fn vpn_block_enumeration() {
        let vpn = Vpn::new(10);
        assert_eq!(vpn.block(0).index(), 1280);
        assert_eq!(vpn.block(127).index(), 1280 + 127);
        assert_eq!(vpn.block(127).vpn(), vpn);
        assert_eq!(vpn.block(5).within_page(), 5);
    }

    #[test]
    #[should_panic]
    fn vpn_block_rejects_out_of_page_index() {
        let _ = Vpn::new(0).block(128);
    }

    #[test]
    fn phys_addr_round_trips_through_pfn() {
        let pa = PhysAddr::new(0x8765_4321);
        assert_eq!(pa.pfn().base_addr().raw() + pa.page_offset(), pa.raw());
    }

    #[test]
    fn display_formats_are_nonempty_and_distinct() {
        let texts = [
            format!("{}", ProcAddr::new(1)),
            format!("{}", GlobalAddr::new(1)),
            format!("{}", PhysAddr::new(1)),
            format!("{}", Vpn::new(1)),
            format!("{}", BlockNum::new(1)),
            format!("{}", Pfn::new(1)),
            format!("{}", SegmentId::new(1)),
        ];
        for (i, a) in texts.iter().enumerate() {
            assert!(!a.is_empty());
            for b in texts.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
