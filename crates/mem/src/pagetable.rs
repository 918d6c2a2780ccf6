//! SPUR's two-level page table, resident in the global virtual address
//! space.
//!
//! In-cache translation (Wood et al., ISCA 1986) has no TLB. Instead:
//!
//! * The **first-level** page table is a linear array of 4-byte PTEs in
//!   global virtual space, one per global virtual page. Being virtual data,
//!   first-level PTEs are fetched *through the cache* and compete with
//!   instructions and data for cache lines.
//! * The **second-level** page table maps the pages of the first-level
//!   table. It is wired down in physical memory at well-known addresses, so
//!   the cache controller can fetch a missing first-level PTE directly from
//!   memory without recursion.
//!
//! This module stores the logical PTE contents (the single source of truth
//! the OS updates) and exposes the *address geometry* the cache needs: the
//! global virtual address of any PTE and the inverse mapping.

use spur_types::{Error, FastMap, GlobalAddr, Pfn, Result, Vpn, PAGE_SHIFT, PAGE_SIZE};

use crate::phys::PhysMemory;
use crate::pte::Pte;

/// The global segment reserved for the first-level page table.
pub const PT_GLOBAL_SEGMENT: u64 = 255;

/// Size of one PTE in bytes.
pub(crate) const PTE_SIZE: u64 = 4;

/// Number of PTEs per page of the first-level table.
pub const PTES_PER_PAGE: u64 = PAGE_SIZE / PTE_SIZE;

/// The two-level page table.
///
/// ```
/// use spur_mem::pagetable::{PageTable, PT_GLOBAL_SEGMENT};
/// use spur_mem::pte::Pte;
/// use spur_types::{Pfn, Protection, Vpn};
///
/// let mut pt = PageTable::new();
/// let vpn = Vpn::new(100);
/// pt.insert(vpn, Pte::resident(Pfn::new(3), Protection::ReadWrite));
///
/// // PTE addresses live in the reserved page-table segment:
/// assert_eq!(pt.pte_vaddr(vpn).global_segment(), PT_GLOBAL_SEGMENT);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Logical first-level contents, stored one page-table page (1024
    /// PTEs) per dense leaf, keyed by `vpn >> LEAF_SHIFT`. Missing
    /// entries read as [`Pte::INVALID`]. The leaf layout mirrors the
    /// machine's own geometry — a leaf *is* a page of the first-level
    /// table — and turns the translation path's PTE read into one
    /// small-map hash plus an array index instead of a per-VPN hash
    /// over every entry.
    leaves: FastMap<u64, Box<PteLeaf>>,
    /// Second level: page of the first-level table → wired frame.
    second_level: FastMap<Vpn, Pfn>,
}

/// Base-2 logarithm of [`PTES_PER_PAGE`]: the split between leaf key
/// and slot index.
const LEAF_SHIFT: u32 = PTES_PER_PAGE.trailing_zeros();
const LEAF_SIZE: usize = PTES_PER_PAGE as usize;
const LEAF_MASK: u64 = PTES_PER_PAGE - 1;

/// One page of the first-level table: a dense PTE array plus a
/// presence bitmap distinguishing explicit entries (including
/// explicitly inserted invalid ones) from the implicit invalid
/// default. Absent slots always hold [`Pte::INVALID`], so the read
/// path never consults the bitmap.
#[derive(Clone)]
struct PteLeaf {
    ptes: [Pte; LEAF_SIZE],
    present: [u64; LEAF_SIZE / 64],
}

impl PteLeaf {
    fn new() -> Box<Self> {
        Box::new(PteLeaf {
            ptes: [Pte::INVALID; LEAF_SIZE],
            present: [0; LEAF_SIZE / 64],
        })
    }

    #[inline]
    fn is_present(&self, slot: usize) -> bool {
        self.present[slot / 64] >> (slot % 64) & 1 != 0
    }

    fn mark(&mut self, slot: usize) {
        self.present[slot / 64] |= 1 << (slot % 64);
    }

    fn clear(&mut self, slot: usize) {
        self.present[slot / 64] &= !(1 << (slot % 64));
    }

    fn is_empty(&self) -> bool {
        self.present.iter().all(|&w| w == 0)
    }
}

impl std::fmt::Debug for PteLeaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let present: u32 = self.present.iter().map(|w| w.count_ones()).sum();
        f.debug_struct("PteLeaf")
            .field("present", &present)
            .finish()
    }
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The global virtual address of the PTE for `vpn`.
    pub fn pte_vaddr(&self, vpn: Vpn) -> GlobalAddr {
        GlobalAddr::from_parts(PT_GLOBAL_SEGMENT, vpn.index() * PTE_SIZE)
    }

    /// The inverse of [`PageTable::pte_vaddr`]: which page's PTE lives at
    /// this global address? Returns `None` for addresses outside the
    /// page-table segment or not 4-byte aligned.
    pub fn vpn_for_pte_vaddr(&self, addr: GlobalAddr) -> Option<Vpn> {
        if addr.global_segment() != PT_GLOBAL_SEGMENT {
            return None;
        }
        let off = addr.segment_offset();
        if !off.is_multiple_of(PTE_SIZE) {
            return None;
        }
        let vpn = off / PTE_SIZE;
        if vpn >= (1 << 26) {
            return None;
        }
        Some(Vpn::new(vpn))
    }

    /// The virtual page of the *first-level table* that holds `vpn`'s PTE.
    pub fn pte_page_vpn(&self, vpn: Vpn) -> Vpn {
        self.pte_vaddr(vpn).vpn()
    }

    /// Reads the PTE for `vpn`; absent entries read as invalid.
    #[inline]
    pub fn pte(&self, vpn: Vpn) -> Pte {
        match self.leaves.get(&(vpn.index() >> LEAF_SHIFT)) {
            Some(leaf) => leaf.ptes[(vpn.index() & LEAF_MASK) as usize],
            None => Pte::INVALID,
        }
    }

    /// Inserts or replaces the PTE for `vpn`, returning the previous entry.
    pub fn insert(&mut self, vpn: Vpn, pte: Pte) -> Pte {
        let leaf = self
            .leaves
            .entry(vpn.index() >> LEAF_SHIFT)
            .or_insert_with(PteLeaf::new);
        let slot = (vpn.index() & LEAF_MASK) as usize;
        let prev = if leaf.is_present(slot) {
            leaf.ptes[slot]
        } else {
            leaf.mark(slot);
            Pte::INVALID
        };
        leaf.ptes[slot] = pte;
        prev
    }

    /// Applies `f` to the PTE for `vpn` in place (creating an invalid entry
    /// to mutate if none exists) and returns the updated value.
    pub fn update<F: FnOnce(&mut Pte)>(&mut self, vpn: Vpn, f: F) -> Pte {
        let leaf = self
            .leaves
            .entry(vpn.index() >> LEAF_SHIFT)
            .or_insert_with(PteLeaf::new);
        let slot = (vpn.index() & LEAF_MASK) as usize;
        if !leaf.is_present(slot) {
            leaf.mark(slot);
        }
        f(&mut leaf.ptes[slot]);
        leaf.ptes[slot]
    }

    /// Removes the PTE for `vpn`, returning it if present.
    pub fn remove(&mut self, vpn: Vpn) -> Option<Pte> {
        let key = vpn.index() >> LEAF_SHIFT;
        let leaf = self.leaves.get_mut(&key)?;
        let slot = (vpn.index() & LEAF_MASK) as usize;
        if !leaf.is_present(slot) {
            return None;
        }
        let prev = std::mem::replace(&mut leaf.ptes[slot], Pte::INVALID);
        leaf.clear(slot);
        if leaf.is_empty() {
            self.leaves.remove(&key);
        }
        Some(prev)
    }

    /// Ensures the second-level mapping for the page-table page that holds
    /// `vpn`'s PTE exists, wiring a frame for it on first use.
    ///
    /// Returns the frame holding the page-table page and whether it was
    /// newly wired.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoFreeFrames`] if a frame must be wired and memory
    /// is exhausted.
    pub fn ensure_second_level(&mut self, vpn: Vpn, phys: &mut PhysMemory) -> Result<(Pfn, bool)> {
        let pt_page = self.pte_page_vpn(vpn);
        if let Some(&pfn) = self.second_level.get(&pt_page) {
            return Ok((pfn, false));
        }
        let pfn = phys.allocate_wired()?;
        self.second_level.insert(pt_page, pfn);
        Ok((pfn, true))
    }

    /// Looks up the wired frame for a page of the first-level table, as the
    /// cache controller does when a first-level PTE misses in the cache.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotResident`] if the page-table page was never
    /// wired (the OS has not touched any PTE in it).
    pub fn second_level_lookup(&self, pt_page: Vpn) -> Result<Pfn> {
        self.second_level
            .get(&pt_page)
            .copied()
            .ok_or(Error::NotResident(pt_page))
    }

    /// Translates a global address to a physical address using the logical
    /// table contents (no cache interaction, no cycle accounting) — the
    /// "architectural" translation used by tests and by the simulator's
    /// correctness cross-checks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotResident`] if the page's PTE is invalid.
    pub fn translate(&self, addr: GlobalAddr) -> Result<spur_types::PhysAddr> {
        let pte = self.pte(addr.vpn());
        if !pte.valid() {
            return Err(Error::NotResident(addr.vpn()));
        }
        let frame_base = (pte.pfn().index() as u64) << PAGE_SHIFT;
        Ok(spur_types::PhysAddr::new(
            (frame_base + addr.page_offset()) as u32,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_types::{MemSize, Protection};

    #[test]
    fn pte_vaddr_geometry() {
        let pt = PageTable::new();
        let v0 = pt.pte_vaddr(Vpn::new(0));
        let v1 = pt.pte_vaddr(Vpn::new(1));
        assert_eq!(v0.global_segment(), PT_GLOBAL_SEGMENT);
        assert_eq!(v1.raw() - v0.raw(), PTE_SIZE);
        // 1024 PTEs fit in one page of the table.
        assert_eq!(
            pt.pte_page_vpn(Vpn::new(0)),
            pt.pte_page_vpn(Vpn::new(PTES_PER_PAGE - 1))
        );
        assert_ne!(
            pt.pte_page_vpn(Vpn::new(0)),
            pt.pte_page_vpn(Vpn::new(PTES_PER_PAGE))
        );
    }

    #[test]
    fn vpn_for_pte_vaddr_inverts() {
        let pt = PageTable::new();
        for vpn in [0u64, 1, 1023, 1024, (1 << 26) - 1] {
            let vpn = Vpn::new(vpn);
            assert_eq!(pt.vpn_for_pte_vaddr(pt.pte_vaddr(vpn)), Some(vpn));
        }
        // Outside the PT segment:
        assert_eq!(pt.vpn_for_pte_vaddr(GlobalAddr::from_parts(1, 0)), None);
        // Misaligned:
        assert_eq!(
            pt.vpn_for_pte_vaddr(GlobalAddr::from_parts(PT_GLOBAL_SEGMENT, 2)),
            None
        );
    }

    #[test]
    fn absent_entries_read_invalid() {
        let pt = PageTable::new();
        assert!(!pt.pte(Vpn::new(77)).valid());
        assert!(pt.leaves.is_empty());
    }

    #[test]
    fn insert_update_remove() {
        let mut pt = PageTable::new();
        let vpn = Vpn::new(5);
        let prev = pt.insert(vpn, Pte::resident(Pfn::new(1), Protection::ReadOnly));
        assert!(!prev.valid());
        let updated = pt.update(vpn, |p| p.set_dirty(true));
        assert!(updated.dirty());
        assert!(pt.pte(vpn).dirty());
        let removed = pt.remove(vpn).unwrap();
        assert!(removed.dirty());
        assert!(!pt.pte(vpn).valid());
    }

    #[test]
    fn explicit_invalid_entries_are_tracked() {
        let mut pt = PageTable::new();
        let vpn = Vpn::new(2048);
        pt.insert(vpn, Pte::INVALID);
        assert!(!pt.pte(vpn).valid());
        assert_eq!(
            pt.remove(vpn),
            Some(Pte::INVALID),
            "an explicitly inserted invalid PTE is present"
        );
        assert!(
            pt.leaves.is_empty(),
            "removing the last entry drops its leaf"
        );
        assert_eq!(pt.remove(vpn), None, "second remove finds nothing");
        // Entries one leaf apart don't interfere.
        pt.insert(
            Vpn::new(5),
            Pte::resident(Pfn::new(1), Protection::ReadOnly),
        );
        pt.insert(
            Vpn::new(5 + PTES_PER_PAGE),
            Pte::resident(Pfn::new(2), Protection::ReadOnly),
        );
        assert_eq!(pt.leaves.len(), 2);
        assert_eq!(pt.pte(Vpn::new(5)).pfn(), Pfn::new(1));
        assert_eq!(pt.pte(Vpn::new(5 + PTES_PER_PAGE)).pfn(), Pfn::new(2));
    }

    #[test]
    fn second_level_wires_once_per_pt_page() {
        let mut pt = PageTable::new();
        let mut pm = PhysMemory::new(MemSize::new(1));
        let (f1, new1) = pt.ensure_second_level(Vpn::new(0), &mut pm).unwrap();
        let (f2, new2) = pt.ensure_second_level(Vpn::new(1023), &mut pm).unwrap();
        assert!(new1);
        assert!(!new2, "same page-table page must not wire twice");
        assert_eq!(f1, f2);
        let (_, new3) = pt.ensure_second_level(Vpn::new(1024), &mut pm).unwrap();
        assert!(new3, "next page-table page wires a new frame");
        assert_eq!(pt.second_level.len(), 2);
        assert_eq!(pm.wired_frames(), 2);
    }

    #[test]
    fn second_level_lookup_errors_when_missing() {
        let pt = PageTable::new();
        assert!(matches!(
            pt.second_level_lookup(Vpn::new(42)),
            Err(Error::NotResident(_))
        ));
    }

    #[test]
    fn architectural_translate() {
        let mut pt = PageTable::new();
        let vpn = Vpn::new(0x42);
        pt.insert(vpn, Pte::resident(Pfn::new(7), Protection::ReadWrite));
        let ga = GlobalAddr::new(vpn.base_addr().raw() + 0x123);
        let pa = pt.translate(ga).unwrap();
        assert_eq!(pa.pfn(), Pfn::new(7));
        assert_eq!(pa.page_offset(), 0x123);
        assert!(pt.translate(GlobalAddr::new(0)).is_err());
    }
}
