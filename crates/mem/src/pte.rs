//! The page table entry format of Figure 3.2(a).
//!
//! A SPUR PTE is one 32-bit word:
//!
//! ```text
//!  31                      12 11 10  9   8   7   6   5
//! +--------------------------+------+---+---+---+---+---+-----+
//! |   Physical Page Number   |  PR  | C | K | D | R | V | ... |
//! +--------------------------+------+---+---+---+---+---+-----+
//! PR = Protection (2 bits)    C = Coherency     K = Cacheable
//! D  = Page Dirty Bit         R = Page Referenced Bit
//! V  = Page Valid Bit
//! ```
//!
//! The `D` and `R` bits here are the *page*-level bits that the paper's
//! policies maintain; they are distinct from the cache's per-line block
//! dirty bit (Figure 3.2(b), implemented in `spur-cache`).

use core::fmt;

use spur_types::{Pfn, Protection};

const PR_SHIFT: u32 = 10;
const C_BIT: u32 = 1 << 9;
const K_BIT: u32 = 1 << 8;
const D_BIT: u32 = 1 << 7;
const R_BIT: u32 = 1 << 6;
const V_BIT: u32 = 1 << 5;
const PFN_SHIFT: u32 = 12;

/// A page table entry.
///
/// ```
/// use spur_mem::pte::Pte;
/// use spur_types::{Pfn, Protection};
///
/// let mut pte = Pte::resident(Pfn::new(0x123), Protection::ReadOnly);
/// assert!(pte.valid());
/// assert!(!pte.dirty());
/// pte.set_dirty(true);
/// assert!(pte.dirty());
///
/// // The format round-trips through the raw 32-bit word:
/// let same = Pte::from_raw(pte.raw());
/// assert_eq!(same, pte);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte {
    raw: u32,
}

impl Pte {
    /// An invalid (all-zero) entry.
    pub const INVALID: Pte = Pte { raw: 0 };

    /// Creates a valid, resident, cacheable, coherent entry for `pfn` with
    /// the given protection; dirty and referenced start clear.
    pub fn resident(pfn: Pfn, prot: Protection) -> Self {
        let mut pte = Pte { raw: 0 };
        pte.set_pfn(pfn);
        pte.set_protection(prot);
        pte.set_cacheable(true);
        pte.set_coherent(true);
        pte.set_valid(true);
        pte
    }

    /// Reconstructs an entry from its raw 32-bit word.
    pub const fn from_raw(raw: u32) -> Self {
        Pte { raw }
    }

    /// Returns the raw 32-bit word.
    pub const fn raw(self) -> u32 {
        self.raw
    }

    /// The physical frame this page maps to (meaningful only when valid).
    pub const fn pfn(self) -> Pfn {
        Pfn::new(self.raw >> PFN_SHIFT)
    }

    /// Sets the physical frame number.
    ///
    /// # Panics
    ///
    /// Panics if the frame number needs more than 20 bits.
    pub fn set_pfn(&mut self, pfn: Pfn) {
        let idx = pfn.index() as u32;
        assert!(idx < (1 << 20), "frame number exceeds 20 bits");
        self.raw = (self.raw & ((1 << PFN_SHIFT) - 1)) | (idx << PFN_SHIFT);
    }

    /// The two-bit protection field (`PR`).
    #[inline]
    pub const fn protection(self) -> Protection {
        Protection::from_bits(((self.raw >> PR_SHIFT) & 0b11) as u8)
    }

    /// Sets the protection field.
    pub fn set_protection(&mut self, prot: Protection) {
        self.raw = (self.raw & !(0b11 << PR_SHIFT)) | ((prot.bits() as u32) << PR_SHIFT);
    }

    /// The coherency bit (`C`): participate in the bus coherence protocol.
    pub const fn coherent(self) -> bool {
        self.raw & C_BIT != 0
    }

    /// Sets the coherency bit.
    pub fn set_coherent(&mut self, on: bool) {
        self.set_bit(C_BIT, on);
    }

    /// The cacheable bit (`K`).
    pub const fn cacheable(self) -> bool {
        self.raw & K_BIT != 0
    }

    /// Sets the cacheable bit.
    pub fn set_cacheable(&mut self, on: bool) {
        self.set_bit(K_BIT, on);
    }

    /// The page dirty bit (`D`).
    pub const fn dirty(self) -> bool {
        self.raw & D_BIT != 0
    }

    /// Sets or clears the page dirty bit.
    pub fn set_dirty(&mut self, on: bool) {
        self.set_bit(D_BIT, on);
    }

    /// The page referenced bit (`R`).
    pub const fn referenced(self) -> bool {
        self.raw & R_BIT != 0
    }

    /// Sets or clears the page referenced bit.
    pub fn set_referenced(&mut self, on: bool) {
        self.set_bit(R_BIT, on);
    }

    /// The valid bit (`V`).
    pub const fn valid(self) -> bool {
        self.raw & V_BIT != 0
    }

    /// Sets or clears the valid bit.
    pub fn set_valid(&mut self, on: bool) {
        self.set_bit(V_BIT, on);
    }

    fn set_bit(&mut self, mask: u32, on: bool) {
        if on {
            self.raw |= mask;
        } else {
            self.raw &= !mask;
        }
    }

    /// Renders the bit layout of this entry, used by the Figure 3.2
    /// regenerator.
    pub fn render_layout(self) -> String {
        format!(
            " 31        12 11-10  9   8   7   6   5\n\
             +-------------+----+---+---+---+---+---+\n\
             | PFN {:#07x} | {} | {} | {} | {} | {} | {} |\n\
             +-------------+----+---+---+---+---+---+\n\
             PR=Protection C=Coherency K=Cacheable D=PageDirty R=Referenced V=Valid",
            self.pfn().index(),
            self.protection(),
            u8::from(self.coherent()),
            u8::from(self.cacheable()),
            u8::from(self.dirty()),
            u8::from(self.referenced()),
            u8::from(self.valid()),
        )
    }
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pte[pfn={:#x} pr={} c={} k={} d={} r={} v={}]",
            self.pfn().index(),
            self.protection(),
            u8::from(self.coherent()),
            u8::from(self.cacheable()),
            u8::from(self.dirty()),
            u8::from(self.referenced()),
            u8::from(self.valid()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_is_all_zero() {
        assert_eq!(Pte::INVALID.raw(), 0);
        assert!(!Pte::INVALID.valid());
        assert!(!Pte::INVALID.dirty());
        assert!(!Pte::INVALID.referenced());
    }

    #[test]
    fn resident_sets_expected_bits() {
        let pte = Pte::resident(Pfn::new(5), Protection::ReadWrite);
        assert!(pte.valid());
        assert!(pte.cacheable());
        assert!(pte.coherent());
        assert!(!pte.dirty());
        assert!(!pte.referenced());
        assert_eq!(pte.pfn(), Pfn::new(5));
        assert_eq!(pte.protection(), Protection::ReadWrite);
    }

    #[test]
    fn bits_are_independent() {
        let mut pte = Pte::resident(Pfn::new(0xfffff), Protection::ReadOnly);
        pte.set_dirty(true);
        pte.set_referenced(true);
        assert_eq!(pte.pfn(), Pfn::new(0xfffff));
        assert_eq!(pte.protection(), Protection::ReadOnly);
        pte.set_dirty(false);
        assert!(pte.referenced(), "clearing D must not clear R");
        pte.set_referenced(false);
        assert!(pte.valid(), "clearing R must not clear V");
        pte.set_protection(Protection::ReadWrite);
        assert_eq!(
            pte.pfn(),
            Pfn::new(0xfffff),
            "PR update must not clobber PFN"
        );
    }

    #[test]
    fn raw_round_trip() {
        let mut pte = Pte::resident(Pfn::new(0x3_1415 & 0xfffff), Protection::Execute);
        pte.set_dirty(true);
        assert_eq!(Pte::from_raw(pte.raw()), pte);
    }

    #[test]
    #[should_panic(expected = "20 bits")]
    fn pfn_overflow_panics() {
        let mut pte = Pte::INVALID;
        pte.set_pfn(Pfn::new(1 << 20));
    }

    #[test]
    fn layout_render_mentions_every_field() {
        let text = Pte::resident(Pfn::new(1), Protection::ReadWrite).render_layout();
        for field in ["PR", "C=", "K=", "D=", "R=", "V="] {
            assert!(text.contains(field), "missing {field} in layout");
        }
    }
}
