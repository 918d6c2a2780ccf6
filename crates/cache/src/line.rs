//! The cache line (block frame) format of Figure 3.2(b).
//!
//! ```text
//! +---+----------------------+----+---+---+----+
//! | V |   Virtual Tag        | PR | P | B | CS |
//! +---+----------------------+----+---+---+----+
//! PR = Protection (2 bits)     P = Page Dirty Bit
//! B  = Block Dirty Bit         CS = Coherency State (2 bits)
//! ```
//!
//! Two dirty bits coexist in each line and must not be confused:
//!
//! * the **block** dirty bit (`B`) says this 32-byte block was modified
//!   while in the cache and needs writing back on eviction — ordinary
//!   write-back cache bookkeeping;
//! * the **page** dirty bit copy (`P`) is a *cached copy of the PTE's page
//!   dirty bit*, checked by SPUR's hardware on every write so that setting
//!   the page dirty bit can be trapped to software. Because it is a copy,
//!   it can go stale when the PTE changes — the mechanism behind both
//!   excess faults (`FAULT` policy) and dirty-bit misses (`SPUR` policy).

use core::fmt;

use spur_types::{BlockNum, Protection};

use crate::coherence::CoherencyState;

/// Index of a line within the direct-mapped cache (0..4096 on the
/// prototype).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineIndex(pub usize);

impl fmt::Display for LineIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line{}", self.0)
    }
}

/// One cache line.
///
/// The simulator tracks metadata only (no data bytes): the full block
/// number serves as the virtual tag, and an extra `filled_by_write` flag
/// supports the paper's `N_w-hit` statistic ("blocks brought into cache by
/// a read that are later modified").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// Valid bit.
    pub valid: bool,
    /// The global virtual block held (tag + index together).
    pub block: BlockNum,
    /// Cached copy of the page's protection (`PR`).
    pub prot: Protection,
    /// Cached copy of the page dirty bit (`P`).
    pub page_dirty: bool,
    /// Block dirty bit (`B`): modified while cached, needs write-back.
    pub block_dirty: bool,
    /// Berkeley Ownership coherency state (`CS`).
    pub state: CoherencyState,
    /// Whether the fill that brought this block in was a write miss
    /// (simulator-only bookkeeping for the `N_w-hit` / `N_w-miss` split).
    pub filled_by_write: bool,
}

impl CacheLine {
    /// An invalid (empty) line.
    pub const fn empty() -> Self {
        CacheLine {
            valid: false,
            block: BlockNum::new(0),
            prot: Protection::None,
            page_dirty: false,
            block_dirty: false,
            state: CoherencyState::Invalid,
            filled_by_write: false,
        }
    }

    /// Does this valid line hold `block`?
    pub(crate) fn matches(&self, block: BlockNum) -> bool {
        self.valid && self.block == block
    }

    /// Renders the bit layout, used by the Figure 3.2 regenerator.
    pub fn render_layout(&self) -> String {
        format!(
            "+---+----------------+----+---+---+----+\n\
             | {} | tag {:#09x} | {} | {} | {} | {:>2} |\n\
             +---+----------------+----+---+---+----+\n\
             PR=Protection P=PageDirty B=BlockDirty CS=CoherencyState",
            u8::from(self.valid),
            self.block.index(),
            self.prot,
            u8::from(self.page_dirty),
            u8::from(self.block_dirty),
            self.state.bits(),
        )
    }
}

impl Default for CacheLine {
    fn default() -> Self {
        Self::empty()
    }
}

impl fmt::Display for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.valid {
            return write!(f, "line[invalid]");
        }
        write!(
            f,
            "line[{} pr={} P={} B={} cs={}]",
            self.block,
            self.prot,
            u8::from(self.page_dirty),
            u8::from(self.block_dirty),
            self.state,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_line_is_invalid() {
        let line = CacheLine::empty();
        assert!(!line.valid);
        assert!(
            !line.matches(BlockNum::new(0)),
            "invalid lines match nothing"
        );
        assert_eq!(line.state, CoherencyState::Invalid);
    }

    #[test]
    fn matches_requires_valid_and_equal_tag() {
        let mut line = CacheLine::empty();
        line.valid = true;
        line.block = BlockNum::new(42);
        assert!(line.matches(BlockNum::new(42)));
        assert!(!line.matches(BlockNum::new(43)));
    }

    #[test]
    fn page_and_block_dirty_are_independent() {
        let mut line = CacheLine::empty();
        line.page_dirty = true;
        assert!(!line.block_dirty);
        line.block_dirty = true;
        line.page_dirty = false;
        assert!(line.block_dirty);
    }

    #[test]
    fn layout_render_mentions_both_dirty_bits() {
        let text = CacheLine::empty().render_layout();
        assert!(text.contains("PageDirty"));
        assert!(text.contains("BlockDirty"));
        assert!(text.contains("CoherencyState"));
    }

    #[test]
    fn display_shows_invalid_and_valid_forms() {
        let mut line = CacheLine::empty();
        assert_eq!(format!("{line}"), "line[invalid]");
        line.valid = true;
        assert!(format!("{line}").contains("pr="));
    }
}
