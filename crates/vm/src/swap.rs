//! Backing-store accounting.
//!
//! The swap model tracks which pages currently have a backing copy and the
//! page-out bookkeeping behind Tables 3.3 and 3.5:
//!
//! * a **code** or **file** page always has a backing copy (its file) and
//!   is never written back;
//! * a **zero-filled** page has no backing copy at first; Sprite "will
//!   always write a zero-filled page to swap the first time it is
//!   replaced, even if the program has not modified it" (footnote 4);
//! * after its first swap-out, a page behaves normally: it is written back
//!   only if dirty.
//!
//! Table 3.5's central statistic — the fraction of *potentially modified*
//! (writable) pages that were **not** modified when replaced — is
//! accumulated here.

use core::fmt;
use std::collections::HashSet;

use spur_types::Vpn;

use crate::region::PageKind;

/// Backing-store state and page-out statistics.
///
/// ```
/// use spur_vm::swap::Swap;
/// use spur_vm::region::PageKind;
/// use spur_types::Vpn;
///
/// let mut swap = Swap::new();
/// // A clean file page replaced: the dirty bit saved a write.
/// let out = swap.replace(Vpn::new(1), PageKind::FileData, false);
/// assert!(!out.wrote);
/// assert_eq!(swap.not_modified, 1);
/// // A dirty one pays the page-out.
/// assert!(swap.replace(Vpn::new(2), PageKind::FileData, true).wrote);
/// assert_eq!(swap.percent_not_modified(), 50.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Swap {
    /// Pages that currently have a copy on swap.
    on_swap: HashSet<Vpn>,
    /// Writable pages replaced (Table 3.5 "Potentially Modified Pages").
    pub potentially_modified: u64,
    /// Writable pages replaced with a clear dirty bit whose write-back
    /// was actually *saved* by the dirty bit (Table 3.5 "Not Modified
    /// Pages"). First replacements of zero-fill pages are excluded: Sprite
    /// writes those regardless (footnote 4), so no I/O was saved.
    pub not_modified: u64,
    /// Actual write-backs performed (dirty pages plus forced first-time
    /// zero-fill writes).
    pub page_outs: u64,
}

/// What replacing a page required of the backing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaceOutcome {
    /// A write to backing store was performed.
    pub wrote: bool,
    /// The write happened *only* because of the zero-fill first-replacement
    /// rule, not because the page was dirty.
    pub forced: bool,
}

impl Swap {
    /// Creates an empty backing store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Does faulting `vpn` in require a read from backing store?
    ///
    /// Code and file pages always read from their file. A zero-fill page
    /// reads from swap only if it has been swapped out before; otherwise
    /// its first touch is satisfied by zeroing a frame.
    pub(crate) fn fault_in_reads(&self, vpn: Vpn, kind: PageKind) -> bool {
        if kind.zero_fill() {
            self.on_swap.contains(&vpn)
        } else {
            true
        }
    }

    /// Records the replacement of `vpn` and returns what I/O it required.
    ///
    /// `dirty` is the page's (software) dirty bit at replacement time.
    pub fn replace(&mut self, vpn: Vpn, kind: PageKind, dirty: bool) -> ReplaceOutcome {
        let mut outcome = ReplaceOutcome {
            wrote: false,
            forced: false,
        };
        if !kind.writable() {
            // Code: drop silently; the file still has it.
            return outcome;
        }
        self.potentially_modified += 1;
        if dirty {
            self.page_outs += 1;
            self.on_swap.insert(vpn);
            outcome.wrote = true;
        } else if kind.zero_fill() && !self.on_swap.contains(&vpn) {
            // Footnote 4: the first replacement of a zero-fill page writes
            // regardless of the dirty bit, so nothing was saved here.
            self.page_outs += 1;
            self.on_swap.insert(vpn);
            outcome.wrote = true;
            outcome.forced = true;
        } else {
            self.not_modified += 1;
        }
        outcome
    }

    /// Table 3.5 "Percent Not Modified": the fraction of potentially
    /// modified pages that were clean at replacement.
    pub fn percent_not_modified(&self) -> f64 {
        if self.potentially_modified == 0 {
            0.0
        } else {
            100.0 * self.not_modified as f64 / self.potentially_modified as f64
        }
    }

    /// Table 3.5 "Percent Additional Paging I/O": how much total paging
    /// I/O would grow if dirty bits were dropped and every clean writable
    /// page were written back anyway. `page_ins` comes from [`crate::stats::VmStats`].
    pub fn percent_additional_io(&self, page_ins: u64) -> f64 {
        let actual_io = page_ins + self.page_outs;
        if actual_io == 0 {
            0.0
        } else {
            // Every saved write would become a real write-back.
            100.0 * self.not_modified as f64 / actual_io as f64
        }
    }
}

impl fmt::Display for Swap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "swap[{} copies, {} outs, {}/{} clean-of-writable]",
            self.on_swap.len(),
            self.page_outs,
            self.not_modified,
            self.potentially_modified
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_pages_never_write_back() {
        let mut swap = Swap::new();
        let out = swap.replace(Vpn::new(1), PageKind::Code, false);
        assert!(!out.wrote);
        assert_eq!(swap.potentially_modified, 0);
        assert_eq!(swap.page_outs, 0);
    }

    #[test]
    fn dirty_writable_page_writes_back() {
        let mut swap = Swap::new();
        let out = swap.replace(Vpn::new(1), PageKind::FileData, true);
        assert!(out.wrote);
        assert!(!out.forced);
        assert_eq!(swap.potentially_modified, 1);
        assert_eq!(swap.not_modified, 0);
        assert_eq!(swap.page_outs, 1);
    }

    #[test]
    fn clean_file_page_skips_write() {
        let mut swap = Swap::new();
        let out = swap.replace(Vpn::new(1), PageKind::FileData, false);
        assert!(!out.wrote);
        assert_eq!(swap.not_modified, 1);
        assert_eq!(swap.page_outs, 0);
    }

    #[test]
    fn zero_fill_first_replacement_is_forced_write() {
        let mut swap = Swap::new();
        let vpn = Vpn::new(9);
        let first = swap.replace(vpn, PageKind::Heap, false);
        assert!(first.wrote && first.forced, "footnote 4: forced write");
        assert!(swap.on_swap.contains(&vpn));
        // The forced write saved nothing, so it is not "not modified".
        assert_eq!(swap.not_modified, 0);
        // Second clean replacement is a genuinely saved write.
        let second = swap.replace(vpn, PageKind::Heap, false);
        assert!(!second.wrote);
        assert_eq!(swap.page_outs, 1);
        assert_eq!(swap.not_modified, 1);
    }

    #[test]
    fn zero_fill_reads_only_after_swap_out() {
        let mut swap = Swap::new();
        let vpn = Vpn::new(5);
        assert!(
            !swap.fault_in_reads(vpn, PageKind::Stack),
            "first touch zero-fills"
        );
        assert!(
            swap.fault_in_reads(vpn, PageKind::Code),
            "code always reads"
        );
        swap.replace(vpn, PageKind::Stack, true);
        assert!(
            swap.fault_in_reads(vpn, PageKind::Stack),
            "reads after swap-out"
        );
    }

    #[test]
    fn table_3_5_percentages() {
        let mut swap = Swap::new();
        // 10 dirty replacements, 2 clean (non-zero-fill) replacements.
        for i in 0..10 {
            swap.replace(Vpn::new(i), PageKind::FileData, true);
        }
        for i in 10..12 {
            swap.replace(Vpn::new(i), PageKind::FileData, false);
        }
        assert!((swap.percent_not_modified() - 100.0 * 2.0 / 12.0).abs() < 1e-9);
        // With 100 page-ins: actual IO = 100 + 10; extra = 2.
        assert!((swap.percent_additional_io(100) - 100.0 * 2.0 / 110.0).abs() < 1e-9);
    }

    #[test]
    fn empty_swap_percentages_are_zero() {
        let swap = Swap::new();
        assert_eq!(swap.percent_not_modified(), 0.0);
        assert_eq!(swap.percent_additional_io(0), 0.0);
    }
}
