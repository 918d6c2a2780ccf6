//! Elapsed-time decomposition.
//!
//! The paper reports elapsed wall-clock seconds; to audit *why* a policy
//! is slower, the simulator attributes every cycle it charges to one of
//! a few categories. The decomposition is what shows, e.g., that `REF`
//! loses on flush overhead while `NOREF` loses on paging I/O.

use core::fmt;
use core::ops::{Index, IndexMut};

use spur_types::Cycles;

/// Where a cycle went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleCategory {
    /// The one cycle every reference costs on a hit.
    BaseExecution,
    /// Cache miss service: translation probes and block fills.
    MissService,
    /// Dirty-bit machinery: faults, dirty-bit misses, PTE checks,
    /// policy-triggered flushes.
    DirtyBit,
    /// Reference-bit machinery: ref faults and daemon flush work.
    RefBit,
    /// Paging I/O and fault service (page-ins, zero-fills, page-outs).
    Paging,
    /// Page-daemon scanning.
    Daemon,
}

impl CycleCategory {
    /// All categories, in display order.
    pub const ALL: [CycleCategory; 6] = [
        CycleCategory::BaseExecution,
        CycleCategory::MissService,
        CycleCategory::DirtyBit,
        CycleCategory::RefBit,
        CycleCategory::Paging,
        CycleCategory::Daemon,
    ];

    fn idx(self) -> usize {
        match self {
            CycleCategory::BaseExecution => 0,
            CycleCategory::MissService => 1,
            CycleCategory::DirtyBit => 2,
            CycleCategory::RefBit => 3,
            CycleCategory::Paging => 4,
            CycleCategory::Daemon => 5,
        }
    }
}

impl fmt::Display for CycleCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CycleCategory::BaseExecution => "base execution",
            CycleCategory::MissService => "miss service",
            CycleCategory::DirtyBit => "dirty-bit machinery",
            CycleCategory::RefBit => "reference-bit machinery",
            CycleCategory::Paging => "paging",
            CycleCategory::Daemon => "page daemon",
        };
        f.write_str(s)
    }
}

/// Cycles accumulated per category.
///
/// ```
/// use spur_core::breakdown::{CycleBreakdown, CycleCategory};
/// use spur_types::Cycles;
///
/// let mut b = CycleBreakdown::new();
/// b[CycleCategory::Paging] += Cycles::new(1000);
/// b[CycleCategory::BaseExecution] += Cycles::new(3000);
/// assert_eq!(b.total(), Cycles::new(4000));
/// assert!((b.fraction(CycleCategory::Paging) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    buckets: [Cycles; 6],
}

impl CycleBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total cycles across all categories.
    pub fn total(&self) -> Cycles {
        self.buckets.iter().copied().sum()
    }

    /// This category's share of the total (0 when the total is zero).
    pub fn fraction(&self, cat: CycleCategory) -> f64 {
        let total = self.total().raw();
        if total == 0 {
            0.0
        } else {
            self.buckets[cat.idx()].raw() as f64 / total as f64
        }
    }

    /// Iterates `(category, cycles)` in display order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (CycleCategory, Cycles)> + '_ {
        CycleCategory::ALL
            .into_iter()
            .map(|c| (c, self.buckets[c.idx()]))
    }

    /// Renders a one-breakdown table body.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (cat, cycles) in self.iter() {
            out.push_str(&format!(
                "  {:<24} {:>12.3} Mcycles  ({:>5.1}%)\n",
                cat.to_string(),
                cycles.millions(),
                100.0 * self.fraction(cat)
            ));
        }
        out.push_str(&format!(
            "  {:<24} {:>12.3} Mcycles\n",
            "total",
            self.total().millions()
        ));
        out
    }
}

impl Index<CycleCategory> for CycleBreakdown {
    type Output = Cycles;
    fn index(&self, cat: CycleCategory) -> &Cycles {
        &self.buckets[cat.idx()]
    }
}

impl IndexMut<CycleCategory> for CycleBreakdown {
    fn index_mut(&mut self, cat: CycleCategory) -> &mut Cycles {
        &mut self.buckets[cat.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_breakdown_is_zero() {
        let b = CycleBreakdown::new();
        assert_eq!(b.total(), Cycles::ZERO);
        assert_eq!(b.fraction(CycleCategory::Paging), 0.0);
    }

    #[test]
    fn indexing_and_totals() {
        let mut b = CycleBreakdown::new();
        b[CycleCategory::DirtyBit] += Cycles::new(100);
        b[CycleCategory::RefBit] += Cycles::new(300);
        assert_eq!(b[CycleCategory::DirtyBit], Cycles::new(100));
        assert_eq!(b.total(), Cycles::new(400));
        assert!((b.fraction(CycleCategory::RefBit) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn iter_covers_all_categories_once() {
        let b = CycleBreakdown::new();
        let cats: Vec<_> = b.iter().map(|(c, _)| c).collect();
        assert_eq!(cats.len(), 6);
        assert_eq!(cats[0], CycleCategory::BaseExecution);
    }

    #[test]
    fn render_mentions_every_category() {
        let mut b = CycleBreakdown::new();
        b[CycleCategory::Daemon] += Cycles::new(1);
        let text = b.render();
        for cat in CycleCategory::ALL {
            assert!(text.contains(&cat.to_string()), "missing {cat}");
        }
        assert!(text.contains("total"));
    }
}
