//! Aggregate virtual-memory statistics.

use core::fmt;

/// Counters the VM system accumulates across a run.
///
/// These complement the cache controller's performance counters: the
/// hardware counts events it can see (faults, misses); the OS counts what
/// it did about them (page-ins, reclaims, daemon sweeps).
///
/// ```
/// use spur_vm::stats::VmStats;
///
/// let stats = VmStats {
///     page_ins: 100,
///     zero_fills: 40,
///     soft_faults: 10,
///     page_faults: 150,
///     ..VmStats::new()
/// };
/// assert_eq!(stats.page_faults, stats.page_ins + stats.zero_fills + stats.soft_faults);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Pages read from backing store (Table 4.1 "Page-Ins").
    pub page_ins: u64,
    /// Pages satisfied by zero-fill instead of I/O.
    pub zero_fills: u64,
    /// Pages reclaimed by the daemon.
    pub reclaims: u64,
    /// Resident pages examined by the daemon.
    pub daemon_scans: u64,
    /// Reference bits cleared by the daemon.
    pub ref_clears: u64,
    /// Pages flushed from the cache by the daemon (`REF` policy).
    pub ref_flushes: u64,
    /// Cache blocks written back during daemon page flushes.
    pub flush_writebacks: u64,
    /// Pages reclaimed from the free list without I/O (soft faults) —
    /// the Sprite mechanism that makes FIFO-ish replacement survivable.
    pub soft_faults: u64,
    /// Total page faults handled (page-ins + zero-fills + soft faults).
    pub page_faults: u64,
    /// High-water mark of simultaneously resident (replaceable) pages.
    pub resident_high_water: u64,
}

impl VmStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }
}

impl fmt::Display for VmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vm[{} faults: {} page-ins + {} zero-fills; {} reclaims, {} scans, {} ref-clears]",
            self.page_faults,
            self.page_ins,
            self.zero_fills,
            self.reclaims,
            self.daemon_scans,
            self.ref_clears
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = VmStats::new();
        assert_eq!(s.page_ins, 0);
        assert_eq!(s.page_faults, 0);
    }

    #[test]
    fn display_is_informative() {
        let mut s = VmStats::new();
        s.page_ins = 3;
        s.page_faults = 5;
        let text = s.to_string();
        assert!(text.contains("3 page-ins"));
        assert!(text.contains("5 faults"));
    }
}
