//! Page-residency statistics.
//!
//! Section 3.3 argues from residency times: "During times of heavy
//! paging, pages do not stay in memory long and thus are unlikely to be
//! modified"; with big memories most modifiable pages *are* modified
//! because they live long. This module measures residency directly:
//! lifetimes are clocked in page faults (the VM's natural notion of
//! time) and kept as a power-of-two histogram.

use core::fmt;

/// Number of power-of-two buckets (lifetimes up to 2^31 faults).
const BUCKETS: usize = 32;

/// A histogram of completed page residencies, measured in faults.
///
/// ```
/// use spur_vm::residency::ResidencyStats;
///
/// let mut rs = ResidencyStats::new();
/// rs.record(1);
/// rs.record(100);
/// rs.record(100);
/// assert_eq!(rs.count(), 3);
/// assert!((rs.mean() - 67.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidencyStats {
    buckets: [u64; BUCKETS],
    count: u64,
    total: u64,
    max: u64,
}

impl ResidencyStats {
    /// An empty histogram.
    pub fn new() -> Self {
        ResidencyStats {
            buckets: [0; BUCKETS],
            count: 0,
            total: 0,
            max: 0,
        }
    }

    /// Records one completed residency of `lifetime` faults.
    pub fn record(&mut self, lifetime: u64) {
        let bucket = (64 - lifetime.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total += lifetime;
        self.max = self.max.max(lifetime);
    }

    /// Completed residencies recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean lifetime in faults (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Fraction of residencies shorter than `faults`.
    pub fn fraction_shorter_than(&self, faults: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Conservative: count whole buckets strictly below the threshold
        // bucket.
        let threshold = (64 - faults.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        let below: u64 = self.buckets[..threshold].iter().sum();
        below as f64 / self.count as f64
    }
}

impl Default for ResidencyStats {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for ResidencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "residency[{} completed, mean {:.0} faults, max {}]",
            self.count,
            self.mean(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Non-empty `(bucket_floor, count)` pairs.
    fn buckets(rs: &ResidencyStats) -> Vec<(u64, u64)> {
        rs.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
            .collect()
    }

    #[test]
    fn empty_is_zero() {
        let rs = ResidencyStats::new();
        assert_eq!(rs.count(), 0);
        assert_eq!(rs.mean(), 0.0);
        assert_eq!(rs.fraction_shorter_than(100), 0.0);
        assert_eq!(buckets(&rs).len(), 0);
    }

    #[test]
    fn bucketing_is_power_of_two() {
        let mut rs = ResidencyStats::new();
        rs.record(1); // bucket 0 (floor 1)
        rs.record(2); // bucket 1 (floor 2)
        rs.record(3); // bucket 1
        rs.record(1024); // bucket 10
        let pairs = buckets(&rs);
        assert_eq!(pairs, vec![(1, 1), (2, 2), (1024, 1)]);
    }

    #[test]
    fn fraction_shorter_counts_whole_buckets() {
        let mut rs = ResidencyStats::new();
        for _ in 0..9 {
            rs.record(4);
        }
        rs.record(4096);
        assert!((rs.fraction_shorter_than(1024) - 0.9).abs() < 1e-12);
        assert_eq!(rs.fraction_shorter_than(2), 0.0);
    }

    #[test]
    fn zero_lifetime_is_clamped_to_bucket_zero() {
        let mut rs = ResidencyStats::new();
        rs.record(0);
        assert_eq!(rs.count(), 1);
        assert_eq!(buckets(&rs).first().copied(), Some((1, 1)));
    }

    #[test]
    fn huge_lifetimes_clamp_to_the_top_bucket() {
        let mut rs = ResidencyStats::new();
        rs.record(u64::MAX);
        assert_eq!(rs.max, u64::MAX);
        assert_eq!(buckets(&rs).first().copied(), Some((1 << 31, 1)));
    }
}
