//! Log2-bucket histograms.
//!
//! Distributions the end-of-run totals can't express — inter-fault
//! distance, writes per residency, fault cost, per-job wall time —
//! span many orders of magnitude, so buckets double: bucket 0 holds
//! the value 0, bucket *i* ≥ 1 holds values in
//! `[2^(i-1), 2^i - 1]`. 65 buckets cover the full `u64` range
//! (bucket 64 holds `[2^63, u64::MAX]`).

/// Number of buckets: one for zero plus one per bit of `u64`.
pub(crate) const BUCKETS: usize = 65;

/// A fixed-size log2-bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// What is being measured, e.g. `"inter_fault_refs"`. Used as the
    /// key when the histogram is exported.
    name: String,
    counts: [u64; BUCKETS],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// The bucket a value lands in: 0 for 0, else `64 - leading_zeros`
/// (so 1 → bucket 1, 2..=3 → bucket 2, 4..=7 → bucket 3, …).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive `[lo, hi]` value range of bucket `i`.
pub fn bucket_range(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == 64 {
        (1 << 63, u64::MAX)
    } else {
        (1 << (i - 1), (1 << i) - 1)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new(name: impl Into<String>) -> Self {
        Histogram {
            name: name.into(),
            counts: [0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Mean sample, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Count in bucket `i`.
    pub(crate) fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Estimates the `q`-quantile of the recorded samples, or `None` if
    /// the histogram is empty or `q` is not a real fraction — NaN and
    /// anything outside `[0, 1]` are caller errors, not quantiles, and
    /// silently clamping them would dress up a bogus request as the
    /// observed min or max.
    ///
    /// The estimate interpolates linearly inside the bucket holding the
    /// target rank and is clamped to the observed `[min, max]`, so a
    /// histogram of identical samples returns that exact value and
    /// `quantile(1.0)` always returns the true maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Target rank in 1..=total: the smallest rank covering fraction q.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        // Rank 1 is the minimum sample itself — interpolating within
        // its bucket would report the bucket's span, not the value.
        if rank == 1 {
            return Some(self.min);
        }
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            let count = self.counts[i];
            if count == 0 {
                continue;
            }
            if seen + count >= rank {
                let (lo, hi) = bucket_range(i);
                // Position of the rank within this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / count as f64;
                let width = (hi - lo) as f64;
                let est = lo.saturating_add((frac * width) as u64);
                return Some(est.clamp(self.min, self.max));
            }
            seen += count;
        }
        Some(self.max) // unreachable in practice: total > 0
    }

    /// Folds another histogram's samples into this one: bucket counts
    /// and totals add (sum saturating), min/max widen. The name stays
    /// `self`'s — merging is how per-thread histograms collapse into
    /// one report.
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        for i in 0..BUCKETS {
            self.counts[i] += other.counts[i];
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lo, hi, count)`, lowest first.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        (0..BUCKETS)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| {
                let (lo, hi) = bucket_range(i);
                (lo, hi, self.counts[i])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_zero_one_and_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        // Each power of two opens a new bucket; one less closes the
        // previous bucket.
        for bit in 1..64 {
            let p: u64 = 1 << bit;
            assert_eq!(bucket_index(p), bit + 1, "2^{bit} opens bucket {}", bit + 1);
            assert_eq!(bucket_index(p - 1), bit, "2^{bit}-1 stays in bucket {bit}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_ranges_tile_the_u64_domain() {
        assert_eq!(bucket_range(0), (0, 0));
        assert_eq!(bucket_range(1), (1, 1));
        assert_eq!(bucket_range(2), (2, 3));
        assert_eq!(bucket_range(64), (1 << 63, u64::MAX));
        // Consecutive buckets are adjacent: hi(i) + 1 == lo(i+1).
        for i in 0..BUCKETS - 1 {
            let (_, hi) = bucket_range(i);
            let (lo, _) = bucket_range(i + 1);
            assert_eq!(hi + 1, lo, "gap between buckets {i} and {}", i + 1);
        }
        // And each range round-trips through bucket_index.
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bucket_range_rejects_out_of_range_index() {
        bucket_range(BUCKETS);
    }

    #[test]
    fn records_track_count_sum_min_max_mean() {
        let mut h = Histogram::new("t");
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.mean(), Some(1006.0 / 5.0));
    }

    #[test]
    fn extreme_values_land_in_terminal_buckets() {
        let mut h = Histogram::new("t");
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(64), 2);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        let nz = h.nonzero_buckets();
        assert_eq!(nz, vec![(0, 0, 1), (1 << 63, u64::MAX, 2)]);
    }

    #[test]
    fn nonzero_buckets_skip_empty_ranges() {
        let mut h = Histogram::new("t");
        h.record(5); // bucket 3: [4,7]
        h.record(6);
        h.record(100); // bucket 7: [64,127]
        assert_eq!(h.nonzero_buckets(), vec![(4, 7, 2), (64, 127, 1)]);
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let h = Histogram::new("t");
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn quantile_of_single_bucket_returns_the_exact_value() {
        // All samples identical: every quantile is that value, thanks
        // to the [min, max] clamp.
        let mut h = Histogram::new("t");
        for _ in 0..10 {
            h.record(7);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7), "q={q}");
        }
        // A single sample behaves the same way.
        let mut one = Histogram::new("t");
        one.record(12345);
        assert_eq!(one.quantile(0.5), Some(12345));
    }

    #[test]
    fn quantile_orders_across_buckets() {
        let mut h = Histogram::new("t");
        // 90 small samples, 10 large ones.
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.9), Some(1));
        let p99 = h.quantile(0.99).unwrap();
        assert!(
            (512..=1000).contains(&p99),
            "p99 {p99} lands in the large bucket, clamped to max"
        );
        assert_eq!(h.quantile(1.0), Some(1000), "q=1 is the true max");
        // Quantiles are monotone in q.
        let mut prev = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile not monotone at q={q}");
            prev = v;
        }
    }

    #[test]
    fn quantile_saturating_extremes() {
        let mut h = Histogram::new("t");
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn quantile_rejects_nan_and_out_of_range_q() {
        let mut h = Histogram::new("t");
        h.record(5);
        h.record(50);
        assert_eq!(h.quantile(f64::NAN), None);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        // The boundaries themselves are valid.
        assert_eq!(h.quantile(0.0), Some(5));
        assert_eq!(h.quantile(1.0), Some(50));
    }

    #[test]
    fn merge_folds_counts_moments_and_extremes() {
        let mut a = Histogram::new("a");
        a.record(1);
        a.record(2);
        let mut b = Histogram::new("b");
        b.record(1000);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.name(), "a", "merge keeps the receiver's name");
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(u64::MAX));
        assert_eq!(a.sum(), u64::MAX, "sum saturates");
        assert_eq!(a.bucket_count(bucket_index(1000)), 1);
        assert_eq!(a.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::new("a");
        a.record(5);
        let before = a.clone();
        a.merge(&Histogram::new("empty"));
        assert_eq!(a, before);

        let mut empty = Histogram::new("empty");
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.min(), Some(5));
        assert_eq!(empty.max(), Some(5));
        assert_eq!(empty.quantile(0.5), Some(5));
    }
}
