//! The footnote-3 probability model for excess faults.
//!
//! Assume (a) a uniform interleaving of read and write misses to a page,
//! (b) infinitely large pages, and (c) necessary faults occur only on
//! write misses. Then the number of blocks brought in by reads *before*
//! the first write miss — the blocks that will later excess-fault — is
//! geometrically distributed: each miss is a write with probability
//!
//! ```text
//! p_w = N_w-miss / (N_w-hit + N_w-miss)
//! ```
//!
//! so the expected number of read-first blocks preceding the first write
//! is `(1 − p_w) / p_w`... but only the fraction of them that are
//! *eventually written* fault. Under the model's uniformity assumption
//! that fraction is again governed by the same ratio, giving the paper's
//! quoted prediction of "less than 20% as many excess faults as modified
//! faults" for `p_w ≈ 0.8`.
//!
//! Relaxing assumptions (b) and (c) only *reduces* the expected number of
//! excess faults, so the model is an upper bound — which the measurements
//! (15–34% with zero-fills excluded) straddle from above and below
//! because real workloads are not uniform.

use core::fmt;

use crate::events::EventCounts;

/// The geometric excess-fault model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExcessFaultModel {
    p_w: f64,
}

impl ExcessFaultModel {
    /// Builds the model from a write-miss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p_w <= 1`.
    pub(crate) fn new(p_w: f64) -> Self {
        assert!(p_w > 0.0 && p_w <= 1.0, "p_w must be in (0, 1], got {p_w}");
        ExcessFaultModel { p_w }
    }

    /// Builds the model from measured event counts:
    /// `p_w = N_w-miss / (N_w-hit + N_w-miss)`.
    ///
    /// # Panics
    ///
    /// Panics if both counts are zero.
    pub fn from_events(ev: &EventCounts) -> Self {
        let total = ev.n_whit + ev.n_wmiss;
        assert!(total > 0, "no write activity to model");
        Self::new(ev.n_wmiss as f64 / total as f64)
    }

    /// The write-miss probability.
    pub(crate) fn p_w(&self) -> f64 {
        self.p_w
    }

    /// Expected excess faults per necessary (modified-page) fault: the
    /// mean of the geometric distribution, `(1 − p_w) / p_w`.
    pub(crate) fn expected_excess_ratio(&self) -> f64 {
        (1.0 - self.p_w) / self.p_w
    }
}

impl fmt::Display for ExcessFaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "geometric(p_w={:.3}): E[excess/necessary]={:.3}",
            self.p_w,
            self.expected_excess_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ratio_prediction() {
        // Table 3.3: roughly one fifth of modified blocks read first →
        // p_w ≈ 0.8 → expected ratio ≈ 0.25; the paper says the model
        // predicts "less than 20%" at the measured 0.84–0.86.
        let ev = EventCounts {
            n_whit: 6_150_000,
            n_wmiss: 34_000_000,
            ..EventCounts::default()
        };
        let m = ExcessFaultModel::from_events(&ev);
        assert!((m.p_w() - 0.8468).abs() < 0.001);
        assert!(m.expected_excess_ratio() < 0.20, "paper: less than 20%");
        assert!(m.expected_excess_ratio() > 0.15);
    }

    #[test]
    fn certain_write_miss_means_no_excess() {
        let m = ExcessFaultModel::new(1.0);
        assert_eq!(m.expected_excess_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "p_w must be in")]
    fn zero_probability_rejected() {
        let _ = ExcessFaultModel::new(0.0);
    }

    #[test]
    fn display_shows_parameters() {
        let text = ExcessFaultModel::new(0.8).to_string();
        assert!(text.contains("p_w=0.800"));
    }
}
