//! Small-sample statistics for repeated experiment runs.
//!
//! The paper "ran five repetitions of each data point, using a
//! randomized experiment design to minimize bias" (Section 4.2). This
//! module provides the mean/spread machinery the runners use to report
//! repetition variability.

use core::fmt;

/// Summary statistics over a small sample.
///
/// ```
/// use spur_core::stats::Sample;
///
/// let s = Sample::from_values(&[10.0, 12.0, 11.0, 13.0, 9.0]);
/// assert_eq!(s.n(), 5);
/// assert!((s.mean() - 11.0).abs() < 1e-12);
/// assert!(s.stddev() > 1.0 && s.stddev() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    n: usize,
    mean: f64,
    m2: f64,
}

impl Sample {
    /// An empty sample.
    pub(crate) fn new() -> Self {
        Sample {
            n: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Builds a sample from a slice.
    pub fn from_values(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation (Welford's online update).
    pub(crate) fn push(&mut self, v: f64) {
        self.n += 1;
        let d = v - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (v - self.mean);
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample mean (0 for an empty sample).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (Bessel-corrected; 0 for n < 2).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Half-width of an approximate 95% confidence interval for the mean.
    ///
    /// Uses Student-t critical values for n ≤ 10 and 1.96 beyond — the
    /// precision appropriate to 3–5 repetitions of a simulation.
    pub(crate) fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        const T: [f64; 9] = [
            12.71, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        ];
        let t = if self.n - 2 < T.len() {
            T[self.n - 2]
        } else {
            1.96
        };
        t * self.stddev() / (self.n as f64).sqrt()
    }
}

impl Default for Sample {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} ± {:.2} (n={})",
            self.mean(),
            self.ci95_half_width(),
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_safe() {
        let s = Sample::new();
        assert_eq!(s.n(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let values = [3.1, 4.1, 5.9, 2.6, 5.3, 5.8, 9.7, 9.3];
        let s = Sample::from_values(&values);
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        let var: f64 =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.stddev() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_observation_has_zero_spread() {
        let s = Sample::from_values(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn ci_uses_t_distribution_for_small_n() {
        // n=2 → t = 12.71: the CI must be enormous relative to stddev.
        let s2 = Sample::from_values(&[1.0, 2.0]);
        assert!(s2.ci95_half_width() > 6.0);
        // n=5 → t = 2.776.
        let s5 = Sample::from_values(&[1.0, 2.0, 1.0, 2.0, 1.5]);
        let expected = 2.776 * s5.stddev() / 5f64.sqrt();
        assert!((s5.ci95_half_width() - expected).abs() < 1e-12);
    }

    #[test]
    fn display_is_compact() {
        let s = Sample::from_values(&[10.0, 12.0]);
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains('±'));
    }
}
