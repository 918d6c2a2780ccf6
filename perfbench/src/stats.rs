//! Order statistics and digests shared by every workload.

/// Median of `values` (mean of the middle pair for even counts).
/// Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it. Zero for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match rank(v.len(), p) {
        0 => 0.0,
        r => v[r - 1],
    }
}

/// 1-based nearest rank of the `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `p`-th percentile.
#[cfg(test)]
fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Jobs per latency window: the fewest for which a window's p99 has
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub const WINDOW: usize = 1000;

/// The p99 of a run whose job latencies arrive in `groups` (stream
/// units, sweeps or serve windows), in order: the median over
/// consecutive windows of at least [`WINDOW`] jobs of each window's
/// p99. On a shared host, stalls that hit 1% of one window's jobs
/// would otherwise move the run's p99; here they move that window's.
/// Jobs after the last full window count only when no window filled,
/// and then all of them are used. Returns `(p99, full windows)`.
pub fn windowed_p99(groups: &[Vec<f64>]) -> (f64, usize) {
    let mut p99s = Vec::new();
    let mut window = Vec::new();
    for group in groups {
        window.extend_from_slice(group);
        if window.len() >= WINDOW {
            p99s.push(percentile(&window, 99.0));
            window.clear();
        }
    }
    match p99s.len() {
        0 => (percentile(&window, 99.0), 0),
        n => (median(&p99s), n),
    }
}

/// FNV-1a 64: a small, stable digest for expected-value checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in megabytes (`VmHWM`).
pub fn max_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(samples_beyond(999, 99.0) < MIN_TAIL_SAMPLES);
        assert_eq!(samples_beyond(2500, 99.0), 25);
        assert_eq!(samples_beyond(0, 99.0), 0);
        assert_eq!(samples_beyond(WINDOW, 99.0), MIN_TAIL_SAMPLES);
    }

    #[test]
    fn windowed_p99_takes_the_median_window() {
        // Three windows whose p99s are 10, 1000 (a burst of stalls)
        // and 30, in groups of a quarter window, and a partial window.
        let mut jobs = Vec::new();
        for tail in [10.0, 1000.0, 30.0] {
            jobs.extend(std::iter::repeat_n(1.0, WINDOW - 11));
            jobs.extend(std::iter::repeat_n(tail, 11));
        }
        jobs.extend(std::iter::repeat_n(5000.0, WINDOW / 2));
        let groups: Vec<Vec<f64>> = jobs.chunks(WINDOW / 4).map(<[f64]>::to_vec).collect();
        let (p99, windows) = windowed_p99(&groups);
        assert_eq!(windows, 3);
        assert_eq!(p99, 30.0);
        // Too short for a window: all jobs.
        assert_eq!(windowed_p99(&[vec![1.0, 2.0, 3.0]]), (3.0, 0));
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn rss_is_positive_on_linux() {
        assert!(max_rss_mb() > 0.0);
    }
}
