//! Service-level objectives: declared targets, sliding-window
//! evaluation, and machine-checkable reports.
//!
//! The serve path declares targets (`p99_submit_ms=50`,
//! `min_jobs_per_sec=5`, …); the [`SloTracker`] ingests per-request
//! observations, evaluates every target over a sliding time window,
//! and renders the verdict two ways: Prometheus gauges/counters on
//! `/metrics` and a JSON [`SloReport`] for `GET /v1/slo` and the
//! loadgen soak gate.
//!
//! All methods take the current time as `now_us` (microseconds on the
//! caller's monotonic clock — in practice [`crate::span::SpanSink::now_us`])
//! rather than reading a clock, so evaluation is deterministic in
//! tests.
//!
//! Evaluation is split in two: [`SloTracker::evaluate_mut`] (called by
//! the server's ticker; a failing target increments its violation
//! counter) and [`SloTracker::peek`] (read-only; scraping `/metrics`
//! or `GET /v1/slo` any number of times never changes the counters).
//!
//! A target with no evidence in the window is **ok**: an idle server
//! has not *violated* its p99, it has merely proven nothing. The
//! exception is `min_jobs_per_sec`, which is only enforced once at
//! least one job has ever completed — throughput of an idle server is
//! unknowable, but a server that has started serving and then stalls
//! below the floor is failing. The floor's clock starts at that first
//! completion, so time spent idle *before* serving began (a daemon
//! waiting for its first client) never counts against it.

use std::collections::VecDeque;
use std::sync::Mutex;

use spur_harness::Json;

/// The four target families the serve path can declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// p99 of submit latency (accept → 202 written), milliseconds.
    P99SubmitMs,
    /// p99 of end-to-end job latency (accept → artifact serialized),
    /// milliseconds.
    P99E2eMs,
    /// Sustained completed-jobs-per-second floor over the window.
    MinJobsPerSec,
    /// Failed fraction of finished jobs in the window (0.0 ..= 1.0).
    MaxErrorRatio,
}

impl SloKind {
    /// The flag/metric name, e.g. `p99_submit_ms`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SloKind::P99SubmitMs => "p99_submit_ms",
            SloKind::P99E2eMs => "p99_e2e_ms",
            SloKind::MinJobsPerSec => "min_jobs_per_sec",
            SloKind::MaxErrorRatio => "max_error_ratio",
        }
    }

    fn from_name(name: &str) -> Option<SloKind> {
        match name {
            "p99_submit_ms" => Some(SloKind::P99SubmitMs),
            "p99_e2e_ms" => Some(SloKind::P99E2eMs),
            "min_jobs_per_sec" => Some(SloKind::MinJobsPerSec),
            "max_error_ratio" => Some(SloKind::MaxErrorRatio),
            _ => None,
        }
    }
}

/// One declared objective: a kind and its threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// Which family of objective.
    pub kind: SloKind,
    /// The threshold, in the kind's unit (ms, jobs/sec, or ratio).
    pub value: f64,
}

impl SloTarget {
    /// Parses a `--slo` argument of the form `name=value`.
    pub fn parse(spec: &str) -> Result<SloTarget, String> {
        let (name, value) = spec
            .split_once('=')
            .ok_or_else(|| format!("--slo '{spec}': expected name=value"))?;
        let kind = SloKind::from_name(name.trim()).ok_or_else(|| {
            format!(
                "--slo '{spec}': unknown target '{name}' \
                 (want p99_submit_ms, p99_e2e_ms, min_jobs_per_sec, or max_error_ratio)"
            )
        })?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("--slo '{spec}': '{value}' is not a number"))?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!("--slo '{spec}': value must be finite and >= 0"));
        }
        if kind == SloKind::MaxErrorRatio && value > 1.0 {
            return Err(format!(
                "--slo '{spec}': max_error_ratio is a fraction in [0, 1]"
            ));
        }
        Ok(SloTarget { kind, value })
    }
}

/// The verdict on one target at one evaluation instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Target name (see `SloKind::name`).
    pub name: &'static str,
    /// Declared threshold.
    pub target: f64,
    /// Observed value over the window, `None` when there is no
    /// evidence yet.
    pub observed: Option<f64>,
    /// Whether the target holds (no evidence ⇒ `true`, except the
    /// throughput floor once serving has started).
    pub ok: bool,
    /// Ticker evaluations (not scrapes) at which this target failed.
    pub violations_total: u64,
}

/// All targets' verdicts at one evaluation instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// True iff every target holds.
    pub ok: bool,
    /// Sum of per-target violation counts.
    pub violations_total: u64,
    /// Per-target verdicts, in declaration order.
    pub targets: Vec<SloStatus>,
}

impl SloReport {
    /// The report as JSON (the `GET /v1/slo` body and the soak
    /// artifact).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("ok", Json::Bool(self.ok)),
            ("violations_total", Json::from(self.violations_total)),
            (
                "targets",
                Json::Arr(
                    self.targets
                        .iter()
                        .map(|t| {
                            Json::object([
                                ("name", Json::from(t.name)),
                                ("target", Json::Float(t.target)),
                                ("observed", t.observed.map_or(Json::Null, Json::Float)),
                                ("ok", Json::Bool(t.ok)),
                                ("violations_total", Json::from(t.violations_total)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[derive(Debug, Default)]
struct SloState {
    /// (now_us, submit latency in µs) observations.
    submits: VecDeque<(u64, u64)>,
    /// (now_us, end-to-end latency in µs, ok) observations.
    jobs: VecDeque<(u64, u64, bool)>,
    /// Per-target violation counters, same order as `targets`.
    violations: Vec<u64>,
    /// When the first job ever finished (arms the throughput floor and
    /// starts its clock — idle time before serving began never counts
    /// against the floor).
    served_since: Option<u64>,
}

/// Sliding-window evaluator for a declared set of [`SloTarget`]s.
#[derive(Debug)]
pub struct SloTracker {
    window_us: u64,
    targets: Vec<SloTarget>,
    state: Mutex<SloState>,
}

impl SloTracker {
    /// Creates a tracker evaluating `targets` over a `window_us`-wide
    /// sliding window (clamped to ≥ 1s).
    pub fn new(targets: Vec<SloTarget>, window_us: u64) -> Self {
        let violations = vec![0; targets.len()];
        SloTracker {
            window_us: window_us.max(1_000_000),
            targets,
            state: Mutex::new(SloState {
                violations,
                ..SloState::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SloState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one submit (accept → response written) latency.
    pub fn record_submit(&self, now_us: u64, latency_us: u64) {
        let mut st = self.lock();
        st.submits.push_back((now_us, latency_us));
        Self::prune(&mut st, now_us, self.window_us);
    }

    /// Records one finished job: end-to-end latency and success.
    pub fn record_job(&self, now_us: u64, e2e_us: u64, ok: bool) {
        let mut st = self.lock();
        st.jobs.push_back((now_us, e2e_us, ok));
        st.served_since.get_or_insert(now_us);
        Self::prune(&mut st, now_us, self.window_us);
    }

    fn prune(st: &mut SloState, now_us: u64, window_us: u64) {
        let cutoff = now_us.saturating_sub(window_us);
        while st.submits.front().is_some_and(|&(t, _)| t < cutoff) {
            st.submits.pop_front();
        }
        while st.jobs.front().is_some_and(|&(t, _, _)| t < cutoff) {
            st.jobs.pop_front();
        }
    }

    /// Ticker evaluation: every failing target's violation counter is
    /// incremented. Call this from exactly one periodic evaluator.
    pub fn evaluate_mut(&self, now_us: u64) -> SloReport {
        let mut st = self.lock();
        Self::prune(&mut st, now_us, self.window_us);
        let report = self.report(&st, now_us);
        for (i, t) in report.targets.iter().enumerate() {
            if !t.ok {
                st.violations[i] += 1;
            }
        }
        // Re-render so the report the ticker logs reflects the
        // counters it just bumped.
        self.report(&st, now_us)
    }

    /// Read-only evaluation for scrapes and `GET /v1/slo`: never
    /// changes the violation counters.
    pub fn peek(&self, now_us: u64) -> SloReport {
        let mut st = self.lock();
        Self::prune(&mut st, now_us, self.window_us);
        self.report(&st, now_us)
    }

    fn report(&self, st: &SloState, now_us: u64) -> SloReport {
        let window_secs = self.window_us as f64 / 1e6;
        let targets: Vec<SloStatus> = self
            .targets
            .iter()
            .enumerate()
            .map(|(i, target)| {
                let (observed, ok) = match target.kind {
                    SloKind::P99SubmitMs => {
                        let obs = quantile_ms(st.submits.iter().map(|&(_, us)| us), 0.99);
                        (obs, obs.is_none_or(|v| v <= target.value))
                    }
                    SloKind::P99E2eMs => {
                        let obs = quantile_ms(st.jobs.iter().map(|&(_, us, _)| us), 0.99);
                        (obs, obs.is_none_or(|v| v <= target.value))
                    }
                    SloKind::MinJobsPerSec => match st.served_since {
                        None => (None, true),
                        Some(since) => {
                            // The denominator is the *serving* period,
                            // capped at the window: a server idle for
                            // 20s before its first completion owes no
                            // throughput for those 20s, and a 60s
                            // window 5s into serving divides by 5s.
                            let serving_secs = (now_us.saturating_sub(since) as f64 / 1e6)
                                .min(window_secs)
                                .max(1e-6);
                            let rate = st.jobs.len() as f64 / serving_secs;
                            (Some(rate), rate >= target.value)
                        }
                    },
                    SloKind::MaxErrorRatio => {
                        if st.jobs.is_empty() {
                            (None, true)
                        } else {
                            let failed = st.jobs.iter().filter(|&&(_, _, ok)| !ok).count() as f64;
                            let ratio = failed / st.jobs.len() as f64;
                            (Some(ratio), ratio <= target.value)
                        }
                    }
                };
                SloStatus {
                    name: target.kind.name(),
                    target: target.value,
                    observed,
                    ok,
                    violations_total: st.violations[i],
                }
            })
            .collect();
        SloReport {
            ok: targets.iter().all(|t| t.ok),
            violations_total: targets.iter().map(|t| t.violations_total).sum(),
            targets,
        }
    }
}

/// p-quantile of a set of µs samples, in milliseconds. `None` on an
/// empty set. Nearest-rank on the sorted samples, matching
/// `Histogram::quantile`'s "smallest value with ≥ q mass" semantics
/// but without bucketing error (windows are small enough to sort).
fn quantile_ms(samples: impl Iterator<Item = u64>, q: f64) -> Option<f64> {
    let mut v: Vec<u64> = samples.collect();
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1] as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::parse;

    const SEC: u64 = 1_000_000;

    fn tracker(specs: &[&str]) -> SloTracker {
        let targets = specs.iter().map(|s| SloTarget::parse(s).unwrap()).collect();
        SloTracker::new(targets, 10 * SEC)
    }

    #[test]
    fn parse_accepts_every_kind_and_rejects_junk() {
        assert_eq!(
            SloTarget::parse("p99_submit_ms=50").unwrap(),
            SloTarget {
                kind: SloKind::P99SubmitMs,
                value: 50.0
            }
        );
        assert_eq!(
            SloTarget::parse(" max_error_ratio = 0.01 ").unwrap().kind,
            SloKind::MaxErrorRatio
        );
        assert!(SloTarget::parse("p99_submit_ms").is_err(), "missing =");
        assert!(SloTarget::parse("p42_ms=1").is_err(), "unknown name");
        assert!(SloTarget::parse("p99_e2e_ms=fast").is_err(), "not a number");
        assert!(SloTarget::parse("p99_e2e_ms=-1").is_err(), "negative");
        assert!(
            SloTarget::parse("max_error_ratio=1.5").is_err(),
            "ratio > 1"
        );
        assert!(
            SloTarget::parse("min_jobs_per_sec=inf").is_err(),
            "non-finite"
        );
    }

    #[test]
    fn empty_window_is_ok_no_evidence_is_not_violation() {
        let t = tracker(&[
            "p99_submit_ms=1",
            "p99_e2e_ms=1",
            "min_jobs_per_sec=1000",
            "max_error_ratio=0",
        ]);
        let report = t.peek(5 * SEC);
        assert!(report.ok);
        assert!(report.targets.iter().all(|s| s.observed.is_none()));
    }

    #[test]
    fn p99_compares_the_tail_not_the_mean() {
        let t = tracker(&["p99_submit_ms=10"]);
        // 99 fast submits and 1 slow one: p99 (nearest-rank over 100
        // samples) lands on the 99th value — still fast.
        for _ in 0..99 {
            t.record_submit(SEC, 1_000); // 1ms
        }
        t.record_submit(SEC, 500_000); // 500ms
        let report = t.peek(SEC);
        assert!(report.ok, "{report:?}");
        // Two slow ones push the 99th rank into the tail.
        t.record_submit(SEC, 500_000);
        let report = t.peek(SEC);
        assert!(!report.ok);
        let status = &report.targets[0];
        assert_eq!(status.observed, Some(500.0));
    }

    #[test]
    fn old_samples_slide_out_of_the_window() {
        let t = tracker(&["p99_e2e_ms=10"]);
        t.record_job(SEC, 900_000, true); // 900ms, violating
        assert!(!t.peek(SEC).ok);
        // 20s later (window is 10s) the bad sample has aged out.
        let report = t.peek(21 * SEC);
        assert!(report.ok);
        assert_eq!(report.targets[0].observed, None);
    }

    #[test]
    fn throughput_floor_arms_only_after_first_job() {
        let t = tracker(&["min_jobs_per_sec=2"]);
        assert!(t.peek(30 * SEC).ok, "idle server: floor not armed");
        // 30 jobs land within the 10s window ending at t=30s: 3/sec.
        for i in 0..30 {
            t.record_job(20 * SEC + i * SEC / 3, 1_000, true);
        }
        let report = t.peek(30 * SEC);
        assert!(report.ok, "{report:?}");
        // The server stalls; ten seconds later the window is empty but
        // the floor stays armed.
        let report = t.peek(41 * SEC);
        assert!(!report.ok, "stalled server fails the floor: {report:?}");
        assert_eq!(report.targets[0].observed, Some(0.0));
    }

    #[test]
    fn throughput_denominator_is_serving_time_when_younger_than_window() {
        let t = tracker(&["min_jobs_per_sec=2"]);
        // 6 jobs over the first 2s of serving: 3/sec, not 6/10s.
        for i in 0..6 {
            t.record_job(i * SEC / 3, 1_000, true);
        }
        let report = t.peek(2 * SEC);
        assert!(report.ok, "{report:?}");
        let rate = report.targets[0].observed.unwrap();
        assert!((2.5..=3.5).contains(&rate), "rate {rate}");
    }

    #[test]
    fn throughput_clock_starts_at_first_completion_not_server_start() {
        let t = tracker(&["min_jobs_per_sec=2"]);
        // The daemon sits idle for 30s before its first client shows
        // up, then serves 3/sec. Counting the idle 30s would hold the
        // floor violated until enough jobs amortized it; the serving
        // clock makes the rate honest from the first completion.
        for i in 0..6 {
            t.record_job(30 * SEC + i * SEC / 3, 1_000, true);
        }
        let report = t.peek(32 * SEC);
        assert!(report.ok, "{report:?}");
        let rate = report.targets[0].observed.unwrap();
        assert!((2.5..=3.5).contains(&rate), "rate {rate}");
    }

    #[test]
    fn error_ratio_counts_failures_in_window() {
        let t = tracker(&["max_error_ratio=0.25"]);
        for i in 0..3 {
            t.record_job(SEC + i, 1_000, true);
        }
        t.record_job(SEC + 3, 1_000, false);
        assert!(t.peek(SEC).ok, "1/4 = 0.25 is within");
        t.record_job(SEC + 4, 1_000, false);
        let report = t.peek(SEC);
        assert!(!report.ok, "2/5 = 0.4 exceeds");
        assert_eq!(report.targets[0].observed, Some(0.4));
    }

    #[test]
    fn evaluate_mut_counts_violations_but_peek_does_not() {
        let t = tracker(&["p99_submit_ms=1"]);
        t.record_submit(SEC, 50_000);
        for _ in 0..10 {
            t.peek(SEC);
        }
        assert_eq!(t.peek(SEC).violations_total, 0, "scrapes are free");
        let r1 = t.evaluate_mut(SEC);
        assert_eq!(r1.violations_total, 1);
        let r2 = t.evaluate_mut(SEC);
        assert_eq!(r2.violations_total, 2);
        assert_eq!(r2.targets[0].violations_total, 2);
    }

    #[test]
    fn report_json_round_trips_the_strict_validator() {
        let t = tracker(&["p99_submit_ms=5", "max_error_ratio=0.5"]);
        t.record_submit(SEC, 2_000);
        t.record_job(SEC, 9_000, false);
        let doc = t.evaluate_mut(SEC).to_json();
        // Whole-value floats encode as integers ("5" not "5.0"), so the
        // reparse is value-equal but not variant-equal; validity and
        // content are what matter here.
        parse(&doc.encode_pretty()).expect("valid JSON");
        let text = doc.encode();
        assert!(text.contains("\"name\":\"p99_submit_ms\""), "{text}");
        assert!(text.contains("\"ok\":true"));
    }
}
