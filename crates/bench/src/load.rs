//! Load-generation building blocks for the `loadgen` binary: open-loop
//! pacing, traffic profiles, and the SLO soak gate.
//!
//! The original `loadgen` is *closed-loop*: each connection waits for
//! the previous response before sending the next request, so a slow
//! server throttles its own load and latency problems hide behind
//! falling throughput (coordinated omission). Open-loop mode fixes the
//! arrival schedule instead: ticket `n` is due at `start + n/rate`
//! regardless of how the server is coping, which is how real clients
//! behave and what an SLO must survive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spur_harness::Json;
use spur_obs::validate::{get_field, parse};
use spur_types::hash::mix64;

/// SplitMix64: a tiny, high-quality mixer for deriving per-ticket
/// randomness from `(base seed, ticket)` without any shared RNG state.
pub(crate) fn derive_seed(base: u64, ticket: u64) -> u64 {
    mix64(base.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(ticket.wrapping_add(1))))
}

/// A shared open-loop arrival schedule: threads take tickets from one
/// atomic counter, and each ticket has a fixed due time on the common
/// clock. Threads are interchangeable workers draining one schedule —
/// if all of them are stuck waiting on a slow server, tickets *pile
/// up* and fire back-to-back once a thread frees up, preserving the
/// offered rate's integral exactly like an impatient client base.
#[derive(Debug)]
pub struct OpenLoopPacer {
    start: Instant,
    /// Nanoseconds between consecutive arrivals.
    interval_ns: u64,
    next_ticket: AtomicU64,
}

impl OpenLoopPacer {
    /// A schedule of `rate_per_sec` arrivals per second, starting now.
    /// The rate is clamped to a sane positive range.
    pub fn new(rate_per_sec: f64) -> Self {
        let rate = rate_per_sec.clamp(0.001, 1e9);
        OpenLoopPacer {
            start: Instant::now(),
            interval_ns: (1e9 / rate) as u64,
            next_ticket: AtomicU64::new(0),
        }
    }

    /// The moment ticket `n` is due, relative to the schedule start.
    pub(crate) fn due(&self, ticket: u64) -> Duration {
        Duration::from_nanos(self.interval_ns.saturating_mul(ticket))
    }

    /// Takes the next ticket and blocks until it is due. Returns the
    /// ticket number, or `None` if its due time falls past `deadline`
    /// (the schedule is exhausted for this run).
    pub fn wait_turn(&self, deadline: Instant) -> Option<u64> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let due = self.start + self.due(ticket);
        if due > deadline {
            return None;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        Some(ticket)
    }

    /// Tickets handed out so far.
    pub fn issued(&self) -> u64 {
        self.next_ticket.load(Ordering::Relaxed)
    }
}

/// What kind of traffic each submission carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Well-formed jobs at the configured size — the daily-traffic
    /// baseline an SLO is declared against.
    Expected,
    /// Heavier cells: larger reference counts, bigger memories, and a
    /// mix of experiment families, all still well-formed.
    Stress,
    /// Hostile traffic: valid jobs interleaved with malformed JSON,
    /// unknown experiments, out-of-range knobs, and oversized bodies.
    /// The server must answer every one with a 4xx and keep serving —
    /// 5xx or a dropped daemon is a loadgen failure.
    Adversarial,
    /// Duplicate-heavy traffic: every ticket draws from a small fixed
    /// pool of identical bodies, so most submissions are repeats of
    /// work already in flight or already cached. This is the profile
    /// that exercises coalescing and the results cache — a soak run
    /// under it should show `jobs_coalesced_total` and
    /// `cache_hits_total` climbing while the `run` histogram barely
    /// moves.
    Duplicate,
}

/// How many distinct bodies the [`Profile::Duplicate`] pool cycles
/// through — small enough that a soak at any realistic rate repeats
/// each body many times over.
pub(crate) const DUPLICATE_POOL: u64 = 8;

impl Profile {
    /// Parses a `--profile` value.
    pub fn from_name(name: &str) -> Option<Profile> {
        match name {
            "expected" => Some(Profile::Expected),
            "stress" => Some(Profile::Stress),
            "adversarial" => Some(Profile::Adversarial),
            "duplicate" => Some(Profile::Duplicate),
            _ => None,
        }
    }

    /// The profile's name (inverse of [`Profile::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            Profile::Expected => "expected",
            Profile::Stress => "stress",
            Profile::Adversarial => "adversarial",
            Profile::Duplicate => "duplicate",
        }
    }

    /// The submission body for one ticket. `refs` and `mem_mb` set the
    /// baseline job size; the ticket (mixed through `derive_seed`)
    /// varies seeds and picks the adversarial fraction, so a given
    /// `(profile, refs, mem_mb, ticket)` is fully deterministic.
    pub fn body(self, refs: u64, mem_mb: u32, ticket: u64) -> String {
        let r = derive_seed(0x010a_d9e4, ticket);
        let seed = 1989 + (r % 100_000);
        match self {
            Profile::Expected => well_formed(refs, mem_mb, seed, r),
            Profile::Stress => {
                // Larger cells, rotating through the experiment
                // families so every labeled phase histogram fills.
                match r % 3 {
                    0 => well_formed(refs * 4, mem_mb.max(8), seed, r >> 8),
                    1 => format!(
                        r#"{{"experiment":"events","workload":"WORKLOAD1","mem_mb":{},"scale":{{"refs":{},"seed":{seed},"reps":1}},"obs":false}}"#,
                        mem_mb.max(8),
                        refs * 2,
                    ),
                    _ => format!(
                        r#"{{"experiment":"mp","cpus":{},"shared_pages":256,"scale":{{"refs":{},"seed":{seed},"reps":1}},"obs":false}}"#,
                        2 + (r >> 8) % 3,
                        refs,
                    ),
                }
            }
            Profile::Adversarial => {
                // Roughly a third of the traffic is hostile; the rest
                // is the expected baseline so SLO evidence still
                // accumulates underneath the abuse.
                match r % 9 {
                    0 => "{not json at all".to_string(),
                    1 => r#"[1,2,3]"#.to_string(),
                    2 => r#"{"experiment":"tlb","workload":"SLC","mem_mb":5}"#.to_string(),
                    3 => format!(
                        r#"{{"experiment":"refbit","workload":"SLC","mem_mb":5,"scale":{{"refs":{}}}}}"#,
                        u64::MAX
                    ),
                    4 => format!(
                        r#"{{"experiment":"events","workload_spec":"{}","mem_mb":5}}"#,
                        "x".repeat(4096)
                    ),
                    _ => well_formed(refs, mem_mb, seed, r >> 8),
                }
            }
            Profile::Duplicate => {
                // A fixed pool keyed only by `ticket % POOL`: the seed
                // is a function of the pool slot, not the ticket, so
                // slot 3 always produces the same bytes and the server
                // sees each body `tickets / POOL` times.
                let slot = ticket % DUPLICATE_POOL;
                well_formed(refs, mem_mb, 1989 + slot, slot)
            }
        }
    }
}

fn well_formed(refs: u64, mem_mb: u32, seed: u64, salt: u64) -> String {
    // Rotate policies so refbit cells are not all one key.
    let policy = ["MISS", "REF", "NOREF"][(salt % 3) as usize];
    format!(
        r#"{{"experiment":"refbit","workload":"SLC","mem_mb":{mem_mb},"policy":"{policy}","scale":{{"refs":{refs},"seed":{seed},"reps":1}},"obs":false}}"#
    )
}

/// The verdict parsed from a `GET /v1/slo` body, with a printable
/// per-target breakdown — what a soak run gates its exit code on.
#[derive(Debug, Clone)]
pub struct SloGate {
    /// Every declared target currently holds.
    pub ok: bool,
    /// Ticker evaluations at which any target failed, over the
    /// server's lifetime.
    pub violations_total: u64,
    /// One human-readable line per declared target.
    pub lines: Vec<String>,
}

impl SloGate {
    /// `true` only for a clean soak: every target holds *and* no
    /// evaluation ever failed while the run was underway.
    pub fn clean(&self) -> bool {
        self.ok && self.violations_total == 0
    }
}

/// Parses a `/v1/slo` response body into a gate verdict.
pub fn parse_slo_report(body: &str) -> Result<SloGate, String> {
    let doc = parse(body).map_err(|e| format!("/v1/slo body is not valid JSON: {e:?}"))?;
    let ok = match get_field(&doc, "ok") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("/v1/slo body missing ok".into()),
    };
    let violations_total = field_u64(&doc, "violations_total")
        .ok_or_else(|| "/v1/slo body missing violations_total".to_string())?;
    let mut lines = Vec::new();
    if let Some(Json::Arr(targets)) = get_field(&doc, "targets") {
        for t in targets {
            let name = match get_field(t, "name") {
                Some(Json::Str(s)) => s.clone(),
                _ => "?".to_string(),
            };
            let target = field_f64(t, "target").unwrap_or(f64::NAN);
            let observed = field_f64(t, "observed");
            let t_ok = matches!(get_field(t, "ok"), Some(Json::Bool(true)));
            let t_violations = field_u64(t, "violations_total").unwrap_or(0);
            let observed = observed.map_or("none".to_string(), |v| format!("{v:.3}"));
            lines.push(format!(
                "  {} {name}: target={target} observed={observed} violations={t_violations}",
                if t_ok { "PASS" } else { "FAIL" },
            ));
        }
    }
    Ok(SloGate {
        ok,
        violations_total,
        lines,
    })
}

fn field_u64(doc: &Json, key: &str) -> Option<u64> {
    match get_field(doc, key)? {
        Json::UInt(u) => Some(*u),
        Json::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

fn field_f64(doc: &Json, key: &str) -> Option<f64> {
    match get_field(doc, key)? {
        Json::Float(f) => Some(*f),
        Json::UInt(u) => Some(*u as f64),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_spreads() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        // No short cycles over a small window.
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|t| derive_seed(42, t)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn pacer_schedules_arrivals_at_the_fixed_rate() {
        let pacer = OpenLoopPacer::new(1000.0);
        assert_eq!(pacer.due(0), Duration::ZERO);
        assert_eq!(pacer.due(10), Duration::from_millis(10));
        // Tickets are unique across takers and stop at the deadline.
        let deadline = Instant::now() + Duration::from_millis(20);
        let mut seen = Vec::new();
        while let Some(t) = pacer.wait_turn(deadline) {
            seen.push(t);
        }
        let n = seen.len();
        assert!(n >= 2, "a 1 kHz schedule yields tickets in 20 ms");
        assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_profile_cycles_a_small_identical_pool() {
        // Ticket N and ticket N + POOL produce byte-identical bodies…
        for ticket in 0..DUPLICATE_POOL * 3 {
            assert_eq!(
                Profile::Duplicate.body(5_000, 5, ticket),
                Profile::Duplicate.body(5_000, 5, ticket + DUPLICATE_POOL),
            );
        }
        // …and the pool really holds DUPLICATE_POOL distinct bodies,
        // each a valid submission.
        let distinct: std::collections::HashSet<String> = (0..DUPLICATE_POOL * 10)
            .map(|t| Profile::Duplicate.body(5_000, 5, t))
            .collect();
        assert_eq!(distinct.len(), DUPLICATE_POOL as usize);
        for body in &distinct {
            spur_serve::parse_job_spec(body.as_bytes())
                .unwrap_or_else(|e| panic!("pool body must be well-formed: {e} ({body})"));
        }
    }

    #[test]
    fn profile_bodies_are_deterministic_per_ticket() {
        for profile in [Profile::Expected, Profile::Stress, Profile::Adversarial] {
            for ticket in 0..50 {
                assert_eq!(
                    profile.body(5_000, 5, ticket),
                    profile.body(5_000, 5, ticket),
                    "{profile:?} ticket {ticket}"
                );
            }
        }
    }

    #[test]
    fn expected_and_stress_bodies_always_parse_as_submissions() {
        for profile in [Profile::Expected, Profile::Stress] {
            for ticket in 0..50 {
                let body = profile.body(5_000, 5, ticket);
                spur_serve::parse_job_spec(body.as_bytes()).unwrap_or_else(|e| {
                    panic!("{profile:?} ticket {ticket} must be well-formed: {e} ({body})")
                });
            }
        }
    }

    #[test]
    fn adversarial_bodies_mix_hostile_and_valid() {
        let (mut good, mut bad) = (0, 0);
        for ticket in 0..100 {
            let body = Profile::Adversarial.body(5_000, 5, ticket);
            match spur_serve::parse_job_spec(body.as_bytes()) {
                Ok(_) => good += 1,
                Err(_) => bad += 1,
            }
        }
        assert!(good > 0, "adversarial traffic keeps a valid baseline");
        assert!(bad > 0, "adversarial traffic includes hostile bodies");
    }

    #[test]
    fn slo_gate_parses_a_report_and_prints_a_breakdown() {
        let body = r#"{
          "ok": false,
          "violations_total": 3,
          "targets": [
            {"name": "p99_submit_ms", "target": 500, "observed": 1.25,
             "ok": true, "violations_total": 0},
            {"name": "min_jobs_per_sec", "target": 1000000, "observed": 12.5,
             "ok": false, "violations_total": 3}
          ]
        }"#;
        let gate = parse_slo_report(body).unwrap();
        assert!(!gate.ok);
        assert!(!gate.clean());
        assert_eq!(gate.violations_total, 3);
        assert_eq!(gate.lines.len(), 2);
        assert!(gate.lines[0].contains("PASS p99_submit_ms"));
        assert!(gate.lines[1].contains("FAIL min_jobs_per_sec"));

        let clean = parse_slo_report(r#"{"ok":true,"violations_total":0,"targets":[]}"#).unwrap();
        assert!(clean.clean());
        assert!(parse_slo_report("nope").is_err());
    }
}
