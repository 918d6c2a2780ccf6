//! Metric names, units, checks, and the result document.
//!
//! The two tables below are the benchmark's contract: every run with
//! `--trace 0` reports each [`END_TO_END`] metric, and every run with
//! `--trace 1` reports each [`PER_LAYER`] metric, in table order. A
//! per-layer metric whose layer a workload never calls reads zero.

use spur_harness::Json;
use spur_obs::validate::{get_field, parse};

use crate::layers::RECONCILE_TOLERANCE;
use crate::probe::Probe;
use crate::stats::{max_rss_mb, median, percentile, windowed_p99};

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 7] = [
    ("refs_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("setup_s", "s"),
    ("max_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("trace.gen_ns_per_ref", "ns/ref"),
    ("mp.sched_ns_per_ref", "ns/ref"),
    ("core.sim_ns_per_ref", "ns/ref"),
    ("core.setup_ms", "ms"),
    ("core.cycles_per_ref", "cycles/ref"),
    ("core.miss_ratio", "ratio"),
    ("cache.fills", "count"),
    ("cache.invalidations", "count"),
    ("cache.owner_supplies", "count"),
    ("cache.snoop_filter_entries", "count"),
    ("vm.page_faults", "count"),
    ("vm.daemon_scans", "count"),
    ("vm.dirty_faults", "count"),
    ("obs.tax_ns_per_ref", "ns/ref"),
    ("obs.finish_ms", "ms"),
    ("obs.export_ms", "ms"),
    ("obs.events_emitted", "count"),
    ("harness.encode_ms", "ms"),
    ("harness.artifact_bytes", "bytes"),
    ("harness.pool_busy_frac", "frac"),
    ("json.parse_us_per_kb", "us/KB"),
    ("serve.spec_parse_us", "us"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.status_rtt_ms", "ms"),
    ("serve.result_rtt_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.phase.queue_wait_ms", "ms"),
    ("serve.phase.run_ms", "ms"),
    ("serve.phase.serialize_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced_ratio", "ratio"),
    ("trace_overhead_frac", "frac"),
    ("reconcile_gap_frac", "frac"),
];

/// Metric values a workload measured, by name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name`; a later value replaces an earlier one.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Operations attempted and failed, plus why each failure happened.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Counts one operation; an `Err` counts it as failed and is
    /// reported on stderr.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("perfbench: check failed: {why}");
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// Fails unless `actual == expected`, naming the quantity.
pub fn same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    actual: T,
    expected: T,
) -> Result<(), String> {
    if actual == expected {
        Ok(())
    } else {
        Err(format!("{what}: got {actual:?}, expected {expected:?}"))
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub checks: Checks,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Extra facts for the detail line (sample counts, unit sizes).
    pub detail: Vec<(&'static str, Json)>,
}

/// The last line of a run: `correct`, `attempted`, `failed`, and the
/// metric table for the mode. Panics if an end-to-end metric is
/// missing, which is a bug in the workload.
pub fn result_doc(outcome: &Outcome, trace: bool) -> Json {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table.iter().map(|&(name, unit)| {
        let value = match outcome.metrics.get(name) {
            Some(v) => v,
            None if trace => 0.0,
            None => panic!("workload did not measure {name}"),
        };
        (
            name,
            Json::object([("value", Json::Float(value)), ("unit", Json::from(unit))]),
        )
    });
    let checks = &outcome.checks;
    Json::object([
        ("correct", Json::Bool(checks.failed() == 0)),
        ("attempted", Json::from(checks.attempted().max(1))),
        ("failed", Json::from(checks.failed())),
        ("metrics", Json::object(metrics)),
    ])
}

/// `1 − failed ÷ attempted`.
fn ok_ratio(out: &Outcome) -> f64 {
    let attempted = out.checks.attempted().max(1) as f64;
    1.0 - out.checks.failed() as f64 / attempted
}

/// A run's end-to-end figures as the host delivered them.
pub struct Measured {
    /// Median simulated references per second.
    pub refs_per_s: f64,
    /// Median jobs per second.
    pub jobs_per_s: f64,
    /// The latencies grouped by stream unit, sweep or serve window, in
    /// order.
    pub groups_ms: Vec<Vec<f64>>,
    /// Every set-up's time, in seconds.
    pub setups_s: Vec<f64>,
}

/// Sets every end-to-end metric, once all checks have run: times other
/// than the p99 divided by the probe's slowdown, rates multiplied by
/// it. The p99 is [`windowed_p99`] as measured: the slowest jobs did
/// not slow with the probe (over two sets of ten `uni-stream` runs,
/// the whole-run p99's IQR/median was 0.13 and 0.06 unscaled, 0.19 and
/// 0.30 scaled). The detail line keeps the unscaled figures and every
/// probe sample.
pub fn set_end_to_end(out: &mut Outcome, probe: &Probe, measured: Measured) {
    let s = probe.slowdown();
    let ok = ok_ratio(out);
    let all: Vec<f64> = measured.groups_ms.concat();
    let (p99, windows) = windowed_p99(&measured.groups_ms);
    let m = &mut out.metrics;
    m.set("refs_per_s", measured.refs_per_s * s);
    m.set("jobs_per_s", measured.jobs_per_s * s);
    m.set("job_p50_ms", percentile(&all, 50.0) / s);
    m.set("job_p99_ms", p99);
    m.set("setup_s", median(&measured.setups_s) / s);
    m.set("max_rss_mb", max_rss_mb() - probe.table_mb());
    m.set("ok_ratio", ok);
    let d = &mut out.detail;
    d.push(("job_samples", Json::from(all.len())));
    d.push(("p99_windows", Json::from(windows)));
    d.push(("run_p99_ms", Json::Float(percentile(&all, 99.0))));
    d.push(("setup_samples", Json::from(measured.setups_s.len())));
    d.push(("raw_refs_per_s", Json::Float(measured.refs_per_s)));
    d.push(("raw_jobs_per_s", Json::Float(measured.jobs_per_s)));
    d.push(("slowdown", Json::Float(s)));
    d.push((
        "probe_samples",
        Json::array(probe.samples().iter().copied().map(Json::Float)),
    ));
}

/// The reconciliation check for a traced run.
pub fn reconciled(gap: f64) -> Result<(), String> {
    if gap <= RECONCILE_TOLERANCE {
        Ok(())
    } else {
        Err(format!(
            "layer self times miss {:.1}% of the traced wall (tolerance {:.0}%)",
            gap * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ))
    }
}

/// Deterministic outputs stored with the benchmark for the default
/// seed: `{workload: {quantity: value}}`.
const EXPECTED: &str = include_str!("../expected.json");

/// Compares `actual` against the stored values for `workload`. Other
/// seeds have no stored values and always pass.
pub fn check_expected(workload: &str, seed: u64, actual: &[(&str, u64)]) -> Result<(), String> {
    if seed != crate::DEFAULT_SEED {
        return Ok(());
    }
    let doc = parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let stored =
        get_field(&doc, workload).ok_or_else(|| format!("expected.json has no {workload}"))?;
    for &(name, value) in actual {
        match get_field(stored, name) {
            Some(Json::UInt(v)) => same(&format!("{workload} {name}"), value, *v)?,
            _ => return Err(format!("expected.json has no {workload}.{name}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
    }

    /// The metric tables are what `BENCHMARK.json` declares, name for
    /// name and unit for unit, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse(&text).expect("BENCHMARK.json parses strictly");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(entries)) = get_field(&doc, key) else {
                panic!("BENCHMARK.json lacks {key}");
            };
            let declared: Vec<(String, String)> = entries
                .iter()
                .map(|e| match (get_field(e, "name"), get_field(e, "unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("{key} entry without name/unit"),
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} drifted from BENCHMARK.json");
        }
    }

    #[test]
    fn result_document_parses_strictly_and_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.metrics.set(name, 1.25);
        }
        outcome.checks.op(Ok(()));
        outcome.checks.op(Err("injected".into()));
        for trace in [false, true] {
            let line = result_doc(&outcome, trace).encode();
            let doc = parse(&line).expect("strict parse");
            let Json::Obj(fields) = &doc else {
                panic!("not an object")
            };
            let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(get_field(&doc, "correct"), Some(&Json::Bool(false)));
            assert_eq!(get_field(&doc, "attempted"), Some(&Json::UInt(2)));
            assert_eq!(get_field(&doc, "failed"), Some(&Json::UInt(1)));
            let Some(Json::Obj(metrics)) = get_field(&doc, "metrics") else {
                panic!("no metrics")
            };
            let want = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), want);
            for (_, m) in metrics {
                assert!(matches!(get_field(m, "unit"), Some(Json::Str(_))));
                assert!(get_field(m, "value").is_some());
            }
        }
    }

    #[test]
    fn expected_values_cover_every_simulation_workload() {
        let doc = parse(EXPECTED).expect("expected.json parses strictly");
        for workload in ["uni-stream", "mp8-stream", "sweep-2w"] {
            assert!(get_field(&doc, workload).is_some(), "{workload}");
        }
        assert!(check_expected("uni-stream", crate::DEFAULT_SEED + 1, &[("x", 1)]).is_ok());
        assert!(check_expected("uni-stream", crate::DEFAULT_SEED, &[("no_such", 1)]).is_err());
    }
}
