//! End-to-end tests for request tracing and SLO evidence over real
//! sockets: the span tree's reconciliation contract (phases sum to the
//! observed wall), sim-cycle attribution on the run span, the merged
//! Chrome-trace export, and the `/v1/slo` verdict in both the healthy
//! and the deliberately-impossible configurations.

use std::time::{Duration, Instant};

use spur_core::experiments::Scale;
use spur_core::jobs::refbit_job_obs;
use spur_core::obs::ObsParams;
use spur_harness::{run_one, Json};
use spur_obs::slo::SloTarget;
use spur_obs::validate::{get_field, parse};
use spur_obs::TraceRecorder;
use spur_serve::client::{get, post_json};
use spur_serve::{ServeConfig, Server};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

const TIMEOUT: Duration = Duration::from_secs(10);

/// The submission every tracing test uses: fully pinned scale so the
/// served run and a local harness run are the same pure function.
const BODY: &str = r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,
    "scale":{"refs":20000,"seed":1989,"reps":1}}"#;

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_bound: 8,
        accept_threads: 2,
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..ServeConfig::default()
    }
}

fn submit(addr: &str, body: &str) -> u64 {
    let resp = post_json(addr, "/v1/jobs", body, TIMEOUT).unwrap();
    assert_eq!(resp.status, 202, "submit failed: {}", resp.text());
    field_u64(&parse(&resp.text()).unwrap(), "id").expect("202 body has id")
}

fn await_done(addr: &str, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = get(addr, &format!("/v1/jobs/{id}"), TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let doc = parse(&resp.text()).unwrap();
        match get_field(&doc, "status") {
            Some(Json::Str(s)) if s == "done" || s == "failed" => return doc,
            _ if Instant::now() > deadline => panic!("job {id} never finished"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn get_json(addr: &str, path: &str) -> (u16, Json) {
    let resp = get(addr, path, TIMEOUT).unwrap();
    let doc = parse(&resp.text())
        .unwrap_or_else(|e| panic!("{path} answered invalid JSON: {e:?}\n{}", resp.text()));
    (resp.status, doc)
}

fn field_u64(doc: &Json, key: &str) -> Option<u64> {
    match get_field(doc, key)? {
        Json::UInt(u) => Some(*u),
        Json::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// Duration of a named phase from the trace document's `phases` map.
fn phase_us(trace: &Json, name: &str) -> u64 {
    let phases = get_field(trace, "phases").expect("trace has phases");
    field_u64(phases, name).unwrap_or_else(|| panic!("phase {name} missing: {phases:?}"))
}

/// First span with this name in the nested tree, depth-first.
fn find_span<'a>(span: &'a Json, name: &str) -> Option<&'a Json> {
    if matches!(get_field(span, "name"), Some(Json::Str(s)) if s == name) {
        return Some(span);
    }
    if let Some(Json::Arr(children)) = get_field(span, "children") {
        return children.iter().find_map(|c| find_span(c, name));
    }
    None
}

#[test]
fn trace_endpoint_returns_a_reconciling_span_tree() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr().to_string();
    let id = submit(&addr, BODY);
    let status = await_done(&addr, id);
    assert_eq!(
        get_field(&status, "status"),
        Some(&Json::Str("done".into()))
    );

    let (code, trace) = get_json(&addr, &format!("/v1/jobs/{id}/trace"));
    assert_eq!(code, 200);
    assert_eq!(get_field(&trace, "complete"), Some(&Json::Bool(true)));
    assert_eq!(field_u64(&trace, "job_id"), Some(id));

    // Reconciliation: the contiguous causal phases sum to the observed
    // wall time within scheduling slack. `respond` overlaps
    // `queue_wait` by design, so it is excluded from the sum.
    let wall_us = field_u64(&trace, "wall_us").expect("complete trace has wall_us");
    let contiguous: u64 = [
        "accept",
        "parse",
        "route",
        "cache_lookup",
        "queue_wait",
        "run",
        "serialize",
    ]
    .iter()
    .map(|p| phase_us(&trace, p))
    .sum();
    let tolerance = 25_000.max(wall_us / 4);
    assert!(
        contiguous.abs_diff(wall_us) <= tolerance,
        "phases must sum to the wall: contiguous={contiguous}us wall={wall_us}us tol={tolerance}us\n{}",
        trace.encode_pretty()
    );

    // queue_wait starts exactly at the queue's own admission
    // timestamp, surfaced on the status endpoint.
    let admitted_us = field_u64(&status, "admitted_us").expect("status has admitted_us");
    let root = get_field(&trace, "root").expect("trace has root");
    let queue_span = find_span(root, "queue_wait").expect("queue_wait span");
    assert_eq!(
        field_u64(queue_span, "start_us"),
        Some(admitted_us),
        "queue_wait must start at admission"
    );

    // The run span names the slice of simulated time it paid for, and
    // that slice matches a local run of the identical cell.
    let run_span = find_span(root, "run").expect("run span");
    let attrs = get_field(run_span, "attrs").expect("run span attrs");
    let cycles = |key: &str| -> u64 {
        match get_field(attrs, key) {
            Some(Json::Str(s)) => s.parse().unwrap(),
            other => panic!("run span missing {key}: {other:?}"),
        }
    };
    let scale = Scale {
        refs: 20_000,
        seed: 1989,
        reps: 1,
        dev_refs_per_hour: 120_000,
    };
    let local = run_one(refbit_job_obs(
        "k".into(),
        spur_trace::workloads::slc,
        MemSize::MB5,
        RefPolicy::Miss,
        scale,
        Some(ObsParams::default()),
    ));
    let local_trace = local.outcome.as_ref().unwrap().trace.as_deref().unwrap();
    let (first, last) = TraceRecorder::from_handle(local_trace)
        .and_then(TraceRecorder::cycle_bounds)
        .expect("local run has events");
    assert_eq!(cycles("sim_cycles_first"), first);
    assert_eq!(cycles("sim_cycles_last"), last);

    server.shutdown();
}

#[test]
fn merged_chrome_trace_validates_and_carries_both_timelines() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr().to_string();
    let id = submit(&addr, BODY);
    await_done(&addr, id);

    let resp = get(&addr, &format!("/v1/jobs/{id}/trace/chrome"), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    // The strict RFC 8259 validator is the acceptance gate.
    let doc = parse(&resp.text()).expect("merged Chrome trace is strictly valid JSON");

    let Some(Json::Arr(events)) = get_field(&doc, "traceEvents") else {
        panic!("merged trace has no traceEvents array");
    };
    let ph = |e: &Json| match get_field(e, "ph") {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let names: Vec<String> = events
        .iter()
        .filter(|e| ph(e) == "X")
        .filter_map(|e| match get_field(e, "name") {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect();
    for want in ["job", "accept", "queue_wait", "run", "serialize"] {
        assert!(names.iter().any(|n| n == want), "missing span {want:?}");
    }
    // Both timelines are present: process metadata for the server-time
    // and sim-time tracks, and rescaled sim events carrying their
    // original cycle stamps.
    let metas = events.iter().filter(|e| ph(e) == "M").count();
    assert!(metas >= 2, "expected process_name metadata for both pids");
    let sim_events = events
        .iter()
        .filter(|e| get_field(e, "args").is_some_and(|a| get_field(a, "cycle").is_some()))
        .count();
    assert!(sim_events > 0, "merged trace carries rescaled sim events");

    // The run span brackets every rescaled sim event.
    let run = events
        .iter()
        .find(|e| matches!(get_field(e, "name"), Some(Json::Str(s)) if s == "run"))
        .expect("run span in merged trace");
    let run_ts = field_u64(run, "ts").unwrap();
    let run_end = run_ts + field_u64(run, "dur").unwrap();
    for e in events
        .iter()
        .filter(|e| get_field(e, "args").is_some_and(|a| get_field(a, "cycle").is_some()))
    {
        let ts = field_u64(e, "ts").unwrap();
        let dur = field_u64(e, "dur").unwrap_or(0);
        assert!(
            ts >= run_ts && ts + dur <= run_end.max(ts + dur),
            "sim event outside run span: ts={ts} dur={dur} run=[{run_ts},{run_end}]"
        );
        assert!(ts <= run_end, "sim event starts after run ends");
    }

    server.shutdown();
}

#[test]
fn live_traces_serve_mid_flight_but_chrome_requires_completion() {
    // Zero workers: the job is admitted and then waits forever, which
    // is exactly the stuck state live tracing exists to diagnose.
    let server = Server::start(ServeConfig {
        workers: 0,
        ..test_config()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let id = submit(&addr, BODY);

    let (code, trace) = get_json(&addr, &format!("/v1/jobs/{id}/trace"));
    assert_eq!(code, 200, "live traces are readable mid-flight");
    assert_eq!(get_field(&trace, "complete"), Some(&Json::Bool(false)));
    assert_eq!(get_field(&trace, "wall_us"), Some(&Json::Null));
    let root = get_field(&trace, "root").unwrap();
    assert!(
        find_span(root, "queue_wait").is_some(),
        "the stuck phase is visible"
    );
    assert_eq!(
        find_span(root, "queue_wait").and_then(|s| field_u64(s, "end_us")),
        None,
        "queue_wait is still open"
    );

    let chrome = get(&addr, &format!("/v1/jobs/{id}/trace/chrome"), TIMEOUT).unwrap();
    assert_eq!(chrome.status, 409, "incomplete traces cannot merge");

    let missing = get(&addr, "/v1/jobs/999999/trace", TIMEOUT).unwrap();
    assert_eq!(missing.status, 404);

    server.shutdown();
}

#[test]
fn healthy_slos_verify_and_undeclared_slos_404() {
    let no_slo = Server::start(test_config()).unwrap();
    let addr = no_slo.addr().to_string();
    assert_eq!(get(&addr, "/v1/slo", TIMEOUT).unwrap().status, 404);
    no_slo.shutdown();

    let server = Server::start(ServeConfig {
        slos: vec![
            SloTarget::parse("p99_submit_ms=10000").unwrap(),
            SloTarget::parse("p99_e2e_ms=60000").unwrap(),
            SloTarget::parse("max_error_ratio=0").unwrap(),
        ],
        ..test_config()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let id = submit(&addr, BODY);
    await_done(&addr, id);

    let (code, report) = get_json(&addr, "/v1/slo");
    assert_eq!(code, 200);
    assert_eq!(get_field(&report, "ok"), Some(&Json::Bool(true)));
    let Some(Json::Arr(targets)) = get_field(&report, "targets") else {
        panic!("report has no targets: {report:?}");
    };
    assert_eq!(targets.len(), 3);

    let metrics = get(&addr, "/metrics", TIMEOUT).unwrap().text();
    assert!(metrics.contains("spur_serve_slo_ok 1\n"), "{metrics}");
    assert!(metrics.contains("spur_serve_build_info{version=\""));
    assert!(metrics.contains("spur_serve_uptime_seconds"));
    assert!(metrics.contains("spur_serve_phase_ms_count{phase=\"run\",experiment=\"refbit\"}"));
    assert!(metrics.contains("spur_serve_slo_target_violations_total{slo=\"p99_submit_ms\"} 0"));

    server.shutdown();
}

#[test]
fn impossible_slo_reports_a_failing_breakdown() {
    let server = Server::start(ServeConfig {
        slos: vec![
            SloTarget::parse("min_jobs_per_sec=1000000").unwrap(),
            SloTarget::parse("p99_submit_ms=10000").unwrap(),
        ],
        ..test_config()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let id = submit(&addr, BODY);
    await_done(&addr, id);
    // Give the 250 ms ticker at least one evaluation with the evidence
    // in the window.
    std::thread::sleep(Duration::from_millis(600));

    let (code, report) = get_json(&addr, "/v1/slo");
    assert_eq!(code, 200);
    assert_eq!(get_field(&report, "ok"), Some(&Json::Bool(false)));
    assert!(
        field_u64(&report, "violations_total").unwrap() > 0,
        "the ticker recorded violations: {report:?}"
    );
    let Some(Json::Arr(targets)) = get_field(&report, "targets") else {
        panic!("report has no targets");
    };
    let by_name = |name: &str| {
        targets
            .iter()
            .find(|t| matches!(get_field(t, "name"), Some(Json::Str(s)) if s == name))
            .unwrap_or_else(|| panic!("target {name} missing"))
    };
    assert_eq!(
        get_field(by_name("min_jobs_per_sec"), "ok"),
        Some(&Json::Bool(false)),
        "a million jobs/sec is impossible here"
    );
    assert_eq!(
        get_field(by_name("p99_submit_ms"), "ok"),
        Some(&Json::Bool(true)),
        "the generous submit target still holds"
    );

    let metrics = get(&addr, "/metrics", TIMEOUT).unwrap().text();
    assert!(metrics.contains("spur_serve_slo_ok 0\n"));

    server.shutdown();
}
