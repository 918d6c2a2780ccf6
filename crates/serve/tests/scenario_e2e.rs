//! End-to-end tests for scenario serving over real sockets: the whole
//! matrix queued atomically, per-cell artifacts byte-identical to the
//! CLI expansion, assertion verdicts on the scenario result, strict
//! 400s for bad configs, and all-or-nothing 429 backpressure.

use std::time::{Duration, Instant};

use spur_harness::{job_artifact_json, run_one, Json};
use spur_obs::validate::{get_field, parse};
use spur_scenario::cells::expand;
use spur_scenario::{run_scenario, RunnerOptions, Scenario};
use spur_serve::client::{get, post_json};
use spur_serve::{ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(10);

/// A two-cell sim matrix with one passing cross-policy assertion —
/// small enough to finish in well under a second per cell.
const HAPPY: &str = r#"{
  "schema_version": 1,
  "name": "served_happy",
  "description": "scenario-serving e2e happy path",
  "experiment": "sim",
  "workload": "WORKLOAD1",
  "scale": {"refs": 20000, "seed": 1989, "reps": 1},
  "run": {"obs": false},
  "matrix": { "mem_mb": [5], "dirty": ["MIN", "FAULT"] },
  "assertions": [
    {
      "check": "relation",
      "name": "fault_ge_min",
      "metric": "data.dirty_faults",
      "op": ">=",
      "left": {"dirty": "FAULT"},
      "right": {"dirty": "MIN"}
    }
  ]
}"#;

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

fn str_field(doc: &Json, key: &str) -> String {
    match get_field(doc, key) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("missing string field {key}: {other:?}"),
    }
}

fn uint_field(doc: &Json, key: &str) -> u64 {
    match get_field(doc, key) {
        Some(Json::UInt(n)) => *n,
        other => panic!("missing uint field {key}: {other:?}"),
    }
}

fn arr_field<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match get_field(doc, key) {
        Some(Json::Arr(items)) => items,
        other => panic!("missing array field {key}: {other:?}"),
    }
}

/// Submits a scenario, asserting 202, and returns the parsed body.
fn submit_scenario(addr: &str, body: &str) -> Json {
    let resp = post_json(addr, "/v1/scenarios", body, TIMEOUT).unwrap();
    assert_eq!(resp.status, 202, "scenario submit failed: {}", resp.text());
    parse(&resp.text()).unwrap()
}

/// Polls `GET /v1/scenarios/{id}` until the scenario leaves
/// queued/running, returning the final document.
fn await_scenario(addr: &str, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = get(addr, &format!("/v1/scenarios/{id}"), TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let doc = parse(&resp.text()).unwrap();
        match str_field(&doc, "status").as_str() {
            "done" => return doc,
            status if Instant::now() > deadline => panic!("scenario {id} stuck in {status}"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

#[test]
fn scenario_runs_to_verdicts_with_cli_identical_artifacts() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr().to_string();

    let accepted = submit_scenario(&addr, HAPPY);
    let id = uint_field(&accepted, "id");
    assert_eq!(str_field(&accepted, "name"), "served_happy");
    let cells = arr_field(&accepted, "cells").to_vec();
    assert_eq!(cells.len(), 2);

    let result = await_scenario(&addr, id);
    assert_eq!(get_field(&result, "passed"), Some(&Json::Bool(true)));
    let verdicts = arr_field(&result, "assertions");
    assert_eq!(verdicts.len(), 1);
    assert_eq!(str_field(&verdicts[0], "name"), "fault_ge_min");
    assert_eq!(get_field(&verdicts[0], "passed"), Some(&Json::Bool(true)));
    for cell in arr_field(&result, "cells") {
        assert_eq!(str_field(cell, "status"), "done");
    }

    // Every served cell's artifact must be byte-identical to the same
    // cell expanded and run directly by the scenario engine.
    let scenario = Scenario::parse_str(HAPPY).unwrap();
    let scale = scenario.resolve_scale(None);
    let direct = expand(&scenario, scale, None).unwrap();
    for cell in &cells {
        let cell_id = uint_field(cell, "id");
        let key = str_field(cell, "key");
        let served = get(&addr, &format!("/v1/jobs/{cell_id}/result"), TIMEOUT).unwrap();
        assert_eq!(served.status, 200);
        let completed = direct
            .iter()
            .find(|(c, _)| c.key == key)
            .map(|_| {
                let (_, job) = expand(&scenario, scale, None)
                    .unwrap()
                    .into_iter()
                    .find(|(c, _)| c.key == key)
                    .unwrap();
                run_one(job.map(|_| ()))
            })
            .unwrap();
        assert_eq!(
            served.text(),
            job_artifact_json(&completed).encode_pretty(),
            "served cell {key} must match the CLI expansion byte-for-byte"
        );
    }

    server.shutdown();
}

#[test]
fn malformed_scenarios_get_path_qualified_400s() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr().to_string();

    // 100k nested brackets: past the parser's depth cap, a 400 rather
    // than a stack overflow that aborts the instance.
    let deep = "[".repeat(100_000);
    for (body, needle) in [
        ("{not json", "not valid JSON"),
        (deep.as_str(), "nesting deeper than"),
        (
            r#"{"schema_version": 1, "name": "x", "description": "d",
                "experiment": "sim", "workload": "SLC",
                "matrix": {"mem_mb": [5], "bogus_axis": [1]}}"#,
            "bogus_axis",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "description": "d",
                "experiment": "sim",
                "workload": {"trace": "t.spurtrace", "regions": "SLC"},
                "matrix": {"mem_mb": [5]}}"#,
            "workload.trace",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "description": "d",
                "experiment": "sim", "workload": "SLC",
                "matrix": {"mem_mb": [5], "unknown_field_here": [1]},
                "surprise": true}"#,
            "surprise",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "pageout",
                "matrix": {"host": [0, 6]}}"#,
            "matrix.host[1]: host index 6 is past the end of Table 3.5",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "pageout",
                "scale": {"dev_refs_per_hour": 1000000000000000},
                "matrix": {"host": [0]}}"#,
            "scale.dev_refs_per_hour: must be in 1..=1000000",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "pageout",
                "workload": "SLC", "matrix": {"host": [0]}}"#,
            "workload: not accepted for experiment",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "pageout",
                "mem_mb": 8, "matrix": {"host": [0]}}"#,
            "mem_mb: not accepted for experiment",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "pageout",
                "max_refs": 1000, "matrix": {"host": [0]}}"#,
            "max_refs: not accepted for experiment",
        ),
        // `key_prefix` on a kind that ignores it would run under the
        // default keys.
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "refbit",
                "key_prefix": "typo",
                "matrix": {"workload": ["SLC"], "mem_mb": [5], "ref": ["MISS"]}}"#,
            "key_prefix: not accepted for experiment",
        ),
        // `tlb`: `Tlb::new(0)` panics, and a cell's time grows with its
        // entries.
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "tlb",
                "workload": "SLC", "mem_mb": 8,
                "matrix": {"entries": [0], "flush_on_switch": [false]}}"#,
            "matrix.entries[0]: must be in 1..=4096, got 0",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "tlb",
                "workload": "SLC", "mem_mb": 8,
                "matrix": {"entries": [1000000000], "flush_on_switch": [false]}}"#,
            "matrix.entries[0]: must be in 1..=4096, got 1000000000",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "tlb",
                "workload": "SLC", "mem_mb": 8, "matrix": {"entries": [16]}}"#,
            "matrix.flush_on_switch: required for experiment",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "tlb",
                "mem_mb": 8, "matrix": {"entries": [16], "flush_on_switch": [false]}}"#,
            "workload: required for experiment",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "tlb",
                "workload": "SLC",
                "matrix": {"entries": [16], "flush_on_switch": [false]}}"#,
            "mem_mb: required for experiment",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "tlb",
                "workload": {"trace": "t.spurtrace", "regions": "SLC"}, "mem_mb": 8,
                "matrix": {"entries": [16], "flush_on_switch": [false]}}"#,
            "workload.trace",
        ),
        (
            r#"{"schema_version": 1, "name": "x", "experiment": "tlb",
                "workload": "SLC", "mem_mb": 8, "key_prefix": "typo",
                "matrix": {"entries": [16], "flush_on_switch": [false]}}"#,
            "key_prefix: not accepted for experiment",
        ),
    ] {
        let resp = post_json(&addr, "/v1/scenarios", body, TIMEOUT).unwrap();
        assert_eq!(resp.status, 400, "{body:?} should be rejected");
        let text = resp.text();
        assert!(
            text.contains(needle),
            "400 for {body:?} should mention {needle:?}, got {text}"
        );
    }

    // Workload specs that break a validity rule, more of them than the
    // config has acceptor threads (a panic while parsing would kill
    // one): each is a 400, and the server still answers.
    let bad_specs = [
        "weight 0",
        "frac heap=2",
        "frac heap=0.9 stack=0.5",
        "phase len=0",
        "hot heap=0",
        "tune read_burst=0",
        "tune theta=-1",
        "mix 0/0/0",
        "mix 4294967295/1/0",
        "schedule active=9223372036854775808 idle=9223372036854775808",
    ];
    assert!(bad_specs.len() > test_config().accept_threads);
    for directive in bad_specs {
        let body = format!(
            r#"{{"schema_version": 1, "name": "x", "description": "d",
                "experiment": "sim",
                "workload": {{"spec": "workload T\nprocess a\n  pages code=8 heap=32 stack=8 file=8\n  {directive}\n"}},
                "matrix": {{"mem_mb": [5]}}}}"#
        );
        let resp = post_json(&addr, "/v1/scenarios", &body, TIMEOUT).unwrap();
        assert_eq!(resp.status, 400, "{directive:?} got {}", resp.text());
        assert!(
            resp.text().contains("workload.spec: bad workload spec"),
            "{}",
            resp.text()
        );
    }
    let health = get(&addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(health.status, 200);

    server.shutdown();
}

#[test]
fn scenario_admission_is_all_or_nothing_under_backpressure() {
    // No workers: everything queued stays queued, so admission
    // arithmetic is exact. Queue bound 3 fits one two-cell scenario
    // but not two of them.
    let server = Server::start(ServeConfig {
        workers: 0,
        queue_bound: 3,
        ..test_config()
    })
    .unwrap();
    let addr = server.addr().to_string();

    let first = submit_scenario(&addr, HAPPY);
    let first_id = uint_field(&first, "id");

    let refused = post_json(&addr, "/v1/scenarios", HAPPY, TIMEOUT).unwrap();
    assert_eq!(refused.status, 429, "{}", refused.text());
    let doc = parse(&refused.text()).unwrap();
    assert_eq!(uint_field(&doc, "cells"), 2);
    let retry: u64 = refused
        .header("retry-after")
        .expect("429 must carry retry-after")
        .parse()
        .expect("retry-after must be integral seconds");
    assert!(
        (1..=60).contains(&retry),
        "retry-after {retry} out of bounds"
    );

    // Nothing of the refused scenario survives: no record, no queue
    // slots beyond the first scenario's two cells.
    let gone = get(&addr, &format!("/v1/scenarios/{}", first_id + 1), TIMEOUT).unwrap();
    assert_eq!(gone.status, 404);
    let health = get(&addr, "/healthz", TIMEOUT).unwrap();
    let health_doc = parse(&health.text()).unwrap();
    assert_eq!(uint_field(&health_doc, "queue_depth"), 2);

    // The admitted scenario is still fully queued and pollable.
    let status = get(&addr, &format!("/v1/scenarios/{first_id}"), TIMEOUT).unwrap();
    assert_eq!(status.status, 200);
    let status_doc = parse(&status.text()).unwrap();
    assert_eq!(str_field(&status_doc, "status"), "queued");

    server.shutdown();
}

#[test]
fn failed_assertions_surface_on_the_scenario_result() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr().to_string();

    // The negative-control shape: blind flushes always destroy
    // bystander blocks, so asserting zero collateral must fail.
    let body = r#"{
      "schema_version": 1,
      "name": "served_negative",
      "description": "deliberately failing assertion over the serve path",
      "experiment": "flush",
      "matrix": { "occupancy_pct": [10] },
      "assertions": [
        {
          "check": "range",
          "name": "blind_flush_is_harmless",
          "metric": "data.collateral",
          "max": 0
        }
      ]
    }"#;
    let accepted = submit_scenario(&addr, body);
    let id = uint_field(&accepted, "id");

    let result = await_scenario(&addr, id);
    assert_eq!(get_field(&result, "passed"), Some(&Json::Bool(false)));
    let verdicts = arr_field(&result, "assertions");
    assert_eq!(verdicts.len(), 1);
    assert_eq!(str_field(&verdicts[0], "name"), "blind_flush_is_harmless");
    assert_eq!(get_field(&verdicts[0], "passed"), Some(&Json::Bool(false)));
    let failures = arr_field(&verdicts[0], "failures");
    assert!(
        !failures.is_empty(),
        "a failed verdict must carry failure detail"
    );
    // The cells themselves succeeded — only the expectation failed.
    for cell in arr_field(&result, "cells") {
        assert_eq!(str_field(cell, "status"), "done");
    }

    server.shutdown();
}

#[test]
fn served_fault_plans_fail_their_cells_despite_retries() {
    // A fault plan at 1,000,000 ppm trips every cell on every attempt:
    // each retry builds the job from the queued cell again, arming a
    // fresh plan, so the retry meets the fault too. The served verdict
    // matches the CLI's instead of passing on a spent plan.
    let server = Server::start(ServeConfig {
        panic_retries: 2,
        ..test_config()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let body = r#"{
      "schema_version": 1,
      "name": "served_faults",
      "description": "every cell trips its fault plan",
      "experiment": "flush",
      "matrix": { "occupancy_pct": [10, 50] },
      "run": { "fault_plan": { "seed": 7, "panic_ppm": 1000000 } }
    }"#;
    let accepted = submit_scenario(&addr, body);
    let result = await_scenario(&addr, uint_field(&accepted, "id"));
    assert_eq!(get_field(&result, "passed"), Some(&Json::Bool(false)));
    let cells = arr_field(&result, "cells");
    assert_eq!(cells.len(), 2);
    for cell in cells {
        assert_eq!(str_field(cell, "status"), "failed");
        let error = str_field(cell, "error");
        assert!(error.contains("injected fault"), "{error}");
    }

    // Both retries of both cells really ran.
    let metrics = get(&addr, "/metrics", TIMEOUT).unwrap().text();
    assert!(
        metrics.contains("spur_serve_jobs_retried_total 4"),
        "{metrics}"
    );

    server.shutdown();
}

#[test]
fn served_pageout_cells_match_the_cli_runner_byte_for_byte() {
    // Two Table 3.5 hosts at a small per-hour rate. The pageout kind is
    // only reachable over HTTP through this endpoint.
    const PAGEOUT: &str = r#"{
      "schema_version": 1,
      "name": "served_pageout",
      "experiment": "pageout",
      "scale": {"dev_refs_per_hour": 1000},
      "matrix": { "host": [2, 5] }
    }"#;
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr().to_string();
    let accepted = submit_scenario(&addr, PAGEOUT);
    let result = await_scenario(&addr, uint_field(&accepted, "id"));
    assert_eq!(get_field(&result, "passed"), Some(&Json::Bool(true)));

    let scenario = Scenario::parse_str(PAGEOUT).unwrap();
    let cli = run_scenario(
        &scenario,
        &RunnerOptions {
            workers: 1,
            persist: false,
            ..RunnerOptions::default()
        },
    )
    .unwrap();
    let cells = arr_field(&accepted, "cells");
    let keys: Vec<String> = cells.iter().map(|c| str_field(c, "key")).collect();
    assert_eq!(keys, ["table_3_5/2/mace", "table_3_5/5/murder"]);
    for cell in cells {
        let key = str_field(cell, "key");
        let served = get(
            &addr,
            &format!("/v1/jobs/{}/result", uint_field(cell, "id")),
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(served.status, 200);
        let direct = cli.report.jobs().iter().find(|j| j.key == key).unwrap();
        assert_eq!(
            served.text(),
            job_artifact_json(direct).encode_pretty(),
            "served cell {key} must match the CLI runner byte-for-byte"
        );
    }

    server.shutdown();
}

#[test]
fn served_tlb_cells_match_the_cli_runner_byte_for_byte() {
    const TLB: &str = r#"{
      "schema_version": 1,
      "name": "served_tlb",
      "experiment": "tlb",
      "workload": "WORKLOAD1",
      "mem_mb": 8,
      "scale": {"refs": 20000},
      "matrix": { "entries": [16, 64], "flush_on_switch": [false, true] },
      "assertions": [
        {
          "check": "monotonic",
          "name": "more_entries_never_miss_more",
          "metric": "data.tlb_misses",
          "axis": "entries",
          "direction": "nonincreasing"
        }
      ]
    }"#;
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr().to_string();
    let accepted = submit_scenario(&addr, TLB);
    let result = await_scenario(&addr, uint_field(&accepted, "id"));
    assert_eq!(get_field(&result, "passed"), Some(&Json::Bool(true)));

    let scenario = Scenario::parse_str(TLB).unwrap();
    let cli = run_scenario(
        &scenario,
        &RunnerOptions {
            workers: 1,
            persist: false,
            ..RunnerOptions::default()
        },
    )
    .unwrap();
    assert!(cli.passed());
    let cells = arr_field(&accepted, "cells");
    let keys: Vec<String> = cells.iter().map(|c| str_field(c, "key")).collect();
    assert_eq!(
        keys,
        [
            "tlb/0016/tagged",
            "tlb/0016/flush",
            "tlb/0064/tagged",
            "tlb/0064/flush"
        ]
    );
    for cell in cells {
        let key = str_field(cell, "key");
        let served = get(
            &addr,
            &format!("/v1/jobs/{}/result", uint_field(cell, "id")),
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(served.status, 200);
        let direct = cli.report.jobs().iter().find(|j| j.key == key).unwrap();
        assert_eq!(
            served.text(),
            job_artifact_json(direct).encode_pretty(),
            "served cell {key} must match the CLI runner byte-for-byte"
        );
    }

    server.shutdown();
}
