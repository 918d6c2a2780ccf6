//! Exact admission answers of both POST endpoints over real sockets.
//!
//! Every 202, 429 and 503 that `POST /v1/jobs` and `POST /v1/scenarios`
//! can give is pinned by status, header names and body, with key order
//! and every fixed value checked and only ids, trace ids and the
//! `retry_after` estimate blanked. After each refusal the counters,
//! the queue depth and the job records must show that nothing of the
//! refused cells was admitted. The span trees of admitted cells are
//! pinned by name and attribute, with `admitted_us` tied to the phase
//! that marks admission.

use std::time::{Duration, Instant};

use spur_harness::Json;
use spur_obs::validate::{get_field, parse};
use spur_serve::client::{get, http_request_headers, post_json, HttpResponse};
use spur_serve::{ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(10);

/// A refbit spec; distinct seeds occupy distinct queue slots, equal
/// seeds coalesce or hit the cache.
fn spec(seed: u64) -> String {
    format!(
        r#"{{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"MISS",
        "scale":{{"refs":20000,"seed":{seed},"reps":1}},"obs":{{"epoch":10000}}}}"#
    )
}

/// A two-cell flush scenario: synthetic cells that finish in
/// milliseconds.
const FLUSH2: &str = r#"{
  "schema_version": 1,
  "name": "pin_flush",
  "experiment": "flush",
  "matrix": { "occupancy_pct": [10, 50] },
  "assertions": [
    {
      "check": "range",
      "name": "blind_flush_destroys_bystanders",
      "metric": "data.collateral",
      "where": { "occupancy_pct": 10 },
      "min": 1
    }
  ]
}"#;

fn config(workers: usize, queue_bound: usize, client_quota: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        shards: 1,
        queue_bound,
        client_quota,
        accept_threads: 2,
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..ServeConfig::default()
    }
}

fn post_as(addr: &str, path: &str, body: &str, client: Option<&str>) -> HttpResponse {
    let headers: Vec<(&str, &str)> = client.map(|c| ("x-client-id", c)).into_iter().collect();
    http_request_headers(addr, "POST", path, Some(body.as_bytes()), &headers, TIMEOUT).unwrap()
}

/// The body fields whose values a pin ignores.
const VOLATILE: &[&str] = &["id", "trace_id", "leader_id", "retry_after"];

/// Replaces the value of every field named in `keys`, at any depth.
fn blank(doc: &mut Json, keys: &[&str]) {
    match doc {
        Json::Obj(fields) => {
            for (key, value) in fields {
                if keys.contains(&key.as_str()) {
                    *value = Json::Str("_".into());
                } else {
                    blank(value, keys);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(|v| blank(v, keys)),
        _ => {}
    }
}

fn uint(doc: &Json, key: &str) -> u64 {
    match get_field(doc, key) {
        Some(Json::UInt(n)) => *n,
        other => panic!("missing uint field {key}: {other:?}"),
    }
}

/// Checks one admission answer exactly: status, header names and
/// values, and the compact body with ids, trace ids and `retry_after`
/// blanked. A 429's `Retry-After` header must equal its body's
/// `retry_after`, within 1..=60 s. Returns the parsed body.
fn pin(resp: &HttpResponse, status: u16, body: &str) -> Json {
    let text = resp.text();
    assert_eq!(resp.status, status, "{text}");
    let doc = parse(&text).unwrap();
    assert_eq!(doc.encode(), text, "the body is compact JSON");
    let mut blanked = doc.clone();
    blank(&mut blanked, VOLATILE);
    assert_eq!(blanked.encode(), body);

    let names: Vec<&str> = resp.headers.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = vec!["content-type", "content-length", "connection"];
    if status == 429 {
        want.push("retry-after");
        let retry = uint(&doc, "retry_after");
        assert!((1..=60).contains(&retry), "retry_after {retry}");
        assert_eq!(resp.header("retry-after"), Some(retry.to_string().as_str()));
    }
    assert_eq!(names, want);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    assert_eq!(resp.header("connection"), Some("close"));
    assert_eq!(
        resp.header("content-length"),
        Some(text.len().to_string().as_str())
    );
    doc
}

fn metric(addr: &str, name: &str) -> u64 {
    let text = get(addr, "/metrics", TIMEOUT).unwrap().text();
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("metric {name} missing:\n{text}"))
        .split(' ')
        .nth(1)
        .unwrap()
        .parse()
        .unwrap()
}

/// What a refusal must leave untouched or move: the two refusal
/// counters and the queue depth, both as `/healthz` reports it and as
/// the `/metrics` gauge.
#[derive(Debug, PartialEq, Eq)]
struct Tally {
    rejected: u64,
    quota_rejected: u64,
    submitted: u64,
    depth: u64,
}

fn tally(addr: &str) -> Tally {
    let health = parse(&get(addr, "/healthz", TIMEOUT).unwrap().text()).unwrap();
    let depth = uint(&health, "queue_depth");
    assert_eq!(metric(addr, "spur_serve_queue_depth"), depth);
    Tally {
        rejected: metric(addr, "spur_serve_jobs_rejected_total"),
        quota_rejected: metric(addr, "spur_serve_quota_rejected_total"),
        submitted: metric(addr, "spur_serve_jobs_submitted_total"),
        depth,
    }
}

fn assert_no_job(addr: &str, id: u64) {
    for path in [
        format!("/v1/jobs/{id}"),
        format!("/v1/jobs/{id}/result"),
        format!("/v1/jobs/{id}/trace"),
    ] {
        let resp = get(addr, &path, TIMEOUT).unwrap();
        assert_eq!(resp.status, 404, "{path}: {}", resp.text());
    }
}

fn assert_no_scenario(addr: &str, id: u64) {
    let resp = get(addr, &format!("/v1/scenarios/{id}"), TIMEOUT).unwrap();
    assert_eq!(resp.status, 404, "scenario {id}: {}", resp.text());
}

fn job_status(addr: &str, id: u64) -> Json {
    let resp = get(addr, &format!("/v1/jobs/{id}"), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    parse(&resp.text()).unwrap()
}

fn await_done(addr: &str, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let doc = job_status(addr, id);
        match get_field(&doc, "status") {
            Some(Json::Str(s)) if s == "done" => return doc,
            other if Instant::now() > deadline => panic!("job {id} stuck: {other:?}"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn trace_root(addr: &str, id: u64) -> Json {
    let resp = get(addr, &format!("/v1/jobs/{id}/trace"), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let doc = parse(&resp.text()).unwrap();
    get_field(&doc, "root").expect("trace has a root").clone()
}

fn str_of(doc: &Json, key: &str) -> String {
    match get_field(doc, key) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("missing string field {key}: {other:?}"),
    }
}

/// A span tree as `name(attr=value,…)[children]`. Attributes named in
/// `volatile` print as `attr=_`. `respond` spans are dropped: the
/// acceptor adds one after writing the 202, racing the test's read.
fn outline(span: &Json, volatile: &[&str]) -> String {
    let attrs = match get_field(span, "attrs") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| match v {
                _ if volatile.contains(&k.as_str()) => format!("{k}=_"),
                Json::Str(s) => format!("{k}={s}"),
                other => panic!("non-string attribute {k}: {other:?}"),
            })
            .collect::<Vec<_>>()
            .join(","),
        other => panic!("span without attrs: {other:?}"),
    };
    let children = match get_field(span, "children") {
        Some(Json::Arr(children)) => children
            .iter()
            .filter(|c| str_of(c, "name") != "respond")
            .map(|c| outline(c, volatile))
            .collect::<Vec<_>>()
            .join(" "),
        other => panic!("span without children: {other:?}"),
    };
    format!("{}({attrs})[{children}]", str_of(span, "name"))
}

/// The first direct child of `span` with this name.
fn child<'a>(span: &'a Json, name: &str) -> &'a Json {
    match get_field(span, "children") {
        Some(Json::Arr(children)) => children
            .iter()
            .find(|c| str_of(c, "name") == name)
            .unwrap_or_else(|| panic!("no {name} span")),
        other => panic!("span without children: {other:?}"),
    }
}

#[test]
fn jobs_queued_coalesced_full_and_draining_answers_are_pinned() {
    // No workers: whatever is admitted stays queued, so the bound and
    // the coalescing window are exact.
    let server = Server::start(config(0, 2, 0)).unwrap();
    let addr = server.addr().to_string();
    let key = "table_4_1/SLC/5MB/MISS";

    let leader = pin(
        &post_json(&addr, "/v1/jobs", &spec(1), TIMEOUT).unwrap(),
        202,
        &format!(r#"{{"id":"_","key":"{key}","status":"queued","queue_depth":1,"trace_id":"_"}}"#),
    );
    let leader_id = uint(&leader, "id");
    let follower = pin(
        &post_json(&addr, "/v1/jobs", &spec(1), TIMEOUT).unwrap(),
        202,
        &format!(
            r#"{{"id":"_","key":"{key}","status":"queued","coalesced":true,"leader_id":"_","trace_id":"_"}}"#
        ),
    );
    assert_eq!(uint(&follower, "leader_id"), leader_id);
    let follower_id = uint(&follower, "id");
    let second = pin(
        &post_json(&addr, "/v1/jobs", &spec(2), TIMEOUT).unwrap(),
        202,
        r#"{"id":"_","key":"table_4_1/SLC/5MB/MISS","status":"queued","queue_depth":2,"trace_id":"_"}"#,
    );
    let second_id = uint(&second, "id");

    // The leader's and the follower's span trees so far, and the
    // admission instants their records report.
    let root = trace_root(&addr, leader_id);
    assert_eq!(
        outline(&root, &["job_id"]),
        "job(job_id=_,key=table_4_1/SLC/5MB/MISS,client=127.0.0.1)\
         [accept()[] parse()[] route(shard=0)[] cache_lookup(outcome=miss)[] \
         queue_wait(depth_at_admit=1)[]]"
    );
    assert_eq!(
        get_field(child(&root, "queue_wait"), "end_us"),
        Some(&Json::Null),
        "queue_wait stays open while nothing runs"
    );
    assert_eq!(
        uint(&job_status(&addr, leader_id), "admitted_us"),
        uint(child(&root, "queue_wait"), "start_us")
    );
    let root = trace_root(&addr, follower_id);
    assert_eq!(
        outline(&root, &["job_id", "leader_id"]),
        "job(job_id=_,key=table_4_1/SLC/5MB/MISS,client=127.0.0.1)\
         [accept()[] parse()[] route(shard=0)[] cache_lookup(outcome=coalesced)[] \
         coalesce_wait(leader_id=_)[]]"
    );
    assert_eq!(
        uint(&job_status(&addr, follower_id), "admitted_us"),
        uint(child(&root, "coalesce_wait"), "start_us")
    );

    // Queue full: one job refused, nothing of it kept.
    let before = tally(&addr);
    assert_eq!(before.depth, 2);
    pin(
        &post_json(&addr, "/v1/jobs", &spec(3), TIMEOUT).unwrap(),
        429,
        r#"{"error":"queue full","queue_bound":2,"retry_after":"_"}"#,
    );
    let refused_id = second_id + 1;
    assert_eq!(
        tally(&addr),
        Tally {
            rejected: before.rejected + 1,
            ..before
        }
    );
    assert_no_job(&addr, refused_id);

    // Draining: a 503 that counts as neither rejection.
    let resp = post_json(&addr, "/v1/shutdown", "", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let before = tally(&addr);
    pin(
        &post_json(&addr, "/v1/jobs", &spec(4), TIMEOUT).unwrap(),
        503,
        r#"{"error":"draining"}"#,
    );
    assert_eq!(tally(&addr), before);
    assert_no_job(&addr, refused_id + 1);

    server.shutdown();
}

#[test]
fn jobs_cache_hit_answer_and_span_trees_are_pinned() {
    let server = Server::start(config(1, 8, 0)).unwrap();
    let addr = server.addr().to_string();

    let cold = pin(
        &post_json(&addr, "/v1/jobs", &spec(1), TIMEOUT).unwrap(),
        202,
        r#"{"id":"_","key":"table_4_1/SLC/5MB/MISS","status":"queued","queue_depth":1,"trace_id":"_"}"#,
    );
    let cold_id = uint(&cold, "id");
    let status = await_done(&addr, cold_id);
    let root = trace_root(&addr, cold_id);
    // The acceptor annotates `depth_at_admit` after the push, so a
    // worker that runs and seals the job first leaves it out; the
    // queued leader's tree in
    // `jobs_queued_coalesced_full_and_draining_answers_are_pinned` pins
    // it.
    assert_eq!(
        outline(&root, &["job_id", "sim_cycles_first", "sim_cycles_last"])
            .replace("queue_wait(depth_at_admit=1)", "queue_wait()"),
        "job(job_id=_,key=table_4_1/SLC/5MB/MISS,client=127.0.0.1)\
         [accept()[] parse()[] route(shard=0)[] cache_lookup(outcome=miss)[] \
         queue_wait()[] \
         run(experiment=refbit,sim_cycles_first=_,sim_cycles_last=_)[] serialize()[]]"
    );
    assert_eq!(
        uint(&status, "admitted_us"),
        uint(child(&root, "queue_wait"), "start_us")
    );

    let hit = pin(
        &post_json(&addr, "/v1/jobs", &spec(1), TIMEOUT).unwrap(),
        202,
        r#"{"id":"_","key":"table_4_1/SLC/5MB/MISS","status":"done","cached":true,"trace_id":"_"}"#,
    );
    let hit_id = uint(&hit, "id");
    let root = trace_root(&addr, hit_id);
    assert_eq!(
        outline(&root, &["job_id"]),
        "job(job_id=_,key=table_4_1/SLC/5MB/MISS,client=127.0.0.1)\
         [accept()[] parse()[] route(shard=0)[] cache_lookup(outcome=hit)[]]"
    );
    assert_eq!(
        uint(&job_status(&addr, hit_id), "admitted_us"),
        uint(child(&root, "cache_lookup"), "end_us")
    );
    assert_eq!(
        get(&addr, &format!("/v1/jobs/{hit_id}/result"), TIMEOUT)
            .unwrap()
            .text(),
        get(&addr, &format!("/v1/jobs/{cold_id}/result"), TIMEOUT)
            .unwrap()
            .text()
    );

    server.shutdown();
}

#[test]
fn jobs_quota_answer_is_pinned() {
    let server = Server::start(config(0, 8, 1)).unwrap();
    let addr = server.addr().to_string();

    let first = pin(
        &post_as(&addr, "/v1/jobs", &spec(1), Some("greedy")),
        202,
        r#"{"id":"_","key":"table_4_1/SLC/5MB/MISS","status":"queued","queue_depth":1,"trace_id":"_"}"#,
    );
    let before = tally(&addr);
    pin(
        &post_as(&addr, "/v1/jobs", &spec(2), Some("greedy")),
        429,
        r#"{"error":"client over quota","client":"greedy","quota":1,"queued":1,"retry_after":"_"}"#,
    );
    assert_eq!(
        tally(&addr),
        Tally {
            rejected: before.rejected + 1,
            quota_rejected: before.quota_rejected + 1,
            ..before
        }
    );
    assert_no_job(&addr, uint(&first, "id") + 1);

    server.shutdown();
}

#[test]
fn scenario_queued_full_and_draining_answers_are_pinned() {
    // Bound 3 fits one two-cell scenario but not two.
    let server = Server::start(config(0, 3, 0)).unwrap();
    let addr = server.addr().to_string();

    let first = pin(
        &post_json(&addr, "/v1/scenarios", FLUSH2, TIMEOUT).unwrap(),
        202,
        r#"{"id":"_","name":"pin_flush","status":"queued","cells":[{"id":"_","key":"flush/010pct"},{"id":"_","key":"flush/050pct"}],"queue_depth":2}"#,
    );
    let scenario_id = uint(&first, "id");
    let last_cell = match get_field(&first, "cells") {
        Some(Json::Arr(cells)) => uint(&cells[1], "id"),
        other => panic!("no cells: {other:?}"),
    };

    let before = tally(&addr);
    assert_eq!(before.depth, 2);
    pin(
        &post_json(&addr, "/v1/scenarios", FLUSH2, TIMEOUT).unwrap(),
        429,
        r#"{"error":"queue full","cells":2,"queue_bound":3,"retry_after":"_"}"#,
    );
    assert_eq!(
        tally(&addr),
        Tally {
            rejected: before.rejected + 2,
            ..before
        }
    );
    assert_no_job(&addr, last_cell + 1);
    assert_no_job(&addr, last_cell + 2);
    assert_no_scenario(&addr, scenario_id + 1);

    let resp = post_json(&addr, "/v1/shutdown", "", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let before = tally(&addr);
    pin(
        &post_json(&addr, "/v1/scenarios", FLUSH2, TIMEOUT).unwrap(),
        503,
        r#"{"error":"draining"}"#,
    );
    assert_eq!(tally(&addr), before);
    for id in last_cell + 3..=last_cell + 4 {
        assert_no_job(&addr, id);
    }
    assert_no_scenario(&addr, scenario_id + 2);

    server.shutdown();
}

#[test]
fn scenario_quota_answer_is_pinned() {
    // Quota 3: one two-cell scenario fits, a second would hold 4.
    let server = Server::start(config(0, 16, 3)).unwrap();
    let addr = server.addr().to_string();

    let first = pin(
        &post_as(&addr, "/v1/scenarios", FLUSH2, Some("greedy")),
        202,
        r#"{"id":"_","name":"pin_flush","status":"queued","cells":[{"id":"_","key":"flush/010pct"},{"id":"_","key":"flush/050pct"}],"queue_depth":2}"#,
    );
    let last_cell = match get_field(&first, "cells") {
        Some(Json::Arr(cells)) => uint(&cells[1], "id"),
        other => panic!("no cells: {other:?}"),
    };
    let before = tally(&addr);
    pin(
        &post_as(&addr, "/v1/scenarios", FLUSH2, Some("greedy")),
        429,
        r#"{"error":"client over quota","client":"greedy","cells":2,"quota":3,"queued":2,"retry_after":"_"}"#,
    );
    assert_eq!(
        tally(&addr),
        Tally {
            rejected: before.rejected + 2,
            quota_rejected: before.quota_rejected + 2,
            ..before
        }
    );
    assert_no_job(&addr, last_cell + 1);
    assert_no_job(&addr, last_cell + 2);
    assert_no_scenario(&addr, uint(&first, "id") + 1);

    server.shutdown();
}

#[test]
fn served_scenario_cell_span_tree_is_pinned() {
    let server = Server::start(config(1, 8, 0)).unwrap();
    let addr = server.addr().to_string();

    let accepted = pin(
        &post_json(&addr, "/v1/scenarios", FLUSH2, TIMEOUT).unwrap(),
        202,
        r#"{"id":"_","name":"pin_flush","status":"queued","cells":[{"id":"_","key":"flush/010pct"},{"id":"_","key":"flush/050pct"}],"queue_depth":2}"#,
    );
    let scenario_id = uint(&accepted, "id");
    let Some(Json::Arr(cells)) = get_field(&accepted, "cells") else {
        panic!("no cells: {accepted:?}");
    };
    for cell in cells {
        let id = uint(cell, "id");
        let key = str_of(cell, "key");
        let status = await_done(&addr, id);
        let root = trace_root(&addr, id);
        assert_eq!(
            outline(&root, &[]),
            format!(
                "job(job_id={id},key={key},scenario_id={scenario_id})\
                 [accept()[] parse()[] queue_wait()[] run(experiment=scenario)[] serialize()[]]"
            )
        );
        assert_eq!(str_of(&status, "experiment"), "scenario");
        assert_eq!(
            uint(&status, "admitted_us"),
            uint(child(&root, "queue_wait"), "start_us"),
            "admitted_us is the start of queue_wait"
        );
        assert_eq!(
            uint(child(&root, "parse"), "end_us"),
            uint(child(&root, "queue_wait"), "start_us"),
            "a scenario cell is queued the instant its parse ends"
        );
    }

    server.shutdown();
}
