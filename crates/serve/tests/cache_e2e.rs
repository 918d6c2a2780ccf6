//! The results cache over real sockets: a hit returns the exact bytes
//! the cold run produced (which are themselves the bytes a
//! `reproduce_all`-style harness run writes), eviction follows LRU
//! order under a tiny capacity, and the hit/miss/eviction counters
//! reconcile with the observed request pattern.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spur_core::experiments::refbit::measure_refbit_obs_with;
use spur_core::experiments::Scale;
use spur_core::jobs::attach_obs;
use spur_core::obs::ObsParams;
use spur_core::system::SimOverrides;
use spur_harness::{run_jobs, write_run, Job, JobOutput};
use spur_obs::validate::{get_field, parse};
use spur_serve::client::{get, post_json};
use spur_serve::{ServeConfig, Server};
use spur_trace::workloads::slc;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

const TIMEOUT: Duration = Duration::from_secs(10);

fn temp_dir(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "spur-serve-cache-{tag}-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(seed: u64) -> String {
    format!(
        r#"{{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"MISS",
        "scale":{{"refs":30000,"seed":{seed},"reps":1}},"obs":{{"epoch":10000}}}}"#
    )
}

/// Submits and returns `(id, cached)` from the 202 body.
fn submit(addr: &str, body: &str) -> (u64, bool) {
    let resp = post_json(addr, "/v1/jobs", body, TIMEOUT).unwrap();
    assert_eq!(resp.status, 202, "submit failed: {}", resp.text());
    let doc = parse(&resp.text()).unwrap();
    let id = match get_field(&doc, "id") {
        Some(spur_harness::Json::UInt(id)) => *id,
        other => panic!("202 body without id: {other:?}"),
    };
    let cached = matches!(
        get_field(&doc, "cached"),
        Some(spur_harness::Json::Bool(true))
    );
    (id, cached)
}

fn await_done(addr: &str, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = get(addr, &format!("/v1/jobs/{id}"), TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let doc = parse(&resp.text()).unwrap();
        match get_field(&doc, "status") {
            Some(spur_harness::Json::Str(s)) if s == "done" => return,
            Some(spur_harness::Json::Str(s)) if s == "failed" => panic!("job {id} failed"),
            _ if Instant::now() > deadline => panic!("job {id} never finished"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn result_bytes(addr: &str, id: u64) -> Vec<u8> {
    let resp = get(addr, &format!("/v1/jobs/{id}/result"), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    resp.body
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

#[test]
fn cache_hit_bytes_equal_the_cold_run_and_the_harness_artifact() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_entries: 8,
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    let (cold_id, cached) = submit(&addr, &spec(1989));
    assert!(!cached, "first submission can't hit the cache");
    await_done(&addr, cold_id);
    let cold_bytes = result_bytes(&addr, cold_id);

    // Identical resubmission: answered from the cache, already done,
    // no second simulation.
    let (hit_id, cached) = submit(&addr, &spec(1989));
    assert!(cached, "identical resubmission must hit the cache");
    assert_ne!(hit_id, cold_id, "a hit still gets its own job id");
    let hit_bytes = result_bytes(&addr, hit_id);
    assert_eq!(
        hit_bytes, cold_bytes,
        "cache hit must serve the cold run's exact bytes"
    );

    // ...and those bytes are the very artifact a direct harness run
    // (the reproduce_all path) writes for this cell, rebuilt here from
    // the measure function.
    let direct_root = temp_dir("direct");
    let scale = Scale {
        refs: 30_000,
        seed: 1989,
        reps: 1,
        dev_refs_per_hour: 120_000,
    };
    let obs = Some(ObsParams {
        epoch: Some(10_000),
        ..ObsParams::default()
    });
    let job = Job::new("table_4_1/SLC/5MB/MISS", move || {
        let (row, rep) = measure_refbit_obs_with(
            &slc(),
            MemSize::MB5,
            RefPolicy::Miss,
            &scale,
            obs,
            &SimOverrides::default(),
        )
        .map_err(|e| e.to_string())?;
        let artifact = row.to_json();
        Ok(attach_obs(JobOutput::new(row, artifact), rep))
    });
    let report = run_jobs(vec![job], 1);
    let artifacts = write_run(&direct_root, "direct", &report, &[]).unwrap();
    let direct_bytes = std::fs::read(artifacts.dir.join("table_4_1-SLC-5MB-MISS.json")).unwrap();
    assert_eq!(
        hit_bytes, direct_bytes,
        "cache hit must be byte-identical to the harness artifact"
    );

    // Exactly one simulation happened for two answered submissions.
    let text = get(&addr, "/metrics", TIMEOUT).unwrap().text();
    assert!(
        text.contains("spur_serve_phase_ms_count{phase=\"run\",experiment=\"refbit\"} 1\n"),
        "{text}"
    );
    assert_eq!(metric(&addr, "spur_serve_cache_hits_total"), 1);
    assert_eq!(metric(&addr, "spur_serve_cache_misses_total"), 1);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&direct_root);
}

#[test]
fn tiny_cache_evicts_in_lru_order_and_counters_reconcile() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_entries: 2,
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    let run_cold = |seed: u64| {
        let (id, cached) = submit(&addr, &spec(seed));
        assert!(!cached, "seed {seed} expected to miss");
        await_done(&addr, id);
    };
    let expect_hit = |seed: u64| {
        let (id, cached) = submit(&addr, &spec(seed));
        assert!(cached, "seed {seed} expected to hit");
        await_done(&addr, id);
    };

    // Fill capacity-2: cache = {A, B}, recency [A, B].
    run_cold(1); // A
    run_cold(2); // B
                 // Touch A: recency [B, A].
    expect_hit(1);
    // Insert C at capacity: evicts B (the LRU), keeps A.
    run_cold(3); // C; cache = {A, C}
    expect_hit(1); // A survived the eviction
                   // B is gone — it re-runs cold, evicting A in turn.
    run_cold(2);

    // Reconciliation: 4 cold runs + 2 hits = 6 lookups; every cold
    // insert past capacity evicted exactly one entry (C's insert and
    // B's re-insert).
    assert_eq!(metric(&addr, "spur_serve_cache_hits_total"), 2);
    assert_eq!(metric(&addr, "spur_serve_cache_misses_total"), 4);
    assert_eq!(metric(&addr, "spur_serve_cache_evictions_total"), 2);
    assert_eq!(
        metric(&addr, "spur_serve_cache_hits_total")
            + metric(&addr, "spur_serve_cache_misses_total"),
        6,
        "every submission is exactly one hit or one miss"
    );
    // 4 simulations for 6 submissions.
    let text = get(&addr, "/metrics", TIMEOUT).unwrap().text();
    assert!(
        text.contains("spur_serve_phase_ms_count{phase=\"run\",experiment=\"refbit\"} 4\n"),
        "{text}"
    );

    server.shutdown();
}
