//! End-to-end tests for the `spur-serve` daemon over real sockets:
//! the byte-identical-artifact contract, queue backpressure, malformed
//! input handling, and drain-then-exit.

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
        "spur-serve-e2e-{tag}-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

/// One directive per rule of `BehaviorSpec::validate`,
/// `Schedule::validate` and `RefMix::checked` that a spec can break.
const BAD_WORKLOAD_SPECS: [&str; 10] = [
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

fn submit(addr: &str, body: &str) -> u64 {
    let resp = post_json(addr, "/v1/jobs", body, TIMEOUT).unwrap();
    assert_eq!(resp.status, 202, "submit failed: {}", resp.text());
    let doc = parse(&resp.text()).unwrap();
    match get_field(&doc, "id") {
        Some(spur_harness::Json::UInt(id)) => *id,
        other => panic!("202 body without id: {other:?}"),
    }
}

/// Polls until the job leaves the queued/running states.
fn await_done(addr: &str, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = get(addr, &format!("/v1/jobs/{id}"), TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let doc = parse(&resp.text()).unwrap();
        let status = match get_field(&doc, "status") {
            Some(spur_harness::Json::Str(s)) => s.clone(),
            other => panic!("status body without status: {other:?}"),
        };
        match status.as_str() {
            "done" | "failed" => return status,
            _ if Instant::now() > deadline => panic!("job {id} stuck in {status}"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

#[test]
fn served_artifact_is_byte_identical_to_direct_harness_run() {
    let results = temp_dir("served");
    let server = Server::start(ServeConfig {
        results_dir: Some(results.clone()),
        ..test_config()
    })
    .unwrap();
    let addr = server.addr().to_string();

    let id = submit(
        &addr,
        r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"MISS",
            "scale":{"refs":30000,"seed":1989,"reps":1},"obs":{"epoch":10000}}"#,
    );
    assert_eq!(await_done(&addr, id), "done");
    let served = get(&addr, &format!("/v1/jobs/{id}/result"), TIMEOUT).unwrap();
    assert_eq!(served.status, 200);
    let served_bytes = served.body.clone();

    // The same cell through the batch path: the measure function
    // wrapped by hand, same key, same scale — write_run's job file must
    // match the served bytes.
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
        served_bytes, direct_bytes,
        "served artifact must be byte-identical to the harness file"
    );

    // The server's own persistence wrote the identical document too.
    let persisted = std::fs::read(
        results
            .join(format!("job-{id:06}"))
            .join("table_4_1-SLC-5MB-MISS.json"),
    )
    .unwrap();
    assert_eq!(persisted, direct_bytes);

    // Metrics carry the contractual series before shutdown.
    let metrics = get(&addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    for needle in [
        "spur_serve_jobs_completed_total 1",
        "spur_serve_queue_depth 0",
        "spur_serve_job_run_ms{quantile=\"0.5\"}",
        "spur_serve_job_run_ms{quantile=\"0.9\"}",
        "spur_serve_job_run_ms{quantile=\"0.99\"}",
    ] {
        assert!(text.contains(needle), "metrics missing {needle:?}:\n{text}");
    }

    let summary = server.shutdown();
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 0);
    let _ = std::fs::remove_dir_all(&results);
    let _ = std::fs::remove_dir_all(&direct_root);
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    // No workers: nothing drains the queue, so the bound is exact.
    let server = Server::start(ServeConfig {
        workers: 0,
        queue_bound: 2,
        ..test_config()
    })
    .unwrap();
    let addr = server.addr().to_string();
    // Distinct seeds: identical submissions would coalesce rather than
    // occupy queue slots.
    let body = |seed: u64| {
        format!(
            r#"{{"experiment":"events","workload":"SLC","mem_mb":5,
               "scale":{{"refs":5000,"seed":{seed},"reps":1}},"obs":false}}"#
        )
    };

    submit(&addr, &body(1));
    submit(&addr, &body(2));
    let third = post_json(&addr, "/v1/jobs", &body(3), TIMEOUT).unwrap();
    assert_eq!(third.status, 429, "{}", third.text());
    let retry: u64 = third
        .header("retry-after")
        .expect("429 must carry retry-after")
        .parse()
        .expect("retry-after must be integral seconds");
    assert!(
        (1..=60).contains(&retry),
        "retry-after {retry} out of bounds"
    );
    assert!(third.text().contains("queue full"));

    let health = get(&addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"queue_depth\":2"));
    let metrics = get(&addr, "/metrics", TIMEOUT).unwrap();
    assert!(metrics.text().contains("spur_serve_jobs_rejected_total 1"));

    let summary = server.shutdown();
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.unstarted, 2, "nobody ran the queued jobs");
}

#[test]
fn malformed_requests_get_4xx_never_a_panic() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr().to_string();

    // Bad JSON bodies and bad specs → 400 with a message. The last is
    // 100k nested brackets: past the parser's depth cap it is a 400,
    // not a stack overflow that aborts the instance.
    let deep = "[".repeat(100_000);
    for body in [
        "",
        "not json",
        "[]",
        r#"{"experiment":"refbit"}"#,
        r#"{"experiment":"refbit","workload":"SLC","mem_mb":0}"#,
        r#"{"experiment":"warp","workload":"SLC","mem_mb":5}"#,
        r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"lru"}"#,
        r#"{"experiment":"refbit","workload_spec":"gibberish","mem_mb":5}"#,
        deep.as_str(),
    ] {
        let resp = post_json(&addr, "/v1/jobs", body, TIMEOUT).unwrap();
        assert_eq!(resp.status, 400, "body {body:?} got {}", resp.text());
        assert!(resp.text().contains("error"));
    }

    // Workload specs that break a validity rule. The parse runs on an
    // acceptor thread, so a panic there would kill that acceptor: there
    // are more of these than the config has acceptors, and the server
    // must still answer afterwards.
    assert!(BAD_WORKLOAD_SPECS.len() > test_config().accept_threads);
    for directive in BAD_WORKLOAD_SPECS {
        let body = format!(
            r#"{{"experiment":"refbit","mem_mb":5,"workload_spec":"workload T\nprocess a\n  pages code=8 heap=32 stack=8 file=8\n  {directive}\n"}}"#
        );
        let resp = post_json(&addr, "/v1/jobs", &body, TIMEOUT).unwrap();
        assert_eq!(resp.status, 400, "{directive:?} got {}", resp.text());
        assert!(resp.text().contains("bad workload spec"), "{}", resp.text());
    }

    // Wrong method, wrong route, bad ids.
    let resp = post_json(&addr, "/healthz", "{}", TIMEOUT).unwrap();
    assert_eq!(resp.status, 405);
    let resp = get(&addr, "/v1/nothing", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404);
    let resp = get(&addr, "/v1/jobs/999", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404);
    let resp = get(&addr, "/v1/jobs/banana", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404);

    // Raw socket garbage: the server answers 400 (or drops the
    // connection) and keeps serving.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"\x01\x02 nonsense \r\n\r\n").unwrap();
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
    }

    // Still healthy after all of the abuse.
    let health = get(&addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));

    let summary = server.shutdown();
    assert_eq!(summary.completed + summary.failed, 0);
}

#[test]
fn graceful_drain_runs_the_backlog_then_refuses() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr().to_string();
    // Distinct seeds so all three occupy the queue (identical bodies
    // would coalesce onto one run).
    let body = |seed: u64| {
        format!(
            r#"{{"experiment":"refbit","workload":"SLC","mem_mb":5,
               "scale":{{"refs":5000,"seed":{seed},"reps":1}},"obs":false}}"#
        )
    };
    let ids = [
        submit(&addr, &body(1)),
        submit(&addr, &body(2)),
        submit(&addr, &body(3)),
    ];

    let resp = post_json(&addr, "/v1/shutdown", "", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("draining"));

    // New submissions are refused while the backlog drains...
    let refused = post_json(&addr, "/v1/jobs", &body(4), TIMEOUT).unwrap();
    assert_eq!(refused.status, 503, "{}", refused.text());

    // ...but the accepted jobs all run to completion before exit.
    let summary = server.wait();
    assert_eq!(summary.completed, 3, "drain must finish the backlog");
    assert_eq!(summary.unstarted, 0);
    let _ = ids;

    // The listener is gone: connecting now fails.
    let gone =
        std::net::TcpStream::connect_timeout(&addr.parse().unwrap(), Duration::from_millis(500));
    assert!(gone.is_err(), "server must stop listening after drain");
}
