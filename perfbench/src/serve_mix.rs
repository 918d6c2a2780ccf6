//! `serve-mix`: an in-process `spur_serve::Server` under two
//! closed-loop clients.
//!
//! The server listens on `127.0.0.1:0` with one worker, one shard and
//! the default results cache. Each client submits a job, polls until it
//! is done, fetches the result, then sends its next job. Bodies are
//! small `refbit` cells (SLC, 5 MB, [`JOB_REFS`] references, obs off)
//! drawn from a seeded mix: about half repeat a small pool of specs
//! (answered from the cache, or coalesced onto an identical in-flight
//! run), the rest carry unique seeds and run cold. Every result body is
//! checked byte for byte against `job_artifact_json(&run_one(job))` for
//! the same spec.
//!
//! A traced window adds, per job, `parse_job_spec` and the strict JSON
//! parser on every request and response document, times each HTTP call
//! from the client, and fetches the job's span tree from
//! `GET /v1/jobs/{id}/trace`. Afterwards a sample of the cold cells is
//! replayed a layer at a time (set-up, generator, simulator, encoding)
//! and must reproduce the served bytes.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use spur_core::experiments::Scale;
use spur_core::jobs::refbit_job_obs;
use spur_harness::{job_artifact_json, run_one, Json};
use spur_obs::validate::{get_field, parse};
use spur_serve::client::{get, post_json, HttpResponse};
use spur_serve::{parse_job_spec, ServeConfig, Server};
use spur_trace::workloads::slc;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

use crate::layers::{Layer, LayerClock};
use crate::probe::Probe;
use crate::report::{reconciled, same, set_end_to_end, Measured, Outcome};
use crate::sim::Fingerprint;
use crate::stats::{fnv1a, median, MIN_TAIL_SAMPLES, WINDOW};
use crate::sweep::{traced_cell, Cell};
use crate::{sample_setup, Args};

/// Closed-loop clients (the host's two cores).
pub const CLIENTS: usize = 2;

/// References per served cell.
pub const JOB_REFS: u64 = 20_000;

/// Specs in the repeated pool of one generation.
const POOL: u64 = 8;

/// Jobs per client before the pool moves on to fresh specs. Each new
/// generation's specs are cold once, which is when both clients can
/// coalesce onto one run.
const GENERATION: u64 = 64;

/// Client sleep between status polls.
const POLL: Duration = Duration::from_micros(250);

/// Socket timeout for every client call.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Jobs each client sends to one server. A window is a fixed amount of
/// work, so the server's retained job records, and with them peak
/// memory, do not depend on how fast the host happens to be. Each
/// server window is also at least one latency window.
const WINDOW_JOBS: u64 = WINDOW as u64;

/// Jobs each client sends in the untimed warm-up window.
const WARMUP_JOBS: u64 = 250;

/// Cold cells replayed a layer at a time in a traced run.
const REPLAY_CELLS: usize = 48;

/// One submitted cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub policy: RefPolicy,
    pub seed: u64,
    /// Drawn from the repeated pool rather than unique.
    pub pooled: bool,
}

impl Spec {
    /// The request body.
    pub fn body(&self) -> String {
        format!(
            r#"{{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"{}","scale":{{"refs":{JOB_REFS},"seed":{},"reps":1}},"obs":false}}"#,
            self.policy, self.seed
        )
    }

    fn cell(&self) -> Cell {
        Cell::new("SLC", slc, MemSize::MB5, self.policy)
    }

    fn scale(&self) -> Scale {
        Scale {
            refs: JOB_REFS,
            seed: self.seed,
            reps: 1,
            ..Scale::quick()
        }
    }

    /// What the CLI's job path produces for this spec.
    fn expected_artifact(&self) -> String {
        let job = refbit_job_obs(
            self.cell().key(),
            slc,
            MemSize::MB5,
            self.policy,
            self.scale(),
            None,
        );
        job_artifact_json(&run_one(job)).encode_pretty()
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded mix: client `client`'s `i`-th job.
pub fn spec(seed: u64, client: usize, i: u64) -> Spec {
    let r = splitmix(seed ^ splitmix(((client as u64) << 48) | i));
    if r & 1 == 0 {
        let slot = (r >> 8) % POOL;
        Spec {
            policy: RefPolicy::ALL[slot as usize % RefPolicy::ALL.len()],
            seed: seed.wrapping_add(1 + (i / GENERATION) * POOL + slot),
            pooled: true,
        }
    } else {
        Spec {
            policy: RefPolicy::ALL[(r >> 8) as usize % RefPolicy::ALL.len()],
            seed: seed
                .wrapping_add(1 << 40)
                .wrapping_add(i * CLIENTS as u64 + client as u64),
            pooled: false,
        }
    }
}

/// One worker, one shard, the default cache, and one acceptor per
/// client connection.
fn server_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        shards: 1,
        accept_threads: CLIENTS,
        ..ServeConfig::default()
    }
}

/// One completed job, as the client saw it.
#[derive(Debug, Clone)]
struct Done {
    spec: Spec,
    /// Submit to result bytes in hand, seconds.
    latency: f64,
    /// The server simulated this job: it was neither answered from the
    /// cache nor coalesced onto another submission's run.
    ran: bool,
    digest: u64,
    len: usize,
    /// The served bytes, kept only for replayed cells.
    body: Option<Vec<u8>>,
}

/// Span-tree phase times of one job that ran, microseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Phases {
    queue_wait: u64,
    run: u64,
    serialize: u64,
}

/// What one client thread saw in one window.
#[derive(Default)]
struct ClientLog {
    done: Vec<Done>,
    errors: Vec<String>,
    phases: Vec<Phases>,
    json_bytes: u64,
    clock: LayerClock,
}

struct Client<'a> {
    addr: &'a str,
    traced: bool,
    log: ClientLog,
}

fn http_ok(
    what: &str,
    resp: std::io::Result<HttpResponse>,
    want: u16,
) -> Result<HttpResponse, String> {
    match resp {
        Ok(r) if r.status == want => Ok(r),
        Ok(r) => Err(format!("{what}: HTTP {} {}", r.status, r.text())),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

impl Client<'_> {
    /// Times `f` as a call into `layer` when tracing; otherwise just
    /// calls it.
    fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if self.traced {
            self.log.clock.time(layer, f)
        } else {
            f()
        }
    }

    fn parse_doc(&mut self, text: &str) -> Result<Json, String> {
        self.log.json_bytes += text.len() as u64;
        self.call(Layer::JsonParse, || parse(text))
            .map_err(|e| e.to_string())
    }

    fn job(&mut self, spec: Spec, keep_body: bool) -> Result<Done, String> {
        let body = spec.body();
        if self.traced {
            self.call(Layer::SpecParse, || parse_job_spec(body.as_bytes()))?;
            self.parse_doc(&body)?;
        }
        let addr = self.addr;
        let start = Instant::now();
        let resp = self.call(Layer::Submit, || {
            post_json(addr, "/v1/jobs", &body, TIMEOUT)
        });
        let accepted = self.parse_doc(&http_ok("submit", resp, 202)?.text())?;
        let Some(Json::UInt(id)) = get_field(&accepted, "id") else {
            return Err("202 body without an id".into());
        };
        let id = *id;
        let flag = |name: &str| get_field(&accepted, name) == Some(&Json::Bool(true));
        let ran = !flag("cached") && !flag("coalesced");
        let mut done = get_field(&accepted, "status") == Some(&Json::Str("done".into()));
        while !done {
            self.call(Layer::PollWait, || std::thread::sleep(POLL));
            let path = format!("/v1/jobs/{id}");
            let resp = self.call(Layer::Status, || get(addr, &path, TIMEOUT));
            let status = self.parse_doc(&http_ok("status", resp, 200)?.text())?;
            match get_field(&status, "status") {
                Some(Json::Str(s)) if s == "done" => done = true,
                Some(Json::Str(s)) if s == "failed" => return Err(format!("job {id} failed")),
                _ => {}
            }
        }
        let path = format!("/v1/jobs/{id}/result");
        let resp = self.call(Layer::Result, || get(addr, &path, TIMEOUT));
        let result = http_ok("result", resp, 200)?;
        let finished = Instant::now();
        if self.traced {
            self.parse_doc(&result.text())?;
            let path = format!("/v1/jobs/{id}/trace");
            let resp = self.call(Layer::TraceFetch, || get(addr, &path, TIMEOUT));
            let trace = self.parse_doc(&http_ok("trace", resp, 200)?.text())?;
            let phase =
                |name: &str| match get_field(&trace, "phases").and_then(|p| get_field(p, name)) {
                    Some(Json::UInt(us)) => Some(*us),
                    _ => None,
                };
            if let Some(run) = phase("run") {
                self.log.phases.push(Phases {
                    queue_wait: phase("queue_wait").unwrap_or(0),
                    run,
                    serialize: phase("serialize").unwrap_or(0),
                });
            }
        }
        Ok(Done {
            spec,
            latency: (finished - start).as_secs_f64(),
            ran,
            digest: fnv1a(&result.body),
            len: result.body.len(),
            body: keep_body.then_some(result.body),
        })
    }
}

/// One client's closed loop over its first `jobs` jobs of the mix.
fn client_loop(addr: &str, seed: u64, client: usize, jobs: u64, traced: bool) -> ClientLog {
    let mut c = Client {
        addr,
        traced,
        log: ClientLog::default(),
    };
    let begin = Instant::now();
    for i in 0..jobs {
        let spec = spec(seed, client, i);
        match c.job(spec, traced && !spec.pooled) {
            Ok(done) => c.log.done.push(done),
            Err(e) => c.log.errors.push(e),
        }
    }
    c.log.clock.add_wall(begin.elapsed());
    c.log
}

/// One server lifetime under a fixed load.
struct Window {
    /// Seconds for `Server::start`.
    setup: f64,
    /// Seconds from the clients' start to the last one's finish.
    wall: f64,
    logs: Vec<ClientLog>,
    /// `/metrics` text after the load (traced windows).
    metrics: Option<String>,
}

impl Window {
    fn jobs(&self) -> impl Iterator<Item = &Done> {
        self.logs.iter().flat_map(|l| l.done.iter())
    }

    fn job_count(&self) -> usize {
        self.logs.iter().map(|l| l.done.len()).sum()
    }
}

fn window(seed: u64, jobs: u64, traced: bool) -> Result<Window, String> {
    let start = Instant::now();
    let server = Server::start(server_config()).map_err(|e| format!("server start: {e}"))?;
    let setup = start.elapsed().as_secs_f64();
    let addr = server.addr().to_string();
    let begin = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.as_str();
                s.spawn(move || client_loop(addr, seed, c, jobs, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = begin.elapsed().as_secs_f64();
    let metrics = traced
        .then(|| http_ok("metrics", get(&addr, "/metrics", TIMEOUT), 200).map(|r| r.text()))
        .transpose();
    server.shutdown();
    Ok(Window {
        setup,
        wall,
        logs,
        metrics: metrics?,
    })
}

/// Counts every job as an operation: transport errors fail it, and so
/// do result bytes that differ from `run_one` for the same spec.
fn verify(windows: &[Window], out: &mut Outcome) {
    let mut distinct: Vec<Spec> = Vec::new();
    let mut index: HashMap<(String, u64), usize> = HashMap::new();
    for w in windows {
        for d in w.jobs() {
            index
                .entry((d.spec.policy.to_string(), d.spec.seed))
                .or_insert_with(|| {
                    distinct.push(d.spec);
                    distinct.len() - 1
                });
        }
    }
    // The expected bytes, computed on the two cores after the load.
    let expected: Vec<(u64, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let distinct = &distinct;
                s.spawn(move || {
                    distinct
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % CLIENTS == k)
                        .map(|(i, spec)| {
                            let bytes = spec.expected_artifact();
                            (i, fnv1a(bytes.as_bytes()), bytes.len())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, u64, usize)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread panicked"))
            .collect();
        all.sort_unstable();
        all.into_iter().map(|(_, d, l)| (d, l)).collect()
    });
    for w in windows {
        for log in &w.logs {
            for e in &log.errors {
                out.checks.op(Err(e.clone()));
            }
        }
        for d in w.jobs() {
            let want = expected[index[&(d.spec.policy.to_string(), d.spec.seed)]];
            out.checks.op(same(
                &format!("result bytes of {}", d.spec.body()),
                (d.digest, d.len),
                want,
            ));
        }
    }
}

/// Runs the workload for `args.seconds` and reports its metrics.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut windows = Vec::new();
    match window(args.seed, WARMUP_JOBS, false) {
        Ok(w) => windows.push(w),
        Err(e) => {
            out.checks.op(Err(e));
            return out;
        }
    }
    let mut setups = Vec::new();
    let start = || Server::start(server_config()).map_err(|e| format!("server start: {e}"));
    let stop = |server: Server| {
        server.shutdown();
    };
    if let Err(e) = sample_setup(&mut setups, start, stop) {
        out.checks.op(Err(e));
        return out;
    }
    // Windows repeat until the time is up, with a probe sample after
    // each. A traced run alternates untraced and traced windows (ABBA),
    // so drift hits both sides of the overhead ratio.
    let mut probe = Probe::new(CLIENTS);
    let first = windows.len();
    let deadline = Instant::now() + args.seconds;
    let min_windows = if args.trace { 4 } else { 1 };
    let mut k = 0;
    probe.sample();
    while k < min_windows || Instant::now() < deadline {
        let traced = args.trace && matches!(k % 4, 1 | 2);
        let result = window(args.seed, WINDOW_JOBS, traced);
        probe.sample();
        match result {
            Ok(w) => {
                setups.push(w.setup);
                windows.push(w);
            }
            Err(e) => out.checks.op(Err(e)),
        }
        k += 1;
    }
    out.checks.op(sample_setup(&mut setups, start, stop));
    verify(&windows, &mut out);
    out.detail.push(("job_refs", Json::from(JOB_REFS)));
    out.detail
        .push(("window_jobs", Json::from(WINDOW_JOBS * CLIENTS as u64)));
    let measured = &windows[first..];
    if args.trace {
        traced_metrics(measured, &mut out);
        return out;
    }
    // A p99 needs MIN_TAIL_SAMPLES samples beyond it, so at least one
    // full latency window.
    let jobs: usize = measured.iter().map(Window::job_count).sum();
    out.checks.op(if jobs >= WINDOW {
        Ok(())
    } else {
        Err(format!(
            "{jobs} jobs completed; a p99 with {MIN_TAIL_SAMPLES} samples beyond it needs {WINDOW}"
        ))
    });
    // Per window: completed jobs, and references the server simulated
    // (cache hits and coalesced jobs simulate nothing).
    let ran = |w: &Window| w.jobs().filter(|d| d.ran).count();
    let per_s = |count: fn(&Window) -> usize| -> Vec<f64> {
        measured.iter().map(|w| count(w) as f64 / w.wall).collect()
    };
    out.detail.push(("windows", Json::from(measured.len())));
    out.detail.push((
        "ran_jobs",
        Json::from(measured.iter().map(ran).sum::<usize>()),
    ));
    let measured = Measured {
        refs_per_s: median(&per_s(ran)) * JOB_REFS as f64,
        jobs_per_s: median(&per_s(Window::job_count)),
        groups_ms: measured
            .iter()
            .map(|w| w.jobs().map(|d| d.latency * 1e3).collect())
            .collect(),
        setups_s: setups,
    };
    set_end_to_end(&mut out, &probe, measured);
    out
}

/// The value of an unlabeled Prometheus sample.
fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

fn traced_metrics(windows: &[Window], out: &mut Outcome) {
    let (traced, untraced): (Vec<&Window>, Vec<&Window>) =
        windows.iter().partition(|w| w.metrics.is_some());
    let per_job = |ws: &[&Window]| {
        let wall: f64 = ws.iter().map(|w| w.wall).sum();
        let jobs: usize = ws.iter().map(|w| w.job_count()).sum();
        wall / jobs.max(1) as f64
    };
    let mut clock = LayerClock::default();
    let (mut json_bytes, mut jobs) = (0u64, 0usize);
    let mut phases = Vec::new();
    let (mut submitted, mut hits, mut coalesced) = (0.0, 0.0, 0.0);
    for w in &traced {
        for log in &w.logs {
            clock.merge(&log.clock);
            json_bytes += log.json_bytes;
            phases.extend(log.phases.iter().copied());
        }
        jobs += w.job_count();
        let text = w.metrics.as_deref().unwrap_or("");
        submitted += prom_value(text, "spur_serve_jobs_submitted_total");
        hits += prom_value(text, "spur_serve_cache_hits_total");
        coalesced += prom_value(text, "spur_serve_jobs_coalesced_total");
    }
    let mean_ms = |f: fn(&Phases) -> u64| {
        phases.iter().map(f).sum::<u64>() as f64 / phases.len().max(1) as f64 / 1e3
    };
    let m = &mut out.metrics;
    m.set(
        "json.parse_us_per_kb",
        clock.secs(Layer::JsonParse) * 1e6 / (json_bytes as f64 / 1024.0),
    );
    m.set(
        "serve.spec_parse_us",
        clock.mean_secs(Layer::SpecParse) * 1e6,
    );
    m.set("serve.submit_rtt_ms", clock.mean_secs(Layer::Submit) * 1e3);
    m.set("serve.status_rtt_ms", clock.mean_secs(Layer::Status) * 1e3);
    m.set("serve.result_rtt_ms", clock.mean_secs(Layer::Result) * 1e3);
    m.set(
        "serve.polls_per_job",
        clock.calls(Layer::Status) as f64 / jobs.max(1) as f64,
    );
    m.set("serve.phase.queue_wait_ms", mean_ms(|p| p.queue_wait));
    m.set("serve.phase.run_ms", mean_ms(|p| p.run));
    m.set("serve.phase.serialize_ms", mean_ms(|p| p.serialize));
    m.set("serve.cache_hit_ratio", hits / submitted.max(1.0));
    m.set("serve.coalesced_ratio", coalesced / submitted.max(1.0));
    m.set(
        "trace_overhead_frac",
        per_job(&traced) / per_job(&untraced) - 1.0,
    );

    // Replay a sample of cold cells a layer at a time; each must
    // reproduce the bytes the server returned.
    let mut replay = LayerClock::default();
    let mut print = Fingerprint::default();
    let mut bytes = 0;
    let cold: Vec<&Done> = traced
        .iter()
        .flat_map(|w| w.jobs())
        .filter(|d| d.body.is_some())
        .take(REPLAY_CELLS)
        .collect();
    for d in &cold {
        let begin = Instant::now();
        let result = traced_cell(&d.spec.cell(), JOB_REFS, d.spec.seed, false, &mut replay);
        replay.add_wall(begin.elapsed());
        out.checks.op(result.and_then(|cell| {
            print.add(&cell.print);
            bytes += cell.artifact.len();
            same(
                "replayed bytes",
                Some(cell.artifact.into_bytes()),
                d.body.clone(),
            )
        }));
    }
    let cells = cold.len().max(1) as f64;
    let refs = cells * JOB_REFS as f64;
    let m = &mut out.metrics;
    m.set("trace.gen_ns_per_ref", replay.secs(Layer::Gen) * 1e9 / refs);
    m.set("core.sim_ns_per_ref", replay.secs(Layer::Sim) * 1e9 / refs);
    m.set("core.setup_ms", replay.mean_secs(Layer::Setup) * 1e3);
    m.set(
        "harness.encode_ms",
        replay.secs(Layer::Encode) * 1e3 / cells,
    );
    m.set("harness.artifact_bytes", bytes as f64 / cells);
    print.set_layer_metrics(m, cells);
    clock.merge(&replay);
    let gap = clock.reconcile_gap();
    m.set("reconcile_gap_frac", gap);
    out.checks.op(reconciled(gap));
    out.detail.push(("traced_jobs", Json::from(jobs)));
    out.detail.push(("replayed_cells", Json::from(cold.len())));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_pure_function_of_the_seed() {
        for c in 0..CLIENTS {
            for i in 0..500 {
                assert_eq!(spec(1989, c, i), spec(1989, c, i));
            }
        }
        let a: Vec<Spec> = (0..200).map(|i| spec(1989, 0, i)).collect();
        let b: Vec<Spec> = (0..200).map(|i| spec(1990, 0, i)).collect();
        assert_ne!(a, b, "another seed gives another mix");
    }

    #[test]
    fn about_half_the_jobs_repeat_a_small_pool() {
        let specs: Vec<Spec> = (0..CLIENTS)
            .flat_map(|c| (0..2000).map(move |i| spec(7, c, i)))
            .collect();
        let pooled = specs.iter().filter(|s| s.pooled).count();
        assert!((1600..=2400).contains(&pooled), "{pooled} of 4000 pooled");
        // Unique jobs never repeat; pooled ones come from POOL specs per
        // generation, shared by both clients.
        let mut unique: Vec<u64> = specs.iter().filter(|s| !s.pooled).map(|s| s.seed).collect();
        let n = unique.len();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), n);
        let gen0: Vec<Spec> = specs
            .iter()
            .filter(|s| s.pooled && s.seed <= 7 + POOL)
            .copied()
            .collect();
        assert!(gen0.len() > 2 * POOL as usize);
        for s in &gen0 {
            assert_eq!(s.policy, RefPolicy::ALL[((s.seed - 8) % POOL) as usize % 3]);
        }
    }

    #[test]
    fn bodies_are_accepted_by_the_server_parser() {
        for i in 0..20 {
            let s = spec(1989, 1, i);
            let parsed = parse_job_spec(s.body().as_bytes()).expect("valid submission");
            assert_eq!(parsed.key(), s.cell().key());
        }
    }

    #[test]
    fn prometheus_samples_are_read_by_exact_name() {
        let text = "# HELP x\nspur_serve_cache_hits_total 4\nspur_serve_cache_hits_total_extra 9\n";
        assert_eq!(prom_value(text, "spur_serve_cache_hits_total"), 4.0);
        assert_eq!(prom_value(text, "spur_serve_jobs_coalesced_total"), 0.0);
    }
}
