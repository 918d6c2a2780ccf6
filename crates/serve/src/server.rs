//! The daemon: accept pool, sharded worker pool, routing, coalescing,
//! the results cache, and drain-then-exit.
//!
//! Two thread families share one [`Shared`] state. *Acceptors* block in
//! `accept()` on a cloned listener, parse one request per connection,
//! and answer; *workers* pin to a shard of the [`FairQueue`] and
//! execute jobs with [`run_one`] — the exact per-job body the batch
//! harness uses, so a served job's artifact is byte-identical to a
//! sweep's.
//!
//! A submission's path after parse is a fixed pipeline:
//! **route** (hash the full-spec identity to a worker shard — or, in
//! multi-instance mode, to the owning peer, proxying if that isn't
//! us), **cache lookup** (a previously computed artifact answers
//! immediately; determinism makes that answer byte-exact, not
//! approximate), **coalesce** (an identical in-flight submission joins
//! the running leader as a *follower* and receives the leader's bytes
//! when it lands), and finally the shard's per-client
//! deficit-round-robin lane. Every stage is a span phase (`route`,
//! `cache_lookup`, `coalesce_wait`), so `/v1/jobs/{id}/trace` still
//! reconciles with root wall time. A scenario's cells skip route,
//! cache lookup and coalescing, but both endpoints enter the queue
//! through one admission step (`admit`): a `/v1/jobs` leader is a
//! batch of one, a scenario matrix a batch of its cells, and a refused
//! batch leaves nothing behind.
//!
//! Every accepted submission carries a [`SpanContext`] from the moment
//! its socket was read: the acceptor opens the trace and its `accept`
//! and `parse` phases, queue admission opens `queue_wait`, and the
//! worker that pops the job closes it, brackets `run` (closed with the
//! harness's own wall clock, so span trees and job records cannot
//! disagree) and `serialize`, then seals the trace. Phase latencies on
//! `/metrics` are read *off the sealed trace* — the span tree is the
//! single source of latency truth. Declared SLOs ([`SloTracker`]) are
//! fed from the same spans and evaluated by a ticker thread.
//!
//! Shutdown is drain-then-exit: `POST /v1/shutdown` (or
//! [`Server::shutdown`]) stops the queue from accepting, workers finish
//! the backlog and exit, and only then do the acceptors stop — so
//! clients can keep polling results while the backlog drains.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spur_harness::fault::{arm, roll, FaultPlan};
use spur_harness::{
    job_artifact_json, run_one, write_run, ChromeTrace, FailureKind, Json, RunReport,
};
use spur_obs::prometheus::{render_counter, render_counter_labeled, render_gauge};
use spur_obs::slo::{SloTarget, SloTracker};
use spur_obs::span::{SpanContext, SpanSink};
use spur_obs::{merged_chrome_trace, TraceRecorder};

use crate::api::parse_job_spec;
use crate::cache::{CachedResult, ResultsCache};
use crate::http::{read_request, write_response, ReadError, Request, Response};
use crate::metrics::{PhaseSample, ServeMetrics};
use crate::queue::{retry_after_secs, Admission, FairPushError, FairQueue, Priority};
use crate::ring::HashRing;
use crate::scenario::{evaluate_finished, parse_scenario_submission};
use spur_scenario::{Cell, Scenario, Verdict};

/// Simulator event recorders retained in memory for
/// `GET /v1/jobs/{id}/trace/chrome` merging. A recorder holds up to the
/// job's `trace_capacity` events (32 B each: 2 MiB at the default
/// capacity), so only the most recent few are kept; the *span* trees
/// are small and keep their own, much larger ring.
const SIM_TRACE_RETAIN: usize = 32;

/// Job/scenario id stride between instances: instance *k* of a
/// multi-instance deployment numbers its jobs from `k * ID_STRIDE`, so
/// any instance can tell from a bare id which peer owns its records
/// (and proxy the poll there). A single instance runs out of ids after
/// a billion jobs — a non-problem for a simulator service.
const ID_STRIDE: u64 = 1_000_000_000;

/// DRR refill per client lane per rotation, in units of
/// `JobSpec::cost` (simulated refs). One quantum ≈ one quick-scale
/// job: clients trading small jobs interleave one-for-one, and a
/// full-scale job (2M refs) bills ~40 rotations of patience.
const DRR_QUANTUM: u64 = 50_000;

/// Flat DRR cost billed per scenario cell: a mid-size constant keeps a
/// big matrix from starving interactive clients without special-casing
/// the lane math.
const SCENARIO_CELL_COST: u64 = 20_000;

/// Sliding window for the drain-rate estimate behind `Retry-After`.
const DRAIN_WINDOW_US: u64 = 30_000_000;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:7979"`. Port 0 asks the OS for an
    /// ephemeral port (the bound address is [`Server::addr`]).
    pub addr: String,
    /// Worker threads executing jobs. Zero is allowed (jobs queue but
    /// never run — useful for tests; a real deployment wants ≥ 1).
    pub workers: usize,
    /// Queue capacity; submissions beyond it are shed with 429.
    pub queue_bound: usize,
    /// Threads blocked in `accept()` — the concurrent-connection cap.
    pub accept_threads: usize,
    /// Socket read timeout per connection.
    pub read_timeout: Duration,
    /// Socket write timeout per connection.
    pub write_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// When set, every finished job is also persisted under this root
    /// as a single-job run (`write_run`), so served artifacts can be
    /// validated on disk by the same tooling as CLI sweeps.
    pub results_dir: Option<PathBuf>,
    /// How many times a job whose worker *panicked* is re-queued and
    /// re-run before being recorded as failed. Jobs are rebuilt from
    /// their queued cell, so a retried job's artifact is
    /// byte-identical to an undisturbed run. Zero (the default)
    /// preserves the original fail-fast behavior; `Err` results are
    /// never retried (they are deterministic).
    pub panic_retries: u32,
    /// Deterministic fault injection for chaos testing. `None` (the
    /// default) injects nothing.
    pub chaos: Option<ChaosConfig>,
    /// Declared service-level objectives (`--slo name=value`). Empty
    /// means no SLO tracking: no ticker thread, no `/v1/slo` data.
    pub slos: Vec<SloTarget>,
    /// Sliding window SLOs are evaluated over.
    pub slo_window: Duration,
    /// Completed span traces retained for `GET /v1/jobs/{id}/trace`.
    pub trace_capacity: usize,
    /// Worker shards. Workers pin round-robin to shards; submissions
    /// route to a shard by hashing their full-spec identity, so
    /// identical jobs always land (and coalesce) on the same shard.
    pub shards: usize,
    /// Results-cache capacity in entries (LRU by full-spec identity).
    /// Zero disables caching.
    pub cache_entries: usize,
    /// Per-client queued-job quota (0 = unlimited). A client at its
    /// quota is shed with 429 + its own Retry-After while the queue
    /// keeps serving everyone else.
    pub client_quota: usize,
    /// Multi-instance membership: every instance's address, identical
    /// on every instance (order-insensitive). Empty = single instance.
    /// When set, `self_peer` must name this instance's own entry;
    /// submissions whose identity hashes to another peer are proxied
    /// there, keeping the cache key-partitioned.
    pub peers: Vec<String>,
    /// This instance's entry in `peers`.
    pub self_peer: Option<String>,
}

/// Seeded fault-injection knobs, all decided deterministically from
/// `(seed, site)` — see [`spur_harness::fault`]. Rates are parts per
/// million.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Rate of injected worker panics (fired at most once per job, so
    /// a retry models a transient fault).
    pub worker_panic_ppm: u64,
    /// Rate of responses dropped before writing (the client sees a
    /// truncated connection; server state must stay consistent).
    pub drop_response_ppm: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7979".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            queue_bound: 64,
            accept_threads: 8,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body_bytes: 1024 * 1024,
            results_dir: None,
            panic_retries: 0,
            chaos: None,
            slos: Vec::new(),
            slo_window: Duration::from_secs(60),
            trace_capacity: SpanSink::DEFAULT_CAPACITY,
            shards: 1,
            cache_entries: 128,
            client_quota: 0,
            peers: Vec::new(),
            self_peer: None,
        }
    }
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

#[derive(Debug)]
struct JobRecord {
    key: String,
    state: JobState,
    /// The pretty-encoded job artifact, present once the job ran —
    /// byte-for-byte the document `write_run` puts in the job's file.
    artifact: Option<String>,
    error: Option<String>,
    wall_ms: Option<u64>,
    /// The request's span-trace id (`GET /v1/jobs/{id}/trace`).
    trace_id: u64,
    /// Experiment family, the label on span-derived phase histograms.
    experiment: &'static str,
    /// Queue-admission timestamp on the span clock — the queue's own
    /// record of when `queue_wait` began, which the span must match.
    admitted_us: u64,
}

impl JobRecord {
    /// A job admitted at `admitted_us` that has not run yet.
    fn queued(key: String, trace_id: u64, experiment: &'static str, admitted_us: u64) -> Self {
        JobRecord {
            key,
            state: JobState::Queued,
            artifact: None,
            error: None,
            wall_ms: None,
            trace_id,
            experiment,
            admitted_us,
        }
    }
}

/// A queued submission holds its compiled [`Cell`], not a built job:
/// the worker builds the job at pop time (and again on each retry).
/// Jobs are pure functions of their cell, so a rebuild after an
/// injected panic reproduces the artifact byte-for-byte.
struct QueuedJob {
    id: u64,
    /// The cell a `POST /v1/jobs` body or a scenario matrix compiled to.
    cell: Cell,
    /// Root span of the request's trace.
    trace: SpanContext,
    /// The open `queue_wait` span, closed by the worker that pops it.
    queue_span: SpanContext,
    /// Experiment family for metric labels.
    experiment: &'static str,
    /// Full-spec identity for Spec jobs — the coalescing/cache unit.
    /// `None` for scenario cells (matrix context isn't
    /// identity-addressable, so they neither coalesce nor cache).
    identity: Option<String>,
}

/// A submission waiting on an identical in-flight leader run.
struct Follower {
    id: u64,
    /// Root span of the follower's own trace.
    root: SpanContext,
    /// Its open `coalesce_wait` span, closed at fan-out.
    coalesce_span: SpanContext,
}

/// One in-flight Spec run, keyed by full-spec identity.
struct Inflight {
    leader_id: u64,
    followers: Vec<Follower>,
}

/// The dedup core: the results cache and the in-flight map live under
/// ONE mutex, so "check cache → check inflight → enqueue as leader"
/// is atomic against "leader finished → populate cache → fan out".
/// Without that atomicity a submission could miss the cache, then miss
/// the inflight entry the finishing worker just removed, and re-run a
/// job whose result was computed a microsecond ago.
struct Dedup {
    cache: ResultsCache,
    inflight: HashMap<String, Inflight>,
}

/// One accepted scenario submission: the validated scenario (its
/// assertions are evaluated at result time) plus every expanded cell
/// with its job id, in expansion order.
struct ScenarioRecord {
    scenario: Scenario,
    cells: Vec<(u64, Cell)>,
}

struct Shared {
    cfg: ServeConfig,
    queue: FairQueue<QueuedJob>,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    scenarios: Mutex<HashMap<u64, Arc<ScenarioRecord>>>,
    /// Cache + inflight coalescing state (see [`Dedup`]). Lock order:
    /// `dedup` before `jobs`; never taken while holding `jobs`.
    dedup: Mutex<Dedup>,
    /// Consistent-hash ring over `cfg.peers`, present in
    /// multi-instance mode.
    ring: Option<HashRing>,
    /// This instance's index into the (sorted) peer list — the id
    /// namespace selector.
    instance_index: usize,
    /// Worker-completion timestamps (span clock, µs) feeding the
    /// drain-rate estimate behind `Retry-After`. Only actual runs
    /// count: followers and cache hits consume no worker time.
    completions: Mutex<VecDeque<u64>>,
    next_id: AtomicU64,
    next_scenario_id: AtomicU64,
    metrics: ServeMetrics,
    stop_accepting: AtomicBool,
    local_addr: SocketAddr,
    shutdown_flag: Mutex<bool>,
    shutdown_signal: Condvar,
    /// Worker-panic injection plan, present when chaos is configured.
    fault_plan: Option<Arc<FaultPlan>>,
    /// Connection counter feeding the drop-response injection site.
    connections: AtomicU64,
    /// Request span collector — the latency source of truth.
    spans: SpanSink,
    /// Declared-SLO evaluator, present when any `--slo` was given.
    slo: Option<SloTracker>,
    /// Recent instrumented jobs' event recorders, unencoded, for merged
    /// Chrome export.
    sim_traces: Mutex<VecDeque<(u64, Arc<dyn ChromeTrace>)>>,
    /// Stops the SLO ticker thread at drain.
    stop_ticker: AtomicBool,
    started: Instant,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    fn request_shutdown(&self) {
        self.queue.drain();
        *lock_unpoisoned(&self.shutdown_flag) = true;
        self.shutdown_signal.notify_all();
    }
}

/// What the drain left behind, returned by [`Server::wait`] /
/// [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Jobs that ran to successful completion over the server's life.
    pub completed: u64,
    /// Jobs that ran and failed.
    pub failed: u64,
    /// Submissions shed with 429.
    pub rejected: u64,
    /// Jobs still queued at exit (only possible with zero workers).
    pub unstarted: u64,
}

/// A running `spur-serve` instance.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    acceptors: Vec<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, then spawns the worker, acceptor, and (with SLOs
    /// declared) ticker threads.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        // Multi-instance membership must be self-consistent before we
        // bind anything: an instance that isn't in its own peer list
        // would proxy every request somewhere else forever.
        let (ring, instance_index) = if cfg.peers.is_empty() {
            (None, 0)
        } else {
            let Some(self_peer) = &cfg.self_peer else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "peers configured without self_peer",
                ));
            };
            // Sort so every instance numbers the same peer list the
            // same way regardless of flag order.
            let mut peers = cfg.peers.clone();
            peers.sort();
            peers.dedup();
            let Some(idx) = peers.iter().position(|p| p == self_peer) else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("self_peer {self_peer:?} is not in the peer list {peers:?}"),
                ));
            };
            (Some(HashRing::new(&peers)), idx)
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let fault_plan = cfg
            .chaos
            .filter(|c| c.worker_panic_ppm > 0)
            .map(|c| Arc::new(FaultPlan::new(c.seed, c.worker_panic_ppm)));
        let slo = (!cfg.slos.is_empty())
            .then(|| SloTracker::new(cfg.slos.clone(), cfg.slo_window.as_micros() as u64));
        let spans = SpanSink::new(cfg.trace_capacity);
        let shared = Arc::new(Shared {
            // A shard with no pinned worker would strand its jobs, so
            // the effective shard count never exceeds the worker pool
            // (zero-worker test configs keep their shards: nothing
            // runs anyway).
            queue: FairQueue::new(
                if cfg.workers == 0 {
                    cfg.shards
                } else {
                    cfg.shards.min(cfg.workers)
                },
                cfg.queue_bound,
                cfg.client_quota,
                DRR_QUANTUM,
            ),
            jobs: Mutex::new(HashMap::new()),
            scenarios: Mutex::new(HashMap::new()),
            dedup: Mutex::new(Dedup {
                cache: ResultsCache::new(cfg.cache_entries),
                inflight: HashMap::new(),
            }),
            ring,
            instance_index,
            completions: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(instance_index as u64 * ID_STRIDE),
            next_scenario_id: AtomicU64::new(instance_index as u64 * ID_STRIDE),
            metrics: ServeMetrics::new(),
            stop_accepting: AtomicBool::new(false),
            local_addr,
            shutdown_flag: Mutex::new(false),
            shutdown_signal: Condvar::new(),
            fault_plan,
            connections: AtomicU64::new(0),
            spans,
            slo,
            sim_traces: Mutex::new(VecDeque::new()),
            stop_ticker: AtomicBool::new(false),
            started: Instant::now(),
            cfg,
        });

        let shard_count = shared.queue.shard_count();
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let shard = i % shard_count;
                std::thread::spawn(move || worker_loop(&shared, shard))
            })
            .collect();
        let acceptors = (0..shared.cfg.accept_threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let listener = listener.try_clone()?;
                Ok(std::thread::spawn(move || accept_loop(&shared, listener)))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let ticker = shared.slo.is_some().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || slo_ticker_loop(&shared))
        });

        Ok(Server {
            shared,
            workers,
            acceptors,
            ticker,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Blocks until a `POST /v1/shutdown` arrives, then drains and
    /// exits. The daemon binary's main loop.
    pub fn wait(self) -> DrainSummary {
        let mut requested = lock_unpoisoned(&self.shared.shutdown_flag);
        while !*requested {
            requested = self
                .shared
                .shutdown_signal
                .wait(requested)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(requested);
        self.join_all()
    }

    /// Initiates the drain programmatically and blocks until done.
    pub fn shutdown(self) -> DrainSummary {
        self.shared.request_shutdown();
        self.join_all()
    }

    fn join_all(self) -> DrainSummary {
        // Workers first: they exit once the draining queue is empty.
        // Acceptors stay up meanwhile so result polls keep working.
        for worker in self.workers {
            let _ = worker.join();
        }
        self.shared.stop_accepting.store(true, Ordering::SeqCst);
        // Each blocked acceptor needs one wake-up connection; a
        // zero-byte connection parses as "empty" and is dropped.
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect_timeout(&self.shared.local_addr, Duration::from_secs(1));
        }
        for acceptor in self.acceptors {
            let _ = acceptor.join();
        }
        self.shared.stop_ticker.store(true, Ordering::SeqCst);
        if let Some(ticker) = self.ticker {
            let _ = ticker.join();
        }

        let jobs = lock_unpoisoned(&self.shared.jobs);
        let unstarted = jobs
            .values()
            .filter(|r| matches!(r.state, JobState::Queued | JobState::Running))
            .count() as u64;
        DrainSummary {
            completed: self.shared.metrics.jobs_completed.load(Ordering::Relaxed),
            failed: self.shared.metrics.jobs_failed.load(Ordering::Relaxed),
            rejected: self.shared.metrics.jobs_rejected.load(Ordering::Relaxed),
            unstarted,
        }
    }
}

/// SLO ticker: one periodic evaluator owns the violation counters.
/// Scrapes and `GET /v1/slo` use the read-only `peek` path, so counter
/// growth is a function of time and traffic, never scrape frequency.
fn slo_ticker_loop(shared: &Shared) {
    const TICK: Duration = Duration::from_millis(250);
    while !shared.stop_ticker.load(Ordering::SeqCst) {
        std::thread::sleep(TICK);
        if let Some(slo) = &shared.slo {
            slo.evaluate_mut(shared.spans.now_us());
        }
    }
}

fn worker_loop(shared: &Shared, shard: usize) {
    while let Some(queued) = shared.queue.pop(shard) {
        let picked_us = shared.spans.now_us();
        shared.spans.end_span(queued.queue_span, Some(picked_us));
        if let Some(record) = lock_unpoisoned(&shared.jobs).get_mut(&queued.id) {
            record.state = JobState::Running;
        }

        // Run, retrying panics (injected or real) up to the configured
        // budget. The injection site keys on the job id, so whether a
        // given job is hit does not depend on worker scheduling; the
        // plan's once-semantics make the retry succeed.
        let run_span = shared
            .spans
            .begin_span(queued.trace, "run", Some(picked_us), 0);
        let fault_key = format!("worker/{}", queued.id);
        let mut attempts = 0u32;
        let mut run_wall_us = 0u64;
        let completed = loop {
            let mut job = queued.cell.job().map(|_| ());
            if let Some(plan) = &shared.fault_plan {
                job = arm(plan, job, &fault_key);
            }
            let completed = run_one(job);
            run_wall_us += completed.wall_us();
            let panicked = completed
                .failure()
                .is_some_and(|f| f.kind == FailureKind::Panic);
            if panicked && attempts < shared.cfg.panic_retries {
                attempts += 1;
                shared.metrics.jobs_retried.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            break completed;
        };
        // The run span closes on the harness's accumulated wall clock —
        // the single authority for execution time — so the span, the
        // record's wall_ms, and the artifact's timing agree by
        // construction.
        let run_end_us = picked_us + run_wall_us;
        shared
            .spans
            .annotate(run_span, "experiment", queued.experiment);
        if attempts > 0 {
            shared
                .spans
                .annotate(run_span, "attempts", (attempts + 1).to_string());
        }
        let sim_trace = completed
            .outcome
            .as_ref()
            .ok()
            .and_then(|out| out.trace.clone());
        if let Some((first, last)) = sim_trace
            .as_deref()
            .and_then(TraceRecorder::from_handle)
            .and_then(TraceRecorder::cycle_bounds)
        {
            shared
                .spans
                .annotate(run_span, "sim_cycles_first", first.to_string());
            shared
                .spans
                .annotate(run_span, "sim_cycles_last", last.to_string());
        }
        shared.spans.end_span(run_span, Some(run_end_us));

        // Serialize: artifact encoding plus optional persistence,
        // bracketed contiguously with the run span's end.
        let serialize_span =
            shared
                .spans
                .begin_span(queued.trace, "serialize", Some(run_end_us), 0);
        let ok = completed.outcome.is_ok();
        let wall_ms = completed.wall.as_millis() as u64;
        let error = completed
            .failure()
            .map(|f| format!("{}: {}", f.kind.as_str(), f.reason));
        let artifact = job_artifact_json(&completed).encode_pretty();
        persist(shared, queued.id, completed);
        shared.spans.end_span(serialize_span, None);

        // Settles a record with this run's outcome: the leader's own, or
        // the leader's bytes fanned out to a coalesced follower.
        let settle = |id: u64| {
            if let Some(record) = lock_unpoisoned(&shared.jobs).get_mut(&id) {
                record.state = if ok { JobState::Done } else { JobState::Failed };
                record.artifact = Some(artifact.clone());
                record.error = error.clone();
                record.wall_ms = Some(wall_ms);
            }
        };

        if let Some(sim) = sim_trace {
            let mut ring = lock_unpoisoned(&shared.sim_traces);
            ring.push_back((queued.id, sim));
            while ring.len() > SIM_TRACE_RETAIN {
                ring.pop_front();
            }
        }
        // This worker just drained one queued job: feed the
        // Retry-After drain-rate estimator.
        let finished_us = shared.spans.now_us();
        {
            let mut comps = lock_unpoisoned(&shared.completions);
            comps.push_back(finished_us);
            while comps
                .front()
                .is_some_and(|&t| finished_us.saturating_sub(t) > DRAIN_WINDOW_US)
            {
                comps.pop_front();
            }
        }

        // Leader bookkeeping: populate the cache (success only — a
        // failure may be an injected fault, and re-running is the only
        // honest answer), then resolve every coalesced follower with
        // the leader's exact bytes. Cache insert and inflight removal
        // happen under one dedup lock so no submission can fall
        // between them. This runs BEFORE the leader's record flips to
        // done: a client that polls "done" and instantly resubmits
        // must find the cache already populated, not re-run the job.
        if let Some(identity) = &queued.identity {
            let followers = {
                let mut dedup = lock_unpoisoned(&shared.dedup);
                if ok {
                    let evicted = dedup.cache.insert(
                        identity.clone(),
                        CachedResult {
                            artifact: artifact.clone(),
                            wall_ms,
                        },
                    );
                    if evicted {
                        shared
                            .metrics
                            .cache_evictions
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                dedup
                    .inflight
                    .remove(identity)
                    .map(|i| i.followers)
                    .unwrap_or_default()
            };
            for follower in followers {
                settle(follower.id);
                shared
                    .spans
                    .end_span(follower.coalesce_span, Some(finished_us));
                if let Some(trace) = shared.spans.finish(follower.root.trace) {
                    let e2e_us = trace.root().duration_us().unwrap_or(0);
                    shared.metrics.observe_logical(e2e_us / 1_000, ok);
                    if let Some(slo) = &shared.slo {
                        slo.record_job(shared.spans.now_us(), e2e_us, ok);
                    }
                } else {
                    shared.metrics.observe_logical(0, ok);
                }
            }
        }

        settle(queued.id);

        // Seal the trace and derive every latency metric from it.
        if let Some(trace) = shared.spans.finish(queued.trace.trace) {
            let phase_ms = |name: &str| trace.phase_us(name).map_or(0, |us| us / 1_000);
            let e2e_us = trace.root().duration_us().unwrap_or(0);
            shared.metrics.observe_phases(
                queued.experiment,
                PhaseSample {
                    queue_wait_ms: phase_ms("queue_wait"),
                    run_ms: phase_ms("run"),
                    serialize_ms: phase_ms("serialize"),
                    e2e_ms: e2e_us / 1_000,
                    ok,
                },
            );
            if let Some(slo) = &shared.slo {
                slo.record_job(shared.spans.now_us(), e2e_us, ok);
            }
        }
    }
}

/// Persists one finished job as a single-job run under the configured
/// results root. A filesystem error degrades to a stderr line — the
/// in-memory record (and the client's result fetch) survive regardless.
fn persist(shared: &Shared, id: u64, completed: spur_harness::CompletedJob<()>) {
    let Some(root) = &shared.cfg.results_dir else {
        return;
    };
    let key = completed.key.clone();
    let wall = completed.wall;
    let report = RunReport::from_jobs(vec![completed], 1, wall);
    let meta = [("served_job_id", Json::UInt(id)), ("key", Json::Str(key))];
    if let Err(e) = write_run(root, &format!("job-{id:06}"), &report, &meta) {
        eprintln!("spur-serve: failed to persist job {id}: {e}");
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        if shared.stop_accepting.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop_accepting.load(Ordering::SeqCst) {
                    return;
                }
                handle_connection(shared, stream);
            }
            Err(_) => {
                // Transient accept errors (EMFILE, ECONNABORTED):
                // breathe and retry rather than spin or die.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// A routed response plus, for accepted submissions, the trace to
/// attach the `respond` span to once the response is actually written.
struct Routed {
    response: Response,
    /// Root span of an accepted submission's trace.
    submitted: Option<SpanContext>,
}

impl From<Response> for Routed {
    fn from(response: Response) -> Routed {
        Routed {
            response,
            submitted: None,
        }
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let accepted_us = shared.spans.now_us();
    // The fairness fallback identity: clients that don't name
    // themselves (`x-client-id`) are billed by source IP.
    let conn_client = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let routed = match read_request(&mut stream, shared.cfg.max_body_bytes) {
        Ok(request) => {
            shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
            route(shared, &request, accepted_us, &conn_client)
        }
        // Socket-level failure (timeout, reset, empty probe): nobody
        // is listening for an answer.
        Err(ReadError::Io) => return,
        Err(ReadError::Malformed(what)) => {
            shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
            error_response(400, what).into()
        }
        Err(ReadError::TooLarge(what)) => {
            shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
            let status = if what == "request body" { 413 } else { 431 };
            error_response(status, what).into()
        }
    };
    if (400..500).contains(&routed.response.status) {
        shared
            .metrics
            .http_client_errors
            .fetch_add(1, Ordering::Relaxed);
    }
    // Chaos: drop the connection without answering. All server-side
    // effects of the request (queueing, records, spans, metrics) are
    // already committed — exactly the window a crashed proxy would
    // expose. A dropped 202 records no `respond` span and no submit
    // latency: the client never saw an answer, so there is nothing to
    // attribute.
    if let Some(chaos) = &shared.cfg.chaos {
        let n = shared.connections.fetch_add(1, Ordering::Relaxed);
        if roll(
            chaos.seed ^ 0x5e1e_c7ed,
            &format!("resp/{n}"),
            chaos.drop_response_ppm,
        ) {
            return;
        }
    }
    let respond_start_us = shared.spans.now_us();
    let wrote = write_response(&mut stream, &routed.response).is_ok();
    if let (true, Some(root)) = (wrote, routed.submitted) {
        let respond_end_us = shared.spans.now_us();
        // The respond phase runs concurrently with queue_wait (the 202
        // cannot wait for the job), so it gets its own display track.
        let respond = shared
            .spans
            .begin_span(root, "respond", Some(respond_start_us), 1);
        shared.spans.end_span(respond, Some(respond_end_us));
        let submit_us = respond_end_us.saturating_sub(accepted_us);
        shared.metrics.observe_submit(submit_us / 1_000);
        if let Some(slo) = &shared.slo {
            slo.record_submit(respond_end_us, submit_us);
        }
    }
}

fn route(shared: &Shared, request: &Request, accepted_us: u64, conn_client: &str) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(shared).into(),
        ("GET", "/metrics") => Response::text(200, render_metrics(shared)).into(),
        ("GET", "/v1/slo") => slo_report(shared).into(),
        ("POST", "/v1/jobs") => submit(shared, request, accepted_us, conn_client),
        ("POST", "/v1/scenarios") => submit_scenario(shared, request, accepted_us, conn_client),
        ("POST", "/v1/shutdown") => {
            let queued = shared.queue.depth();
            shared.request_shutdown();
            Response::json(
                200,
                Json::object([
                    ("status", Json::Str("draining".into())),
                    ("queued", Json::UInt(queued as u64)),
                ])
                .encode(),
            )
            .into()
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/jobs" | "/v1/scenarios" | "/v1/shutdown" | "/v1/slo",
        ) => error_response(405, "method not allowed").into(),
        ("GET", path) if path.starts_with("/v1/scenarios/") => {
            match path["/v1/scenarios/".len()..].parse::<u64>() {
                Ok(id) => match foreign_owner(shared, request, id) {
                    Some(peer) => proxy_get(shared, &peer, path).into(),
                    None => scenario_status(shared, id).into(),
                },
                Err(_) => error_response(404, "no such route").into(),
            }
        }
        ("GET", path) => match parse_job_path(path) {
            Some((id, kind)) => {
                // A job id names its owning instance via the id
                // stride: polls that land on the wrong peer are
                // proxied to the one holding the record.
                if let Some(peer) = foreign_owner(shared, request, id) {
                    return proxy_get(shared, &peer, path).into();
                }
                match kind {
                    JobRoute::Status => job_status(shared, id).into(),
                    JobRoute::Result => job_result(shared, id).into(),
                    JobRoute::Trace => job_trace(shared, id).into(),
                    JobRoute::TraceChrome => job_trace_chrome(shared, id).into(),
                }
            }
            None => error_response(404, "no such route").into(),
        },
        _ => error_response(404, "no such route").into(),
    }
}

/// In multi-instance mode: the peer owning `id`'s record, when that
/// peer isn't us and the request hasn't already been forwarded once
/// (the guard header breaks proxy loops under inconsistent configs).
fn foreign_owner(shared: &Shared, request: &Request, id: u64) -> Option<String> {
    let ring = shared.ring.as_ref()?;
    if request.header("x-spur-forwarded").is_some() {
        return None;
    }
    let owner_index = (id / ID_STRIDE) as usize;
    if owner_index == shared.instance_index {
        return None;
    }
    ring.peers().get(owner_index).cloned()
}

/// Forwards a GET to the owning peer verbatim, marking the hop.
fn proxy_get(shared: &Shared, peer: &str, path: &str) -> Response {
    shared.metrics.jobs_proxied.fetch_add(1, Ordering::Relaxed);
    match crate::client::http_request_headers(
        peer,
        "GET",
        path,
        None,
        &[("x-spur-forwarded", "1")],
        shared.cfg.read_timeout,
    ) {
        Ok(upstream) => relay_response(upstream),
        Err(e) => error_response_owned(502, format!("peer {peer} unreachable: {e}")),
    }
}

/// Rebuilds a peer's response for our client: status and body
/// verbatim, plus the one header that carries semantics (Retry-After).
fn relay_response(upstream: crate::client::HttpResponse) -> Response {
    let mut response = Response::json(upstream.status, upstream.text());
    if let Some(retry) = upstream.header("retry-after") {
        response = response.with_header("retry-after", retry.to_string());
    }
    response
}

/// The client identity a submission bills to: the self-declared
/// `x-client-id` header (bounded — it becomes a lane key and a metric
/// dimension) or the connection's source IP.
fn client_id(request: &Request, conn_client: &str) -> String {
    match request.header("x-client-id") {
        Some(name) if !name.is_empty() => name.chars().take(64).collect(),
        _ => conn_client.to_string(),
    }
}

/// Which shard an identity routes to — the same hash family the peer
/// ring uses, reduced over the local shard count. Identical identities
/// always land on the same shard, which is what lets the dedup map
/// guarantee one leader per identity.
fn shard_of(shared: &Shared, identity: &str) -> usize {
    (crate::ring::hash64(identity.as_bytes()) % shared.queue.shard_count() as u64) as usize
}

/// Observed worker completions per second over the sliding window
/// (clipped to uptime, so a young server isn't under-credited).
fn drain_rate(shared: &Shared) -> f64 {
    let now = shared.spans.now_us();
    let mut comps = lock_unpoisoned(&shared.completions);
    while comps
        .front()
        .is_some_and(|&t| now.saturating_sub(t) > DRAIN_WINDOW_US)
    {
        comps.pop_front();
    }
    if comps.is_empty() {
        return 0.0;
    }
    let effective_us = DRAIN_WINDOW_US.min(now.max(1));
    comps.len() as f64 / (effective_us as f64 / 1_000_000.0)
}

/// The per-job sub-resources under `/v1/jobs/{id}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobRoute {
    Status,
    Result,
    Trace,
    TraceChrome,
}

/// `/v1/jobs/{id}[/result|/trace|/trace/chrome]`.
fn parse_job_path(path: &str) -> Option<(u64, JobRoute)> {
    let rest = path.strip_prefix("/v1/jobs/")?;
    let (id_part, route) = if let Some(id_part) = rest.strip_suffix("/trace/chrome") {
        (id_part, JobRoute::TraceChrome)
    } else if let Some(id_part) = rest.strip_suffix("/trace") {
        (id_part, JobRoute::Trace)
    } else if let Some(id_part) = rest.strip_suffix("/result") {
        (id_part, JobRoute::Result)
    } else {
        (rest, JobRoute::Status)
    };
    id_part.parse::<u64>().ok().map(|id| (id, route))
}

fn render_metrics(shared: &Shared) -> String {
    let mut out = shared.metrics.render_prometheus(
        shared.queue.depth(),
        shared.queue.bound(),
        shared.queue.shard_count(),
        shared.cfg.cache_entries,
        shared.queue.is_draining(),
        shared.started.elapsed().as_secs(),
    );
    render_counter(
        &mut out,
        "spur_serve_traces_evicted_total",
        "Completed span traces evicted from the bounded retention ring.",
        shared.spans.evicted_total(),
    );
    if let Some(slo) = &shared.slo {
        let report = slo.peek(shared.spans.now_us());
        render_gauge(
            &mut out,
            "spur_serve_slo_ok",
            "1 while every declared SLO holds over the sliding window.",
            report.ok as u64,
        );
        render_counter(
            &mut out,
            "spur_serve_slo_violations_total",
            "Ticker evaluations at which any declared SLO failed.",
            report.violations_total,
        );
        let mut first = true;
        for target in &report.targets {
            render_counter_labeled(
                &mut out,
                "spur_serve_slo_target_violations_total",
                "Ticker evaluations at which this SLO target failed.",
                &[("slo", target.name)],
                target.violations_total,
                first,
            );
            first = false;
        }
    }
    out
}

fn healthz(shared: &Shared) -> Response {
    let draining = shared.queue.is_draining();
    Response::json(
        200,
        Json::object([
            (
                "status",
                Json::Str(if draining { "draining" } else { "ok" }.into()),
            ),
            ("queue_depth", Json::UInt(shared.queue.depth() as u64)),
            ("queue_bound", Json::UInt(shared.queue.bound() as u64)),
            ("workers", Json::UInt(shared.cfg.workers as u64)),
            ("shards", Json::UInt(shared.queue.shard_count() as u64)),
            (
                "jobs_submitted",
                Json::UInt(shared.metrics.jobs_submitted.load(Ordering::Relaxed)),
            ),
        ])
        .encode(),
    )
}

fn slo_report(shared: &Shared) -> Response {
    match &shared.slo {
        None => error_response(404, "no SLOs declared (start with --slo name=value)"),
        Some(slo) => Response::json(
            200,
            slo.peek(shared.spans.now_us()).to_json().encode_pretty(),
        ),
    }
}

fn submit(shared: &Shared, request: &Request, accepted_us: u64, conn_client: &str) -> Routed {
    let read_done_us = shared.spans.now_us();
    let spec = match parse_job_spec(&request.body) {
        Ok(spec) => spec,
        Err(message) => return error_response_owned(400, message).into(),
    };
    let key = spec.key();
    let experiment = spec.experiment();
    let identity = spec.identity();
    let client = client_id(request, conn_client);

    // Multi-instance: the identity's ring owner runs this job (and
    // caches it — key-partitioning falls out of routing). A request
    // that already hopped once is served locally no matter what the
    // ring says: one guarded hop can't loop, and serving locally under
    // an inconsistent peer config beats bouncing forever.
    if let Some(ring) = &shared.ring {
        if request.header("x-spur-forwarded").is_none()
            && ring.owner_index(&identity) != shared.instance_index
        {
            let owner = ring.owner(&identity).to_string();
            shared.metrics.jobs_proxied.fetch_add(1, Ordering::Relaxed);
            return match crate::client::http_request_headers(
                &owner,
                "POST",
                "/v1/jobs",
                Some(&request.body),
                &[("x-spur-forwarded", "1"), ("x-client-id", &client)],
                shared.cfg.read_timeout,
            ) {
                Ok(upstream) => relay_response(upstream).into(),
                Err(e) => {
                    error_response_owned(502, format!("peer {owner} unreachable: {e}")).into()
                }
            };
        }
    }

    let (id, root, parsed_us) = open_trace(
        shared,
        &key,
        ("client", client.clone()),
        accepted_us,
        read_done_us,
    );
    // Every 202 names the job, its key and its trace around the
    // outcome's own fields.
    let accepted = |outcome: Vec<(&str, Json)>| Routed {
        response: Response::json(
            202,
            Json::object(
                [("id", Json::UInt(id)), ("key", Json::Str(key.clone()))]
                    .into_iter()
                    .chain(outcome)
                    .chain([("trace_id", Json::UInt(root.trace))]),
            )
            .encode(),
        ),
        submitted: Some(root),
    };

    // Route: pick the worker shard from the identity hash.
    let shard = shard_of(shared, &identity);
    let route_span = shared.spans.begin_span(root, "route", Some(parsed_us), 0);
    shared
        .spans
        .annotate(route_span, "shard", shard.to_string());
    let routed_us = shared.spans.now_us();
    shared.spans.end_span(route_span, Some(routed_us));

    // Cache lookup + coalesce decision, atomically against worker
    // completion (see [`Dedup`]).
    let cache_span = shared
        .spans
        .begin_span(root, "cache_lookup", Some(routed_us), 0);
    let mut dedup = lock_unpoisoned(&shared.dedup);

    if let Some(hit) = dedup.cache.get(&identity) {
        drop(dedup);
        shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .jobs_submitted
            .fetch_add(1, Ordering::Relaxed);
        let looked_us = shared.spans.now_us();
        shared.spans.annotate(cache_span, "outcome", "hit");
        shared.spans.end_span(cache_span, Some(looked_us));
        lock_unpoisoned(&shared.jobs).insert(
            id,
            JobRecord {
                state: JobState::Done,
                artifact: Some(hit.artifact),
                wall_ms: Some(hit.wall_ms),
                ..JobRecord::queued(key.clone(), root.trace, experiment, looked_us)
            },
        );
        // The trace seals here: a cache hit's lifecycle ends at the
        // lookup. (The respond span becomes a no-op on the sealed
        // trace; submit latency is still recorded by the writer.)
        if let Some(trace) = shared.spans.finish(root.trace) {
            let e2e_us = trace.root().duration_us().unwrap_or(0);
            shared.metrics.observe_logical(e2e_us / 1_000, true);
            if let Some(slo) = &shared.slo {
                slo.record_job(shared.spans.now_us(), e2e_us, true);
            }
        }
        return accepted(vec![
            ("status", Json::Str("done".into())),
            ("cached", Json::Bool(true)),
        ]);
    }
    shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

    if let Some(inflight) = dedup.inflight.get_mut(&identity) {
        let leader_id = inflight.leader_id;
        let looked_us = shared.spans.now_us();
        shared.spans.annotate(cache_span, "outcome", "coalesced");
        shared.spans.end_span(cache_span, Some(looked_us));
        let coalesce_span = shared
            .spans
            .begin_span(root, "coalesce_wait", Some(looked_us), 0);
        shared
            .spans
            .annotate(coalesce_span, "leader_id", leader_id.to_string());
        // Record before registering the follower: the instant the
        // dedup lock drops, the finishing leader may fan out, and it
        // must find this record to resolve.
        lock_unpoisoned(&shared.jobs).insert(
            id,
            JobRecord::queued(key.clone(), root.trace, experiment, looked_us),
        );
        inflight.followers.push(Follower {
            id,
            root,
            coalesce_span,
        });
        drop(dedup);
        shared
            .metrics
            .jobs_coalesced
            .fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .jobs_submitted
            .fetch_add(1, Ordering::Relaxed);
        return accepted(vec![
            ("status", Json::Str("queued".into())),
            ("coalesced", Json::Bool(true)),
            ("leader_id", Json::UInt(leader_id)),
        ]);
    }

    // Leader path: this submission runs the simulation, admitted as a
    // batch of one while the dedup lock is held.
    let looked_us = shared.spans.now_us();
    shared.spans.annotate(cache_span, "outcome", "miss");
    shared.spans.end_span(cache_span, Some(looked_us));
    let admission = Admission {
        shard,
        client: client.clone(),
        priority: spec.priority(),
        cost: spec.cost(),
        item: queue_entry(
            shared,
            id,
            root,
            looked_us,
            spec.into_cell(),
            experiment,
            Some(identity.clone()),
        ),
    };
    let queue_span = admission.item.queue_span;
    let depth = match admit(shared, &client, vec![admission], false) {
        Ok(depth) => depth,
        Err(refusal) => return refusal.into(),
    };
    // Register the in-flight leader while still holding the dedup lock,
    // so no identical submission can slip past both the cache and this
    // map.
    dedup.inflight.insert(
        identity,
        Inflight {
            leader_id: id,
            followers: Vec::new(),
        },
    );
    drop(dedup);
    shared
        .spans
        .annotate(queue_span, "depth_at_admit", depth.to_string());
    accepted(vec![
        ("status", Json::Str("queued".into())),
        ("queue_depth", Json::UInt(depth as u64)),
    ])
}

/// `POST /v1/scenarios`: validate a scenario document, expand its
/// matrix, and admit every cell to the queue atomically — a 202 means
/// the whole matrix is queued; a 429 means none of it is. Cells skip
/// route, cache lookup and coalescing, but every one gets its own job
/// id, record and span trace through the same admission step as a
/// `POST /v1/jobs` leader.
fn submit_scenario(
    shared: &Shared,
    request: &Request,
    accepted_us: u64,
    conn_client: &str,
) -> Routed {
    let read_done_us = shared.spans.now_us();
    let submission = match parse_scenario_submission(&request.body) {
        Ok(submission) => submission,
        Err(message) => return error_response_owned(400, message).into(),
    };
    let client = client_id(request, conn_client);
    let scenario_id = shared.next_scenario_id.fetch_add(1, Ordering::Relaxed) + 1;
    let body_hash = crate::ring::hash64(&request.body);

    // Scenario cells never coalesce or cache (identity: None) — a
    // matrix run is explicitly "run it now". They still shard
    // deterministically by submission + cell key so one matrix spreads
    // across the pool.
    let batch: Vec<Admission<QueuedJob>> = submission
        .cells
        .iter()
        .map(|cell| {
            let (id, root, parsed_us) = open_trace(
                shared,
                &cell.key,
                ("scenario_id", scenario_id.to_string()),
                accepted_us,
                read_done_us,
            );
            let shard_key = format!("scenario:{body_hash:016x}/{}", cell.key);
            Admission {
                shard: shard_of(shared, &shard_key),
                client: client.clone(),
                priority: Priority::Normal,
                cost: SCENARIO_CELL_COST,
                item: queue_entry(shared, id, root, parsed_us, cell.clone(), "scenario", None),
            }
        })
        .collect();
    let ids: Vec<u64> = batch.iter().map(|adm| adm.item.id).collect();
    let depth = match admit(shared, &client, batch, true) {
        Ok(depth) => depth,
        Err(refusal) => return refusal.into(),
    };
    let cells: Vec<Json> = ids
        .iter()
        .zip(&submission.cells)
        .map(|(id, cell)| {
            Json::object([
                ("id", Json::UInt(*id)),
                ("key", Json::Str(cell.key.clone())),
            ])
        })
        .collect();
    let name = submission.scenario.name.clone();
    lock_unpoisoned(&shared.scenarios).insert(
        scenario_id,
        Arc::new(ScenarioRecord {
            scenario: submission.scenario,
            cells: ids.into_iter().zip(submission.cells).collect(),
        }),
    );
    Response::json(
        202,
        Json::object([
            ("id", Json::UInt(scenario_id)),
            ("name", Json::Str(name)),
            ("status", Json::Str("queued".into())),
            ("cells", Json::Arr(cells)),
            ("queue_depth", Json::UInt(depth as u64)),
        ])
        .encode(),
    )
    .into()
}

/// Allocates a cell's job id and opens its trace retroactively from
/// the accept instant, annotated with the id, the key and `tag`. The
/// accept and parse phases are already over, so they close with
/// explicit timestamps. Returns the id, the root span and the instant
/// parsing ended.
fn open_trace(
    shared: &Shared,
    key: &str,
    tag: (&str, String),
    accepted_us: u64,
    read_done_us: u64,
) -> (u64, SpanContext, u64) {
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let root = shared.spans.begin_trace("job", Some(accepted_us));
    shared.spans.annotate(root, "job_id", id.to_string());
    shared.spans.annotate(root, "key", key);
    shared.spans.annotate(root, tag.0, tag.1);
    let accept = shared
        .spans
        .begin_span(root, "accept", Some(accepted_us), 0);
    shared.spans.end_span(accept, Some(read_done_us));
    let parse_span = shared
        .spans
        .begin_span(root, "parse", Some(read_done_us), 0);
    let parsed_us = shared.spans.now_us();
    shared.spans.end_span(parse_span, Some(parsed_us));
    (id, root, parsed_us)
}

/// Opens a cell's `queue_wait` phase at `admitted_us` and records the
/// job as queued, ready for [`admit`] to push or unwind.
fn queue_entry(
    shared: &Shared,
    id: u64,
    root: SpanContext,
    admitted_us: u64,
    cell: Cell,
    experiment: &'static str,
    identity: Option<String>,
) -> QueuedJob {
    let queue_span = shared
        .spans
        .begin_span(root, "queue_wait", Some(admitted_us), 0);
    lock_unpoisoned(&shared.jobs).insert(
        id,
        JobRecord::queued(cell.key.clone(), root.trace, experiment, admitted_us),
    );
    QueuedJob {
        id,
        cell,
        trace: root,
        queue_span,
        experiment,
        identity,
    }
}

/// The admission step both POST endpoints share: pushes a batch of
/// queue entries all-or-nothing (a `POST /v1/jobs` leader is a batch
/// of one) and returns the queue depth after the push. A refused
/// batch is unwound — no record or trace of its cells survives — and
/// comes back as its 429 or 503. `report_cells` adds the batch size to
/// a 429 body, as scenario refusals report it.
fn admit(
    shared: &Shared,
    client: &str,
    batch: Vec<Admission<QueuedJob>>,
    report_cells: bool,
) -> Result<usize, Response> {
    let n = batch.len() as u64;
    let refused = match shared.queue.try_push_many(batch) {
        Ok(depth) => {
            shared
                .metrics
                .jobs_submitted
                .fetch_add(n, Ordering::Relaxed);
            return Ok(depth);
        }
        Err(refused) => refused,
    };
    // Unwind: the cells never ran, so leave no trace of them.
    let (FairPushError::Full(batch)
    | FairPushError::Draining(batch)
    | FairPushError::ClientQuota { item: batch, .. }) = &refused;
    let mut jobs = lock_unpoisoned(&shared.jobs);
    for adm in batch {
        jobs.remove(&adm.item.id);
        shared.spans.abandon(adm.item.trace.trace);
    }
    drop(jobs);

    let quota_queued = match refused {
        FairPushError::Draining(_) => return Err(error_response(503, "draining")),
        FairPushError::Full(_) => None,
        FairPushError::ClientQuota { queued, .. } => Some(queued),
    };
    shared.metrics.jobs_rejected.fetch_add(n, Ordering::Relaxed);
    let cells = report_cells.then_some(("cells", Json::UInt(n)));
    let (mut fields, retry) = match quota_queued {
        None => {
            let retry = retry_after_secs(shared.queue.depth(), drain_rate(shared));
            let mut fields = vec![("error", Json::Str("queue full".into()))];
            fields.extend(cells);
            fields.push(("queue_bound", Json::UInt(shared.queue.bound() as u64)));
            (fields, retry)
        }
        Some(queued) => {
            shared
                .metrics
                .quota_rejected
                .fetch_add(n, Ordering::Relaxed);
            // The offender's Retry-After is about *its own* backlog
            // draining, not the whole queue's.
            let retry = retry_after_secs(queued, drain_rate(shared));
            let mut fields = vec![
                ("error", Json::Str("client over quota".into())),
                ("client", Json::Str(client.to_string())),
            ];
            fields.extend(cells);
            fields.push(("quota", Json::UInt(shared.queue.client_quota() as u64)));
            fields.push(("queued", Json::UInt(queued as u64)));
            (fields, retry)
        }
    };
    fields.push(("retry_after", Json::UInt(retry)));
    Err(Response::json(429, Json::object(fields).encode())
        .with_header("retry-after", retry.to_string()))
}

/// `GET /v1/scenarios/{id}`: per-cell status while the matrix runs;
/// once every cell finished, the scenario's assertions evaluated
/// against the produced artifacts, with per-assertion verdicts.
fn scenario_status(shared: &Shared, id: u64) -> Response {
    let record = match lock_unpoisoned(&shared.scenarios).get(&id) {
        None => return error_response(404, "no such scenario"),
        Some(record) => Arc::clone(record),
    };

    let mut cell_docs = Vec::with_capacity(record.cells.len());
    let mut finished: Vec<(&Cell, Option<String>)> = Vec::new();
    let mut all_finished = true;
    let mut any_started = false;
    let mut any_failed = false;
    {
        let jobs = lock_unpoisoned(&shared.jobs);
        for (job_id, cell) in &record.cells {
            let Some(job) = jobs.get(job_id) else {
                all_finished = false;
                continue;
            };
            match job.state {
                JobState::Queued => all_finished = false,
                JobState::Running => {
                    all_finished = false;
                    any_started = true;
                }
                JobState::Done => {
                    any_started = true;
                    finished.push((cell, job.artifact.clone()));
                }
                JobState::Failed => {
                    any_started = true;
                    any_failed = true;
                    finished.push((cell, None));
                }
            }
            let mut fields = vec![
                ("id".to_string(), Json::UInt(*job_id)),
                ("key".to_string(), Json::Str(cell.key.clone())),
                ("status".to_string(), Json::Str(job.state.as_str().into())),
            ];
            if let Some(error) = &job.error {
                fields.push(("error".to_string(), Json::Str(error.clone())));
            }
            cell_docs.push(Json::Obj(fields));
        }
    }

    let status = if all_finished {
        "done"
    } else if any_started {
        "running"
    } else {
        "queued"
    };
    let mut fields = vec![
        ("id".to_string(), Json::UInt(id)),
        ("name".to_string(), Json::Str(record.scenario.name.clone())),
        ("status".to_string(), Json::Str(status.into())),
        ("cells".to_string(), Json::Arr(cell_docs)),
    ];
    if all_finished {
        let verdicts = evaluate_finished(&record.scenario, &finished);
        let passed = !any_failed && verdicts.iter().all(|v| v.passed);
        fields.push(("passed".to_string(), Json::Bool(passed)));
        fields.push((
            "assertions".to_string(),
            Json::Arr(verdicts.iter().map(Verdict::to_json).collect()),
        ));
    }
    Response::json(200, Json::Obj(fields).encode_pretty())
}

fn job_status(shared: &Shared, id: u64) -> Response {
    let jobs = lock_unpoisoned(&shared.jobs);
    let Some(record) = jobs.get(&id) else {
        return error_response(404, "no such job");
    };
    let mut fields = vec![
        ("id".to_string(), Json::UInt(id)),
        ("key".to_string(), Json::Str(record.key.clone())),
        (
            "status".to_string(),
            Json::Str(record.state.as_str().into()),
        ),
        ("trace_id".to_string(), Json::UInt(record.trace_id)),
        (
            "experiment".to_string(),
            Json::Str(record.experiment.into()),
        ),
        // The queue's own admission timestamp (span clock, µs) — the
        // reconciliation tests match the queue_wait span's start
        // against this value exactly.
        ("admitted_us".to_string(), Json::UInt(record.admitted_us)),
    ];
    if let Some(wall_ms) = record.wall_ms {
        fields.push(("wall_ms".to_string(), Json::UInt(wall_ms)));
    }
    if let Some(error) = &record.error {
        fields.push(("error".to_string(), Json::Str(error.clone())));
    }
    Response::json(200, Json::Obj(fields).encode())
}

fn job_result(shared: &Shared, id: u64) -> Response {
    let jobs = lock_unpoisoned(&shared.jobs);
    let Some(record) = jobs.get(&id) else {
        return error_response(404, "no such job");
    };
    match &record.artifact {
        // The artifact document covers failures too (status "failed",
        // kind, reason) — exactly what write_run would have persisted.
        Some(artifact) => Response::json(200, artifact.clone()),
        None => Response::json(
            409,
            Json::object([
                ("error", Json::Str("job not finished".into())),
                ("status", Json::Str(record.state.as_str().into())),
            ])
            .encode(),
        )
        .with_header("retry-after", "1".to_string()),
    }
}

/// `GET /v1/jobs/{id}/trace`: the request's span tree as JSON. Works
/// mid-flight (`complete: false`) so a stuck job can be diagnosed live.
fn job_trace(shared: &Shared, id: u64) -> Response {
    let trace_id = {
        let jobs = lock_unpoisoned(&shared.jobs);
        match jobs.get(&id) {
            None => return error_response(404, "no such job"),
            Some(record) => record.trace_id,
        }
    };
    match shared.spans.snapshot(trace_id) {
        Some(trace) => {
            let mut doc = trace.to_json();
            if let Json::Obj(fields) = &mut doc {
                fields.insert(0, ("job_id".to_string(), Json::UInt(id)));
            }
            Response::json(200, doc.encode_pretty())
        }
        None => error_response(404, "trace evicted from the retention ring"),
    }
}

/// `GET /v1/jobs/{id}/trace/chrome`: server spans merged with the
/// job's simulated-time event stream onto one Chrome-trace timeline.
fn job_trace_chrome(shared: &Shared, id: u64) -> Response {
    let trace_id = {
        let jobs = lock_unpoisoned(&shared.jobs);
        match jobs.get(&id) {
            None => return error_response(404, "no such job"),
            Some(record) => record.trace_id,
        }
    };
    let Some(trace) = shared.spans.snapshot(trace_id) else {
        return error_response(404, "trace evicted from the retention ring");
    };
    if !trace.complete {
        return Response::json(
            409,
            Json::object([("error", Json::Str("job not finished".into()))]).encode(),
        )
        .with_header("retry-after", "1".to_string());
    }
    // Clone the handle out and encode after the guard drops: every
    // worker takes this lock after each instrumented job.
    let sim = lock_unpoisoned(&shared.sim_traces)
        .iter()
        .rev()
        .find(|(job_id, _)| *job_id == id)
        .map(|(_, sim)| Arc::clone(sim));
    let sim = sim.as_deref().and_then(TraceRecorder::from_handle);
    Response::json(200, merged_chrome_trace(&trace, sim).encode_pretty())
}

fn error_response(status: u16, message: &str) -> Response {
    error_response_owned(status, message.to_string())
}

fn error_response_owned(status: u16, message: String) -> Response {
    Response::json(
        status,
        Json::object([("error", Json::Str(message))]).encode(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_paths_parse_strictly() {
        assert_eq!(parse_job_path("/v1/jobs/7"), Some((7, JobRoute::Status)));
        assert_eq!(
            parse_job_path("/v1/jobs/7/result"),
            Some((7, JobRoute::Result))
        );
        assert_eq!(
            parse_job_path("/v1/jobs/7/trace"),
            Some((7, JobRoute::Trace))
        );
        assert_eq!(
            parse_job_path("/v1/jobs/7/trace/chrome"),
            Some((7, JobRoute::TraceChrome))
        );
        assert_eq!(parse_job_path("/v1/jobs/"), None);
        assert_eq!(parse_job_path("/v1/jobs/abc"), None);
        assert_eq!(parse_job_path("/v1/jobs/7/logs"), None);
        assert_eq!(parse_job_path("/v1/jobs/abc/trace"), None);
        assert_eq!(parse_job_path("/v2/jobs/7"), None);
    }
}
