//! `spur-serve`: the experiment simulator as a network service.
//!
//! The batch harness answers "run this sweep"; this crate answers
//! "keep a worker pool warm and run cells on demand". A `spur-serve`
//! daemon owns a long-lived pool, accepts experiment submissions over
//! a minimal HTTP/1.1 API, and applies backpressure honestly: the job
//! queue is bounded, a full queue sheds submissions with `429` +
//! `Retry-After` derived from live queue depth and drain rate, and
//! shutdown is drain-then-exit — every accepted job still runs.
//!
//! # The serve pipeline
//!
//! Submissions flow accept → parse → **route** (consistent-hash the
//! full-spec identity to a worker shard, or to the owning peer in
//! multi-instance mode) → **cache lookup** (LRU results cache; a hit
//! answers without simulating) → **coalesce** (identical in-flight
//! submissions join the running leader instead of queuing) → the
//! shard's deficit-round-robin lane for this client. Every job is
//! deterministic and byte-reproducible, which is what makes the cache
//! and coalescing *correct*, not merely fast: a cached or coalesced
//! answer is provably the same bytes a fresh run would produce. See
//! `queue::FairQueue`, `cache::ResultsCache`, [`ring::HashRing`].
//!
//! # API
//!
//! | route | effect |
//! |---|---|
//! | `POST /v1/jobs` | submit a cell (JSON body, see `api`) → `202` with id |
//! | `POST /v1/scenarios` | submit a whole scenario matrix (see `scenario`) → `202` |
//! | `GET /v1/scenarios/{id}` | per-cell status; assertion verdicts once done |
//! | `GET /v1/jobs/{id}` | poll status (`queued`/`running`/`done`/`failed`) |
//! | `GET /v1/jobs/{id}/result` | the job's artifact document |
//! | `GET /v1/jobs/{id}/trace` | the request's span tree (works mid-flight) |
//! | `GET /v1/jobs/{id}/trace/chrome` | server spans + sim events, Chrome format |
//! | `GET /v1/slo` | declared-SLO evaluation report (404 without `--slo`) |
//! | `GET /healthz` | liveness + queue depth |
//! | `GET /metrics` | Prometheus text exposition |
//! | `POST /v1/shutdown` | drain the queue, then exit |
//!
//! # Observability
//!
//! Every accepted submission carries a span trace from socket accept
//! to serialized artifact (`accept` → `parse` → `queue_wait` → `run` →
//! `serialize`, plus the concurrent `respond` write). The span tree is
//! the single latency source of truth: `/metrics` phase histograms and
//! SLO evaluation are both derived from sealed traces, never from
//! side-channel timers. See `docs/OBSERVABILITY.md`.
//!
//! # Determinism
//!
//! A `POST /v1/jobs` body compiles to a one-cell
//! [`spur_scenario::Cell`] and a `POST /v1/scenarios` matrix to one
//! cell per point; workers build every job with
//! [`spur_scenario::Cell::job`] — the call the `spur-scenario` CLI
//! and `reproduce_all` make, with the same keys — execute it with the
//! same [`spur_harness::run_one`]
//! body, and the result endpoint streams
//! [`spur_harness::job_artifact_json`] pretty-encoded — byte-for-byte
//! the file a `reproduce_all` run writes for the same cell. The
//! integration tests assert that equality end-to-end over a real
//! socket.
//!
//! See `docs/SERVING.md` for the operational guide.

pub(crate) mod api;
pub(crate) mod cache;
pub mod client;
pub(crate) mod http;
pub(crate) mod metrics;
pub(crate) mod queue;
pub(crate) mod ring;
pub(crate) mod scenario;
pub(crate) mod server;

pub use api::{parse_job_spec, JobSpec};
pub use client::HttpResponse;
pub use metrics::{PhaseSample, ServeMetrics};
pub use ring::HashRing;
pub use server::{ChaosConfig, DrainSummary, ServeConfig, Server};
