//! A deterministic parallel experiment-orchestration runtime.
//!
//! Every experiment cell (workload × policy × memory size × repetition)
//! becomes a [`Job`] with a stable string key. A [`run_jobs`] call
//! executes the jobs on a [`std::thread::scope`] worker pool and
//! collects the results back into deterministic key order, so a
//! parallel run's output is bit-identical to a serial one. Each job
//! runs under `catch_unwind` with wall-clock timing: a panicking cell
//! becomes a recorded failure and the sweep continues.
//!
//! The [`artifacts`] layer persists a run as machine-readable JSON —
//! `results/json/<run>/<job>.json` per cell plus a `manifest.json`
//! with schema version, run metadata, per-job timings, and the failure
//! list — using the std-only encoder in [`json`] (no serde; the
//! registry is unreachable in the build environment).
//!
//! ```
//! use spur_harness::{Job, JobOutput, Json, run_jobs};
//!
//! let jobs = (0..4u64)
//!     .map(|i| {
//!         Job::new(format!("square/{i}"), move || {
//!             let sq = i * i;
//!             Ok(JobOutput::new(sq, Json::from(sq)))
//!         })
//!     })
//!     .collect();
//! let report = run_jobs(jobs, 2);
//! assert_eq!(report.ok_count(), 4);
//! assert_eq!(report.value("square/3"), Some(&9));
//! ```

pub mod artifacts;
pub mod fault;
pub mod job;
pub mod json;
pub mod run;

pub use artifacts::{default_root, job_artifact_json, write_run, RunArtifacts, SCHEMA_VERSION};
pub use fault::FaultPlan;
pub use job::{ChromeTrace, CompletedJob, FailureKind, Job, JobFailure, JobOutput};
pub use json::Json;
pub use run::{run_jobs, run_jobs_with_progress, run_one, RunReport};
