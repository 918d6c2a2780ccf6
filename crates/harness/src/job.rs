//! Jobs: one experiment cell each, with a stable key.

use std::any::Any;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use crate::json::Json;

/// One schedulable experiment cell.
///
/// The key is the cell's stable identity: it names the artifact file,
/// orders the results (parallel runs collect into key order), and is
/// how callers look the result back up after the run. Keys must be
/// unique within a run.
pub struct Job<T> {
    /// Stable cell identity, e.g. `"table_4_1/SLC/5MB/MISS"`.
    pub key: String,
    pub(crate) run: Box<dyn FnOnce() -> Result<JobOutput<T>, String> + Send>,
}

impl<T> Job<T> {
    /// Wraps a closure as a job. The closure returns the typed value
    /// the caller will assemble tables from, plus its JSON artifact;
    /// `Err(reason)` records a failure without panicking.
    pub fn new(
        key: impl Into<String>,
        run: impl FnOnce() -> Result<JobOutput<T>, String> + Send + 'static,
    ) -> Self {
        Job {
            key: key.into(),
            run: Box::new(run),
        }
    }
}

impl<T: 'static> Job<T> {
    /// Wraps the job's typed value through `f`, keeping the key and
    /// artifact. This is how heterogeneous cells (events, page-outs,
    /// reference-bit rows) join one run under a shared enum.
    pub fn map<U>(self, f: impl FnOnce(T) -> U + Send + 'static) -> Job<U> {
        let run = self.run;
        Job {
            key: self.key,
            run: Box::new(move || {
                run().map(|out| JobOutput {
                    value: f(out.value),
                    artifact: out.artifact,
                    metrics: out.metrics,
                    series: out.series,
                    trace: out.trace,
                })
            }),
        }
    }
}

impl<T> core::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Job")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// A finished run's event trace, held as recorded and encoded only when
/// something reads it.
///
/// The harness cannot name the simulator's event recorder (the
/// observability crate sits above it), so job outputs carry the trace
/// behind this trait and `spur-obs` implements it. Readers that want
/// the typed events downcast through [`Any`].
pub trait ChromeTrace: Any + Send + Sync + core::fmt::Debug {
    /// Writes the trace as one compact Chrome-trace-event JSON
    /// document, without a trailing newline.
    ///
    /// # Errors
    ///
    /// Propagates the first error from `out`.
    fn write_to(&self, out: &mut dyn io::Write) -> io::Result<()>;
}

/// What a successful job produces: the typed value for in-process
/// assembly and the JSON artifact that is persisted for machines.
///
/// The artifact must be a pure function of the cell's inputs — wall
/// times and other nondeterminism belong in the run manifest, not
/// here, so that per-job artifacts are byte-identical however many
/// workers ran the sweep.
#[derive(Debug, Clone)]
pub struct JobOutput<T> {
    /// The typed result, consumed by table assembly.
    pub value: T,
    /// The machine-readable result, persisted to the artifact file.
    pub artifact: Json,
    /// Optional compact observability summary (event totals, histogram
    /// moments). Lands both in the per-job artifact and as the job's
    /// `metrics` entry in `manifest.json`. `None` (observability off)
    /// leaves the artifacts byte-identical to a run without this field.
    pub metrics: Option<Json>,
    /// Optional per-epoch counter series, merged into the per-job
    /// artifact under `series`.
    pub series: Option<Json>,
    /// Optional event trace. Not persisted by `write_run` (traces are
    /// large); the caller encodes it into its `--trace-out` directory.
    pub trace: Option<Arc<dyn ChromeTrace>>,
}

impl<T> JobOutput<T> {
    /// Pairs a value with its artifact; no observability payloads.
    pub fn new(value: T, artifact: Json) -> Self {
        JobOutput {
            value,
            artifact,
            metrics: None,
            series: None,
            trace: None,
        }
    }

    /// Attaches a compact metrics summary.
    pub fn with_metrics(mut self, metrics: Json) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a per-epoch counter series.
    pub fn with_series(mut self, series: Json) -> Self {
        self.series = Some(series);
        self
    }

    /// Attaches an event trace.
    pub fn with_trace(mut self, trace: impl ChromeTrace) -> Self {
        self.trace = Some(Arc::new(trace));
        self
    }
}

/// How a job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The job returned `Err`.
    Error,
    /// The job panicked; the panic was caught and the sweep continued.
    Panic,
}

impl FailureKind {
    /// The manifest encoding of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Error => "error",
            FailureKind::Panic => "panic",
        }
    }
}

/// A recorded job failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Error vs caught panic.
    pub kind: FailureKind,
    /// The error string or panic payload.
    pub reason: String,
}

/// One finished job: outcome plus scheduling metadata.
#[derive(Debug)]
pub struct CompletedJob<T> {
    /// The job's stable key.
    pub key: String,
    /// Submission index (the serial execution order).
    pub index: usize,
    /// The result or recorded failure.
    pub outcome: Result<JobOutput<T>, JobFailure>,
    /// Wall-clock execution time of this cell.
    pub wall: Duration,
}

impl<T> CompletedJob<T> {
    /// The typed value, if the job succeeded.
    pub fn value(&self) -> Option<&T> {
        self.outcome.as_ref().ok().map(|o| &o.value)
    }

    /// The failure record, if the job failed.
    pub fn failure(&self) -> Option<&JobFailure> {
        self.outcome.as_ref().err()
    }

    /// Wall-clock execution time in whole microseconds — the harness's
    /// authoritative measure of a job's `run` phase, used by the serve
    /// path to close run spans so span trees and job records can never
    /// disagree about how long execution took.
    pub fn wall_us(&self) -> u64 {
        self.wall.as_micros() as u64
    }
}
