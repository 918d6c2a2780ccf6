//! Observability for the SPUR simulator.
//!
//! The paper's whole premise is an observability surface — SPUR's 16
//! on-chip counters let Wood & Katz "re-evaluate our decisions with
//! more complete information." This crate extends the reproduction
//! beyond end-of-run totals with three instruments:
//!
//! * **Event tracing** ([`recorder::TraceRecorder`]): typed,
//!   cycle-timestamped [`event::SimEvent`]s (fault kind, page, cycle,
//!   cost) captured in a bounded ring buffer from the simulator's hot
//!   paths. Exported as Chrome-trace-event JSON, loadable in Perfetto.
//! * **Histograms** ([`hist::Histogram`]): log2-bucket distributions
//!   for quantities totals can't express — inter-fault distance,
//!   per-residency write counts, fault-handling cost, per-job wall
//!   time.
//! * **Epoch series** ([`epoch::EpochSeries`]): counter deltas sampled
//!   every N references, turning single-point sweep cells into curves
//!   (e.g. excess-fault rate over time at each memory size).
//! * **Request spans & SLOs** ([`span::SpanSink`], [`slo::SloTracker`]):
//!   the same counter-grade fidelity one layer up — hierarchical
//!   real-time span trees for the serve path (accept → queue → run →
//!   serialize), mergeable with a job's simulated-time event stream
//!   onto one Chrome-trace timeline, plus sliding-window evaluation of
//!   declared service-level objectives.
//!
//! The crate is std-only (the workspace cannot reach a registry) and
//! deliberately knows nothing about `spur-cache`'s counter taxonomy:
//! the epoch snapshotter takes caller-supplied column names and raw
//! `u64` totals, so `spur-obs` sits below every simulator crate in the
//! dependency graph and any of them can emit into it.
//!
//! # Determinism contract
//!
//! With recording disabled (the [`recorder::NoopRecorder`]), the
//! simulator's stdout and artifacts are byte-identical to an
//! uninstrumented build — the no-op recorder is a unit struct whose
//! `emit` compiles away. With recording enabled, trace content is a
//! pure function of the cell's inputs: cycle timestamps come from the
//! simulated clock, never the host's.

pub mod epoch;
pub mod event;
pub mod export;
pub mod hist;
pub mod prometheus;
pub mod recorder;
pub mod slo;
pub mod span;
pub mod validate;

pub use epoch::EpochSeries;
pub use event::{EventKind, SimEvent};
pub use export::{histogram_json, merged_chrome_trace, series_json};
pub use hist::Histogram;
pub use recorder::{CpuTag, EventBuf, NoopRecorder, Recorder, TraceRecorder};
pub use slo::{SloKind, SloReport, SloStatus, SloTarget, SloTracker};
pub use span::{Span, SpanContext, SpanSink, Trace};
