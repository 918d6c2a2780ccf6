//! spur-scenario: a declarative scenario engine for the SPUR
//! reproduction.
//!
//! A *scenario* is a small, schema-versioned JSON document that names a
//! workload, a memory-size and policy matrix, run options, and a set of
//! expected-shape assertions. The engine expands the matrix into
//! stable-keyed [`spur_harness`] jobs built from the same
//! `spur_core::jobs` builders the standalone binaries use — so the
//! artifacts a scenario produces are byte-identical to the binaries it
//! replaces — runs them on the shared pool, persists the usual run
//! tree, and evaluates the assertions against the produced artifacts.
//!
//! The pieces:
//!
//! - [`config`] — the strict parser: unknown fields, duplicate matrix
//!   cells, and empty axes are hard errors with path-qualified
//!   messages.
//! - [`cells`] — matrix expansion: scenario → complete [`Cell`]s with
//!   stable keys (`sim/WORKLOAD1/5MB/FAULT/MISS/1cpu`), each of which
//!   builds its own job. `spur-serve` compiles a `POST /v1/jobs` body
//!   into a one-cell `Cell` with the same validators.
//! - [`asserts`] — the assertion language: counter ranges, cross-cell
//!   relations ("FAULT dirty faults ≥ MIN at every memory size"),
//!   monotonicity along an axis.
//! - [`run`] — the engine: resolve scale, expand, run, persist,
//!   evaluate; plus the `--legacy-stdout` driver and the run-flag
//!   parser every experiment binary shares.
//! - [`render`] — byte-exact reproductions of the stdout tables of the
//!   binaries the committed configs replaced.

pub mod asserts;
pub mod cells;
pub mod config;
pub mod render;
pub mod run;

pub use asserts::{Assertion, CellResult, Verdict};
pub use cells::{Cell, CellValue};
pub use config::{Kind, Scenario, WorkloadSource, SCHEMA_VERSION};
pub use run::{
    export_traces, parse_run_flags, persist_run, run_flags, run_legacy, run_scenario, scale_name,
    RunFlags, RunnerOptions, ScenarioRun, RUN_FLAGS_USAGE,
};
