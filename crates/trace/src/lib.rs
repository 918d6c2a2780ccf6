//! Synthetic workload generation for the SPUR reproduction.
//!
//! The paper ran two real workloads on the prototype: `WORKLOAD1` (a CAD
//! tool developer's day: compiles, a link and debug of the `espresso`
//! two-level logic minimizer, a background PLA optimization, edits and
//! miscellaneous commands) and `SLC` (the SPUR Common Lisp compiler
//! compiling a benchmark suite). Those traces cannot be replayed today, so
//! this crate synthesizes reference streams with the locality structure
//! the paper's metrics depend on:
//!
//! * **multi-process** execution with round-robin quanta and process
//!   lifetimes (compiles come and go; the PLA optimizer runs throughout);
//! * per-process **segments** (code / heap / stack / file data) with
//!   distinct behavior — code is fetched with a sequential-plus-jumps PC
//!   model, data through a hot-set (working set) model with Zipf-ranked
//!   page popularity;
//! * **phases** that periodically shift each process's working set,
//!   creating the memory pressure that drives paging at 5/6/8 MB;
//! * a tunable **read-before-write** fraction, which controls the paper's
//!   `N_w-hit` : `N_w-miss` ratio (roughly one fifth of modified blocks
//!   are read before they are written);
//! * **zero-fill churn**: transient processes touch fresh heap/stack pages
//!   whose first operation is a write, reproducing the dominance of
//!   `N_zfod` in the necessary dirty faults.
//!
//! Everything is deterministic given a seed, which is what made the
//! paper's own methodology work ("synthetic workloads that could be
//! repeated with different paging policies and memory sizes").

pub mod characterize;
pub(crate) mod gen;
pub mod layout;
pub(crate) mod locality;
pub mod process;
pub mod record;
pub mod spec;
pub mod stream;
pub mod workloads;

pub use gen::TraceGenerator;
pub use process::ProcessSpec;
pub use stream::TraceRef;
