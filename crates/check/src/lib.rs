//! Correctness tooling for the SPUR reproduction.
//!
//! Three pieces, layered:
//!
//! * `oracle` — an **independently re-implemented** model of the
//!   dirty-bit (`MIN`/`FAULT`/`FLUSH`/`SPUR`/`WRITE`) and reference-bit
//!   (`MISS`/`REF`/`NOREF`) state machines over an abstract page/block
//!   map. The oracle is written straight from the paper's transition
//!   tables, not from the simulator's code: it tracks per-page dirty,
//!   reference and protection state, per-CPU direct-mapped cache images
//!   (including the SPUR per-line `page dirty` hint and Berkeley
//!   ownership), backing-store copies, and wired page-table pages — and
//!   predicts the *exact policy-relevant event sequence* every
//!   reference must produce.
//! * [`lockstep`] — drives a real [`spur_core::SpurSystem`] and the
//!   oracle side by side, feeding the oracle the spur-obs event delta
//!   of each reference. The first divergent event produces a
//!   [`lockstep::Divergence`] with a minimal context dump (the
//!   reference, the event tape, and the oracle's view of the page and
//!   line involved).
//! * `fuzz` — generates random workloads and `SimConfig`s, runs
//!   system-vs-oracle differentially, and shrinks any failure to a
//!   minimal explicit-reference repro spec (JSON, replayable).
//!
//! What the oracle deliberately does **not** verify: cycle timestamps
//! and per-event costs (the cost model is covered by the breakdown and
//! counter-fidelity tests), and which free frame a page lands in. It
//! verifies event *kinds*, *pages* and *order* — the paper's claims are
//! claims about which transitions fire, not about how long they take.

pub(crate) mod fuzz;
pub mod lockstep;
pub(crate) mod oracle;

pub use fuzz::{
    mutation_selftest, run_case, run_case_with, shrink, FuzzCase, FuzzOutcome, FuzzRef, FuzzRegion,
    MutationSelftest,
};
pub use lockstep::Lockstep;
pub use oracle::Mutation;
