//! The paper's contribution: reference- and dirty-bit policy evaluation
//! for SPUR's virtual-address cache (Wood & Katz, ISCA 1989).
//!
//! This crate binds the substrates together into a full-system simulator
//! and implements everything Section 3 and Section 4 evaluate:
//!
//! * [`dirty`] — the five dirty-bit alternatives of Table 3.1 (`FAULT`,
//!   `FLUSH`, `SPUR`, `WRITE`, `MIN`) and their Section 3.2 closed-form
//!   overhead models;
//! * [`system`] — [`SpurSystem`]: the processor → virtual cache →
//!   in-cache translation → VM pipeline that executes synthesized traces
//!   and counts every event class the paper measures, and
//!   [`SpurSystem::simulate`], the one step that runs a whole workload
//!   on it;
//! * [`events`] — the Table 3.3 event-frequency record (`N_ds`, `N_zfod`,
//!   `N_ef = N_dm`, `N_w-hit`, `N_w-miss`, elapsed time);
//! * [`model`] — the footnote-3 geometric model predicting the
//!   excess-fault : necessary-fault ratio from the write-miss fraction;
//! * [`experiments`] — one runner per table/figure of the paper;
//! * [`report`] — plain-text table rendering for the regenerator
//!   binaries.
//!
//! # Quickstart
//!
//! ```
//! use spur_core::system::{SimConfig, SpurSystem};
//! use spur_core::dirty::DirtyPolicy;
//! use spur_trace::workloads::slc;
//! use spur_types::MemSize;
//! use spur_vm::policy::RefPolicy;
//!
//! let workload = slc();
//! let (sim, _) = SpurSystem::new(SimConfig {
//!     mem: MemSize::MB8,
//!     dirty: DirtyPolicy::Spur,
//!     ref_policy: RefPolicy::Miss,
//!     ..SimConfig::default()
//! })
//! .unwrap()
//! .simulate(&workload, workload.generator(1), 100_000, None)
//! .unwrap();
//! assert!(sim.refs() == 100_000);
//! ```

pub mod baseline;
pub mod breakdown;
pub mod dirty;
pub mod events;
pub mod experiments;
pub mod jobs;
pub mod model;
pub mod obs;
pub mod report;
pub mod stats;
pub mod system;
pub mod testkit;

pub use dirty::DirtyPolicy;
pub use events::EventCounts;
pub use obs::{ObsParams, ObsReport};
pub use system::{SimConfig, SimOverrides, SpurSystem};
