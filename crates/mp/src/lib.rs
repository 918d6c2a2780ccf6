//! `spur-mp` — the true multiprocessor SPUR.
//!
//! The paper prototyped a uniprocessor and argued (§3.1, §4.1) that
//! its software reference/dirty-bit design really pays off on the
//! multiprocessor SPUR, where maintaining a true reference bit "must
//! flush the page from all the caches". This crate makes that scenario
//! measurable:
//!
//! * [`MpScheduler`] — a deterministic round-robin/epoch scheduler
//!   that shards a multiprogrammed workload's processes across CPUs
//!   and interleaves one trace stream per CPU. Slices generate in
//!   parallel on the spur-harness pool with a barrier per epoch, yet
//!   the committed order is byte-reproducible regardless of host
//!   thread count (see the module docs for the contract).
//! * [`MpSystem`] — an N-CPU node: one `SpurSystem` with a private
//!   virtual-address cache per CPU, Berkeley-style ownership
//!   (UnOwned / OwnedExclusive / OwnedShared, invalidate-on-write,
//!   owner-supplies-data) over a shared Sprite-like VM, fed by the
//!   scheduler.
//! * [`experiment`] — the measured policy × CPU count × sharing-degree
//!   cells behind the `mp` scenario kind (`scenarios/mp_refbit.json`),
//!   plus the pre-measurement analytic model, now a pure function of
//!   the measured 1-CPU rows and printed as a cross-check.
//!
//! Because [`MpScheduler`] is just an `Iterator<Item = TraceRef>`, the
//! spur-check `Lockstep` driver verifies the multiprocessor system
//! against the multi-CPU oracle unchanged — divergence dumps name the
//! CPU.

pub mod experiment;
pub(crate) mod sched;
pub(crate) mod system;

pub use experiment::{
    measure_mp, measure_mp_obs, mp_key, mp_model, render_mp, render_mp_model, MpRow,
};
pub use sched::MpScheduler;
pub use system::{MpParams, MpSystem};
