//! Umbrella crate for the SPUR reference/dirty-bit reproduction
//! (Wood & Katz, ISCA 1989).
//!
//! Provides a [`prelude`] with the types one simulation needs. See
//! `README.md` for the tour and `EXPERIMENTS.md` for the
//! paper-vs-measured results.
//!
//! # Example
//!
//! ```
//! use spur_repro::prelude::*;
//!
//! let mut sim = SpurSystem::new(SimConfig {
//!     mem: MemSize::MB6,
//!     dirty: DirtyPolicy::Fault,
//!     ref_policy: RefPolicy::Miss,
//!     ..SimConfig::default()
//! })?;
//! let workload = slc();
//! sim.load_workload(&workload)?;
//! sim.run(&mut workload.generator(1), 50_000)?;
//! assert_eq!(sim.refs(), 50_000);
//! # Ok::<(), spur_types::Error>(())
//! ```

/// The types the example above needs, in one import.
pub mod prelude {
    pub use spur_core::dirty::DirtyPolicy;
    pub use spur_core::system::{SimConfig, SpurSystem};
    pub use spur_trace::workloads::slc;
    pub use spur_types::MemSize;
    pub use spur_vm::policy::RefPolicy;
}
