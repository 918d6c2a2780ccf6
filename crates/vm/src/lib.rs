//! A Sprite-like virtual memory subsystem for the SPUR simulator.
//!
//! Sprite (Ousterhout et al., 1988) is the operating system the paper's
//! measurements ran under. This crate models the pieces of its VM system
//! the paper interacts with:
//!
//! * [`region`] — address-space regions (code, heap, stack) and their page
//!   attributes: code pages are read-only and file-backed; heap and stack
//!   pages are writable and **zero-filled on demand** (the source of the
//!   paper's `N_zfod` events);
//! * [`policy`] — the three reference-bit policies of Section 4: `MISS`
//!   (check R only on cache misses), `REF` (true reference bits: flush the
//!   page from the cache whenever the daemon clears R), and `NOREF` (the
//!   hardware R bit reads false and clears are no-ops, so replacement
//!   degenerates to clock-FIFO with no ref faults);
//! * [`swap`] — backing-store accounting, including Sprite's quirk of
//!   always writing a zero-filled page to swap on its first replacement
//!   (footnote 4) and the Table 3.5 modified/not-modified bookkeeping;
//! * [`system`] — the [`VmSystem`](system::VmSystem): page-fault handling, the free list,
//!   and the clock page daemon that clears reference bits and reclaims
//!   unreferenced pages.
//!
//! The VM system manipulates the cache (flushing replaced pages — required
//! for correctness in a virtual-address cache — and, under `REF`, flushing
//! pages whose reference bit is cleared) and records events on the cache
//! controller's performance counters.

pub mod policy;
pub mod region;
pub mod residency;
pub mod stats;
pub mod swap;
pub mod system;
