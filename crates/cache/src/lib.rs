//! SPUR's 128 KB direct-mapped virtual-address cache.
//!
//! The cache is the hardware half of the paper: it is indexed and tagged
//! with *global virtual* addresses, so hits never consult translation
//! information — and therefore the protection and page-dirty information a
//! line was filled with can go stale relative to the PTE, which is the root
//! cause of the paper's excess-fault phenomenon (Figure 3.1).
//!
//! Modules:
//!
//! * [`line`](mod@line) — the cache line (block frame) format of Figure 3.2(b):
//!   virtual tag, two-bit protection copy, *page* dirty copy, *block* dirty
//!   bit, and two-bit coherency state;
//! * [`cache`] — the direct-mapped cache proper: probe/fill/evict, block
//!   flush, tag-checked page flush, and SPUR's actual tag-*blind* page
//!   flush;
//! * [`translate`] — in-cache address translation: on a miss the controller
//!   looks for the first-level PTE *in the cache*, falling back to the
//!   wired second-level table;
//! * [`coherence`] — the Berkeley Ownership line states and a cache's
//!   response to a snooped bus transaction (present on the prototype;
//!   the paper's measurements are uniprocessor);
//! * [`counters`] — the cache controller's 16 × 32-bit performance
//!   counters with their mode register.
//!
//! # Example
//!
//! ```
//! use spur_cache::cache::VirtualCache;
//! use spur_types::{GlobalAddr, Protection};
//!
//! let mut cache = VirtualCache::prototype();
//! let addr = GlobalAddr::new(0x4_2000);
//! assert!(!cache.probe(addr).hit);
//!
//! cache.fill_for_read(addr, Protection::ReadOnly, false);
//! assert!(cache.probe(addr).hit);
//! ```

pub mod assoc;
pub mod cache;
pub mod coherence;
pub mod counters;
pub mod line;
pub mod tlb;
pub mod translate;

pub use counters::CounterEvent;
