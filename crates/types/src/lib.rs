//! Core address types, architectural constants, and configuration shared by
//! every crate in the SPUR reference/dirty-bit reproduction.
//!
//! SPUR (Symbolic Processing Using RISCs) was a shared-memory multiprocessor
//! workstation built at U.C. Berkeley in the late 1980s. Its distinguishing
//! memory-system feature is a large (128 KB) direct-mapped *virtually
//! addressed* unified cache with **in-cache address translation**: there is
//! no TLB, and page table entries compete with instructions and data for
//! cache space. This crate captures the architectural vocabulary of that
//! machine:
//!
//! * [`addr`] — process virtual, global virtual, and physical addresses,
//!   page and block numbers, and the arithmetic between them;
//! * `access` — reference kinds (instruction fetch / read / write) and the
//!   two-bit protection field stored in PTEs and cache lines;
//! * [`config`] — the prototype configuration of Table 2.1 and the
//!   simulated-machine configuration knobs;
//! * `costs` — the cycle-cost parameters of Table 3.2 plus the memory and
//!   paging costs used by the elapsed-time model;
//! * `cycles` — a cycle-count newtype and its conversion to wall time.
//!
//! # Example
//!
//! ```
//! use spur_types::addr::{GlobalAddr, SegmentId, ProcAddr};
//! use spur_types::config::SystemConfig;
//!
//! let cfg = SystemConfig::prototype();
//! assert_eq!(cfg.cache_lines(), 4096);
//!
//! // Process address 0x4000_1234 lives in segment 1 of its address space.
//! let pa = ProcAddr::new(0x4000_1234);
//! assert_eq!(pa.segment(), SegmentId::new(1));
//!
//! // Map it through a segment register onto the 38-bit global space.
//! let ga = GlobalAddr::from_parts(7, pa.segment_offset());
//! assert_eq!(ga.segment_offset(), pa.segment_offset());
//! ```

pub(crate) mod access;
pub mod addr;
pub mod config;
pub(crate) mod costs;
pub(crate) mod cycles;
pub(crate) mod error;
pub mod hash;
pub mod rng;

pub use access::{AccessKind, Protection};
pub use addr::{BlockNum, GlobalAddr, Pfn, PhysAddr, ProcAddr, SegmentId, Vpn};
pub use config::{MemSize, SystemConfig};
pub use costs::CostParams;
pub use cycles::Cycles;
pub use error::{Error, Result};
pub use hash::{FastMap, FastSet};

/// Base-2 logarithm of the virtual-memory page size (4 KB pages).
pub const PAGE_SHIFT: u32 = 12;
/// Virtual-memory page size in bytes (Table 2.1: 4 Kbytes).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Base-2 logarithm of the cache block size (32-byte blocks).
pub(crate) const BLOCK_SHIFT: u32 = 5;
/// Cache block size in bytes (Table 2.1: 32 bytes).
pub const BLOCK_SIZE: u64 = 1 << BLOCK_SHIFT;
/// Number of cache blocks per virtual-memory page (4096 / 32 = 128).
pub const BLOCKS_PER_PAGE: u64 = PAGE_SIZE / BLOCK_SIZE;
/// Total cache capacity in bytes (Table 2.1: 128 Kbytes).
pub(crate) const CACHE_SIZE: u64 = 128 * 1024;
/// Number of lines in the direct-mapped cache (128 KB / 32 B = 4096).
pub const CACHE_LINES: u64 = CACHE_SIZE / BLOCK_SIZE;
/// Width of the global virtual address space in bits.
///
/// SPUR maps 32-bit per-process addresses onto a 38-bit global virtual
/// space through four per-process segment registers.
pub(crate) const GLOBAL_ADDR_BITS: u32 = 38;
/// Base-2 logarithm of a segment's size (each segment covers 1 GB of the
/// process address space).
pub(crate) const SEGMENT_SHIFT: u32 = 30;
/// Number of global segments (38-bit global space / 1 GB segments = 256).
pub const GLOBAL_SEGMENTS: u64 = 1 << (GLOBAL_ADDR_BITS - SEGMENT_SHIFT);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architectural_constants_are_consistent() {
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(BLOCK_SIZE, 32);
        assert_eq!(BLOCKS_PER_PAGE, 128);
        assert_eq!(CACHE_SIZE, 131072);
        assert_eq!(CACHE_LINES, 4096);
        assert_eq!(GLOBAL_SEGMENTS, 256);
        // The cache holds exactly 32 pages worth of blocks.
        assert_eq!(CACHE_SIZE / PAGE_SIZE, 32);
    }
}
