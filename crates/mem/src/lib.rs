//! Physical memory, page tables, and segment mapping for the SPUR
//! simulator.
//!
//! This crate provides the memory-management substrate beneath the
//! virtual-address cache:
//!
//! * [`pte`] — the page table entry format of Figure 3.2(a): physical frame
//!   number plus protection (`PR`), coherency (`C`), cacheable (`K`), page
//!   dirty (`D`), page referenced (`R`), and valid (`V`) bits;
//! * [`phys`] — the physical frame pool with free-list allocation and wired
//!   (unreplaceable) frames;
//! * [`pagetable`] — SPUR's two-level page table living in the global
//!   virtual address space, whose first level is itself cacheable data (the
//!   heart of in-cache translation) and whose second level is wired down at
//!   well-known addresses;
//! * [`segmap`] — per-process segment registers mapping 32-bit process
//!   addresses onto the 38-bit global space, the mechanism Sprite uses to
//!   prevent virtual-address synonyms.
//!
//! # Example
//!
//! ```
//! use spur_mem::pagetable::PageTable;
//! use spur_mem::pte::Pte;
//! use spur_types::{Pfn, Protection, Vpn};
//!
//! let mut pt = PageTable::new();
//! let vpn = Vpn::new(0x42);
//! pt.insert(vpn, Pte::resident(Pfn::new(7), Protection::ReadWrite));
//! assert!(pt.pte(vpn).valid());
//!
//! // The PTE itself has a global virtual address, so it can be cached:
//! let pte_va = pt.pte_vaddr(vpn);
//! assert_eq!(pt.vpn_for_pte_vaddr(pte_va), Some(vpn));
//! ```

pub mod kernel;
pub mod pagetable;
pub mod phys;
pub mod pte;
pub mod segmap;
