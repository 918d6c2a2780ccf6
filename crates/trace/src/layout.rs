//! Address-space layout: assigning global virtual page ranges to each
//! process's segments.
//!
//! SPUR's synonym-prevention scheme means every process's memory has a
//! unique *global* address (shared memory shares the global address). The
//! layout allocator hands each (process, segment) pair a dedicated VPN
//! range, aligned to PTE-block granularity (8 pages per 32-byte PTE
//! block), mirroring how Sprite would carve up the global segments.

use core::fmt;

use spur_types::{Error, Result, Vpn};

use crate::stream::Pid;

/// Segment kinds as the trace generator sees them.
///
/// Mirrors `spur_vm::region::PageKind` (the simulator maps one to the
/// other) without creating a dependency on the VM crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegKind {
    /// Program text: read/execute-only, file-backed.
    Code,
    /// Heap: writable, zero-filled on first touch.
    Heap,
    /// Stack: writable, zero-filled on first touch.
    Stack,
    /// File data: writable, file-backed.
    FileData,
}

impl fmt::Display for SegKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SegKind::Code => "code",
            SegKind::Heap => "heap",
            SegKind::Stack => "stack",
            SegKind::FileData => "file",
        };
        f.write_str(s)
    }
}

/// One allocated region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Owning process.
    pub pid: Pid,
    /// Segment kind.
    pub kind: SegKind,
    /// First page.
    pub start: Vpn,
    /// Page count.
    pub pages: u64,
}

/// Pages per 32-byte PTE block; regions are aligned to this so processes
/// do not share PTE blocks (Sprite allocates at coarser granularity
/// anyway).
const ALIGN_PAGES: u64 = 8;

/// The global-address-space layout of a workload.
#[derive(Debug, Clone, Default)]
pub(crate) struct Layout {
    regions: Vec<Region>,
    next_page: u64,
}

/// First global VPN handed out: the base of global segment 1 (segment 0 is
/// the kernel).
const FIRST_PAGE: u64 = 1 << 18;

/// One past the last allocatable VPN (start of the reserved page-table
/// segment, number 255).
const LIMIT_PAGE: u64 = 255 << 18;

impl Layout {
    /// Creates an empty layout.
    pub(crate) fn new() -> Self {
        Layout {
            regions: Vec::new(),
            next_page: FIRST_PAGE,
        }
    }

    /// Allocates `pages` pages for `(pid, kind)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] if `pages == 0` or the global space
    /// is exhausted.
    pub(crate) fn add(&mut self, pid: Pid, kind: SegKind, pages: u64) -> Result<Region> {
        if pages == 0 {
            return Err(Error::BadWorkload(format!(
                "empty {kind} segment for {pid}"
            )));
        }
        let start = self.next_page;
        let padded = pages.div_ceil(ALIGN_PAGES) * ALIGN_PAGES;
        if start + padded > LIMIT_PAGE {
            return Err(Error::BadWorkload(
                "global address space exhausted".to_string(),
            ));
        }
        self.next_page = start + padded;
        let region = Region {
            pid,
            kind,
            start: Vpn::new(start),
            pages,
        };
        self.regions.push(region);
        Ok(region)
    }

    /// All allocated regions in allocation order.
    pub(crate) fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total pages allocated (excluding alignment padding).
    pub(crate) fn total_pages(&self) -> u64 {
        self.regions.iter().map(|r| r.pages).sum()
    }

    /// Total footprint in megabytes (excluding padding).
    pub(crate) fn footprint_mb(&self) -> f64 {
        self.total_pages() as f64 * 4096.0 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_aligned() {
        let mut layout = Layout::new();
        let a = layout.add(Pid(0), SegKind::Code, 5).unwrap();
        let b = layout.add(Pid(0), SegKind::Heap, 3).unwrap();
        let c = layout.add(Pid(1), SegKind::Code, 8).unwrap();
        assert_eq!(a.start.index() % ALIGN_PAGES, 0);
        assert!(b.start.index() >= a.start.index() + 5);
        assert_eq!(b.start.index() % ALIGN_PAGES, 0);
        assert!(c.start.index() >= b.start.index() + 3);
        assert_eq!(layout.total_pages(), 16);
    }

    #[test]
    fn empty_segment_rejected() {
        let mut layout = Layout::new();
        assert!(layout.add(Pid(0), SegKind::Heap, 0).is_err());
    }

    #[test]
    fn footprint_mb_counts_pages() {
        let mut layout = Layout::new();
        layout.add(Pid(0), SegKind::Heap, 256).unwrap();
        assert!((layout.footprint_mb() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn starts_above_kernel_segment() {
        let mut layout = Layout::new();
        let r = layout.add(Pid(0), SegKind::Code, 1).unwrap();
        assert!(r.start.index() >= FIRST_PAGE);
    }
}
