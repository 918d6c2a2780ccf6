//! Address-space regions and page attributes.
//!
//! The workloads declare regions of the global virtual space up front
//! (code, heap, stack, shared file data); the VM system consults the
//! region map on every page fault to decide protection and fill behavior.

use core::fmt;
use std::collections::BTreeMap;

use spur_types::{Error, Protection, Result, Vpn};

/// What kind of memory a page belongs to, which determines protection and
/// fill behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Program text: execute/read-only, backed by the file system; never
    /// written back.
    Code,
    /// Heap data: writable, zero-filled on first touch.
    Heap,
    /// Stack: writable, zero-filled on first touch.
    Stack,
    /// File data: writable, paged from the file system (not zero-filled).
    FileData,
}

impl PageKind {
    /// Whether pages of this kind may legally be written.
    pub const fn writable(self) -> bool {
        !matches!(self, PageKind::Code)
    }

    /// Whether first touch is satisfied by zero-fill instead of I/O.
    pub const fn zero_fill(self) -> bool {
        matches!(self, PageKind::Heap | PageKind::Stack)
    }

    /// The full (eventual) protection for pages of this kind — the level a
    /// page reaches once any dirty-bit emulation games are over.
    pub const fn natural_protection(self) -> Protection {
        match self {
            PageKind::Code => Protection::ReadOnly,
            _ => Protection::ReadWrite,
        }
    }
}

impl fmt::Display for PageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageKind::Code => "code",
            PageKind::Heap => "heap",
            PageKind::Stack => "stack",
            PageKind::FileData => "file",
        };
        f.write_str(s)
    }
}

/// A map from page ranges to their kinds.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegionMap {
    /// start VPN → (page count, kind); ranges never overlap.
    regions: BTreeMap<u64, (u64, PageKind)>,
}

impl RegionMap {
    /// Creates an empty map.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers `pages` pages starting at `start` as `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] if the range is empty or overlaps an
    /// existing region.
    pub(crate) fn register(&mut self, start: Vpn, pages: u64, kind: PageKind) -> Result<()> {
        if pages == 0 {
            return Err(Error::BadWorkload("empty region".to_string()));
        }
        let s = start.index();
        let e = s + pages;
        // The nearest region at or before `s`, and the first after, are
        // the only overlap candidates.
        if let Some((&ps, &(plen, _))) = self.regions.range(..=s).next_back() {
            if ps + plen > s {
                return Err(Error::BadWorkload(format!(
                    "region at vpn {s:#x} overlaps existing region at {ps:#x}"
                )));
            }
        }
        if let Some((&ns, _)) = self.regions.range(s + 1..).next() {
            if ns < e {
                return Err(Error::BadWorkload(format!(
                    "region at vpn {s:#x}..{e:#x} overlaps existing region at {ns:#x}"
                )));
            }
        }
        self.regions.insert(s, (pages, kind));
        Ok(())
    }

    /// Looks up the kind of the region containing `vpn`.
    pub(crate) fn kind_of(&self, vpn: Vpn) -> Option<PageKind> {
        let v = vpn.index();
        let (&s, &(len, kind)) = self.regions.range(..=v).next_back()?;
        (v < s + len).then_some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_expected_attributes() {
        assert!(!PageKind::Code.writable());
        assert!(PageKind::Heap.writable());
        assert!(PageKind::Stack.zero_fill());
        assert!(!PageKind::FileData.zero_fill());
        assert_eq!(PageKind::Code.natural_protection(), Protection::ReadOnly);
        assert_eq!(PageKind::Heap.natural_protection(), Protection::ReadWrite);
    }

    #[test]
    fn register_and_lookup() {
        let mut map = RegionMap::new();
        map.register(Vpn::new(0), 4, PageKind::Code).unwrap();
        map.register(Vpn::new(4), 4, PageKind::Heap).unwrap();
        assert_eq!(map.kind_of(Vpn::new(0)), Some(PageKind::Code));
        assert_eq!(map.kind_of(Vpn::new(3)), Some(PageKind::Code));
        assert_eq!(map.kind_of(Vpn::new(4)), Some(PageKind::Heap));
        assert_eq!(map.kind_of(Vpn::new(8)), None);
        assert_eq!(map.regions.len(), 2);
    }

    #[test]
    fn overlap_is_rejected() {
        let mut map = RegionMap::new();
        map.register(Vpn::new(10), 10, PageKind::Heap).unwrap();
        // Overlapping from below:
        assert!(map.register(Vpn::new(5), 6, PageKind::Code).is_err());
        // Overlapping from above:
        assert!(map.register(Vpn::new(19), 1, PageKind::Code).is_err());
        // Contained:
        assert!(map.register(Vpn::new(12), 2, PageKind::Code).is_err());
        // Covering:
        assert!(map.register(Vpn::new(9), 12, PageKind::Code).is_err());
        // Adjacent is fine:
        map.register(Vpn::new(20), 1, PageKind::Code).unwrap();
        map.register(Vpn::new(9), 1, PageKind::Code).unwrap();
    }

    #[test]
    fn empty_region_is_rejected() {
        let mut map = RegionMap::new();
        assert!(map.register(Vpn::new(0), 0, PageKind::Code).is_err());
    }
}
