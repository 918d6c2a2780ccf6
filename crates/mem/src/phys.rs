//! The physical page-frame pool.
//!
//! Main memory is a fixed array of 4 KB frames. The VM system allocates
//! frames for pages being faulted in, wires frames that must never be
//! replaced (second-level page tables, kernel text), and returns frames to
//! the free list when pages are reclaimed.

use core::fmt;

use spur_types::{Error, MemSize, Pfn, Result, Vpn};

/// The state of one physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameState {
    /// On the free list.
    Free,
    /// Permanently allocated; never a replacement candidate (kernel,
    /// second-level page tables).
    Wired,
    /// Holding the given virtual page.
    InUse(Vpn),
}

/// A pool of physical page frames with free-list allocation.
///
/// ```
/// use spur_mem::phys::PhysMemory;
/// use spur_types::{MemSize, Vpn};
///
/// let mut pm = PhysMemory::new(MemSize::MB5);
/// assert_eq!(pm.total_frames(), 1280);
///
/// let f = pm.allocate(Vpn::new(9)).unwrap();
/// assert_eq!(pm.owner(f), Some(Vpn::new(9)));
/// pm.free(f);
/// assert_eq!(pm.owner(f), None);
/// ```
#[derive(Debug, Clone)]
pub struct PhysMemory {
    frames: Vec<FrameState>,
    free: Vec<Pfn>,
    wired_count: usize,
}

impl PhysMemory {
    /// Creates a pool with every frame free.
    pub fn new(size: MemSize) -> Self {
        let n = size.frames() as usize;
        PhysMemory {
            frames: vec![FrameState::Free; n],
            // LIFO free list: pop from the high end first so wired kernel
            // pages cluster at high addresses like Sprite's.
            free: (0..n as u32).map(Pfn::new).collect(),
            wired_count: 0,
        }
    }

    /// Total number of frames in the machine.
    pub fn total_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of frames currently on the free list.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Number of wired frames.
    pub fn wired_frames(&self) -> usize {
        self.wired_count
    }

    /// Number of frames holding replaceable virtual pages.
    pub fn in_use_frames(&self) -> usize {
        self.frames.len() - self.free.len() - self.wired_count
    }

    /// Allocates a frame for virtual page `vpn`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoFreeFrames`] when the free list is empty; the
    /// caller (the page daemon) must reclaim a page first.
    pub fn allocate(&mut self, vpn: Vpn) -> Result<Pfn> {
        let pfn = self.free.pop().ok_or(Error::NoFreeFrames)?;
        self.frames[pfn.index()] = FrameState::InUse(vpn);
        Ok(pfn)
    }

    /// Allocates a wired frame that will never be reclaimed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoFreeFrames`] when memory is exhausted.
    pub fn allocate_wired(&mut self) -> Result<Pfn> {
        let pfn = self.free.pop().ok_or(Error::NoFreeFrames)?;
        self.frames[pfn.index()] = FrameState::Wired;
        self.wired_count += 1;
        Ok(pfn)
    }

    /// Returns a frame to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the frame is wired or already free — both indicate a VM
    /// accounting bug, not a recoverable condition.
    pub fn free(&mut self, pfn: Pfn) {
        match self.frames[pfn.index()] {
            FrameState::InUse(_) => {
                self.frames[pfn.index()] = FrameState::Free;
                self.free.push(pfn);
            }
            FrameState::Wired => panic!("cannot free wired frame {pfn}"),
            FrameState::Free => panic!("double free of frame {pfn}"),
        }
    }

    /// Returns the virtual page held by a frame, if it holds one.
    pub fn owner(&self, pfn: Pfn) -> Option<Vpn> {
        match self.frames[pfn.index()] {
            FrameState::InUse(vpn) => Some(vpn),
            _ => None,
        }
    }

    /// Iterates over `(pfn, vpn)` pairs for all in-use frames.
    pub fn iter_in_use(&self) -> impl Iterator<Item = (Pfn, Vpn)> + '_ {
        self.frames.iter().enumerate().filter_map(|(i, s)| match s {
            FrameState::InUse(vpn) => Some((Pfn::new(i as u32), *vpn)),
            _ => None,
        })
    }
}

impl fmt::Display for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phys: {} frames ({} free, {} wired, {} in use)",
            self.total_frames(),
            self.free_frames(),
            self.wired_frames(),
            self.in_use_frames()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_pool_is_all_free() {
        let pm = PhysMemory::new(MemSize::MB6);
        assert_eq!(pm.total_frames(), 1536);
        assert_eq!(pm.free_frames(), 1536);
        assert_eq!(pm.wired_frames(), 0);
        assert_eq!(pm.in_use_frames(), 0);
    }

    #[test]
    fn allocate_and_free_cycle() {
        let mut pm = PhysMemory::new(MemSize::MB5);
        let a = pm.allocate(Vpn::new(1)).unwrap();
        let b = pm.allocate(Vpn::new(2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(pm.in_use_frames(), 2);
        pm.free(a);
        assert_eq!(pm.free_frames(), 1279);
        // LIFO: the freed frame comes back first.
        let c = pm.allocate(Vpn::new(3)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn exhaustion_returns_error() {
        let mut pm = PhysMemory::new(MemSize::new(1));
        for i in 0..pm.total_frames() {
            pm.allocate(Vpn::new(i as u64)).unwrap();
        }
        assert_eq!(pm.allocate(Vpn::new(999)), Err(Error::NoFreeFrames));
    }

    #[test]
    fn wired_frames_are_tracked() {
        let mut pm = PhysMemory::new(MemSize::new(1));
        let w = pm.allocate_wired().unwrap();
        assert_eq!(pm.frames[w.index()], FrameState::Wired);
        assert_eq!(pm.wired_frames(), 1);
        assert_eq!(pm.owner(w), None);
    }

    #[test]
    #[should_panic(expected = "wired")]
    fn freeing_wired_frame_panics() {
        let mut pm = PhysMemory::new(MemSize::new(1));
        let w = pm.allocate_wired().unwrap();
        pm.free(w);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pm = PhysMemory::new(MemSize::new(1));
        let a = pm.allocate(Vpn::new(1)).unwrap();
        pm.free(a);
        pm.free(a);
    }

    #[test]
    fn iter_in_use_lists_owners() {
        let mut pm = PhysMemory::new(MemSize::new(1));
        let a = pm.allocate(Vpn::new(10)).unwrap();
        let _w = pm.allocate_wired().unwrap();
        let b = pm.allocate(Vpn::new(20)).unwrap();
        let mut pairs: Vec<_> = pm.iter_in_use().collect();
        pairs.sort_by_key(|(_, v)| v.index());
        assert_eq!(pairs, vec![(a, Vpn::new(10)), (b, Vpn::new(20))]);
    }

    #[test]
    fn accounting_is_conserved() {
        let mut pm = PhysMemory::new(MemSize::new(2));
        let total = pm.total_frames();
        let mut held = Vec::new();
        for i in 0..100 {
            held.push(pm.allocate(Vpn::new(i)).unwrap());
        }
        for _ in 0..10 {
            pm.allocate_wired().unwrap();
        }
        for pfn in held.drain(..50) {
            pm.free(pfn);
        }
        assert_eq!(
            pm.free_frames() + pm.wired_frames() + pm.in_use_frames(),
            total
        );
        assert_eq!(pm.in_use_frames(), 50);
        assert_eq!(pm.wired_frames(), 10);
    }
}
