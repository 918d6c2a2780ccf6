//! Process management: the OS layer that hands out segment registers.
//!
//! SPUR's synonym-prevention contract (Section 1) is an *operating
//! system* responsibility: every piece of memory has exactly one global
//! virtual address, and processes see it through their four segment
//! registers. This module provides the Sprite-side bookkeeping — process
//! creation, private and shared segment attachment, and process-address
//! translation — on top of `spur_mem::segmap`.

use std::collections::HashMap;

use spur_mem::segmap::{GlobalSegmentAllocator, ProcessId, SegmentMap};
use spur_types::{Error, GlobalAddr, ProcAddr, Result, SegmentId};

/// A handle to an allocated global segment, shareable between processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedSegment(u64);

impl SharedSegment {
    /// The underlying global segment number.
    pub fn global(self) -> u64 {
        self.0
    }
}

/// The process table: segment-register state per process.
///
/// ```
/// use spur_vm::proc::ProcessManager;
/// use spur_mem::segmap::ProcessId;
/// use spur_types::{ProcAddr, SegmentId};
///
/// let mut pm = ProcessManager::new();
/// let a = pm.create_process().unwrap();
/// let b = pm.create_process().unwrap();
///
/// // Give both processes a window onto the same shared segment.
/// let shared = pm.allocate_shared().unwrap();
/// pm.attach_shared(a, SegmentId::new(2), shared).unwrap();
/// pm.attach_shared(b, SegmentId::new(1), shared).unwrap();
///
/// let ga = pm.translate(a, ProcAddr::new(0x8000_0040)).unwrap();
/// let gb = pm.translate(b, ProcAddr::new(0x4000_0040)).unwrap();
/// assert_eq!(ga, gb, "one datum, one global address: no synonyms");
/// ```
#[derive(Debug, Default)]
pub struct ProcessManager {
    next_pid: u32,
    allocator: GlobalSegmentAllocator,
    processes: HashMap<ProcessId, SegmentMap>,
}

impl ProcessManager {
    /// Creates an empty process table.
    pub fn new() -> Self {
        ProcessManager {
            next_pid: 1,
            allocator: GlobalSegmentAllocator::new(),
            processes: HashMap::new(),
        }
    }

    /// Creates a process with segment 0 mapped to the kernel and a fresh
    /// private segment loaded at register 1 (code+data), like Sprite's
    /// exec.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadSegment`] when the global segment space is
    /// exhausted.
    pub fn create_process(&mut self) -> Result<ProcessId> {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        let mut map = SegmentMap::new();
        map.load(SegmentId::new(0), spur_mem::segmap::KERNEL_GLOBAL_SEGMENT)?;
        let private = self.allocator.allocate()?;
        map.load(SegmentId::new(1), private)?;
        self.processes.insert(pid, map);
        Ok(pid)
    }

    /// Destroys a process, releasing its register state. (Global
    /// segments are not recycled; SPUR's 38-bit space is large enough
    /// that Sprite never reused them within an uptime either.)
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] if the process does not exist.
    pub fn destroy_process(&mut self, pid: ProcessId) -> Result<()> {
        self.processes
            .remove(&pid)
            .map(|_| ())
            .ok_or_else(|| Error::BadWorkload(format!("{pid} does not exist")))
    }

    /// Allocates a shareable global segment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadSegment`] when the space is exhausted.
    pub fn allocate_shared(&mut self) -> Result<SharedSegment> {
        Ok(SharedSegment(self.allocator.allocate()?))
    }

    /// Attaches a shared segment to one of `pid`'s registers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] for an unknown process, or
    /// [`Error::BadSegment`] for an invalid register load.
    pub fn attach_shared(
        &mut self,
        pid: ProcessId,
        reg: SegmentId,
        shared: SharedSegment,
    ) -> Result<()> {
        let map = self
            .processes
            .get_mut(&pid)
            .ok_or_else(|| Error::BadWorkload(format!("{pid} does not exist")))?;
        map.load(reg, shared.0)
    }

    /// Translates one of `pid`'s process addresses to its global
    /// address.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] for an unknown process, or
    /// [`Error::BadSegment`] when the selected register is unloaded.
    pub fn translate(&self, pid: ProcessId, addr: ProcAddr) -> Result<GlobalAddr> {
        let map = self
            .processes
            .get(&pid)
            .ok_or_else(|| Error::BadWorkload(format!("{pid} does not exist")))?;
        map.translate(addr)
    }

    /// Number of live processes.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Whether no processes exist.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processes_get_kernel_and_private_segments() {
        let mut pm = ProcessManager::new();
        let a = pm.create_process().unwrap();
        let b = pm.create_process().unwrap();
        // Kernel is shared at register 0.
        let ka = pm.translate(a, ProcAddr::new(0x100)).unwrap();
        let kb = pm.translate(b, ProcAddr::new(0x100)).unwrap();
        assert_eq!(ka, kb, "kernel is one global segment");
        // Private segments are disjoint.
        let pa = pm.translate(a, ProcAddr::new(0x4000_0000)).unwrap();
        let pb = pm.translate(b, ProcAddr::new(0x4000_0000)).unwrap();
        assert_ne!(pa, pb, "private data must not alias");
    }

    #[test]
    fn sharing_gives_identical_global_addresses() {
        let mut pm = ProcessManager::new();
        let a = pm.create_process().unwrap();
        let b = pm.create_process().unwrap();
        let shared = pm.allocate_shared().unwrap();
        pm.attach_shared(a, SegmentId::new(2), shared).unwrap();
        pm.attach_shared(b, SegmentId::new(3), shared).unwrap();
        let ga = pm.translate(a, ProcAddr::new(0x8000_1234)).unwrap();
        let gb = pm.translate(b, ProcAddr::new(0xC000_1234)).unwrap();
        assert_eq!(ga, gb);
    }

    #[test]
    fn unknown_process_and_unloaded_register_error() {
        let mut pm = ProcessManager::new();
        assert!(pm.translate(ProcessId(99), ProcAddr::new(0)).is_err());
        let a = pm.create_process().unwrap();
        // Register 3 was never loaded.
        assert!(pm.translate(a, ProcAddr::new(0xC000_0000)).is_err());
    }

    #[test]
    fn destroy_removes_the_process() {
        let mut pm = ProcessManager::new();
        let a = pm.create_process().unwrap();
        assert_eq!(pm.len(), 1);
        pm.destroy_process(a).unwrap();
        assert!(pm.is_empty());
        assert!(pm.destroy_process(a).is_err(), "double destroy errors");
    }

    #[test]
    fn segment_space_eventually_exhausts() {
        let mut pm = ProcessManager::new();
        let mut created = 0;
        while pm.create_process().is_ok() {
            created += 1;
            assert!(created < 300, "should exhaust within 254 segments");
        }
        // 254 allocatable segments, one per process.
        assert_eq!(created, 254);
    }
}
