//! Per-process segment registers: the synonym-prevention mechanism.
//!
//! SPUR avoids the virtual-address-synonym problem by forcing processes
//! that share memory to use the *same global virtual address* for it. The
//! hardware support is four segment registers per process: the top two bits
//! of a 32-bit process address select a register, whose contents name one of
//! 256 one-gigabyte global segments. Sharing is arranged by loading the same
//! global segment number into two processes' registers.

use spur_types::{Error, GlobalAddr, ProcAddr, Result, SegmentId, GLOBAL_SEGMENTS};

use crate::pagetable::PT_GLOBAL_SEGMENT;

/// One process's four segment registers.
///
/// ```
/// use spur_mem::segmap::SegmentMap;
/// use spur_types::{ProcAddr, SegmentId};
///
/// let mut map = SegmentMap::new();
/// map.load(SegmentId::new(1), 42).unwrap();
/// let ga = map.translate(ProcAddr::new(0x4000_0123)).unwrap();
/// assert_eq!(ga.global_segment(), 42);
/// assert_eq!(ga.segment_offset(), 0x123);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentMap {
    registers: [Option<u64>; 4],
}

impl SegmentMap {
    /// Creates a map with all registers unloaded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads global segment `global` into register `seg`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadSegment`] if `global` is out of range or names
    /// the reserved page-table segment.
    pub fn load(&mut self, seg: SegmentId, global: u64) -> Result<()> {
        if global >= GLOBAL_SEGMENTS {
            return Err(Error::BadSegment(format!(
                "global segment {global} out of range"
            )));
        }
        if global == PT_GLOBAL_SEGMENT {
            return Err(Error::BadSegment(
                "the page-table segment cannot be mapped by user code".to_string(),
            ));
        }
        self.registers[seg.index()] = Some(global);
        Ok(())
    }

    /// Translates a process address to its global virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadSegment`] if the selected register is unloaded.
    pub fn translate(&self, addr: ProcAddr) -> Result<GlobalAddr> {
        let seg = addr.segment();
        let global = self.registers[seg.index()]
            .ok_or_else(|| Error::BadSegment(format!("register {seg} is not loaded")))?;
        Ok(GlobalAddr::from_parts(global, addr.segment_offset()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global segment shared by every process for the kernel.
    const KERNEL_GLOBAL_SEGMENT: u64 = 0;

    #[test]
    fn translate_through_loaded_register() {
        let mut map = SegmentMap::new();
        map.load(SegmentId::new(0), KERNEL_GLOBAL_SEGMENT).unwrap();
        map.load(SegmentId::new(2), 17).unwrap();
        let ga = map.translate(ProcAddr::new(0x8000_0040)).unwrap();
        assert_eq!(ga.global_segment(), 17);
        assert_eq!(ga.segment_offset(), 0x40);
        let k = map.translate(ProcAddr::new(0x0000_1000)).unwrap();
        assert_eq!(k.global_segment(), KERNEL_GLOBAL_SEGMENT);
    }

    #[test]
    fn unloaded_register_faults() {
        let map = SegmentMap::new();
        assert!(map.translate(ProcAddr::new(0)).is_err());
    }

    #[test]
    fn page_table_segment_is_unmappable() {
        let mut map = SegmentMap::new();
        assert!(map.load(SegmentId::new(0), PT_GLOBAL_SEGMENT).is_err());
        assert!(map.load(SegmentId::new(0), 256).is_err());
    }

    #[test]
    fn shared_segment_gives_identical_global_addresses() {
        // The synonym-prevention property: two processes mapping the same
        // global segment translate a shared offset to the same global
        // address, even through different registers.
        let mut a = SegmentMap::new();
        let mut b = SegmentMap::new();
        a.load(SegmentId::new(1), 9).unwrap();
        b.load(SegmentId::new(3), 9).unwrap();
        let ga = a.translate(ProcAddr::new(0x4000_0888)).unwrap();
        let gb = b.translate(ProcAddr::new(0xC000_0888)).unwrap();
        assert_eq!(ga, gb);
    }
}
