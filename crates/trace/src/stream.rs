//! Trace records and reference-mix specifications.

use core::fmt;

use spur_types::{AccessKind, GlobalAddr};

/// The id of a simulated process within a workload.
///
/// (Distinct from `spur_mem::segmap::ProcessId` to keep this crate's
/// dependencies minimal; the simulator treats the trace's global addresses
/// as already segment-mapped.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// One memory reference in a synthesized trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRef {
    /// The process issuing the reference.
    pub pid: Pid,
    /// The (global virtual) address referenced.
    pub addr: GlobalAddr,
    /// Instruction fetch, read, or write.
    pub kind: AccessKind,
}

impl fmt::Display for TraceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.pid, self.kind, self.addr)
    }
}

/// An instruction-fetch / read / write mix, in parts that are normalized
/// on use.
///
/// ```
/// use spur_trace::stream::RefMix;
///
/// let mix = RefMix::new(50, 35, 15);
/// assert!((mix.write_fraction() - 0.15).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefMix {
    ifetch: u32,
    read: u32,
    write: u32,
}

impl RefMix {
    /// Creates a mix from integer parts.
    ///
    /// # Panics
    ///
    /// Panics if all parts are zero or their sum overflows a `u32`.
    pub const fn new(ifetch: u32, read: u32, write: u32) -> Self {
        match Self::checked(ifetch, read, write) {
            Some(mix) => mix,
            None => panic!("mix parts must sum to between 1 and u32::MAX"),
        }
    }

    /// Creates a mix from integer parts, or `None` if they are all zero
    /// or their sum overflows a `u32`.
    pub(crate) const fn checked(ifetch: u32, read: u32, write: u32) -> Option<Self> {
        match ifetch.checked_add(read) {
            Some(ir) => match ir.checked_add(write) {
                Some(total) if total > 0 => Some(RefMix {
                    ifetch,
                    read,
                    write,
                }),
                _ => None,
            },
            None => None,
        }
    }

    /// The default SPUR-ish mix: half instruction fetches, 35% reads,
    /// 15% writes.
    pub const fn default_mix() -> Self {
        RefMix::new(50, 35, 15)
    }

    fn total(&self) -> u32 {
        self.ifetch + self.read + self.write
    }

    /// Fraction of references that are instruction fetches.
    pub fn ifetch_fraction(&self) -> f64 {
        self.ifetch as f64 / self.total() as f64
    }

    /// Fraction of references that are data reads.
    pub fn read_fraction(&self) -> f64 {
        self.read as f64 / self.total() as f64
    }

    /// Fraction of references that are data writes.
    pub fn write_fraction(&self) -> f64 {
        self.write as f64 / self.total() as f64
    }

    /// The two cut points [`RefMix::pick`] compares a sample against:
    /// the instruction-fetch fraction, and that plus the read fraction.
    pub(crate) fn cut_points(&self) -> (f64, f64) {
        let t = self.total() as f64;
        let fi = self.ifetch as f64 / t;
        let fr = self.read as f64 / t;
        (fi, fi + fr)
    }

    /// Picks a kind from a uniform sample in `[0, 1)`.
    pub fn pick(&self, u: f64) -> AccessKind {
        let (ifetch, read) = self.cut_points();
        if u < ifetch {
            AccessKind::InstrFetch
        } else if u < read {
            AccessKind::Read
        } else {
            AccessKind::Write
        }
    }
}

impl Default for RefMix {
    fn default() -> Self {
        Self::default_mix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let mix = RefMix::new(3, 2, 1);
        let sum = mix.ifetch_fraction() + mix.read_fraction() + mix.write_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pick_respects_boundaries() {
        let mix = RefMix::new(50, 35, 15);
        assert_eq!(mix.pick(0.0), AccessKind::InstrFetch);
        assert_eq!(mix.pick(0.49), AccessKind::InstrFetch);
        assert_eq!(mix.pick(0.51), AccessKind::Read);
        assert_eq!(mix.pick(0.84), AccessKind::Read);
        assert_eq!(mix.pick(0.86), AccessKind::Write);
        assert_eq!(mix.pick(0.999), AccessKind::Write);
    }

    #[test]
    fn empty_and_overflowing_mixes_are_refused() {
        assert_eq!(RefMix::checked(0, 0, 0), None);
        assert_eq!(RefMix::checked(u32::MAX, 1, 0), None);
        assert_eq!(RefMix::checked(1, u32::MAX, 0), None);
        assert_eq!(
            RefMix::checked(u32::MAX - 1, 0, 1),
            Some(RefMix::new(u32::MAX - 1, 0, 1))
        );
    }

    #[test]
    fn degenerate_mixes() {
        let w = RefMix::new(0, 0, 1);
        assert_eq!(w.pick(0.0), AccessKind::Write);
        assert_eq!(w.pick(0.99), AccessKind::Write);
    }

    #[test]
    fn trace_ref_displays_all_parts() {
        let r = TraceRef {
            pid: Pid(3),
            addr: GlobalAddr::new(0x40),
            kind: AccessKind::Write,
        };
        let text = r.to_string();
        assert!(text.contains("pid3"));
        assert!(text.contains("write"));
    }
}
