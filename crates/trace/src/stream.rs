//! Trace records and reference-mix specifications.

use core::fmt;

use spur_types::{AccessKind, GlobalAddr};

/// The id of a simulated process within a workload.
///
/// The simulator treats the trace's global addresses as already
/// segment-mapped.
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
    pub(crate) const fn default_mix() -> Self {
        RefMix::new(50, 35, 15)
    }

    fn total(&self) -> u32 {
        self.ifetch + self.read + self.write
    }

    /// Fraction of references that are instruction fetches.
    pub(crate) fn ifetch_fraction(&self) -> f64 {
        self.ifetch as f64 / self.total() as f64
    }

    /// Fraction of references that are data reads.
    pub(crate) fn read_fraction(&self) -> f64 {
        self.read as f64 / self.total() as f64
    }

    /// Fraction of references that are data writes.
    pub fn write_fraction(&self) -> f64 {
        self.write as f64 / self.total() as f64
    }

    /// The two cut points a uniform sample in `[0, 1)` is compared
    /// against: the instruction-fetch fraction, and that plus the read
    /// fraction.
    pub(crate) fn cut_points(&self) -> (f64, f64) {
        let t = self.total() as f64;
        let fi = self.ifetch as f64 / t;
        let fr = self.read as f64 / t;
        (fi, fi + fr)
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
    fn cut_points_split_the_unit_interval() {
        let (ifetch, read) = RefMix::new(50, 35, 15).cut_points();
        assert!((ifetch - 0.50).abs() < 1e-12);
        assert!((read - 0.85).abs() < 1e-12);
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
        assert_eq!(RefMix::new(0, 0, 1).cut_points(), (0.0, 0.0));
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
