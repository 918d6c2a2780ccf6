//! A cycle-count newtype and its conversion to wall-clock time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A count of processor cycles.
///
/// All of the simulator's time accounting is in processor cycles; the
/// conversion to seconds (at the prototype's 150 ns cycle time) happens only
/// at the reporting boundary.
///
/// ```
/// use spur_types::Cycles;
///
/// let c = Cycles::new(2_000_000) + Cycles::new(500_000);
/// assert_eq!(c.raw(), 2_500_000);
/// assert_eq!(c.millions(), 2.5);
/// // 2.5M cycles at 150ns/cycle = 0.375 s
/// assert!((c.seconds(150) - 0.375).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// Returns the raw count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the count in millions of cycles, as reported in Table 3.4.
    pub fn millions(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Converts to seconds given a cycle time in nanoseconds.
    pub fn seconds(self, cycle_ns: u32) -> f64 {
        self.0 as f64 * cycle_ns as f64 * 1.0e-9
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Ratio of this count to another, as used by Table 3.4's
    /// "(relative to MIN)" rows.
    ///
    /// Returns `f64::NAN` if `baseline` is zero.
    pub fn relative_to(self, baseline: Cycles) -> f64 {
        if baseline.0 == 0 {
            f64::NAN
        } else {
            self.0 as f64 / baseline.0 as f64
        }
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut c = Cycles::new(100);
        c += Cycles::new(50);
        assert_eq!(c, Cycles::new(150));
        c -= Cycles::new(25);
        assert_eq!(c.raw(), 125);
        assert_eq!((c * 2).raw(), 250);
        assert_eq!(Cycles::new(10) - Cycles::new(4), Cycles::new(6));
    }

    #[test]
    fn saturating_sub_stops_at_zero() {
        assert_eq!(Cycles::new(3).saturating_sub(Cycles::new(10)), Cycles::ZERO);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Cycles = (1..=4u64).map(Cycles::new).sum();
        assert_eq!(total.raw(), 10);
    }

    #[test]
    fn relative_to_baseline() {
        let min = Cycles::new(1_000_000);
        let fault = Cycles::new(1_160_000);
        assert!((fault.relative_to(min) - 1.16).abs() < 1e-12);
        assert!(fault.relative_to(Cycles::ZERO).is_nan());
    }

    #[test]
    fn seconds_at_prototype_clock() {
        // 1.5 MIPS-ish machine: 10^9 cycles at 150 ns = 150 s.
        assert!((Cycles::new(1_000_000_000).seconds(150) - 150.0).abs() < 1e-9);
    }
}
