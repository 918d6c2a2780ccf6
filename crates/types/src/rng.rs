//! A small, self-contained pseudo-random number generator.
//!
//! The repository must build with no network access, so it cannot pull
//! the `rand` crate from a registry. This module provides the subset of
//! `rand`'s API the simulator actually uses — seeding from a `u64`,
//! uniform floats in `[0, 1)`, and uniform integers over half-open and
//! inclusive ranges — backed by **xoshiro256++** (Blackman & Vigna)
//! seeded through SplitMix64.
//!
//! Streams are deterministic across platforms and releases: the
//! generators below are pure integer arithmetic with no
//! platform-dependent behavior, which is what the experiment harness's
//! byte-identical-artifact guarantee rests on.
//!
//! ```
//! use spur_types::rng::SmallRng;
//!
//! let mut a = SmallRng::seed_from_u64(7);
//! let mut b = SmallRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! let u: f64 = a.random();
//! assert!((0.0..1.0).contains(&u));
//! let k = a.random_range(10u64..20);
//! assert!((10..20).contains(&k));
//! ```

use core::ops::{Range, RangeInclusive};

use crate::hash::mix64;

/// SplitMix64 step — used to expand a 64-bit seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix64(*state)
}

/// A deterministic xoshiro256++ generator, API-compatible with the ways
/// the trace generator used `rand::rngs::SmallRng`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The 53-bit integer `k` behind `random::<f64>()`, which is
    /// exactly `k · 2^-53`: the top 53 bits of one `next_u64`.
    #[inline]
    pub fn draw53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// One probability test, exactly `self.random::<f64>() < p` for
    /// the `p` that `t` was built from, with no float arithmetic.
    #[inline]
    pub fn chance(&mut self, t: Threshold) -> bool {
        t.admits(self.draw53())
    }

    /// A uniform sample of `T` (see [`Standard`] for the supported types;
    /// floats are uniform in `[0, 1)`).
    pub fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform sample from a half-open (`lo..hi`) or inclusive
    /// (`lo..=hi`) integer range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformInt,
        R: IntRange<T>,
    {
        let (lo, hi_inclusive) = range.bounds_inclusive();
        let lo64 = lo.to_u64();
        let hi64 = hi_inclusive.to_u64();
        assert!(lo64 <= hi64, "empty range in random_range");
        let span = hi64 - lo64;
        if span == u64::MAX {
            return T::from_u64(self.next_u64());
        }
        // Lemire's multiply-shift: maps next_u64 onto [0, span] with
        // negligible bias for the small spans used here.
        let n = span + 1;
        let v = ((self.next_u64() as u128 * n as u128) >> 64) as u64;
        T::from_u64(lo64 + v)
    }
}

/// A probability `p` as an integer threshold on [`SmallRng::draw53`].
///
/// `random::<f64>()` is `k · 2^-53` for an integer `k < 2^53`, so
/// `random::<f64>() < p` holds exactly when `k < ceil(p · 2^53)`. Both
/// steps are exact in `f64` (scaling by a power of two, then rounding
/// up to an integer at most `2^53` for `p` in `[0, 1]`), so a test
/// against the threshold draws the same value and gives the same
/// answer as the float comparison, for every `p`: below 0 or NaN never
/// passes, 1 or more always does.
///
/// ```
/// use spur_types::rng::{SmallRng, Threshold};
///
/// let t = Threshold::new(0.3);
/// let mut a = SmallRng::seed_from_u64(5);
/// let mut b = a.clone();
/// for _ in 0..1000 {
///     assert_eq!(a.chance(t), b.random::<f64>() < 0.3);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threshold(u64);

impl Threshold {
    /// The test that never passes (`p = 0`).
    pub const NEVER: Threshold = Threshold(0);

    /// The threshold of probability `p`.
    pub fn new(p: f64) -> Self {
        // `as` saturates: negative and NaN give 0, huge values u64::MAX.
        Threshold((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// Whether a draw `k` from [`SmallRng::draw53`] passes: the same
    /// as `k · 2^-53 < p`. Lets one draw be tested against several cut
    /// points, as `u < a`, then `u < b`.
    #[inline]
    pub fn admits(self, k: u64) -> bool {
        k < self.0
    }
}

/// Types [`SmallRng::random`] can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample(rng: &mut SmallRng) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample(rng: &mut SmallRng) -> f64 {
        rng.draw53() as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample(rng: &mut SmallRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample(rng: &mut SmallRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample(rng: &mut SmallRng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Unsigned integer types [`SmallRng::random_range`] can sample.
pub trait UniformInt: Copy {
    /// Widens to the sampling domain.
    fn to_u64(self) -> u64;
    /// Narrows back; the value is always within the requested range.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

/// Range shapes accepted by [`SmallRng::random_range`].
pub trait IntRange<T: UniformInt> {
    /// The `(low, high)` bounds with `high` inclusive.
    fn bounds_inclusive(self) -> (T, T);
}

impl<T: UniformInt> IntRange<T> for Range<T> {
    fn bounds_inclusive(self) -> (T, T) {
        let hi = self.end.to_u64();
        assert!(hi > 0, "empty range in random_range");
        (self.start, T::from_u64(hi - 1))
    }
}

impl<T: UniformInt> IntRange<T> for RangeInclusive<T> {
    fn bounds_inclusive(self) -> (T, T) {
        let (lo, hi) = self.into_inner();
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_stays_in_unit_interval_and_covers_it() {
        let mut r = SmallRng::seed_from_u64(42);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let u: f64 = r.random();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01, "min {lo} too high for uniform");
        assert!(hi > 0.99, "max {hi} too low for uniform");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let a: u64 = r.random_range(10..20);
            assert!((10..20).contains(&a));
            let b: u32 = r.random_range(3..=7);
            assert!((3..=7).contains(&b));
            let c: usize = r.random_range(0..1);
            assert_eq!(c, 0);
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(7);
        let mut counts = [0u64; 8];
        for _ in 0..80_000 {
            counts[r.random_range(0usize..8)] += 1;
        }
        for &c in &counts {
            let p = c as f64 / 80_000.0;
            assert!((p - 0.125).abs() < 0.01, "bucket probability {p}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SmallRng::seed_from_u64(0);
        let _: u64 = r.random_range(5..5);
    }
}
