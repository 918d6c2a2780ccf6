//! Deterministic hashing: a fast hasher for the simulator's hot maps,
//! and the one FNV-1a and SplitMix64 finalizer every other crate folds
//! bytes or seeds with (cell identities, fault-injection rolls, the
//! serve ring, load-generator seeds, stream and artifact digests).
//!
//! The standard library's default `SipHash 1-3` is keyed and
//! DoS-resistant, which the simulator does not need: every map here is
//! keyed by trusted internal values (block numbers, VPNs), and lookups
//! sit on the miss path of the reference loop. This is the classic
//! multiply-rotate scheme (as popularized by rustc's FxHash): one
//! wrapping multiply and a rotate per word, ~5× faster than SipHash on
//! `u64` keys.
//!
//! Determinism note: iteration order of a `HashMap` is still
//! unspecified — as with the default hasher, anything that reaches an
//! artifact must be explicitly sorted. All simulator outputs already
//! obey that rule.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Knuth's multiplicative constant, 2^64 / φ.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a 64's offset basis: the start state of an unseeded hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64 state `h` and returns the new
/// state. Start from [`FNV_OFFSET`] for the plain hash of `bytes`; a
/// seeded hash starts from another state, and an incremental one
/// passes each result back in.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64's output finalizer: avalanches every input bit across
/// all 64 output bits.
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One-multiply-per-word hasher for trusted integer-ish keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub(crate) type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` using [`FastHasher`].
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_folds_incrementally() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn mix64_is_splitmix64s_finalizer() {
        // The first output of SplitMix64 seeded with 0 (Vigna's
        // reference implementation).
        assert_eq!(mix64(SEED), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(0), 0);
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 0x1_0001, i);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 0x1_0001)), Some(&i));
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn set_round_trips() {
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
        assert!(!s.contains(&8));
    }

    #[test]
    fn hashing_is_deterministic_across_instances() {
        use std::hash::BuildHasher;
        let a = FastBuildHasher::default();
        let b = FastBuildHasher::default();
        for v in [0u64, 1, 42, u64::MAX, 0x9e37_79b9] {
            assert_eq!(a.hash_one(v), b.hash_one(v));
        }
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        use std::hash::BuildHasher;
        let bh = FastBuildHasher::default();
        let mut seen = std::collections::HashSet::new();
        for v in 0..100_000u64 {
            seen.insert(bh.hash_one(v));
        }
        assert_eq!(seen.len(), 100_000, "sequential u64 keys must not collide");
    }

    #[test]
    fn byte_writes_cover_tail_lengths() {
        // The generic `write` path handles non-multiple-of-8 inputs.
        let mut h1 = FastHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = FastHasher::default();
        h2.write(&[1, 2, 3, 0]);
        // Zero-padded tails of different lengths may collide, but the
        // hasher must at least distinguish clearly different content.
        let mut h3 = FastHasher::default();
        h3.write(&[9, 9, 9]);
        assert_ne!(h1.finish(), h3.finish());
    }
}
