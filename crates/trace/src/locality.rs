//! Locality machinery: Zipf-ranked hot sets and sequential cursors.
//!
//! Real programs exhibit two kinds of locality the paper's metrics are
//! sensitive to:
//!
//! * **temporal** — a small, slowly-shifting working set of hot pages
//!   absorbs most references; we model it as a fixed-capacity hot list
//!   whose ranks are sampled from a Zipf distribution and which shifts
//!   when a phase change replaces part of it;
//! * **spatial** — within a page, references run sequentially more often
//!   than not; we model it with a cursor that usually advances to the
//!   next block and occasionally jumps.

use spur_types::rng::SmallRng;

/// A Zipf(θ) sampler over ranks `0..n`, precomputed as an inverse-CDF
/// table.
///
/// θ = 0 degenerates to uniform; θ ≈ 1 gives classic heavy skew.
///
/// ```
/// use spur_trace::locality::Zipf;
///
/// let z = Zipf::new(16, 1.0);
/// assert_eq!(z.len(), 16);
/// assert_eq!(z.sample_at(0.0), 0); // the head of the CDF is rank 0
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(theta.is_finite() && theta >= 0.0, "theta must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always at least one rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Maps a uniform sample in `[0, 1)` to a rank.
    pub fn sample_at(&self, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u));
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        }
        .min(self.cdf.len() - 1)
    }

    /// Samples a rank using `rng`.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        self.sample_at(rng.random::<f64>())
    }
}

/// A fixed-capacity list of hot page indices with Zipf-ranked popularity.
///
/// The list orders pages by heat: rank 0 is hottest. Newly promoted pages
/// enter near the front (they are hot *because* they were just touched);
/// the page they displace falls off the back.
/// Storage is a ring: rank `i` lives at physical slot `(head + i) % len`,
/// so a promotion is one overwrite and a head decrement rather than an
/// O(capacity) shift — promotions run on every cold reference, and the
/// generator has to outrun five simulated caches.
#[derive(Debug, Clone)]
pub struct HotSet {
    /// Page indices (within some segment); rank order starts at `head`.
    pages: Vec<u64>,
    /// Physical slot of the hottest page (rank 0).
    head: usize,
    zipf: Zipf,
}

impl HotSet {
    /// Creates a hot set of `capacity` pages seeded with the first pages
    /// of the segment starting at `first_page`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, first_page: u64, theta: f64) -> Self {
        assert!(capacity > 0, "hot set needs capacity");
        HotSet {
            pages: (0..capacity as u64).map(|i| first_page + i).collect(),
            head: 0,
            zipf: Zipf::new(capacity, theta),
        }
    }

    /// Physical slot of rank `rank`.
    #[inline]
    fn slot(&self, rank: usize) -> usize {
        let i = self.head + rank;
        if i >= self.pages.len() {
            i - self.pages.len()
        } else {
            i
        }
    }

    /// Rotates storage so rank order is physical order (`head == 0`).
    /// Only the rare reshaping paths need this; the per-reference paths
    /// work through [`HotSet::slot`].
    fn normalize(&mut self) {
        if self.head != 0 {
            self.pages.rotate_left(self.head);
            self.head = 0;
        }
    }

    /// Number of hot pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Samples a hot page with Zipf-ranked popularity.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        self.pages[self.slot(self.zipf.sample(rng))]
    }

    /// Promotes `page` to rank 0, evicting the coldest page. Returns the
    /// evicted page.
    pub fn promote(&mut self, page: u64) -> u64 {
        // The coldest slot (rank len-1) is exactly the slot rank 0 moves
        // into when the ring rotates back one step, so the promotion is a
        // single overwrite.
        self.head = if self.head == 0 {
            self.pages.len() - 1
        } else {
            self.head - 1
        };
        std::mem::replace(&mut self.pages[self.head], page)
    }

    /// Replaces the coldest `count` pages with `fresh` ones (a phase
    /// shift). `fresh` yields the replacement page indices.
    pub fn shift<I: Iterator<Item = u64>>(&mut self, count: usize, fresh: I) {
        self.normalize();
        let n = count.min(self.pages.len());
        let keep = self.pages.len() - n;
        self.pages.truncate(keep);
        for (i, page) in fresh.take(n).enumerate() {
            // New working-set pages arrive warm: interleave them near the
            // front so they are actually used.
            let pos = (i * 2).min(self.pages.len());
            self.pages.insert(pos, page);
        }
    }

    /// Whether `page` is currently hot.
    pub fn contains(&self, page: u64) -> bool {
        self.pages.contains(&page)
    }

    /// The current hot pages, hottest first.
    pub fn pages(&mut self) -> &[u64] {
        self.normalize();
        &self.pages
    }
}

/// A sequential-with-jumps cursor over the blocks of a region.
#[derive(Debug, Clone)]
pub struct SeqCursor {
    pos: u64,
    len: u64,
    seq_prob: f64,
}

impl SeqCursor {
    /// Creates a cursor over `len` positions that advances sequentially
    /// with probability `seq_prob` and jumps uniformly otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `seq_prob` is outside `[0, 1]`.
    pub fn new(len: u64, seq_prob: f64) -> Self {
        assert!(len > 0, "cursor needs a nonempty range");
        assert!((0.0..=1.0).contains(&seq_prob));
        SeqCursor {
            pos: 0,
            len,
            seq_prob,
        }
    }

    /// Current position.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Advances and returns the new position.
    pub fn next(&mut self, rng: &mut SmallRng) -> u64 {
        if rng.random::<f64>() < self.seq_prob {
            self.pos = (self.pos + 1) % self.len;
        } else {
            self.pos = rng.random_range(0..self.len);
        }
        self.pos
    }

    /// Jumps to a specific position (e.g. a function call target).
    pub fn jump_to(&mut self, pos: u64) {
        self.pos = pos % self.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn zipf_is_monotone_and_skewed() {
        let z = Zipf::new(100, 1.0);
        let mut rng = rng();
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[80]);
        // Rank 0 of Zipf(1.0, 100) has probability ~1/H(100) ≈ 0.19.
        let p0 = counts[0] as f64 / 100_000.0;
        assert!((p0 - 0.19).abs() < 0.02, "p0 = {p0}");
    }

    #[test]
    fn zipf_zero_theta_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = rng();
        let mut counts = vec![0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let p = c as f64 / 100_000.0;
            assert!((p - 0.1).abs() < 0.01, "p = {p}");
        }
    }

    #[test]
    fn zipf_sample_at_extremes() {
        let z = Zipf::new(5, 1.0);
        assert_eq!(z.sample_at(0.0), 0);
        assert_eq!(z.sample_at(0.9999999), 4);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn hot_set_promote_evicts_coldest() {
        let mut hs = HotSet::new(4, 100, 0.8);
        assert_eq!(hs.pages(), &[100, 101, 102, 103]);
        let evicted = hs.promote(999);
        assert_eq!(evicted, 103);
        assert_eq!(hs.pages()[0], 999);
        assert_eq!(hs.len(), 4);
        assert!(hs.contains(999));
        assert!(!hs.contains(103));
    }

    #[test]
    fn hot_set_shift_replaces_cold_tail() {
        let mut hs = HotSet::new(4, 0, 0.8);
        hs.shift(2, 50..);
        assert_eq!(hs.len(), 4);
        assert!(hs.contains(50) && hs.contains(51));
        assert!(hs.contains(0) && hs.contains(1), "hot head survives");
    }

    #[test]
    fn hot_set_samples_only_members() {
        let hs = HotSet::new(8, 40, 1.0);
        let mut rng = rng();
        for _ in 0..1000 {
            let p = hs.sample(&mut rng);
            assert!((40..48).contains(&p));
        }
    }

    #[test]
    fn seq_cursor_mostly_advances() {
        let mut c = SeqCursor::new(1000, 1.0);
        let mut rng = rng();
        assert_eq!(c.next(&mut rng), 1);
        assert_eq!(c.next(&mut rng), 2);
        c.jump_to(998);
        assert_eq!(c.next(&mut rng), 999);
        assert_eq!(c.next(&mut rng), 0, "wraps at the end");
    }

    #[test]
    fn seq_cursor_jumps_stay_in_range() {
        let mut c = SeqCursor::new(10, 0.0);
        let mut rng = rng();
        for _ in 0..100 {
            assert!(c.next(&mut rng) < 10);
        }
    }
}
