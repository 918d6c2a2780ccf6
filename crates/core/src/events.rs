//! The Table 3.3 event-frequency record.

use core::fmt;

use spur_harness::Json;
use spur_types::Cycles;

/// Event frequencies measured over one run, in the paper's notation.
///
/// `N_w-hit` and `N_w-miss` are raw counts here; Table 3.3 prints them in
/// millions (see `EventCounts::n_whit_millions`).
///
/// ```
/// use spur_core::events::EventCounts;
///
/// // The paper's SLC @ 5 MB row:
/// let ev = EventCounts {
///     n_ds: 2349,
///     n_zfod: 905,
///     n_ef: 237,
///     n_whit: 1_270_000,
///     n_wmiss: 7_380_000,
///     ..EventCounts::default()
/// };
/// // 237 / (2349 - 905) = 16.4% — the paper's excess-fault fraction.
/// assert!((ev.excess_fraction_excluding_zfod() - 0.164).abs() < 0.001);
/// // "roughly one fifth of modified blocks are read before written":
/// assert!((ev.read_before_write_fraction() - 0.147).abs() < 0.001);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `N_ds`: necessary dirty-bit faults (first write to a page per
    /// residency).
    pub n_ds: u64,
    /// `N_zfod`: zero-filled page faults.
    pub n_zfod: u64,
    /// `N_ef = N_dm`: previously cached blocks that cause excess faults
    /// (`FAULT`) or dirty-bit misses (`SPUR`).
    pub n_ef: u64,
    /// `N_w-hit`: blocks brought into the cache by a read that are later
    /// modified.
    pub n_whit: u64,
    /// `N_w-miss`: blocks brought into the cache by a write miss.
    pub n_wmiss: u64,
    /// References executed.
    pub refs: u64,
    /// Cache misses (all kinds).
    pub misses: u64,
    /// Page-ins performed.
    pub page_ins: u64,
    /// Reference-bit faults taken.
    pub ref_faults: u64,
    /// Total modeled elapsed time.
    pub elapsed: Cycles,
}

impl EventCounts {
    /// `N_dm` — identical to `n_ef` by the paper's argument (every block
    /// that would excess-fault under `FAULT` dirty-bit-misses under
    /// `SPUR`).
    pub(crate) fn n_dm(&self) -> u64 {
        self.n_ef
    }

    /// `N_w-hit` in millions, Table 3.3's unit.
    pub(crate) fn n_whit_millions(&self) -> f64 {
        self.n_whit as f64 / 1e6
    }

    /// `N_w-miss` in millions, Table 3.3's unit.
    pub(crate) fn n_wmiss_millions(&self) -> f64 {
        self.n_wmiss as f64 / 1e6
    }

    /// Excess faults as a fraction of necessary faults, zero-fills
    /// included (the paper quotes <8–16%).
    pub fn excess_fraction(&self) -> f64 {
        if self.n_ds == 0 {
            0.0
        } else {
            self.n_ef as f64 / self.n_ds as f64
        }
    }

    /// Excess faults as a fraction of necessary faults with zero-fill
    /// pages excluded (the paper quotes 15–34%).
    pub fn excess_fraction_excluding_zfod(&self) -> f64 {
        let base = self.n_ds.saturating_sub(self.n_zfod);
        if base == 0 {
            0.0
        } else {
            self.n_ef as f64 / base as f64
        }
    }

    /// Fraction of modified blocks that were read before being written:
    /// `N_w-hit / (N_w-hit + N_w-miss)` (the paper quotes 16–24%).
    pub fn read_before_write_fraction(&self) -> f64 {
        let total = self.n_whit + self.n_wmiss;
        if total == 0 {
            0.0
        } else {
            self.n_whit as f64 / total as f64
        }
    }

    /// Cache miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.misses as f64 / self.refs as f64
        }
    }

    /// Elapsed seconds at the prototype's 150 ns cycle.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed.seconds(150)
    }

    /// The artifact encoding: every raw counter, exactly. Derived
    /// quantities (fractions, seconds) are left to readers so the
    /// record stays lossless.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("n_ds", Json::from(self.n_ds)),
            ("n_zfod", Json::from(self.n_zfod)),
            ("n_ef", Json::from(self.n_ef)),
            ("n_whit", Json::from(self.n_whit)),
            ("n_wmiss", Json::from(self.n_wmiss)),
            ("refs", Json::from(self.refs)),
            ("misses", Json::from(self.misses)),
            ("page_ins", Json::from(self.page_ins)),
            ("ref_faults", Json::from(self.ref_faults)),
            ("elapsed_cycles", Json::from(self.elapsed.raw())),
        ])
    }
}

impl fmt::Display for EventCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events[N_ds={} N_zfod={} N_ef={} N_whit={:.3}M N_wmiss={:.3}M elapsed={:.1}s]",
            self.n_ds,
            self.n_zfod,
            self.n_ef,
            self.n_whit_millions(),
            self.n_wmiss_millions(),
            self.elapsed_seconds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventCounts {
        EventCounts {
            n_ds: 1000,
            n_zfod: 600,
            n_ef: 80,
            n_whit: 200,
            n_wmiss: 800,
            ..EventCounts::default()
        }
    }

    #[test]
    fn fractions() {
        let ev = sample();
        assert!((ev.excess_fraction() - 0.08).abs() < 1e-12);
        assert!((ev.excess_fraction_excluding_zfod() - 0.2).abs() < 1e-12);
        assert!((ev.read_before_write_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let ev = EventCounts::default();
        assert_eq!(ev.excess_fraction(), 0.0);
        assert_eq!(ev.excess_fraction_excluding_zfod(), 0.0);
        assert_eq!(ev.read_before_write_fraction(), 0.0);
        assert_eq!(ev.miss_ratio(), 0.0);
    }

    #[test]
    fn millions_scaling() {
        let ev = EventCounts {
            n_whit: 1_270_000,
            n_wmiss: 7_380_000,
            ..EventCounts::default()
        };
        assert!((ev.n_whit_millions() - 1.27).abs() < 1e-9);
        assert!((ev.n_wmiss_millions() - 7.38).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_every_n() {
        let text = sample().to_string();
        for part in ["N_ds", "N_zfod", "N_ef", "N_whit", "N_wmiss"] {
            assert!(text.contains(part));
        }
    }
}
