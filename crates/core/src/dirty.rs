//! The five dirty-bit implementation alternatives (Table 3.1) and their
//! overhead models (Section 3.2).
//!
//! All five agree on the hardware/software split the paper argues for:
//! checking the dirty-bit information happens on every write (cheaply, in
//! hardware), but *setting* the PTE's dirty bit traps to a software
//! handler — which also keeps PTE updates simple on a multiprocessor.
//! They differ in what is checked and what happens when the cached
//! information is stale:
//!
//! | policy  | mechanism |
//! |---------|-----------|
//! | `FAULT` | emulate D with protection; stale cached protection causes **excess faults** |
//! | `FLUSH` | like `FAULT`, but the handler flushes the page from the cache, preventing excess faults |
//! | `SPUR`  | cache a copy of the page dirty bit per line; a stale copy is refreshed by a cheap **dirty-bit miss** |
//! | `WRITE` | check the PTE on the first write to each cache **block** (Sun-3-like) |
//! | `MIN`   | oracle lower bound: only the unavoidable `N_ds · t_ds` |

use core::fmt;

use spur_types::{CostParams, Cycles, Protection};

use crate::events::EventCounts;

/// A dirty-bit implementation alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DirtyPolicy {
    /// Emulate dirty bits with protection. Writes to previously cached
    /// blocks cause excess faults.
    Fault,
    /// Emulate with protection, but flush the page from the cache when
    /// the fault occurs, preventing excess faults.
    Flush,
    /// Store a copy of the dirty bit with each cache block; check the PTE
    /// before faulting; if the cached copy is merely out of date, update
    /// it with a dirty-bit miss. (What the prototype implements.)
    #[default]
    Spur,
    /// Check the PTE on the first write to each cache block.
    Write,
    /// Minimal policy: only the overhead intrinsic to all policies.
    Min,
}

impl DirtyPolicy {
    /// All five policies in Table 3.4's column order.
    pub const ALL: [DirtyPolicy; 5] = [
        DirtyPolicy::Min,
        DirtyPolicy::Fault,
        DirtyPolicy::Flush,
        DirtyPolicy::Spur,
        DirtyPolicy::Write,
    ];

    /// The Table 3.1 description.
    pub const fn description(self) -> &'static str {
        match self {
            DirtyPolicy::Fault => {
                "Emulate dirty bits with protection. Writes to previously \
                 cached blocks cause excess faults."
            }
            DirtyPolicy::Flush => {
                "Emulate dirty bits with protection. When a fault occurs, \
                 flush all blocks in that page from the cache, preventing \
                 excess faults."
            }
            DirtyPolicy::Spur => {
                "Store a copy of the dirty bit with each cache block. Check \
                 the PTE before faulting; if the cached copy is merely out \
                 of date, update it with a dirty bit miss."
            }
            DirtyPolicy::Write => "Check the PTE on the first write to each cache block.",
            DirtyPolicy::Min => {
                "Minimal policy. Includes only overhead intrinsic to all \
                 policies."
            }
        }
    }

    /// The initial PTE protection for a freshly faulted-in page whose
    /// natural protection is `natural`.
    ///
    /// Protection-emulation policies map writable pages read-only until
    /// the first write fault; the others grant full access immediately.
    pub(crate) fn initial_protection(self, natural: Protection) -> Protection {
        match self {
            DirtyPolicy::Fault | DirtyPolicy::Flush => {
                if natural == Protection::ReadWrite {
                    Protection::ReadOnly
                } else {
                    natural
                }
            }
            _ => natural,
        }
    }

    /// The Section 3.2 closed-form overhead model, evaluated on measured
    /// event counts. Zero-fill faults are excluded exactly as the paper
    /// does for Table 3.4 (`N_ds − N_zfod` substituted for `N_ds`).
    ///
    /// * `O(MIN)   = N_ds · t_ds`
    /// * `O(FAULT) = (N_ds + N_ef) · t_ds`
    /// * `O(FLUSH) = N_ds · (t_ds + t_flush)`
    /// * `O(SPUR)  = N_ds · (t_ds + t_dm) + N_dm · t_dm`
    /// * `O(WRITE) = N_ds · t_ds + N_w-hit · t_dc`
    pub fn overhead(self, ev: &EventCounts, costs: &CostParams) -> Cycles {
        let n_ds = ev.n_ds.saturating_sub(ev.n_zfod);
        let cycles = match self {
            DirtyPolicy::Min => n_ds * costs.t_ds,
            DirtyPolicy::Fault => (n_ds + ev.n_ef) * costs.t_ds,
            DirtyPolicy::Flush => n_ds * (costs.t_ds + costs.t_flush),
            DirtyPolicy::Spur => n_ds * (costs.t_ds + costs.t_dm) + ev.n_dm() * costs.t_dm,
            DirtyPolicy::Write => n_ds * costs.t_ds + ev.n_whit * costs.t_dc,
        };
        Cycles::new(cycles)
    }
}

impl std::str::FromStr for DirtyPolicy {
    type Err = spur_types::Error;

    /// Parses a policy name, case-insensitively ("fault", "FLUSH", ...).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fault" => Ok(DirtyPolicy::Fault),
            "flush" => Ok(DirtyPolicy::Flush),
            "spur" => Ok(DirtyPolicy::Spur),
            "write" => Ok(DirtyPolicy::Write),
            "min" => Ok(DirtyPolicy::Min),
            other => Err(spur_types::Error::InvalidConfig(format!(
                "unknown dirty-bit policy {other:?} (expected fault|flush|spur|write|min)"
            ))),
        }
    }
}

impl fmt::Display for DirtyPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DirtyPolicy::Fault => "FAULT",
            DirtyPolicy::Flush => "FLUSH",
            DirtyPolicy::Spur => "SPUR",
            DirtyPolicy::Write => "WRITE",
            DirtyPolicy::Min => "MIN",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Event counts copied from Table 3.3, SLC at 5 MB.
    fn slc_5mb() -> EventCounts {
        EventCounts {
            n_ds: 2349,
            n_zfod: 905,
            n_ef: 237,
            n_whit: 1_270_000,
            n_wmiss: 7_380_000,
            ..EventCounts::default()
        }
    }

    #[test]
    fn overheads_reproduce_table_3_4_slc_5mb() {
        // Table 3.4, SLC @ 5 MB: MIN 1.44, FAULT 1.68, FLUSH 2.17,
        // SPUR 1.49, WRITE 7.81 (millions of cycles).
        let ev = slc_5mb();
        let costs = CostParams::paper();
        let m = |p: DirtyPolicy| p.overhead(&ev, &costs).millions();
        assert!((m(DirtyPolicy::Min) - 1.444).abs() < 0.01);
        assert!((m(DirtyPolicy::Fault) - 1.681).abs() < 0.01);
        assert!((m(DirtyPolicy::Flush) - 2.166).abs() < 0.01);
        assert!((m(DirtyPolicy::Spur) - 1.486).abs() < 0.01);
        assert!((m(DirtyPolicy::Write) - 7.794).abs() < 0.03);
    }

    #[test]
    fn relative_ordering_matches_paper() {
        let ev = slc_5mb();
        let costs = CostParams::paper();
        let min = DirtyPolicy::Min.overhead(&ev, &costs);
        let spur = DirtyPolicy::Spur.overhead(&ev, &costs);
        let fault = DirtyPolicy::Fault.overhead(&ev, &costs);
        let flush = DirtyPolicy::Flush.overhead(&ev, &costs);
        let write = DirtyPolicy::Write.overhead(&ev, &costs);
        assert!(min < spur && spur < fault && fault < flush && flush < write);
    }

    #[test]
    fn write_policy_loses_even_with_one_cycle_check() {
        // Section 3.2: "Even if the time to check the PTE dirty bit is
        // reduced to only 1 cycle, this alternative still has the worst
        // performance."
        let ev = slc_5mb();
        let mut costs = CostParams::paper();
        costs.t_dc = 1;
        let write = DirtyPolicy::Write.overhead(&ev, &costs);
        for p in [
            DirtyPolicy::Min,
            DirtyPolicy::Fault,
            DirtyPolicy::Flush,
            DirtyPolicy::Spur,
        ] {
            assert!(p.overhead(&ev, &costs) < write, "{p} should beat WRITE");
        }
    }

    #[test]
    fn initial_protection_emulation() {
        use Protection::*;
        assert_eq!(DirtyPolicy::Fault.initial_protection(ReadWrite), ReadOnly);
        assert_eq!(DirtyPolicy::Flush.initial_protection(ReadWrite), ReadOnly);
        assert_eq!(DirtyPolicy::Spur.initial_protection(ReadWrite), ReadWrite);
        assert_eq!(DirtyPolicy::Write.initial_protection(ReadWrite), ReadWrite);
        assert_eq!(DirtyPolicy::Min.initial_protection(ReadWrite), ReadWrite);
        // Code pages are read-only under every policy.
        for p in DirtyPolicy::ALL {
            assert_eq!(p.initial_protection(ReadOnly), ReadOnly);
        }
    }

    #[test]
    fn zero_fill_exclusion_is_applied() {
        let mut ev = slc_5mb();
        ev.n_zfod = ev.n_ds; // everything zero-fill
        let costs = CostParams::paper();
        assert_eq!(DirtyPolicy::Min.overhead(&ev, &costs), Cycles::ZERO);
    }

    #[test]
    fn from_str_round_trips_every_policy() {
        for p in DirtyPolicy::ALL {
            let parsed: DirtyPolicy = p.to_string().parse().unwrap();
            assert_eq!(parsed, p);
            let lower: DirtyPolicy = p.to_string().to_lowercase().parse().unwrap();
            assert_eq!(lower, p);
        }
        assert!("sun3".parse::<DirtyPolicy>().is_err());
    }

    #[test]
    fn descriptions_and_names_cover_table_3_1() {
        for p in DirtyPolicy::ALL {
            assert!(!p.description().is_empty());
            assert!(!p.to_string().is_empty());
        }
        assert_eq!(DirtyPolicy::Spur.to_string(), "SPUR");
        assert!(DirtyPolicy::Flush.description().contains("flush"));
    }
}
