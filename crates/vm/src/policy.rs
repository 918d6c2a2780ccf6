//! The three reference-bit policies of Section 4.
//!
//! Reference bits maintain a pseudo-LRU ordering of resident pages: the
//! page daemon periodically clears them and reclaims pages whose bit is
//! still clear on the next visit. In a system with a TLB the bit is
//! checked on every reference; SPUR's virtual-address cache makes that
//! impractical, so the bit is only checked on **cache misses** — the
//! `MISS` approximation. The alternatives bracket it from both sides:
//! `REF` restores exact semantics by flushing the page from the cache
//! whenever the bit is cleared (forcing the next reference to miss), and
//! `NOREF` abandons reference bits entirely.

use core::fmt;

use spur_mem::pte::Pte;

/// A reference-bit maintenance policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefPolicy {
    /// The miss-bit approximation: R is set by a fault on a cache miss to
    /// a page whose bit is clear; clearing R does not disturb the cache,
    /// so cache-resident pages can be referenced without setting it.
    #[default]
    Miss,
    /// True reference bits: identical to `Miss`, except the daemon flushes
    /// the page from the cache when clearing R, guaranteeing the next
    /// reference misses (and faults the bit back on).
    Ref,
    /// No reference bits: the machine-dependent read routine always
    /// returns `false` and the clear routine is a no-op, leaving the
    /// hardware bit always set (so no reference faults ever occur). The
    /// unmodified clock algorithm then reclaims in sweep order.
    Noref,
}

impl RefPolicy {
    /// All three policies in Table 4.1's row order.
    pub const ALL: [RefPolicy; 3] = [RefPolicy::Miss, RefPolicy::Ref, RefPolicy::Noref];

    /// The machine-dependent "read the hardware reference bit" routine.
    pub(crate) fn read_ref(self, pte: Pte) -> bool {
        match self {
            RefPolicy::Miss | RefPolicy::Ref => pte.referenced(),
            RefPolicy::Noref => false,
        }
    }

    /// Whether the daemon's clear should actually clear the PTE bit.
    pub(crate) const fn clear_clears_bit(self) -> bool {
        !matches!(self, RefPolicy::Noref)
    }

    /// Whether clearing the bit must also flush the page from the cache.
    pub(crate) const fn clear_flushes_page(self) -> bool {
        matches!(self, RefPolicy::Ref)
    }

    /// Whether reference faults are generated at all. Under `NOREF` the
    /// hardware bit is left permanently set, so no fault ever fires.
    pub const fn faults_enabled(self) -> bool {
        !matches!(self, RefPolicy::Noref)
    }
}

impl std::str::FromStr for RefPolicy {
    type Err = spur_types::Error;

    /// Parses a policy name, case-insensitively ("miss", "REF", "noref").
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "miss" => Ok(RefPolicy::Miss),
            "ref" => Ok(RefPolicy::Ref),
            "noref" => Ok(RefPolicy::Noref),
            other => Err(spur_types::Error::InvalidConfig(format!(
                "unknown reference-bit policy {other:?} (expected miss|ref|noref)"
            ))),
        }
    }
}

impl fmt::Display for RefPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RefPolicy::Miss => "MISS",
            RefPolicy::Ref => "REF",
            RefPolicy::Noref => "NOREF",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_types::{Pfn, Protection};

    fn referenced_pte() -> Pte {
        let mut pte = Pte::resident(Pfn::new(1), Protection::ReadWrite);
        pte.set_referenced(true);
        pte
    }

    #[test]
    fn miss_and_ref_read_the_real_bit() {
        let pte = referenced_pte();
        assert!(RefPolicy::Miss.read_ref(pte));
        assert!(RefPolicy::Ref.read_ref(pte));
        let mut clear = pte;
        clear.set_referenced(false);
        assert!(!RefPolicy::Miss.read_ref(clear));
    }

    #[test]
    fn noref_always_reads_false() {
        assert!(!RefPolicy::Noref.read_ref(referenced_pte()));
    }

    #[test]
    fn only_ref_flushes_on_clear() {
        assert!(!RefPolicy::Miss.clear_flushes_page());
        assert!(RefPolicy::Ref.clear_flushes_page());
        assert!(!RefPolicy::Noref.clear_flushes_page());
    }

    #[test]
    fn noref_never_faults_and_never_clears() {
        assert!(!RefPolicy::Noref.faults_enabled());
        assert!(!RefPolicy::Noref.clear_clears_bit());
        assert!(RefPolicy::Miss.faults_enabled());
        assert!(RefPolicy::Ref.clear_clears_bit());
    }

    #[test]
    fn from_str_round_trips_every_policy() {
        for p in RefPolicy::ALL {
            let parsed: RefPolicy = p.to_string().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert!("clock".parse::<RefPolicy>().is_err());
    }

    #[test]
    fn display_names_match_table_4_1() {
        assert_eq!(RefPolicy::Miss.to_string(), "MISS");
        assert_eq!(RefPolicy::Ref.to_string(), "REF");
        assert_eq!(RefPolicy::Noref.to_string(), "NOREF");
    }
}
