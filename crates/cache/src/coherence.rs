//! The Berkeley Ownership cache-coherency protocol (Katz et al.,
//! ISCA 1985): line states and the cache's side of the snooping bus.
//!
//! The SPUR prototype implements this protocol in its cache controller;
//! the paper's measurements were taken on a uniprocessor system, but the
//! protocol machinery is present and its states occupy two bits of every
//! cache line (the `CS` field of Figure 3.2(b)). The bus side — who
//! issues which transaction, and the `REF` policy's "flush the page from
//! **all** the caches" — lives in the N-CPU `spur_core::SpurSystem`,
//! which drives every peer cache through [`VirtualCache::snoop`].
//!
//! States:
//!
//! * `Invalid` — no data.
//! * `UnOwned` — valid, clean, possibly shared; memory is up to date.
//! * `OwnedExclusive` — dirty, the only cached copy; this cache must
//!   supply data and write back.
//! * `OwnedShared` — dirty but other clean copies exist; this cache is
//!   still responsible for the data.
//!
//! Ownership (the responsibility to supply data and eventually write back)
//! moves with write activity; invalidation happens on writes by others.

use core::fmt;

use spur_types::BlockNum;

use crate::cache::VirtualCache;

/// The two-bit coherency state of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoherencyState {
    /// No valid data.
    #[default]
    Invalid,
    /// Valid, clean, possibly shared.
    UnOwned,
    /// Dirty and exclusively held: writes may proceed without bus traffic.
    OwnedExclusive,
    /// Dirty but shared: a write must invalidate other copies first.
    OwnedShared,
}

impl CoherencyState {
    /// Encodes the state into the two `CS` bits.
    pub(crate) const fn bits(self) -> u8 {
        match self {
            CoherencyState::Invalid => 0,
            CoherencyState::UnOwned => 1,
            CoherencyState::OwnedExclusive => 2,
            CoherencyState::OwnedShared => 3,
        }
    }

    /// Is this cache the owner (responsible for supplying data)?
    pub const fn is_owner(self) -> bool {
        matches!(
            self,
            CoherencyState::OwnedExclusive | CoherencyState::OwnedShared
        )
    }
}

impl fmt::Display for CoherencyState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CoherencyState::Invalid => "INV",
            CoherencyState::UnOwned => "UNO",
            CoherencyState::OwnedExclusive => "OWN-X",
            CoherencyState::OwnedShared => "OWN-S",
        };
        f.write_str(s)
    }
}

/// A snoop message delivered to one cache when a peer's transaction
/// appears on the bus.
///
/// This is the coherence interface a cache exposes to the interconnect:
/// the multiprocessor `SpurSystem` drives its peers' caches through
/// [`VirtualCache::snoop`] rather than reaching into lines directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceMsg {
    /// A peer issued a read for a shared copy: an owner must supply the
    /// data and downgrade to [`CoherencyState::OwnedShared`].
    ReadShared(BlockNum),
    /// A peer is about to write the block (a write for invalidation on
    /// a write hit, the invalidating half of a read-for-ownership on a
    /// write miss): any copy must be invalidated.
    WriteForInvalidation(BlockNum),
}

impl CoherenceMsg {
    /// The block the message is about.
    pub fn block(self) -> BlockNum {
        match self {
            CoherenceMsg::ReadShared(b) | CoherenceMsg::WriteForInvalidation(b) => b,
        }
    }
}

/// What a cache did in response to a snooped [`CoherenceMsg`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnoopResponse {
    /// The cache held the block at all (its tag matched). `false`
    /// means the snoop was a complete no-op — the signal a snoop
    /// filter uses to retire a stale presence bit.
    pub matched: bool,
    /// The cache owned the block and supplied the data (instead of
    /// memory).
    pub supplied: bool,
    /// The cache invalidated its copy.
    pub invalidated: bool,
}

impl VirtualCache {
    /// Applies one snooped coherence message, returning what this cache
    /// did. A cache not holding the block does nothing.
    ///
    /// Invalidation through this interface never writes back: under
    /// Berkeley ownership the requester receives the owner's data with
    /// the transaction itself, so the dirty copy leaves the cache on
    /// the bus, not through memory.
    pub fn snoop(&mut self, msg: CoherenceMsg) -> SnoopResponse {
        let mut resp = SnoopResponse::default();
        let Some(idx) = self.find(msg.block()) else {
            return resp;
        };
        resp.matched = true;
        let line = self.line_mut(idx);
        match msg {
            CoherenceMsg::ReadShared(_) => {
                if line.state.is_owner() {
                    line.state = CoherencyState::OwnedShared;
                    resp.supplied = true;
                }
            }
            CoherenceMsg::WriteForInvalidation(_) => {
                line.valid = false;
                line.state = CoherencyState::Invalid;
                resp.invalidated = true;
            }
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_types::{GlobalAddr, Protection};

    const RW: Protection = Protection::ReadWrite;

    #[test]
    fn snoop_on_absent_block_does_nothing() {
        let mut c = VirtualCache::prototype();
        let b = GlobalAddr::new(0x2000).block();
        assert_eq!(
            c.snoop(CoherenceMsg::ReadShared(b)),
            SnoopResponse::default()
        );
        assert_eq!(
            c.snoop(CoherenceMsg::WriteForInvalidation(b)),
            SnoopResponse::default()
        );
    }

    #[test]
    fn snoop_read_shared_downgrades_only_owners() {
        let a = GlobalAddr::new(0x2000);
        let mut owner = VirtualCache::prototype();
        owner.fill_for_write(a, RW, false);
        let resp = owner.snoop(CoherenceMsg::ReadShared(a.block()));
        assert!(resp.supplied && !resp.invalidated);
        assert_eq!(
            owner.line(owner.probe(a).index).state,
            CoherencyState::OwnedShared
        );

        let mut sharer = VirtualCache::prototype();
        sharer.fill_for_read(a, RW, false);
        let resp = sharer.snoop(CoherenceMsg::ReadShared(a.block()));
        assert!(
            resp.matched && !resp.supplied && !resp.invalidated,
            "UnOwned copy stays put"
        );
        assert!(sharer.probe(a).hit);
    }

    #[test]
    fn snoop_write_invalidation_never_claims_supply() {
        let a = GlobalAddr::new(0x2000);
        let mut owner = VirtualCache::prototype();
        owner.fill_for_write(a, RW, false);
        let resp = owner.snoop(CoherenceMsg::WriteForInvalidation(a.block()));
        assert!(!resp.supplied && resp.invalidated);
        assert!(!owner.probe(a).hit);
    }
}
