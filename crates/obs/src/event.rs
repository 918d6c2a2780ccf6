//! Typed, cycle-timestamped simulator events.

/// The kind of a traced event.
///
/// Each variant corresponds 1:1 (by name) to a `spur-cache`
/// `CounterEvent`, which is what makes trace↔counter reconciliation a
/// mechanical equality check: for every kind traced during a run, the
/// number of trace events must equal the counter total. The mapping
/// lives with the emitters (in `spur-core`), not here — `spur-obs`
/// sits below `spur-cache` in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Instruction fetch missed in the cache.
    IFetchMiss,
    /// Data read missed in the cache.
    ReadMiss,
    /// Data write missed in the cache.
    WriteMiss,
    /// First-level PTE missed in the cache (in-cache translation).
    PteCacheMiss,
    /// The wired second-level page table was consulted.
    SecondLevelFetch,
    /// A necessary first-write fault (the dirty bit had to be set).
    DirtyFault,
    /// An emulation-induced excess fault (policy overhead).
    ExcessFault,
    /// A write hit a cached block whose page-dirty bit was stale.
    DirtyBitMiss,
    /// A reference-bit fault (cleared ref bit trapped a reference).
    RefFault,
    /// A protection fault used to emulate reference/dirty bits.
    ProtFault,
    /// A page was filled with zeroes on first touch.
    ZeroFill,
    /// A page was read in from backing store.
    PageIn,
    /// A dirty page was written out to backing store.
    PageOut,
    /// The clock daemon examined one page.
    DaemonScan,
    /// A page on the free queue was reclaimed without I/O.
    SoftFault,
    /// A page's blocks were flushed from the cache.
    PageFlush,
    /// A bus write invalidated a peer cache's copy of a block.
    CoherenceInvalidate,
    /// An owning cache supplied a block to a reading peer and
    /// downgraded to shared ownership.
    OwnershipTransfer,
}

impl EventKind {
    /// Every kind, in declaration order. `as usize` on a kind indexes
    /// this slice (and the per-kind count arrays built on it).
    pub const ALL: [EventKind; 18] = [
        EventKind::IFetchMiss,
        EventKind::ReadMiss,
        EventKind::WriteMiss,
        EventKind::PteCacheMiss,
        EventKind::SecondLevelFetch,
        EventKind::DirtyFault,
        EventKind::ExcessFault,
        EventKind::DirtyBitMiss,
        EventKind::RefFault,
        EventKind::ProtFault,
        EventKind::ZeroFill,
        EventKind::PageIn,
        EventKind::PageOut,
        EventKind::DaemonScan,
        EventKind::SoftFault,
        EventKind::PageFlush,
        EventKind::CoherenceInvalidate,
        EventKind::OwnershipTransfer,
    ];

    /// Number of kinds (the length of [`EventKind::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// The original uniprocessor kinds, in declaration order. Metrics
    /// artifacts always report these; the coherence kinds that follow
    /// them in [`EventKind::ALL`] only appear when they actually fired,
    /// which keeps uniprocessor artifacts byte-identical to runs
    /// predating the multiprocessor work.
    pub const CORE: [EventKind; 16] = [
        EventKind::IFetchMiss,
        EventKind::ReadMiss,
        EventKind::WriteMiss,
        EventKind::PteCacheMiss,
        EventKind::SecondLevelFetch,
        EventKind::DirtyFault,
        EventKind::ExcessFault,
        EventKind::DirtyBitMiss,
        EventKind::RefFault,
        EventKind::ProtFault,
        EventKind::ZeroFill,
        EventKind::PageIn,
        EventKind::PageOut,
        EventKind::DaemonScan,
        EventKind::SoftFault,
        EventKind::PageFlush,
    ];

    /// Stable name, matching the `CounterEvent` variant it reconciles
    /// against. Used as the Chrome-trace event name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::IFetchMiss => "IFetchMiss",
            EventKind::ReadMiss => "ReadMiss",
            EventKind::WriteMiss => "WriteMiss",
            EventKind::PteCacheMiss => "PteCacheMiss",
            EventKind::SecondLevelFetch => "SecondLevelFetch",
            EventKind::DirtyFault => "DirtyFault",
            EventKind::ExcessFault => "ExcessFault",
            EventKind::DirtyBitMiss => "DirtyBitMiss",
            EventKind::RefFault => "RefFault",
            EventKind::ProtFault => "ProtFault",
            EventKind::ZeroFill => "ZeroFill",
            EventKind::PageIn => "PageIn",
            EventKind::PageOut => "PageOut",
            EventKind::DaemonScan => "DaemonScan",
            EventKind::SoftFault => "SoftFault",
            EventKind::PageFlush => "PageFlush",
            EventKind::CoherenceInvalidate => "CoherenceInvalidate",
            EventKind::OwnershipTransfer => "OwnershipTransfer",
        }
    }

    /// The Chrome-trace category, grouping related kinds into Perfetto
    /// tracks-by-category: cache misses, translation, dirty/ref-bit
    /// emulation faults, and VM paging activity.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::IFetchMiss | EventKind::ReadMiss | EventKind::WriteMiss => "miss",
            EventKind::PteCacheMiss | EventKind::SecondLevelFetch => "translate",
            EventKind::DirtyFault
            | EventKind::ExcessFault
            | EventKind::DirtyBitMiss
            | EventKind::RefFault
            | EventKind::ProtFault => "fault",
            EventKind::ZeroFill
            | EventKind::PageIn
            | EventKind::PageOut
            | EventKind::DaemonScan
            | EventKind::SoftFault
            | EventKind::PageFlush => "vm",
            EventKind::CoherenceInvalidate | EventKind::OwnershipTransfer => "coherence",
        }
    }
}

/// One traced event: what happened, to which page, when, and how many
/// cycles it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimEvent {
    /// What happened.
    pub kind: EventKind,
    /// Simulated cycle at which the event *completed* (the clock after
    /// its cost was charged). Timestamps are simulated time, so traces
    /// are pure functions of cell inputs.
    pub cycle: u64,
    /// The virtual page number involved, or 0 when no single page is
    /// meaningful.
    pub page: u64,
    /// Cycles the event cost (0 for zero-cost bookkeeping events).
    pub cost: u64,
    /// The simulated CPU the event happened on (0 on a uniprocessor).
    /// For coherence events this is the *peer* CPU whose cache was
    /// invalidated or supplied the data, not the requester.
    pub cpu: u32,
}

impl SimEvent {
    /// Where the event sits on a trace timeline, as `(start, duration)`
    /// in cycles: it starts `cost` cycles before it completed
    /// (saturating at 0), and lasts at least one cycle so zero-cost
    /// bookkeeping events stay visible.
    pub fn extent(&self) -> (u64, u64) {
        (self.cycle.saturating_sub(self.cost), self.cost.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_kind_in_index_order() {
        assert_eq!(EventKind::ALL.len(), EventKind::COUNT);
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{} out of order", kind.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::COUNT);
    }

    #[test]
    fn every_kind_has_a_category() {
        for kind in EventKind::ALL {
            assert!(!kind.category().is_empty());
        }
    }

    #[test]
    fn core_is_the_uniprocessor_prefix_of_all() {
        assert_eq!(&EventKind::ALL[..EventKind::CORE.len()], &EventKind::CORE);
        for kind in &EventKind::ALL[EventKind::CORE.len()..] {
            assert_eq!(kind.category(), "coherence");
        }
    }
}
