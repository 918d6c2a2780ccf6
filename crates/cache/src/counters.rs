//! The cache controller's performance counters.
//!
//! The SPUR cache controller contains 16 32-bit counters; a mode register
//! selects one of 4 sets of events to measure (Section 2). The prototype's
//! counters are what made the paper possible: "these on-chip counters give
//! us the opportunity to re-evaluate our decisions with more complete
//! information."
//!
//! This module reproduces that observability surface:
//!
//! * the **architectural** view — 16 wrapping 32-bit registers counting
//!   only the event set selected by the mode register, exactly like the
//!   hardware;
//! * a **promiscuous** mode (simulator convenience) that additionally
//!   accumulates 64-bit shadow totals for *all* event sets in one run.
//!   The paper achieved the same effect by re-running its deterministic
//!   workloads once per mode; promiscuous mode spares the repetition
//!   without changing any counted value (the workloads are deterministic
//!   either way).

use core::fmt;

/// The four event sets selectable by the mode register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CounterMode {
    /// Processor references and cache misses by type.
    #[default]
    References,
    /// In-cache translation performance.
    Translation,
    /// Virtual-memory events (faults, dirty-bit misses, paging).
    VirtualMemory,
    /// Berkeley Ownership bus traffic.
    Coherency,
}

impl CounterMode {
    /// All four modes in register order.
    pub const ALL: [CounterMode; 4] = [
        CounterMode::References,
        CounterMode::Translation,
        CounterMode::VirtualMemory,
        CounterMode::Coherency,
    ];

    fn index(self) -> usize {
        match self {
            CounterMode::References => 0,
            CounterMode::Translation => 1,
            CounterMode::VirtualMemory => 2,
            CounterMode::Coherency => 3,
        }
    }
}

impl CounterMode {
    /// The events wired to this mode's counter slots, in slot order.
    ///
    /// The wiring is fixed at design time, so the listings are `const`
    /// slices — callers on hot paths (and `dump()`, which walks all
    /// four modes) pay no allocation or sort.
    pub fn events(self) -> &'static [CounterEvent] {
        use CounterEvent::*;
        const REFERENCES: &[CounterEvent] = &[
            IFetch, Read, Write, IFetchMiss, ReadMiss, WriteMiss, Fill, Eviction, Writeback,
        ];
        const TRANSLATION: &[CounterEvent] = &[
            PteProbe,
            PteCacheHit,
            PteCacheMiss,
            SecondLevelFetch,
            PteFill,
        ];
        const VIRTUAL_MEMORY: &[CounterEvent] = &[
            DirtyFault,
            ExcessFault,
            DirtyBitMiss,
            RefFault,
            ProtFault,
            ZeroFill,
            PageIn,
            PageOut,
            DaemonScan,
            PageFlush,
            SoftFault,
        ];
        const COHERENCY: &[CounterEvent] = &[
            BusReadShared,
            BusReadForOwnership,
            BusWriteInvalidate,
            BusWriteBack,
            OwnerSupply,
            Invalidation,
        ];
        match self {
            CounterMode::References => REFERENCES,
            CounterMode::Translation => TRANSLATION,
            CounterMode::VirtualMemory => VIRTUAL_MEMORY,
            CounterMode::Coherency => COHERENCY,
        }
    }
}

impl fmt::Display for CounterMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CounterMode::References => "references",
            CounterMode::Translation => "translation",
            CounterMode::VirtualMemory => "virtual-memory",
            CounterMode::Coherency => "coherency",
        };
        f.write_str(s)
    }
}

/// Countable events, each assigned to one mode's set and one of the 16
/// counter slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CounterEvent {
    // --- References set ---
    /// Instruction fetch issued.
    IFetch,
    /// Processor data read issued.
    Read,
    /// Processor data write issued.
    Write,
    /// Instruction fetch missed in the cache.
    IFetchMiss,
    /// Data read missed in the cache.
    ReadMiss,
    /// Data write missed in the cache.
    WriteMiss,
    /// Block filled into the cache.
    Fill,
    /// Valid block displaced by a fill.
    Eviction,
    /// Dirty block written back to memory.
    Writeback,

    // --- Translation set ---
    /// In-cache translation attempted (cache probed for a PTE).
    PteProbe,
    /// The PTE was found in the cache.
    PteCacheHit,
    /// The PTE missed in the cache.
    PteCacheMiss,
    /// A second-level (wired) page-table fetch was needed.
    SecondLevelFetch,
    /// A PTE block was filled into the cache, competing with data.
    PteFill,

    // --- Virtual-memory set ---
    /// Necessary dirty-bit fault (first write to a page), `N_ds`.
    DirtyFault,
    /// Excess fault on a previously cached block (`FAULT` emulation),
    /// `N_ef`.
    ExcessFault,
    /// Dirty-bit miss (SPUR refreshes a stale cached page-dirty copy),
    /// `N_dm`.
    DirtyBitMiss,
    /// Reference-bit fault (software sets R).
    RefFault,
    /// True protection violation.
    ProtFault,
    /// Zero-fill-on-demand fault, `N_zfod`.
    ZeroFill,
    /// Page brought in from backing store.
    PageIn,
    /// Dirty page queued for write to backing store.
    PageOut,
    /// Page daemon examined one resident page.
    DaemonScan,
    /// Page flushed from the cache (REF/FLUSH policies).
    PageFlush,
    /// Page reclaimed from the free list without I/O (soft fault).
    SoftFault,

    // --- Coherency set ---
    /// `ReadShared` bus transaction.
    BusReadShared,
    /// `ReadForOwnership` bus transaction.
    BusReadForOwnership,
    /// `WriteForInvalidation` bus transaction.
    BusWriteInvalidate,
    /// Write-back bus transaction.
    BusWriteBack,
    /// An owning cache supplied data.
    OwnerSupply,
    /// A snooping cache invalidated its copy.
    Invalidation,
}

impl CounterEvent {
    /// The mode set and slot this event is wired to.
    pub const fn mode_slot(self) -> (CounterMode, usize) {
        use CounterEvent::*;
        use CounterMode::*;
        match self {
            IFetch => (References, 0),
            Read => (References, 1),
            Write => (References, 2),
            IFetchMiss => (References, 3),
            ReadMiss => (References, 4),
            WriteMiss => (References, 5),
            Fill => (References, 6),
            Eviction => (References, 7),
            Writeback => (References, 8),

            PteProbe => (Translation, 0),
            PteCacheHit => (Translation, 1),
            PteCacheMiss => (Translation, 2),
            SecondLevelFetch => (Translation, 3),
            PteFill => (Translation, 4),

            DirtyFault => (VirtualMemory, 0),
            ExcessFault => (VirtualMemory, 1),
            DirtyBitMiss => (VirtualMemory, 2),
            RefFault => (VirtualMemory, 3),
            ProtFault => (VirtualMemory, 4),
            ZeroFill => (VirtualMemory, 5),
            PageIn => (VirtualMemory, 6),
            PageOut => (VirtualMemory, 7),
            DaemonScan => (VirtualMemory, 8),
            PageFlush => (VirtualMemory, 9),
            SoftFault => (VirtualMemory, 10),

            BusReadShared => (Coherency, 0),
            BusReadForOwnership => (Coherency, 1),
            BusWriteInvalidate => (Coherency, 2),
            BusWriteBack => (Coherency, 3),
            OwnerSupply => (Coherency, 4),
            Invalidation => (Coherency, 5),
        }
    }
}

impl fmt::Display for CounterEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The 16 × 32-bit counter bank with its mode register.
///
/// ```
/// use spur_cache::counters::{CounterEvent, CounterMode, PerfCounters};
///
/// let mut pc = PerfCounters::promiscuous();
/// pc.record(CounterEvent::Read);
/// pc.record(CounterEvent::DirtyFault);
/// assert_eq!(pc.total(CounterEvent::Read), 1);
/// assert_eq!(pc.total(CounterEvent::DirtyFault), 1);
///
/// // The architectural registers only see the selected mode:
/// assert_eq!(pc.mode(), CounterMode::References);
/// assert_eq!(pc.read_slot(1), 1); // Read is slot 1 of the References set
/// ```
#[derive(Debug, Clone)]
pub struct PerfCounters {
    mode: CounterMode,
    slots: [u32; 16],
    promiscuous: bool,
    wide: [[u64; 16]; 4],
}

impl PerfCounters {
    /// Hardware-faithful counters: only the selected mode's events count.
    pub fn new(mode: CounterMode) -> Self {
        PerfCounters {
            mode,
            slots: [0; 16],
            promiscuous: false,
            wide: [[0; 16]; 4],
        }
    }

    /// Simulator-convenience counters: 64-bit shadow totals accumulate for
    /// every mode simultaneously; the architectural registers still follow
    /// the mode register.
    pub fn promiscuous() -> Self {
        PerfCounters {
            mode: CounterMode::References,
            slots: [0; 16],
            promiscuous: true,
            wide: [[0; 16]; 4],
        }
    }

    /// The current mode register value.
    pub fn mode(&self) -> CounterMode {
        self.mode
    }

    /// Records one occurrence of `event`.
    pub fn record(&mut self, event: CounterEvent) {
        self.record_n(event, 1);
    }

    /// Records `n` occurrences of `event`.
    pub fn record_n(&mut self, event: CounterEvent, n: u64) {
        let (mode, slot) = event.mode_slot();
        if self.promiscuous || mode == self.mode {
            self.wide[mode.index()][slot] += n;
        }
        if mode == self.mode {
            self.slots[slot] = self.slots[slot].wrapping_add(n as u32);
        }
    }

    /// Reads architectural register `slot` (wrapping 32-bit, current mode's
    /// set).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 16`.
    pub fn read_slot(&self, slot: usize) -> u32 {
        assert!(slot < 16, "there are 16 counters");
        self.slots[slot]
    }

    /// Reads the 64-bit shadow total for `event`.
    ///
    /// In hardware-faithful mode this is only nonzero for events in modes
    /// that were selected while the events occurred.
    pub fn total(&self, event: CounterEvent) -> u64 {
        let (mode, slot) = event.mode_slot();
        self.wide[mode.index()][slot]
    }
}

impl PerfCounters {
    /// Renders every mode's slot wiring and current totals — the view a
    /// diagnostic monitor program (the paper's workloads included two!)
    /// would print.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for mode in CounterMode::ALL {
            out.push_str(&format!(
                "mode {mode}{}:\n",
                if mode == self.mode { " (selected)" } else { "" }
            ));
            for (slot, event) in mode.events().iter().copied().enumerate() {
                out.push_str(&format!(
                    "  [{slot:>2}] {:<22} {:>12}\n",
                    event.to_string(),
                    self.total(event)
                ));
            }
        }
        out
    }
}

impl Default for PerfCounters {
    fn default() -> Self {
        Self::promiscuous()
    }
}

impl fmt::Display for PerfCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "counters[mode={}, slots={:?}]",
            self.mode,
            &self.slots[..8]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_has_a_unique_mode_slot() {
        use CounterEvent::*;
        let all = [
            IFetch,
            Read,
            Write,
            IFetchMiss,
            ReadMiss,
            WriteMiss,
            Fill,
            Eviction,
            Writeback,
            PteProbe,
            PteCacheHit,
            PteCacheMiss,
            SecondLevelFetch,
            PteFill,
            DirtyFault,
            ExcessFault,
            DirtyBitMiss,
            RefFault,
            ProtFault,
            ZeroFill,
            PageIn,
            PageOut,
            DaemonScan,
            PageFlush,
            SoftFault,
            BusReadShared,
            BusReadForOwnership,
            BusWriteInvalidate,
            BusWriteBack,
            OwnerSupply,
            Invalidation,
        ];
        let mut seen = std::collections::HashSet::new();
        for e in all {
            let (mode, slot) = e.mode_slot();
            assert!(slot < 16, "{e}: slot out of range");
            assert!(seen.insert((mode.index(), slot)), "{e}: duplicate slot");
        }
    }

    #[test]
    fn hardware_mode_only_counts_selected_set() {
        let mut pc = PerfCounters::new(CounterMode::References);
        pc.record(CounterEvent::Read);
        pc.record(CounterEvent::DirtyFault); // not in the selected set
        assert_eq!(pc.total(CounterEvent::Read), 1);
        assert_eq!(pc.total(CounterEvent::DirtyFault), 0);
    }

    #[test]
    fn promiscuous_mode_counts_everything() {
        let mut pc = PerfCounters::promiscuous();
        pc.record(CounterEvent::Read);
        pc.record(CounterEvent::DirtyFault);
        pc.record(CounterEvent::BusReadShared);
        assert_eq!(pc.total(CounterEvent::Read), 1);
        assert_eq!(pc.total(CounterEvent::DirtyFault), 1);
        assert_eq!(pc.total(CounterEvent::BusReadShared), 1);
    }

    #[test]
    fn architectural_registers_wrap_at_32_bits() {
        let mut pc = PerfCounters::new(CounterMode::References);
        pc.record_n(CounterEvent::IFetch, (1u64 << 32) + 5);
        assert_eq!(pc.read_slot(0), 5, "32-bit register wraps");
        assert_eq!(pc.total(CounterEvent::IFetch), (1u64 << 32) + 5);
    }

    #[test]
    #[should_panic(expected = "16 counters")]
    fn slot_out_of_range_panics() {
        let pc = PerfCounters::promiscuous();
        let _ = pc.read_slot(16);
    }

    #[test]
    fn mode_event_listings_are_dense_from_slot_zero() {
        for mode in CounterMode::ALL {
            let events = mode.events();
            assert!(!events.is_empty(), "{mode} has no events");
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.mode_slot(), (mode, i), "{mode} slot {i}");
            }
        }
    }

    #[test]
    fn dump_lists_every_wired_event() {
        let mut pc = PerfCounters::promiscuous();
        pc.record(CounterEvent::DirtyFault);
        let text = pc.dump();
        assert!(text.contains("DirtyFault"));
        assert!(text.contains("(selected)"));
        for mode in CounterMode::ALL {
            assert!(text.contains(&format!("mode {mode}")));
        }
    }
}
