//! The `Recorder` trait, its zero-cost no-op, and the ring-buffered
//! trace recorder.

use crate::event::{EventKind, SimEvent};

/// A sink for simulator events.
///
/// Hot paths take `&mut dyn Recorder` and call [`Recorder::emit`]
/// unconditionally; the no-op implementation is an empty inlineable
/// method, so an uninstrumented run pays nothing beyond a virtual call
/// on paths that already cost hundreds of simulated cycles. Emitters
/// that must do real work to *build* an event (e.g. compute a cost
/// delta) can guard it with [`Recorder::enabled`].
pub trait Recorder {
    /// Whether events are being kept. Default: no.
    fn enabled(&self) -> bool {
        false
    }

    /// Record one event. Default: drop it.
    fn emit(&mut self, _event: SimEvent) {}
}

/// The zero-cost default recorder: keeps nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// An append-only batch of events, drained into a [`TraceRecorder`] in
/// exact emission order.
///
/// The system keeps one persistent buffer, points `cpu` at the CPU
/// driving the reference in flight, and lower layers emit into it
/// through `&mut dyn Recorder` exactly as they would into the ring.
/// The system drains the buffer into its `TraceRecorder` once per batch
/// (and before any read), so ring contents, per-kind counts, and drop
/// accounting are byte-identical to unbatched emission — batching is
/// visible only in speed.
#[derive(Debug, Default)]
pub struct EventBuf {
    events: Vec<SimEvent>,
    /// Stamp applied to events arriving through [`Recorder::emit`].
    /// Events appended with [`EventBuf::push`] keep their own stamp.
    pub cpu: u32,
}

impl EventBuf {
    /// Appends an already-stamped event.
    #[inline]
    pub fn push(&mut self, event: SimEvent) {
        self.events.push(event);
    }

    /// Number of buffered (unflushed) events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains every buffered event into `recorder`, oldest first.
    pub fn flush_into(&mut self, recorder: &mut TraceRecorder) {
        for event in self.events.drain(..) {
            recorder.emit(event);
        }
    }
}

impl Recorder for EventBuf {
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn emit(&mut self, mut event: SimEvent) {
        event.cpu = self.cpu;
        self.events.push(event);
    }
}

/// A recorder backed by a bounded ring buffer.
///
/// Two books are kept separately:
///
/// * the **ring** holds the most recent `capacity` events, for export
///   as a Chrome trace (bounding memory on billion-reference runs);
/// * the **per-kind counts** tally every emitted event, ring or not,
///   so trace↔counter reconciliation is exact even after the ring has
///   wrapped.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    ring: Vec<SimEvent>,
    capacity: usize,
    /// Next write position in the ring once it is full.
    head: usize,
    /// Total events emitted per kind, indexed by `EventKind as usize`.
    counts: [u64; EventKind::COUNT],
    /// Events that fell off the ring (emitted - retained).
    dropped: u64,
}

impl TraceRecorder {
    /// Default ring capacity: enough to hold every event of a quick
    /// cell and the recent tail of a long one.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a recorder retaining at most `capacity` events
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            ring: Vec::new(),
            capacity,
            head: 0,
            counts: [0; EventKind::COUNT],
            dropped: 0,
        }
    }

    /// Total events emitted for `kind`, including any dropped from the
    /// ring. This is the number reconciled against `PerfCounters`.
    pub fn emitted(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total events emitted across all kinds.
    pub fn emitted_total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Events that fell off the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring's capacity: the most recent events a reader can pull
    /// back with [`TraceRecorder::tail`].
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The `k` most recent retained events, oldest first.
    ///
    /// This is the lockstep-subscriber read: a checker snapshots
    /// [`TraceRecorder::emitted_total`] before and after one simulated
    /// step and pulls exactly the delta back, without cloning the whole
    /// ring. `k` beyond the retained count is clamped; asking for more
    /// than [`TraceRecorder::capacity`] events therefore silently
    /// under-reads, so lockstep callers must size the ring for their
    /// largest step.
    pub fn tail(&self, k: usize) -> Vec<SimEvent> {
        let n = self.ring.len();
        let k = k.min(n);
        if n < self.capacity {
            return self.ring[n - k..].to_vec();
        }
        // Wrapped: chronological order starts at `head`; the last `k`
        // events start `k` slots before it, modulo the ring.
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            out.push(self.ring[(self.head + self.capacity - k + i) % self.capacity]);
        }
        out
    }

    /// Retained events, oldest first (unwrapping the ring).
    pub fn events(&self) -> Vec<SimEvent> {
        self.iter().copied().collect()
    }

    /// Iterates the retained events oldest first, without copying the
    /// ring. `head` stays 0 until the ring fills, so the split is a
    /// no-op before the first wrap.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &SimEvent> {
        self.ring[self.head..].iter().chain(&self.ring[..self.head])
    }

    /// `[first start, last end]` in simulated cycles over the retained
    /// events' `SimEvent::extent`s; `None` when nothing is retained.
    /// This is the slice of simulated time an exported trace covers.
    pub fn cycle_bounds(&self) -> Option<(u64, u64)> {
        self.iter()
            .map(SimEvent::extent)
            .fold(None, |bounds, (ts, dur)| {
                let end = ts.saturating_add(dur);
                Some(match bounds {
                    None => (ts, end),
                    Some((lo, hi)) => (lo.min(ts), hi.max(end)),
                })
            })
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: SimEvent) {
        self.counts[event.kind as usize] += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(event);
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, cycle: u64) -> SimEvent {
        SimEvent {
            kind,
            cycle,
            page: 7,
            cost: 10,
            cpu: 0,
        }
    }

    #[test]
    fn noop_recorder_is_disabled_and_zero_sized() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.emit(ev(EventKind::PageIn, 1));
        assert_eq!(core::mem::size_of::<NoopRecorder>(), 0);
    }

    #[test]
    fn events_come_back_in_emission_order() {
        let mut r = TraceRecorder::new(8);
        for c in 0..5 {
            r.emit(ev(EventKind::ReadMiss, c));
        }
        let got: Vec<u64> = r.events().iter().map(|e| e.cycle).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_wraps_keeping_newest_and_counting_drops() {
        let mut r = TraceRecorder::new(4);
        for c in 0..10 {
            r.emit(ev(EventKind::PageOut, c));
        }
        let got: Vec<u64> = r.events().iter().map(|e| e.cycle).collect();
        assert_eq!(got, vec![6, 7, 8, 9], "oldest-first after wrap");
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.emitted(EventKind::PageOut), 10, "counts survive drops");
        assert_eq!(r.emitted_total(), 10);
    }

    #[test]
    fn per_kind_counts_are_independent() {
        let mut r = TraceRecorder::new(16);
        r.emit(ev(EventKind::DirtyFault, 1));
        r.emit(ev(EventKind::DirtyFault, 2));
        r.emit(ev(EventKind::SoftFault, 3));
        assert_eq!(r.emitted(EventKind::DirtyFault), 2);
        assert_eq!(r.emitted(EventKind::SoftFault), 1);
        assert_eq!(r.emitted(EventKind::PageIn), 0);
    }

    #[test]
    fn tail_reads_the_delta_without_wrap() {
        let mut r = TraceRecorder::new(8);
        for c in 0..5 {
            r.emit(ev(EventKind::ReadMiss, c));
        }
        let got: Vec<u64> = r.tail(2).iter().map(|e| e.cycle).collect();
        assert_eq!(got, vec![3, 4]);
        assert_eq!(r.tail(0), vec![]);
        let all: Vec<u64> = r.tail(99).iter().map(|e| e.cycle).collect();
        assert_eq!(all, vec![0, 1, 2, 3, 4], "over-asking clamps");
    }

    #[test]
    fn tail_reads_across_the_wrap_point() {
        let mut r = TraceRecorder::new(4);
        for c in 0..10 {
            r.emit(ev(EventKind::PageOut, c));
        }
        let got: Vec<u64> = r.tail(3).iter().map(|e| e.cycle).collect();
        assert_eq!(got, vec![7, 8, 9]);
        assert_eq!(r.tail(4).len(), 4);
        assert_eq!(r.tail(9).len(), 4, "only capacity events are retained");
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn tail_matches_events_suffix_at_every_fill_level() {
        let mut r = TraceRecorder::new(6);
        for c in 0..20 {
            r.emit(ev(EventKind::DaemonScan, c));
            for k in 0..=r.len() {
                let suffix = r.events()[r.len() - k..].to_vec();
                assert_eq!(r.tail(k), suffix, "after {} emits, k={}", c + 1, k);
            }
        }
    }

    #[test]
    fn event_buf_stamps_cpu() {
        let mut buf = EventBuf {
            cpu: 5,
            ..Default::default()
        };
        buf.emit(ev(EventKind::PageIn, 1));
        buf.cpu = 2;
        buf.emit(ev(EventKind::PageOut, 2));
        let mut pushed = ev(EventKind::ReadMiss, 3);
        pushed.cpu = 9;
        buf.push(pushed);
        let mut rec = TraceRecorder::new(8);
        buf.flush_into(&mut rec);
        assert!(buf.is_empty());
        let cpus: Vec<u32> = rec.events().iter().map(|e| e.cpu).collect();
        assert_eq!(cpus, vec![5, 2, 9], "emit stamps, push preserves");
    }

    #[test]
    fn batched_buffer_matches_direct_emission_exactly() {
        // Property: for a pseudo-random event stream flushed at
        // pseudo-random points, the batched recorder is
        // indistinguishable from direct emission — same retained
        // events in the same order, same per-kind counts, same drop
        // accounting — at every ring capacity (unwrapped, wrapping,
        // and pathologically tiny).
        let mut state = 0x1989_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for capacity in [1, 4, 64, 1 << 12] {
            let mut direct = TraceRecorder::new(capacity);
            let mut batched = TraceRecorder::new(capacity);
            let mut buf = EventBuf::default();
            for cycle in 0..10_000u64 {
                let kind = EventKind::ALL[(rng() % EventKind::ALL.len() as u64) as usize];
                let event = SimEvent {
                    kind,
                    cycle,
                    page: rng() % 512,
                    cost: rng() % 100,
                    cpu: (rng() % 8) as u32,
                };
                direct.emit(event);
                buf.push(event);
                if rng() % 7 == 0 {
                    buf.flush_into(&mut batched);
                }
            }
            buf.flush_into(&mut batched);
            assert_eq!(
                direct.events(),
                batched.events(),
                "retained events diverge at capacity {capacity}"
            );
            assert_eq!(direct.emitted_total(), batched.emitted_total());
            assert_eq!(direct.dropped(), batched.dropped());
            for kind in EventKind::ALL {
                assert_eq!(direct.emitted(kind), batched.emitted(kind), "{kind:?}");
            }
        }
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let mut r = TraceRecorder::new(0);
        r.emit(ev(EventKind::ZeroFill, 1));
        r.emit(ev(EventKind::ZeroFill, 2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events()[0].cycle, 2);
        assert_eq!(r.emitted(EventKind::ZeroFill), 2);
    }
}
