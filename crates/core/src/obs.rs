//! System-level observability: the [`SpurSystem`] side of `spur-obs`.
//!
//! [`crate::system::SpurSystem`] owns at most one `SystemObs` bundle.
//! When absent (the default), every instrumentation site collapses to a
//! branch on `Option::None` and the simulator behaves — and costs —
//! exactly as it did before observability existed. When present, the
//! simulator emits one [`spur_obs::SimEvent`] per counted event, samples
//! per-epoch counter deltas, and grows the paper's three distribution
//! views:
//!
//! * inter-fault distance (references between successive dirty faults),
//! * fault-handling cost (cycles charged per fault event),
//! * writes per residency (writes a page absorbed before reclaim).
//!
//! Recording never feeds back into simulation: timestamps are simulated
//! cycles, and the trace content is a pure function of the reference
//! stream and configuration.
//!
//! [`SpurSystem`]: crate::system::SpurSystem

use spur_harness::Json;
use spur_types::FastMap;

use spur_obs::{
    histogram_json, series_json, EpochSeries, EventBuf, EventKind, Histogram, TraceRecorder,
};

/// The counter columns sampled into every epoch row, in order.
pub(crate) const EPOCH_COLUMNS: [&str; 12] = [
    "misses",
    "dirty_faults",
    "excess_faults",
    "dirty_bit_misses",
    "ref_faults",
    "zero_fills",
    "page_ins",
    "page_outs",
    "daemon_scans",
    "soft_faults",
    "page_flushes",
    "cycles",
];

/// Observability knobs, chosen before the run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsParams {
    /// Sample an epoch row every this many references. `None` disables
    /// the time series (tracing and histograms still run).
    pub epoch: Option<u64>,
    /// Trace ring capacity in events. Per-kind counts keep exact totals
    /// even after the ring wraps.
    pub trace_capacity: usize,
    /// Events buffered before an automatic flush into the trace ring.
    /// Emission order is preserved exactly and every reader
    /// (`obs_tail`, `obs_emitted_total`, `finish_obs`) flushes first,
    /// so batching is never visible in results — only in speed. `1`
    /// disables batching (each event lands in the ring immediately).
    pub batch: usize,
}

impl ObsParams {
    /// Default flush batch: one scheduler epoch's worth of references.
    pub const DEFAULT_BATCH: usize = 4096;
}

impl Default for ObsParams {
    fn default() -> Self {
        ObsParams {
            epoch: None,
            trace_capacity: TraceRecorder::DEFAULT_CAPACITY,
            batch: Self::DEFAULT_BATCH,
        }
    }
}

/// Live observability state carried by a running system.
#[derive(Debug)]
pub(crate) struct SystemObs {
    pub(crate) recorder: TraceRecorder,
    /// Pending events not yet drained into the ring; see
    /// [`ObsParams::batch`].
    pub(crate) buf: EventBuf,
    /// Buffered events that trigger an automatic flush (≥ 1).
    pub(crate) batch: usize,
    pub(crate) series: Option<EpochSeries>,
    pub(crate) fault_gap: Histogram,
    pub(crate) fault_cost: Histogram,
    pub(crate) residency_writes: Histogram,
    /// Writes absorbed by each currently resident page.
    pub(crate) page_writes: FastMap<u64, u64>,
    /// Reference index of the most recent fault-category event.
    pub(crate) last_fault_ref: Option<u64>,
}

impl SystemObs {
    pub(crate) fn new(params: ObsParams) -> Self {
        SystemObs {
            recorder: TraceRecorder::new(params.trace_capacity),
            buf: EventBuf::default(),
            batch: params.batch.max(1),
            series: params.epoch.map(|n| {
                EpochSeries::new(n, EPOCH_COLUMNS.iter().map(|c| c.to_string()).collect())
            }),
            fault_gap: Histogram::new("inter_fault_refs"),
            fault_cost: Histogram::new("fault_cost_cycles"),
            residency_writes: Histogram::new("writes_per_residency"),
            page_writes: FastMap::default(),
            last_fault_ref: None,
        }
    }

    /// Drains every buffered event into the trace ring, oldest first.
    pub(crate) fn flush_events(&mut self) {
        self.buf.flush_into(&mut self.recorder);
    }

    /// Notes fault-distribution samples for a fault-category event.
    pub(crate) fn note_fault(&mut self, ref_index: u64, cost: u64) {
        if let Some(last) = self.last_fault_ref {
            self.fault_gap.record(ref_index.saturating_sub(last));
        }
        self.last_fault_ref = Some(ref_index);
        self.fault_cost.record(cost);
    }

    /// Closes the residency histogram for pages reclaimed by the VM.
    pub(crate) fn note_reclaims(&mut self, reclaimed: &[u64]) {
        for &page in reclaimed {
            let writes = self.page_writes.remove(&page).unwrap_or(0);
            self.residency_writes.record(writes);
        }
    }

    /// Finalizes the bundle into a report: flushes the partial epoch and
    /// closes the histograms for pages still resident at end of run.
    pub(crate) fn finish(mut self, end_ref: u64, totals: &[u64]) -> ObsReport {
        self.flush_events();
        if let Some(series) = self.series.as_mut() {
            series.flush(end_ref, totals);
        }
        let mut still_resident: Vec<u64> = self.page_writes.drain().map(|(_, w)| w).collect();
        still_resident.sort_unstable();
        for writes in still_resident {
            self.residency_writes.record(writes);
        }
        ObsReport {
            recorder: self.recorder,
            series: self.series,
            histograms: vec![self.fault_gap, self.fault_cost, self.residency_writes],
        }
    }
}

/// Everything observability collected over one run.
#[derive(Debug)]
pub struct ObsReport {
    /// The bounded event trace plus exact per-kind emitted counts.
    pub recorder: TraceRecorder,
    /// Per-epoch counter deltas, when an epoch length was configured.
    pub series: Option<EpochSeries>,
    /// Distribution views: inter-fault distance, fault cost, writes per
    /// residency.
    pub histograms: Vec<Histogram>,
}

impl ObsReport {
    /// Exact per-kind emitted count, surviving ring wrap.
    pub fn emitted(&self, kind: EventKind) -> u64 {
        self.recorder.emitted(kind)
    }

    /// The compact per-job metrics block merged into `manifest.json`:
    /// exact event counts, trace accounting, and histogram summaries
    /// with their non-empty buckets.
    pub(crate) fn metrics_json(&self) -> Json {
        // The core (uniprocessor) kinds are always reported; coherence
        // kinds appear only when they fired, so uniprocessor artifacts
        // stay byte-identical to output predating the multiprocessor.
        let events = Json::object(
            EventKind::ALL
                .iter()
                .filter(|&&k| EventKind::CORE.contains(&k) || self.recorder.emitted(k) > 0)
                .map(|&k| (k.name(), Json::from(self.recorder.emitted(k)))),
        );
        let histograms = Json::object(
            self.histograms
                .iter()
                .map(|h| (h.name().to_string(), histogram_json(h))),
        );
        Json::object([
            ("events", events),
            ("events_total", Json::from(self.recorder.emitted_total())),
            ("trace_retained", Json::from(self.recorder.len() as u64)),
            ("trace_dropped", Json::from(self.recorder.dropped())),
            ("histograms", histograms),
        ])
    }

    /// The per-epoch series document, when sampling was enabled.
    pub(crate) fn series_json(&self) -> Option<Json> {
        self.series.as_ref().map(series_json)
    }
}
