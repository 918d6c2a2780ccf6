//! Epoch time series: counter deltas sampled every N references.
//!
//! A sweep cell normally collapses into end-of-run totals; sampling
//! the counters every `epoch` references turns each cell into a curve
//! — e.g. the excess-fault rate settling after the working set loads,
//! or fault bursts following a daemon scan.
//!
//! The snapshotter is counter-agnostic: the caller supplies column
//! names once and a matching slice of running totals at every sample
//! point, and the series stores per-epoch *deltas*. That keeps
//! `spur-obs` below `spur-cache` in the dependency graph.

/// One sampled epoch: the half-open reference interval it covers and
/// the counter deltas accrued inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRow {
    /// First reference index of the epoch (inclusive).
    pub start_ref: u64,
    /// Last reference index of the epoch (exclusive).
    pub end_ref: u64,
    /// Delta per column, in the series' column order.
    pub deltas: Vec<u64>,
}

/// Accumulates counter deltas into fixed-width epochs.
#[derive(Debug, Clone)]
pub struct EpochSeries {
    epoch: u64,
    columns: Vec<String>,
    /// Running totals at the previous sample point.
    prev: Vec<u64>,
    /// Reference index where the current epoch began.
    epoch_start: u64,
    rows: Vec<EpochRow>,
}

impl EpochSeries {
    /// Creates a series sampling every `epoch` references (clamped to
    /// at least 1) over the given columns. Totals passed to
    /// [`EpochSeries::sample`] and [`EpochSeries::flush`] must match
    /// the column order.
    pub fn new(epoch: u64, columns: Vec<String>) -> Self {
        let ncols = columns.len();
        EpochSeries {
            epoch: epoch.max(1),
            columns,
            prev: vec![0; ncols],
            epoch_start: 0,
            rows: Vec::new(),
        }
    }

    /// The sampling interval in references.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The column names, in delta order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Whether `ref_index` (the count of references completed so far)
    /// lands on an epoch boundary — i.e. the caller should sample now.
    pub fn due(&self, ref_index: u64) -> bool {
        ref_index > 0 && ref_index.is_multiple_of(self.epoch)
    }

    /// Closes the current epoch at `end_ref` with the given running
    /// totals, recording the delta since the previous sample.
    pub fn sample(&mut self, end_ref: u64, totals: &[u64]) {
        assert_eq!(
            totals.len(),
            self.columns.len(),
            "totals must match columns"
        );
        let deltas = totals
            .iter()
            .zip(&self.prev)
            .map(|(now, before)| now - before)
            .collect();
        self.rows.push(EpochRow {
            start_ref: self.epoch_start,
            end_ref,
            deltas,
        });
        self.prev.copy_from_slice(totals);
        self.epoch_start = end_ref;
    }

    /// Flushes a trailing partial epoch, if any references have been
    /// retired since the last sample. Call once at end of run so the
    /// final `end_ref % epoch != 0` tail isn't silently dropped.
    pub fn flush(&mut self, end_ref: u64, totals: &[u64]) {
        if end_ref > self.epoch_start {
            self.sample(end_ref, totals);
        }
    }

    /// The recorded rows, oldest first.
    pub fn rows(&self) -> &[EpochRow] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(epoch: u64) -> EpochSeries {
        EpochSeries::new(epoch, vec!["a".into(), "b".into()])
    }

    #[test]
    fn samples_record_deltas_not_totals() {
        let mut s = series(100);
        s.sample(100, &[10, 1]);
        s.sample(200, &[25, 1]);
        s.sample(300, &[25, 9]);
        let deltas: Vec<&[u64]> = s.rows().iter().map(|r| r.deltas.as_slice()).collect();
        assert_eq!(deltas, vec![&[10, 1][..], &[15, 0][..], &[0, 8][..]]);
        assert_eq!(s.rows()[1].start_ref, 100);
        assert_eq!(s.rows()[1].end_ref, 200);
    }

    #[test]
    fn due_fires_exactly_on_boundaries() {
        let s = series(100);
        assert!(!s.due(0), "no epoch closes before any references run");
        assert!(!s.due(99));
        assert!(s.due(100));
        assert!(!s.due(101));
        assert!(s.due(200));
    }

    #[test]
    fn flush_records_the_partial_tail_epoch() {
        // 250 references at epoch 100: two full epochs plus a 50-ref
        // tail that only flush() captures.
        let mut s = series(100);
        s.sample(100, &[4, 0]);
        s.sample(200, &[8, 0]);
        s.flush(250, &[9, 2]);
        assert_eq!(s.rows().len(), 3);
        let tail = &s.rows()[2];
        assert_eq!((tail.start_ref, tail.end_ref), (200, 250));
        assert_eq!(tail.deltas, vec![1, 2]);
    }

    #[test]
    fn flush_on_exact_boundary_adds_nothing() {
        let mut s = series(100);
        s.sample(100, &[4, 0]);
        s.flush(100, &[4, 0]);
        assert_eq!(s.rows().len(), 1, "no empty trailing epoch");
    }

    #[test]
    fn flush_with_no_samples_captures_whole_short_run() {
        // A run shorter than one epoch still produces one row.
        let mut s = series(1000);
        s.flush(42, &[7, 7]);
        assert_eq!(s.rows().len(), 1);
        assert_eq!((s.rows()[0].start_ref, s.rows()[0].end_ref), (0, 42));
        assert_eq!(s.rows()[0].deltas, vec![7, 7]);
    }

    #[test]
    #[should_panic(expected = "totals must match columns")]
    fn mismatched_totals_panic() {
        series(10).sample(10, &[1]);
    }

    #[test]
    fn epoch_zero_is_clamped() {
        assert_eq!(EpochSeries::new(0, vec![]).epoch(), 1);
    }
}
