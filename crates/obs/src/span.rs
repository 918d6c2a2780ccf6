//! Hierarchical request tracing: spans, traces, and the [`SpanSink`].
//!
//! The simulator side of `spur-obs` records *simulated* time — cycle-
//! stamped [`crate::event::SimEvent`]s. The serving side needs the same
//! counter-grade fidelity in *real* time: a job's life from HTTP accept
//! through queue admission, worker execution, and artifact
//! serialization. This module provides that layer: a [`SpanSink`] owns
//! one monotonic clock (microseconds since sink creation) and collects
//! [`Span`]s into per-request [`Trace`]s that survive the request and
//! can be queried, exported, and reconciled after the fact.
//!
//! # Model
//!
//! * A **trace** is one request's causal tree: exactly one root span
//!   plus any number of phase children (`accept`, `parse`, `route`,
//!   `cache_lookup`, `queue_wait`, `coalesce_wait`, `run`,
//!   `serialize`, `respond`, …).
//! * A **span** is a named `[start_us, end_us]` interval with string
//!   attributes. Spans may be opened/closed with explicit timestamps so
//!   a phase measured on one thread (queue admission on the acceptor)
//!   can be closed from another (the worker that popped the job).
//! * A [`SpanContext`] is the `(trace, span)` handle that crosses
//!   thread boundaries — it is `Copy`, carries no lock, and is the only
//!   thing the queue has to smuggle from acceptor to worker.
//!
//! # Reconciliation contract
//!
//! Phase spans are constructed contiguously along the job's causal
//! chain, so the sum of phase durations equals the root duration up to
//! scheduling slack (and the deliberately concurrent `respond` phase,
//! which overlaps `queue_wait` by construction — writing the `202`
//! cannot wait for the job to run). `spur-serve`'s trace tests assert
//! this sum-to-wall property for every completed job.
//!
//! Completed traces are retained in a bounded ring (oldest evicted), so
//! a long-lived server's memory stays bounded no matter how many jobs
//! it has served.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

use spur_harness::Json;

/// Parent id of a root span.
pub(crate) const NO_PARENT: u64 = 0;

/// A `(trace, span)` handle, valid for the sink that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace this span belongs to.
    pub trace: u64,
    /// The span id within the sink (ids are sink-unique, never reused).
    pub span: u64,
}

/// One named interval with attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Sink-unique id.
    pub id: u64,
    /// Parent span id, `NO_PARENT` for the root.
    pub parent: u64,
    /// Phase name, e.g. `"queue_wait"`.
    pub name: String,
    /// Start, microseconds since the sink's epoch.
    pub start_us: u64,
    /// End, microseconds since the sink's epoch; `None` while open.
    pub end_us: Option<u64>,
    /// Display track hint for the Chrome exporter (tid offset). Spans
    /// that deliberately overlap the main causal chain (the `respond`
    /// write racing `queue_wait`) go on their own track.
    pub track: u64,
    /// Key/value annotations, in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// The span's duration, if closed.
    pub fn duration_us(&self) -> Option<u64> {
        self.end_us.map(|end| end.saturating_sub(self.start_us))
    }
}

/// One request's span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Sink-unique trace id.
    pub id: u64,
    /// Whether [`SpanSink::finish`] has sealed the trace.
    pub complete: bool,
    /// All spans, root first, in creation order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The root span (the trace always has one).
    pub fn root(&self) -> &Span {
        &self.spans[0]
    }

    /// The first span with this name, if any.
    pub(crate) fn span_named(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The duration of the first closed span with this name.
    pub fn phase_us(&self, name: &str) -> Option<u64> {
        self.span_named(name).and_then(Span::duration_us)
    }

    /// Sum of the durations of every closed *direct child* of the root
    /// — the quantity the reconciliation tests compare against the root
    /// duration.
    pub(crate) fn attributed_us(&self) -> u64 {
        let root = self.spans[0].id;
        self.spans
            .iter()
            .filter(|s| s.parent == root)
            .filter_map(Span::duration_us)
            .sum()
    }

    /// The span tree as JSON: a `phases` summary (first closed span per
    /// name, direct children of the root) plus the nested `root` tree.
    pub fn to_json(&self) -> Json {
        let root = &self.spans[0];
        let mut phases: Vec<(String, Json)> = Vec::new();
        for s in &self.spans {
            if s.parent == root.id && !phases.iter().any(|(k, _)| *k == s.name) {
                if let Some(d) = s.duration_us() {
                    phases.push((s.name.clone(), Json::from(d)));
                }
            }
        }
        Json::object([
            ("trace_id", Json::from(self.id)),
            ("complete", Json::Bool(self.complete)),
            ("wall_us", root.duration_us().map_or(Json::Null, Json::from)),
            ("attributed_us", Json::from(self.attributed_us())),
            ("phases", Json::Obj(phases)),
            ("root", self.span_json(root)),
        ])
    }

    fn span_json(&self, span: &Span) -> Json {
        let children: Vec<Json> = self
            .spans
            .iter()
            .filter(|s| s.parent == span.id)
            .map(|s| self.span_json(s))
            .collect();
        Json::object([
            ("name", Json::from(span.name.as_str())),
            ("span_id", Json::from(span.id)),
            ("start_us", Json::from(span.start_us)),
            ("end_us", span.end_us.map_or(Json::Null, Json::from)),
            ("dur_us", span.duration_us().map_or(Json::Null, Json::from)),
            (
                "attrs",
                Json::Obj(
                    span.attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ),
            ("children", Json::Arr(children)),
        ])
    }
}

#[derive(Debug, Default)]
struct SinkState {
    active: HashMap<u64, Trace>,
    done: VecDeque<Trace>,
    next_trace: u64,
    next_span: u64,
    evicted: u64,
}

/// The thread-safe span collector: one monotonic clock, all live and
/// recently completed traces.
#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    capacity: usize,
    state: Mutex<SinkState>,
}

impl SpanSink {
    /// Completed traces retained by default.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a sink retaining at most `capacity` completed traces
    /// (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        SpanSink {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            state: Mutex::new(SinkState::default()),
        }
    }

    /// Microseconds since the sink was created — the clock every span
    /// timestamp is on.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a new trace with a root span named `name`. `start_us`
    /// backdates the root (e.g. to the socket-accept instant);
    /// `None` starts it now.
    pub fn begin_trace(&self, name: &str, start_us: Option<u64>) -> SpanContext {
        let start = start_us.unwrap_or_else(|| self.now_us());
        let mut st = self.lock();
        st.next_trace += 1;
        st.next_span += 1;
        let (trace_id, span_id) = (st.next_trace, st.next_span);
        st.active.insert(
            trace_id,
            Trace {
                id: trace_id,
                complete: false,
                spans: vec![Span {
                    id: span_id,
                    parent: NO_PARENT,
                    name: name.to_string(),
                    start_us: start,
                    end_us: None,
                    track: 0,
                    attrs: Vec::new(),
                }],
            },
        );
        SpanContext {
            trace: trace_id,
            span: span_id,
        }
    }

    /// Opens a child span under `parent`. `start_us` backdates it
    /// (`None` = now); `track` picks the exporter's display track
    /// (0 = the parent's causal chain).
    pub fn begin_span(
        &self,
        parent: SpanContext,
        name: &str,
        start_us: Option<u64>,
        track: u64,
    ) -> SpanContext {
        let start = start_us.unwrap_or_else(|| self.now_us());
        let mut st = self.lock();
        st.next_span += 1;
        let span_id = st.next_span;
        if let Some(trace) = st.active.get_mut(&parent.trace) {
            trace.spans.push(Span {
                id: span_id,
                parent: parent.span,
                name: name.to_string(),
                start_us: start,
                end_us: None,
                track,
                attrs: Vec::new(),
            });
        }
        SpanContext {
            trace: parent.trace,
            span: span_id,
        }
    }

    /// Closes a span. `end_us` sets an explicit end (`None` = now).
    /// Closing an already-closed or unknown span is a no-op.
    pub fn end_span(&self, ctx: SpanContext, end_us: Option<u64>) {
        let end = end_us.unwrap_or_else(|| self.now_us());
        let mut st = self.lock();
        if let Some(trace) = st.active.get_mut(&ctx.trace) {
            if let Some(span) = trace.spans.iter_mut().find(|s| s.id == ctx.span) {
                if span.end_us.is_none() {
                    span.end_us = Some(end.max(span.start_us));
                }
            }
        }
    }

    /// Adds an attribute to an active trace's span.
    pub fn annotate(&self, ctx: SpanContext, key: &str, value: impl Into<String>) {
        let mut st = self.lock();
        if let Some(trace) = st.active.get_mut(&ctx.trace) {
            if let Some(span) = trace.spans.iter_mut().find(|s| s.id == ctx.span) {
                span.attrs.push((key.to_string(), value.into()));
            }
        }
    }

    /// Seals a trace: closes the root at the latest child end (or now
    /// if it has no closed children), marks it complete, and moves it
    /// to the bounded done ring. Returns the sealed trace.
    pub fn finish(&self, trace_id: u64) -> Option<Trace> {
        let now = self.now_us();
        let mut st = self.lock();
        let mut trace = st.active.remove(&trace_id)?;
        let last_end = trace.spans[1..]
            .iter()
            .filter_map(|s| s.end_us)
            .max()
            .unwrap_or(now);
        let root = &mut trace.spans[0];
        if root.end_us.is_none() {
            root.end_us = Some(last_end.max(root.start_us));
        }
        trace.complete = true;
        st.done.push_back(trace.clone());
        while st.done.len() > self.capacity {
            st.done.pop_front();
            st.evicted += 1;
        }
        Some(trace)
    }

    /// Drops an active trace without completing it (e.g. a submission
    /// that was shed with 429 after its trace had been opened).
    pub fn abandon(&self, trace_id: u64) {
        self.lock().active.remove(&trace_id);
    }

    /// A point-in-time copy of a trace, active or completed. `None` if
    /// the id is unknown or the trace was evicted from the ring.
    pub fn snapshot(&self, trace_id: u64) -> Option<Trace> {
        let st = self.lock();
        st.active
            .get(&trace_id)
            .or_else(|| st.done.iter().rev().find(|t| t.id == trace_id))
            .cloned()
    }

    /// Completed traces evicted from the bounded ring.
    pub fn evicted_total(&self) -> u64 {
        self.lock().evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::parse;

    #[test]
    fn a_trace_is_a_tree_with_contiguous_phases() {
        let sink = SpanSink::new(8);
        let root = sink.begin_trace("job", Some(100));
        let accept = sink.begin_span(root, "accept", Some(100), 0);
        sink.end_span(accept, Some(150));
        let parse_ = sink.begin_span(root, "parse", Some(150), 0);
        sink.end_span(parse_, Some(200));
        let queue = sink.begin_span(root, "queue_wait", Some(200), 0);
        sink.annotate(queue, "depth", "3");
        sink.end_span(queue, Some(700));
        let run = sink.begin_span(root, "run", Some(700), 0);
        sink.end_span(run, Some(1900));
        let ser = sink.begin_span(root, "serialize", Some(1900), 0);
        sink.end_span(ser, Some(2100));
        let trace = sink.finish(root.trace).unwrap();

        assert!(trace.complete);
        assert_eq!(trace.root().start_us, 100);
        assert_eq!(
            trace.root().end_us,
            Some(2100),
            "root sealed at last child end"
        );
        assert_eq!(trace.root().duration_us(), Some(2000));
        assert_eq!(trace.attributed_us(), 2000, "phases sum to the wall");
        assert_eq!(trace.phase_us("queue_wait"), Some(500));
        assert_eq!(
            trace.span_named("queue_wait").unwrap().attrs,
            vec![("depth".to_string(), "3".to_string())]
        );
    }

    #[test]
    fn tree_json_nests_children_and_validates() {
        let sink = SpanSink::new(8);
        let root = sink.begin_trace("job", Some(0));
        let run = sink.begin_span(root, "run", Some(10), 0);
        let inner = sink.begin_span(run, "attempt", Some(12), 0);
        sink.end_span(inner, Some(20));
        sink.end_span(run, Some(25));
        let trace = sink.finish(root.trace).unwrap();
        let doc = trace.to_json();
        let parsed = parse(&doc.encode_pretty()).expect("valid JSON");
        assert_eq!(parsed, doc);
        let text = doc.encode();
        assert!(text.contains("\"phases\":{\"run\":15}"));
        assert!(
            text.contains("\"name\":\"attempt\""),
            "grandchild present: {text}"
        );
        // The attempt nests under run, not under the root.
        let run_at = text.find("\"name\":\"run\"").unwrap();
        let attempt_at = text.find("\"name\":\"attempt\"").unwrap();
        assert!(attempt_at > run_at);
    }

    #[test]
    fn cross_thread_handoff_closes_spans_by_context() {
        let sink = std::sync::Arc::new(SpanSink::new(8));
        let root = sink.begin_trace("job", None);
        let queue = sink.begin_span(root, "queue_wait", None, 0);
        let worker = {
            let sink = std::sync::Arc::clone(&sink);
            std::thread::spawn(move || {
                sink.end_span(queue, None);
                let run = sink.begin_span(root, "run", None, 0);
                sink.end_span(run, None);
                sink.finish(root.trace)
            })
        };
        let trace = worker.join().unwrap().unwrap();
        assert!(trace.phase_us("queue_wait").is_some());
        assert!(trace.phase_us("run").is_some());
    }

    #[test]
    fn done_ring_is_bounded_and_evicts_oldest() {
        let sink = SpanSink::new(2);
        let ids: Vec<u64> = (0..4)
            .map(|_| {
                let ctx = sink.begin_trace("job", Some(0));
                sink.finish(ctx.trace);
                ctx.trace
            })
            .collect();
        assert_eq!(sink.evicted_total(), 2);
        assert!(sink.snapshot(ids[0]).is_none(), "oldest evicted");
        assert!(sink.snapshot(ids[1]).is_none());
        assert!(sink.snapshot(ids[2]).is_some());
        assert!(sink.snapshot(ids[3]).is_some());
    }

    #[test]
    fn snapshots_of_active_traces_are_incomplete() {
        let sink = SpanSink::new(4);
        let root = sink.begin_trace("job", None);
        let snap = sink.snapshot(root.trace).unwrap();
        assert!(!snap.complete);
        assert_eq!(snap.root().end_us, None);
        assert_eq!(sink.lock().active.len(), 1);
        sink.abandon(root.trace);
        assert!(sink.snapshot(root.trace).is_none());
        assert!(sink.lock().done.is_empty(), "abandoned, not finished");
    }

    #[test]
    fn ending_twice_or_with_unknown_context_is_harmless() {
        let sink = SpanSink::new(4);
        let root = sink.begin_trace("job", Some(5));
        let span = sink.begin_span(root, "run", Some(5), 0);
        sink.end_span(span, Some(10));
        sink.end_span(span, Some(99)); // no-op: already closed
        sink.end_span(
            SpanContext {
                trace: 777,
                span: 777,
            },
            None,
        );
        let trace = sink.finish(root.trace).unwrap();
        assert_eq!(trace.phase_us("run"), Some(5), "first close wins");
    }

    #[test]
    fn end_before_start_clamps_to_zero_duration() {
        let sink = SpanSink::new(4);
        let root = sink.begin_trace("job", Some(100));
        let span = sink.begin_span(root, "run", Some(100), 0);
        sink.end_span(span, Some(40)); // clock skew guard
        let trace = sink.finish(root.trace).unwrap();
        assert_eq!(trace.phase_us("run"), Some(0));
    }
}
