//! Exporters: Chrome-trace JSON, histogram JSON, epoch-series JSON.
//!
//! The histogram, series and merged serve exporters build
//! `spur_harness::Json` values so they inherit the harness's
//! determinism guarantees (insertion-ordered objects, exact integer
//! printing). A job's own Chrome trace is the large one — up to a full
//! ring of events — so it is written straight from the recorder to an
//! `io::Write`, only when something exports it, in exactly the bytes
//! the harness encoder would give the same document.

use std::any::Any;
use std::io::{self, Write};

use spur_harness::{ChromeTrace, Json};

use crate::epoch::EpochSeries;
use crate::hist::Histogram;
use crate::recorder::TraceRecorder;
use crate::span::Trace;

/// The `pid` stamped on exported Chrome traces (each job is its own
/// file, so one logical process suffices).
const TRACE_PID: u64 = 1;

/// The Chrome-trace-event encoder, loadable at <https://ui.perfetto.dev>.
///
/// Each retained event, oldest first, becomes a complete (`"ph": "X"`)
/// duration event placed by [`SimEvent::extent`]: `ts` is the simulated
/// cycle the event *started*, so durations nest sensibly on the
/// timeline, and `dur` is its cost clamped to at least 1. Each
/// simulated CPU gets its own thread track (`tid` = CPU number), and
/// the page number rides in `args`. Cycle timestamps are reported as
/// microseconds to Perfetto; read them as cycles. `otherData` carries
/// the recorder's emitted and dropped totals.
///
/// Kind names and categories are plain identifiers, so nothing here
/// needs JSON escaping.
///
/// [`SimEvent::extent`]: crate::SimEvent::extent
impl ChromeTrace for TraceRecorder {
    fn write_to(&self, out: &mut dyn Write) -> io::Result<()> {
        out.write_all(b"{\"traceEvents\":[")?;
        for (i, e) in self.iter().enumerate() {
            let (ts, dur) = e.extent();
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":{TRACE_PID},\"tid\":{},\"args\":{{\"page\":{}}}}}",
                if i == 0 { "" } else { "," },
                e.kind.name(),
                e.kind.category(),
                e.cpu,
                e.page,
            )?;
        }
        write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"clock\":\"simulated-cycles\",\
             \"emitted\":{},\"dropped\":{}}}}}",
            self.emitted_total(),
            self.dropped()
        )
    }
}

impl TraceRecorder {
    /// The recorder behind a job output's trace handle, if that is what
    /// the handle holds.
    pub fn from_handle(trace: &dyn ChromeTrace) -> Option<&TraceRecorder> {
        (trace as &dyn Any).downcast_ref()
    }
}

/// Process id of the server-span track in [`merged_chrome_trace`].
pub const MERGED_SERVER_PID: u64 = 0;
/// Process id of the rescaled simulator track in [`merged_chrome_trace`].
pub const MERGED_SIM_PID: u64 = 1;

/// Builds a Chrome-trace document from one request's span tree,
/// optionally merging the job's simulated-time event stream onto the
/// same timeline.
///
/// Server spans land on pid [`MERGED_SERVER_PID`] with real
/// microsecond timestamps (the span sink's clock). If `sim` is the
/// job's event recorder (timestamped in simulated cycles), its retained
/// events are linearly rescaled into the `run` span's real-time
/// interval and placed on pid [`MERGED_SIM_PID`] — so a Perfetto view
/// shows queue wait, worker execution, and the individual simulated
/// faults *inside* that execution, on one coherent axis. Each rescaled
/// event keeps its original start cycle in `args.cycle`.
///
/// Open spans are skipped (a merged export of an incomplete trace shows
/// only what has finished); a missing or zero-width `run` span skips
/// the sim merge entirely.
pub fn merged_chrome_trace(trace: &Trace, sim: Option<&TraceRecorder>) -> Json {
    let mut events: Vec<Json> = vec![
        process_name_meta(MERGED_SERVER_PID, "spur-serve request"),
        process_name_meta(MERGED_SIM_PID, "simulated run (rescaled cycles)"),
    ];
    for span in &trace.spans {
        let Some(dur) = span.duration_us() else {
            continue;
        };
        let mut args: Vec<(String, Json)> = vec![("span_id".into(), Json::from(span.id))];
        for (k, v) in &span.attrs {
            args.push((k.clone(), Json::from(v.as_str())));
        }
        events.push(Json::object([
            ("name", Json::from(span.name.as_str())),
            ("cat", Json::from("serve")),
            ("ph", Json::from("X")),
            ("ts", Json::from(span.start_us)),
            ("dur", Json::from(dur.max(1))),
            ("pid", Json::from(MERGED_SERVER_PID)),
            ("tid", Json::from(span.track)),
            ("args", Json::Obj(args)),
        ]));
    }
    if let (Some(sim), Some(run)) = (sim, trace.span_named("run")) {
        if let Some(run_end) = run.end_us {
            rescale_sim_events(sim, run.start_us, run_end, &mut events);
        }
    }
    Json::object([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ns")),
        (
            "otherData",
            Json::object([
                ("trace_id", Json::from(trace.id)),
                ("complete", Json::Bool(trace.complete)),
                ("sim_clock", Json::from("cycles-rescaled-to-run-span-us")),
            ]),
        ),
    ])
}

fn process_name_meta(pid: u64, name: &str) -> Json {
    Json::object([
        ("name", Json::from("process_name")),
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        ("tid", Json::from(0u64)),
        ("args", Json::object([("name", Json::from(name))])),
    ])
}

/// Maps each retained event's cycle extent linearly onto the run
/// span's `[run_start, run_end]` µs interval, appending to `events`.
fn rescale_sim_events(sim: &TraceRecorder, run_start: u64, run_end: u64, events: &mut Vec<Json>) {
    let Some((cmin, cmax)) = sim.cycle_bounds() else {
        return;
    };
    let cycle_span = (cmax - cmin).max(1) as f64;
    let run_width = run_end.saturating_sub(run_start) as f64;
    if run_width <= 0.0 {
        return;
    }
    let rescale =
        |cycle: u64| -> u64 { run_start + ((cycle - cmin) as f64 / cycle_span * run_width) as u64 };
    events.extend(sim.iter().map(|e| {
        let (ts, dur) = e.extent();
        let start = rescale(ts);
        let end = rescale(ts.saturating_add(dur).min(cmax));
        Json::object([
            ("name", Json::from(e.kind.name())),
            ("cat", Json::from(e.kind.category())),
            ("ph", Json::from("X")),
            ("ts", Json::from(start)),
            ("dur", Json::from(end.saturating_sub(start).max(1))),
            ("pid", Json::from(MERGED_SIM_PID)),
            ("tid", Json::from(e.cpu)),
            (
                "args",
                Json::object([("cycle", Json::from(ts)), ("page", Json::from(e.page))]),
            ),
        ])
    }));
}

/// Serializes a histogram: name, moments, and the non-empty buckets
/// as `[lo, hi, count]` triples (empty buckets are omitted — 65
/// mostly-zero rows per histogram would dominate the artifact).
pub fn histogram_json(h: &Histogram) -> Json {
    Json::object([
        ("name", Json::from(h.name())),
        ("count", Json::from(h.count())),
        ("sum", Json::from(h.sum())),
        ("min", h.min().map_or(Json::Null, Json::from)),
        ("max", h.max().map_or(Json::Null, Json::from)),
        ("mean", h.mean().map_or(Json::Null, Json::from)),
        (
            "buckets",
            Json::array(
                h.nonzero_buckets().into_iter().map(|(lo, hi, n)| {
                    Json::array([Json::from(lo), Json::from(hi), Json::from(n)])
                }),
            ),
        ),
    ])
}

/// Serializes an epoch series: the interval width, column names, and
/// one `{start_ref, end_ref, deltas}` row per epoch.
pub fn series_json(s: &EpochSeries) -> Json {
    Json::object([
        ("epoch", Json::from(s.epoch())),
        (
            "columns",
            Json::array(s.columns().iter().map(|c| Json::from(c.as_str()))),
        ),
        (
            "rows",
            Json::array(s.rows().iter().map(|r| {
                Json::object([
                    ("start_ref", Json::from(r.start_ref)),
                    ("end_ref", Json::from(r.end_ref)),
                    (
                        "deltas",
                        Json::array(r.deltas.iter().map(|&d| Json::from(d))),
                    ),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SimEvent};
    use crate::recorder::Recorder;
    use crate::validate::{get_field, parse};

    fn chrome_text(r: &TraceRecorder) -> String {
        let mut out = Vec::new();
        r.write_to(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }

    #[test]
    fn chrome_trace_is_what_the_json_encoder_would_write() {
        // One event of every kind, on two CPUs, through a wrapped ring.
        let mut r = TraceRecorder::new(EventKind::COUNT);
        r.emit(SimEvent {
            kind: EventKind::PageIn,
            cycle: 1,
            page: 1,
            cost: 0,
            cpu: 0,
        });
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            let i = i as u64;
            r.emit(SimEvent {
                kind,
                cycle: 500 + 100 * i,
                page: 42 + i,
                cost: 300 * (i % 2),
                cpu: (i % 2) as u32,
            });
        }
        let text = chrome_text(&r);
        let doc = parse(&text).expect("valid JSON");
        assert_eq!(doc.encode(), text, "encode(parse(x)) == x");

        // Spot-check the trace-event shape Perfetto requires.
        let Some(Json::Arr(events)) = get_field(&doc, "traceEvents") else {
            panic!("traceEvents must be an array")
        };
        assert_eq!(events.len(), EventKind::COUNT, "the ring kept the newest");
        let ev = &events[1];
        assert_eq!(get_field(ev, "name"), Some(&Json::from("ReadMiss")));
        assert_eq!(get_field(ev, "cat"), Some(&Json::from("miss")));
        assert_eq!(get_field(ev, "ph"), Some(&Json::from("X")));
        assert_eq!(
            get_field(ev, "ts"),
            Some(&Json::from(300u64)),
            "ts = cycle - cost"
        );
        assert_eq!(get_field(ev, "dur"), Some(&Json::from(300u64)));
        assert_eq!(get_field(ev, "pid"), Some(&Json::from(TRACE_PID)));
        let other = get_field(&doc, "otherData").expect("otherData");
        assert_eq!(get_field(other, "emitted"), Some(&Json::from(19u64)));
        assert_eq!(get_field(other, "dropped"), Some(&Json::from(1u64)));
    }

    #[test]
    fn an_empty_recorder_writes_an_empty_event_array() {
        assert_eq!(
            chrome_text(&TraceRecorder::new(4)),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\",\"otherData\":\
             {\"clock\":\"simulated-cycles\",\"emitted\":0,\"dropped\":0}}"
        );
    }

    #[test]
    fn zero_cost_events_get_unit_duration() {
        let mut r = TraceRecorder::new(4);
        r.emit(SimEvent {
            kind: EventKind::DaemonScan,
            cycle: 10,
            page: 0,
            cost: 0,
            cpu: 0,
        });
        let encoded = chrome_text(&r);
        assert!(encoded.contains("\"dur\":1"), "zero cost clamps to dur 1");
        assert!(encoded.contains("\"ts\":10"));
    }

    #[test]
    fn events_land_on_per_cpu_thread_tracks() {
        let mut r = TraceRecorder::new(4);
        for cpu in [0u32, 3] {
            r.emit(SimEvent {
                kind: EventKind::CoherenceInvalidate,
                cycle: 100,
                page: 7,
                cost: 0,
                cpu,
            });
        }
        let encoded = chrome_text(&r);
        assert!(encoded.contains("\"tid\":0,"), "cpu 0 is tid 0");
        assert!(encoded.contains("\"tid\":3,"), "cpu 3 is tid 3");
    }

    #[test]
    fn histogram_json_parses_and_keeps_only_nonzero_buckets() {
        let mut h = Histogram::new("fault_cost");
        h.record(0);
        h.record(5);
        h.record(u64::MAX);
        let doc = histogram_json(&h);
        parse(&doc.encode()).expect("valid JSON");
        let encoded = doc.encode();
        assert!(encoded.starts_with("{\"name\":\"fault_cost\",\"count\":3,"));
        assert!(encoded.contains(&format!("\"max\":{}", u64::MAX)));
        assert!(encoded.ends_with(&format!(
            "\"buckets\":[[0,0,1],[4,7,1],[{},{},1]]}}",
            1u64 << 63,
            u64::MAX
        )));
    }

    #[test]
    fn empty_histogram_exports_null_moments() {
        let doc = histogram_json(&Histogram::new("empty"));
        assert_eq!(
            doc.encode(),
            "{\"name\":\"empty\",\"count\":0,\"sum\":0,\"min\":null,\
             \"max\":null,\"mean\":null,\"buckets\":[]}"
        );
        assert!(parse(&doc.encode()).is_ok());
    }

    fn sample_trace() -> Trace {
        use crate::span::SpanSink;
        let sink = SpanSink::new(4);
        let root = sink.begin_trace("job", Some(1_000));
        let queue = sink.begin_span(root, "queue_wait", Some(1_000), 0);
        sink.end_span(queue, Some(2_000));
        let run = sink.begin_span(root, "run", Some(2_000), 0);
        sink.annotate(run, "experiment", "refbit");
        sink.end_span(run, Some(12_000));
        let respond = sink.begin_span(root, "respond", Some(1_100), 1);
        sink.end_span(respond, Some(1_200));
        sink.finish(root.trace).unwrap()
    }

    /// A recorder holding `(cycle, cost, cpu)` dirty faults on page 7.
    fn recorder(capacity: usize, events: &[(u64, u64, u32)]) -> TraceRecorder {
        let mut r = TraceRecorder::new(capacity);
        for &(cycle, cost, cpu) in events {
            r.emit(SimEvent {
                kind: EventKind::DirtyFault,
                cycle,
                page: 7,
                cost,
                cpu,
            });
        }
        r
    }

    fn sample_sim() -> TraceRecorder {
        recorder(8, &[(600, 100, 0), (900, 300, 0), (1_600, 0, 0)])
    }

    #[test]
    fn merged_trace_validates_and_keeps_both_processes() {
        let doc = merged_chrome_trace(&sample_trace(), Some(&sample_sim()));
        let parsed = parse(&doc.encode_pretty()).expect("valid JSON");
        assert_eq!(parsed, doc);
        let encoded = doc.encode();
        assert!(encoded.contains("\"name\":\"queue_wait\""));
        assert!(encoded.contains("\"name\":\"run\""));
        assert!(encoded.contains("\"experiment\":\"refbit\""));
        assert!(encoded.contains("\"name\":\"DirtyFault\""));
        assert!(encoded.contains("\"name\":\"process_name\""));
        // The respond span keeps its own display track.
        assert!(encoded.contains("\"tid\":1"));
    }

    #[test]
    fn sim_events_are_rescaled_into_the_run_span_interval() {
        let trace = sample_trace();
        let doc = merged_chrome_trace(&trace, Some(&sample_sim()));
        let Json::Obj(fields) = &doc else { panic!() };
        let Json::Arr(events) = &fields[0].1 else {
            panic!()
        };
        let run = trace.span_named("run").unwrap();
        let (run_start, run_end) = (run.start_us, run.end_us.unwrap());
        let mut sim_seen = 0;
        for ev in events {
            let pid = get_field(ev, "pid");
            if pid != Some(&Json::from(MERGED_SIM_PID)) {
                continue;
            }
            if get_field(ev, "ph") == Some(&Json::from("M")) {
                continue;
            }
            sim_seen += 1;
            let Some(&Json::UInt(ts)) = get_field(ev, "ts") else {
                panic!("sim ts must be uint")
            };
            let Some(&Json::UInt(dur)) = get_field(ev, "dur") else {
                panic!("sim dur must be uint")
            };
            assert!(
                ts >= run_start && ts + dur <= run_end,
                "sim event [{ts}, {}] outside run [{run_start}, {run_end}]",
                ts + dur
            );
            assert!(
                get_field(ev, "args")
                    .and_then(|a| get_field(a, "cycle"))
                    .is_some(),
                "original cycle preserved in args"
            );
        }
        assert_eq!(sim_seen, 3, "all sim events survive the merge");
        // Cycle bounds of the source events: the first starts at 500
        // (600 - cost 100), the last ends at 1601 (the zero-cost event
        // at 1600 is clamped to unit duration) → the earliest rescaled
        // event sits exactly at run_start, the latest at run_end.
        assert_eq!(sample_sim().cycle_bounds(), Some((500, 1_601)));
        assert_eq!(recorder(4, &[]).cycle_bounds(), None, "no events");
        assert_eq!(
            recorder(4, &[(50, 100, 0)]).cycle_bounds(),
            Some((0, 100)),
            "a start before cycle 0 saturates"
        );
        assert_eq!(
            recorder(2, &[(100, 10, 0), (200, 10, 0), (300, 10, 0)]).cycle_bounds(),
            Some((190, 300)),
            "a wrapped ring bounds only what it retained"
        );
        assert_eq!(
            recorder(4, &[(1_000, 0, 0), (400, 50, 1)]).cycle_bounds(),
            Some((350, 1_001)),
            "every CPU's events count"
        );
    }

    /// `merged_chrome_trace` of the sample span tree and sample sim
    /// events, pretty-encoded: the bytes `/trace/chrome` serves.
    const MERGED_SAMPLE: &str = r#"{
  "traceEvents": [
    {
      "name": "process_name",
      "ph": "M",
      "pid": 0,
      "tid": 0,
      "args": {
        "name": "spur-serve request"
      }
    },
    {
      "name": "process_name",
      "ph": "M",
      "pid": 1,
      "tid": 0,
      "args": {
        "name": "simulated run (rescaled cycles)"
      }
    },
    {
      "name": "job",
      "cat": "serve",
      "ph": "X",
      "ts": 1000,
      "dur": 11000,
      "pid": 0,
      "tid": 0,
      "args": {
        "span_id": 1
      }
    },
    {
      "name": "queue_wait",
      "cat": "serve",
      "ph": "X",
      "ts": 1000,
      "dur": 1000,
      "pid": 0,
      "tid": 0,
      "args": {
        "span_id": 2
      }
    },
    {
      "name": "run",
      "cat": "serve",
      "ph": "X",
      "ts": 2000,
      "dur": 10000,
      "pid": 0,
      "tid": 0,
      "args": {
        "span_id": 3,
        "experiment": "refbit"
      }
    },
    {
      "name": "respond",
      "cat": "serve",
      "ph": "X",
      "ts": 1100,
      "dur": 100,
      "pid": 0,
      "tid": 1,
      "args": {
        "span_id": 4
      }
    },
    {
      "name": "DirtyFault",
      "cat": "fault",
      "ph": "X",
      "ts": 2000,
      "dur": 908,
      "pid": 1,
      "tid": 0,
      "args": {
        "cycle": 500,
        "page": 7
      }
    },
    {
      "name": "DirtyFault",
      "cat": "fault",
      "ph": "X",
      "ts": 2908,
      "dur": 2725,
      "pid": 1,
      "tid": 0,
      "args": {
        "cycle": 600,
        "page": 7
      }
    },
    {
      "name": "DirtyFault",
      "cat": "fault",
      "ph": "X",
      "ts": 11990,
      "dur": 10,
      "pid": 1,
      "tid": 0,
      "args": {
        "cycle": 1600,
        "page": 7
      }
    }
  ],
  "displayTimeUnit": "ns",
  "otherData": {
    "trace_id": 1,
    "complete": true,
    "sim_clock": "cycles-rescaled-to-run-span-us"
  }
}
"#;

    #[test]
    fn merged_trace_bytes_are_pinned() {
        let doc = merged_chrome_trace(&sample_trace(), Some(&sample_sim()));
        assert_eq!(doc.encode_pretty(), MERGED_SAMPLE);
    }

    #[test]
    fn merged_trace_without_sim_or_run_span_still_validates() {
        let trace = sample_trace();
        let doc = merged_chrome_trace(&trace, None);
        parse(&doc.encode()).expect("valid JSON");
        assert!(!doc.encode().contains("DirtyFault"));

        // A trace with no run span ignores the sim events.
        use crate::span::SpanSink;
        let sink = SpanSink::new(2);
        let root = sink.begin_trace("job", Some(0));
        let t = sink.finish(root.trace).unwrap();
        let doc = merged_chrome_trace(&t, Some(&sample_sim()));
        parse(&doc.encode()).expect("valid JSON");
        assert!(!doc.encode().contains("DirtyFault"));
    }

    #[test]
    fn series_json_parses_and_carries_rows_in_order() {
        let mut s = EpochSeries::new(100, vec!["misses".into()]);
        s.sample(100, &[3]);
        s.flush(150, &[5]);
        let doc = series_json(&s);
        let parsed = parse(&doc.encode_pretty()).expect("valid JSON");
        assert_eq!(parsed, doc);
        assert_eq!(
            doc.encode(),
            "{\"epoch\":100,\"columns\":[\"misses\"],\"rows\":[\
             {\"start_ref\":0,\"end_ref\":100,\"deltas\":[3]},\
             {\"start_ref\":100,\"end_ref\":150,\"deltas\":[2]}]}"
        );
    }
}
