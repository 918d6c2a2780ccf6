//! The observability layer's two shipping promises, certified on the
//! same job builders the binaries use:
//!
//! * **off means off** — with observability disabled the on-disk job
//!   artifacts are byte-identical to a build that never heard of it
//!   (no `metrics`, no `series`, same bytes);
//! * **on means observer** — enabling it changes no measured value,
//!   only adds the metrics/series sections and a Perfetto-loadable
//!   trace document per job.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use spur_core::experiments::Scale;
use spur_core::jobs::{attach_obs, events_job, events_job_obs, refbit_job_obs};
use spur_core::ObsParams;
use spur_harness::artifacts::sanitize_key;
use spur_harness::{run_jobs, write_run, Json};
use spur_mp::{mp_job, mp_key};
use spur_obs::validate::{get_field, parse};
use spur_scenario::export_traces;
use spur_trace::workloads::{slc, workload1};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

fn tiny_scale() -> Scale {
    Scale {
        refs: 300_000,
        seed: 1989,
        reps: 1,
        dev_refs_per_hour: 120_000,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "spur-obs-parity-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ))
}

#[test]
fn disabled_observability_leaves_artifacts_byte_identical() {
    let scale = tiny_scale();
    let key = "events/SLC/5MB";

    let plain = run_jobs(
        vec![events_job(key.to_string(), slc, MemSize::MB5, scale)],
        1,
    );
    let off = run_jobs(
        vec![events_job_obs(
            key.to_string(),
            slc,
            MemSize::MB5,
            scale,
            None,
        )],
        1,
    );
    assert_eq!(plain.failures().count(), 0);
    assert_eq!(off.failures().count(), 0);

    let root_a = temp_dir("plain");
    let root_b = temp_dir("off");
    let meta = [("scale", Json::from("tiny"))];
    let a = write_run(&root_a, "events", &plain, &meta).expect("write plain artifacts");
    let b = write_run(&root_b, "events", &off, &meta).expect("write obs-off artifacts");

    for (job_key, file) in &a.files {
        let bytes_a = fs::read(a.dir.join(file)).expect("read plain artifact");
        let bytes_b = fs::read(b.dir.join(file)).expect("read obs-off artifact");
        assert_eq!(
            bytes_a, bytes_b,
            "artifact for {job_key:?} differs when observability is merely compiled in"
        );
        let text = String::from_utf8(bytes_a).unwrap();
        assert!(!text.contains("\"metrics\""));
        assert!(!text.contains("\"series\""));
    }

    fs::remove_dir_all(&root_a).ok();
    fs::remove_dir_all(&root_b).ok();
}

#[test]
fn enabled_observability_only_adds_sections() {
    let scale = tiny_scale();
    let key = "events/SLC/5MB";
    let params = ObsParams {
        epoch: Some(100_000),
        ..ObsParams::default()
    };

    let plain = run_jobs(
        vec![events_job(key.to_string(), slc, MemSize::MB5, scale)],
        1,
    );
    let on = run_jobs(
        vec![events_job_obs(
            key.to_string(),
            slc,
            MemSize::MB5,
            scale,
            Some(params),
        )],
        1,
    );

    // The measured row is untouched: tracing is a pure observer.
    assert_eq!(
        plain.value(key).expect("plain row").events,
        on.value(key).expect("traced row").events,
        "enabling observability changed the measurement"
    );

    // The traced job carries all three payloads.
    let job = &on.jobs()[0];
    let output = job.outcome.as_ref().expect("job ok");
    let metrics = output.metrics.as_ref().expect("metrics attached");
    assert!(get_field(metrics, "events").is_some());
    assert!(get_field(metrics, "events_total").is_some());
    assert!(output.series.is_some(), "epoch was set, series expected");
    let trace = output.trace.as_deref().expect("trace attached");

    // The trace export lands one parseable Chrome-trace file per job.
    let root = temp_dir("traces");
    let written = export_traces(&root, "events-tiny", &on).expect("export traces");
    assert_eq!(written, 1);
    let file = root
        .join("events-tiny")
        .join(format!("{}.trace.json", sanitize_key(key)));
    let text = fs::read_to_string(&file).expect("read exported trace");
    let mut attached = Vec::new();
    trace
        .write_to(&mut attached)
        .expect("encode the attached trace");
    attached.push(b'\n');
    assert_eq!(
        text.as_bytes(),
        attached,
        "export must write the attached trace"
    );
    let doc = parse(&text).expect("exported trace parses");
    match get_field(&doc, "traceEvents") {
        Some(Json::Arr(events)) => assert!(!events.is_empty(), "trace has no events"),
        other => panic!("traceEvents missing or not an array: {other:?}"),
    }

    fs::remove_dir_all(&root).ok();
}

#[test]
fn attach_obs_with_no_report_is_identity() {
    let probe = spur_harness::JobOutput::new(7u64, Json::object([("v", Json::from(7u64))]));
    let out = attach_obs(probe, None);
    assert!(out.metrics.is_none());
    assert!(out.series.is_none());
    assert!(out.trace.is_none());
}

/// FNV-1a over a file's bytes: a stable fingerprint to pin exports by.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn exported_trace_bytes_are_pinned() {
    let scale = Scale {
        refs: 20_000,
        ..tiny_scale()
    };
    let on = Some(ObsParams::default());
    let epoch = Some(ObsParams {
        epoch: Some(5_000),
        ..ObsParams::default()
    });
    let wrapped = Some(ObsParams {
        trace_capacity: 64,
        ..ObsParams::default()
    });
    let mp = mp_key(2, 64, RefPolicy::Ref);
    let jobs = vec![
        refbit_job_obs(
            "table_4_1/SLC/5MB/MISS".into(),
            slc,
            MemSize::MB5,
            RefPolicy::Miss,
            scale,
            on,
        )
        .map(|_| ()),
        events_job_obs(
            "events/WORKLOAD1/8MB".into(),
            workload1,
            MemSize::MB8,
            scale,
            epoch,
        )
        .map(|_| ()),
        mp_job(mp.clone(), 2, RefPolicy::Ref, 64, scale, on).map(|_| ()),
        refbit_job_obs(
            "wrapped/WORKLOAD1/5MB/MISS".into(),
            workload1,
            MemSize::MB5,
            RefPolicy::Miss,
            scale,
            wrapped,
        )
        .map(|_| ()),
    ];
    let report = run_jobs(jobs, 2);
    assert_eq!(report.failures().count(), 0);

    let root = temp_dir("pinned");
    assert_eq!(export_traces(&root, "pinned", &report).expect("export"), 4);
    let read = |key: &str| {
        let file = format!("{}.trace.json", sanitize_key(key));
        fs::read(root.join("pinned").join(file)).expect("read exported trace")
    };
    // (key, FNV-1a digest, byte length) of each exported file.
    let pins: [(&str, u64, usize); 4] = [
        ("events/WORKLOAD1/8MB", 3342827528117016844, 355921),
        (&mp, 17636315769162436307, 383313),
        ("table_4_1/SLC/5MB/MISS", 13888224689400141828, 342004),
        ("wrapped/WORKLOAD1/5MB/MISS", 16818899924841062426, 6746),
    ];
    let got: Vec<_> = pins
        .iter()
        .map(|&(key, _, _)| {
            let bytes = read(key);
            (key, fnv1a(&bytes), bytes.len())
        })
        .collect();
    let mp_text = String::from_utf8(read(&mp)).unwrap();
    assert!(
        mp_text.contains("\"cat\":\"coherence\""),
        "mp cell traces coherence"
    );
    assert!(mp_text.contains("\"tid\":1,"), "cpu 1 has its own track");
    let wrapped_text = String::from_utf8(read("wrapped/WORKLOAD1/5MB/MISS")).unwrap();
    assert!(
        !wrapped_text.contains("\"dropped\":0}"),
        "the 64-event ring wrapped"
    );
    fs::remove_dir_all(&root).ok();
    assert_eq!(got, pins, "exported trace bytes moved");
}
