//! The harness's determinism contract, certified end to end: the same
//! sweep run on 1 worker and on 4 workers must produce identical values,
//! identical simulator event counts, and byte-identical on-disk job
//! artifacts. Only `manifest.json` may differ (it records wall-clock
//! timings).
//!
//! These tests run the *same job builders the binaries use*
//! (`spur_bench::jobs`), so they certify the shipped sweeps, not a toy.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use spur_bench::jobs::memory_sweep_jobs;
use spur_core::experiments::Scale;
use spur_core::jobs::events_job;
use spur_harness::{run_jobs, write_run, Json};
use spur_trace::workloads::{slc, workload1};
use spur_types::MemSize;

/// Small but non-trivial: enough references to page, one rep.
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
        "spur-harness-parity-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ))
}

#[test]
fn memory_sweep_artifacts_identical_across_worker_counts() {
    let scale = tiny_scale();
    let sizes = [4u32, 5];

    let serial = run_jobs(memory_sweep_jobs(workload1, &sizes, scale, None), 1);
    let parallel = run_jobs(memory_sweep_jobs(workload1, &sizes, scale, None), 4);

    assert_eq!(serial.len(), 6, "2 sizes x 3 policies");
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.failures().count(), 0, "serial run had failures");
    assert_eq!(parallel.failures().count(), 0, "parallel run had failures");

    // Same keys in the same (sorted) order, same measured values.
    for (s, p) in serial.jobs().iter().zip(parallel.jobs()) {
        assert_eq!(s.key, p.key);
        let sv = s.value().expect("serial job ok");
        let pv = p.value().expect("parallel job ok");
        assert_eq!(sv, pv, "job {:?} value differs across worker counts", s.key);
    }

    // Byte-identical job artifacts on disk.
    let root_a = temp_dir("serial");
    let root_b = temp_dir("parallel");
    let meta = [("scale", Json::from("tiny"))];
    let a = write_run(&root_a, "memory_sweep", &serial, &meta).expect("write serial artifacts");
    let b = write_run(&root_b, "memory_sweep", &parallel, &meta).expect("write parallel artifacts");

    assert_eq!(
        a.files.iter().map(|(k, f)| (k, f)).collect::<Vec<_>>(),
        b.files.iter().map(|(k, f)| (k, f)).collect::<Vec<_>>(),
        "artifact file layout differs"
    );
    for (key, file) in &a.files {
        let bytes_a = fs::read(a.dir.join(file)).expect("read serial artifact");
        let bytes_b = fs::read(b.dir.join(file)).expect("read parallel artifact");
        assert_eq!(
            bytes_a, bytes_b,
            "artifact for job {key:?} is not byte-identical across worker counts"
        );
    }
    assert!(a.manifest_path.is_file());
    assert!(b.manifest_path.is_file());

    fs::remove_dir_all(&root_a).ok();
    fs::remove_dir_all(&root_b).ok();
}

#[test]
fn event_counts_identical_across_worker_counts() {
    let scale = tiny_scale();
    let mk = |key: &str| events_job(key.to_string(), slc, MemSize::MB5, scale);

    let serial = run_jobs(vec![mk("events/SLC/5MB")], 1);
    let parallel = run_jobs(
        vec![mk("events/SLC/5MB"), mk("pad/1"), mk("pad/2"), mk("pad/3")],
        4,
    );

    let a = serial.value("events/SLC/5MB").expect("serial events row");
    let b = parallel
        .value("events/SLC/5MB")
        .expect("parallel events row");
    assert_eq!(
        a.events, b.events,
        "EventCounts differ between 1-worker and 4-worker runs"
    );
}
