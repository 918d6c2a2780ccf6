//! The trace-driven methodology end to end: record once, replay the
//! *identical* stream through different policies — Section 2's "precise
//! repeatability" argument as an executable property.

use spur_core::dirty::DirtyPolicy;
use spur_core::system::{SimConfig, SpurSystem};
use spur_trace::record::RecordedTrace;
use spur_trace::workloads::slc;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

#[test]
fn replayed_trace_drives_the_simulator_identically_to_the_generator() {
    let workload = slc();
    let n = 150_000u64;
    let trace = RecordedTrace::record(workload.generator(31).take(n as usize));

    fn run<I: Iterator<Item = spur_trace::stream::TraceRef> + Send>(
        workload: &spur_trace::workloads::Workload,
        mut refs: I,
        n: u64,
    ) -> spur_core::events::EventCounts {
        let mut sim = SpurSystem::new(SimConfig {
            mem: MemSize::MB5,
            ..SimConfig::default()
        })
        .unwrap();
        sim.load_workload(workload).unwrap();
        sim.run(&mut refs, n).unwrap();
        sim.events()
    }

    let live = run(&workload, workload.generator(31), n);
    let replayed = run(&workload, trace.iter(), n);
    assert_eq!(
        live, replayed,
        "replay must be indistinguishable from generation"
    );
}

#[test]
fn one_recording_serves_every_policy() {
    // The whole point of trace-driven evaluation: each policy sees the
    // same input, so differences are attributable to the policy alone.
    let workload = slc();
    let trace = RecordedTrace::record(workload.generator(33).take(120_000));

    let mut n_ds = Vec::new();
    for dirty in DirtyPolicy::ALL {
        let mut sim = SpurSystem::new(SimConfig {
            mem: MemSize::MB8,
            dirty,
            ref_policy: RefPolicy::Miss,
            ..SimConfig::default()
        })
        .unwrap();
        sim.load_workload(&workload).unwrap();
        sim.run(&mut trace.iter(), trace.len()).unwrap();
        n_ds.push(sim.events().n_ds);
        sim.check_invariants().unwrap();
    }
    for pair in n_ds.windows(2) {
        assert_eq!(pair[0], pair[1], "same trace, same necessary faults");
    }
}

#[test]
fn serialized_trace_survives_a_disk_round_trip() {
    let workload = slc();
    let trace = RecordedTrace::record(workload.generator(35).take(30_000));
    let path = std::env::temp_dir().join("spur_trace_roundtrip.bin");
    std::fs::write(&path, trace.to_bytes()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let back = RecordedTrace::from_bytes(&bytes).unwrap();
    assert_eq!(trace, back);
    // Storage cost stays within the documented envelope.
    assert!(back.bytes_per_ref() < 6.0);
}
