//! Failure-injection tests: every public error path fires cleanly
//! instead of panicking or silently misbehaving.

use spur_core::baseline::{TlbConfig, TlbSystem};
use spur_core::system::{SimConfig, SpurSystem};
use spur_scenario::{run_scenario, RunnerOptions, Scenario};
use spur_trace::process::ProcessSpec;
use spur_trace::stream::{Pid, TraceRef};
use spur_trace::workloads::Workload;
use spur_types::{AccessKind, Error, GlobalAddr, MemSize};

#[test]
fn inverted_watermarks_are_rejected() {
    let err = SpurSystem::new(SimConfig {
        free_low_water: 100,
        free_high_water: 50,
        ..SimConfig::default()
    })
    .unwrap_err();
    assert!(matches!(err, Error::InvalidConfig(_)));
    assert!(err.to_string().contains("watermark"));
}

#[test]
fn kernel_reservation_exceeding_memory_is_rejected() {
    let err = SpurSystem::new(SimConfig {
        mem: MemSize::new(1),
        kernel_reserved_frames: 10_000,
        ..SimConfig::default()
    })
    .unwrap_err();
    assert!(matches!(err, Error::InvalidConfig(_)));
}

#[test]
fn zero_and_excess_cpus_are_rejected() {
    for cpus in [0usize, 13, 64] {
        let err = SpurSystem::new(SimConfig {
            cpus,
            ..SimConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "cpus={cpus}");
    }
}

#[test]
fn reference_outside_every_region_is_reported() {
    let workload = Workload::build("tiny", vec![ProcessSpec::new("p", 8, 32, 8, 8)]).unwrap();
    let mut sim = SpurSystem::new(SimConfig::default()).unwrap();
    sim.load_workload(&workload).unwrap();
    let stray = TraceRef {
        pid: Pid(0),
        addr: GlobalAddr::from_parts(200, 0),
        kind: AccessKind::Write,
    };
    let err = sim.reference(stray).unwrap_err();
    assert!(matches!(err, Error::BadWorkload(_)));
    assert!(err.to_string().contains("no region"));
}

#[test]
fn overlapping_workload_registration_is_rejected() {
    // Loading the same workload twice re-registers identical regions.
    let workload = Workload::build("dup", vec![ProcessSpec::new("p", 8, 32, 8, 8)]).unwrap();
    let mut sim = SpurSystem::new(SimConfig::default()).unwrap();
    sim.load_workload(&workload).unwrap();
    let err = sim.load_workload(&workload).unwrap_err();
    assert!(matches!(err, Error::BadWorkload(_)));
}

#[test]
fn memory_too_small_for_the_working_set_exhausts_cleanly() {
    // 1 MB of memory minus the kernel reservation cannot hold the hot
    // set; the daemon fights, and if truly nothing is reclaimable the
    // simulator must surface NoFreeFrames instead of looping or
    // panicking. Either completing (daemon copes) or NoFreeFrames is
    // acceptable; a panic or wrong error is not.
    let workload = spur_trace::workloads::slc();
    let mut sim = SpurSystem::new(SimConfig {
        mem: MemSize::new(2),
        kernel_reserved_frames: 448,
        ..SimConfig::default()
    })
    .unwrap();
    sim.load_workload(&workload).unwrap();
    match sim.run(&mut workload.generator(1), 300_000) {
        Ok(()) => sim.check_invariants().unwrap(),
        Err(Error::NoFreeFrames) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
}

#[test]
fn tlb_system_rejects_bad_workload_addresses_too() {
    let workload = Workload::build("tiny2", vec![ProcessSpec::new("p", 8, 32, 8, 8)]).unwrap();
    let mut sys = TlbSystem::new(TlbConfig::default()).unwrap();
    sys.load_workload(&workload).unwrap();
    let stray = TraceRef {
        pid: Pid(0),
        addr: GlobalAddr::from_parts(200, 0),
        kind: AccessKind::Read,
    };
    assert!(matches!(sys.reference(stray), Err(Error::BadWorkload(_))));
}

#[test]
fn workload_builders_validate_specs() {
    assert!(Workload::build("empty", vec![]).is_err());
    let zero_seg = ProcessSpec::new("z", 0, 32, 8, 8);
    assert!(Workload::build("zeroseg", vec![zero_seg]).is_err());
}

// `MemSize::new` panics on 0 MB and `Pte::resident` on frame numbers
// past 20 bits (more than 4096 MB), so scenario configs, and `POST
// /v1/jobs` bodies through the same matrix parser, refuse memory sizes
// outside 1..=4096 MB before either runs.
#[test]
fn memory_sizes_outside_1_to_4096_mb_are_refused() {
    for mb in [0, 4097] {
        let config = format!(
            r#"{{"schema_version": 1, "name": "mem", "experiment": "sim",
                "matrix": {{"mem_mb": [{mb}]}}}}"#
        );
        assert_eq!(
            Scenario::parse_str(&config).unwrap_err(),
            format!("matrix.mem_mb[0]: must be in 1..=4096, got {mb}")
        );
    }
    let config = r#"{"schema_version": 1, "name": "mem", "experiment": "cache_scaling",
                     "mem_mb": 4097, "matrix": {"cache_kb": [32]}}"#;
    assert_eq!(
        Scenario::parse_str(config).unwrap_err(),
        "mem_mb: must be in 1..=4096, got 4097"
    );
}

#[test]
fn a_cell_runs_at_the_largest_memory() {
    let scenario = Scenario::parse_str(
        r#"{"schema_version": 1, "name": "largest_memory", "experiment": "sim",
            "workload": "SLC", "scale": {"refs": 1000}, "matrix": {"mem_mb": [4096]}}"#,
    )
    .expect("4096 MB is in range");
    let opts = RunnerOptions {
        workers: 1,
        persist: false,
        ..RunnerOptions::default()
    };
    let run = run_scenario(&scenario, &opts).expect("the cell expands");
    let keys: Vec<&str> = run.cells.iter().map(|c| c.key.as_str()).collect();
    assert_eq!(keys, ["sim/SLC/4096MB/SPUR/MISS/1cpu"]);
    assert!(
        run.passed(),
        "{:?}",
        run.report.jobs()[0].outcome.as_ref().err()
    );
}
