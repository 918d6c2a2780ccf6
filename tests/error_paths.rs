//! Failure-injection tests: every public error path fires cleanly
//! instead of panicking or silently misbehaving.

use spur_core::baseline::{TlbConfig, TlbSystem};
use spur_core::system::{SimConfig, SpurSystem};
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

/// Runs the `spur-repro` binary with `args` after `run --workload slc`.
fn spur_repro_run(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_spur-repro"))
        .args(["run", "--workload", "slc"])
        .args(args)
        .output()
        .expect("spur-repro starts")
}

#[test]
fn spur_repro_rejects_bad_flag_values_with_usage() {
    // `MemSize::new` panics on 0 MB and `Pte::resident` on frame
    // numbers past 20 bits (more than 4096 MB), so memory sizes are
    // checked before either runs; an unparsable value must not fall
    // back to the default.
    for bad in [
        ["--mem", "0"],
        ["--mem", "100000"],
        ["--mem", "4097"],
        ["--mem", "six"],
        ["--refs", "abc"],
        ["--seed", "x"],
        ["--cpus", "-1"],
    ] {
        let out = spur_repro_run(&bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage:"), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} ran a simulation");
    }
}

#[test]
fn spur_repro_runs_at_the_largest_memory() {
    let out = spur_repro_run(&["--mem", "4096", "--refs", "1000"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("running 1000 refs of SLC @ 4096 MB"),
        "{stdout}"
    );
}
