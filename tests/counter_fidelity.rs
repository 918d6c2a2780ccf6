//! The paper's measurement methodology, end to end: the CC chip's
//! counters record only the mode register's event set, so the paper ran
//! its deterministic workloads once per mode. Four hardware-faithful
//! passes must reconstruct exactly what one promiscuous pass records.

use spur_cache::counters::{CounterEvent, CounterMode};
use spur_core::system::{SimConfig, SpurSystem};
use spur_core::ObsParams;
use spur_obs::EventKind;
use spur_trace::workloads::slc;
use spur_types::MemSize;

fn run(counter_mode: Option<CounterMode>) -> SpurSystem {
    let workload = slc();
    let mut sim = SpurSystem::new(SimConfig {
        mem: MemSize::MB5,
        counter_mode,
        ..SimConfig::default()
    })
    .unwrap();
    sim.load_workload(&workload).unwrap();
    sim.run(&mut workload.generator(1989), 400_000).unwrap();
    sim
}

#[test]
fn four_hardware_passes_equal_one_promiscuous_pass() {
    let promiscuous = run(None);
    for mode in CounterMode::ALL {
        let hw = run(Some(mode));
        for &event in mode.events() {
            assert_eq!(
                hw.counters().total(event),
                promiscuous.counters().total(event),
                "mode {mode}, event {event}"
            );
            // And the architectural 32-bit register agrees (no wrap at
            // this scale).
            let (_, slot) = event.mode_slot();
            assert_eq!(
                u64::from(hw.counters().read_slot(slot)),
                promiscuous.counters().total(event),
                "register {slot} of {mode}"
            );
        }
    }
}

#[test]
fn hardware_mode_does_not_perturb_the_simulation() {
    // Counting configuration must never change behavior: cycles, events,
    // paging — all identical.
    let a = run(None);
    let b = run(Some(CounterMode::Translation));
    assert_eq!(a.cycles(), b.cycles());
    assert_eq!(a.misses(), b.misses());
    assert_eq!(a.vm().stats().page_ins, b.vm().stats().page_ins);
}

#[test]
fn event_trace_reconciles_with_the_counters() {
    // The observability layer is a third witness to the same methodology:
    // every event it records must reconcile exactly with the CC chip's
    // counters — the trace is the counters, itemized.
    let workload = slc();
    let mut sim = SpurSystem::new(SimConfig {
        mem: MemSize::MB5,
        ..SimConfig::default()
    })
    .unwrap();
    sim.enable_obs(ObsParams::default());
    sim.load_workload(&workload).unwrap();
    sim.run(&mut workload.generator(1989), 400_000).unwrap();
    let report = sim.finish_obs().expect("obs was enabled");
    for kind in EventKind::ALL {
        assert_eq!(
            report.emitted(kind),
            sim.counters().total(CounterEvent::from(kind)),
            "traced {kind:?} must equal its counter"
        );
    }
}

#[test]
fn observability_does_not_perturb_the_counters() {
    // Tracing must be a pure observer: the counters (and hence every
    // paper table derived from them) are identical with it on or off.
    let plain = run(None);
    let workload = slc();
    let mut traced = SpurSystem::new(SimConfig {
        mem: MemSize::MB5,
        ..SimConfig::default()
    })
    .unwrap();
    traced.enable_obs(ObsParams {
        epoch: Some(50_000),
        ..ObsParams::default()
    });
    traced.load_workload(&workload).unwrap();
    traced.run(&mut workload.generator(1989), 400_000).unwrap();
    assert_eq!(plain.cycles(), traced.cycles());
    assert_eq!(plain.misses(), traced.misses());
    for kind in EventKind::ALL {
        let event = CounterEvent::from(kind);
        assert_eq!(
            plain.counters().total(event),
            traced.counters().total(event),
            "{event} changed under tracing"
        );
    }
}
