//! Backward compatibility: a 1-CPU `MpSystem` is the uniprocessor.
//!
//! The scheduler degenerates to the plain workload generator at
//! `cpus = 1` (tested in `sched`), and these tests close the loop at
//! the system level: every counter, cycle, and VM statistic of
//! `MpSystem --cpus 1` must be identical to a `SpurSystem` run the
//! pre-multiprocessor way. Uniprocessor artifacts stay byte-identical,
//! and the analytic model may read its uniprocessor baseline from the
//! measured 1-CPU `mp` cells.

use spur_cache::counters::CounterEvent;
use spur_core::{SimConfig, SpurSystem};
use spur_mp::experiment::MP_DAEMON_PERIOD;
use spur_mp::{MpParams, MpSystem};
use spur_trace::workloads::mp_workers;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

const REFS: u64 = 300_000;
const SEED: u64 = 1989;

/// Runs `config` on both machines and asserts they agree on every
/// counter; returns the daemon's page-flush count.
fn assert_counter_identical(config: SimConfig) -> u64 {
    let ref_policy = config.ref_policy;
    let workload = mp_workers(1, 256);

    let mut mp = MpSystem::new(config, &workload, SEED, MpParams::default()).expect("valid node");
    mp.run(REFS).expect("mp run");

    let mut uni = SpurSystem::new(config).expect("valid system");
    uni.load_workload(&workload).expect("workload loads");
    uni.run(&mut workload.generator(SEED), REFS)
        .expect("uni run");

    assert_eq!(mp.refs(), uni.refs(), "{ref_policy}: refs");
    assert_eq!(mp.cycles(), uni.cycles(), "{ref_policy}: cycles");
    assert_eq!(mp.system().misses(), uni.misses(), "{ref_policy}: misses");
    assert_eq!(
        format!("{:?}", mp.system().counters()),
        format!("{:?}", uni.counters()),
        "{ref_policy}: every counter must match"
    );
    assert_eq!(
        format!("{:?}", mp.system().vm().stats()),
        format!("{:?}", uni.vm().stats()),
        "{ref_policy}: every VM statistic must match"
    );
    assert_eq!(
        format!("{:?}", mp.system().breakdown()),
        format!("{:?}", uni.breakdown()),
        "{ref_policy}: the cycle breakdown must match"
    );
    uni.counters().total(CounterEvent::PageFlush)
}

#[test]
fn one_cpu_mp_system_is_counter_identical_to_spur_system() {
    for ref_policy in [RefPolicy::Miss, RefPolicy::Ref] {
        assert_counter_identical(SimConfig {
            mem: MemSize::MB8,
            ref_policy,
            cpus: 1,
            ..SimConfig::default()
        });
    }
}

#[test]
fn identity_holds_under_the_mp_cells_periodic_daemon() {
    // The `mp` cells' configuration, which the analytic model's
    // uniprocessor baseline used too.
    for ref_policy in [RefPolicy::Miss, RefPolicy::Ref] {
        let flushes = assert_counter_identical(SimConfig {
            mem: MemSize::MB8,
            ref_policy,
            cpus: 1,
            daemon_period: Some(MP_DAEMON_PERIOD),
            ..SimConfig::default()
        });
        if ref_policy == RefPolicy::Ref {
            assert!(flushes > 0, "the periodic daemon must flush under REF");
        }
    }
}
