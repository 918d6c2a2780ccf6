//! Pinned multiprocessor interleaves.
//!
//! `MpScheduler` commits its shards' streams round-robin, re-polling a
//! shard that returned `None` at the next epoch boundary. These tests
//! pin FNV-1a digests of the first million committed references at 2
//! and 8 CPUs and two seeds, including a shard whose only process
//! sleeps past the generator's 64-quantum idle horizon, so that shard
//! returns `None` in the middle of an epoch while its sibling keeps
//! issuing. A change to the generator's or the scheduler's internals
//! must reproduce every digest.

use spur_mp::MpScheduler;
use spur_trace::spec::parse_workload;
use spur_trace::stream::Pid;
use spur_trace::workloads::{mp_workers, workload1, Workload};
use spur_trace::TraceRef;
use spur_types::hash::{fnv1a, FNV_OFFSET};
use spur_types::AccessKind;

/// Committed references per pinned interleave.
const REFS: u64 = 1_000_000;

/// The two seeds every interleave is pinned at.
const SEEDS: [u64; 2] = [1989, 7];

/// Two processes for two CPUs: `steady` never sleeps; `napper` is
/// active for 100,000 references (not a multiple of the 4,096-reference
/// epoch) and then idle for 400,000, more than the 262,144 references
/// its generator waits before returning `None`.
const NAP_SPEC: &str = "\
workload NAP
shared 16

process steady
  pages code=16 heap=128 stack=8 file=32
  frac shared=0.2

process napper
  pages code=16 heap=128 stack=8 file=32
  schedule active=100000 idle=400000 offset=0
  frac shared=0.2
";

fn nap() -> Workload {
    parse_workload(NAP_SPEC).expect("the nap spec is valid")
}

/// FNV-1a 64 over each committed reference's `(pid, addr, kind)`.
fn digest(refs: impl Iterator<Item = TraceRef>) -> (u64, u64) {
    let mut h = FNV_OFFSET;
    let mut n = 0;
    for r in refs.take(REFS as usize) {
        let kind: u8 = match r.kind {
            AccessKind::InstrFetch => 0,
            AccessKind::Read => 1,
            AccessKind::Write => 2,
        };
        h = fnv1a(h, &r.pid.0.to_le_bytes());
        h = fnv1a(h, &r.addr.raw().to_le_bytes());
        h = fnv1a(h, &[kind]);
        n += 1;
    }
    (h, n)
}

fn check(name: &str, workload: &Workload, cpus: usize, expected: [(u64, u64); 2]) {
    for (seed, want) in SEEDS.into_iter().zip(expected) {
        let sched = MpScheduler::new(workload, cpus, seed).expect("valid scheduler");
        assert_eq!(
            digest(sched),
            want,
            "{name} at {cpus} CPUs, seed {seed}: the interleave drifted"
        );
    }
}

#[test]
fn mp_workers_at_8_cpus_is_pinned() {
    check(
        "MP-WORKERS(8, 256)",
        &mp_workers(8, 256),
        8,
        [(4712111162705843604, REFS), (5011404052869099547, REFS)],
    );
}

#[test]
fn workload1_at_2_cpus_is_pinned() {
    check(
        "WORKLOAD1",
        &workload1(),
        2,
        [(11443390636273254053, REFS), (4578541068314253878, REFS)],
    );
}

#[test]
fn a_shard_idle_mid_epoch_is_pinned() {
    check(
        "NAP",
        &nap(),
        2,
        [(7751849807514529436, REFS), (3164249321106616696, REFS)],
    );
}

/// The nap interleave really has a shard sit out part of an epoch and
/// come back, so its pin covers that path.
#[test]
fn the_napping_shard_sits_out_mid_epoch_and_returns() {
    let sched = MpScheduler::new(&nap(), 2, SEEDS[0]).expect("valid scheduler");
    let mut run = 0u64;
    let mut longest_solo = 0u64;
    let mut back_after_solo = false;
    for r in sched.take(REFS as usize) {
        if r.pid == Pid(0) {
            run += 1;
        } else {
            back_after_solo |= run > 1;
            run = 0;
        }
        longest_solo = longest_solo.max(run);
    }
    assert!(longest_solo > 1, "napper's shard must sit out");
    assert!(back_after_solo, "napper's shard must be re-polled and wake");
}
