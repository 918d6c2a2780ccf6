//! Pinned reference streams.
//!
//! Every experiment's numbers are a function of the generator's exact
//! output, so the stream is part of the determinism contract: a change
//! to the generator's internals must emit the same `(pid, addr, kind)`
//! sequence, drawing the same random values in the same order. These
//! tests pin FNV-1a digests of the first million references of each
//! shipped workload family at two seeds, plus a spec workload written
//! to reach every rare branch of the generator (weights, restarts,
//! all-idle gaps, short phases, scripted touch-ups, rw-reads, a shared
//! region, a degenerate mix, clamped hot sets).
//!
//! A change to the generator's internals must reproduce every digest;
//! only a deliberate change to the workload model may update them.

use spur_trace::spec::parse_workload;
use spur_trace::workloads::{devmachine, mp_workers, slc, workload1, DevHost, Workload};
use spur_trace::{TraceGenerator, TraceRef};
use spur_types::hash::{fnv1a, FNV_OFFSET};
use spur_types::{AccessKind, GlobalAddr, BLOCKS_PER_PAGE};

/// References per pinned stream.
const REFS: u64 = 1_000_000;

/// The two seeds every stream is pinned at.
const SEEDS: [u64; 2] = [1989, 7];

/// A workload that reaches every rare branch of the generator:
///
/// * `anchor` has weight 3, a shared-region fraction, heavy rw-reads,
///   cold reads, and enough old-page writes to produce the scripted
///   read-write-write touch-up triple;
/// * `clamp` declares more hot heap pages than its heap holds (the hot
///   set clamps, but restarts and phase shifts still draw the declared
///   count of fresh pages), has no instruction fetches (`mix 0/...`),
///   uniform popularity (`theta=0`), short bursts, and no shared
///   fraction even though the workload declares a shared region;
/// * both are periodic with one 570,000-reference cycle and a common
///   idle gap of 390,000 references, more than the 64 quanta
///   (262,144 references) the scheduler waits before `next()` returns
///   `None`; every wake after the first is a restart;
/// * both phase lengths are far shorter than the run.
const RARE_SPEC: &str = "\
workload RARE
shared 32

process anchor
  pages code=24 heap=96 stack=8 file=48
  weight 3
  schedule active=150000 idle=420000 offset=0
  hot code=8 heap=24 stack=2 file=8 shared=8
  phase len=40000 shift=0.3
  frac shared=0.25 rwread=0.3 oldwrite=0.05 cold=0.02

process clamp
  pages code=16 heap=64 stack=8 file=32
  schedule active=90000 idle=480000 offset=30000
  mix 0/55/45
  hot code=6 heap=100 stack=2 file=40
  phase len=25000 shift=0.5
  tune theta=0 read_burst=2 write_burst=3
  frac heap=0.4 stack=0.3 alloc=0.3 rbw=0.2 oldwrite=0.1 rwread=0.1
";

fn rare() -> Workload {
    parse_workload(RARE_SPEC).expect("the rare-branch spec is valid")
}

/// FNV-1a 64.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn reference(&mut self, r: &TraceRef) {
        let kind: u8 = match r.kind {
            AccessKind::InstrFetch => 0,
            AccessKind::Read => 1,
            AccessKind::Write => 2,
        };
        self.bytes(&[1]);
        self.bytes(&r.pid.0.to_le_bytes());
        self.bytes(&r.addr.raw().to_le_bytes());
        self.bytes(&[kind]);
    }

    fn idle(&mut self) {
        self.bytes(&[0]);
    }
}

/// What a pinned stream looks like: the digest of its first `REFS`
/// references (with each `None` folded in where it occurred), how many
/// times `next()` returned `None` on the way, and the generator's
/// global time at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    digest: u64,
    nones: u64,
    global_time: u64,
}

/// Pulls `REFS` references, polling past `None` the way `MpScheduler`
/// re-polls an idle shard.
fn pin_of(gen: &mut TraceGenerator, mut each: impl FnMut(&TraceRef)) -> Pin {
    let mut h = Fnv::new();
    let mut refs = 0;
    let mut nones = 0;
    while refs < REFS {
        match gen.next() {
            Some(r) => {
                h.reference(&r);
                each(&r);
                refs += 1;
            }
            None => {
                h.idle();
                nones += 1;
                assert!(nones < 10_000, "the generator never woke up again");
            }
        }
    }
    Pin {
        digest: h.0,
        nones,
        global_time: gen.global_time(),
    }
}

fn pin(workload: &Workload, seed: u64) -> Pin {
    pin_of(&mut TraceGenerator::new(workload, seed), |_| {})
}

fn check(name: &str, workload: &Workload, expected: [(u64, u64, u64); 2]) {
    for (seed, (digest, nones, global_time)) in SEEDS.into_iter().zip(expected) {
        assert_eq!(
            pin(workload, seed),
            Pin {
                digest,
                nones,
                global_time
            },
            "{name} at seed {seed}: the stream drifted"
        );
    }
}

#[test]
fn workload1_stream_is_pinned() {
    check(
        "WORKLOAD1",
        &workload1(),
        [
            (3022677236518432373, 0, 1000000),
            (7700197489857182331, 0, 1000000),
        ],
    );
}

#[test]
fn slc_stream_is_pinned() {
    check(
        "SLC",
        &slc(),
        [
            (3332894620863454857, 0, 1000000),
            (14521858150943164951, 0, 1000000),
        ],
    );
}

#[test]
fn mp_workers_stream_is_pinned() {
    check(
        "MP-WORKERS(8, 256)",
        &mp_workers(8, 256),
        [
            (7644838171718663749, 0, 1000000),
            (9614176932060493107, 0, 1000000),
        ],
    );
}

#[test]
fn devmachine_streams_are_pinned() {
    let hosts = DevHost::table_3_5();
    check(
        "DEV-mace",
        &devmachine(&hosts[0]),
        [
            (1465155479738408270, 0, 1000000),
            (16237869818076245201, 0, 1000000),
        ],
    );
    check(
        "DEV-murder",
        &devmachine(&hosts[5]),
        [
            (1020677636996974531, 0, 1000000),
            (13228122531753646033, 0, 1000000),
        ],
    );
}

#[test]
fn rare_branch_stream_is_pinned() {
    check(
        "RARE",
        &rare(),
        [
            (6742423736437976779, 5, 2966080),
            (12598779254271798573, 5, 2966080),
        ],
    );
}

/// The rare-branch spec really reaches the branches it was written
/// for, so its pin covers them.
#[test]
fn rare_branch_spec_reaches_its_branches() {
    let w = rare();
    let shared = w.shared_region().expect("RARE declares a shared region");
    let in_shared = |a: GlobalAddr| {
        let vpn = a.vpn().index();
        vpn >= shared.start.index() && vpn < shared.start.index() + shared.pages
    };
    let page = |a: GlobalAddr| a.raw() / (BLOCKS_PER_PAGE * spur_types::BLOCK_SIZE);
    let mut shared_refs = 0u64;
    let mut clamp_shared = 0u64;
    let mut clamp_ifetches = 0u64;
    let mut triples = 0u64;
    let mut last: [Option<TraceRef>; 2] = [None, None];
    let mut gen = TraceGenerator::new(&w, SEEDS[0]);
    let p = pin_of(&mut gen, |r| {
        if in_shared(r.addr) {
            shared_refs += 1;
            if r.pid.0 == 1 {
                clamp_shared += 1;
            }
        }
        if r.pid.0 == 1 && r.kind == AccessKind::InstrFetch {
            clamp_ifetches += 1;
        }
        // Figure 3.1's scripted triple: read b2, write b1, write b2,
        // all on one file page.
        if let [Some(a), Some(b)] = last {
            if a.kind == AccessKind::Read
                && b.kind == AccessKind::Write
                && r.kind == AccessKind::Write
                && a.addr == r.addr
                && a.addr != b.addr
                && page(a.addr) == page(b.addr)
            {
                triples += 1;
            }
        }
        last = [last[1], Some(*r)];
    });
    assert!(p.nones > 0, "every process must sit idle past 64 quanta");
    assert!(
        p.global_time > 3 * 570_000,
        "the run must span several activation cycles (restarts)"
    );
    assert!(shared_refs > 0, "anchor references the shared region");
    assert_eq!(clamp_shared, 0, "clamp has no shared fraction");
    assert_eq!(clamp_ifetches, 0, "clamp's mix has no instruction fetches");
    assert!(triples > 0, "old-page writes produce the scripted triple");
}
