//! Coherence corner cases, driven with hand-built references so each
//! protocol transition is exercised in isolation:
//!
//! * write to an `OwnedShared`-everywhere block invalidates every peer
//!   copy (fan-out);
//! * a read of a remotely-written block is owner-supplied and the
//!   ownership event names the peer;
//! * evicting an owned (dirty) line writes the block back to memory;
//! * clearing a reference bit under `REF` flushes the page from every
//!   cache;
//! * the protocol's safety invariant (one owner, an exclusive block
//!   cached nowhere else) holds under random interleavings.

use spur_cache::counters::CounterEvent;
use spur_core::{ObsParams, SimConfig, SpurSystem};
use spur_obs::EventKind;
use spur_trace::stream::Pid;
use spur_trace::TraceRef;
use spur_types::rng::SmallRng;
use spur_types::{AccessKind, GlobalAddr, MemSize, Vpn};
use spur_vm::policy::RefPolicy;
use spur_vm::region::PageKind;

/// A shared heap page every test references. Far from any workload's
/// regions; the tests register it themselves.
const SHARED_PAGE: u64 = 4_096;

fn node(cpus: usize) -> SpurSystem {
    let mut sys = SpurSystem::new(SimConfig {
        mem: MemSize::MB8,
        cpus,
        ..SimConfig::default()
    })
    .expect("valid config");
    sys.register_region(Vpn::new(SHARED_PAGE), 4, PageKind::Heap)
        .expect("valid region");
    sys.enable_obs(ObsParams::default());
    sys
}

fn r(pid: u64, addr: GlobalAddr, kind: AccessKind) -> TraceRef {
    TraceRef {
        pid: Pid(pid as u32),
        addr,
        kind,
    }
}

fn block_addr(i: u64) -> GlobalAddr {
    Vpn::new(SHARED_PAGE).base_addr().wrapping_add(i * 32)
}

#[test]
fn write_to_shared_block_invalidates_every_peer_copy() {
    let mut sys = node(4);
    let a = block_addr(0);
    // Pids 0..=3 run on CPUs 0..=3 (pid % cpus affinity). All four read
    // the block, so all four caches hold a copy.
    for pid in 0..4 {
        sys.reference(r(pid, a, AccessKind::Read)).unwrap();
    }
    let before = sys.counters().total(CounterEvent::Invalidation);
    sys.reference(r(0, a, AccessKind::Write)).unwrap();
    let fanned_out = sys.counters().total(CounterEvent::Invalidation) - before;
    assert_eq!(fanned_out, 3, "three peer copies must be invalidated");
    // The coherence events name each invalidated peer.
    let peers: std::collections::BTreeSet<u32> = sys
        .obs_tail(16)
        .iter()
        .filter(|e| e.kind == EventKind::CoherenceInvalidate)
        .map(|e| e.cpu)
        .collect();
    assert_eq!(
        peers.into_iter().collect::<Vec<_>>(),
        vec![1, 2, 3],
        "invalidations must land on exactly the three peer CPUs"
    );
    sys.check_invariants().unwrap();
}

#[test]
fn read_after_remote_write_is_owner_supplied() {
    let mut sys = node(2);
    let a = block_addr(1);
    // CPU 0 writes: its cache becomes the owner, holding the only
    // (dirty) copy.
    sys.reference(r(0, a, AccessKind::Write)).unwrap();
    // CPU 1 reads: the owner must supply the data (memory is stale) and
    // downgrade to shared ownership.
    let before = sys.counters().total(CounterEvent::OwnerSupply);
    sys.reference(r(1, a, AccessKind::Read)).unwrap();
    assert_eq!(
        sys.counters().total(CounterEvent::OwnerSupply) - before,
        1,
        "the owning cache must supply the dirty block"
    );
    let transfers: Vec<u32> = sys
        .obs_tail(16)
        .iter()
        .filter(|e| e.kind == EventKind::OwnershipTransfer)
        .map(|e| e.cpu)
        .collect();
    assert_eq!(
        transfers,
        vec![0],
        "the ownership event must name the supplying peer (CPU 0)"
    );
    // Both caches now hold the block; a further read on either side
    // must not generate more supply traffic.
    sys.reference(r(1, a, AccessKind::Read)).unwrap();
    assert_eq!(
        sys.counters().total(CounterEvent::OwnerSupply) - before,
        1,
        "a shared copy satisfies subsequent reads locally"
    );
    sys.check_invariants().unwrap();
}

#[test]
fn evicting_an_owned_line_writes_the_block_back() {
    // A tiny cache so a handful of fills forces the eviction.
    let mut sys = SpurSystem::with_cache_lines(
        SimConfig {
            mem: MemSize::MB8,
            cpus: 2,
            ..SimConfig::default()
        },
        128,
    )
    .expect("valid config");
    sys.register_region(Vpn::new(SHARED_PAGE), 4, PageKind::Heap)
        .expect("valid region");
    // CPU 0 dirties one block, becoming its owner.
    sys.reference(r(0, block_addr(2), AccessKind::Write))
        .unwrap();
    let before = sys.counters().total(CounterEvent::Writeback);
    // Then streams reads over far more blocks than the cache holds,
    // evicting the owned line.
    for i in 0..256 {
        sys.reference(r(0, block_addr(4 + i), AccessKind::Read))
            .unwrap();
    }
    assert!(
        sys.counters().total(CounterEvent::Writeback) > before,
        "evicting the dirty owned line must write the block back"
    );
    sys.check_invariants().unwrap();
}

#[test]
fn ref_clear_flushes_the_page_from_every_cache() {
    let mut sys = SpurSystem::new(SimConfig {
        mem: MemSize::MB8,
        ref_policy: RefPolicy::Ref,
        cpus: 2,
        ..SimConfig::default()
    })
    .expect("valid config");
    sys.register_region(Vpn::new(SHARED_PAGE), 4, PageKind::Heap)
        .expect("valid region");
    let page = Vpn::new(SHARED_PAGE);
    // CPU 0 owns one block of the page; CPU 1 shares it and caches a
    // second block.
    sys.reference(r(0, block_addr(0), AccessKind::Write))
        .unwrap();
    sys.reference(r(1, block_addr(0), AccessKind::Read))
        .unwrap();
    sys.reference(r(1, block_addr(1), AccessKind::Read))
        .unwrap();
    assert_eq!(sys.cache_of(0).resident_blocks_of_page(page), 1);
    assert_eq!(sys.cache_of(1).resident_blocks_of_page(page), 2);
    // Clearing the page's reference bit must flush it everywhere.
    sys.daemon_clear_pass();
    for cpu in 0..2 {
        assert_eq!(
            sys.cache_of(cpu).resident_blocks_of_page(page),
            0,
            "cpu{cpu} still caches the flushed page"
        );
    }
    sys.check_invariants().unwrap();
}

/// The Berkeley protocol's safety invariant holds under arbitrary
/// interleavings of reads and writes from several processors.
#[test]
fn coherence_safety_under_random_ops() {
    let mut rng = SmallRng::seed_from_u64(0xcac4_0005);
    for _ in 0..32 {
        let n_ops = rng.random_range(1usize..200);
        let mut sys = node(3);
        for _ in 0..n_ops {
            let pid = rng.random_range(0u64..3);
            let block = rng.random_range(0u64..64);
            let kind = if rng.random() {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            sys.reference(r(pid, block_addr(block), kind)).unwrap();
            if let Err(msg) = sys.check_invariants() {
                panic!("{msg}");
            }
        }
    }
}
