//! Randomized tests: direct-mapping and set-associative laws, driven
//! by the repository's deterministic [`SmallRng`] instead of an
//! external property-testing framework. The coherence safety property
//! runs on the N-CPU `SpurSystem` (`crates/mp/tests/coherence_corners.rs`).

use spur_cache::cache::VirtualCache;
use spur_types::rng::SmallRng;
use spur_types::{BlockNum, GlobalAddr, Protection, Vpn, CACHE_LINES};

/// Two blocks conflict exactly when their indices agree modulo the
/// line count.
#[test]
fn direct_map_index_law() {
    let mut rng = SmallRng::seed_from_u64(0xcac4_0001);
    let c = VirtualCache::prototype();
    for _ in 0..512 {
        let a = rng.random_range(0u64..(1 << 33));
        let b = rng.random_range(0u64..(1 << 33));
        let ia = c.index_of(BlockNum::new(a));
        let ib = c.index_of(BlockNum::new(b));
        assert_eq!(ia == ib, a % CACHE_LINES == b % CACHE_LINES);
    }
}

/// After filling any block, probing it hits, and probing any other
/// block mapping to the same line misses.
#[test]
fn fill_probe_law() {
    let mut rng = SmallRng::seed_from_u64(0xcac4_0002);
    for _ in 0..256 {
        let raw = rng.random_range(0u64..(1 << 38));
        let delta = rng.random_range(1u64..32);
        let mut c = VirtualCache::prototype();
        let a = GlobalAddr::new(raw).block_aligned();
        c.fill_for_read(a, Protection::ReadWrite, false);
        assert!(c.probe(a).hit);
        // An address one cache-size away maps to the same line but a
        // different tag.
        let conflict = a.wrapping_add(delta * 128 * 1024);
        if conflict.block() != a.block() {
            assert!(!c.probe(conflict).hit);
            assert_eq!(c.index_of(conflict.block()), c.index_of(a.block()));
        }
    }
}

/// Occupancy never exceeds capacity, and equals the number of distinct
/// lines filled.
#[test]
fn occupancy_bounds() {
    let mut rng = SmallRng::seed_from_u64(0xcac4_0003);
    for _ in 0..32 {
        let n = rng.random_range(1usize..300);
        let mut c = VirtualCache::prototype();
        let mut lines = std::collections::HashSet::new();
        for _ in 0..n {
            let raw = rng.random_range(0u64..(1 << 30));
            let a = GlobalAddr::new(raw).block_aligned();
            if !c.probe(a).hit {
                c.fill_for_read(a, Protection::ReadWrite, false);
            }
            lines.insert(c.index_of(a.block()));
            assert!(c.occupancy() <= c.num_lines());
        }
        assert_eq!(c.occupancy(), lines.len());
    }
}

/// Tag-checked page flush removes exactly the page's blocks; no block
/// of any other page is disturbed.
#[test]
fn tag_checked_flush_is_precise() {
    let mut rng = SmallRng::seed_from_u64(0xcac4_0004);
    for _ in 0..32 {
        let page = rng.random_range(0u64..(1 << 20));
        let n_fills = rng.random_range(1usize..100);
        let mut c = VirtualCache::prototype();
        let target = Vpn::new(page);
        for _ in 0..n_fills {
            let p = rng.random_range(0u64..(1 << 22));
            let b = rng.random_range(0u64..128);
            let addr = Vpn::new(p).block(b).base_addr();
            if !c.probe(addr).hit {
                c.fill_for_read(addr, Protection::ReadWrite, false);
            }
        }
        let others: Vec<_> = c
            .iter_valid()
            .filter(|(_, l)| l.block.vpn() != target)
            .map(|(_, l)| l.block)
            .collect();
        c.flush_page_tag_checked(target);
        assert_eq!(c.resident_blocks_of_page(target), 0);
        for b in others {
            assert!(c.find(b).is_some(), "non-target block {b} was flushed");
        }
    }
}

mod assoc_props {
    use spur_cache::assoc::SetAssocCache;
    use spur_cache::cache::VirtualCache;
    use spur_types::rng::SmallRng;
    use spur_types::{GlobalAddr, Protection};

    /// A 1-way set-associative cache and the direct-mapped cache make
    /// identical hit/miss decisions on any block-aligned stream.
    #[test]
    fn one_way_equals_direct_map() {
        let mut rng = SmallRng::seed_from_u64(0xcac4_0006);
        for _ in 0..16 {
            let n = rng.random_range(1usize..300);
            let mut direct = VirtualCache::prototype();
            let mut assoc = SetAssocCache::new(4096, 1);
            for _ in 0..n {
                let raw = rng.random_range(0u64..(1 << 26));
                let a = GlobalAddr::new(raw << 5);
                let hit_d = direct.probe(a).hit;
                let hit_a = assoc.probe(a);
                assert_eq!(hit_d, hit_a, "divergence at {a}");
                if !hit_d {
                    direct.fill_for_read(a, Protection::ReadWrite, false);
                    assoc.fill(a, Protection::ReadWrite, false, false);
                }
            }
        }
    }

    /// Occupancy invariants hold for any associativity: never exceeds
    /// capacity, and a fill after a miss makes the block resident.
    #[test]
    fn assoc_fill_probe_law() {
        let mut rng = SmallRng::seed_from_u64(0xcac4_0007);
        for _ in 0..16 {
            let n = rng.random_range(1usize..200);
            let ways = 1usize << rng.random_range(0u32..4);
            let mut cache = SetAssocCache::new(1024, ways);
            for _ in 0..n {
                let raw = rng.random_range(0u64..(1 << 20));
                let a = GlobalAddr::new(raw << 5);
                if !cache.probe(a) {
                    cache.fill(a, Protection::ReadWrite, false, false);
                }
                assert!(cache.probe(a), "block vanished after fill");
                assert!(cache.occupancy() <= cache.num_lines());
            }
        }
    }
}

mod tlb_props {
    use spur_cache::tlb::Tlb;
    use spur_types::rng::SmallRng;
    use spur_types::{Pfn, Protection, Vpn};

    /// The TLB never exceeds capacity, never loses a just-inserted
    /// entry, and hit/miss counters add up to probes.
    #[test]
    fn tlb_capacity_and_counter_laws() {
        let mut rng = SmallRng::seed_from_u64(0xcac4_0008);
        for _ in 0..32 {
            let n = rng.random_range(1usize..300);
            let cap = 1usize << rng.random_range(0u32..6);
            let mut tlb = Tlb::new(cap);
            let mut probes = 0u64;
            for _ in 0..n {
                let v = rng.random_range(0u64..64);
                let vpn = Vpn::new(v);
                probes += 1;
                if tlb.probe(vpn).is_none() {
                    tlb.insert(vpn, Pfn::new(v as u32), Protection::ReadWrite);
                    probes += 1;
                    assert!(tlb.probe(vpn).is_some(), "lost fresh entry");
                }
                assert!(tlb.len() <= cap);
                assert_eq!(tlb.hits() + tlb.misses(), probes);
            }
        }
    }
}
