//! Randomized tests for address arithmetic invariants and the RNG's
//! integer probability thresholds.
//!
//! These were proptest properties; they now draw inputs from the
//! repository's own deterministic [`SmallRng`] so the workspace builds
//! with no external dependencies (and failures reproduce exactly).

use spur_types::addr::{BlockNum, GlobalAddr, PhysAddr, ProcAddr, Vpn};
use spur_types::rng::{SmallRng, Threshold};
use spur_types::{BLOCKS_PER_PAGE, BLOCK_SIZE, PAGE_SIZE};

const CASES: usize = 512;

#[test]
fn global_addr_reassembles_from_parts() {
    let mut rng = SmallRng::seed_from_u64(0x7e57_0001);
    for _ in 0..CASES {
        let raw = rng.random_range(0u64..(1 << 38));
        let ga = GlobalAddr::new(raw);
        let rebuilt = ga.vpn().base_addr().raw() + ga.page_offset();
        assert_eq!(rebuilt, raw);
        let rebuilt_blocks = ga.block().base_addr().raw() + ga.block_offset();
        assert_eq!(rebuilt_blocks, raw);
    }
}

#[test]
fn segment_and_offset_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x7e57_0002);
    for _ in 0..CASES {
        let seg = rng.random_range(0u64..256);
        let off = rng.random_range(0u64..(1 << 30));
        let ga = GlobalAddr::from_parts(seg, off);
        assert_eq!(ga.global_segment(), seg);
        assert_eq!(ga.segment_offset(), off);
    }
}

#[test]
fn block_within_page_bounds() {
    let mut rng = SmallRng::seed_from_u64(0x7e57_0003);
    for _ in 0..CASES {
        let raw = rng.random_range(0u64..(1 << 38));
        let b = GlobalAddr::new(raw).block();
        assert!(b.within_page() < BLOCKS_PER_PAGE);
        assert_eq!(b.vpn().block(b.within_page()).index(), b.index());
    }
}

#[test]
fn page_alignment_is_idempotent_and_dominated() {
    let mut rng = SmallRng::seed_from_u64(0x7e57_0004);
    for _ in 0..CASES {
        let raw = rng.random_range(0u64..(1 << 38));
        let ga = GlobalAddr::new(raw);
        let pa = ga.page_aligned();
        assert_eq!(pa.page_aligned(), pa);
        assert!(pa.raw() <= ga.raw());
        assert!(ga.raw() - pa.raw() < PAGE_SIZE);
        let ba = ga.block_aligned();
        assert!(ga.raw() - ba.raw() < BLOCK_SIZE);
        // Block alignment never crosses below page alignment.
        assert!(ba.raw() >= pa.raw());
    }
}

#[test]
fn proc_addr_parts_cover_raw() {
    let mut rng = SmallRng::seed_from_u64(0x7e57_0005);
    for _ in 0..CASES {
        let raw: u32 = rng.random();
        let pa = ProcAddr::new(raw);
        let rebuilt = ((pa.segment().index() as u64) << 30) | pa.segment_offset();
        assert_eq!(rebuilt, raw as u64);
    }
}

#[test]
fn phys_addr_pfn_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x7e57_0006);
    for _ in 0..CASES {
        let raw: u32 = rng.random();
        let pa = PhysAddr::new(raw);
        assert_eq!(pa.pfn().base_addr().raw() + pa.page_offset(), raw);
    }
}

#[test]
fn vpn_block_ordering_is_monotonic() {
    let mut rng = SmallRng::seed_from_u64(0x7e57_0007);
    for _ in 0..CASES {
        let vpn = rng.random_range(0u64..(1 << 26));
        let i = rng.random_range(0u64..127);
        let v = Vpn::new(vpn);
        assert!(v.block(i).index() < v.block(i + 1).index());
        assert_eq!(BlockNum::new(v.block(i).index()).vpn(), v);
    }
}

/// `Threshold::new(p).admits(k)` is `k · 2^-53 < p`, and `chance` is
/// `random::<f64>() < p` on the same stream: for p = 0, p = 1, exact
/// multiples of 2^-53 (where rounding up must not move the cut), and
/// random p, each against random draws and the draws on either side
/// of the cut.
#[test]
fn threshold_tests_equal_float_tests() {
    const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
    let mut rng = SmallRng::seed_from_u64(0x7e57_0008);
    let mut ps = vec![0.0, 1.0, UNIT, 1.0 - UNIT, 0.5, 0.25, -0.5, 1.5, f64::NAN];
    for _ in 0..CASES {
        ps.push(rng.random_range(0u64..=1 << 53) as f64 * UNIT);
        ps.push(rng.random::<f64>());
        // Small probabilities, where most of the precision sits.
        ps.push(rng.random::<f64>() * 1e-3);
    }
    for p in ps {
        let t = Threshold::new(p);
        let cut = (p * (1u64 << 53) as f64)
            .ceil()
            .clamp(0.0, (1u64 << 53) as f64) as u64;
        let mut draws: Vec<u64> = (0..64).map(|_| rng.draw53()).collect();
        draws.extend([0, 1, (1 << 53) - 1]);
        draws.extend([cut.saturating_sub(1), cut, cut + 1].map(|k| k.min((1 << 53) - 1)));
        for k in draws {
            assert_eq!(t.admits(k), (k as f64) * UNIT < p, "p = {p:e}, k = {k}");
        }

        let mut a = SmallRng::seed_from_u64(p.to_bits());
        let mut b = a.clone();
        for _ in 0..64 {
            assert_eq!(a.chance(t), b.random::<f64>() < p, "p = {p:e}");
        }
        assert_eq!(
            a, b,
            "a threshold test draws exactly what the float test draws"
        );
    }
    assert!(!Threshold::NEVER.admits(0));
    assert_eq!(Threshold::new(0.0), Threshold::NEVER);
}
