//! Ablations and sensitivity studies the paper argues but could not run.
//!
//! * [`tdc_sensitivity`] — Section 3.2: "Even if the time to check the
//!   PTE dirty bit is reduced to only 1 cycle, \[WRITE\] still has the
//!   worst performance."
//! * [`handler_tuning`] — Section 3.2's closing remark: "Simply tuning
//!   the fault handler would probably achieve a larger improvement" than
//!   any hardware scheme. We sweep `t_ds` and compare the win against
//!   SPUR's hardware gain.
//! * [`flush_cost_comparison`] — SPUR's actual tag-*blind* flush vs the
//!   assumed tag-checked flush (~2000 vs ~500 cycles), measured on real
//!   cache states instead of the paper's back-of-envelope numbers.
//! * [`measure_cache_scaling_point_obs`] — Section 4.1's extrapolation:
//!   "as caches increase in size, we expect the approximation to become
//!   worse... at [the infinite] extreme, the MISS bit approximation
//!   provides no benefit."

use spur_cache::cache::VirtualCache;
use spur_trace::workloads::Workload;
use spur_types::{CostParams, Cycles, MemSize, Protection, Result, Vpn};
use spur_vm::policy::RefPolicy;

use crate::dirty::DirtyPolicy;
use crate::events::EventCounts;
use crate::experiments::Scale;
use crate::obs::{ObsParams, ObsReport};
use crate::report::Table;
use crate::system::{SimConfig, SpurSystem};

/// One `t_dc` sensitivity row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdcRow {
    /// The per-check cost assumed.
    pub t_dc: u64,
    /// WRITE policy overhead.
    pub write_overhead: Cycles,
    /// Best competing policy overhead (the minimum of the other four).
    pub best_other: Cycles,
    /// Whether WRITE still loses.
    pub write_still_loses: bool,
}

/// Sweeps `t_dc` from the paper's 5 cycles down to 1 and checks whether
/// the `WRITE` policy ever stops losing.
pub fn tdc_sensitivity(ev: &EventCounts) -> Vec<TdcRow> {
    (1..=5u64)
        .rev()
        .map(|t_dc| {
            let costs = CostParams {
                t_dc,
                ..CostParams::paper()
            };
            let write = DirtyPolicy::Write.overhead(ev, &costs);
            let best_other = [
                DirtyPolicy::Min,
                DirtyPolicy::Fault,
                DirtyPolicy::Flush,
                DirtyPolicy::Spur,
            ]
            .into_iter()
            .map(|p| p.overhead(ev, &costs))
            .max()
            .expect("four policies");
            TdcRow {
                t_dc,
                write_overhead: write,
                best_other,
                write_still_loses: write > best_other,
            }
        })
        .collect()
}

/// One handler-tuning row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningRow {
    /// The fault-handler cost assumed (cycles).
    pub t_ds: u64,
    /// FAULT-policy overhead at this handler cost.
    pub fault_overhead: Cycles,
    /// SPUR-policy overhead at the *untuned* (1000-cycle) handler.
    pub spur_at_1000: Cycles,
}

/// Sweeps the fault-handler cost: how much tuning does software need to
/// beat SPUR's dirty-bit-miss hardware outright?
pub fn handler_tuning(ev: &EventCounts) -> Vec<TuningRow> {
    let spur_at_1000 = DirtyPolicy::Spur.overhead(ev, &CostParams::paper());
    [1000u64, 800, 600, 400, 200]
        .into_iter()
        .map(|t_ds| {
            let costs = CostParams {
                t_ds,
                ..CostParams::paper()
            };
            TuningRow {
                t_ds,
                fault_overhead: DirtyPolicy::Fault.overhead(ev, &costs),
                spur_at_1000,
            }
        })
        .collect()
}

/// Renders the handler-tuning sweep.
pub fn render_handler_tuning(rows: &[TuningRow]) -> String {
    let mut t = Table::new(
        "Handler tuning: FAULT emulation with a tuned handler vs SPUR hardware \
         with the untuned one",
    );
    t.headers(&[
        "t_ds (cycles)",
        "O(FAULT) Mcycles",
        "O(SPUR @1000) Mcycles",
        "FAULT wins?",
    ]);
    for r in rows {
        t.row(vec![
            r.t_ds.to_string(),
            format!("{:.3}", r.fault_overhead.millions()),
            format!("{:.3}", r.spur_at_1000.millions()),
            if r.fault_overhead < r.spur_at_1000 {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    t.render()
}

/// Measured flush costs on a populated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushComparison {
    /// Lines the tag-checked flush actually flushed.
    pub checked_flushed: u64,
    /// Cycles the tag-checked flush cost.
    pub checked_cycles: u64,
    /// Lines the tag-blind flush flushed (including collateral).
    pub blind_flushed: u64,
    /// Cycles the tag-blind flush cost.
    pub blind_cycles: u64,
    /// Collateral blocks from *other* pages the blind flush destroyed.
    pub collateral: u64,
}

impl FlushComparison {
    /// The artifact encoding of one flush-comparison cell.
    pub fn to_json(&self) -> spur_harness::Json {
        use spur_harness::Json;
        Json::object([
            ("checked_flushed", Json::from(self.checked_flushed)),
            ("checked_cycles", Json::from(self.checked_cycles)),
            ("blind_flushed", Json::from(self.blind_flushed)),
            ("blind_cycles", Json::from(self.blind_cycles)),
            ("collateral", Json::from(self.collateral)),
        ])
    }
}

/// Compares SPUR's tag-blind page flush with the assumed tag-checked one
/// on a cache populated with `occupancy_frac` of the target page's blocks
/// plus aliasing traffic.
pub fn flush_cost_comparison(occupancy_frac: f64, costs: &CostParams) -> FlushComparison {
    assert!((0.0..=1.0).contains(&occupancy_frac));
    let target = Vpn::new(64);
    let alias = Vpn::new(64 + 32); // same cache lines, different page

    let build = |with_alias: bool| {
        let mut cache = VirtualCache::prototype();
        let n = (128.0 * occupancy_frac) as u64;
        for i in 0..128u64 {
            if i < n {
                cache.fill_for_read(target.block(i).base_addr(), Protection::ReadWrite, true);
            } else if with_alias {
                cache.fill_for_write(alias.block(i).base_addr(), Protection::ReadWrite, true);
            }
        }
        cache
    };

    let mut checked_cache = build(true);
    let checked = checked_cache.flush_page_tag_checked(target);
    let checked_cycles =
        checked.probed * costs.flush_probe + checked.written_back * costs.flush_writeback + 2 * 128;

    let mut blind_cache = build(true);
    let blind = blind_cache.flush_page_tag_blind(target);
    let blind_cycles =
        blind.probed * costs.flush_probe + blind.written_back * costs.flush_writeback + 2 * 128;

    FlushComparison {
        checked_flushed: checked.flushed,
        checked_cycles,
        blind_flushed: blind.flushed,
        blind_cycles,
        collateral: blind.flushed - checked.flushed,
    }
}

/// The *actual* Sun-3 mechanism: the MMU updates the dirty bit in
/// hardware, so there is no fault cost at all — only the per-block check
/// on write hits remains: `O(SUN3) = N_w-hit · t_dc`.
///
/// The paper deliberately did **not** assume this ("Unlike the Sun-3, we
/// assume that the hardware generates a fault... This assumption makes
/// the comparison unbiased"). This function asks the obvious follow-up:
/// would the real Sun-3 hardware have won? On the paper's own counts, no
/// — per-block checking dominates even when the update itself is free.
pub fn sun3_overhead(ev: &EventCounts, costs: &CostParams) -> Cycles {
    Cycles::new(ev.n_whit * costs.t_dc)
}

/// One cache-size scaling row.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheScalingRow {
    /// Cache size in kilobytes.
    pub cache_kb: usize,
    /// Page-ins under `MISS`.
    pub miss_page_ins: u64,
    /// Page-ins under `REF` (true reference bits).
    pub ref_page_ins: u64,
    /// Reference faults under `MISS` (how often the approximation still
    /// fires).
    pub miss_ref_faults: u64,
}

impl CacheScalingRow {
    /// The artifact encoding of one cache-scaling cell.
    pub fn to_json(&self) -> spur_harness::Json {
        use spur_harness::Json;
        Json::object([
            ("cache_kb", Json::from(self.cache_kb)),
            ("miss_page_ins", Json::from(self.miss_page_ins)),
            ("ref_page_ins", Json::from(self.ref_page_ins)),
            ("miss_ref_faults", Json::from(self.miss_ref_faults)),
        ])
    }
}

/// Runs one cache size of the Section 4.1 extrapolation (both the
/// `MISS` and `REF` policies) — the cell the experiment harness
/// schedules — with optional observability. Only the `MISS` run is
/// instrumented, so one cell yields one trace.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_cache_scaling_point_obs(
    workload: &Workload,
    mem: MemSize,
    scale: &Scale,
    cache_kb: usize,
    obs: Option<ObsParams>,
) -> Result<(CacheScalingRow, Option<ObsReport>)> {
    let lines = cache_kb * 1024 / 32;
    let run =
        |policy: RefPolicy, obs: Option<ObsParams>| -> Result<((u64, u64), Option<ObsReport>)> {
            let mut sim = SpurSystem::with_cache_lines(
                SimConfig {
                    mem,
                    dirty: DirtyPolicy::Spur,
                    ref_policy: policy,
                    ..SimConfig::default()
                },
                lines,
            )?;
            if let Some(params) = obs {
                sim.enable_obs(params);
            }
            sim.load_workload(workload)?;
            let mut gen = workload.generator(scale.seed);
            sim.run(&mut gen, scale.refs)?;
            let report = sim.finish_obs();
            let ev = sim.events();
            Ok(((ev.page_ins, ev.ref_faults), report))
        };
    let ((miss_page_ins, miss_ref_faults), report) = run(RefPolicy::Miss, obs)?;
    let ((ref_page_ins, _), _) = run(RefPolicy::Ref, None)?;
    let row = CacheScalingRow {
        cache_kb,
        miss_page_ins,
        ref_page_ins,
        miss_ref_faults,
    };
    Ok((row, report))
}

/// Renders the cache-size scaling study.
pub fn render_cache_scaling(rows: &[CacheScalingRow]) -> String {
    let mut t =
        Table::new("MISS-bit approximation quality vs cache size (Section 4.1 extrapolation)");
    t.headers(&[
        "cache",
        "MISS page-ins",
        "REF page-ins",
        "MISS/REF",
        "MISS ref faults",
    ]);
    for r in rows {
        let ratio = if r.ref_page_ins > 0 {
            r.miss_page_ins as f64 / r.ref_page_ins as f64
        } else {
            f64::NAN
        };
        t.row(vec![
            format!("{} KB", r.cache_kb),
            r.miss_page_ins.to_string(),
            r.ref_page_ins.to_string(),
            format!("{ratio:.3}"),
            r.miss_ref_faults.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_events() -> EventCounts {
        EventCounts {
            n_ds: 2349,
            n_zfod: 905,
            n_ef: 237,
            n_whit: 1_270_000,
            n_wmiss: 7_380_000,
            ..EventCounts::default()
        }
    }

    #[test]
    fn write_loses_even_at_one_cycle() {
        let rows = tdc_sensitivity(&paper_events());
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.write_still_loses, "t_dc={} should still lose", r.t_dc);
        }
    }

    #[test]
    fn real_sun3_hardware_still_loses_on_paper_counts() {
        // Even with a free hardware dirty-bit update, per-block checking
        // costs more than FAULT's occasional excess faults.
        let ev = paper_events();
        let costs = CostParams::paper();
        let sun3 = sun3_overhead(&ev, &costs);
        let fault = DirtyPolicy::Fault.overhead(&ev, &costs);
        assert!(
            sun3 > fault,
            "Sun-3 {} Mcycles vs FAULT {} Mcycles",
            sun3.millions(),
            fault.millions()
        );
    }

    #[test]
    fn modest_handler_tuning_beats_spur_hardware() {
        // The paper: "Simply tuning the fault handler would probably
        // achieve a larger improvement [than the hardware]."
        let rows = handler_tuning(&paper_events());
        let tuned = rows.iter().find(|r| r.t_ds == 600).expect("row exists");
        assert!(
            tuned.fault_overhead < tuned.spur_at_1000,
            "a 600-cycle handler under FAULT beats SPUR hardware with the untuned one"
        );
    }

    #[test]
    fn blind_flush_costs_more_and_destroys_collateral() {
        let cmp = flush_cost_comparison(0.1, &CostParams::paper());
        assert!(cmp.blind_cycles > cmp.checked_cycles);
        assert!(cmp.collateral > 0, "aliased blocks must be destroyed");
        assert_eq!(cmp.checked_flushed, 12, "10% of 128 blocks");
        assert_eq!(cmp.blind_flushed, 128, "blind flush empties every line");
    }

    #[test]
    fn flush_comparison_full_page() {
        let cmp = flush_cost_comparison(1.0, &CostParams::paper());
        assert_eq!(cmp.checked_flushed, cmp.blind_flushed);
        assert_eq!(cmp.collateral, 0);
    }

    #[test]
    fn render_helpers_are_nonempty() {
        let text = render_handler_tuning(&handler_tuning(&paper_events()));
        assert!(text.contains("t_ds"));
        let rows = vec![CacheScalingRow {
            cache_kb: 128,
            miss_page_ins: 100,
            ref_page_ins: 90,
            miss_ref_faults: 5,
        }];
        let text = render_cache_scaling(&rows);
        assert!(text.contains("128 KB"));
        assert!(text.contains("1.111"));
    }
}
