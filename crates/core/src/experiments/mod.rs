//! Experiment measurements: the per-cell functions, row types and
//! renderers behind each table or figure of the paper.
//!
//! | paper artifact | one cell | rendered by |
//! |---|---|---|
//! | Table 3.3 (event frequencies) | [`events::measure_events_obs_with`] | [`events::render_table_3_3`] |
//! | Table 3.4 (dirty-bit overheads) | derived from Table 3.3's rows by [`overhead::table_3_4`] | [`overhead::render_table_3_4`] |
//! | Table 3.5 (dev-machine page-outs) | [`pageout::measure_host`] | [`pageout::render_table_3_5`] |
//! | Table 4.1 (reference-bit policies) | [`refbit::measure_refbit_obs_with`] | [`refbit::render_table_4_1`] |
//! | Footnote 3 model | derived by [`overhead::model_vs_measured`] | [`overhead::render_model`] |
//!
//! This module runs no table: the matrix of cells a table needs is a
//! committed scenario config (`scenarios/table_*.json`), expanded and
//! run in parallel by `spur-scenario` and `reproduce_all`. Every
//! measurement takes a [`Scale`], so the same code serves quick CI
//! runs and full regenerations.

pub mod ablation;
pub mod crossover;
pub mod events;
pub mod overhead;
pub mod pageout;
pub mod refbit;
pub mod sweep;

pub use ablation::{
    flush_cost_comparison, handler_tuning, measure_cache_scaling_point_obs, sun3_overhead,
    tdc_sensitivity,
};
pub use crossover::{measure_crossover_obs, CrossoverRow};
pub use events::{measure_events, EventRow};
pub use overhead::{model_vs_measured, table_3_4, OverheadRow};
pub use pageout::{measure_host, PageoutRow};
pub use refbit::{measure_refbit, RefbitRow};
pub use sweep::{measure_tlb_point, MemorySweepRow, TlbSweepRow};

/// How big an experiment run is.
///
/// The paper's runs are ~10⁹ references; the default scale here is ~10⁷,
/// preserving every shape (who wins, where crossovers fall) at a laptop
/// budget. See DESIGN.md §4 "Scaling".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// References per synthetic-workload run.
    pub refs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Repetitions per data point (the paper used five, randomized).
    pub reps: u32,
    /// References simulated per hour of dev-machine uptime (Table 3.5).
    pub dev_refs_per_hour: u64,
}

impl Scale {
    /// Quick smoke-test scale (CI and parity checks).
    pub const fn quick() -> Self {
        Scale {
            refs: 1_500_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 120_000,
        }
    }

    /// The default regeneration scale.
    pub const fn default_scale() -> Self {
        Scale {
            refs: 12_000_000,
            seed: 1989,
            reps: 3,
            dev_refs_per_hour: 500_000,
        }
    }

    /// A long run for tighter statistics.
    pub const fn full() -> Self {
        Scale {
            refs: 40_000_000,
            seed: 1989,
            reps: 5,
            dev_refs_per_hour: 900_000,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().refs < Scale::default_scale().refs);
        assert!(Scale::default_scale().refs < Scale::full().refs);
        assert!(Scale::full().reps >= 5, "paper used five repetitions");
    }
}
