//! Table 3.4: overhead of the dirty-bit alternatives, and the footnote-3
//! model check.

use spur_trace::workloads::Workload;
use spur_types::{CostParams, Cycles, MemSize, Result};
use spur_vm::policy::RefPolicy;

use crate::dirty::DirtyPolicy;
use crate::experiments::events::EventRow;
use crate::experiments::Scale;
use crate::model::ExcessFaultModel;
use crate::report::{fmt_millions, fmt_rel, Table};
use crate::system::{SimConfig, SpurSystem};

/// One Table 3.4 row: a (workload, memory) point with all five policy
/// overheads.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Workload name.
    pub workload: String,
    /// Memory size.
    pub mem: MemSize,
    /// Per-policy overhead in the order of [`DirtyPolicy::ALL`]
    /// (MIN, FAULT, FLUSH, SPUR, WRITE).
    pub overheads: [Cycles; 5],
}

impl OverheadRow {
    /// The overhead of one policy.
    pub(crate) fn overhead(&self, policy: DirtyPolicy) -> Cycles {
        let i = DirtyPolicy::ALL
            .iter()
            .position(|p| *p == policy)
            .expect("policy in ALL");
        self.overheads[i]
    }

    /// Overhead relative to `MIN`, the paper's parenthesized numbers.
    pub fn relative(&self, policy: DirtyPolicy) -> f64 {
        self.overhead(policy)
            .relative_to(self.overhead(DirtyPolicy::Min))
    }
}

/// Computes Table 3.4 from measured event rows using the Section 3.2
/// closed-form models (zero-fills excluded, exactly as the paper does).
pub fn table_3_4(rows: &[EventRow], costs: &CostParams) -> Vec<OverheadRow> {
    rows.iter()
        .map(|r| {
            let mut overheads = [Cycles::ZERO; 5];
            for (i, p) in DirtyPolicy::ALL.iter().enumerate() {
                overheads[i] = p.overhead(&r.events, costs);
            }
            OverheadRow {
                workload: r.workload.clone(),
                mem: r.mem,
                overheads,
            }
        })
        .collect()
}

/// Renders Table 3.4 with the "(relative to MIN)" annotations.
pub fn render_table_3_4(rows: &[OverheadRow]) -> String {
    let mut t = Table::new(
        "Table 3.4: Overhead of Dirty Bit Alternatives (Excluding Zero-Fills), \
         millions of cycles (relative to MIN)",
    );
    t.headers(&[
        "Workload", "Size(MB)", "MIN", "FAULT", "FLUSH", "SPUR", "WRITE",
    ]);
    for r in rows {
        let cell = |p: DirtyPolicy| {
            format!(
                "{} {}",
                fmt_millions(r.overhead(p).millions()),
                fmt_rel(r.relative(p))
            )
        };
        t.row(vec![
            r.workload.clone(),
            r.mem.megabytes().to_string(),
            cell(DirtyPolicy::Min),
            cell(DirtyPolicy::Fault),
            cell(DirtyPolicy::Flush),
            cell(DirtyPolicy::Spur),
            cell(DirtyPolicy::Write),
        ]);
    }
    t.render()
}

/// A footnote-3 model check: predicted vs measured excess-fault ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRow {
    /// Workload name.
    pub workload: String,
    /// Memory size.
    pub mem: MemSize,
    /// Measured `p_w`.
    pub p_w: f64,
    /// Model-predicted excess : necessary ratio.
    pub predicted_ratio: f64,
    /// Measured ratio with zero-fills excluded.
    pub measured_ratio: f64,
}

/// Evaluates the geometric model against measured rows.
pub fn model_vs_measured(rows: &[EventRow]) -> Vec<ModelRow> {
    rows.iter()
        .filter(|r| r.events.n_whit + r.events.n_wmiss > 0)
        .map(|r| {
            let model = ExcessFaultModel::from_events(&r.events);
            ModelRow {
                workload: r.workload.clone(),
                mem: r.mem,
                p_w: model.p_w(),
                predicted_ratio: model.expected_excess_ratio(),
                measured_ratio: r.events.excess_fraction_excluding_zfod(),
            }
        })
        .collect()
}

/// Renders the model-vs-measured comparison.
pub fn render_model(rows: &[ModelRow]) -> String {
    let mut t = Table::new("Footnote 3: Geometric Excess-Fault Model vs Measurement");
    t.headers(&[
        "Workload",
        "Size(MB)",
        "p_w",
        "predicted N_ef/N_ds",
        "measured N_ef/N_ds",
    ]);
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            r.mem.megabytes().to_string(),
            format!("{:.3}", r.p_w),
            format!("{:.3}", r.predicted_ratio),
            format!("{:.3}", r.measured_ratio),
        ]);
    }
    t.render()
}

/// Ablation: run every policy *directly* (the mechanisms actually drive
/// the cache and fault handling) and report total elapsed cycles, to
/// cross-validate the closed-form models.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn direct_elapsed(
    workload: &Workload,
    mem: MemSize,
    scale: &Scale,
) -> Result<Vec<(DirtyPolicy, Cycles)>> {
    let mut out = Vec::new();
    for policy in DirtyPolicy::ALL {
        let (sim, _) = SpurSystem::new(SimConfig {
            mem,
            dirty: policy,
            ref_policy: RefPolicy::Miss,
            ..SimConfig::default()
        })?
        .simulate(workload, workload.generator(scale.seed), scale.refs, None)?;
        out.push((policy, sim.cycles()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventCounts;

    fn paper_rows() -> Vec<EventRow> {
        // All six (workload, memory) points of Table 3.3.
        let mk = |w: &str, mb: u32, ds: u64, zf: u64, ef: u64, wh: f64, wm: f64| EventRow {
            workload: w.into(),
            mem: MemSize::new(mb),
            events: EventCounts {
                n_ds: ds,
                n_zfod: zf,
                n_ef: ef,
                n_whit: (wh * 1e6) as u64,
                n_wmiss: (wm * 1e6) as u64,
                ..EventCounts::default()
            },
        };
        vec![
            mk("SLC", 5, 2349, 905, 237, 1.27, 7.38),
            mk("SLC", 6, 1838, 905, 143, 0.839, 5.11),
            mk("SLC", 8, 1661, 905, 120, 0.612, 3.68),
            mk("WORKLOAD1", 5, 9860, 5286, 1534, 6.15, 34.0),
            mk("WORKLOAD1", 6, 7843, 5181, 456, 4.92, 20.4),
            mk("WORKLOAD1", 8, 7471, 5182, 364, 4.10, 17.3),
        ]
    }

    #[test]
    fn reproduces_all_of_paper_table_3_4() {
        // Expected (MIN, FAULT, FLUSH, SPUR, WRITE) in millions of
        // cycles, from the paper.
        let expected: [[f64; 5]; 6] = [
            [1.44, 1.68, 2.17, 1.49, 7.81],
            [0.933, 1.08, 1.40, 0.960, 5.13],
            [0.756, 0.876, 1.13, 0.778, 3.82],
            [4.57, 6.11, 6.86, 4.73, 35.3],
            [2.66, 3.12, 3.99, 2.74, 27.3],
            [2.29, 2.65, 3.43, 2.36, 22.8],
        ];
        let rows = table_3_4(&paper_rows(), &CostParams::paper());
        for (row, exp) in rows.iter().zip(expected) {
            for (i, p) in DirtyPolicy::ALL.iter().enumerate() {
                let got = row.overhead(*p).millions();
                let tol = exp[i] * 0.01 + 0.005;
                assert!(
                    (got - exp[i]).abs() < tol,
                    "{} @ {}: {} got {:.3} want {:.3}",
                    row.workload,
                    row.mem,
                    p,
                    got,
                    exp[i]
                );
            }
        }
    }

    #[test]
    fn spur_relative_is_one_point_oh_three() {
        // The paper: "The SPUR scheme has the best performance, requiring
        // only 3% more than the minimum."
        let rows = table_3_4(&paper_rows(), &CostParams::paper());
        for row in &rows {
            let rel = row.relative(DirtyPolicy::Spur);
            assert!((rel - 1.03).abs() < 0.015, "SPUR relative {rel}");
        }
    }

    #[test]
    fn model_rows_match_paper_prediction() {
        let rows = model_vs_measured(&paper_rows());
        for r in &rows {
            // The paper rounds this to "less than 20%"; the exact
            // arithmetic across the six points spans 0.16–0.24.
            assert!(
                r.predicted_ratio < 0.25,
                "model predicts ~one-fifth ({}, {}): {}",
                r.workload,
                r.mem,
                r.predicted_ratio
            );
            // Measured (excluding zero-fills) lies in the paper's 15–34%.
            assert!(
                (0.10..=0.40).contains(&r.measured_ratio),
                "measured {}",
                r.measured_ratio
            );
        }
    }

    #[test]
    fn render_contains_relative_annotations() {
        let rows = table_3_4(&paper_rows(), &CostParams::paper());
        let text = render_table_3_4(&rows);
        assert!(text.contains("(1.00)"));
        assert!(text.contains("(1.50)"), "FLUSH is always 1.50 relative");
        let model_text = render_model(&model_vs_measured(&paper_rows()));
        assert!(model_text.contains("p_w"));
    }
}
