//! Table 4.1: page-ins and elapsed time under the three reference-bit
//! policies.
//!
//! The paper ran five repetitions of each data point with a randomized
//! experiment design; we do the same (the repetition count lives in
//! [`Scale::reps`]), varying the seed per repetition and averaging.

use spur_trace::workloads::Workload;
use spur_types::{MemSize, Result};
use spur_vm::policy::RefPolicy;

use crate::dirty::DirtyPolicy;
use crate::experiments::Scale;
use crate::obs::{ObsParams, ObsReport};
use crate::report::Table;
use crate::stats::Sample;
use crate::system::{SimConfig, SimOverrides, SpurSystem};

/// One Table 4.1 row: a (workload, memory, policy) point.
#[derive(Debug, Clone, PartialEq)]
pub struct RefbitRow {
    /// Workload name.
    pub workload: String,
    /// Memory size.
    pub mem: MemSize,
    /// The reference-bit policy.
    pub policy: RefPolicy,
    /// Mean page-ins across repetitions.
    pub page_ins: f64,
    /// Mean elapsed seconds across repetitions.
    pub elapsed_secs: f64,
    /// Mean reference faults taken (zero under `NOREF`).
    pub ref_faults: f64,
    /// Page-in sample across repetitions (spread reporting).
    pub page_ins_sample: Sample,
    /// Elapsed-seconds sample across repetitions.
    pub elapsed_sample: Sample,
}

impl RefbitRow {
    /// The artifact encoding of one Table 4.1 cell: the means plus the
    /// repetition spread.
    pub fn to_json(&self) -> spur_harness::Json {
        use spur_harness::Json;
        Json::object([
            ("workload", Json::from(self.workload.as_str())),
            ("mem_mb", Json::from(self.mem.megabytes())),
            ("policy", Json::from(self.policy.to_string())),
            ("page_ins", Json::from(self.page_ins)),
            ("elapsed_secs", Json::from(self.elapsed_secs)),
            ("ref_faults", Json::from(self.ref_faults)),
            ("reps", Json::from(self.page_ins_sample.n())),
            ("page_ins_stddev", Json::from(self.page_ins_sample.stddev())),
            ("elapsed_stddev", Json::from(self.elapsed_sample.stddev())),
        ])
    }
}

/// Runs one (workload, memory, policy) point, averaged over
/// `scale.reps` seeds.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn measure_refbit(
    workload: &Workload,
    mem: MemSize,
    policy: RefPolicy,
    scale: &Scale,
) -> Result<RefbitRow> {
    measure_refbit_obs_with(workload, mem, policy, scale, None, &SimOverrides::default())
        .map(|(row, _)| row)
}

/// [`measure_refbit`] with optional observability and [`SimOverrides`]
/// applied to the canonical configuration. Only repetition 0 is
/// instrumented, so the trace stays a pure function of (workload,
/// memory, policy, base seed) regardless of the repetition count; the
/// averaged row is untouched either way. Default overrides are the
/// byte-identical pass-through — the contract the serving layer's
/// determinism guarantee rests on.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn measure_refbit_obs_with(
    workload: &Workload,
    mem: MemSize,
    policy: RefPolicy,
    scale: &Scale,
    obs: Option<ObsParams>,
    overrides: &SimOverrides,
) -> Result<(RefbitRow, Option<ObsReport>)> {
    let mut page_ins_sample = Sample::new();
    let mut elapsed_sample = Sample::new();
    let mut ref_faults = 0.0;
    let mut report = None;
    for rep in 0..scale.reps {
        let stream = workload.generator(scale.seed + rep as u64);
        let (sim, rep_report) = SpurSystem::new(overrides.apply(SimConfig {
            mem,
            dirty: DirtyPolicy::Spur,
            ref_policy: policy,
            ..SimConfig::default()
        }))?
        .simulate(workload, stream, scale.refs, obs.filter(|_| rep == 0))?;
        report = report.or(rep_report);
        let ev = sim.events();
        page_ins_sample.push(ev.page_ins as f64);
        elapsed_sample.push(ev.elapsed_seconds());
        ref_faults += ev.ref_faults as f64;
    }
    let row = RefbitRow {
        workload: workload.name().to_string(),
        mem,
        policy,
        page_ins: page_ins_sample.mean(),
        elapsed_secs: elapsed_sample.mean(),
        ref_faults: ref_faults / scale.reps as f64,
        page_ins_sample,
        elapsed_sample,
    };
    Ok((row, report))
}

/// Renders rows in the paper's Table 4.1 format, with page-ins and
/// elapsed time normalized to each group's `MISS` row.
pub fn render_table_4_1(rows: &[RefbitRow]) -> String {
    let mut t = Table::new("Table 4.1: Reference Bit Results");
    t.headers(&[
        "Workload",
        "Size(MB)",
        "Policy",
        "Page-Ins",
        "(rel)",
        "Elapsed(s)",
        "(rel)",
    ]);
    for r in rows {
        // Find this row's MISS baseline.
        let baseline = rows
            .iter()
            .find(|b| b.workload == r.workload && b.mem == r.mem && b.policy == RefPolicy::Miss)
            .expect("every group has a MISS row");
        let rel_pi = if baseline.page_ins > 0.0 {
            100.0 * r.page_ins / baseline.page_ins
        } else {
            100.0
        };
        let rel_el = if baseline.elapsed_secs > 0.0 {
            100.0 * r.elapsed_secs / baseline.elapsed_secs
        } else {
            100.0
        };
        let pi_cell = if r.page_ins_sample.n() > 1 {
            format!(
                "{:.0} ±{:.0}",
                r.page_ins,
                r.page_ins_sample.ci95_half_width()
            )
        } else {
            format!("{:.0}", r.page_ins)
        };
        t.row(vec![
            r.workload.clone(),
            r.mem.megabytes().to_string(),
            r.policy.to_string(),
            pi_cell,
            format!("({rel_pi:.0}%)"),
            format!("{:.1}", r.elapsed_secs),
            format!("({rel_el:.0}%)"),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_trace::workloads::slc;

    #[test]
    fn noref_takes_no_ref_faults_and_miss_does() {
        let w = slc();
        let scale = Scale::quick();
        let miss = measure_refbit(&w, MemSize::MB5, RefPolicy::Miss, &scale).unwrap();
        let noref = measure_refbit(&w, MemSize::MB5, RefPolicy::Noref, &scale).unwrap();
        assert_eq!(noref.ref_faults, 0.0);
        assert!(miss.page_ins > 0.0, "5 MB must page");
    }

    #[test]
    fn render_includes_policies_and_relatives() {
        let rows = vec![
            RefbitRow {
                workload: "SLC".into(),
                mem: MemSize::MB5,
                policy: RefPolicy::Miss,
                page_ins: 4647.0,
                elapsed_secs: 948.0,
                ref_faults: 100.0,
                page_ins_sample: Sample::from_values(&[4647.0]),
                elapsed_sample: Sample::from_values(&[948.0]),
            },
            RefbitRow {
                workload: "SLC".into(),
                mem: MemSize::MB5,
                policy: RefPolicy::Noref,
                page_ins: 8230.0,
                elapsed_secs: 1341.0,
                ref_faults: 0.0,
                page_ins_sample: Sample::from_values(&[8230.0]),
                elapsed_sample: Sample::from_values(&[1341.0]),
            },
        ];
        let text = render_table_4_1(&rows);
        assert!(text.contains("MISS"));
        assert!(text.contains("NOREF"));
        assert!(text.contains("(100%)"));
        assert!(text.contains("(177%)"), "NOREF page-in blowup is rendered");
    }
}
