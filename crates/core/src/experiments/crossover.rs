//! The NOREF crossover experiment.
//!
//! Section 4.2's most striking row — WORKLOAD1 at 8 MB, where `NOREF`
//! ran 2% *faster* than `MISS` — only manifests when reference-bit
//! maintenance has a cost even without memory pressure. The paper cites
//! \[McKu85\]: "large systems spend lots of time searching for
//! unreferenced pages" — i.e. the era's daemons ran periodically. This
//! experiment sweeps that period and finds the regime where eliminating
//! reference bits wins.

use spur_trace::workloads::Workload;
use spur_types::{MemSize, Result};
use spur_vm::policy::RefPolicy;

use crate::dirty::DirtyPolicy;
use crate::experiments::Scale;
use crate::obs::{ObsParams, ObsReport};
use crate::report::Table;
use crate::system::{SimConfig, SpurSystem};

/// One crossover data point.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverRow {
    /// Daemon clearing period in references (`None` = pressure-only).
    pub period: Option<u64>,
    /// The reference-bit policy.
    pub policy: RefPolicy,
    /// Page-ins.
    pub page_ins: u64,
    /// Reference faults taken.
    pub ref_faults: u64,
    /// Elapsed seconds.
    pub elapsed_secs: f64,
}

impl CrossoverRow {
    /// The artifact encoding of one crossover cell.
    pub fn to_json(&self) -> spur_harness::Json {
        use spur_harness::Json;
        Json::object([
            ("period", self.period.map_or(Json::Null, Json::from)),
            ("policy", Json::from(self.policy.to_string())),
            ("page_ins", Json::from(self.page_ins)),
            ("ref_faults", Json::from(self.ref_faults)),
            ("elapsed_secs", Json::from(self.elapsed_secs)),
        ])
    }
}

/// Runs one (period, policy) point. When `obs` is set the cell is
/// traced and the finished [`ObsReport`] rides along.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_crossover_obs(
    workload: &Workload,
    mem: MemSize,
    period: Option<u64>,
    policy: RefPolicy,
    scale: &Scale,
    obs: Option<ObsParams>,
) -> Result<(CrossoverRow, Option<ObsReport>)> {
    let (sim, report) = SpurSystem::new(SimConfig {
        mem,
        dirty: DirtyPolicy::Spur,
        ref_policy: policy,
        daemon_period: period,
        ..SimConfig::default()
    })?
    .simulate(workload, workload.generator(scale.seed), scale.refs, obs)?;
    let ev = sim.events();
    let row = CrossoverRow {
        period,
        policy,
        page_ins: ev.page_ins,
        ref_faults: ev.ref_faults,
        elapsed_secs: ev.elapsed_seconds(),
    };
    Ok((row, report))
}

/// Renders the sweep with elapsed times relative to each period's MISS.
pub fn render_crossover(rows: &[CrossoverRow]) -> String {
    let mut t = Table::new("Daemon period vs reference-bit policy (elapsed rel. to MISS)");
    t.headers(&[
        "period",
        "policy",
        "page-ins",
        "ref faults",
        "elapsed(s)",
        "vs MISS",
    ]);
    for r in rows {
        let base = rows
            .iter()
            .find(|b| b.period == r.period && b.policy == RefPolicy::Miss)
            .expect("every period has a MISS row")
            .elapsed_secs;
        t.row(vec![
            r.period
                .map_or("off".to_string(), |p| format!("{}k", p / 1000)),
            r.policy.to_string(),
            r.page_ins.to_string(),
            r.ref_faults.to_string(),
            format!("{:.2}", r.elapsed_secs),
            format!("{:+.1}%", 100.0 * (r.elapsed_secs - base) / base),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_trace::workloads::workload1;

    #[test]
    fn noref_wins_once_the_daemon_runs_periodically() {
        let scale = Scale {
            refs: 3_000_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 0,
        };
        let w = workload1();
        let mut rows = Vec::new();
        for period in [None, Some(200_000)] {
            for policy in RefPolicy::ALL {
                let (row, _) =
                    measure_crossover_obs(&w, MemSize::MB8, period, policy, &scale, None).unwrap();
                rows.push(row);
            }
        }

        // Pressure-only: the policies are near parity at 8 MB.
        let off_miss = rows
            .iter()
            .find(|r| r.period.is_none() && r.policy == RefPolicy::Miss)
            .unwrap();
        let off_noref = rows
            .iter()
            .find(|r| r.period.is_none() && r.policy == RefPolicy::Noref)
            .unwrap();
        assert!(off_noref.elapsed_secs <= off_miss.elapsed_secs * 1.15);

        // Periodic: NOREF must beat MISS (the paper's crossover).
        let on_miss = rows
            .iter()
            .find(|r| r.period.is_some() && r.policy == RefPolicy::Miss)
            .unwrap();
        let on_noref = rows
            .iter()
            .find(|r| r.period.is_some() && r.policy == RefPolicy::Noref)
            .unwrap();
        assert!(
            on_noref.elapsed_secs < on_miss.elapsed_secs,
            "NOREF ({}) must beat MISS ({}) under a periodic daemon",
            on_noref.elapsed_secs,
            on_miss.elapsed_secs
        );
        // And NOREF takes zero ref faults everywhere.
        assert_eq!(on_noref.ref_faults, 0);
        assert!(on_miss.ref_faults > 0);

        let text = render_crossover(&rows);
        assert!(text.contains("vs MISS"));
    }
}
