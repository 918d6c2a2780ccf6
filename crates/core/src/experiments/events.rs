//! Table 3.3: event frequencies.
//!
//! The paper measured these with the prototype's performance counters
//! while running its native dirty-bit mechanism (the `SPUR` dirty-bit
//! miss scheme) under the default `MISS` reference-bit policy; every
//! other alternative's cost is then *modeled* from these counts
//! (Table 3.4). This runner does the same.

use spur_trace::workloads::Workload;
use spur_types::{MemSize, Result};
use spur_vm::policy::RefPolicy;

use crate::dirty::DirtyPolicy;
use crate::events::EventCounts;
use crate::experiments::Scale;
use crate::obs::{ObsParams, ObsReport};
use crate::report::Table;
use crate::system::{SimConfig, SimOverrides, SpurSystem};

/// One Table 3.3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRow {
    /// Workload name.
    pub workload: String,
    /// Memory size.
    pub mem: MemSize,
    /// Measured event frequencies.
    pub events: EventCounts,
}

impl EventRow {
    /// The artifact encoding of one Table 3.3 cell.
    pub fn to_json(&self) -> spur_harness::Json {
        use spur_harness::Json;
        Json::object([
            ("workload", Json::from(self.workload.as_str())),
            ("mem_mb", Json::from(self.mem.megabytes())),
            ("events", self.events.to_json()),
        ])
    }
}

/// Runs the canonical event-measurement configuration for one
/// (workload, memory) point.
///
/// # Errors
///
/// Propagates simulator errors (exhausted memory, bad workload).
pub fn measure_events(workload: &Workload, mem: MemSize, scale: &Scale) -> Result<EventRow> {
    measure_events_obs_with(workload, mem, scale, None, &SimOverrides::default())
        .map(|(row, _)| row)
}

/// [`measure_events`] with optional observability and
/// [`SimOverrides`] applied to the canonical configuration. When `obs`
/// is set, the run is traced and the finalized [`ObsReport`] is
/// returned alongside the row; recording never perturbs the row, and
/// default overrides are the byte-identical pass-through.
///
/// # Errors
///
/// Propagates simulator errors (exhausted memory, bad workload).
pub fn measure_events_obs_with(
    workload: &Workload,
    mem: MemSize,
    scale: &Scale,
    obs: Option<ObsParams>,
    overrides: &SimOverrides,
) -> Result<(EventRow, Option<ObsReport>)> {
    let mut sim = SpurSystem::new(overrides.apply(SimConfig {
        mem,
        dirty: DirtyPolicy::Spur,
        ref_policy: RefPolicy::Miss,
        ..SimConfig::default()
    }))?;
    if let Some(params) = obs {
        sim.enable_obs(params);
    }
    sim.load_workload(workload)?;
    let mut gen = workload.generator(scale.seed);
    sim.run(&mut gen, scale.refs)?;
    let report = sim.finish_obs();
    Ok((
        EventRow {
            workload: workload.name().to_string(),
            mem,
            events: sim.events(),
        },
        report,
    ))
}

/// Renders rows in the paper's Table 3.3 format.
pub fn render_table_3_3(rows: &[EventRow]) -> String {
    let mut t = Table::new("Table 3.3: Event Frequencies");
    t.headers(&[
        "Workload",
        "Size(MB)",
        "N_ds",
        "N_zfod",
        "N_ef=N_dm",
        "N_w-hit(M)",
        "N_w-miss(M)",
        "elapsed(s)",
    ]);
    for r in rows {
        let e = &r.events;
        t.row(vec![
            r.workload.clone(),
            r.mem.megabytes().to_string(),
            e.n_ds.to_string(),
            e.n_zfod.to_string(),
            e.n_ef.to_string(),
            format!("{:.3}", e.n_whit_millions()),
            format!("{:.3}", e.n_wmiss_millions()),
            format!("{:.1}", e.elapsed_seconds()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_trace::workloads::slc;

    #[test]
    fn measures_a_quick_point() {
        let w = slc();
        let scale = Scale::quick();
        let row = measure_events(&w, MemSize::MB8, &scale).unwrap();
        assert_eq!(row.workload, "SLC");
        assert!(row.events.refs == scale.refs);
        assert!(row.events.n_ds > 0);
        assert!(row.events.n_wmiss > 0);
    }

    #[test]
    fn render_includes_all_columns() {
        let rows = vec![EventRow {
            workload: "SLC".into(),
            mem: MemSize::MB5,
            events: EventCounts {
                n_ds: 2349,
                n_zfod: 905,
                n_ef: 237,
                n_whit: 1_270_000,
                n_wmiss: 7_380_000,
                ..EventCounts::default()
            },
        }];
        let text = render_table_3_3(&rows);
        assert!(text.contains("2349"));
        assert!(text.contains("905"));
        assert!(text.contains("1.270"));
        assert!(text.contains("N_w-miss"));
    }
}
