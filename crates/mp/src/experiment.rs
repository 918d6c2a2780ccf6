//! The measured multiprocessor experiment, and the analytic model it
//! replaced.
//!
//! Section 4.1's argument — a daemon maintaining true reference bits
//! "must flush the page from all the caches", so the `REF` policy's
//! maintenance bill grows with the processor count while `MISS`'s stays
//! flat — could only be *argued* on the uniprocessor prototype. This
//! module measures it: `mp_workers(cpus, shared_pages)` sharded by the
//! [`MpScheduler`] across an N-CPU `SpurSystem`, one private cache per
//! CPU, Berkeley ownership on the shared region, sweeping policy × CPU
//! count × sharing degree.
//!
//! The pre-measurement analytic model ([`mp_model`]) stays as a
//! cross-check. It takes the measured 1-CPU rows' daemon flush damage
//! per page flush `d₁` and extrapolates to `n` CPUs as
//! `d(n) = d₁ · ((1 − s) + s · n)`, where `s` is the workload's shared
//! reference fraction: a flushed private page still costs one cache's
//! worth of blocks, while a flushed shared page costs up to every
//! cache's. `MISS` performs no daemon flushes, so its predicted bill
//! is zero at every CPU count.

use spur_cache::counters::CounterEvent;
use spur_core::experiments::Scale;
use spur_core::{DirtyPolicy, ObsParams, ObsReport, SimConfig, SpurSystem};
use spur_harness::Json;
use spur_trace::workloads::mp_workers;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

use crate::sched::MpScheduler;

/// References between periodic daemon clear passes in the measured
/// sweep. `mp_workers` fits entirely in 8 MB, so without a periodic
/// pass the pressure-driven daemon never runs and `REF`'s flush bill
/// would be invisible.
pub const MP_DAEMON_PERIOD: u64 = 100_000;

/// The shared-reference fraction of the `mp_workers` workload
/// (`BehaviorSpec::shared_frac`); the model's sharing knob.
const SHARED_FRAC: f64 = 0.20;

/// The sharing degree of the 1-CPU cells the model extrapolates from.
const MP_MODEL_SHARED_PAGES: u64 = 256;

/// One measured multiprocessor data point.
#[derive(Debug, Clone, PartialEq)]
pub struct MpRow {
    /// Number of processors (and private caches).
    pub cpus: usize,
    /// Reference-bit policy.
    pub policy: RefPolicy,
    /// Pages in the workload's shared region (sharing degree).
    pub shared_pages: u64,
    /// References executed.
    pub refs: u64,
    /// Page-ins.
    pub page_ins: u64,
    /// Pages flushed by the daemon (once per daemon action).
    pub page_flushes: u64,
    /// Cache blocks destroyed by daemon page flushes, across all caches.
    pub flush_writebacks: u64,
    /// Peer-copy invalidations from write-sharing (coherence traffic).
    pub invalidations: u64,
    /// Blocks supplied by an owning peer cache (Berkeley
    /// owner-supplies-data transfers).
    pub owner_supplies: u64,
    /// Modeled elapsed seconds.
    pub elapsed_secs: f64,
}

impl MpRow {
    /// The machine-readable artifact for this cell.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("cpus", Json::from(self.cpus as u64)),
            ("policy", Json::from(self.policy.to_string())),
            ("shared_pages", Json::from(self.shared_pages)),
            ("refs", Json::from(self.refs)),
            ("page_ins", Json::from(self.page_ins)),
            ("page_flushes", Json::from(self.page_flushes)),
            ("flush_writebacks", Json::from(self.flush_writebacks)),
            ("invalidations", Json::from(self.invalidations)),
            ("owner_supplies", Json::from(self.owner_supplies)),
            ("elapsed_secs", Json::Float(self.elapsed_secs)),
        ])
    }
}

/// Runs `mp_workers(cpus, shared_pages)` under `policy` on a
/// `cpus`-CPU node.
///
/// # Errors
///
/// Propagates simulator and scheduler errors.
pub fn measure_mp(
    cpus: usize,
    policy: RefPolicy,
    shared_pages: u64,
    scale: &Scale,
) -> Result<MpRow, String> {
    measure_mp_obs(cpus, policy, shared_pages, scale, None).map(|(row, _)| row)
}

/// [`measure_mp`] with optional observability. Recording never
/// perturbs the row.
///
/// # Errors
///
/// Propagates simulator and scheduler errors.
pub fn measure_mp_obs(
    cpus: usize,
    policy: RefPolicy,
    shared_pages: u64,
    scale: &Scale,
    obs: Option<ObsParams>,
) -> Result<(MpRow, Option<ObsReport>), String> {
    let workload = mp_workers(cpus, shared_pages);
    let config = SimConfig {
        mem: MemSize::MB8,
        dirty: DirtyPolicy::Spur,
        ref_policy: policy,
        cpus,
        // The workload fits in 8 MB, so the pressure-driven daemon
        // would never run; a periodic clear pass is what makes the
        // reference-bit *maintenance* bill visible — exactly the
        // large-memory regime §4.1 argues about.
        daemon_period: Some(MP_DAEMON_PERIOD),
        ..SimConfig::default()
    };
    let sched = MpScheduler::new(&workload, cpus, scale.seed)?;
    let (sim, report) = SpurSystem::new(config)
        .and_then(|sim| sim.simulate(&workload, sched, scale.refs, obs))
        .map_err(|e| e.to_string())?;
    sim.check_invariants()?;
    let stats = sim.vm().stats();
    let row = MpRow {
        cpus,
        policy,
        shared_pages,
        refs: sim.refs(),
        page_ins: stats.page_ins,
        page_flushes: sim.counters().total(CounterEvent::PageFlush),
        flush_writebacks: stats.flush_writebacks,
        invalidations: sim.counters().total(CounterEvent::Invalidation),
        owner_supplies: sim.counters().total(CounterEvent::OwnerSupply),
        elapsed_secs: sim.events().elapsed_seconds(),
    };
    Ok((row, report))
}

/// The stable cell key shared by the `mp` scenario kind, the serving
/// API, and the tests: `mp/04cpu/0256sh/REF`.
pub fn mp_key(cpus: usize, shared_pages: u64, policy: RefPolicy) -> String {
    format!("mp/{cpus:02}cpu/{shared_pages:04}sh/{policy}")
}

/// Renders a sweep as the standard table.
pub fn render_mp(rows: &[MpRow]) -> String {
    let mut t = spur_core::report::Table::new(
        "Multiprocessor reference-bit maintenance (measured on MpSystem)",
    );
    t.headers(&[
        "CPUs",
        "Policy",
        "Shared pages",
        "Page-Ins",
        "Daemon flushes",
        "Flush writebacks",
        "Invalidations",
        "Owner supplies",
        "Elapsed(s)",
    ]);
    for r in rows {
        t.row(vec![
            r.cpus.to_string(),
            r.policy.to_string(),
            r.shared_pages.to_string(),
            r.page_ins.to_string(),
            r.page_flushes.to_string(),
            r.flush_writebacks.to_string(),
            r.invalidations.to_string(),
            r.owner_supplies.to_string(),
            format!("{:.1}", r.elapsed_secs),
        ]);
    }
    t.render()
}

/// One extrapolated multiprocessor data point.
#[derive(Debug, Clone, PartialEq)]
pub struct MpModelRow {
    /// Number of processors the row extrapolates to.
    pub cpus: usize,
    /// Reference-bit policy.
    pub policy: RefPolicy,
    /// Measured uniprocessor daemon flush actions.
    pub base_page_flushes: u64,
    /// Predicted cache blocks destroyed per daemon flush at this CPU
    /// count.
    pub flush_writebacks_per_flush: f64,
}

/// Extrapolates each policy's measured (1 CPU, 256 shared pages) row
/// in `rows` to every CPU count in `cpu_counts`, MISS first. A 1-CPU
/// node is counter-identical to the uniprocessor `SpurSystem`
/// (`tests/uniprocessor_parity.rs`), so these rows are the model's
/// uniprocessor baseline.
///
/// # Errors
///
/// Names the baseline cell when `rows` lacks it.
pub fn mp_model(rows: &[MpRow], cpu_counts: &[usize]) -> Result<Vec<MpModelRow>, String> {
    let mut model = Vec::new();
    for policy in [RefPolicy::Miss, RefPolicy::Ref] {
        let base = rows
            .iter()
            .find(|r| r.cpus == 1 && r.shared_pages == MP_MODEL_SHARED_PAGES && r.policy == policy)
            .ok_or_else(|| {
                format!(
                    "the model needs the measured {} cell",
                    mp_key(1, MP_MODEL_SHARED_PAGES, policy)
                )
            })?;
        let d1 = if base.page_flushes > 0 {
            base.flush_writebacks as f64 / base.page_flushes as f64
        } else {
            0.0
        };
        for &cpus in cpu_counts {
            model.push(MpModelRow {
                cpus,
                policy,
                base_page_flushes: base.page_flushes,
                flush_writebacks_per_flush: d1 * ((1.0 - SHARED_FRAC) + SHARED_FRAC * cpus as f64),
            });
        }
    }
    Ok(model)
}

/// Renders the model table. The title says "extrapolated" because it
/// is: the measured table is [`render_mp`]'s.
pub fn render_mp_model(rows: &[MpModelRow]) -> String {
    let mut t = spur_core::report::Table::new(
        "Multiprocessor reference-bit maintenance (ANALYTIC MODEL, extrapolated from 1 CPU)",
    );
    t.headers(&[
        "CPUs",
        "Policy",
        "1-CPU daemon flushes",
        "Predicted writebacks/flush",
    ]);
    for r in rows {
        t.row(vec![
            r.cpus.to_string(),
            r.policy.to_string(),
            r.base_page_flushes.to_string(),
            format!("{:.2}", r.flush_writebacks_per_flush),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            refs: 400_000,
            seed: 21,
            reps: 1,
            dev_refs_per_hour: 0,
        }
    }

    #[test]
    fn uniprocessor_has_no_coherence_traffic() {
        let row = measure_mp(1, RefPolicy::Miss, 256, &tiny()).unwrap();
        assert_eq!(row.invalidations, 0);
        assert_eq!(row.owner_supplies, 0);
    }

    #[test]
    fn sharing_generates_coherence_traffic() {
        let row = measure_mp(4, RefPolicy::Miss, 256, &tiny()).unwrap();
        assert!(
            row.invalidations > 0,
            "shared writes must invalidate peer copies"
        );
        assert!(
            row.owner_supplies > 0,
            "reads of remotely-dirty blocks must be owner-supplied"
        );
    }

    #[test]
    fn measured_table_keeps_the_qualitative_shape() {
        // The old extrapolated table's shape, now measured: REF's
        // total flush bill (daemon actions and the cache blocks they
        // destroy) grows with the CPU count — more caches hold copies
        // the daemon must flush — while MISS does no daemon flushing
        // at all and stays flat at zero.
        let scale = tiny();
        let ref1 = measure_mp(1, RefPolicy::Ref, 256, &scale).unwrap();
        let ref4 = measure_mp(4, RefPolicy::Ref, 256, &scale).unwrap();
        let miss1 = measure_mp(1, RefPolicy::Miss, 256, &scale).unwrap();
        let miss4 = measure_mp(4, RefPolicy::Miss, 256, &scale).unwrap();
        assert!(ref1.page_flushes > 0, "REF must exercise the daemon");
        assert!(
            ref4.page_flushes > ref1.page_flushes,
            "REF daemon actions grow with CPUs: {} -> {}",
            ref1.page_flushes,
            ref4.page_flushes
        );
        assert!(
            ref4.flush_writebacks > ref1.flush_writebacks,
            "REF flush bill grows with CPUs: {} -> {}",
            ref1.flush_writebacks,
            ref4.flush_writebacks
        );
        assert_eq!(miss1.flush_writebacks, 0, "MISS never daemon-flushes");
        assert_eq!(miss4.flush_writebacks, 0, "MISS stays flat");
    }

    /// The model's baseline: the measured (1 CPU, 256 pages) rows.
    fn baseline(scale: &Scale) -> Vec<MpRow> {
        [RefPolicy::Miss, RefPolicy::Ref]
            .into_iter()
            .map(|policy| measure_mp(1, policy, MP_MODEL_SHARED_PAGES, scale).unwrap())
            .collect()
    }

    #[test]
    fn model_predicts_growth_for_ref_and_flat_zero_for_miss() {
        let rows = mp_model(&baseline(&tiny()), &[1, 4, 8]).unwrap();
        let ref_rows: Vec<_> = rows.iter().filter(|r| r.policy == RefPolicy::Ref).collect();
        let miss_rows: Vec<_> = rows
            .iter()
            .filter(|r| r.policy == RefPolicy::Miss)
            .collect();
        assert!(
            ref_rows[0].base_page_flushes > 0,
            "REF exercises the daemon"
        );
        assert!(
            ref_rows[2].flush_writebacks_per_flush > ref_rows[0].flush_writebacks_per_flush,
            "predicted REF bill grows with CPUs"
        );
        for r in miss_rows {
            assert_eq!(
                r.flush_writebacks_per_flush, 0.0,
                "MISS never daemon-flushes, so the model predicts zero"
            );
        }
    }

    #[test]
    fn measured_growth_agrees_with_the_analytic_model() {
        // The analytic extrapolation is a cross-check: both must
        // predict the same *direction* for the total REF flush bill as
        // CPUs grow. (The model's total at n CPUs is its fixed baseline
        // flush count times the predicted per-flush damage, so growth
        // in per-flush damage is growth in the bill.)
        let scale = tiny();
        let base = baseline(&scale);
        let rows = mp_model(&base, &[1, 4]).unwrap();
        let model_ref: Vec<_> = rows.iter().filter(|r| r.policy == RefPolicy::Ref).collect();
        assert_eq!(model_ref.len(), 2);
        let model_bill = |r: &MpModelRow| r.base_page_flushes as f64 * r.flush_writebacks_per_flush;
        let model_grows = model_bill(model_ref[1]) > model_bill(model_ref[0]);
        let ref1 = &base[1];
        let ref4 = measure_mp(4, RefPolicy::Ref, 256, &scale).unwrap();
        let measured_grows = ref4.flush_writebacks > ref1.flush_writebacks;
        assert!(model_grows, "the model must predict growth");
        assert_eq!(
            model_grows, measured_grows,
            "model and measurement must agree on the direction"
        );
        // And MISS: both say flat zero.
        let model_miss: Vec<_> = rows
            .iter()
            .filter(|r| r.policy == RefPolicy::Miss)
            .collect();
        for r in model_miss {
            assert_eq!(r.flush_writebacks_per_flush, 0.0);
        }
        let miss4 = measure_mp(4, RefPolicy::Miss, 256, &scale).unwrap();
        assert_eq!(miss4.flush_writebacks, 0);
    }

    #[test]
    fn keys_are_stable() {
        assert_eq!(mp_key(4, 256, RefPolicy::Ref), "mp/04cpu/0256sh/REF");
        assert_eq!(mp_key(1, 64, RefPolicy::Miss), "mp/01cpu/0064sh/MISS");
    }
}
