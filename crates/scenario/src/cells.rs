//! Matrix expansion: one scenario → complete, stable-keyed cells.
//!
//! A [`Cell`] is the one description of a runnable experiment cell,
//! whether it came from a scenario matrix or a `POST /v1/jobs` body.
//! [`Cell::job`] wraps the kind's measure function (or, for the kinds
//! with no measure function of their own, one
//! [`SpurSystem::simulate`] step) in `spur_core::jobs::measurement_job`,
//! with the same keys and the same artifact encodings the replaced
//! binaries used — so a cell run through a scenario or the serving API
//! writes the byte-identical artifact the binary wrote. The parity
//! tests in `tests/*_parity.rs` certify this claim per key, per byte,
//! and `tests/artifact_pins.rs` pins every kind's artifact and trace
//! bytes.

use std::sync::Arc;

use spur_cache::assoc::SetAssocCache;
use spur_cache::cache::VirtualCache;
use spur_check::lockstep::Lockstep;
use spur_core::dirty::DirtyPolicy;
use spur_core::experiments::ablation::{
    flush_cost_comparison, measure_cache_scaling_point_obs, CacheScalingRow, FlushComparison,
};
use spur_core::experiments::crossover::{measure_crossover_obs, CrossoverRow};
use spur_core::experiments::events::{measure_events_obs_with, EventRow};
use spur_core::experiments::pageout::{measure_host, PageoutRow};
use spur_core::experiments::refbit::{measure_refbit_obs_with, RefbitRow};
use spur_core::experiments::sweep::{measure_tlb_point, TlbSweepRow};
use spur_core::experiments::Scale;
use spur_core::jobs::measurement_job;
use spur_core::obs::ObsParams;
use spur_core::system::{SimConfig, SimOverrides, SpurSystem};
use spur_core::EventCounts;
use spur_harness::fault::{arm, FaultPlan};
use spur_harness::{Job, Json};
use spur_mp::{measure_mp_obs, mp_key, MpRow};
use spur_trace::record::RecordedTrace;
use spur_trace::spec::format_workload;
use spur_trace::workloads::{devmachine, mp_workers, DevHost, Workload};
use spur_types::hash::{fnv1a, FNV_OFFSET};
use spur_types::{CostParams, MemSize, Protection, CACHE_LINES};
use spur_vm::policy::RefPolicy;

use crate::config::{Kind, Scenario, WorkloadSource};

/// The typed result of one cell — what the legacy binaries' `Job<T>`
/// values were, unified so one report type covers every kind. The
/// artifact JSON (what lands on disk) is built per kind exactly as the
/// legacy binary built it; this enum only feeds the renderers.
#[derive(Debug, Clone)]
pub enum CellValue {
    /// A `flush` cell.
    Flush(FlushComparison),
    /// An `assoc` cell: the miss ratio.
    MissRatio(f64),
    /// A `cache_scaling` cell.
    CacheScaling(CacheScalingRow),
    /// A `crossover` cell.
    Crossover(CrossoverRow),
    /// An `events` cell.
    Events(EventRow),
    /// A `soft_faults` or `watermarks` cell.
    Paging(PagingCell),
    /// A `sim` cell.
    Sim(SimCell),
    /// A `refbit` cell.
    Refbit(RefbitRow),
    /// An `mp` cell.
    Mp(MpRow),
    /// A `pageout` cell.
    Pageout(PageoutRow),
    /// A `tlb` cell.
    Tlb(TlbSweepRow),
}

/// Paging outcome of one inline `SpurSystem` run (the legacy
/// soft-fault and watermark binaries' row type).
#[derive(Debug, Clone, Copy)]
pub struct PagingCell {
    /// Pages read from backing store.
    pub page_ins: u64,
    /// Free-list soft faults taken.
    pub soft_faults: u64,
    /// Modeled elapsed seconds.
    pub elapsed_secs: f64,
}

/// One general policy-matrix point.
#[derive(Debug, Clone, Copy)]
pub struct SimCell {
    /// Necessary dirty-bit faults plus policy-induced excess
    /// (`n_ds + n_ef`) — the paper's cross-policy comparison metric.
    pub dirty_faults: u64,
    /// Pages read from backing store.
    pub page_ins: u64,
    /// Free-list soft faults taken.
    pub soft_faults: u64,
    /// Modeled elapsed seconds.
    pub elapsed_secs: f64,
    /// The full event counters.
    pub events: EventCounts,
}

/// One runnable cell, complete and cloneable: kind, coordinates,
/// workload, memory, resolved scale and observability, overrides, and
/// the run options its job needs. A server queues it and calls
/// [`Cell::job`] on every attempt; the CLI runner calls the same
/// method, so both run the same job.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The harness job key (identical to the legacy binary's), minted
    /// once at construction.
    pub key: String,
    /// The experiment family.
    pub kind: Kind,
    /// (axis, value) pairs, one per declared axis.
    pub coords: Vec<(String, Json)>,
    /// Where the references come from: the `workload` coordinate when
    /// the kind sweeps it, else the scenario-level source.
    pub workload: Option<WorkloadSource>,
    /// Memory size in MB: the `mem_mb` coordinate when the kind sweeps
    /// it, else the scenario-level size.
    pub mem_mb: Option<u32>,
    /// The resolved (and clamped) scale.
    pub scale: Scale,
    /// Per-simulation observability (`None` runs uninstrumented).
    pub obs: Option<ObsParams>,
    /// Configuration overrides (`refbit` and `events` honor them).
    pub overrides: SimOverrides,
    /// Run in lockstep against the `spur-check` oracle (`sim` only).
    pub lockstep: bool,
    /// `(seed, panic_ppm)` fault injection, armed on every
    /// [`Cell::job`] call.
    pub fault_plan: Option<(u64, u64)>,
}

impl Cell {
    /// A cell of `kind` at `coords` (declared-axis order). A `workload`
    /// or `mem_mb` coordinate takes the place of the `workload` /
    /// `mem_mb` given for kinds that fix them outside the matrix;
    /// `key_prefix` renames an `events` cell's table. Overrides and run
    /// options start at their defaults.
    pub fn new(
        kind: Kind,
        coords: Vec<(String, Json)>,
        workload: Option<WorkloadSource>,
        mem_mb: Option<u32>,
        key_prefix: Option<&str>,
        scale: Scale,
        obs: Option<ObsParams>,
    ) -> Cell {
        let mut cell = Cell {
            key: String::new(),
            kind,
            coords,
            workload,
            mem_mb,
            scale,
            obs,
            overrides: SimOverrides::default(),
            lockstep: false,
            fault_plan: None,
        };
        if let Some(Json::Str(name)) = cell.coord("workload") {
            cell.workload = Some(WorkloadSource::Builtin(name.clone()));
        }
        if cell.coord("mem_mb").is_some() {
            cell.mem_mb = Some(cell.u64_at("mem_mb") as u32);
        }
        cell.key = cell.mint_key(key_prefix);
        cell
    }

    /// The coordinate on `axis`, if that axis is declared.
    pub fn coord(&self, axis: &str) -> Option<&Json> {
        self.coords.iter().find(|(a, _)| a == axis).map(|(_, v)| v)
    }

    /// The full-spec identity, the unit a server coalesces and caches
    /// on. The key deliberately omits scale, seed, observability and
    /// overrides; everything that changes a served cell's artifact
    /// bytes is folded in here, so two equal identities are
    /// interchangeable results. (Lockstep and fault plans are scenario
    /// run options; scenario cells are never coalesced or cached.)
    /// Custom workload text enters as a hash of its canonical form:
    /// identities stay short and never embed user payloads.
    pub fn identity(&self) -> String {
        let workload = self
            .simulated_workload()
            .map_or(0, |w| fnv1a(FNV_OFFSET, format_workload(&w).as_bytes()));
        let s = &self.scale;
        format!(
            "{}|wl={workload:016x}|refs={},seed={},reps={},dev={}|obs={:?}|ov={:?}",
            self.key, s.refs, s.seed, s.reps, s.dev_refs_per_hour, self.obs, self.overrides,
        )
    }

    /// Builds the cell's harness job. Called once per run attempt: a
    /// declared fault plan is armed fresh on every call, so a retried
    /// cell meets its injected fault again instead of a spent one.
    pub fn job(&self) -> Job<CellValue> {
        let job = self.unarmed_job();
        match self.fault_plan {
            Some((seed, ppm)) => arm(&Arc::new(FaultPlan::new(seed, ppm)), job, &self.key),
            None => job,
        }
    }

    fn u64_at(&self, axis: &str) -> u64 {
        match self.coord(axis) {
            Some(Json::UInt(u)) => *u,
            Some(Json::Int(i)) => *i as u64,
            _ => unreachable!("validated {axis} coordinate"),
        }
    }

    /// The `ref` coordinate; MISS where the kind leaves it undeclared.
    fn policy(&self) -> RefPolicy {
        match self.coord("ref") {
            Some(Json::Str(s)) => s.parse().expect("canonical policy"),
            _ => RefPolicy::Miss,
        }
    }

    /// The `dirty` coordinate; SPUR where undeclared.
    fn dirty(&self) -> DirtyPolicy {
        match self.coord("dirty") {
            Some(Json::Str(s)) => s.parse().expect("canonical policy"),
            _ => DirtyPolicy::Spur,
        }
    }

    /// The `cpus` coordinate; one where undeclared.
    fn cpus(&self) -> usize {
        match self.coord("cpus") {
            Some(Json::UInt(n)) => *n as usize,
            _ => 1,
        }
    }

    fn mem(&self) -> MemSize {
        MemSize::new(self.mem_mb.expect("kind shape requires mem_mb"))
    }

    fn source(&self) -> WorkloadSource {
        self.workload
            .clone()
            .expect("kind shape requires a workload")
    }

    /// The workload the cell simulates, if it has one. An `mp` cell's
    /// is derived from its coordinates, exactly as `reproduce_mp`
    /// derives it (and its memory is `spur-mp`'s fixed 8 MB node); a
    /// `pageout` cell's is its host's development-machine workload.
    fn simulated_workload(&self) -> Option<Workload> {
        match self.kind {
            Kind::Mp => Some(mp_workers(self.cpus(), self.u64_at("shared_pages"))),
            Kind::Pageout => Some(devmachine(&self.host())),
            _ => self.workload.as_ref().map(WorkloadSource::workload),
        }
    }

    /// The `host` coordinate's row of Table 3.5.
    fn host(&self) -> DevHost {
        DevHost::table_3_5().swap_remove(self.u64_at("host") as usize)
    }

    fn mint_key(&self, key_prefix: Option<&str>) -> String {
        let name = || {
            self.simulated_workload()
                .map(|w| w.name().to_string())
                .unwrap_or_default()
        };
        match self.kind {
            Kind::Flush => flush_key(self.u64_at("occupancy_pct")),
            Kind::Assoc => assoc_key(&name(), self.u64_at("ways") as usize),
            Kind::CacheScaling => cache_scaling_key(self.u64_at("cache_kb") as usize),
            Kind::Crossover => crossover_key(self.period(), self.policy()),
            Kind::Events => events_key(
                key_prefix.unwrap_or("table_3_3"),
                &name(),
                self.mem().megabytes(),
            ),
            Kind::SoftFaults => soft_faults_key(self.policy(), self.soft_faults()),
            Kind::Watermarks => watermarks_key(self.u64_at("high_water") as u32, self.policy()),
            Kind::Sim => sim_key(
                &name(),
                self.mem().megabytes(),
                self.dirty(),
                self.policy(),
                self.cpus(),
            ),
            Kind::Refbit => refbit_key(&name(), self.mem().megabytes(), self.policy()),
            Kind::Mp => mp_key(self.cpus(), self.u64_at("shared_pages"), self.policy()),
            Kind::Pageout => pageout_key(self.u64_at("host") as usize, self.host().name),
            Kind::Tlb => tlb_key(self.u64_at("entries") as usize, self.flush_on_switch()),
        }
    }

    fn period(&self) -> Option<u64> {
        match self.coord("period") {
            Some(Json::Null) => None,
            Some(Json::UInt(p)) => Some(*p),
            _ => unreachable!("validated period coordinate"),
        }
    }

    fn soft_faults(&self) -> bool {
        matches!(self.coord("soft_faults"), Some(Json::Bool(true)))
    }

    fn flush_on_switch(&self) -> bool {
        matches!(self.coord("flush_on_switch"), Some(Json::Bool(true)))
    }
}

/// The `flush` kind's cell key (identical to `ablation_flush`).
pub(crate) fn flush_key(pct: u64) -> String {
    format!("flush/{pct:03}pct")
}

/// The `assoc` kind's cell key (identical to `ablation_associativity`).
pub(crate) fn assoc_key(workload: &str, ways: usize) -> String {
    format!("assoc/{workload}/{ways}way")
}

/// The `cache_scaling` kind's cell key.
pub(crate) fn cache_scaling_key(kb: usize) -> String {
    format!("cache_scaling/{kb:04}KB")
}

/// The `crossover` kind's cell key (identical to
/// `ablation_periodic_daemon`).
pub(crate) fn crossover_key(period: Option<u64>, policy: RefPolicy) -> String {
    let p = period.map_or("off".to_string(), |p| format!("{p:07}"));
    format!("crossover/{p}/{policy}")
}

/// The `events` kind's cell key (`sensitivity/SLC/5MB` with the
/// matching prefix — identical to `ablation_sensitivity`).
pub(crate) fn events_key(prefix: &str, workload: &str, mb: u32) -> String {
    format!("{prefix}/{workload}/{mb}MB")
}

/// The `soft_faults` kind's cell key.
pub(crate) fn soft_faults_key(policy: RefPolicy, enabled: bool) -> String {
    format!(
        "soft_faults/{policy}/{}",
        if enabled { "on" } else { "off" }
    )
}

/// The `watermarks` kind's cell key.
pub(crate) fn watermarks_key(high: u32, policy: RefPolicy) -> String {
    format!("watermarks/{high:03}/{policy}")
}

/// The `sim` kind's cell key: every effective coordinate appears, so
/// adding an axis later never re-keys existing cells.
pub(crate) fn sim_key(
    workload: &str,
    mb: u32,
    dirty: DirtyPolicy,
    policy: RefPolicy,
    cpus: usize,
) -> String {
    format!("sim/{workload}/{mb}MB/{dirty}/{policy}/{cpus}cpu")
}

/// The `refbit` kind's cell key (identical to `reproduce_all`'s
/// Table 4.1 cells).
pub(crate) fn refbit_key(workload: &str, mb: u32, policy: RefPolicy) -> String {
    format!("table_4_1/{workload}/{mb}MB/{policy}")
}

/// The `pageout` kind's cell key (identical to `reproduce_all`'s
/// Table 3.5 cells). Keyed by row index as well as name: Table 3.5
/// samples the machine "mace" twice (two snapshots at different
/// uptimes).
pub(crate) fn pageout_key(index: usize, host: &str) -> String {
    format!("table_3_5/{index}/{host}")
}

/// The `tlb` kind's cell key (identical to the retired `sweep_tlb`
/// binary's).
pub(crate) fn tlb_key(entries: usize, flush_on_switch: bool) -> String {
    let mode = if flush_on_switch { "flush" } else { "tagged" };
    format!("tlb/{entries:04}/{mode}")
}

/// The cartesian product of the declared axes, first axis outermost —
/// the same nesting order as the legacy binaries' loops.
fn cartesian(scenario: &Scenario) -> Vec<Vec<(String, Json)>> {
    let mut combos: Vec<Vec<(String, Json)>> = vec![Vec::new()];
    for axis in &scenario.axes {
        let mut next = Vec::with_capacity(combos.len() * axis.values.len());
        for combo in &combos {
            for value in &axis.values {
                let mut c = combo.clone();
                c.push((axis.name.clone(), value.clone()));
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

impl Scenario {
    /// Expands the validated matrix into its cells at the given
    /// (already resolved and clamped) scale and observability, in
    /// expansion order.
    ///
    /// # Errors
    ///
    /// Returns a message naming the colliding key if two cells expand
    /// to the same key (a backstop — axis-level duplicate detection
    /// should make this unreachable).
    pub fn cells(&self, scale: Scale, obs: Option<ObsParams>) -> Result<Vec<Cell>, String> {
        let mut cells: Vec<Cell> = Vec::new();
        for coords in cartesian(self) {
            let mut cell = Cell::new(
                self.kind,
                coords,
                self.workload.clone(),
                self.mem_mb,
                self.key_prefix.as_deref(),
                scale,
                obs,
            );
            cell.lockstep = self.run.lockstep;
            cell.fault_plan = self.run.fault_plan;
            if cells.iter().any(|c| c.key == cell.key) {
                return Err(format!("matrix: cells collide on key {:?}", cell.key));
            }
            cells.push(cell);
        }
        Ok(cells)
    }
}

/// [`Scenario::cells`], each paired with its job.
///
/// # Errors
///
/// As [`Scenario::cells`].
pub fn expand(
    scenario: &Scenario,
    scale: Scale,
    obs: Option<ObsParams>,
) -> Result<Vec<(Cell, Job<CellValue>)>, String> {
    let cells = scenario.cells(scale, obs)?;
    Ok(cells
        .into_iter()
        .map(|cell| {
            let job = cell.job();
            (cell, job)
        })
        .collect())
}

impl Cell {
    fn unarmed_job(&self) -> Job<CellValue> {
        let key = self.key.clone();
        let (scale, obs, overrides) = (self.scale, self.obs, self.overrides);
        match self.kind {
            Kind::Flush => {
                let frac = self.u64_at("occupancy_pct") as f64 / 100.0;
                measurement_job(key, move || {
                    let cmp = flush_cost_comparison(frac, &CostParams::paper());
                    let artifact = cmp.to_json();
                    Ok((CellValue::Flush(cmp), artifact, None))
                })
            }
            Kind::Assoc => {
                let source = self.source();
                let ways = self.u64_at("ways") as usize;
                measurement_job(key, move || {
                    let workload = source.workload();
                    let mut misses = 0u64;
                    if ways == 1 {
                        // Direct-mapped reference point.
                        let mut cache = VirtualCache::prototype();
                        for r in workload.generator(scale.seed).take(scale.refs as usize) {
                            if !cache.probe(r.addr).hit {
                                misses += 1;
                                cache.fill_for_read(r.addr, Protection::ReadWrite, false);
                            }
                        }
                    } else {
                        let mut cache = SetAssocCache::new(CACHE_LINES as usize, ways);
                        for r in workload.generator(scale.seed).take(scale.refs as usize) {
                            if !cache.probe(r.addr) {
                                misses += 1;
                                cache.fill(r.addr, Protection::ReadWrite, false, false);
                            }
                        }
                    }
                    let ratio = misses as f64 / scale.refs as f64;
                    let artifact = Json::object([
                        ("workload", Json::from(workload.name())),
                        ("ways", Json::from(ways)),
                        ("misses", Json::from(misses)),
                        ("refs", Json::from(scale.refs)),
                        ("miss_ratio", Json::from(ratio)),
                    ]);
                    Ok((CellValue::MissRatio(ratio), artifact, None))
                })
            }
            Kind::CacheScaling => {
                let kb = self.u64_at("cache_kb") as usize;
                let (source, mem) = (self.source(), self.mem());
                measurement_job(key, move || {
                    let (row, rep) =
                        measure_cache_scaling_point_obs(&source.workload(), mem, &scale, kb, obs)?;
                    let artifact = row.to_json();
                    Ok((CellValue::CacheScaling(row), artifact, rep))
                })
            }
            Kind::Crossover => {
                let (period, policy) = (self.period(), self.policy());
                let (source, mem) = (self.source(), self.mem());
                measurement_job(key, move || {
                    let workload = source.workload();
                    let (row, rep) =
                        measure_crossover_obs(&workload, mem, period, policy, &scale, obs)?;
                    let artifact = row.to_json();
                    Ok((CellValue::Crossover(row), artifact, rep))
                })
            }
            Kind::Events => {
                let (source, mem) = (self.source(), self.mem());
                measurement_job(key, move || {
                    let workload = source.workload();
                    let (row, rep) =
                        measure_events_obs_with(&workload, mem, &scale, obs, &overrides)?;
                    let artifact = row.to_json();
                    Ok((CellValue::Events(row), artifact, rep))
                })
            }
            Kind::SoftFaults => {
                let (policy, enabled) = (self.policy(), self.soft_faults());
                let cfg = SimConfig {
                    mem: self.mem(),
                    dirty: DirtyPolicy::Spur,
                    ref_policy: policy,
                    soft_faults: enabled,
                    ..SimConfig::default()
                };
                let lead = [
                    ("policy", Json::from(policy.to_string())),
                    ("soft_faults_enabled", Json::from(enabled)),
                ];
                self.paging_job(cfg, lead)
            }
            Kind::Watermarks => {
                let (high, policy) = (self.u64_at("high_water") as u32, self.policy());
                let cfg = SimConfig {
                    mem: self.mem(),
                    dirty: DirtyPolicy::Spur,
                    ref_policy: policy,
                    free_low_water: (high / 4).max(8),
                    free_high_water: high,
                    ..SimConfig::default()
                };
                let lead = [
                    ("free_high_water", Json::from(high)),
                    ("policy", Json::from(policy.to_string())),
                ];
                self.paging_job(cfg, lead)
            }
            Kind::Sim => self.sim_job(),
            Kind::Refbit => {
                let (source, mem, policy) = (self.source(), self.mem(), self.policy());
                measurement_job(key, move || {
                    let workload = source.workload();
                    let (row, rep) =
                        measure_refbit_obs_with(&workload, mem, policy, &scale, obs, &overrides)?;
                    let artifact = row.to_json();
                    Ok((CellValue::Refbit(row), artifact, rep))
                })
            }
            Kind::Mp => {
                let (cpus, policy, shared) =
                    (self.cpus(), self.policy(), self.u64_at("shared_pages"));
                measurement_job(key, move || {
                    let (row, rep) = measure_mp_obs(cpus, policy, shared, &scale, obs)?;
                    let artifact = row.to_json();
                    Ok((CellValue::Mp(row), artifact, rep))
                })
            }
            Kind::Pageout => {
                // Uninstrumented, with the host's own fixed seed.
                let host = self.host();
                measurement_job(key, move || {
                    let row = measure_host(&host, &scale)?;
                    let artifact = row.to_json();
                    Ok((CellValue::Pageout(row), artifact, None))
                })
            }
            Kind::Tlb => {
                // Uninstrumented: the baseline TLB model has no event
                // stream.
                let entries = self.u64_at("entries") as usize;
                let (flush, source, mem) = (self.flush_on_switch(), self.source(), self.mem());
                measurement_job(key, move || {
                    let workload = source.workload();
                    let row = measure_tlb_point(&workload, mem, entries, flush, &scale)?;
                    let artifact = row.to_json();
                    Ok((CellValue::Tlb(row), artifact, None))
                })
            }
        }
    }

    /// One [`SpurSystem::simulate`] run under `cfg` for the paging
    /// kinds (`soft_faults`, `watermarks`); the artifact is `lead`
    /// followed by the paging counters.
    fn paging_job(&self, cfg: SimConfig, lead: [(&'static str, Json); 2]) -> Job<CellValue> {
        let (source, scale, obs) = (self.source(), self.scale, self.obs);
        measurement_job(self.key.clone(), move || {
            let workload = source.workload();
            let stream = workload.generator(scale.seed);
            let (sim, rep) = SpurSystem::new(cfg)?.simulate(&workload, stream, scale.refs, obs)?;
            let stats = sim.vm().stats();
            let row = PagingCell {
                page_ins: stats.page_ins,
                soft_faults: stats.soft_faults,
                elapsed_secs: sim.events().elapsed_seconds(),
            };
            let artifact = Json::object(lead.into_iter().chain([
                ("page_ins", Json::from(row.page_ins)),
                ("soft_faults_taken", Json::from(row.soft_faults)),
                ("elapsed_secs", Json::from(row.elapsed_secs)),
            ]));
            Ok((CellValue::Paging(row), artifact, rep))
        })
    }

    /// The general matrix point: one [`SpurSystem::simulate`] run (or
    /// a lockstep oracle run) per (mem, dirty, ref, cpus) coordinate,
    /// over a builtin workload, a spec, or a recorded trace.
    fn sim_job(&self) -> Job<CellValue> {
        let mb = self.mem().megabytes();
        let (dirty, policy, cpus) = (self.dirty(), self.policy(), self.cpus());
        let (source, scale, obs, lockstep) = (self.source(), self.scale, self.obs, self.lockstep);
        measurement_job(self.key.clone(), move || {
            let workload = source.workload();
            let cfg = SimConfig {
                mem: MemSize::new(mb),
                dirty,
                ref_policy: policy,
                cpus,
                ..SimConfig::default()
            };
            let trace = match source.trace_path() {
                None => None,
                Some(path) => Some(
                    RecordedTrace::load(path)
                        .map_err(|e| format!("loading recorded trace {path:?}: {e}"))?,
                ),
            };
            let (row, rep) = if lockstep {
                let mut check = Lockstep::new(cfg)?;
                check.load_workload(&workload)?;
                match &trace {
                    Some(t) => check.run(&mut t.iter(), scale.refs),
                    None => check.run(&mut workload.generator(scale.seed), scale.refs),
                }
                .map_err(|d| format!("lockstep divergence: {d}"))?;
                (SimCell::of(check.system()), None)
            } else {
                let sim = SpurSystem::new(cfg)?;
                let (sim, rep) = match &trace {
                    Some(t) => sim.simulate(&workload, t.iter(), scale.refs, obs)?,
                    None => {
                        sim.simulate(&workload, workload.generator(scale.seed), scale.refs, obs)?
                    }
                };
                (SimCell::of(&sim), rep)
            };
            let artifact = Json::object([
                ("workload", Json::from(workload.name())),
                ("mem_mb", Json::from(mb)),
                ("dirty", Json::from(dirty.to_string())),
                ("ref", Json::from(policy.to_string())),
                ("cpus", Json::from(cpus)),
                ("dirty_faults", Json::from(row.dirty_faults)),
                ("page_ins", Json::from(row.page_ins)),
                ("soft_faults_taken", Json::from(row.soft_faults)),
                ("elapsed_secs", Json::from(row.elapsed_secs)),
                ("events", row.events.to_json()),
            ]);
            Ok((CellValue::Sim(row), artifact, rep))
        })
    }
}

impl SimCell {
    /// The point's counters, read off a finished system.
    fn of(sim: &SpurSystem) -> SimCell {
        let events = sim.events();
        let stats = sim.vm().stats();
        SimCell {
            dirty_faults: events.n_ds + events.n_ef,
            page_ins: stats.page_ins,
            soft_faults: stats.soft_faults,
            elapsed_secs: events.elapsed_seconds(),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cfg: &str) -> Scenario {
        Scenario::parse_str(cfg).unwrap()
    }

    #[test]
    fn expansion_keys_match_the_legacy_schemes() {
        let s = parse(
            r#"{"schema_version":1,"name":"t","experiment":"crossover",
                "workload":"WORKLOAD1","mem_mb":8,
                "matrix":{"period":[null,500000,100000],"ref":["MISS","REF","NOREF"]}}"#,
        );
        let cells = s.cells(Scale::quick(), None).unwrap();
        let keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys[0], "crossover/off/MISS");
        assert_eq!(keys[3], "crossover/0500000/MISS");
        assert_eq!(keys[8], "crossover/0100000/NOREF");
        assert_eq!(cells.len(), 9);
    }

    #[test]
    fn expansion_order_is_first_axis_outermost() {
        let s = parse(
            r#"{"schema_version":1,"name":"t","experiment":"assoc",
                "matrix":{"workload":["SLC","WORKLOAD1"],"ways":[1,2,4,8]}}"#,
        );
        let cells = s.cells(Scale::quick(), None).unwrap();
        let keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "assoc/SLC/1way",
                "assoc/SLC/2way",
                "assoc/SLC/4way",
                "assoc/SLC/8way",
                "assoc/WORKLOAD1/1way",
                "assoc/WORKLOAD1/2way",
                "assoc/WORKLOAD1/4way",
                "assoc/WORKLOAD1/8way",
            ]
        );
    }

    #[test]
    fn flush_and_watermark_keys_zero_pad_like_the_binaries() {
        let s = parse(
            r#"{"schema_version":1,"name":"t","experiment":"flush",
                "matrix":{"occupancy_pct":[5,10,100]}}"#,
        );
        let keys: Vec<String> = s
            .cells(Scale::quick(), None)
            .unwrap()
            .into_iter()
            .map(|c| c.key)
            .collect();
        assert_eq!(keys, ["flush/005pct", "flush/010pct", "flush/100pct"]);

        let s = parse(
            r#"{"schema_version":1,"name":"t","experiment":"watermarks",
                "workload":"WORKLOAD1","mem_mb":5,
                "matrix":{"high_water":[32,320],"ref":["MISS"]}}"#,
        );
        let keys: Vec<String> = s
            .cells(Scale::quick(), None)
            .unwrap()
            .into_iter()
            .map(|c| c.key)
            .collect();
        assert_eq!(keys, ["watermarks/032/MISS", "watermarks/320/MISS"]);
    }

    #[test]
    fn sim_keys_carry_effective_defaults_for_undeclared_axes() {
        let s = parse(
            r#"{"schema_version":1,"name":"t","experiment":"sim",
                "workload":"SLC","matrix":{"mem_mb":[5],"dirty":["MIN","FAULT"]}}"#,
        );
        let keys: Vec<String> = s
            .cells(Scale::quick(), None)
            .unwrap()
            .into_iter()
            .map(|c| c.key)
            .collect();
        assert_eq!(
            keys,
            ["sim/SLC/5MB/MIN/MISS/1cpu", "sim/SLC/5MB/FAULT/MISS/1cpu"]
        );
    }

    #[test]
    fn coords_follow_declared_axis_order() {
        let s = parse(
            r#"{"schema_version":1,"name":"t","experiment":"soft_faults",
                "workload":"WORKLOAD1","mem_mb":5,
                "matrix":{"ref":["MISS","NOREF"],"soft_faults":[true,false]}}"#,
        );
        let cells = s.cells(Scale::quick(), None).unwrap();
        assert_eq!(
            cells[0].coords[0],
            ("ref".to_string(), Json::Str("MISS".into()))
        );
        assert_eq!(
            cells[0].coords[1],
            ("soft_faults".to_string(), Json::Bool(true))
        );
        assert_eq!(cells[1].key, "soft_faults/MISS/off");
        assert_eq!(cells[2].key, "soft_faults/NOREF/on");
    }

    #[test]
    fn pageout_keys_carry_the_row_index_and_host_name() {
        let s = parse(
            r#"{"schema_version":1,"name":"t","experiment":"pageout",
                "matrix":{"host":[0, 2, 5]}}"#,
        );
        let keys: Vec<String> = s
            .cells(Scale::quick(), None)
            .unwrap()
            .into_iter()
            .map(|c| c.key)
            .collect();
        assert_eq!(
            keys,
            ["table_3_5/0/mace", "table_3_5/2/mace", "table_3_5/5/murder"]
        );
    }

    #[test]
    fn overrides_change_the_simulation() {
        let s = parse(
            r#"{"schema_version":1,"name":"t","experiment":"events",
                "matrix":{"workload":["SLC"],"mem_mb":[5]}}"#,
        );
        let scale = Scale {
            refs: 20_000,
            ..Scale::quick()
        };
        let mut cell = s.cells(scale, None).unwrap().remove(0);
        let artifact =
            |cell: &Cell| spur_harness::job_artifact_json(&spur_harness::run_one(cell.job()));
        let base = artifact(&cell);
        // A periodic clear-only daemon pass every 1000 references adds
        // scans the baseline never takes.
        cell.overrides.daemon_period = Some(Some(1000));
        assert_ne!(base, artifact(&cell), "the periodic daemon must be visible");
    }

    #[test]
    fn every_job_call_arms_a_fresh_fault_plan() {
        // Once-semantics within one plan would let a second attempt
        // pass; a fresh plan per call fails it again, like the first.
        let s = parse(
            r#"{"schema_version":1,"name":"t","experiment":"flush",
                "matrix":{"occupancy_pct":[10]},
                "run":{"fault_plan":{"seed":1,"panic_ppm":1000000}}}"#,
        );
        let cell = &s.cells(Scale::quick(), None).unwrap()[0];
        for _ in 0..2 {
            let done = spur_harness::run_one(cell.job());
            let failure = done.failure().expect("the plan trips every call");
            assert_eq!(failure.kind, spur_harness::FailureKind::Panic);
        }
    }
}
