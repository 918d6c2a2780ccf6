//! The scenario config format: strict, schema-versioned, std-only JSON.
//!
//! A scenario file is one reviewable artifact describing an entire
//! experiment matrix: the workload source, the axes to sweep, the run
//! options, and the expected shape of the results. Parsing is *strict*
//! — unknown fields, duplicate matrix-axis values, and empty axes are
//! hard errors, each reported with the JSON path of the offending
//! value (`matrix.dirty[2]: duplicate "FLUSH"`), so a typo'd config
//! can never silently run a different experiment than the one reviewed.

use std::sync::Arc;

use spur_core::dirty::DirtyPolicy;
use spur_core::experiments::Scale;
use spur_harness::Json;
use spur_obs::validate::parse;
use spur_trace::spec::parse_workload;
use spur_trace::workloads::{slc, workload1, DevHost, Workload};
use spur_vm::policy::RefPolicy;

use crate::asserts::{parse_assertions, Assertion};

/// The scenario schema version this crate reads and writes.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// Guardrail on a scenario's resolved `scale.refs`.
pub(crate) const MAX_REFS: u64 = 100_000_000;

/// Guardrail on `scale.reps`.
pub(crate) const MAX_REPS: u32 = 16;

/// Largest accepted memory size in megabytes.
pub const MAX_MEM_MB: u64 = 4096;

/// Largest matrix a single scenario may expand to.
pub(crate) const MAX_CELLS: usize = 4096;

/// Largest `shared_pages` coordinate of an `mp` cell.
pub(crate) const MAX_SHARED_PAGES: u64 = 8192;

/// Largest `entries` coordinate of a `tlb` cell. The baseline TLB is a
/// linear-scan LRU, so a cell's time grows with its size.
pub(crate) const MAX_TLB_ENTRIES: u64 = 4096;

/// Guardrail on `scale.dev_refs_per_hour`: a `pageout` cell simulates
/// up to 119 hours of uptime at this rate.
pub(crate) const MAX_DEV_REFS_PER_HOUR: u64 = 1_000_000;

/// Where a scenario's references come from.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// A named paper workload (`SLC`, `WORKLOAD1`).
    Builtin(String),
    /// A full workload-spec text (the `spur-trace::spec` format),
    /// shared rather than copied by every cell of a matrix.
    Spec(Arc<str>),
    /// A recorded `SPURTRC1` trace file, replayed bit-identically. The
    /// region map is not stored in the trace, so a companion workload
    /// (builtin or spec) provides it.
    Trace {
        /// Path of the recorded trace, relative to the working
        /// directory the scenario runs in.
        path: String,
        /// The workload whose regions the replay registers.
        regions: Box<WorkloadSource>,
    },
}

impl WorkloadSource {
    /// Resolves the source to the region-defining [`Workload`].
    /// Infallible after validation — builtins were checked at parse
    /// time and spec texts were parsed once already.
    pub(crate) fn workload(&self) -> Workload {
        match self {
            WorkloadSource::Builtin(name) => match name.as_str() {
                "SLC" => slc(),
                _ => workload1(),
            },
            WorkloadSource::Spec(text) => {
                parse_workload(text).expect("spec text validated at parse time")
            }
            WorkloadSource::Trace { regions, .. } => regions.workload(),
        }
    }

    /// A spec-text source, validated by parsing it once.
    ///
    /// # Errors
    ///
    /// Returns a `path`-qualified message if the text is not a valid
    /// workload spec.
    pub fn spec(text: &str, path: &str) -> Result<WorkloadSource, String> {
        parse_workload(text).map_err(|e| format!("{path}: bad workload spec: {e}"))?;
        Ok(WorkloadSource::Spec(text.into()))
    }

    /// The recorded-trace path, when this source replays one.
    pub(crate) fn trace_path(&self) -> Option<&str> {
        match self {
            WorkloadSource::Trace { path, .. } => Some(path),
            _ => None,
        }
    }
}

/// Which experiment family a scenario's cells run. Each kind fixes the
/// matrix axes it accepts and the key scheme its cells use — the same
/// keys the binaries it replaced minted, so their artifacts stay
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Tag-checked vs tag-blind page flush (axis: `occupancy_pct`).
    Flush,
    /// Cache associativity miss ratios (axes: `workload`, `ways`).
    Assoc,
    /// MISS-approximation quality vs cache size (axis: `cache_kb`).
    CacheScaling,
    /// Daemon period × reference policy (axes: `period`, `ref`).
    Crossover,
    /// Table 3.3 event frequencies (axes: `workload`, `mem_mb`).
    Events,
    /// Free-list soft-fault window on/off (axes: `ref`, `soft_faults`).
    SoftFaults,
    /// Daemon watermark sweep (axes: `high_water`, `ref`).
    Watermarks,
    /// The general policy-matrix cell: one `SpurSystem` run per
    /// (memory, dirty, ref, cpus) point (axes: `mem_mb`, `dirty`,
    /// `ref`, `cpus`).
    Sim,
    /// Table 4.1 reference-bit policy cells (axes: `workload`,
    /// `mem_mb`, `ref`).
    Refbit,
    /// §4.1's measured multiprocessor cells on `spur-mp` (axes: `ref`,
    /// `cpus`, `shared_pages`).
    Mp,
    /// Table 3.5 development-host page-outs (axis: `host`, row indices
    /// into `DevHost::table_3_5()`).
    Pageout,
    /// The conventional TLB baseline's reach (axes: `entries`,
    /// `flush_on_switch`).
    Tlb,
}

impl Kind {
    /// Every kind, in config-documentation order.
    pub(crate) const ALL: [Kind; 12] = [
        Kind::Flush,
        Kind::Assoc,
        Kind::CacheScaling,
        Kind::Crossover,
        Kind::Events,
        Kind::SoftFaults,
        Kind::Watermarks,
        Kind::Sim,
        Kind::Refbit,
        Kind::Mp,
        Kind::Pageout,
        Kind::Tlb,
    ];

    /// The config-file name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Flush => "flush",
            Kind::Assoc => "assoc",
            Kind::CacheScaling => "cache_scaling",
            Kind::Crossover => "crossover",
            Kind::Events => "events",
            Kind::SoftFaults => "soft_faults",
            Kind::Watermarks => "watermarks",
            Kind::Sim => "sim",
            Kind::Refbit => "refbit",
            Kind::Mp => "mp",
            Kind::Pageout => "pageout",
            Kind::Tlb => "tlb",
        }
    }

    /// The kind with config-file name `name` (inverse of
    /// [`Kind::as_str`]).
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

/// One matrix axis: a name and its ordered, duplicate-free values.
/// Values stay as JSON scalars — the same representation assertion
/// selectors use — and the declared order is the order `monotonic`
/// assertions and the legacy renderers honor.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis name (`mem_mb`, `dirty`, …).
    pub name: String,
    /// The axis values, in declared order.
    pub values: Vec<Json>,
}

/// Per-run options: observability, oracle lockstep, fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Observability on (default) or off. Off restores artifacts
    /// byte-identical to an uninstrumented run.
    pub obs: bool,
    /// Epoch length for counter time series (`None` records none).
    pub epoch: Option<u64>,
    /// Run every `sim` cell in lockstep against the independent
    /// `spur-check` oracle; a divergence fails the cell.
    pub lockstep: bool,
    /// Deterministic fault injection: `(seed, panic_ppm)` arms every
    /// cell with `spur_harness::fault` — a tripped cell records a
    /// panic failure, exactly like the serve path's chaos mode.
    pub fault_plan: Option<(u64, u64)>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            obs: true,
            epoch: None,
            lockstep: false,
            fault_plan: None,
        }
    }
}

/// A parsed, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Schema version (currently always `SCHEMA_VERSION`).
    pub schema_version: u64,
    /// Scenario name — the artifact run directory is
    /// `<name>-<scale>/`, so legacy configs carry the binary's name.
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// The experiment family.
    pub kind: Kind,
    /// Scenario-level workload (kinds whose workload is not an axis).
    pub workload: Option<WorkloadSource>,
    /// Scenario-level memory size (kinds without a `mem_mb` axis).
    pub mem_mb: Option<u32>,
    /// The matrix axes, in declared order.
    pub axes: Vec<Axis>,
    /// Scale from the config; `None` defers to the runner's default
    /// (or its `--scale` flag).
    pub scale: Option<Scale>,
    /// Clamp on `scale.refs`, preserving the legacy binaries'
    /// per-experiment caps under `--scale full`.
    pub max_refs: Option<u64>,
    /// Run options.
    pub run: RunOptions,
    /// Key prefix override of an `events` scenario
    /// (`sensitivity/SLC/5MB` vs the default `table_3_3/...`); no other
    /// kind accepts one.
    pub key_prefix: Option<String>,
    /// Legacy stdout header: when set, `--legacy-stdout` runs print
    /// the experiment binaries' [`crate::render::banner`] with this
    /// title, byte-for-byte what the folded-in binary printed
    /// (scenarios for binaries that printed no header, like
    /// `ablation_flush`, omit it).
    pub legacy_header: Option<String>,
    /// Expected-shape assertions.
    pub assertions: Vec<Assertion>,
}

impl Scenario {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// Returns a path-qualified message for the first violation.
    pub fn parse_str(text: &str) -> Result<Scenario, String> {
        let doc = parse(text).map_err(|e| format!("scenario is not valid JSON: {e}"))?;
        parse_scenario(&doc)
    }

    /// [`Scenario::parse_str`] over raw bytes (HTTP bodies).
    ///
    /// # Errors
    ///
    /// Returns a path-qualified message for the first violation.
    pub fn parse_bytes(body: &[u8]) -> Result<Scenario, String> {
        let text = std::str::from_utf8(body).map_err(|_| "scenario is not UTF-8".to_string())?;
        Scenario::parse_str(text)
    }

    /// The axis with the given name, if declared.
    pub(crate) fn axis(&self, name: &str) -> Option<&Axis> {
        self.axes.iter().find(|a| a.name == name)
    }

    /// The scale the scenario runs at: `override_scale` (a runner's
    /// `--scale` flag) wins over the config's `scale`, which wins over
    /// the default preset; the scenario's `max_refs` clamp applies
    /// last, exactly like the legacy binaries clamped their parsed
    /// scale.
    pub fn resolve_scale(&self, override_scale: Option<Scale>) -> Scale {
        let mut scale = override_scale
            .or(self.scale)
            .unwrap_or_else(Scale::default_scale);
        if let Some(cap) = self.max_refs {
            scale.refs = scale.refs.min(cap);
        }
        scale
    }
}

// ---------------------------------------------------------------------------
// Strict parsing
// ---------------------------------------------------------------------------

fn fields(doc: &Json) -> &[(String, Json)] {
    match doc {
        Json::Obj(fields) => fields,
        _ => &[],
    }
}

/// The value of object field `key`, if present.
pub fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    fields(doc).iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Rejects object fields outside `allowed`, naming the path.
fn check_unknown(doc: &Json, path: &str, allowed: &[&str]) -> Result<(), String> {
    let place = if path.is_empty() { "scenario" } else { path };
    for (key, _) in fields(doc) {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "{place}: unknown field {key:?} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn at(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// `v` as a string, or a `path`-qualified error.
pub fn as_str<'a>(v: &'a Json, path: &str) -> Result<&'a str, String> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err(format!("{path}: must be a string")),
    }
}

/// `v` as a non-negative integer, or a `path`-qualified error.
pub fn as_u64(v: &Json, path: &str) -> Result<u64, String> {
    match v {
        Json::UInt(u) => Ok(*u),
        Json::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => Err(format!("{path}: must be a non-negative integer")),
    }
}

fn as_bool(v: &Json, path: &str) -> Result<bool, String> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("{path}: must be a boolean")),
    }
}

/// Optional non-negative integer field `key` of the object at `path`.
pub fn opt_u64(doc: &Json, path: &str, key: &str) -> Result<Option<u64>, String> {
    field(doc, key)
        .map(|v| as_u64(v, &at(path, key)))
        .transpose()
}

/// Required field `key` of the object at `path`.
pub fn require<'a>(doc: &'a Json, path: &str, key: &str) -> Result<&'a Json, String> {
    field(doc, key).ok_or_else(|| format!("{}: missing required field", at(path, key)))
}

fn parse_scenario(doc: &Json) -> Result<Scenario, String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err("scenario must be a JSON object".into());
    }
    check_unknown(
        doc,
        "",
        &[
            "schema_version",
            "name",
            "description",
            "experiment",
            "workload",
            "mem_mb",
            "matrix",
            "scale",
            "max_refs",
            "run",
            "key_prefix",
            "legacy_header",
            "assertions",
        ],
    )?;

    let schema_version = as_u64(require(doc, "", "schema_version")?, "schema_version")?;
    if schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version: expected {SCHEMA_VERSION}, got {schema_version}"
        ));
    }
    let name = as_str(require(doc, "", "name")?, "name")?.to_string();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err("name: must be a non-empty [A-Za-z0-9_-]+ identifier".into());
    }
    let description = match field(doc, "description") {
        Some(v) => as_str(v, "description")?.to_string(),
        None => String::new(),
    };

    let experiment = as_str(require(doc, "", "experiment")?, "experiment")?;
    let Some(kind) = Kind::from_name(experiment) else {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.as_str()).collect();
        return Err(format!(
            "experiment: unknown experiment {experiment:?} (expected {})",
            names.join("|")
        ));
    };

    let workload = field(doc, "workload")
        .map(|v| parse_workload_source(v, "workload"))
        .transpose()?;
    let mem_mb = match opt_u64(doc, "", "mem_mb")? {
        None => None,
        Some(mb) => {
            if mb == 0 || mb > MAX_MEM_MB {
                return Err(format!("mem_mb: must be in 1..={MAX_MEM_MB}, got {mb}"));
            }
            Some(mb as u32)
        }
    };

    let axes = parse_matrix(require(doc, "", "matrix")?, kind)?;

    let scale = field(doc, "scale")
        .map(|v| {
            check_unknown(v, "scale", &["refs", "seed", "reps", "dev_refs_per_hour"])?;
            parse_scale(v, Scale::default_scale())
        })
        .transpose()?;
    let max_refs = match opt_u64(doc, "", "max_refs")? {
        None => None,
        Some(0) => return Err("max_refs: must be positive".into()),
        Some(n) => Some(n),
    };
    let run = match field(doc, "run") {
        None => RunOptions::default(),
        Some(v) => parse_run(v)?,
    };
    let key_prefix = match field(doc, "key_prefix") {
        None => None,
        Some(v) => {
            let p = as_str(v, "key_prefix")?;
            if p.is_empty() || p.contains('/') {
                return Err("key_prefix: must be a non-empty segment without '/'".into());
            }
            Some(p.to_string())
        }
    };
    let legacy_header = field(doc, "legacy_header")
        .map(|v| as_str(v, "legacy_header").map(str::to_string))
        .transpose()?;
    let assertions = match field(doc, "assertions") {
        None => Vec::new(),
        Some(v) => parse_assertions(v, &axes)?,
    };

    let scenario = Scenario {
        schema_version,
        name,
        description,
        kind,
        workload,
        mem_mb,
        axes,
        scale,
        max_refs,
        run,
        key_prefix,
        legacy_header,
        assertions,
    };
    check_kind_shape(&scenario)?;
    Ok(scenario)
}

fn parse_workload_source(v: &Json, path: &str) -> Result<WorkloadSource, String> {
    match v {
        Json::Str(name) => {
            let upper = name.to_ascii_uppercase();
            if upper != "SLC" && upper != "WORKLOAD1" {
                return Err(format!(
                    "{path}: unknown builtin workload {name:?} (expected SLC|WORKLOAD1)"
                ));
            }
            Ok(WorkloadSource::Builtin(upper))
        }
        Json::Obj(_) => {
            check_unknown(v, path, &["builtin", "spec", "trace", "regions"])?;
            let builtin = field(v, "builtin");
            let spec = field(v, "spec");
            let trace = field(v, "trace");
            match (builtin, spec, trace) {
                (Some(b), None, None) => parse_workload_source(b, &at(path, "builtin")),
                (None, Some(s), None) => {
                    let path = at(path, "spec");
                    WorkloadSource::spec(as_str(s, &path)?, &path)
                }
                (None, None, Some(t)) => {
                    let trace_path = as_str(t, &at(path, "trace"))?.to_string();
                    let regions = require(v, path, "regions")?;
                    let regions = parse_workload_source(regions, &at(path, "regions"))?;
                    if matches!(regions, WorkloadSource::Trace { .. }) {
                        return Err(format!("{}: must not nest a trace", at(path, "regions")));
                    }
                    Ok(WorkloadSource::Trace {
                        path: trace_path,
                        regions: Box::new(regions),
                    })
                }
                _ => Err(format!(
                    "{path}: give exactly one of builtin, spec, or trace (+ regions)"
                )),
            }
        }
        _ => Err(format!("{path}: must be a builtin name or an object")),
    }
}

/// The axes each kind accepts, in their canonical (legacy-loop) order.
fn allowed_axes(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Flush => &["occupancy_pct"],
        Kind::Assoc => &["workload", "ways"],
        Kind::CacheScaling => &["cache_kb"],
        Kind::Crossover => &["period", "ref"],
        Kind::Events => &["workload", "mem_mb"],
        Kind::SoftFaults => &["ref", "soft_faults"],
        Kind::Watermarks => &["high_water", "ref"],
        Kind::Sim => &["mem_mb", "dirty", "ref", "cpus"],
        Kind::Refbit => &["workload", "mem_mb", "ref"],
        Kind::Mp => &["ref", "cpus", "shared_pages"],
        Kind::Pageout => &["host"],
        Kind::Tlb => &["entries", "flush_on_switch"],
    }
}

fn parse_matrix(doc: &Json, kind: Kind) -> Result<Vec<Axis>, String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err("matrix: must be an object of axes".into());
    }
    check_unknown(doc, "matrix", allowed_axes(kind))?;
    let mut axes = Vec::new();
    for (name, values) in fields(doc) {
        let path = at("matrix", name);
        let Json::Arr(values) = values else {
            return Err(format!("{path}: axis must be an array"));
        };
        if values.is_empty() {
            return Err(format!("{path}: axis must not be empty"));
        }
        let mut canonical: Vec<Json> = Vec::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            let v = parse_axis_value(kind, name, v, &format!("{path}[{i}]"))?;
            if canonical.contains(&v) {
                return Err(format!("{path}[{i}]: duplicate {}", v.encode()));
            }
            canonical.push(v);
        }
        axes.push(Axis {
            name: name.clone(),
            values: canonical,
        });
    }
    Ok(axes)
}

/// Validates one axis value and canonicalizes it (policy names to
/// their `Display` form, builtin workloads to upper case) so that the
/// same coordinate always compares and keys identically.
///
/// # Errors
///
/// Returns a `path`-qualified message for an out-of-range or
/// mistyped value.
pub fn parse_axis_value(kind: Kind, axis: &str, v: &Json, path: &str) -> Result<Json, String> {
    match axis {
        "occupancy_pct" => {
            let pct = as_u64(v, path)?;
            if pct == 0 || pct > 100 {
                return Err(format!("{path}: must be in 1..=100, got {pct}"));
            }
            Ok(Json::UInt(pct))
        }
        "workload" => {
            let name = as_str(v, path)?.to_ascii_uppercase();
            if name != "SLC" && name != "WORKLOAD1" {
                return Err(format!("{path}: unknown workload (expected SLC|WORKLOAD1)"));
            }
            Ok(Json::Str(name))
        }
        "ways" => {
            let ways = as_u64(v, path)?;
            if !matches!(ways, 1 | 2 | 4 | 8 | 16) {
                return Err(format!("{path}: ways must be one of 1,2,4,8,16"));
            }
            Ok(Json::UInt(ways))
        }
        "cache_kb" => {
            let kb = as_u64(v, path)?;
            if kb == 0 || kb > 65536 {
                return Err(format!("{path}: must be in 1..=65536 KB, got {kb}"));
            }
            Ok(Json::UInt(kb))
        }
        "period" => match v {
            Json::Null => Ok(Json::Null),
            _ => {
                let p = as_u64(v, path)?;
                if p == 0 {
                    return Err(format!("{path}: period must be positive or null"));
                }
                Ok(Json::UInt(p))
            }
        },
        "ref" => {
            let policy = as_str(v, path)?
                .parse::<RefPolicy>()
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(Json::Str(policy.to_string()))
        }
        "dirty" => {
            let policy = as_str(v, path)?
                .parse::<DirtyPolicy>()
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(Json::Str(policy.to_string()))
        }
        "soft_faults" | "flush_on_switch" => Ok(Json::Bool(as_bool(v, path)?)),
        "mem_mb" => {
            let mb = as_u64(v, path)?;
            if mb == 0 || mb > MAX_MEM_MB {
                return Err(format!("{path}: must be in 1..={MAX_MEM_MB}, got {mb}"));
            }
            Ok(Json::UInt(mb))
        }
        "high_water" => {
            let high = as_u64(v, path)?;
            if high == 0 || high > 100_000 {
                return Err(format!("{path}: must be in 1..=100000, got {high}"));
            }
            Ok(Json::UInt(high))
        }
        "cpus" => {
            let cpus = as_u64(v, path)?;
            if cpus == 0 || cpus > 12 {
                return Err(format!("{path}: must be in 1..=12, got {cpus}"));
            }
            Ok(Json::UInt(cpus))
        }
        "shared_pages" => {
            let pages = as_u64(v, path)?;
            if pages == 0 || pages > MAX_SHARED_PAGES {
                return Err(format!(
                    "{path}: must be in 1..={MAX_SHARED_PAGES}, got {pages}"
                ));
            }
            Ok(Json::UInt(pages))
        }
        "host" => {
            // An index, not a name: Table 3.5 samples "mace" twice.
            let index = as_u64(v, path)?;
            let hosts = DevHost::table_3_5().len();
            if index >= hosts as u64 {
                return Err(format!(
                    "{path}: host index {index} is past the end of Table 3.5 ({hosts} hosts)"
                ));
            }
            Ok(Json::UInt(index))
        }
        "entries" => {
            let entries = as_u64(v, path)?;
            if entries == 0 || entries > MAX_TLB_ENTRIES {
                return Err(format!(
                    "{path}: must be in 1..={MAX_TLB_ENTRIES}, got {entries}"
                ));
            }
            Ok(Json::UInt(entries))
        }
        _ => unreachable!("axis {axis} admitted for kind {kind:?} but not parsed"),
    }
}

/// Validates a `scale` value: a preset name, or an object whose
/// missing fields come from `base` (scenario files fill from
/// `default`, `/v1/jobs` bodies from `quick`).
///
/// # Errors
///
/// Returns a `scale`-qualified message for an unknown preset, a
/// mistyped value, or a value outside the guardrails.
pub fn parse_scale(v: &Json, base: Scale) -> Result<Scale, String> {
    match v {
        Json::Str(preset) => match preset.as_str() {
            "quick" => Ok(Scale::quick()),
            "default" => Ok(Scale::default_scale()),
            "full" => Ok(Scale::full()),
            other => Err(format!(
                "scale: unknown preset {other:?} (expected quick|default|full)"
            )),
        },
        Json::Obj(_) => {
            let mut scale = base;
            if let Some(refs) = opt_u64(v, "scale", "refs")? {
                if refs == 0 || refs > MAX_REFS {
                    return Err(format!("scale.refs: must be in 1..={MAX_REFS}, got {refs}"));
                }
                scale.refs = refs;
            }
            if let Some(seed) = opt_u64(v, "scale", "seed")? {
                scale.seed = seed;
            }
            if let Some(reps) = opt_u64(v, "scale", "reps")? {
                if reps == 0 || reps > MAX_REPS as u64 {
                    return Err(format!("scale.reps: must be in 1..={MAX_REPS}, got {reps}"));
                }
                scale.reps = reps as u32;
            }
            if let Some(per_hour) = opt_u64(v, "scale", "dev_refs_per_hour")? {
                if per_hour == 0 || per_hour > MAX_DEV_REFS_PER_HOUR {
                    return Err(format!(
                        "scale.dev_refs_per_hour: must be in 1..={MAX_DEV_REFS_PER_HOUR}, \
                         got {per_hour}"
                    ));
                }
                scale.dev_refs_per_hour = per_hour;
            }
            Ok(scale)
        }
        _ => Err("scale: must be a preset name or an object".into()),
    }
}

fn parse_run(v: &Json) -> Result<RunOptions, String> {
    if !matches!(v, Json::Obj(_)) {
        return Err("run: must be an object".into());
    }
    check_unknown(v, "run", &["obs", "epoch", "lockstep", "fault_plan"])?;
    let mut run = RunOptions::default();
    if let Some(obs) = field(v, "obs") {
        run.obs = as_bool(obs, "run.obs")?;
    }
    if let Some(epoch) = field(v, "epoch") {
        match epoch {
            Json::Null => run.epoch = None,
            _ => {
                let n = as_u64(epoch, "run.epoch")?;
                if n == 0 {
                    return Err("run.epoch: must be positive or null".into());
                }
                run.epoch = Some(n);
            }
        }
    }
    if let Some(lockstep) = field(v, "lockstep") {
        run.lockstep = as_bool(lockstep, "run.lockstep")?;
    }
    if let Some(plan) = field(v, "fault_plan") {
        check_unknown(plan, "run.fault_plan", &["seed", "panic_ppm"])?;
        let seed = as_u64(
            require(plan, "run.fault_plan", "seed")?,
            "run.fault_plan.seed",
        )?;
        let ppm = as_u64(
            require(plan, "run.fault_plan", "panic_ppm")?,
            "run.fault_plan.panic_ppm",
        )?;
        run.fault_plan = Some((seed, ppm));
    }
    Ok(run)
}

/// Kind-level shape rules: which scenario-level fields each kind
/// requires or forbids, and which axes must be present.
fn check_kind_shape(s: &Scenario) -> Result<(), String> {
    let kind = s.kind.as_str();
    let need_axis = |name: &str| -> Result<(), String> {
        if s.axis(name).is_none() {
            return Err(format!("matrix.{name}: required for experiment {kind:?}"));
        }
        Ok(())
    };
    let no_workload = |why: &str| -> Result<(), String> {
        if s.workload.is_some() {
            return Err(format!(
                "workload: not accepted for experiment {kind:?} ({why})"
            ));
        }
        Ok(())
    };
    let need_workload = || -> Result<(), String> {
        if s.workload.is_none() {
            return Err(format!("workload: required for experiment {kind:?}"));
        }
        Ok(())
    };
    let no_mem = || -> Result<(), String> {
        if s.mem_mb.is_some() {
            return Err(format!("mem_mb: not accepted for experiment {kind:?}"));
        }
        Ok(())
    };
    let need_mem = || -> Result<(), String> {
        if s.mem_mb.is_none() {
            return Err(format!("mem_mb: required for experiment {kind:?}"));
        }
        Ok(())
    };

    if s.run.lockstep && s.kind != Kind::Sim {
        return Err(format!(
            "run.lockstep: only supported for experiment \"sim\", not {kind:?}"
        ));
    }
    if s.key_prefix.is_some() && s.kind != Kind::Events {
        return Err(format!(
            "key_prefix: not accepted for experiment {kind:?} (only \"events\" reads it)"
        ));
    }
    match s.kind {
        Kind::Flush => {
            need_axis("occupancy_pct")?;
            no_workload("the flush comparison runs on synthetic cache states")?;
            no_mem()?;
        }
        Kind::Assoc => {
            need_axis("workload")?;
            need_axis("ways")?;
            no_workload("the workload is a matrix axis")?;
            no_mem()?;
        }
        Kind::CacheScaling => {
            need_axis("cache_kb")?;
            need_workload()?;
            need_mem()?;
        }
        Kind::Crossover => {
            need_axis("period")?;
            need_axis("ref")?;
            need_workload()?;
            need_mem()?;
        }
        Kind::Events => {
            need_axis("workload")?;
            need_axis("mem_mb")?;
            no_workload("the workload is a matrix axis")?;
            no_mem()?;
        }
        Kind::SoftFaults => {
            need_axis("ref")?;
            need_axis("soft_faults")?;
            need_workload()?;
            need_mem()?;
        }
        Kind::Watermarks => {
            need_axis("high_water")?;
            need_axis("ref")?;
            need_workload()?;
            need_mem()?;
        }
        Kind::Sim => {
            need_axis("mem_mb")?;
            need_workload()?;
            no_mem()?;
        }
        Kind::Refbit => {
            need_axis("workload")?;
            need_axis("mem_mb")?;
            need_axis("ref")?;
            no_workload("the workload is a matrix axis")?;
            no_mem()?;
        }
        Kind::Mp => {
            need_axis("ref")?;
            need_axis("cpus")?;
            need_axis("shared_pages")?;
            no_workload("each CPU runs an mp_workers shard sized by cpus and shared_pages")?;
            no_mem()?;
        }
        Kind::Pageout => {
            need_axis("host")?;
            no_workload("each host simulates its own development-machine workload")?;
            no_mem()?;
            if s.max_refs.is_some() {
                return Err(format!(
                    "max_refs: not accepted for experiment {kind:?} (a host runs for its \
                     uptime times scale.dev_refs_per_hour)"
                ));
            }
        }
        Kind::Tlb => {
            need_axis("entries")?;
            need_axis("flush_on_switch")?;
            need_workload()?;
            need_mem()?;
        }
    }
    // Trace workloads only make sense where a single reference stream
    // drives a full SpurSystem run.
    if let Some(source) = &s.workload {
        if source.trace_path().is_some() && s.kind != Kind::Sim {
            return Err(format!(
                "workload.trace: recorded traces are only supported for experiment \"sim\", \
                 not {kind:?}"
            ));
        }
    }
    // Bound the expansion before anyone builds it.
    let cells: usize = s.axes.iter().map(|a| a.values.len()).product();
    if cells > MAX_CELLS {
        return Err(format!(
            "matrix: expands to {cells} cells, more than the {MAX_CELLS} allowed"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_sim(extra: &str) -> String {
        format!(
            r#"{{"schema_version":1,"name":"t","experiment":"sim",
                "workload":"WORKLOAD1","matrix":{{"mem_mb":[5,6,8]}}{extra}}}"#
        )
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::parse_str(&minimal_sim("")).unwrap();
        assert_eq!(s.kind, Kind::Sim);
        assert_eq!(s.scale, None);
        assert!(s.run.obs);
        assert!(!s.run.lockstep);
        assert!(s.assertions.is_empty());
        assert_eq!(s.axes.len(), 1);
        assert_eq!(s.resolve_scale(None), Scale::default_scale());
    }

    #[test]
    fn unknown_top_level_field_is_a_path_qualified_error() {
        let err = Scenario::parse_str(&minimal_sim(r#","frobnicate":1"#)).unwrap_err();
        assert!(err.contains("unknown field \"frobnicate\""), "{err}");
    }

    #[test]
    fn unknown_matrix_axis_is_a_path_qualified_error() {
        let cfg = r#"{"schema_version":1,"name":"t","experiment":"sim",
            "workload":"SLC","matrix":{"mem_mb":[5],"colour":[1]}}"#;
        let err = Scenario::parse_str(cfg).unwrap_err();
        assert!(err.starts_with("matrix:"), "{err}");
        assert!(err.contains("unknown field \"colour\""), "{err}");
    }

    #[test]
    fn duplicate_axis_value_names_index_and_value() {
        let cfg = r#"{"schema_version":1,"name":"t","experiment":"sim","workload":"SLC",
            "matrix":{"mem_mb":[5],"dirty":["MIN","FAULT","FLUSH","flush"]}}"#;
        let err = Scenario::parse_str(cfg).unwrap_err();
        assert_eq!(err, "matrix.dirty[3]: duplicate \"FLUSH\"");
    }

    #[test]
    fn empty_axis_is_a_hard_error() {
        let cfg = r#"{"schema_version":1,"name":"t","experiment":"sim","workload":"SLC",
            "matrix":{"mem_mb":[]}}"#;
        let err = Scenario::parse_str(cfg).unwrap_err();
        assert_eq!(err, "matrix.mem_mb: axis must not be empty");
    }

    #[test]
    fn nested_unknown_fields_are_rejected_everywhere() {
        for (cfg, needle) in [
            (minimal_sim(r#","run":{"obs":true,"verbose":1}"#), "run:"),
            (minimal_sim(r#","scale":{"refs":10,"speed":9}"#), "scale:"),
            (
                minimal_sim(r#","run":{"fault_plan":{"seed":1,"panic_ppm":2,"x":3}}"#),
                "run.fault_plan:",
            ),
        ] {
            let err = Scenario::parse_str(&cfg).unwrap_err();
            assert!(err.starts_with(needle), "{err} should start with {needle}");
            assert!(err.contains("unknown field"), "{err}");
        }
    }

    #[test]
    fn schema_version_is_enforced() {
        let cfg = r#"{"schema_version":2,"name":"t","experiment":"sim","workload":"SLC",
            "matrix":{"mem_mb":[5]}}"#;
        let err = Scenario::parse_str(cfg).unwrap_err();
        assert!(err.starts_with("schema_version:"), "{err}");
    }

    #[test]
    fn kind_shape_rules_hold() {
        // flush refuses a workload.
        let cfg = r#"{"schema_version":1,"name":"t","experiment":"flush","workload":"SLC",
            "matrix":{"occupancy_pct":[10]}}"#;
        assert!(Scenario::parse_str(cfg)
            .unwrap_err()
            .starts_with("workload:"));
        // crossover needs both axes.
        let cfg = r#"{"schema_version":1,"name":"t","experiment":"crossover","workload":"SLC",
            "mem_mb":8,"matrix":{"period":[null]}}"#;
        assert!(Scenario::parse_str(cfg)
            .unwrap_err()
            .starts_with("matrix.ref:"));
        // lockstep is sim-only.
        let cfg = r#"{"schema_version":1,"name":"t","experiment":"flush",
            "matrix":{"occupancy_pct":[10]},"run":{"lockstep":true}}"#;
        assert!(Scenario::parse_str(cfg)
            .unwrap_err()
            .starts_with("run.lockstep:"));
    }

    #[test]
    fn axis_values_canonicalize_for_keys_and_coords() {
        let cfg = r#"{"schema_version":1,"name":"t","experiment":"sim","workload":"slc",
            "matrix":{"mem_mb":[5],"dirty":["min","Fault"],"ref":["noref"]}}"#;
        let s = Scenario::parse_str(cfg).unwrap();
        assert_eq!(
            s.axis("dirty").unwrap().values,
            vec![Json::Str("MIN".into()), Json::Str("FAULT".into())]
        );
        assert_eq!(
            s.axis("ref").unwrap().values,
            vec![Json::Str("NOREF".into())]
        );
    }

    #[test]
    fn scale_presets_and_clamp_resolve_like_the_legacy_binaries() {
        let cfg = minimal_sim(r#","scale":"full","max_refs":6000000"#);
        let s = Scenario::parse_str(&cfg).unwrap();
        assert_eq!(s.resolve_scale(None).refs, 6_000_000);
        // A runner's --scale quick wins over the config scale, clamp
        // still applies.
        let quick = s.resolve_scale(Some(Scale::quick()));
        assert_eq!(quick.refs, Scale::quick().refs.min(6_000_000));
    }

    #[test]
    fn pageout_rejects_bad_hosts_scales_and_scenario_level_fields() {
        let pageout = |matrix: &str, extra: &str| {
            format!(
                r#"{{"schema_version":1,"name":"t","experiment":"pageout",
                    "matrix":{{"host":{matrix}}}{extra}}}"#
            )
        };
        let s = Scenario::parse_str(&pageout("[0, 5]", "")).unwrap();
        assert_eq!(s.kind, Kind::Pageout);
        for (cfg, needle) in [
            (
                pageout("[6]", ""),
                "matrix.host[0]: host index 6 is past the end",
            ),
            (
                pageout(r#"["mace"]"#, ""),
                "matrix.host[0]: must be a non-negative",
            ),
            (pageout("[0, 0]", ""), "matrix.host[1]: duplicate 0"),
            (
                pageout("[0]", r#","scale":{"dev_refs_per_hour":1000000000000000}"#),
                "scale.dev_refs_per_hour: must be in 1..=1000000",
            ),
            (
                pageout("[0]", r#","workload":"SLC""#),
                "workload: not accepted",
            ),
            (pageout("[0]", r#","mem_mb":8"#), "mem_mb: not accepted"),
            (
                pageout("[0]", r#","max_refs":1000"#),
                "max_refs: not accepted",
            ),
        ] {
            let err = Scenario::parse_str(&cfg).unwrap_err();
            assert!(err.starts_with(needle), "{err} should start with {needle}");
        }
        // The cap holds for every kind's scale, at the boundary.
        let at_cap = minimal_sim(r#","scale":{"dev_refs_per_hour":1000000}"#);
        assert!(Scenario::parse_str(&at_cap).is_ok());
        let past_cap = minimal_sim(r#","scale":{"dev_refs_per_hour":1000001}"#);
        assert!(Scenario::parse_str(&past_cap).is_err());
    }

    #[test]
    fn trace_workloads_parse_and_are_sim_only() {
        let cfg = r#"{"schema_version":1,"name":"t","experiment":"sim",
            "workload":{"trace":"results/t.spurtrace","regions":"WORKLOAD1"},
            "matrix":{"mem_mb":[6]}}"#;
        let s = Scenario::parse_str(cfg).unwrap();
        assert_eq!(
            s.workload.as_ref().unwrap().trace_path(),
            Some("results/t.spurtrace")
        );
        let cfg = r#"{"schema_version":1,"name":"t","experiment":"cache_scaling",
            "workload":{"trace":"x","regions":"SLC"},"mem_mb":5,
            "matrix":{"cache_kb":[128]}}"#;
        let err = Scenario::parse_str(cfg).unwrap_err();
        assert!(err.contains("workload.trace"), "{err}");
    }

    #[test]
    fn tlb_rejects_bad_entries_missing_axes_and_scenario_level_gaps() {
        let tlb = |head: &str, matrix: &str| {
            format!(
                r#"{{"schema_version":1,"name":"t","experiment":"tlb"{head},
                    "matrix":{{{matrix}}}}}"#
            )
        };
        let full = r#","workload":"WORKLOAD1","mem_mb":8"#;
        let both = r#""entries":[16,4096],"flush_on_switch":[false,true]"#;
        let s = Scenario::parse_str(&tlb(full, both)).unwrap();
        assert_eq!(s.kind, Kind::Tlb);
        for (cfg, needle) in [
            (
                tlb(full, r#""entries":[0],"flush_on_switch":[false]"#),
                "matrix.entries[0]: must be in 1..=4096, got 0",
            ),
            (
                tlb(full, r#""entries":[16,4097],"flush_on_switch":[false]"#),
                "matrix.entries[1]: must be in 1..=4096, got 4097",
            ),
            (
                tlb(full, r#""entries":[16],"flush_on_switch":["yes"]"#),
                "matrix.flush_on_switch[0]: must be a boolean",
            ),
            (
                tlb(full, r#""entries":[16]"#),
                "matrix.flush_on_switch: required",
            ),
            (
                tlb(full, r#""flush_on_switch":[true]"#),
                "matrix.entries: required",
            ),
            (
                tlb(r#","mem_mb":8"#, both),
                "workload: required for experiment \"tlb\"",
            ),
            (
                tlb(r#","workload":"SLC""#, both),
                "mem_mb: required for experiment \"tlb\"",
            ),
            (
                tlb(
                    r#","workload":{"trace":"t.spurtrace","regions":"SLC"},"mem_mb":8"#,
                    both,
                ),
                "workload.trace: recorded traces are only supported",
            ),
            (
                tlb(&format!(r#"{full},"key_prefix":"typo""#), both),
                "key_prefix: not accepted for experiment \"tlb\"",
            ),
        ] {
            let err = Scenario::parse_str(&cfg).unwrap_err();
            assert!(err.starts_with(needle), "{err} should start with {needle}");
        }
    }

    #[test]
    fn key_prefix_is_rejected_on_every_kind_but_events() {
        for cfg in [
            r#"{"schema_version":1,"name":"t","experiment":"refbit","key_prefix":"typo",
                "matrix":{"workload":["SLC"],"mem_mb":[5],"ref":["MISS"]}}"#,
            r#"{"schema_version":1,"name":"t","experiment":"flush","key_prefix":"typo",
                "matrix":{"occupancy_pct":[10]}}"#,
        ] {
            let err = Scenario::parse_str(cfg).unwrap_err();
            assert!(err.starts_with("key_prefix: not accepted"), "{err}");
        }
        let cfg = r#"{"schema_version":1,"name":"t","experiment":"events",
            "key_prefix":"sensitivity","matrix":{"workload":["SLC"],"mem_mb":[5]}}"#;
        let s = Scenario::parse_str(cfg).unwrap();
        assert_eq!(s.key_prefix.as_deref(), Some("sensitivity"));
    }
}
