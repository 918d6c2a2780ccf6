//! The job-submission API: a flat JSON body in, one scenario cell out.
//!
//! A submission describes one experiment cell and compiles to a
//! one-cell [`spur_scenario::Cell`]: every field is checked by the
//! scenario engine's own value validators and limits, the cell mints
//! the same key `reproduce_all` uses (`table_4_1/SLC/5MB/MISS`, …),
//! and the worker runs [`Cell::job`] — the very job a CLI sweep runs
//! for that cell. That shared construction is the whole determinism
//! story: a job submitted over HTTP produces artifact bytes identical
//! to the batch sweep's.
//!
//! ```json
//! {
//!   "experiment": "refbit",
//!   "workload": "SLC",
//!   "mem_mb": 5,
//!   "policy": "MISS",
//!   "scale": {"refs": 30000, "seed": 1989, "reps": 1},
//!   "obs": {"epoch": 10000},
//!   "overrides": {"daemon_period": 1000}
//! }
//! ```
//!
//! `experiment` is `refbit` (a Table 4.1 cell), `events` (Table 3.3)
//! or `mp` (a §4.1 multiprocessor cell). `workload` names a builtin
//! (`SLC`, `WORKLOAD1`); `workload_spec` instead carries a full
//! workload-spec text (the `spur-trace::spec` format) for custom
//! workloads. `scale` is a preset name (`quick`, `default`, `full`) or
//! an object whose missing fields come from `quick`. An `mp` cell
//! takes `cpus` (default 2) and `shared_pages` (default 256) and
//! derives its workload and memory itself, so it refuses `workload`,
//! `workload_spec`, `mem_mb` and `overrides`. Everything but
//! `experiment`, `workload`/`workload_spec`, and `mem_mb` is optional.
//! A field the experiment does not read (`policy` on an `events` job, a
//! misspelt name) is refused by name, and so is an unknown field of
//! `scale`, `obs` or `overrides`: a typo never silently runs the
//! default cell.

use spur_core::experiments::Scale;
use spur_core::obs::ObsParams;
use spur_core::system::SimOverrides;
use spur_harness::Json;
use spur_obs::validate::parse;
use spur_scenario::config::{
    as_str, as_u64, check_unknown, field, opt_u64, parse_axis_value, parse_scale, require,
};
use spur_scenario::{Cell, Kind, WorkloadSource};

use crate::queue::Priority;

/// A validated submission: one complete cell and its priority lane.
#[derive(Debug)]
pub struct JobSpec {
    cell: Cell,
    priority: Priority,
}

impl JobSpec {
    /// The experiment family name (`refbit`, `events`, `mp`), used as
    /// the `experiment` label on span-derived Prometheus histograms (a
    /// closed, static set so label cardinality stays bounded).
    pub(crate) fn experiment(&self) -> &'static str {
        self.cell.kind.as_str()
    }

    /// The job's stable key, identical to the CLI sweep's for the same
    /// cell.
    pub fn key(&self) -> String {
        self.cell.key.clone()
    }

    /// The submission's priority lane (`"priority"` field, default
    /// normal).
    pub(crate) fn priority(&self) -> Priority {
        self.priority
    }

    /// The deficit-round-robin cost of running this cell: simulated
    /// references across repetitions, the one knob that scales run
    /// time. A greedy client submitting huge cells burns its deficit
    /// proportionally faster than one submitting quick cells.
    pub(crate) fn cost(&self) -> u64 {
        self.cell
            .scale
            .refs
            .saturating_mul(u64::from(self.cell.scale.reps))
    }

    /// The cell's full-spec identity ([`Cell::identity`]), the unit of
    /// coalescing, caching, and peer routing. Priority deliberately
    /// stays out: a high-priority duplicate can ride an in-flight
    /// normal-priority run.
    pub fn identity(&self) -> String {
        self.cell.identity()
    }

    /// The compiled cell, whose [`Cell::job`] the worker runs.
    pub(crate) fn into_cell(self) -> Cell {
        self.cell
    }
}

/// Parses and validates a submission body. Every failure is a
/// caller-readable message destined for a 400 response.
pub fn parse_job_spec(body: &[u8]) -> Result<JobSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = parse(text).map_err(|e| format!("body is not valid JSON: {e:?}"))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("body must be a JSON object".into());
    }
    let experiment = as_str(require(&doc, "", "experiment")?, "experiment")?;
    let kind = match Kind::from_name(experiment) {
        Some(kind @ (Kind::Refbit | Kind::Events | Kind::Mp)) => kind,
        _ => {
            return Err(format!(
                "unknown experiment {experiment:?} (expected refbit|events|mp)"
            ))
        }
    };
    let allowed: &[&str] = match kind {
        Kind::Mp => {
            // The mp cell derives its workload (`mp_workers`) and memory
            // size from its coordinates, as the `mp` scenario kind does —
            // accepting a workload here would break the shared-key
            // determinism story.
            for name in ["workload", "workload_spec", "mem_mb", "overrides"] {
                if field(&doc, name).is_some() {
                    return Err(format!("{name} is not accepted for experiment \"mp\""));
                }
            }
            &[
                "experiment",
                "policy",
                "cpus",
                "shared_pages",
                "scale",
                "obs",
                "priority",
            ]
        }
        Kind::Refbit => &[
            "experiment",
            "workload",
            "workload_spec",
            "mem_mb",
            "policy",
            "overrides",
            "scale",
            "obs",
            "priority",
        ],
        _ => &[
            "experiment",
            "workload",
            "workload_spec",
            "mem_mb",
            "overrides",
            "scale",
            "obs",
            "priority",
        ],
    };
    check_unknown(&doc, &format!("{experiment} job"), allowed)?;
    // The flat fields are the one-cell matrix's coordinates, each
    // validated as the scenario engine validates that axis.
    let coord = |axis: &str, name: &str, value: &Json| -> Result<(String, Json), String> {
        Ok((axis.to_string(), parse_axis_value(kind, axis, value, name)?))
    };
    let policy = field(&doc, "policy")
        .cloned()
        .unwrap_or_else(|| Json::from("MISS"));

    let mut coords = Vec::new();
    let mut workload = None;
    let mut overrides = SimOverrides::default();
    if kind == Kind::Mp {
        coords.push(coord("ref", "policy", &policy)?);
        let cpus = field(&doc, "cpus").cloned().unwrap_or(Json::UInt(2));
        coords.push(coord("cpus", "cpus", &cpus)?);
        let shared = field(&doc, "shared_pages")
            .cloned()
            .unwrap_or(Json::UInt(256));
        coords.push(coord("shared_pages", "shared_pages", &shared)?);
    } else {
        match (field(&doc, "workload"), field(&doc, "workload_spec")) {
            (Some(_), Some(_)) => {
                return Err("give either workload or workload_spec, not both".into())
            }
            (Some(v), None) => coords.push(coord("workload", "workload", v)?),
            (None, Some(v)) => {
                workload = Some(WorkloadSource::spec(
                    as_str(v, "workload_spec")?,
                    "workload_spec",
                )?)
            }
            (None, None) => return Err("missing workload (or workload_spec)".into()),
        }
        coords.push(coord("mem_mb", "mem_mb", require(&doc, "", "mem_mb")?)?);
        if kind == Kind::Refbit {
            coords.push(coord("ref", "policy", &policy)?);
        }
        overrides = parse_overrides(&doc)?;
    }
    let scale = match field(&doc, "scale") {
        None => Scale::quick(),
        Some(v) => parse_scale(v, Scale::quick())?,
    };

    let mut cell = Cell::new(kind, coords, workload, None, None, scale, parse_obs(&doc)?);
    cell.overrides = overrides;
    Ok(JobSpec {
        cell,
        priority: parse_priority(&doc)?,
    })
}

fn parse_priority(doc: &Json) -> Result<Priority, String> {
    match field(doc, "priority") {
        None => Ok(Priority::Normal),
        Some(v) => match as_str(v, "priority")? {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!(
                "unknown priority {other:?} (expected high|normal|low)"
            )),
        },
    }
}

fn parse_obs(doc: &Json) -> Result<Option<ObsParams>, String> {
    match field(doc, "obs") {
        // Observability is on by default: a service without metrics on
        // its own jobs would be a poor advertisement for the obs layer.
        None => Ok(Some(ObsParams::default())),
        Some(Json::Bool(false)) => Ok(None),
        Some(Json::Bool(true)) => Ok(Some(ObsParams::default())),
        Some(v @ Json::Obj(_)) => {
            check_unknown(v, "obs", &["epoch"])?;
            let mut params = ObsParams::default();
            if let Some(epoch) = opt_u64(v, "obs", "epoch")? {
                if epoch == 0 {
                    return Err("obs.epoch must be positive".into());
                }
                params.epoch = Some(epoch);
            }
            Ok(Some(params))
        }
        Some(_) => Err("obs must be a bool or an object".into()),
    }
}

fn parse_overrides(doc: &Json) -> Result<SimOverrides, String> {
    let Some(value) = field(doc, "overrides") else {
        return Ok(SimOverrides::default());
    };
    if !matches!(value, Json::Obj(_)) {
        return Err("overrides must be an object".into());
    }
    let path = "overrides";
    check_unknown(
        value,
        path,
        &[
            "cpus",
            "soft_faults",
            "daemon_period",
            "kernel_reserved_frames",
            "free_low_water",
            "free_high_water",
        ],
    )?;
    let mut ov = SimOverrides::default();
    if let Some(cpus) = opt_u64(value, path, "cpus")? {
        if cpus == 0 {
            return Err("overrides.cpus must be positive".into());
        }
        ov.cpus = Some(cpus as usize);
    }
    if let Some(v) = field(value, "soft_faults") {
        match v {
            Json::Bool(b) => ov.soft_faults = Some(*b),
            _ => return Err("overrides.soft_faults must be a bool".into()),
        }
    }
    if let Some(v) = field(value, "daemon_period") {
        match v {
            // An explicit null forces the periodic daemon *off*,
            // distinct from "don't override".
            Json::Null => ov.daemon_period = Some(None),
            _ => {
                let period = as_u64(v, "overrides.daemon_period")?;
                if period == 0 {
                    return Err("overrides.daemon_period must be positive or null".into());
                }
                ov.daemon_period = Some(Some(period));
            }
        }
    }
    for (key, slot) in [
        ("kernel_reserved_frames", &mut ov.kernel_reserved_frames),
        ("free_low_water", &mut ov.free_low_water),
        ("free_high_water", &mut ov.free_high_water),
    ] {
        if let Some(frames) = opt_u64(value, path, key)? {
            let frames = u32::try_from(frames)
                .map_err(|_| format!("overrides.{key}: must be at most {}", u32::MAX))?;
            *slot = Some(frames);
        }
    }
    Ok(ov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_core::experiments::events::{measure_events_obs_with, EventRow};
    use spur_core::experiments::refbit::{measure_refbit_obs_with, RefbitRow};
    use spur_core::jobs::attach_obs;
    use spur_core::obs::ObsReport;
    use spur_harness::{job_artifact_json, run_one, Job, JobOutput};
    use spur_trace::spec::{format_workload, parse_workload};
    use spur_trace::workloads::{slc, Workload};
    use spur_types::MemSize;
    use spur_vm::policy::RefPolicy;

    fn spec(body: &str) -> Result<JobSpec, String> {
        parse_job_spec(body.as_bytes())
    }

    /// A job's artifact document, as the result endpoint serves it.
    fn artifact<T>(job: spur_harness::Job<T>) -> String {
        job_artifact_json(&run_one(job)).encode_pretty()
    }

    /// The artifact of a measure function's row, wrapped as a job by
    /// hand: the reference a served cell must match byte for byte.
    fn by_hand<T: 'static>(
        key: &str,
        to_json: fn(&T) -> Json,
        measure: impl FnOnce() -> Result<(T, Option<ObsReport>), String> + Send + 'static,
    ) -> String {
        artifact(Job::new(key, move || {
            let (row, rep) = measure()?;
            let artifact = to_json(&row);
            Ok(attach_obs(JobOutput::new(row, artifact), rep))
        }))
    }

    /// The Table 4.1 cell `table_4_1/SLC/5MB/MISS`, by hand.
    fn refbit_by_hand(
        workload: Workload,
        scale: Scale,
        obs: Option<ObsParams>,
        overrides: SimOverrides,
    ) -> String {
        by_hand("table_4_1/SLC/5MB/MISS", RefbitRow::to_json, move || {
            let (mem, policy) = (MemSize::MB5, RefPolicy::Miss);
            measure_refbit_obs_with(&workload, mem, policy, &scale, obs, &overrides)
                .map_err(|e| e.to_string())
        })
    }

    #[test]
    fn minimal_refbit_submission_gets_cli_key_and_defaults() {
        let s = spec(r#"{"experiment":"refbit","workload":"slc","mem_mb":5}"#).unwrap();
        assert_eq!(s.key(), "table_4_1/SLC/5MB/MISS");
        assert_eq!(s.cell.scale, Scale::quick());
        assert_eq!(s.cell.obs, Some(ObsParams::default()));
        assert!(s.cell.overrides.is_noop());
    }

    #[test]
    fn events_key_matches_the_sweep_scheme() {
        let s = spec(r#"{"experiment":"events","workload":"WORKLOAD1","mem_mb":8}"#).unwrap();
        assert_eq!(s.key(), "table_3_3/WORKLOAD1/8MB");
    }

    #[test]
    fn full_submission_round_trips_every_knob() {
        let s = spec(
            r#"{
              "experiment": "refbit", "workload": "SLC", "mem_mb": 6,
              "policy": "noref",
              "scale": {"refs": 30000, "seed": 7, "reps": 2},
              "obs": {"epoch": 5000},
              "overrides": {"daemon_period": 1000, "soft_faults": false}
            }"#,
        )
        .unwrap();
        assert_eq!(s.key(), "table_4_1/SLC/6MB/NOREF");
        assert_eq!(s.cell.scale.refs, 30000);
        assert_eq!(s.cell.scale.seed, 7);
        assert_eq!(s.cell.scale.reps, 2);
        assert_eq!(s.cell.obs.unwrap().epoch, Some(5000));
        assert_eq!(s.cell.overrides.daemon_period, Some(Some(1000)));
        assert_eq!(s.cell.overrides.soft_faults, Some(false));
    }

    #[test]
    fn custom_workloads_arrive_as_spec_text() {
        let text = format_workload(&slc());
        let body = Json::object([
            ("experiment", Json::Str("events".into())),
            ("workload_spec", Json::Str(text)),
            ("mem_mb", Json::UInt(5)),
        ])
        .encode();
        let s = parse_job_spec(body.as_bytes()).unwrap();
        assert_eq!(s.key(), "table_3_3/SLC/5MB");
    }

    #[test]
    fn minimal_mp_submission_gets_sweep_key_and_defaults() {
        let s = spec(r#"{"experiment":"mp"}"#).unwrap();
        assert_eq!(s.key(), "mp/02cpu/0256sh/MISS");
        assert_eq!(s.cell.scale, Scale::quick());
    }

    #[test]
    fn full_mp_submission_round_trips() {
        let s = spec(
            r#"{"experiment":"mp","policy":"ref","cpus":4,"shared_pages":1024,
                "scale":{"refs":30000},"obs":false}"#,
        )
        .unwrap();
        assert_eq!(s.key(), "mp/04cpu/1024sh/REF");
        assert_eq!(s.cell.scale.refs, 30000);
        assert!(s.cell.obs.is_none());
    }

    #[test]
    fn mp_built_job_matches_the_shared_builder_byte_for_byte() {
        let scale = Scale {
            refs: 30_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 120_000,
        };
        let s = spec(
            r#"{"experiment":"mp","cpus":2,"shared_pages":256,
                "scale":{"refs":30000,"seed":1989,"reps":1},"obs":false}"#,
        )
        .unwrap();
        let via_api = artifact(s.into_cell().job());
        let direct = by_hand("mp/02cpu/0256sh/MISS", spur_mp::MpRow::to_json, move || {
            spur_mp::measure_mp_obs(2, RefPolicy::Miss, 256, &scale, None)
        });
        assert_eq!(via_api, direct);
    }

    #[test]
    fn mp_rejections_are_messages_not_panics() {
        for (body, needle) in [
            (r#"{"experiment":"mp","cpus":0}"#, "cpus: must be"),
            (r#"{"experiment":"mp","cpus":13}"#, "cpus: must be"),
            (
                r#"{"experiment":"mp","shared_pages":0}"#,
                "shared_pages: must be",
            ),
            (
                r#"{"experiment":"mp","shared_pages":100000}"#,
                "shared_pages: must be",
            ),
            (
                r#"{"experiment":"mp","workload":"SLC"}"#,
                "not accepted for experiment",
            ),
            (
                r#"{"experiment":"mp","mem_mb":8}"#,
                "not accepted for experiment",
            ),
            (
                r#"{"experiment":"mp","overrides":{"cpus":2}}"#,
                "not accepted for experiment",
            ),
            (r#"{"experiment":"mp","policy":"lru"}"#, "policy"),
        ] {
            let err = spec(body).unwrap_err();
            assert!(
                err.contains(needle),
                "{body:?}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn rejections_are_messages_not_panics() {
        for (body, needle) in [
            ("", "not valid JSON"),
            ("[1,2]", "must be a JSON object"),
            (
                r#"{"workload":"SLC","mem_mb":5}"#,
                "experiment: missing required field",
            ),
            (
                r#"{"experiment":"tlb","workload":"SLC","mem_mb":5}"#,
                "unknown experiment",
            ),
            (r#"{"experiment":"events","mem_mb":5}"#, "missing workload"),
            (
                r#"{"experiment":"events","workload":"BIGCO","mem_mb":5}"#,
                "unknown workload",
            ),
            (
                r#"{"experiment":"events","workload_spec":"not a spec","mem_mb":5}"#,
                "workload_spec: bad workload spec",
            ),
            (
                r#"{"experiment":"events","workload":"SLC"}"#,
                "mem_mb: missing required field",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":0}"#,
                "mem_mb: must be in",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":-5}"#,
                "mem_mb: must be a non-negative",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"scale":{"refs":0}}"#,
                "scale.refs",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"scale":"huge"}"#,
                "scale: unknown preset",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"scale":{"reps":999}}"#,
                "scale.reps",
            ),
            (
                r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"lru"}"#,
                "policy",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"obs":7}"#,
                "obs must be",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"overrides":{"cpus":0}}"#,
                "cpus",
            ),
            // A misspelt or misplaced field is refused by name, not
            // dropped in favour of its default.
            (
                r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"polcy":"REF"}"#,
                "refbit job: unknown field \"polcy\"",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"policy":"REF"}"#,
                "events job: unknown field \"policy\"",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"obs":{"epcoh":5000}}"#,
                "obs: unknown field \"epcoh\"",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"overrides":{"soft_fault":false}}"#,
                "overrides: unknown field \"soft_fault\"",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"scale":{"ref":1000}}"#,
                "scale: unknown field \"ref\"",
            ),
            // A frame count past u32 is refused, not wrapped into a
            // different cell.
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"overrides":{"kernel_reserved_frames":4294967296}}"#,
                "overrides.kernel_reserved_frames: must be at most 4294967295",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"overrides":{"free_low_water":4294967296}}"#,
                "overrides.free_low_water: must be at most",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"overrides":{"free_high_water":4294967397}}"#,
                "overrides.free_high_water: must be at most",
            ),
        ] {
            let err = spec(body).unwrap_err();
            assert!(
                err.contains(needle),
                "{body:?}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn priority_parses_with_normal_default() {
        let s = spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5}"#).unwrap();
        assert_eq!(s.priority(), Priority::Normal);
        let s = spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"priority":"high"}"#)
            .unwrap();
        assert_eq!(s.priority(), Priority::High);
        let s = spec(r#"{"experiment":"mp","priority":"low"}"#).unwrap();
        assert_eq!(s.priority(), Priority::Low);
        let err =
            spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"priority":"urgent"}"#)
                .unwrap_err();
        assert!(err.contains("unknown priority"), "{err}");
    }

    #[test]
    fn identity_separates_what_the_harness_key_conflates() {
        // Same harness key, different seed: MUST NOT share an identity,
        // or the cache would serve one seed's artifact for the other.
        let a = spec(
            r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"scale":{"refs":20000,"seed":1}}"#,
        )
        .unwrap();
        let b = spec(
            r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"scale":{"refs":20000,"seed":2}}"#,
        )
        .unwrap();
        assert_eq!(a.key(), b.key());
        assert_ne!(a.identity(), b.identity());

        // Obs and overrides change artifact bytes, so they change
        // identity too.
        let c = spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"obs":false}"#).unwrap();
        let d = spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5}"#).unwrap();
        assert_ne!(c.identity(), d.identity());
        let e = spec(
            r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"overrides":{"daemon_period":500}}"#,
        )
        .unwrap();
        assert_ne!(d.identity(), e.identity());

        // Identical submissions produce identical identities, and
        // priority deliberately does NOT enter: a high-priority
        // duplicate can ride an in-flight normal-priority run.
        let f = spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"priority":"high"}"#)
            .unwrap();
        assert_eq!(d.identity(), f.identity());

        // Names canonicalize before they reach the identity: lower-case
        // spellings of the same cell share the upper-case identity.
        let g =
            spec(r#"{"experiment":"refbit","workload":"slc","mem_mb":5,"policy":"miss"}"#).unwrap();
        assert_eq!(d.identity(), g.identity());
    }

    #[test]
    fn cost_scales_with_refs_and_reps() {
        let s = spec(
            r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"scale":{"refs":30000,"reps":3}}"#,
        )
        .unwrap();
        assert_eq!(s.cost(), 90_000);
    }

    #[test]
    fn built_job_matches_the_shared_builder_byte_for_byte() {
        let scale = Scale {
            refs: 20_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 120_000,
        };
        let scale_field = r#""scale":{"refs":20000,"seed":1989,"reps":1}"#;
        let daemon = SimOverrides {
            daemon_period: Some(Some(1000)),
            ..SimOverrides::default()
        };
        let epoch = ObsParams {
            epoch: Some(5000),
            ..ObsParams::default()
        };
        let spec_text = format_workload(&slc());
        let spec_body = Json::object([
            ("experiment", Json::from("refbit")),
            ("workload_spec", Json::Str(spec_text.clone())),
            ("mem_mb", Json::UInt(5)),
            (
                "scale",
                parse(r#"{"refs":20000,"seed":1989,"reps":1}"#).unwrap(),
            ),
            ("obs", Json::Bool(false)),
        ])
        .encode();
        let cases = [
            (
                format!(
                    r#"{{"experiment":"refbit","workload":"SLC","mem_mb":5,{scale_field},"obs":false}}"#
                ),
                refbit_by_hand(slc(), scale, None, SimOverrides::default()),
            ),
            (
                format!(
                    r#"{{"experiment":"events","workload":"SLC","mem_mb":5,{scale_field},"obs":false}}"#
                ),
                by_hand("table_3_3/SLC/5MB", EventRow::to_json, move || {
                    let overrides = SimOverrides::default();
                    measure_events_obs_with(&slc(), MemSize::MB5, &scale, None, &overrides)
                        .map_err(|e| e.to_string())
                }),
            ),
            (
                spec_body,
                refbit_by_hand(
                    parse_workload(&spec_text).unwrap(),
                    scale,
                    None,
                    SimOverrides::default(),
                ),
            ),
            (
                format!(
                    r#"{{"experiment":"refbit","workload":"SLC","mem_mb":5,{scale_field},"obs":false,"overrides":{{"daemon_period":1000}}}}"#
                ),
                refbit_by_hand(slc(), scale, None, daemon),
            ),
            (
                format!(
                    r#"{{"experiment":"refbit","workload":"SLC","mem_mb":5,{scale_field},"obs":{{"epoch":5000}}}}"#
                ),
                refbit_by_hand(slc(), scale, Some(epoch), SimOverrides::default()),
            ),
        ];
        for (body, direct) in cases {
            let via_api = artifact(spec(&body).unwrap().into_cell().job());
            assert_eq!(via_api, direct, "{body}");
        }
    }
}
