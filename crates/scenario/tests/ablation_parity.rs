//! Byte-parity between the scenario engine and the deleted `ablation_*`
//! binaries it replaced.
//!
//! Each test reconstructs the *original* binary's job construction and
//! stdout assembly inline (copied from the pre-fold code, legacy
//! constants and all), runs both that and the committed scenario config
//! through the harness, and diffs:
//!
//! - per-key artifact documents, byte for byte (`job_artifact_json`
//!   encode of both sides), and
//! - the legacy stdout (banner + tables + closing prose) against
//!   `render_legacy`.
//!
//! Observability stays off on both sides so the comparison is exact.

use spur_cache::assoc::{synonym_hazard_demo, SetAssocCache};
use spur_cache::cache::VirtualCache;
use spur_core::dirty::DirtyPolicy;
use spur_core::experiments::ablation::{
    flush_cost_comparison, handler_tuning, measure_cache_scaling_point_obs, render_cache_scaling,
    render_handler_tuning, tdc_sensitivity,
};
use spur_core::experiments::crossover::{measure_crossover_obs, render_crossover};
use spur_core::experiments::Scale;
use spur_core::jobs::events_job_obs;
use spur_core::report::Table;
use spur_core::system::{SimConfig, SpurSystem};
use spur_harness::{job_artifact_json, run_jobs, Job, JobOutput, Json, RunReport};
use spur_scenario::cells::expand;
use spur_scenario::render::{legacy_banner, render_legacy};
use spur_scenario::{CellValue, Scenario};
use spur_trace::workloads::{slc, workload1, Workload};
use spur_types::{CostParams, MemSize, Protection, CACHE_LINES};
use spur_vm::policy::RefPolicy;

/// A small custom scale so the whole parity suite stays fast; both
/// sides use it, so the artifact bytes still have to agree.
fn tiny() -> Scale {
    let mut scale = Scale::quick();
    scale.refs = 150_000;
    scale
}

fn scenario(config: &str) -> Scenario {
    Scenario::parse_str(config).expect("committed config parses")
}

/// Runs the scenario side of a config at `scale`, no observability.
fn run_scenario_side(s: &Scenario, scale: Scale) -> RunReport<CellValue> {
    let expanded = expand(s, scale, None).expect("expansion succeeds");
    let jobs: Vec<Job<CellValue>> = expanded.into_iter().map(|(_, job)| job).collect();
    run_jobs(jobs, 2)
}

/// Byte-compares every legacy job's artifact document against the
/// scenario report's document for the same key.
fn assert_artifact_parity<T>(legacy: &RunReport<T>, ours: &RunReport<CellValue>) {
    assert_eq!(legacy.jobs().len(), ours.jobs().len(), "cell count differs");
    for job in legacy.jobs() {
        let twin = ours
            .jobs()
            .iter()
            .find(|j| j.key == job.key)
            .unwrap_or_else(|| panic!("scenario run missing key {}", job.key));
        assert_eq!(
            job_artifact_json(job).encode_pretty(),
            job_artifact_json(twin).encode_pretty(),
            "artifact bytes differ for key {}",
            job.key
        );
    }
}

/// What `print_header` in the legacy binaries wrote.
fn legacy_print_header(what: &str, scale: &Scale) -> String {
    format!(
        "SPUR reference/dirty-bit reproduction — {what}\nscale: {} references/run, {} rep(s), seed {}\n\n",
        scale.refs, scale.reps, scale.seed
    )
}

// ---------------------------------------------------------------------------
// ablation_flush
// ---------------------------------------------------------------------------

#[test]
fn flush_parity() {
    const FRACS: [f64; 5] = [0.05, 0.10, 0.25, 0.50, 1.00];
    let key = |frac: f64| format!("flush/{:03}pct", (frac * 100.0).round() as u64);
    let scale = tiny();

    let legacy_jobs: Vec<_> = FRACS
        .iter()
        .map(|&frac| {
            Job::new(key(frac), move || {
                let cmp = flush_cost_comparison(frac, &CostParams::paper());
                let artifact = cmp.to_json();
                Ok(JobOutput::new(cmp, artifact))
            })
        })
        .collect();
    let legacy = run_jobs(legacy_jobs, 2);

    let s = scenario(include_str!("../../../scenarios/ablation_flush.json"));
    let ours = run_scenario_side(&s, scale);
    assert_artifact_parity(&legacy, &ours);

    // The original assemble() + epilogue prose, via println! semantics.
    let mut t = Table::new("Page flush: tag-checked vs SPUR's tag-blind operation");
    t.headers(&[
        "page occupancy",
        "checked flushed",
        "checked cycles",
        "blind flushed",
        "blind cycles",
        "collateral blocks",
    ]);
    for frac in FRACS {
        let cmp = legacy.require(&key(frac)).unwrap();
        t.row(vec![
            format!("{:.0}%", frac * 100.0),
            cmp.checked_flushed.to_string(),
            cmp.checked_cycles.to_string(),
            cmp.blind_flushed.to_string(),
            cmp.blind_cycles.to_string(),
            cmp.collateral.to_string(),
        ]);
    }
    let mut expected = format!("{}\n", t.render());
    expected.push_str("Section 3.2 assumed ~10% occupancy: the checked flush lands near the\n");
    expected.push_str("paper's ~500 cycles while the blind flush is several times costlier and\n");
    expected.push_str("destroys aliasing blocks from unrelated pages.\n");

    assert_eq!(render_legacy(&s, &ours).unwrap(), expected);
    assert_eq!(
        legacy_banner(&s, &scale),
        None,
        "ablation_flush printed no header"
    );
}

// ---------------------------------------------------------------------------
// ablation_associativity
// ---------------------------------------------------------------------------

#[test]
fn associativity_parity() {
    type NamedWorkload = (&'static str, fn() -> Workload);
    const WORKLOADS: [NamedWorkload; 2] = [("SLC", slc), ("WORKLOAD1", workload1)];
    const WAYS: [usize; 4] = [1, 2, 4, 8];
    let key = |workload: &str, ways: usize| format!("assoc/{workload}/{ways}way");
    let mut scale = tiny();
    scale.refs = scale.refs.min(6_000_000);

    let legacy_jobs: Vec<_> = WORKLOADS
        .iter()
        .flat_map(|&(name, make)| {
            WAYS.map(|ways| {
                Job::new(key(name, ways), move || {
                    let workload = make();
                    let mut misses = 0u64;
                    if ways == 1 {
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
                    Ok(JobOutput::new(ratio, artifact))
                })
            })
        })
        .collect();
    let legacy = run_jobs(legacy_jobs, 2);

    let s = scenario(include_str!(
        "../../../scenarios/ablation_associativity.json"
    ));
    let ours = run_scenario_side(&s, scale);
    assert_artifact_parity(&legacy, &ours);

    let mut t = Table::new("128 KB virtual cache, miss ratio by associativity");
    t.headers(&["Workload", "direct", "2-way", "4-way", "8-way"]);
    for (name, _) in WORKLOADS {
        let mut cells = vec![name.to_string()];
        for ways in WAYS {
            let ratio = legacy.require(&key(name, ways)).unwrap();
            cells.push(format!("{:.2}%", 100.0 * ratio));
        }
        t.row(cells);
    }
    let (direct, assoc) = synonym_hazard_demo();
    let mut expected = format!("{}\n", t.render());
    expected.push_str("Synonym hazard demo (why Sun-3 cannot follow): one datum, two legal\n");
    expected.push_str(&format!(
        "Sun-3 aliases -> {direct} copy in a direct map, {assoc} incoherent copies 2-way.\n"
    ));
    expected.push_str("SPUR's one-global-address rule is what makes associativity an option.\n");

    assert_eq!(render_legacy(&s, &ours).unwrap(), expected);
    assert_eq!(
        legacy_banner(&s, &scale).unwrap(),
        legacy_print_header("ablation: cache associativity (miss ratio, no VM)", &scale)
    );
}

// ---------------------------------------------------------------------------
// ablation_cache_scaling
// ---------------------------------------------------------------------------

#[test]
fn cache_scaling_parity() {
    const CACHE_KBS: [usize; 4] = [32, 128, 512, 2048];
    let key = |kb: usize| format!("cache_scaling/{kb:04}KB");
    let mut scale = tiny();
    scale.refs = scale.refs.min(8_000_000);

    let legacy_jobs: Vec<_> = CACHE_KBS
        .iter()
        .map(|&kb| {
            Job::new(key(kb), move || {
                let workload = slc();
                let (row, _rep) =
                    measure_cache_scaling_point_obs(&workload, MemSize::MB5, &scale, kb, None)
                        .map_err(|e| e.to_string())?;
                let artifact = row.to_json();
                Ok(JobOutput::new(row, artifact))
            })
        })
        .collect();
    let legacy = run_jobs(legacy_jobs, 2);

    let s = scenario(include_str!(
        "../../../scenarios/ablation_cache_scaling.json"
    ));
    let ours = run_scenario_side(&s, scale);
    assert_artifact_parity(&legacy, &ours);

    let rows: Vec<_> = CACHE_KBS
        .iter()
        .map(|&kb| legacy.require(&key(kb)).unwrap().clone())
        .collect();
    let mut expected = format!("{}\n", render_cache_scaling(&rows));
    expected.push_str("Expected trend: the MISS/REF page-in ratio grows with cache size,\n");
    expected.push_str("and MISS's ref faults (its chances to re-set R) shrink.\n");

    assert_eq!(render_legacy(&s, &ours).unwrap(), expected);
    assert_eq!(
        legacy_banner(&s, &scale).unwrap(),
        legacy_print_header("ablation: MISS approximation vs cache size", &scale)
    );
}

// ---------------------------------------------------------------------------
// ablation_periodic_daemon (crossover)
// ---------------------------------------------------------------------------

#[test]
fn periodic_daemon_parity() {
    const PERIODS: [Option<u64>; 3] = [None, Some(500_000), Some(100_000)];
    let key = |period: Option<u64>, policy: RefPolicy| {
        let p = period.map_or("off".to_string(), |p| format!("{p:07}"));
        format!("crossover/{p}/{policy}")
    };
    let mut scale = tiny();
    scale.refs = scale.refs.min(12_000_000);

    let legacy_jobs: Vec<_> = PERIODS
        .iter()
        .flat_map(|&period| {
            RefPolicy::ALL.map(|policy| {
                Job::new(key(period, policy), move || {
                    let workload = workload1();
                    let (row, _rep) = measure_crossover_obs(
                        &workload,
                        MemSize::MB8,
                        period,
                        policy,
                        &scale,
                        None,
                    )
                    .map_err(|e| e.to_string())?;
                    let artifact = row.to_json();
                    Ok(JobOutput::new(row, artifact))
                })
            })
        })
        .collect();
    let legacy = run_jobs(legacy_jobs, 2);

    let s = scenario(include_str!(
        "../../../scenarios/ablation_periodic_daemon.json"
    ));
    let ours = run_scenario_side(&s, scale);
    assert_artifact_parity(&legacy, &ours);

    let mut rows = Vec::new();
    for period in PERIODS {
        for policy in RefPolicy::ALL {
            rows.push(legacy.require(&key(period, policy)).unwrap().clone());
        }
    }
    let mut expected = format!("{}\n", render_crossover(&rows));
    expected.push_str("Paper, Section 4.2 (WORKLOAD1 @ 8 MB): NOREF ran 2% FASTER than MISS\n");
    expected.push_str("because maintaining bits nobody needs is pure overhead. The periodic\n");
    expected.push_str("hand reproduces that crossover; pressure-only daemons hide it.\n");

    assert_eq!(render_legacy(&s, &ours).unwrap(), expected);
    assert_eq!(
        legacy_banner(&s, &scale).unwrap(),
        legacy_print_header("ablation: periodic daemon (WORKLOAD1 @ 8 MB)", &scale)
    );
}

// ---------------------------------------------------------------------------
// ablation_sensitivity (events, key_prefix "sensitivity")
// ---------------------------------------------------------------------------

#[test]
fn sensitivity_parity() {
    let scale = tiny();

    let legacy = run_jobs(
        vec![events_job_obs(
            "sensitivity/SLC/5MB".to_string(),
            slc,
            MemSize::MB5,
            scale,
            None,
        )],
        1,
    );

    let s = scenario(include_str!("../../../scenarios/ablation_sensitivity.json"));
    let ours = run_scenario_side(&s, scale);
    assert_artifact_parity(&legacy, &ours);

    let row = legacy.require("sensitivity/SLC/5MB").unwrap();
    let mut t = Table::new("t_dc sensitivity: does WRITE ever stop losing?");
    t.headers(&[
        "t_dc",
        "O(WRITE) Mcycles",
        "worst other Mcycles",
        "WRITE still worst?",
    ]);
    for r in tdc_sensitivity(&row.events) {
        t.row(vec![
            r.t_dc.to_string(),
            format!("{:.3}", r.write_overhead.millions()),
            format!("{:.3}", r.best_other.millions()),
            if r.write_still_loses { "yes" } else { "no" }.to_string(),
        ]);
    }
    let mut expected = format!("{}\n", t.render());
    expected.push_str(&format!(
        "{}\n",
        render_handler_tuning(&handler_tuning(&row.events))
    ));

    assert_eq!(render_legacy(&s, &ours).unwrap(), expected);
    assert_eq!(
        legacy_banner(&s, &scale).unwrap(),
        legacy_print_header("ablation: cost-parameter sensitivity", &scale)
    );
}

// ---------------------------------------------------------------------------
// ablation_soft_faults
// ---------------------------------------------------------------------------

#[test]
fn soft_faults_parity() {
    const POLICIES: [RefPolicy; 2] = [RefPolicy::Miss, RefPolicy::Noref];
    let key = |policy: RefPolicy, enabled: bool| {
        format!(
            "soft_faults/{policy}/{}",
            if enabled { "on" } else { "off" }
        )
    };
    let mut scale = tiny();
    scale.refs = scale.refs.min(6_000_000);

    let legacy_jobs: Vec<_> = POLICIES
        .iter()
        .flat_map(|&policy| {
            [true, false].map(|enabled| {
                Job::new(key(policy, enabled), move || {
                    let workload = workload1();
                    let mut sim = SpurSystem::new(SimConfig {
                        mem: MemSize::MB5,
                        dirty: DirtyPolicy::Spur,
                        ref_policy: policy,
                        soft_faults: enabled,
                        ..SimConfig::default()
                    })
                    .map_err(|e| e.to_string())?;
                    sim.load_workload(&workload).map_err(|e| e.to_string())?;
                    sim.run(&mut workload.generator(scale.seed), scale.refs)
                        .map_err(|e| e.to_string())?;
                    let stats = sim.vm().stats();
                    let artifact = Json::object([
                        ("policy", Json::from(policy.to_string())),
                        ("soft_faults_enabled", Json::from(enabled)),
                        ("page_ins", Json::from(stats.page_ins)),
                        ("soft_faults_taken", Json::from(stats.soft_faults)),
                        ("elapsed_secs", Json::from(sim.events().elapsed_seconds())),
                    ]);
                    Ok(JobOutput::new(
                        (
                            stats.page_ins,
                            stats.soft_faults,
                            sim.events().elapsed_seconds(),
                        ),
                        artifact,
                    ))
                })
            })
        })
        .collect();
    let legacy = run_jobs(legacy_jobs, 2);

    let s = scenario(include_str!("../../../scenarios/ablation_soft_faults.json"));
    let ours = run_scenario_side(&s, scale);
    assert_artifact_parity(&legacy, &ours);

    let mut t = Table::new("Soft-fault window on/off");
    t.headers(&[
        "Policy",
        "Soft faults",
        "Page-Ins",
        "Soft-faults taken",
        "Elapsed(s)",
    ]);
    for policy in POLICIES {
        for enabled in [true, false] {
            let (page_ins, soft_faults, elapsed_secs) =
                legacy.require(&key(policy, enabled)).unwrap();
            t.row(vec![
                policy.to_string(),
                if enabled { "on" } else { "off" }.to_string(),
                page_ins.to_string(),
                soft_faults.to_string(),
                format!("{elapsed_secs:.1}"),
            ]);
        }
    }
    let mut expected = format!("{}\n", t.render());
    expected.push_str("Expected: MISS barely changes (its R bits already protect hot pages),\n");
    expected.push_str("but NOREF without the soft-fault window thrashes.\n");

    assert_eq!(render_legacy(&s, &ours).unwrap(), expected);
    assert_eq!(
        legacy_banner(&s, &scale).unwrap(),
        legacy_print_header("ablation: free-list soft faults (WORKLOAD1 @ 5 MB)", &scale)
    );
}

// ---------------------------------------------------------------------------
// ablation_watermarks
// ---------------------------------------------------------------------------

#[test]
fn watermarks_parity() {
    const HIGHS: [u32; 5] = [32, 64, 107, 160, 320];
    const POLICIES: [RefPolicy; 2] = [RefPolicy::Miss, RefPolicy::Noref];
    let key = |high: u32, policy: RefPolicy| format!("watermarks/{high:03}/{policy}");
    let mut scale = tiny();
    scale.refs = scale.refs.min(6_000_000);

    let legacy_jobs: Vec<_> = HIGHS
        .iter()
        .flat_map(|&high| {
            POLICIES.map(|policy| {
                Job::new(key(high, policy), move || {
                    let workload = workload1();
                    let mut sim = SpurSystem::new(SimConfig {
                        mem: MemSize::MB5,
                        dirty: DirtyPolicy::Spur,
                        ref_policy: policy,
                        free_low_water: (high / 4).max(8),
                        free_high_water: high,
                        ..SimConfig::default()
                    })
                    .map_err(|e| e.to_string())?;
                    sim.load_workload(&workload).map_err(|e| e.to_string())?;
                    sim.run(&mut workload.generator(scale.seed), scale.refs)
                        .map_err(|e| e.to_string())?;
                    let stats = sim.vm().stats();
                    let artifact = Json::object([
                        ("free_high_water", Json::from(high)),
                        ("policy", Json::from(policy.to_string())),
                        ("page_ins", Json::from(stats.page_ins)),
                        ("soft_faults_taken", Json::from(stats.soft_faults)),
                        ("elapsed_secs", Json::from(sim.events().elapsed_seconds())),
                    ]);
                    Ok(JobOutput::new(
                        (
                            stats.page_ins,
                            stats.soft_faults,
                            sim.events().elapsed_seconds(),
                        ),
                        artifact,
                    ))
                })
            })
        })
        .collect();
    let legacy = run_jobs(legacy_jobs, 2);

    let s = scenario(include_str!("../../../scenarios/ablation_watermarks.json"));
    let ours = run_scenario_side(&s, scale);
    assert_artifact_parity(&legacy, &ours);

    let mut t = Table::new("High watermark (= soft-fault window) vs paging");
    t.headers(&[
        "high water",
        "policy",
        "page-ins",
        "soft faults",
        "elapsed(s)",
    ]);
    for high in HIGHS {
        for policy in POLICIES {
            let (page_ins, soft_faults, elapsed_secs) = legacy.require(&key(high, policy)).unwrap();
            t.row(vec![
                high.to_string(),
                policy.to_string(),
                page_ins.to_string(),
                soft_faults.to_string(),
                format!("{elapsed_secs:.1}"),
            ]);
        }
    }
    let mut expected = format!("{}\n", t.render());
    expected.push_str("The window trades resident capacity for forgiveness: tiny windows\n");
    expected.push_str("punish NOREF's mis-reclaims with page-ins; huge ones shrink usable\n");
    expected.push_str("memory and push page-ins up for everyone.\n");

    assert_eq!(render_legacy(&s, &ours).unwrap(), expected);
    assert_eq!(
        legacy_banner(&s, &scale).unwrap(),
        legacy_print_header("ablation: daemon watermarks (WORKLOAD1 @ 5 MB)", &scale)
    );
}
