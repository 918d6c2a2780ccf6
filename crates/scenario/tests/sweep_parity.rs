//! Parity between the committed `scenarios/sweep_tlb.json` and
//! `scenarios/mp_refbit.json` configs and the `sweep_tlb` and
//! `mp_refbit` binaries they replaced.
//!
//! Each test rebuilds the deleted binary inline — its cells, its keys,
//! its `println!` calls and, for `mp_refbit`, the analytic model's two
//! extra uniprocessor simulations — and compares the artifacts byte for
//! byte and the stdout against the banner plus `render_legacy` over a
//! scenario run.

use spur_cache::counters::CounterEvent;
use spur_core::experiments::sweep::{measure_tlb_point, render_tlb_sweep, TlbSweepRow};
use spur_core::experiments::Scale;
use spur_core::jobs::attach_obs;
use spur_core::report::Table;
use spur_core::{DirtyPolicy, ObsParams, SimConfig, SpurSystem};
use spur_harness::{job_artifact_json, run_jobs, Job, JobOutput, RunReport};
use spur_mp::experiment::MP_DAEMON_PERIOD;
use spur_mp::{measure_mp, measure_mp_obs, mp_key, render_mp};
use spur_scenario::cells::expand;
use spur_scenario::render::{legacy_banner, render_legacy};
use spur_scenario::{CellValue, Scenario};
use spur_trace::workloads::{mp_workers, workload1};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

const SWEEP_TLB: &str = include_str!("../../../scenarios/sweep_tlb.json");
const MP_REFBIT: &str = include_str!("../../../scenarios/mp_refbit.json");

fn tiny() -> Scale {
    Scale {
        refs: 20_000,
        seed: 1989,
        reps: 1,
        dev_refs_per_hour: 1_000,
    }
}

/// What `print_header` in the deleted binaries wrote.
fn print_header(what: &str, scale: &Scale) -> String {
    format!(
        "SPUR reference/dirty-bit reproduction — {what}\nscale: {} references/run, {} rep(s), seed {}\n\n",
        scale.refs, scale.reps, scale.seed
    )
}

/// Runs a committed config's cells at `scale` and returns the report
/// with the `--legacy-stdout` output: banner, then the rendered tables.
fn scenario_run(
    config: &str,
    scale: Scale,
    obs: Option<ObsParams>,
) -> (RunReport<CellValue>, String) {
    let scenario = Scenario::parse_str(config).expect("committed config parses");
    let jobs = expand(&scenario, scale, obs)
        .expect("expansion succeeds")
        .into_iter()
        .map(|(_, job)| job)
        .collect();
    let report = run_jobs(jobs, 2);
    let banner = legacy_banner(&scenario, &scale).expect("the config declares a banner");
    let stdout = banner + &render_legacy(&scenario, &report).expect("every cell ran");
    (report, stdout)
}

/// Byte-compares every legacy job's artifact against the scenario
/// report's artifact for the same key, in the same order.
fn assert_artifact_parity<T>(legacy: &RunReport<T>, ours: &RunReport<CellValue>) {
    let theirs: Vec<&str> = legacy.jobs().iter().map(|j| j.key.as_str()).collect();
    let keys: Vec<&str> = ours.jobs().iter().map(|j| j.key.as_str()).collect();
    assert_eq!(theirs, keys);
    for (theirs, twin) in legacy.jobs().iter().zip(ours.jobs()) {
        assert_eq!(
            job_artifact_json(theirs).encode_pretty(),
            job_artifact_json(twin).encode_pretty(),
            "artifact bytes differ for {}",
            theirs.key
        );
    }
}

#[test]
fn sweep_tlb_config_replaces_the_sweep_tlb_binary() {
    const ENTRIES: [usize; 4] = [16, 64, 256, 1024];
    let key = |entries: usize, flush: bool| {
        format!(
            "tlb/{entries:04}/{}",
            if flush { "flush" } else { "tagged" }
        )
    };
    let scale = tiny();
    let legacy_jobs: Vec<Job<TlbSweepRow>> = ENTRIES
        .iter()
        .flat_map(|&entries| {
            [false, true].map(|flush| {
                Job::new(key(entries, flush), move || {
                    let workload = workload1();
                    let row = measure_tlb_point(&workload, MemSize::MB8, entries, flush, &scale)
                        .map_err(|e| e.to_string())?;
                    let artifact = row.to_json();
                    Ok(JobOutput::new(row, artifact))
                })
            })
        })
        .collect();
    let legacy = run_jobs(legacy_jobs, 2);
    let mut rows = Vec::new();
    for entries in ENTRIES {
        for flush in [false, true] {
            rows.push(legacy.require(&key(entries, flush)).unwrap().clone());
        }
    }
    let expected = format!(
        "{}{}\nSPUR's in-cache translation is, in effect, a 4096-entry TLB that\n\
         costs zero dedicated hardware — the original motivation for the\n\
         design (Wood et al., ISCA 1986).\n",
        print_header("baseline TLB-size sweep (WORKLOAD1 @ 8 MB)", &scale),
        render_tlb_sweep(&rows)
    );

    // The binary ran uninstrumented; the kind ignores a request for
    // observability.
    let (ours, stdout) = scenario_run(SWEEP_TLB, scale, Some(ObsParams::default()));
    assert_artifact_parity(&legacy, &ours);
    assert_eq!(stdout, expected);

    // The binary clamped every scale to 6M references.
    let scenario = Scenario::parse_str(SWEEP_TLB).unwrap();
    assert_eq!(scenario.resolve_scale(Some(Scale::full())).refs, 6_000_000);
}

/// The `mp_workers` shared-reference fraction the model extrapolates
/// with.
const SHARED_FRAC: f64 = 0.20;

/// The analytic model as the deleted `spur_core::experiments::mp`
/// computed it: two extra uniprocessor simulations.
fn simulated_model(scale: &Scale, cpu_counts: &[usize]) -> String {
    let mut t = Table::new(
        "Multiprocessor reference-bit maintenance (ANALYTIC MODEL, extrapolated from 1 CPU)",
    );
    t.headers(&[
        "CPUs",
        "Policy",
        "1-CPU daemon flushes",
        "Predicted writebacks/flush",
    ]);
    for policy in [RefPolicy::Miss, RefPolicy::Ref] {
        let workload = mp_workers(1, 256);
        let mut sim = SpurSystem::new(SimConfig {
            mem: MemSize::MB8,
            dirty: DirtyPolicy::Spur,
            ref_policy: policy,
            cpus: 1,
            daemon_period: Some(MP_DAEMON_PERIOD),
            ..SimConfig::default()
        })
        .unwrap();
        sim.load_workload(&workload).unwrap();
        sim.run(&mut workload.generator(scale.seed), scale.refs)
            .unwrap();
        let flushes = sim.counters().total(CounterEvent::PageFlush);
        let d1 = if flushes > 0 {
            sim.vm().stats().flush_writebacks as f64 / flushes as f64
        } else {
            0.0
        };
        for &cpus in cpu_counts {
            t.row(vec![
                cpus.to_string(),
                policy.to_string(),
                flushes.to_string(),
                format!(
                    "{:.2}",
                    d1 * ((1.0 - SHARED_FRAC) + SHARED_FRAC * cpus as f64)
                ),
            ]);
        }
    }
    t.render()
}

#[test]
fn mp_refbit_config_replaces_the_mp_refbit_binary() {
    const CPUS: [usize; 4] = [1, 2, 4, 8];
    // The daemon clears reference bits once per period, so the cells
    // need a few periods to give the model a nonzero REF baseline.
    let mut scale = tiny();
    scale.refs = 2 * MP_DAEMON_PERIOD;

    // `mp_refbit`: the serial `mp_sweep` over one sharing degree.
    let mut rows = Vec::new();
    for cpus in CPUS {
        for policy in [RefPolicy::Miss, RefPolicy::Ref] {
            rows.push(measure_mp(cpus, policy, 256, &scale).unwrap());
        }
    }
    assert!(rows[1].page_flushes > 0, "REF must exercise the daemon");
    let model = simulated_model(&scale, &CPUS);
    let expected = format!(
        "{}{}\nREF's daemon destroys cached blocks in EVERY cache per R-bit clear,\n\
         so its flush bill scales with the processor count while MISS's\n\
         maintenance cost stays flat — the paper's multiprocessor argument,\n\
         measured above on a real N-cache node with Berkeley ownership.\n\
         \n{model}\n(cross-check: the pre-measurement analytic model, kept for contrast)\n",
        print_header("multiprocessor reference-bit sweep", &scale),
        render_mp(&rows),
    );

    // `mp_refbit` wrote no artifacts; the config's are the `mp` cells
    // of the same keys, observability on.
    let obs = Some(ObsParams::default());
    let legacy_jobs: Vec<_> = CPUS
        .iter()
        .flat_map(|&cpus| {
            [RefPolicy::Miss, RefPolicy::Ref].map(|policy| {
                Job::new(mp_key(cpus, 256, policy), move || {
                    let (row, rep) = measure_mp_obs(cpus, policy, 256, &scale, obs)?;
                    let artifact = row.to_json();
                    Ok(attach_obs(JobOutput::new(row, artifact), rep))
                })
            })
        })
        .collect();
    let legacy = run_jobs(legacy_jobs, 2);
    let (ours, stdout) = scenario_run(MP_REFBIT, scale, obs);
    assert_artifact_parity(&legacy, &ours);
    assert_eq!(stdout, expected);

    // The binary clamped every scale to 8M references.
    let scenario = Scenario::parse_str(MP_REFBIT).unwrap();
    assert_eq!(scenario.resolve_scale(Some(Scale::full())).refs, 8_000_000);
}

#[test]
fn mp_rendering_without_a_one_cpu_baseline_is_an_error() {
    for matrix in [
        r#"{"shared_pages": [256], "cpus": [2], "ref": ["MISS", "REF"]}"#,
        r#"{"shared_pages": [64], "cpus": [1], "ref": ["MISS", "REF"]}"#,
        r#"{"shared_pages": [256], "cpus": [1], "ref": ["MISS"]}"#,
    ] {
        let scenario = Scenario::parse_str(&format!(
            r#"{{"schema_version": 1, "name": "t", "experiment": "mp", "matrix": {matrix}}}"#
        ))
        .unwrap();
        let jobs = expand(&scenario, tiny(), None)
            .unwrap()
            .into_iter()
            .map(|(_, job)| job)
            .collect();
        let err = render_legacy(&scenario, &run_jobs(jobs, 2)).unwrap_err();
        assert!(err.contains("mp/01cpu/0256sh/"), "{matrix}: {err}");
    }
}
