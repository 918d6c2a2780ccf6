//! The scenario runner: resolve the scale, expand the matrix, run the
//! jobs, persist artifacts, evaluate assertions.
//!
//! The persistence epilogue ([`persist_run`]) is the one every harness
//! binary ends with — run directory `<name>-<scale>`, the same
//! manifest meta in the same order, the same stderr summary — so a
//! scenario run is a drop-in replacement for the binary it folded in,
//! down to the artifact tree.

use std::path::{Path, PathBuf};

use spur_core::experiments::Scale;
use spur_core::obs::ObsParams;
use spur_harness::{
    default_root, job_artifact_json, run_jobs_with_progress, write_run, Json, RunReport,
};

use crate::asserts::{evaluate, CellResult, Verdict};
use crate::cells::{expand, Cell, CellValue};
use crate::config::Scenario;

/// How to run a scenario (the CLI flags, as data).
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// `--scale` override; `None` defers to the scenario's `scale`
    /// (and then the default preset).
    pub scale: Option<Scale>,
    /// Harness worker threads.
    pub workers: usize,
    /// Master observability switch (`--no-obs` clears it); ANDed with
    /// the scenario's `run.obs`.
    pub obs_enabled: bool,
    /// `--epoch` override for the counter series; `None` defers to the
    /// scenario's `run.epoch`.
    pub epoch: Option<u64>,
    /// `--trace-out` directory for Chrome-trace export.
    pub trace_out: Option<PathBuf>,
    /// Stderr heartbeat while the pool runs.
    pub progress: bool,
    /// Write artifacts (tests turn this off to run hermetically).
    pub persist: bool,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            scale: None,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            obs_enabled: true,
            epoch: None,
            trace_out: None,
            progress: false,
            persist: true,
        }
    }
}

/// A completed scenario run.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The resolved (and clamped) scale the cells ran at.
    pub scale: Scale,
    /// The expanded cells, in expansion order.
    pub cells: Vec<Cell>,
    /// The harness report (typed values, artifacts, failures).
    pub report: RunReport<CellValue>,
    /// One verdict per declared assertion, in declaration order.
    pub verdicts: Vec<Verdict>,
}

impl ScenarioRun {
    /// Keys of cells that failed (error or panic).
    pub fn failed_cells(&self) -> Vec<&str> {
        self.report
            .jobs()
            .iter()
            .filter(|j| j.outcome.is_err())
            .map(|j| j.key.as_str())
            .collect()
    }

    /// Whether every assertion passed.
    pub fn assertions_passed(&self) -> bool {
        self.verdicts.iter().all(|v| v.passed)
    }

    /// Whether the run as a whole succeeded: no failed cells, no
    /// failed assertions. This is the CLI's exit status and CI's gate.
    pub fn passed(&self) -> bool {
        self.failed_cells().is_empty() && self.assertions_passed()
    }

    /// The scenario-level result document: per-cell status plus
    /// assertion verdicts (the serve path's scenario result body and
    /// the `scenario.json` artifact share this shape).
    pub fn to_json(&self, name: &str) -> Json {
        let cells: Vec<Json> = self
            .report
            .jobs()
            .iter()
            .map(|j| {
                let status = if j.outcome.is_ok() { "done" } else { "failed" };
                let mut fields = vec![
                    ("key", Json::from(j.key.as_str())),
                    ("status", Json::from(status)),
                ];
                if let Err(f) = &j.outcome {
                    fields.push(("error", Json::from(f.reason.as_str())));
                }
                Json::object(fields)
            })
            .collect();
        Json::object([
            ("scenario", Json::from(name)),
            ("passed", Json::Bool(self.passed())),
            ("cells", Json::Arr(cells)),
            (
                "assertions",
                Json::Arr(self.verdicts.iter().map(Verdict::to_json).collect()),
            ),
        ])
    }
}

/// The effective per-simulation observability parameters.
pub fn effective_obs(scenario: &Scenario, opts: &RunnerOptions) -> Option<ObsParams> {
    (opts.obs_enabled && scenario.run.obs).then(|| ObsParams {
        epoch: opts.epoch.or(scenario.run.epoch),
        ..ObsParams::default()
    })
}

/// Runs a validated scenario end to end.
///
/// # Errors
///
/// Returns an error if expansion fails (colliding keys) — run-time
/// cell failures and assertion failures are reported in the returned
/// [`ScenarioRun`], not as `Err`, so the caller still gets artifacts
/// and partial results.
pub fn run_scenario(scenario: &Scenario, opts: &RunnerOptions) -> Result<ScenarioRun, String> {
    let scale = scenario.resolve_scale(opts.scale);
    let (cells, jobs): (Vec<Cell>, Vec<_>) =
        expand(scenario, scale, effective_obs(scenario, opts))?
            .into_iter()
            .unzip();
    let report = run_jobs_with_progress(jobs, opts.workers, opts.progress);
    if opts.persist {
        persist_run(&scenario.name, &scale, &report, opts.trace_out.as_deref());
    }

    let results: Vec<CellResult> = cells
        .iter()
        .filter_map(|cell| {
            report
                .jobs()
                .iter()
                .find(|j| j.key == cell.key && j.outcome.is_ok())
                .map(|j| CellResult {
                    key: cell.key.clone(),
                    coords: cell.coords.clone(),
                    doc: job_artifact_json(j),
                })
        })
        .collect();
    let verdicts = evaluate(&scenario.assertions, &results);

    let run = ScenarioRun {
        scale,
        cells,
        report,
        verdicts,
    };
    if opts.persist && !scenario.assertions.is_empty() {
        write_scenario_result(scenario, &run);
    }
    Ok(run)
}

/// Drives a scenario the way its folded-in legacy binary did: banner
/// first, then the run (artifacts + stderr epilogue), then the legacy
/// stdout tables, byte-for-byte. Returns the process exit code.
///
/// Assertion failures exit non-zero *after* the tables print, so a
/// wrapper binary stays pipe-compatible with its legacy stdout even
/// when a scenario adds expectations the old binary never checked.
pub fn run_legacy(scenario: &Scenario, opts: &RunnerOptions) -> i32 {
    let scale = scenario.resolve_scale(opts.scale);
    if let Some(banner) = crate::render::legacy_banner(scenario, &scale) {
        print!("{banner}");
    }
    let run = match run_scenario(scenario, opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{}: {e}", crate::render::error_prefix(scenario.kind));
            return 1;
        }
    };
    match crate::render::render_legacy(scenario, &run.report) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("{}: {e}", crate::render::error_prefix(scenario.kind));
            return 1;
        }
    }
    if !run.assertions_passed() {
        report_failed_assertions(&run);
        return 1;
    }
    0
}

/// Prints every failed assertion (name plus per-cell failures) to
/// stderr.
pub fn report_failed_assertions(run: &ScenarioRun) {
    for v in run.verdicts.iter().filter(|v| !v.passed) {
        eprintln!("assertion failed: {}", v.name);
        for f in &v.failures {
            eprintln!("  {f}");
        }
    }
}

/// Names a scale for artifact run directories, exactly like the
/// legacy binaries: the preset's name, or `"custom"` once clamped
/// away from any preset.
pub fn scale_name(scale: &Scale) -> &'static str {
    if *scale == Scale::quick() {
        "quick"
    } else if *scale == Scale::default_scale() {
        "default"
    } else if *scale == Scale::full() {
        "full"
    } else {
        "custom"
    }
}

/// The run epilogue every harness binary and scenario run ends with:
/// persist artifacts under `results/json/<name>-<scale>/` (or
/// `$SPUR_RESULTS_DIR`), print the run summary and the per-job
/// wall-time histogram, and export Chrome traces under `trace_out`
/// on request — all on stderr, leaving stdout to the tables. Wall
/// times are nondeterministic, so they never enter the artifacts.
pub fn persist_run<T>(name: &str, scale: &Scale, report: &RunReport<T>, trace_out: Option<&Path>) {
    let run_name = format!("{name}-{}", scale_name(scale));
    let meta = [
        ("refs", Json::from(scale.refs)),
        ("reps", Json::from(scale.reps)),
        ("seed", Json::from(scale.seed)),
        ("dev_refs_per_hour", Json::from(scale.dev_refs_per_hour)),
    ];
    match write_run(&default_root(), &run_name, report, &meta) {
        Ok(art) => eprintln!("{}\nartifacts: {}", report.summary(), art.dir.display()),
        Err(e) => eprintln!("{}\nartifact write FAILED: {e}", report.summary()),
    }
    eprintln!("{}", wall_histogram_line(report));
    if let Some(root) = trace_out {
        match export_traces(root, &run_name, report) {
            Ok(0) => eprintln!("traces: none to export (observability off or no trace data)"),
            Ok(n) => eprintln!(
                "traces: {n} file(s) under {}",
                root.join(run_name).display()
            ),
            Err(e) => eprintln!("trace export FAILED: {e}"),
        }
    }
}

/// Writes the scenario-level verdict document next to the per-job
/// artifacts, as `<run dir>/scenario.json`. Purely additive: the
/// per-job files and manifest stay byte-identical to a legacy run.
fn write_scenario_result(scenario: &Scenario, run: &ScenarioRun) {
    let dir = default_root().join(format!("{}-{}", scenario.name, scale_name(&run.scale)));
    let doc = run.to_json(&scenario.name);
    let path = dir.join("scenario.json");
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.encode_pretty() + "\n"))
    {
        eprintln!("scenario verdict write FAILED: {e}");
    } else {
        eprintln!("scenario verdicts: {}", path.display());
    }
}

fn wall_histogram_line<T>(report: &RunReport<T>) -> String {
    let mut wall = spur_obs::Histogram::new("job_wall_ms");
    for job in report.jobs() {
        wall.record(job.wall.as_millis() as u64);
    }
    let buckets: Vec<String> = wall
        .nonzero_buckets()
        .iter()
        .map(|&(lo, hi, n)| format!("[{lo}-{hi}ms]x{n}"))
        .collect();
    format!("job wall histogram: {}", buckets.join(" "))
}

/// Writes every successful job's Chrome trace to
/// `<root>/<run_name>/<key>.trace.json`, keys mapped to file stems by
/// the artifact writer's rule so each trace sits beside its artifact's
/// name. Returns the number of files written.
///
/// # Errors
///
/// Propagates the first filesystem error.
pub fn export_traces<T>(
    root: &Path,
    run_name: &str,
    report: &RunReport<T>,
) -> std::io::Result<usize> {
    let dir = root.join(run_name);
    let mut written = 0;
    for job in report.jobs() {
        let Ok(output) = &job.outcome else { continue };
        let Some(trace) = &output.trace else { continue };
        if written == 0 {
            std::fs::create_dir_all(&dir)?;
        }
        let file = dir.join(format!(
            "{}.trace.json",
            spur_harness::artifacts::sanitize_key(&job.key)
        ));
        std::fs::write(&file, trace.encode() + "\n")?;
        written += 1;
    }
    Ok(written)
}
