//! The scenario runner: resolve the scale, expand the matrix, run the
//! jobs, persist artifacts, evaluate assertions.
//!
//! `parse_run_flags` is the one parser of the run flags: `spur-scenario
//! run` and every experiment binary in spur-bench read their command
//! lines through it, so a bad value is a usage error everywhere.
//!
//! The persistence epilogue ([`persist_run`]) is the one every harness
//! binary ends with — run directory `<name>-<scale>`, the same
//! manifest meta in the same order, the same stderr summary — so a
//! scenario run is a drop-in replacement for the binary it folded in,
//! down to the artifact tree.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use spur_core::experiments::Scale;
use spur_core::obs::ObsParams;
use spur_harness::{
    default_root, job_artifact_json, run_jobs_with_progress, write_run, Json, RunReport,
};

use crate::asserts::{evaluate, CellResult, Verdict};
use crate::cells::{expand, Cell, CellValue};
use crate::config::{parse_scale, Scenario};

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
    /// Traces still export when `trace_out` is set.
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

/// Usage text for the run flags `parse_run_flags` reads.
pub const RUN_FLAGS_USAGE: &str =
    "  --scale quick|default|full   scale preset (default: the scenario's, else default)
  --jobs N                     worker threads (default: $SPUR_JOBS, else all cores)
  --no-obs                     disable per-simulation observability
  --epoch N                    counter-series epoch override (references, N > 0)
  --trace-out DIR              export Chrome traces under DIR
  --progress                   stderr heartbeat while the pool runs (or $SPUR_PROGRESS)";

/// `parse_run_flags` over `args` and the process's `SPUR_JOBS` and
/// `SPUR_PROGRESS`.
///
/// # Errors
///
/// As `parse_run_flags`.
pub fn run_flags(args: impl IntoIterator<Item = String>) -> RunFlags {
    let var = |name| std::env::var(name).ok();
    parse_run_flags(
        args,
        var("SPUR_JOBS").as_deref(),
        var("SPUR_PROGRESS").as_deref(),
    )
}

/// The options the run flags set, and the other arguments in order.
pub(crate) type RunFlags = Result<(RunnerOptions, Vec<String>), String>;

/// Reads the run flags (`--scale`, `--jobs`, `--no-obs`, `--epoch`,
/// `--trace-out`, `--progress`) out of `args`, given the `SPUR_JOBS`
/// and `SPUR_PROGRESS` values. The worker count is `--jobs`, else a
/// non-empty `SPUR_JOBS`, else available parallelism; the heartbeat is
/// on with `--progress` or a `SPUR_PROGRESS` other than empty or `0`.
/// The other arguments are left for the caller to accept or refuse.
///
/// # Errors
///
/// A usage message for a missing or bad value, or for a non-empty
/// `SPUR_JOBS` that is not a positive integer.
pub(crate) fn parse_run_flags(
    args: impl IntoIterator<Item = String>,
    jobs_env: Option<&str>,
    progress_env: Option<&str>,
) -> RunFlags {
    let mut opts = RunnerOptions {
        progress: progress_env.is_some_and(|v| !v.is_empty() && v != "0"),
        ..RunnerOptions::default()
    };
    if let Some(v) = jobs_env.filter(|v| !v.is_empty()) {
        opts.workers = positive("SPUR_JOBS", Some(v))?;
    }
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let preset = Json::Str(args.next().unwrap_or_default());
                let scale = parse_scale(&preset, Scale::default_scale());
                opts.scale = Some(scale.map_err(|e| format!("--{e}"))?);
            }
            "--jobs" => opts.workers = positive("--jobs", args.next().as_deref())?,
            "--epoch" => opts.epoch = Some(positive("--epoch", args.next().as_deref())?),
            "--trace-out" => match args.next() {
                Some(dir) if !dir.starts_with("--") => opts.trace_out = Some(PathBuf::from(dir)),
                _ => return Err("--trace-out: expected a directory".into()),
            },
            "--no-obs" => opts.obs_enabled = false,
            "--progress" => opts.progress = true,
            _ => rest.push(arg),
        }
    }
    Ok((opts, rest))
}

fn positive<T: std::str::FromStr + Default + PartialOrd>(
    what: &str,
    value: Option<&str>,
) -> Result<T, String> {
    match value.and_then(|v| v.parse::<T>().ok()) {
        Some(n) if n > T::default() => Ok(n),
        _ => Err(format!("{what}: expected a positive integer")),
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
    pub(crate) fn failed_cells(&self) -> Vec<&str> {
        self.report
            .jobs()
            .iter()
            .filter(|j| j.outcome.is_err())
            .map(|j| j.key.as_str())
            .collect()
    }

    /// Whether every assertion passed.
    pub(crate) fn assertions_passed(&self) -> bool {
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
    } else if let Some(root) = &opts.trace_out {
        report_traces(root, &run_name(&scenario.name, &scale), &report);
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
/// Assertion failures exit non-zero *after* the tables print, so the
/// legacy stdout stays complete even when a scenario adds expectations
/// the old binary never checked.
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
pub(crate) fn report_failed_assertions(run: &ScenarioRun) {
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
    let run_name = run_name(name, scale);
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
        report_traces(root, &run_name, report);
    }
}

/// The run directory name: `<name>-<scale>`.
fn run_name(name: &str, scale: &Scale) -> String {
    format!("{name}-{}", scale_name(scale))
}

/// Exports the run's Chrome traces under `root` and prints the
/// `traces:` line on stderr.
fn report_traces<T>(root: &Path, run_name: &str, report: &RunReport<T>) {
    match export_traces(root, run_name, report) {
        Ok(0) => eprintln!("traces: none to export (observability off or no trace data)"),
        Ok(n) => eprintln!(
            "traces: {n} file(s) under {}",
            root.join(run_name).display()
        ),
        Err(e) => eprintln!("trace export FAILED: {e}"),
    }
}

/// Writes the scenario-level verdict document next to the per-job
/// artifacts, as `<run dir>/scenario.json`. Purely additive: the
/// per-job files and manifest stay byte-identical to a legacy run.
fn write_scenario_result(scenario: &Scenario, run: &ScenarioRun) {
    let dir = default_root().join(run_name(&scenario.name, &run.scale));
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
/// name. Each trace is encoded here, straight into its file, one job
/// at a time. Returns the number of files written.
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
        let mut out = BufWriter::new(File::create(&file)?);
        trace.write_to(&mut out)?;
        out.write_all(b"\n")?;
        out.flush()?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], jobs_env: Option<&str>, progress_env: Option<&str>) -> RunFlags {
        parse_run_flags(args.iter().map(|a| a.to_string()), jobs_env, progress_env)
    }

    #[test]
    fn reads_every_run_flag_and_returns_the_rest_in_order() {
        let (opts, rest) = parse(
            &[
                "--verify",
                "--scale",
                "quick",
                "--jobs",
                "3",
                "--no-obs",
                "--epoch",
                "100000",
                "x.json",
                "--trace-out",
                "results/trace",
                "--progress",
                "--csv",
            ],
            None,
            None,
        )
        .unwrap();
        assert_eq!(opts.scale, Some(Scale::quick()));
        assert_eq!(opts.workers, 3);
        assert!(!opts.obs_enabled);
        assert_eq!(opts.epoch, Some(100_000));
        assert_eq!(opts.trace_out.as_deref(), Some(Path::new("results/trace")));
        assert!(opts.progress);
        assert!(opts.persist, "--no-persist is spur-scenario's own flag");
        assert_eq!(rest, ["--verify", "x.json", "--csv"]);

        let (opts, rest) = parse(&[], None, None).unwrap();
        assert_eq!(opts.scale, None);
        assert!(opts.obs_enabled && opts.epoch.is_none() && opts.trace_out.is_none());
        assert!(!opts.progress);
        assert!(rest.is_empty());
    }

    #[test]
    fn jobs_precedence_is_flag_env_parallelism() {
        let workers = |args: &[&str], env| parse(args, env, None).map(|(o, _)| o.workers);
        assert_eq!(workers(&["--jobs", "8"], Some("4")), Ok(8));
        assert_eq!(workers(&[], Some("4")), Ok(4));
        let auto = RunnerOptions::default().workers;
        assert_eq!(workers(&[], None), Ok(auto));
        assert_eq!(workers(&[], Some("")), Ok(auto));
    }

    #[test]
    fn bad_values_are_errors() {
        let cases: [(&[&str], Option<&str>, &str); 11] = [
            (&["--scale", "bogus"], None, "--scale: unknown preset"),
            (&["--scale"], None, "--scale: unknown preset"),
            (&["--jobs", "0"], None, "--jobs: expected a positive"),
            (&["--jobs", "x"], None, "--jobs: expected a positive"),
            (&["--jobs"], None, "--jobs: expected a positive"),
            (&["--epoch", "-1"], None, "--epoch: expected a positive"),
            (&["--trace-out"], None, "--trace-out: expected a dir"),
            (&["--trace-out", "--json"], None, "--trace-out: expected"),
            (&[], Some("x"), "SPUR_JOBS: expected a positive"),
            (&[], Some("0"), "SPUR_JOBS: expected a positive"),
            (&["--jobs", "8"], Some("x"), "SPUR_JOBS: expected"),
        ];
        for (args, env, needle) in cases {
            let err = parse(args, env, None).unwrap_err();
            assert!(err.contains(needle), "{args:?} {env:?}: {err}");
        }
    }

    #[test]
    fn progress_env_is_truthy() {
        let progress = |env| parse(&[], None, env).unwrap().0.progress;
        assert!(progress(Some("1")));
        assert!(progress(Some("yes")));
        assert!(!progress(Some("0")));
        assert!(!progress(Some("")));
        assert!(!progress(None));
    }
}
