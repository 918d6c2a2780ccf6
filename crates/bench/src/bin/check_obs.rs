//! CI gate for the observability pipeline: validates that a finished
//! run's artifacts carry well-formed metrics, series, and traces.
//!
//! ```text
//! check_obs --run results/json/reproduce_all-quick --trace results/trace
//! ```
//!
//! Checks, in order:
//!
//! * the run's `manifest.json` parses (via the same strict RFC 8259
//!   validator the exporter tests use) and its schema version is >= 2;
//! * every per-job artifact file listed in the manifest parses;
//! * at least one ok job carries a `metrics` section, and every
//!   `metrics` section has the `events` object and `events_total` count;
//! * every `series` section has matching `columns`/`deltas` widths;
//! * every `*.trace.json` under `--trace` parses and is a Chrome-trace
//!   document (a `traceEvents` array of complete event objects).
//!
//! Exits 1 with a message on the first structural failure, so a CI
//! smoke job can run the benchmark and then this binary back-to-back.
//! An unknown argument, a flag without its directory, or neither flag
//! prints the usage text and exits 2.

use std::path::Path;
use std::process::ExitCode;

use spur_harness::Json;
use spur_obs::validate::{get_field, parse};

/// The per-event keys Perfetto's importer expects on a complete event.
const TRACE_EVENT_KEYS: [&str; 7] = ["name", "cat", "ph", "ts", "dur", "pid", "tid"];

/// Reads `--run` and `--trace` in one pass; anything else, a missing
/// value, or neither flag is an error.
fn parse_options(
    args: impl IntoIterator<Item = String>,
) -> Result<(Option<String>, Option<String>), String> {
    let (mut run, mut trace) = (None, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--run" => &mut run,
            "--trace" => &mut trace,
            _ => return Err(format!("unexpected argument {arg:?}")),
        };
        *slot = Some(args.next().ok_or(format!("{arg} takes a directory"))?);
    }
    if run.is_none() && trace.is_none() {
        return Err("give --run, --trace or both".into());
    }
    Ok((run, trace))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn as_u64(v: &Json) -> Option<u64> {
    match v {
        Json::UInt(u) => Some(*u),
        _ => None,
    }
}

/// Validates one `metrics` object: the per-kind `events` map and the
/// `events_total` count must be present and consistent.
fn check_metrics(metrics: &Json, what: &str) -> Result<(), String> {
    let events = get_field(metrics, "events")
        .ok_or_else(|| format!("{what}: metrics missing \"events\""))?;
    let Json::Obj(kinds) = events else {
        return Err(format!("{what}: metrics \"events\" is not an object"));
    };
    let mut sum = 0u64;
    for (k, v) in kinds {
        sum += as_u64(v).ok_or_else(|| format!("{what}: event {k} is not a count"))?;
    }
    let total = get_field(metrics, "events_total")
        .and_then(as_u64)
        .ok_or_else(|| format!("{what}: metrics missing \"events_total\""))?;
    if sum != total {
        return Err(format!(
            "{what}: events_total {total} != sum of per-kind counts {sum}"
        ));
    }
    Ok(())
}

/// Validates one `series` object: every row's delta vector must match
/// the column list.
fn check_series(series: &Json, what: &str) -> Result<(), String> {
    let Some(Json::Arr(columns)) = get_field(series, "columns") else {
        return Err(format!("{what}: series missing \"columns\""));
    };
    let Some(Json::Arr(rows)) = get_field(series, "rows") else {
        return Err(format!("{what}: series missing \"rows\""));
    };
    for (i, row) in rows.iter().enumerate() {
        let Some(Json::Arr(deltas)) = get_field(row, "deltas") else {
            return Err(format!("{what}: series row {i} missing \"deltas\""));
        };
        if deltas.len() != columns.len() {
            return Err(format!(
                "{what}: series row {i} has {} deltas for {} columns",
                deltas.len(),
                columns.len()
            ));
        }
    }
    Ok(())
}

/// Validates the run directory: manifest, job files, metrics, series.
/// Returns (jobs checked, jobs carrying metrics).
fn check_run(dir: &Path) -> Result<(usize, usize), String> {
    let manifest = read_json(&dir.join("manifest.json"))?;
    let version = get_field(&manifest, "schema_version")
        .and_then(as_u64)
        .ok_or("manifest missing schema_version")?;
    if version < 2 {
        return Err(format!(
            "manifest schema_version {version} predates the metrics section"
        ));
    }
    let Some(Json::Arr(jobs)) = get_field(&manifest, "jobs") else {
        return Err("manifest missing \"jobs\" array".to_string());
    };
    let mut with_metrics = 0usize;
    for job in jobs {
        let key = match get_field(job, "key") {
            Some(Json::Str(k)) => k.clone(),
            _ => return Err("manifest job entry missing \"key\"".to_string()),
        };
        let file = match get_field(job, "file") {
            Some(Json::Str(f)) => f.clone(),
            _ => return Err(format!("{key}: manifest entry missing \"file\"")),
        };
        let artifact = read_json(&dir.join(&file))?;
        if let Some(metrics) = get_field(job, "metrics") {
            with_metrics += 1;
            check_metrics(metrics, &key)?;
            // The same metrics must ride the job artifact too.
            let in_artifact = get_field(&artifact, "metrics")
                .ok_or_else(|| format!("{key}: metrics in manifest but not in {file}"))?;
            check_metrics(in_artifact, &format!("{key} ({file})"))?;
        }
        if let Some(series) = get_field(&artifact, "series") {
            check_series(series, &format!("{key} ({file})"))?;
        }
    }
    Ok((jobs.len(), with_metrics))
}

/// Validates every `*.trace.json` under `dir` as a Chrome-trace
/// document. Returns (files checked, events seen).
fn check_traces(dir: &Path) -> Result<(usize, usize), String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".trace.json"))
        })
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("{}: no *.trace.json files", dir.display()));
    }
    let mut events = 0usize;
    for path in &entries {
        let doc = read_json(path)?;
        let what = path.display();
        let Some(Json::Arr(trace_events)) = get_field(&doc, "traceEvents") else {
            return Err(format!("{what}: missing \"traceEvents\" array"));
        };
        for (i, ev) in trace_events.iter().enumerate() {
            for k in TRACE_EVENT_KEYS {
                if get_field(ev, k).is_none() {
                    return Err(format!("{what}: event {i} missing \"{k}\""));
                }
            }
        }
        events += trace_events.len();
    }
    Ok((entries.len(), events))
}

fn main() -> ExitCode {
    let (run, trace) = match parse_options(std::env::args().skip(1)) {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("check_obs: {e}\nusage: check_obs [--run RESULTS_DIR] [--trace TRACE_DIR]");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = run {
        match check_run(Path::new(&dir)) {
            Ok((jobs, with_metrics)) if with_metrics > 0 => {
                println!("check_obs: {dir}: {jobs} jobs, {with_metrics} with metrics");
            }
            Ok((jobs, _)) => {
                eprintln!("check_obs: {dir}: none of {jobs} jobs carry metrics");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("check_obs: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = trace {
        match check_traces(Path::new(&dir)) {
            Ok((files, events)) => {
                println!("check_obs: {dir}: {files} traces, {events} events");
            }
            Err(e) => {
                eprintln!("check_obs: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
