//! `spur-scenario` — validate, explain, run, and list declarative
//! scenario configs.
//!
//! ```text
//! spur-scenario validate scenarios/*.json
//! spur-scenario explain scenarios/paper_invariants.json
//! spur-scenario run scenarios/ablation_flush.json --scale quick
//! spur-scenario list scenarios
//! ```

use std::process::ExitCode;

use spur_scenario::{
    run_flags, run_legacy, run_scenario, scale_name, Cell, Scenario, RUN_FLAGS_USAGE,
};

const USAGE: &str = "usage: spur-scenario <command> [args]

commands:
  validate <file>...   strict-parse each config; non-zero exit on any error
  explain <file>       show the resolved scale, expanded cells, and assertions
  run <file> [flags]   run the scenario; non-zero exit on a cell, assertion or write failure
  list [dir]           summarize the scenario configs in a directory (default: scenarios)

run flags:
  --legacy-stdout              reproduce the folded-in binary's stdout tables
  --no-persist                 skip the artifact tree (hermetic run)
  --json                       print the scenario result document to stdout";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage_error("a command is required");
    };
    match command.as_str() {
        "validate" => validate(&args[1..]),
        "explain" => explain(&args[1..]),
        "run" => run(&args[1..]),
        "list" => list(&args[1..]),
        other => usage_error(&format!("unknown command {other:?}")),
    }
}

fn load(path: &str) -> Result<Scenario, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    Scenario::parse_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// Loads a config and expands its cells at its own scale.
fn load_cells(path: &str) -> Result<(Scenario, Vec<Cell>), String> {
    let s = load(path)?;
    let cells = s.cells(s.resolve_scale(None), None);
    Ok((s, cells.map_err(|e| format!("{path}: {e}"))?))
}

fn validate(files: &[String]) -> ExitCode {
    if files.is_empty() || files.iter().any(|f| f.starts_with('-')) {
        return usage_error("validate: at least one file required, and no flags");
    }
    each_config(files, |path, s, cells| {
        format!(
            "ok: {path}: {} ({:?}, {cells} cell(s), {} assertion(s))",
            s.name,
            s.kind,
            s.assertions.len()
        )
    })
}

/// Loads and expands each config, printing `line(path, scenario, cell
/// count)` for each one that expands and an error for each one that
/// does not; the exit code is non-zero if any did not.
fn each_config(paths: &[String], line: impl Fn(&str, &Scenario, usize) -> String) -> ExitCode {
    let mut failed = false;
    for path in paths {
        match load_cells(path) {
            Ok((s, cells)) => println!("{}", line(path, &s, cells.len())),
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn explain(files: &[String]) -> ExitCode {
    let path = match files {
        [path] if !path.starts_with('-') => path,
        _ => return usage_error("explain: exactly one file required, and no flags"),
    };
    let (scenario, cells) = match load_cells(path) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = scenario.resolve_scale(None);
    println!("scenario: {} ({:?})", scenario.name, scenario.kind);
    if !scenario.description.is_empty() {
        println!("  {}", scenario.description);
    }
    println!(
        "scale: {} ({} references/run, {} rep(s), seed {})",
        scale_name(&scale),
        scale.refs,
        scale.reps,
        scale.seed
    );
    println!("cells: {}", cells.len());
    for cell in &cells {
        println!("  {}", cell.key);
    }
    println!("assertions: {}", scenario.assertions.len());
    for a in &scenario.assertions {
        println!("  {}", a.name());
    }
    ExitCode::SUCCESS
}

fn run(args: &[String]) -> ExitCode {
    let (mut opts, rest) = match run_flags(args.iter().cloned()) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&e),
    };
    let mut path: Option<&str> = None;
    let mut legacy = false;
    let mut json = false;
    for arg in &rest {
        match arg.as_str() {
            "--legacy-stdout" => legacy = true,
            "--no-persist" => opts.persist = false,
            "--json" => json = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return usage_error(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(path) = path else {
        return usage_error("run: a scenario file is required");
    };
    let scenario = match load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if legacy {
        return ExitCode::from(run_legacy(&scenario, &opts) as u8);
    }

    let run = match run_scenario(&scenario, &opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", run.to_json(&scenario.name).encode_pretty());
    } else {
        println!(
            "scenario {}: {} cell(s) at {} scale",
            scenario.name,
            run.cells.len(),
            scale_name(&run.scale)
        );
        for job in run.report.jobs() {
            match &job.outcome {
                Ok(_) => println!("  done   {}", job.key),
                Err(f) => println!("  FAILED {} ({})", job.key, f.reason),
            }
        }
        for v in &run.verdicts {
            if v.passed {
                println!("  assert PASS {}", v.name);
            } else {
                println!("  assert FAIL {}", v.name);
                for f in &v.failures {
                    println!("    {f}");
                }
            }
        }
        println!("result: {}", if run.passed() { "PASS" } else { "FAIL" });
    }
    if run.passed() && run.writes_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list(args: &[String]) -> ExitCode {
    let dir = match args {
        [] => "scenarios",
        [dir] if !dir.starts_with("--") => dir,
        _ => return usage_error("list: at most one directory, and no flags"),
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("error: {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<String> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("error: {dir}: no .json scenario configs found");
        return ExitCode::FAILURE;
    }
    each_config(&paths, |path, s, cells| {
        format!(
            "{:<40} {:<14} {cells:>3} cell(s) {:>2} assertion(s)  {path}",
            s.name,
            format!("{:?}", s.kind),
            s.assertions.len()
        )
    })
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n\n{USAGE}\n{RUN_FLAGS_USAGE}");
    ExitCode::from(2)
}
