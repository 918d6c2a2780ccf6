//! `spur-scenario` — validate, explain, run, and list declarative
//! scenario configs.
//!
//! ```text
//! spur-scenario validate scenarios/*.json
//! spur-scenario explain scenarios/paper_invariants.json
//! spur-scenario run scenarios/ablation_flush.json --scale quick
//! spur-scenario list scenarios
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use spur_core::experiments::Scale;
use spur_scenario::{run_legacy, run_scenario, scale_name, RunnerOptions, Scenario};

const USAGE: &str = "usage: spur-scenario <command> [args]

commands:
  validate <file>...   strict-parse each config; non-zero exit on any error
  explain <file>       show the resolved scale, expanded cells, and assertions
  run <file> [flags]   run the scenario; non-zero exit on cell or assertion failure
  list [dir]           summarize the scenario configs in a directory (default: scenarios)

run flags:
  --scale quick|default|full   override the scenario's scale preset
  --jobs N                     worker threads (default: all cores)
  --no-obs                     disable per-simulation observability
  --epoch N                    counter-series epoch override (references)
  --trace-out DIR              export Chrome traces under DIR
  --progress                   stderr heartbeat while the pool runs
  --legacy-stdout              reproduce the folded-in binary's stdout tables
  --no-persist                 skip the artifact tree (hermetic run)
  --json                       print the scenario result document to stdout";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "validate" => validate(&args[1..]),
        "explain" => explain(&args[1..]),
        "run" => run(&args[1..]),
        "list" => list(&args[1..]),
        other => {
            eprintln!("unknown command {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<Scenario, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    Scenario::parse_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn validate(files: &[String]) -> ExitCode {
    if files.is_empty() {
        eprintln!("validate: at least one file required\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in files {
        match load(path) {
            Ok(s) => {
                let scale = s.resolve_scale(None);
                match s.cells(scale, None) {
                    Ok(cells) => println!(
                        "ok: {path}: {} ({:?}, {} cell(s), {} assertion(s))",
                        s.name,
                        s.kind,
                        cells.len(),
                        s.assertions.len()
                    ),
                    Err(e) => {
                        eprintln!("error: {path}: {e}");
                        failed = true;
                    }
                }
            }
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
    let [path] = files else {
        eprintln!("explain: exactly one file required\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let scenario = match load(path) {
        Ok(s) => s,
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
    match scenario.cells(scale, None) {
        Ok(cells) => {
            println!("cells: {}", cells.len());
            for cell in &cells {
                println!("  {}", cell.key);
            }
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("assertions: {}", scenario.assertions.len());
    for a in &scenario.assertions {
        println!("  {}", a.name());
    }
    ExitCode::SUCCESS
}

fn run(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut opts = RunnerOptions::default();
    let mut legacy = false;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().map(String::as_str) {
                Some("quick") => opts.scale = Some(Scale::quick()),
                Some("default") => opts.scale = Some(Scale::default_scale()),
                Some("full") => opts.scale = Some(Scale::full()),
                other => {
                    return usage_error(&format!(
                        "--scale: expected quick|default|full, got {other:?}"
                    ))
                }
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.workers = n,
                _ => return usage_error("--jobs: expected a positive integer"),
            },
            "--epoch" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.epoch = Some(n),
                None => return usage_error("--epoch: expected an integer"),
            },
            "--trace-out" => match it.next() {
                Some(dir) => opts.trace_out = Some(PathBuf::from(dir)),
                None => return usage_error("--trace-out: expected a directory"),
            },
            "--no-obs" => opts.obs_enabled = false,
            "--progress" => opts.progress = true,
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
    if run.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list(args: &[String]) -> ExitCode {
    let dir = args.first().map(String::as_str).unwrap_or("scenarios");
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("error: {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("error: {dir}: no .json scenario configs found");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        let shown = path.display();
        match load(&path.to_string_lossy()) {
            Ok(s) => {
                let scale = s.resolve_scale(None);
                let cells = s.cells(scale, None).map(|c| c.len());
                match cells {
                    Ok(n) => println!(
                        "{:<40} {:<14} {:>3} cell(s) {:>2} assertion(s)  {}",
                        s.name,
                        format!("{:?}", s.kind),
                        n,
                        s.assertions.len(),
                        shown
                    ),
                    Err(e) => {
                        eprintln!("error: {shown}: {e}");
                        failed = true;
                    }
                }
            }
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

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n\n{USAGE}");
    ExitCode::from(2)
}
