//! Byte pins for every scenario kind's artifact and Chrome trace.
//!
//! Every committed `scenarios/*.json` (except `record_replay.json`,
//! whose trace file only the example writes) runs at a tiny scale with
//! observability and a counter series on, plus inline cells for what
//! no config covers: a lockstep `sim` cell, a `sim` cell replaying a
//! recorded trace, and `events` and `refbit` cells with the
//! `SimOverrides` only `POST /v1/jobs` can send. Each cell's encoded
//! artifact and exported trace are folded to an FNV-1a digest and a
//! byte length and compared with `golden/artifact_pins.txt`.
//!
//! The golden file was written by this test at the commit that added
//! it, so any later change to how a cell runs must keep every byte.
//! On a mismatch the test writes what it computed to
//! `artifact_pins.actual` under cargo's integration-test scratch
//! directory.

use spur_core::experiments::Scale;
use spur_core::obs::ObsParams;
use spur_core::system::SimOverrides;
use spur_harness::{job_artifact_json, run_jobs, Json};
use spur_scenario::{Cell, Scenario};
use spur_trace::record::RecordedTrace;
use spur_trace::workloads::workload1;
use spur_types::hash::{fnv1a, FNV_OFFSET};

const GOLDEN: &str = include_str!("golden/artifact_pins.txt");

fn tiny() -> Scale {
    Scale {
        refs: 20_000,
        seed: 1989,
        reps: 2,
        dev_refs_per_hour: 500,
    }
}

fn obs() -> ObsParams {
    ObsParams {
        epoch: Some(5_000),
        ..ObsParams::default()
    }
}

fn digest(bytes: &[u8]) -> String {
    format!("{:016x} {}", fnv1a(FNV_OFFSET, bytes), bytes.len())
}

/// Runs `cells` on two workers and renders one pin line per cell, in
/// the report's key order.
fn pins(label: &str, cells: &[Cell]) -> Vec<String> {
    let report = run_jobs(cells.iter().map(Cell::job).collect(), 2);
    report
        .jobs()
        .iter()
        .map(|job| {
            let artifact = job_artifact_json(job).encode_pretty();
            let trace = match job.outcome.as_ref().ok().and_then(|o| o.trace.as_ref()) {
                Some(trace) => {
                    let mut bytes = Vec::new();
                    trace.write_to(&mut bytes).expect("in-memory write");
                    digest(&bytes)
                }
                None => "-".to_string(),
            };
            format!(
                "{label} {} artifact {} trace {trace}",
                job.key,
                digest(artifact.as_bytes())
            )
        })
        .collect()
}

fn scenario_cells(config: &str) -> Vec<Cell> {
    let scenario = Scenario::parse_str(config).expect("config parses");
    let scale = scenario.resolve_scale(Some(tiny()));
    scenario
        .cells(scale, Some(obs()))
        .expect("expansion succeeds")
}

fn committed_configs() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut configs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("scenarios directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .filter(|path| !path.ends_with("record_replay.json"))
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).expect("config reads"))
        })
        .collect();
    configs.sort();
    configs
}

/// A one-kind config at the scenario level, for the inline cells.
fn inline(experiment: &str, rest: &str) -> String {
    format!(
        r#"{{"schema_version":1,"name":"pin_{experiment}","experiment":"{experiment}",{rest}}}"#
    )
}

fn with_overrides(mut cells: Vec<Cell>) -> Vec<Cell> {
    for cell in &mut cells {
        cell.overrides = SimOverrides {
            daemon_period: Some(Some(1_000)),
            soft_faults: Some(false),
            free_high_water: Some(96),
            ..SimOverrides::default()
        };
    }
    cells
}

#[test]
fn every_kind_keeps_its_artifact_and_trace_bytes() {
    let mut lines = Vec::new();
    for (name, config) in committed_configs() {
        lines.extend(pins(&name, &scenario_cells(&config)));
    }

    lines.extend(pins(
        "inline_lockstep",
        &scenario_cells(&inline(
            "sim",
            r#""workload":"SLC","matrix":{"mem_mb":[5],"dirty":["FAULT","SPUR"]},"run":{"lockstep":true}"#,
        )),
    ));

    // A trace recorded from a seed the live generator does not use, so
    // the pin tells a replayed cell from a generated one.
    let dir = std::env::temp_dir().join(format!("spur-artifact-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pin.spurtrace");
    RecordedTrace::record(workload1().generator(7).take(tiny().refs as usize))
        .save(&path)
        .unwrap();
    let trace_source = format!(
        r#""workload":{{"trace":{},"regions":"WORKLOAD1"}},"matrix":{{"mem_mb":[5,6]}}"#,
        Json::from(path.to_str().unwrap()).encode()
    );
    let replayed = pins(
        "inline_trace",
        &scenario_cells(&inline("sim", &trace_source)),
    );
    std::fs::remove_dir_all(&dir).ok();
    lines.extend(replayed);

    lines.extend(pins(
        "inline_events_overrides",
        &with_overrides(scenario_cells(&inline(
            "events",
            r#""matrix":{"workload":["SLC","WORKLOAD1"],"mem_mb":[5]}"#,
        ))),
    ));
    lines.extend(pins(
        "inline_refbit_overrides",
        &with_overrides(scenario_cells(&inline(
            "refbit",
            r#""matrix":{"workload":["SLC"],"mem_mb":[5],"ref":["MISS","NOREF"]}"#,
        ))),
    ));

    let actual = lines.join("\n") + "\n";
    if actual != GOLDEN {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("artifact_pins.actual");
        std::fs::write(&out, &actual).unwrap();
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .find(|(a, g)| a != g)
            .map_or_else(
                || "the line counts differ".to_string(),
                |(a, g)| format!("first difference:\n  pinned {g}\n  actual {a}"),
            );
        panic!(
            "artifact or trace bytes moved; {first}\nfull output in {}",
            out.display()
        );
    }
}
