//! Scenario submissions: a whole declared matrix over one request.
//!
//! `POST /v1/scenarios` accepts the same schema-versioned document the
//! `spur-scenario` CLI runs from a file (see `docs/SCENARIOS.md`). The
//! server validates it with the same strict parser — a 400 carries the
//! parser's path-qualified message — expands the matrix into complete
//! [`Cell`]s with the same expansion, and enqueues one job per cell
//! *atomically*: either the whole matrix fits in the bounded queue or
//! the submission is shed with 429 and nothing ran.
//!
//! Workers run each queued cell's [`Cell::job`], the call the CLI
//! runner makes, so a served scenario cell's artifact is
//! byte-identical to the same cell run by the CLI.
//!
//! When the last cell finishes, `GET /v1/scenarios/{id}` evaluates the
//! scenario's expected-shape assertions against the produced artifact
//! documents and reports per-assertion verdicts; the scenario passes
//! only if every cell succeeded *and* every assertion held.

use spur_obs::validate::parse;
use spur_scenario::asserts::evaluate;
use spur_scenario::run::effective_obs;
use spur_scenario::{Cell, CellResult, RunnerOptions, Scenario, Verdict, WorkloadSource};

/// Largest matrix one HTTP submission may expand to. A scenario
/// occupies queue slots for every cell at once (admission is
/// all-or-nothing), so this also bounds how much of the queue a single
/// request can claim.
pub const MAX_SCENARIO_CELLS: usize = 64;

/// A validated scenario submission: the parsed document plus its
/// cells, in expansion order (which is also key order for the scenario
/// result's cell list).
#[derive(Debug)]
pub struct ScenarioSubmission {
    /// The parsed, validated scenario.
    pub scenario: Scenario,
    /// The matrix cells, ready to queue.
    pub cells: Vec<Cell>,
}

/// Parses and validates a `POST /v1/scenarios` body. Every failure is
/// a caller-readable, path-qualified message destined for a 400.
pub fn parse_scenario_submission(body: &[u8]) -> Result<ScenarioSubmission, String> {
    let scenario = Scenario::parse_bytes(body)?;
    if matches!(scenario.workload, Some(WorkloadSource::Trace { .. })) {
        return Err(
            "workload.trace: recorded-trace workloads are not served (the trace file \
             lives on the submitting host); replay traces with the spur-scenario CLI"
                .into(),
        );
    }
    // Served cells run at the scale and observability the CLI runner
    // resolves with no flags given.
    let scale = scenario.resolve_scale(None);
    let obs = effective_obs(&scenario, &RunnerOptions::default());
    let cells = scenario.cells(scale, obs)?;
    if cells.len() > MAX_SCENARIO_CELLS {
        return Err(format!(
            "matrix: scenario expands to {} cells, more than the served cap of {MAX_SCENARIO_CELLS}",
            cells.len()
        ));
    }
    Ok(ScenarioSubmission { scenario, cells })
}

/// Evaluates a finished scenario's assertions against the artifact
/// documents its successful cells produced. `finished` pairs each
/// cell with the pretty-encoded artifact of its job, `None` for cells
/// whose job failed (those simply produce no `CellResult`; an
/// assertion whose selector needs a missing cell fails with a message
/// saying so, which is the honest verdict).
pub fn evaluate_finished(
    scenario: &Scenario,
    finished: &[(&Cell, Option<String>)],
) -> Vec<Verdict> {
    let results: Vec<CellResult> = finished
        .iter()
        .filter_map(|(cell, artifact)| {
            Some(CellResult {
                key: cell.key.clone(),
                coords: cell.coords.clone(),
                doc: parse(artifact.as_deref()?).ok()?,
            })
        })
        .collect();
    evaluate(&scenario.assertions, &results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_harness::{job_artifact_json, run_one};
    use spur_scenario::run_scenario;

    const SMALL: &str = r#"{
      "schema_version": 1,
      "name": "served_probe",
      "description": "scenario-submission unit-test config",
      "experiment": "sim",
      "workload": "WORKLOAD1",
      "scale": {"refs": 20000, "seed": 1989, "reps": 1},
      "matrix": { "mem_mb": [5], "dirty": ["MIN", "FAULT"] },
      "assertions": [
        {
          "check": "relation",
          "name": "fault_ge_min",
          "metric": "data.dirty_faults",
          "op": ">=",
          "left": {"dirty": "FAULT"},
          "right": {"dirty": "MIN"}
        }
      ]
    }"#;

    #[test]
    fn submission_parses_and_enumerates() {
        let sub = parse_scenario_submission(SMALL.as_bytes()).unwrap();
        assert_eq!(sub.scenario.name, "served_probe");
        assert_eq!(sub.cells.len(), 2);
        assert_eq!(sub.cells[0].key, "sim/WORKLOAD1/5MB/MIN/MISS/1cpu");
    }

    #[test]
    fn trace_workloads_are_refused() {
        let body = r#"{
          "schema_version": 1,
          "name": "t", "description": "d", "experiment": "sim",
          "workload": {"trace": "x.spurtrace", "regions": "WORKLOAD1"},
          "matrix": {"mem_mb": [5]}
        }"#;
        let err = parse_scenario_submission(body.as_bytes()).unwrap_err();
        assert!(err.contains("workload.trace"), "{err}");
    }

    #[test]
    fn oversize_matrices_are_refused_with_the_cap() {
        let body = r#"{
          "schema_version": 1,
          "name": "big", "description": "d", "experiment": "sim",
          "workload": "SLC",
          "matrix": {
            "mem_mb": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17],
            "dirty": ["FAULT","FLUSH","SPUR","WRITE","MIN"]
          }
        }"#;
        let err = parse_scenario_submission(body.as_bytes()).unwrap_err();
        assert!(err.contains("85 cells"), "{err}");
        assert!(err.contains("64"), "{err}");
    }

    #[test]
    fn parse_errors_stay_path_qualified() {
        let err = parse_scenario_submission(
            br#"{"schema_version": 1, "name": "x", "description": "d",
                 "experiment": "sim", "workload": "SLC",
                 "matrix": {"mem_mb": [5], "bogus_axis": [1]}}"#,
        )
        .unwrap_err();
        assert!(err.contains("bogus_axis"), "{err}");
    }

    #[test]
    fn queued_cells_match_the_cli_runner_byte_for_byte() {
        let sub = parse_scenario_submission(SMALL.as_bytes()).unwrap();
        let cli = run_scenario(
            &sub.scenario,
            &RunnerOptions {
                workers: 1,
                persist: false,
                ..RunnerOptions::default()
            },
        )
        .unwrap();
        for cell in &sub.cells {
            let served = run_one(cell.job());
            let direct = cli
                .report
                .jobs()
                .iter()
                .find(|j| j.key == cell.key)
                .unwrap();
            assert_eq!(
                job_artifact_json(&served).encode_pretty(),
                job_artifact_json(direct).encode_pretty(),
            );
        }
    }

    fn finished(
        sub: &ScenarioSubmission,
        ran: impl Fn(&Cell) -> bool,
    ) -> Vec<(&Cell, Option<String>)> {
        sub.cells
            .iter()
            .map(|cell| {
                let artifact =
                    ran(cell).then(|| job_artifact_json(&run_one(cell.job())).encode_pretty());
                (cell, artifact)
            })
            .collect()
    }

    #[test]
    fn finished_scenarios_evaluate_their_assertions() {
        let sub = parse_scenario_submission(SMALL.as_bytes()).unwrap();
        let verdicts = evaluate_finished(&sub.scenario, &finished(&sub, |_| true));
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].name, "fault_ge_min");
        assert!(verdicts[0].passed, "{:?}", verdicts[0].failures);
    }

    #[test]
    fn missing_cells_fail_assertions_rather_than_vanish() {
        let sub = parse_scenario_submission(SMALL.as_bytes()).unwrap();
        // The FAULT cell failed: no artifact. The relation must report
        // a failure, not silently pass on an empty selection.
        let finished = finished(&sub, |cell| !cell.key.contains("FAULT"));
        let verdicts = evaluate_finished(&sub.scenario, &finished);
        assert_eq!(verdicts.len(), 1);
        assert!(!verdicts[0].passed);
    }
}
