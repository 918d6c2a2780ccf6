//! Experiment cells as harness jobs.
//!
//! [`measurement_job`] is the one job constructor: every scenario
//! cell (`spur_scenario::Cell::job`, which `reproduce_all`, `spur-scenario`
//! and `spur-serve` all run) wraps its measure function with it, so a
//! job submitted over the serving API runs exactly the code a CLI sweep
//! runs and its artifact is byte-identical. [`refbit_job_obs`] is the
//! Table 4.1 cell over a builtin workload, kept for the memory sweep and
//! the benchmark.

use crate::experiments::refbit::{measure_refbit_obs_with, RefbitRow};
use crate::experiments::Scale;
use crate::obs::{ObsParams, ObsReport};
use crate::system::SimOverrides;
use spur_harness::{Job, JobOutput, Json};
use spur_trace::workloads::Workload;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

/// Attaches a finalized observability report to a job output:
/// `metrics` and `series` ride the artifact pipeline, while the event
/// recorder itself is kept, unencoded, until a `--trace-out` export or
/// a `/trace/chrome` request reads it.
pub fn attach_obs<T>(mut out: JobOutput<T>, report: Option<ObsReport>) -> JobOutput<T> {
    if let Some(rep) = report {
        if let Some(series) = rep.series_json() {
            out = out.with_series(series);
        }
        out = out
            .with_metrics(rep.metrics_json())
            .with_trace(rep.recorder);
    }
    out
}

/// Wraps `measure` as the job `key`. The measurement returns its row,
/// the row's artifact, and the observability report of an instrumented
/// run: the row is the job's value, the artifact is persisted, and the
/// report's metrics, series and trace are attached ([`attach_obs`]).
/// Any error becomes the job's failure reason, by its `Display` text.
pub fn measurement_job<T>(
    key: String,
    measure: impl FnOnce() -> Result<(T, Json, Option<ObsReport>), Box<dyn std::error::Error>>
        + Send
        + 'static,
) -> Job<T> {
    Job::new(key, move || {
        let (row, artifact, report) = measure().map_err(|e| e.to_string())?;
        Ok(attach_obs(JobOutput::new(row, artifact), report))
    })
}

/// Workload constructor — jobs rebuild their workload inside the
/// worker so the closures stay `'static` and each cell is a pure
/// function of its inputs.
pub type WorkloadCtor = fn() -> Workload;

/// One Table 4.1 / sweep cell: (workload, memory, policy), averaged
/// over `scale.reps` seeds, with optional observability (repetition 0
/// only; see `measure_refbit_obs_with`).
pub fn refbit_job_obs(
    key: String,
    make: WorkloadCtor,
    mem: MemSize,
    policy: RefPolicy,
    scale: Scale,
    obs: Option<ObsParams>,
) -> Job<RefbitRow> {
    measurement_job(key, move || {
        let overrides = SimOverrides::default();
        let (row, report) = measure_refbit_obs_with(&make(), mem, policy, &scale, obs, &overrides)?;
        let artifact = row.to_json();
        Ok((row, artifact, report))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_harness::{job_artifact_json, run_one};
    use spur_obs::TraceRecorder;
    use spur_trace::workloads::slc;

    fn scale() -> Scale {
        Scale {
            refs: 20_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 120_000,
        }
    }

    #[test]
    fn measurement_job_wraps_a_measure_function_byte_for_byte() {
        // The reference: the measure function wrapped by hand, as the
        // Table 4.1 cell was before the constructor existed.
        let scale = scale();
        let obs = Some(ObsParams {
            epoch: Some(5_000),
            ..ObsParams::default()
        });
        let by_hand = Job::new("k", move || {
            let (row, rep) = measure_refbit_obs_with(
                &slc(),
                MemSize::MB5,
                RefPolicy::Miss,
                &scale,
                obs,
                &SimOverrides::default(),
            )
            .map_err(|e| e.to_string())?;
            let artifact = row.to_json();
            Ok(attach_obs(JobOutput::new(row, artifact), rep))
        });
        let a = run_one(by_hand);
        let b = run_one(refbit_job_obs(
            "k".into(),
            slc,
            MemSize::MB5,
            RefPolicy::Miss,
            scale,
            obs,
        ));
        assert_eq!(
            job_artifact_json(&a).encode_pretty(),
            job_artifact_json(&b).encode_pretty()
        );
    }

    #[test]
    fn a_failed_measurement_is_the_jobs_failure_reason() {
        let simulator = run_one(measurement_job::<()>("k".into(), || {
            Err(spur_types::Error::NoFreeFrames.into())
        }));
        let text = run_one(measurement_job::<()>("k".into(), || {
            Err(format!("lockstep divergence: {}", 7).into())
        }));
        for (done, reason) in [
            (simulator, "physical memory exhausted"),
            (text, "lockstep divergence: 7"),
        ] {
            let failure = done.failure().expect("the measurement failed");
            assert_eq!(failure.kind, spur_harness::FailureKind::Error);
            assert_eq!(failure.reason, reason);
        }
    }

    #[test]
    fn only_instrumented_runs_keep_their_recorder() {
        let obs = ObsParams {
            epoch: None,
            trace_capacity: 4096,
            batch: 1,
        };
        let done = run_one(refbit_job_obs(
            "k".into(),
            slc,
            MemSize::MB5,
            RefPolicy::Miss,
            scale(),
            Some(obs),
        ));
        let out = done.outcome.as_ref().expect("job ran");
        let trace = out.trace.as_deref().expect("instrumented job has a trace");
        let recorder = TraceRecorder::from_handle(trace).expect("the trace is the recorder");
        assert_eq!(recorder.capacity(), 4096, "the cell's own ring");
        let (first, last) = recorder.cycle_bounds().expect("trace has events");
        assert!(
            first < last,
            "cycle range is non-trivial: [{first}, {last}]"
        );

        let plain = run_one(refbit_job_obs(
            "k".into(),
            slc,
            MemSize::MB5,
            RefPolicy::Miss,
            scale(),
            None,
        ));
        assert!(plain.outcome.as_ref().unwrap().trace.is_none());
    }
}
