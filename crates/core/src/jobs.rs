//! Experiment cells as harness jobs — the builders shared by the CLI
//! regenerators (`spur-bench`) and the experiment service
//! (`spur-serve`).
//!
//! Each builder wraps one measure function as a [`Job`] with a stable
//! key. Because both front ends construct jobs here, a job submitted
//! over the serving API runs exactly the code a CLI sweep runs, and its
//! artifact is byte-identical; the parity and serving integration tests
//! certify the same builders the binaries ship.

use crate::experiments::events::{measure_events_obs_with, EventRow};
use crate::experiments::refbit::{measure_refbit_obs_with, RefbitRow};
use crate::experiments::Scale;
use crate::obs::{ObsParams, ObsReport};
use crate::system::SimOverrides;
use spur_harness::{Job, JobOutput};
use spur_trace::workloads::Workload;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

/// Attaches a finalized observability report to a job output:
/// `metrics` and `series` ride the artifact pipeline, while the event
/// recorder itself is kept, unencoded, until a `--trace-out` export or
/// a `/trace/chrome` request reads it. Binaries that run `SpurSystem`
/// inline call this with `sim.finish_obs()`.
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

/// Workload constructor — jobs rebuild their workload inside the
/// worker so the closures stay `'static` and each cell is a pure
/// function of its inputs.
pub type WorkloadCtor = fn() -> Workload;

/// One Table 3.3 cell: event counts for (workload, memory).
pub fn events_job(key: String, make: WorkloadCtor, mem: MemSize, scale: Scale) -> Job<EventRow> {
    events_job_obs(key, make, mem, scale, None)
}

/// [`events_job`] with optional observability.
pub fn events_job_obs(
    key: String,
    make: WorkloadCtor,
    mem: MemSize,
    scale: Scale,
    obs: Option<ObsParams>,
) -> Job<EventRow> {
    events_job_for(key, make, mem, scale, obs, SimOverrides::default())
}

/// The fully general Table 3.3 cell: any workload source (a builtin
/// constructor or an owned, spec-parsed workload moved into the
/// closure) plus configuration overrides. With default overrides this
/// is exactly [`events_job_obs`].
pub fn events_job_for(
    key: String,
    source: impl FnOnce() -> Workload + Send + 'static,
    mem: MemSize,
    scale: Scale,
    obs: Option<ObsParams>,
    overrides: SimOverrides,
) -> Job<EventRow> {
    Job::new(key, move || {
        let workload = source();
        let (row, rep) = measure_events_obs_with(&workload, mem, &scale, obs, &overrides)
            .map_err(|e| e.to_string())?;
        let artifact = row.to_json();
        Ok(attach_obs(JobOutput::new(row, artifact), rep))
    })
}

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
    refbit_job_for(key, make, mem, policy, scale, obs, SimOverrides::default())
}

/// The fully general Table 4.1 cell: any workload source plus
/// configuration overrides. With default overrides this is exactly
/// [`refbit_job_obs`].
pub fn refbit_job_for(
    key: String,
    source: impl FnOnce() -> Workload + Send + 'static,
    mem: MemSize,
    policy: RefPolicy,
    scale: Scale,
    obs: Option<ObsParams>,
    overrides: SimOverrides,
) -> Job<RefbitRow> {
    Job::new(key, move || {
        let workload = source();
        let (row, rep) = measure_refbit_obs_with(&workload, mem, policy, &scale, obs, &overrides)
            .map_err(|e| e.to_string())?;
        let artifact = row.to_json();
        Ok(attach_obs(JobOutput::new(row, artifact), rep))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_harness::run_one;
    use spur_obs::TraceRecorder;
    use spur_trace::workloads::slc;

    #[test]
    fn for_variant_with_defaults_matches_ctor_variant_byte_for_byte() {
        let scale = Scale {
            refs: 20_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 120_000,
        };
        let a = run_one(refbit_job_obs(
            "k".into(),
            slc,
            MemSize::MB5,
            RefPolicy::Miss,
            scale,
            None,
        ));
        let owned = slc();
        let b = run_one(refbit_job_for(
            "k".into(),
            move || owned,
            MemSize::MB5,
            RefPolicy::Miss,
            scale,
            None,
            SimOverrides::default(),
        ));
        let a = spur_harness::job_artifact_json(&a).encode_pretty();
        let b = spur_harness::job_artifact_json(&b).encode_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn overrides_change_the_simulation() {
        let scale = Scale {
            refs: 20_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 120_000,
        };
        let base = run_one(events_job_obs("k".into(), slc, MemSize::MB5, scale, None));
        let squeezed = run_one(events_job_for(
            "k".into(),
            slc,
            MemSize::MB5,
            scale,
            None,
            SimOverrides {
                // A periodic clear-only daemon pass every 1000
                // references adds scans the baseline never takes.
                daemon_period: Some(Some(1000)),
                ..SimOverrides::default()
            },
        ));
        let base = spur_harness::job_artifact_json(&base).encode_pretty();
        let squeezed = spur_harness::job_artifact_json(&squeezed).encode_pretty();
        assert_ne!(base, squeezed, "the periodic daemon must be visible");
    }

    #[test]
    fn only_instrumented_runs_keep_their_recorder() {
        let scale = Scale {
            refs: 20_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 120_000,
        };
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
            scale,
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
            scale,
            None,
        ));
        assert!(plain.outcome.as_ref().unwrap().trace.is_none());
    }
}
