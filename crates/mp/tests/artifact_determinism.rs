//! The reproducibility contract, end to end: the same seed must yield
//! byte-identical per-cell artifacts no matter how many host workers
//! run the sweep. (CI enforces the same property on `reproduce_mp`'s
//! on-disk output by diffing two runs with different `--jobs`.)

use spur_core::experiments::Scale;
use spur_harness::{job_artifact_json, run_jobs, Job, JobOutput};
use spur_mp::{measure_mp, mp_key};
use spur_vm::policy::RefPolicy;

fn artifacts(workers: usize) -> Vec<(String, String)> {
    let scale = Scale {
        refs: 60_000,
        seed: 1989,
        reps: 1,
        dev_refs_per_hour: 0,
    };
    let mut jobs = Vec::new();
    for cpus in [1usize, 2, 4] {
        for policy in [RefPolicy::Miss, RefPolicy::Ref] {
            // The mp cell, wrapped by hand from its measure function.
            jobs.push(Job::new(mp_key(cpus, 256, policy), move || {
                let row = measure_mp(cpus, policy, 256, &scale)?;
                let artifact = row.to_json();
                Ok(JobOutput::new(row, artifact))
            }));
        }
    }
    run_jobs(jobs, workers)
        .jobs()
        .iter()
        .map(|j| (j.key.clone(), job_artifact_json(j).encode()))
        .collect()
}

#[test]
fn artifacts_are_byte_identical_across_worker_counts() {
    let serial = artifacts(1);
    let parallel = artifacts(4);
    assert_eq!(serial.len(), 6);
    assert_eq!(
        serial, parallel,
        "per-cell artifacts must not depend on the host worker count"
    );
}
