//! Byte-parity between the `refbit` and `mp` scenario kinds and the
//! job builders `reproduce_all` and `reproduce_mp` call.
//!
//! Both kinds are also what `spur-serve` compiles a `POST /v1/jobs`
//! body into, so these tests pin the served Table 4.1 and §4.1 cells
//! to the batch sweeps: same keys, same artifact bytes.

use spur_core::experiments::Scale;
use spur_core::jobs::refbit_job_obs;
use spur_core::obs::ObsParams;
use spur_harness::{job_artifact_json, run_jobs, run_one, Job};
use spur_scenario::cells::expand;
use spur_scenario::Scenario;
use spur_trace::workloads::{slc, workload1, Workload};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

fn tiny() -> Scale {
    Scale {
        refs: 20_000,
        seed: 1989,
        reps: 1,
        dev_refs_per_hour: 120_000,
    }
}

fn artifact<T>(job: Job<T>) -> String {
    job_artifact_json(&run_one(job)).encode_pretty()
}

const TABLE_4_1: &str = r#"{
  "schema_version": 1,
  "name": "table_4_1",
  "description": "Table 4.1: reference-bit policies by workload and memory size",
  "experiment": "refbit",
  "matrix": {
    "workload": ["SLC", "WORKLOAD1"],
    "mem_mb": [5, 6, 8],
    "ref": ["MISS", "REF", "NOREF"]
  }
}"#;

#[test]
fn refbit_cells_are_reproduce_alls_table_4_1_cells() {
    // `reproduce_all`'s Table 4.1 jobs, reconstructed inline: its
    // workload list, study sizes, policy order and key format.
    type NamedWorkload = (&'static str, fn() -> Workload);
    let workloads: [NamedWorkload; 2] = [("SLC", slc), ("WORKLOAD1", workload1)];
    let obs = Some(ObsParams::default());
    let mut legacy = Vec::new();
    for (name, make) in workloads {
        for mem in MemSize::STUDY_SIZES {
            for policy in RefPolicy::ALL {
                let key = format!("table_4_1/{name}/{}MB/{policy}", mem.megabytes());
                legacy.push(refbit_job_obs(key, make, mem, policy, tiny(), obs));
            }
        }
    }

    let scenario = Scenario::parse_str(TABLE_4_1).unwrap();
    let expanded = expand(&scenario, tiny(), obs).unwrap();
    let keys: Vec<&str> = expanded.iter().map(|(c, _)| c.key.as_str()).collect();
    let legacy_keys: Vec<&str> = legacy.iter().map(|j| j.key.as_str()).collect();
    assert_eq!(keys.len(), 18);
    assert_eq!(keys, legacy_keys);

    let ours = run_jobs(expanded.into_iter().map(|(_, job)| job).collect(), 2);
    let theirs = run_jobs(legacy, 2);
    for job in theirs.jobs() {
        let twin = ours.jobs().iter().find(|j| j.key == job.key).unwrap();
        assert_eq!(
            job_artifact_json(job).encode_pretty(),
            job_artifact_json(twin).encode_pretty(),
            "artifact bytes differ for {}",
            job.key
        );
    }
}

#[test]
fn mp_cells_are_reproduce_mps_cells() {
    let scenario = Scenario::parse_str(
        r#"{"schema_version": 1, "name": "mp_probe", "experiment": "mp",
            "matrix": {"ref": ["MISS", "REF"], "cpus": [2], "shared_pages": [64]}}"#,
    )
    .unwrap();
    let obs = Some(ObsParams::default());
    for (cell, job) in expand(&scenario, tiny(), obs).unwrap() {
        let policy: RefPolicy = match cell.coord("ref") {
            Some(spur_harness::Json::Str(s)) => s.parse().unwrap(),
            other => panic!("ref coordinate {other:?}"),
        };
        let key = spur_mp::mp_key(2, 64, policy);
        assert_eq!(cell.key, key);
        let direct = spur_mp::mp_job(key, 2, policy, 64, tiny(), obs);
        assert_eq!(artifact(job), artifact(direct), "{}", cell.key);
    }
}
