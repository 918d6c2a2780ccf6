//! Byte-parity between the table scenario kinds (`events`, `pageout`,
//! `refbit`) and the jobs `reproduce_all` built before its cells became
//! the committed `scenarios/table_*.json` configs, and between the
//! `mp` kind and the jobs `reproduce_mp` built. Each legacy job is
//! rebuilt here from its measure function, wrapped by hand.
//!
//! The `refbit`, `events` and `mp` kinds are also what `spur-serve`
//! compiles a `POST /v1/jobs` body into, so these tests pin the served
//! cells to the batch sweeps: same keys, same artifact bytes.

use spur_core::experiments::events::{measure_events_obs_with, EventRow};
use spur_core::experiments::pageout::measure_host;
use spur_core::experiments::refbit::{measure_refbit_obs_with, RefbitRow};
use spur_core::experiments::Scale;
use spur_core::jobs::attach_obs;
use spur_core::obs::{ObsParams, ObsReport};
use spur_core::system::SimOverrides;
use spur_harness::{job_artifact_json, run_jobs, run_one, Job, JobOutput, Json};
use spur_scenario::cells::expand;
use spur_scenario::Scenario;
use spur_trace::workloads::{slc, workload1, DevHost, Workload};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

fn tiny() -> Scale {
    Scale {
        refs: 20_000,
        seed: 1989,
        reps: 1,
        dev_refs_per_hour: 1_000,
    }
}

fn artifact<T>(job: Job<T>) -> String {
    job_artifact_json(&run_one(job)).encode_pretty()
}

/// A measure function's row and report wrapped as a job by hand, the
/// way the legacy binaries wrapped their cells.
fn by_hand<T: 'static>(
    key: String,
    to_json: fn(&T) -> Json,
    measure: impl FnOnce() -> Result<(T, Option<ObsReport>), String> + Send + 'static,
) -> Job<T> {
    Job::new(key, move || {
        let (row, rep) = measure()?;
        let artifact = to_json(&row);
        Ok(attach_obs(JobOutput::new(row, artifact), rep))
    })
}

type NamedWorkload = (&'static str, fn() -> Workload);

/// `reproduce_all`'s workload list, in its loop order.
const WORKLOADS: [NamedWorkload; 2] = [("SLC", slc), ("WORKLOAD1", workload1)];

/// Expands a committed config and runs it next to `legacy`: the keys
/// must match in order, and every artifact byte for byte.
fn assert_cells_match<T: Send + 'static>(
    config: &str,
    obs: Option<ObsParams>,
    legacy: Vec<Job<T>>,
) {
    let scenario = Scenario::parse_str(config).unwrap();
    let expanded = expand(&scenario, tiny(), obs).unwrap();
    let keys: Vec<&str> = expanded.iter().map(|(c, _)| c.key.as_str()).collect();
    let legacy_keys: Vec<&str> = legacy.iter().map(|j| j.key.as_str()).collect();
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
fn refbit_cells_are_reproduce_alls_table_4_1_cells() {
    // `reproduce_all`'s Table 4.1 jobs, reconstructed inline: its
    // workload list, study sizes, policy order and key format.
    let obs = Some(ObsParams::default());
    let mut legacy = Vec::new();
    for (name, make) in WORKLOADS {
        for mem in MemSize::STUDY_SIZES {
            for policy in RefPolicy::ALL {
                let key = format!("table_4_1/{name}/{}MB/{policy}", mem.megabytes());
                legacy.push(by_hand(key, RefbitRow::to_json, move || {
                    let ov = SimOverrides::default();
                    measure_refbit_obs_with(&make(), mem, policy, &tiny(), obs, &ov)
                        .map_err(|e| e.to_string())
                }));
            }
        }
    }
    assert_eq!(legacy.len(), 18);
    let config = include_str!("../../../scenarios/table_4_1.json");
    assert_cells_match(config, obs, legacy);
}

#[test]
fn events_cells_are_reproduce_alls_table_3_3_cells() {
    let obs = Some(ObsParams::default());
    let mut legacy = Vec::new();
    for (name, make) in WORKLOADS {
        for mem in MemSize::STUDY_SIZES {
            let key = format!("table_3_3/{name}/{}MB", mem.megabytes());
            legacy.push(by_hand(key, EventRow::to_json, move || {
                measure_events_obs_with(&make(), mem, &tiny(), obs, &SimOverrides::default())
                    .map_err(|e| e.to_string())
            }));
        }
    }
    assert_eq!(legacy.len(), 6);
    let config = include_str!("../../../scenarios/table_3_3.json");
    assert_cells_match(config, obs, legacy);
}

#[test]
fn pageout_cells_are_reproduce_alls_table_3_5_cells() {
    // The old `pageout_job`: uninstrumented, keyed by row index and
    // host name, each host at its own fixed seed. The scenario side
    // runs with observability requested, which the kind ignores.
    let legacy: Vec<_> = DevHost::table_3_5()
        .into_iter()
        .enumerate()
        .map(|(i, host)| {
            let scale = tiny();
            Job::new(format!("table_3_5/{i}/{}", host.name), move || {
                let row = measure_host(&host, &scale).map_err(|e| e.to_string())?;
                let artifact = row.to_json();
                Ok(JobOutput::new(row, artifact))
            })
        })
        .collect();
    assert_eq!(legacy.len(), 6);
    let config = include_str!("../../../scenarios/table_3_5.json");
    assert_cells_match(config, Some(ObsParams::default()), legacy);
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
        let direct = by_hand(key, spur_mp::MpRow::to_json, move || {
            spur_mp::measure_mp_obs(2, policy, 64, &tiny(), obs)
        });
        assert_eq!(artifact(job), artifact(direct), "{}", cell.key);
    }
}
