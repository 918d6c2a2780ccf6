//! Regenerates every table and figure in one go, in paper order.
//!
//! Every experiment cell is a harness job, so the whole regeneration
//! parallelizes across `--jobs N` workers (default: available
//! parallelism, or `SPUR_JOBS`) while the assembled tables stay
//! byte-identical to a serial run. Machine-readable artifacts land in
//! `results/json/reproduce_all-<scale>/`.
//!
//! ```text
//! cargo run --release -p spur-bench --bin reproduce_all -- --scale quick --jobs 8
//! ```

use spur_bench::{jobs_from_args, obs_from_args, scale_from_args, ObsOptions};
use spur_core::experiments::events::{render_table_3_3, EventRow};
use spur_core::experiments::pageout::{render_table_3_5, PageoutRow};
use spur_core::experiments::refbit::{render_table_4_1, RefbitRow};
use spur_core::experiments::{self, overhead};
use spur_core::jobs::{events_job_obs, pageout_job, refbit_job_obs};
use spur_harness::{run_jobs_with_progress, Job, RunReport};
use spur_scenario::persist_run;
use spur_trace::workloads::{slc, workload1, DevHost, Workload};
use spur_types::{CostParams, MemSize, SystemConfig};
use spur_vm::policy::RefPolicy;

/// One cell of the full regeneration.
enum Cell {
    Events(EventRow),
    Pageout(PageoutRow),
    Refbit(RefbitRow),
}

type NamedWorkload = (&'static str, fn() -> Workload);
const WORKLOADS: [NamedWorkload; 2] = [("SLC", slc), ("WORKLOAD1", workload1)];

fn events_key(workload: &str, mem: MemSize) -> String {
    format!("table_3_3/{workload}/{}MB", mem.megabytes())
}

/// Keyed by row index as well as name: Table 3.5 samples the machine
/// "mace" twice (two snapshots at different uptimes).
fn pageout_key(index: usize, host: &str) -> String {
    format!("table_3_5/{index}/{host}")
}

fn refbit_key(workload: &str, mem: MemSize, policy: RefPolicy) -> String {
    format!("table_4_1/{workload}/{}MB/{policy}", mem.megabytes())
}

fn build_jobs(scale: experiments::Scale, hosts: &[DevHost], obs: &ObsOptions) -> Vec<Job<Cell>> {
    let params = obs.params();
    let mut jobs = Vec::new();
    for (name, make) in WORKLOADS {
        for mem in MemSize::STUDY_SIZES {
            jobs.push(
                events_job_obs(events_key(name, mem), make, mem, scale, params).map(Cell::Events),
            );
        }
    }
    for (i, host) in hosts.iter().enumerate() {
        jobs.push(pageout_job(pageout_key(i, host.name), host.clone(), scale).map(Cell::Pageout));
    }
    for (name, make) in WORKLOADS {
        for mem in MemSize::STUDY_SIZES {
            for policy in RefPolicy::ALL {
                jobs.push(
                    refbit_job_obs(
                        refbit_key(name, mem, policy),
                        make,
                        mem,
                        policy,
                        scale,
                        params,
                    )
                    .map(Cell::Refbit),
                );
            }
        }
    }
    jobs
}

/// Collects Table 3.3's rows in the serial (workload, size) order.
fn assemble_events(report: &RunReport<Cell>) -> Result<Vec<EventRow>, String> {
    let mut rows = Vec::new();
    for (name, _) in WORKLOADS {
        for mem in MemSize::STUDY_SIZES {
            match report.require(&events_key(name, mem))? {
                Cell::Events(row) => rows.push(row.clone()),
                _ => unreachable!("table_3_3 keys hold event cells"),
            }
        }
    }
    Ok(rows)
}

fn assemble_pageouts(
    report: &RunReport<Cell>,
    hosts: &[DevHost],
) -> Result<Vec<PageoutRow>, String> {
    hosts
        .iter()
        .enumerate()
        .map(
            |(i, host)| match report.require(&pageout_key(i, host.name))? {
                Cell::Pageout(row) => Ok(row.clone()),
                _ => unreachable!("table_3_5 keys hold page-out cells"),
            },
        )
        .collect()
}

fn assemble_refbits(report: &RunReport<Cell>) -> Result<Vec<RefbitRow>, String> {
    let mut rows = Vec::new();
    for (name, _) in WORKLOADS {
        for mem in MemSize::STUDY_SIZES {
            for policy in RefPolicy::ALL {
                match report.require(&refbit_key(name, mem, policy))? {
                    Cell::Refbit(row) => rows.push(row.clone()),
                    _ => unreachable!("table_4_1 keys hold reference-bit cells"),
                }
            }
        }
    }
    Ok(rows)
}

fn main() {
    let scale = scale_from_args();
    let workers = jobs_from_args();
    let obs = obs_from_args();
    println!("SPUR reference/dirty-bit reproduction — all artifacts");
    println!(
        "scale: {} references/run, {} rep(s), seed {}\n",
        scale.refs, scale.reps, scale.seed
    );

    println!("Table 2.1: SPUR System Configuration");
    println!("====================================");
    println!("{}\n", SystemConfig::prototype());

    println!("Table 3.2: Time Parameters (cycle counts)");
    println!("=========================================");
    println!("{}\n", CostParams::paper());

    let hosts = DevHost::table_3_5();
    let report = run_jobs_with_progress(build_jobs(scale, &hosts, &obs), workers, obs.progress);
    persist_run("reproduce_all", &scale, &report, obs.trace_out.as_deref());

    let rows = match assemble_events(&report) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("event measurement failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", render_table_3_3(&rows));

    let oh = overhead::table_3_4(&rows, &CostParams::paper());
    println!("{}", overhead::render_table_3_4(&oh));

    println!(
        "{}",
        overhead::render_model(&overhead::model_vs_measured(&rows))
    );

    match assemble_pageouts(&report, &hosts) {
        Ok(rows) => println!("{}", render_table_3_5(&rows)),
        Err(e) => eprintln!("table 3.5 failed: {e}"),
    }

    match assemble_refbits(&report) {
        Ok(rows) => println!("{}", render_table_4_1(&rows)),
        Err(e) => eprintln!("table 4.1 failed: {e}"),
    }

    println!("done; see EXPERIMENTS.md for paper-vs-measured commentary.");
}
