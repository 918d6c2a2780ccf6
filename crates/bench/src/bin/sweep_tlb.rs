//! TLB-reach sensitivity of the conventional baseline: how big a TLB the
//! era's machines needed before translation stopped hurting — and what an
//! untagged TLB pays at context switches.
//!
//! Every (entries, flush) cell is a harness job (`--jobs N`
//! parallelism); artifacts land in `results/json/sweep_tlb-<scale>/`.

use spur_bench::{jobs_from_args, obs_from_args, print_header, scale_from_args};
use spur_core::experiments::sweep::{measure_tlb_point, render_tlb_sweep, TlbSweepRow};
use spur_harness::{run_jobs_with_progress, Job, JobOutput, RunReport};
use spur_scenario::persist_run;
use spur_trace::workloads::workload1;
use spur_types::MemSize;

const ENTRIES: [usize; 4] = [16, 64, 256, 1024];

fn key(entries: usize, flush: bool) -> String {
    format!(
        "tlb/{entries:04}/{}",
        if flush { "flush" } else { "tagged" }
    )
}

fn assemble(report: &RunReport<TlbSweepRow>) -> Result<Vec<TlbSweepRow>, String> {
    let mut rows = Vec::new();
    for entries in ENTRIES {
        for flush in [false, true] {
            rows.push(report.require(&key(entries, flush))?.clone());
        }
    }
    Ok(rows)
}

fn main() {
    let mut scale = scale_from_args();
    scale.refs = scale.refs.min(6_000_000);
    let workers = jobs_from_args();
    // The TLB baseline is a separate model without SpurSystem's event
    // stream, so only the heartbeat and trace-flag plumbing apply here;
    // no per-job traces are produced.
    let obs = obs_from_args();
    print_header("baseline TLB-size sweep (WORKLOAD1 @ 8 MB)", &scale);
    let jobs = ENTRIES
        .iter()
        .flat_map(|&entries| {
            [false, true].map(|flush| {
                Job::new(key(entries, flush), move || {
                    let workload = workload1();
                    let row = measure_tlb_point(&workload, MemSize::MB8, entries, flush, &scale)
                        .map_err(|e| e.to_string())?;
                    let artifact = row.to_json();
                    Ok(JobOutput::new(row, artifact))
                })
            })
        })
        .collect();
    let report = run_jobs_with_progress(jobs, workers, obs.progress);
    persist_run("sweep_tlb", &scale, &report, obs.trace_out.as_deref());
    match assemble(&report) {
        Ok(rows) => {
            println!("{}", render_tlb_sweep(&rows));
            println!("SPUR's in-cache translation is, in effect, a 4096-entry TLB that");
            println!("costs zero dedicated hardware — the original motivation for the");
            println!("design (Wood et al., ISCA 1986).");
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    }
}
