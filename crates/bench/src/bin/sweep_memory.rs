//! A memory-size sweep the paper implies but never plots: page-ins and
//! elapsed time for each reference-bit policy from 4 MB (thrashing) to
//! 10 MB (everything resident). The crossover where NOREF stops mattering
//! is the paper's closing argument made visible.
//!
//! Every (size, policy) cell is a harness job (`--jobs N` parallelism);
//! artifacts land in `results/json/sweep_memory-<scale>/`.

use spur_bench::jobs::{assemble_memory_sweep, memory_sweep_jobs_obs};
use spur_bench::{has_flag, jobs_from_args, obs_from_args, print_header, scale_from_args};
use spur_core::experiments::sweep::render_memory_sweep;
use spur_harness::run_jobs_with_progress;
use spur_scenario::persist_run;
use spur_trace::workloads::workload1;

const SIZES: [u32; 5] = [4, 5, 6, 8, 10];

fn main() {
    let mut scale = scale_from_args();
    scale.reps = scale.reps.min(2);
    let workers = jobs_from_args();
    let obs = obs_from_args();
    if !has_flag("csv") {
        print_header("memory sweep (WORKLOAD1, 4-10 MB)", &scale);
    }
    let report = run_jobs_with_progress(
        memory_sweep_jobs_obs(workload1, &SIZES, scale, obs.params()),
        workers,
        obs.progress,
    );
    persist_run("sweep_memory", &scale, &report, obs.trace_out.as_deref());
    match assemble_memory_sweep(&report, &SIZES) {
        Ok(rows) => {
            if has_flag("csv") {
                // Rebuild the table and emit CSV for plotting.
                let mut t = spur_core::report::Table::new("memory_sweep");
                t.headers(&[
                    "mb",
                    "miss_pgin",
                    "ref_pgin",
                    "noref_pgin",
                    "miss_s",
                    "ref_s",
                    "noref_s",
                ]);
                for r in &rows {
                    let mut cells = vec![r.mem.megabytes().to_string()];
                    for p in &r.policies {
                        cells.push(format!("{:.0}", p.page_ins));
                    }
                    for p in &r.policies {
                        cells.push(format!("{:.3}", p.elapsed_secs));
                    }
                    t.row(cells);
                }
                print!("{}", t.to_csv());
                return;
            }
            println!("{}", render_memory_sweep(&rows));
            println!("Paper's closing claim: the benefits of reference bits decline as");
            println!("memory grows and eventually the maintenance overhead dominates.");
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    }
}
