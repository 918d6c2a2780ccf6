//! A memory-size sweep the paper implies but never plots: page-ins and
//! elapsed time for each reference-bit policy from 4 MB (thrashing) to
//! 10 MB (everything resident). The crossover where NOREF stops mattering
//! is the paper's closing argument made visible.
//!
//! Every (size, policy) cell is a harness job (`--jobs N` parallelism);
//! artifacts land in `results/json/sweep_memory-<scale>/`.

use spur_bench::jobs::{assemble_memory_sweep, memory_sweep_jobs};
use spur_bench::parse_args;
use spur_core::experiments::sweep::render_memory_sweep;
use spur_core::experiments::Scale;
use spur_core::obs::ObsParams;
use spur_harness::run_jobs_with_progress;
use spur_scenario::persist_run;
use spur_scenario::render::banner;
use spur_trace::workloads::workload1;

const SIZES: [u32; 5] = [4, 5, 6, 8, 10];

fn main() {
    let (opts, extras) = parse_args(&[("--csv", "print the sweep as CSV only, for plotting")]);
    let csv = !extras.is_empty();
    let mut scale = opts.scale.unwrap_or_else(Scale::default_scale);
    scale.reps = scale.reps.min(2);
    let obs = opts.obs_enabled.then(|| ObsParams {
        epoch: opts.epoch,
        ..ObsParams::default()
    });
    if !csv {
        print!("{}", banner("memory sweep (WORKLOAD1, 4-10 MB)", &scale));
    }
    let report = run_jobs_with_progress(
        memory_sweep_jobs(workload1, &SIZES, scale, obs),
        opts.workers,
        opts.progress,
    );
    let persisted = persist_run("sweep_memory", &scale, &report, opts.trace_out.as_deref());
    match assemble_memory_sweep(&report, &SIZES) {
        Ok(rows) => {
            if csv {
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
            } else {
                println!("{}", render_memory_sweep(&rows));
                println!("Paper's closing claim: the benefits of reference bits decline as");
                println!("memory grows and eventually the maintenance overhead dominates.");
            }
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    }
    if !persisted {
        std::process::exit(1);
    }
}
