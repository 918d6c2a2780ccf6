//! Characterizes every synthetic workload: mix, footprint, working sets,
//! per-process shares — the auditable version of the paper's qualitative
//! workload descriptions.

use spur_bench::study;
use spur_trace::characterize::characterize;
use spur_trace::workloads::{devmachine, mp_workers, slc, workload1, DevHost};

fn main() {
    let scale = study("workload characterization", 8_000_000);
    let window = (scale.refs / 10).max(100_000);
    for workload in [
        slc(),
        workload1(),
        devmachine(&DevHost::table_3_5()[0]),
        mp_workers(4, 256),
    ] {
        let c = characterize(&workload, scale.seed, scale.refs, window);
        println!("{}", c.render(workload.name()));
        println!(
            "  declared footprint: {:.1} MB (region pages, upper bound)\n",
            workload.footprint_mb()
        );
    }
    println!("Calibration check: mean working sets should straddle the paper's");
    println!("5/6/8 MB ladder (minus ~1 MB of kernel) so that 5 MB pages heavily");
    println!("and 8 MB lightly.");
}
