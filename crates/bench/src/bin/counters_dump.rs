//! Dumps the cache controller's counter banks after a short run — what
//! the paper's on-machine monitor programs printed.

use spur_bench::study;
use spur_core::system::{SimConfig, SpurSystem};
use spur_trace::workloads::slc;
use spur_types::MemSize;

fn main() {
    let scale = study("performance-counter dump (SLC @ 6 MB)", 2_000_000);
    let workload = slc();
    let mut sim = SpurSystem::new(SimConfig {
        mem: MemSize::MB6,
        ..SimConfig::default()
    })
    .expect("config valid");
    sim.load_workload(&workload).expect("registers");
    if let Err(e) = sim.run(&mut workload.generator(scale.seed), scale.refs) {
        eprintln!("run failed: {e}");
        std::process::exit(1);
    }
    print!("{}", sim.counters().dump());
    println!("\n(16 registers per mode; the hardware's registers are 32-bit and");
    println!("wrap — these are the simulator's 64-bit shadow totals.)");
}
