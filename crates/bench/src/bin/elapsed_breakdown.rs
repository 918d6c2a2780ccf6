//! Decomposes modeled elapsed time by category for each reference-bit
//! policy — the *why* behind Table 4.1: REF pays in reference-bit
//! machinery, NOREF pays in paging, MISS pays least overall.

use spur_bench::study;
use spur_core::breakdown::CycleCategory;
use spur_core::dirty::DirtyPolicy;
use spur_core::system::{SimConfig, SpurSystem};
use spur_trace::workloads::workload1;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

fn main() {
    let scale = study("elapsed-time decomposition (WORKLOAD1 @ 5 MB)", u64::MAX);
    let workload = workload1();
    for policy in RefPolicy::ALL {
        let stream = workload.generator(scale.seed);
        let (sim, _) = SpurSystem::new(SimConfig {
            mem: MemSize::MB5,
            dirty: DirtyPolicy::Spur,
            ref_policy: policy,
            ..SimConfig::default()
        })
        .and_then(|sim| sim.simulate(&workload, stream, scale.refs, None))
        .unwrap_or_else(|e| {
            eprintln!("run failed: {e}");
            std::process::exit(1)
        });
        println!("{policy}:");
        print!("{}", sim.breakdown().render());
        println!(
            "  => {:.1}s elapsed, {} page-ins\n",
            sim.events().elapsed_seconds(),
            sim.events().page_ins
        );
        let _ = CycleCategory::ALL; // category order documented in spur-core
    }
}
