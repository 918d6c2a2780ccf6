//! Section 3.3's argument, measured: page residency lifetimes vs memory
//! size. "During times of heavy paging, pages do not stay in memory long
//! and thus are unlikely to be modified" — at 5 MB residencies are short
//! and clean replacements common; at 8 MB pages live long and nearly all
//! modifiable pages get modified.

use spur_bench::study;
use spur_core::dirty::DirtyPolicy;
use spur_core::report::Table;
use spur_core::system::{SimConfig, SpurSystem};
use spur_trace::workloads::workload1;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

fn main() {
    let scale = study("page residency study (WORKLOAD1)", 12_000_000);
    let workload = workload1();
    let mut t = Table::new("Residency lifetimes (measured in page faults) and dirty-bit payoff");
    t.headers(&[
        "MB",
        "completed",
        "mean life",
        "% short (<512 faults)",
        "% clean of writable",
    ]);
    for mb in [4u32, 5, 6, 8] {
        let mut sim = SpurSystem::new(SimConfig {
            mem: MemSize::new(mb),
            dirty: DirtyPolicy::Spur,
            ref_policy: RefPolicy::Miss,
            ..SimConfig::default()
        })
        .expect("config valid");
        sim.load_workload(&workload).expect("registers");
        if let Err(e) = sim.run(&mut workload.generator(scale.seed), scale.refs) {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
        let rs = sim.vm().residency();
        let swap = sim.vm().swap();
        t.row(vec![
            mb.to_string(),
            rs.count().to_string(),
            format!("{:.0}", rs.mean()),
            format!("{:.0}%", 100.0 * rs.fraction_shorter_than(512)),
            format!("{:.0}%", swap.percent_not_modified()),
        ]);
    }
    println!("{}", t.render());
    println!("Shape check: lifetimes lengthen and clean-replacement percentages fall");
    println!("as memory grows — dirty bits buy less and less, Section 3.3's point.");
}
