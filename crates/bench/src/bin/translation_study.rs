//! In-cache translation, characterized: SPUR's hallmark mechanism uses
//! the cache "essentially as a very large TLB" (Wood et al., ISCA 1986).
//! This measures how well that works on the paper's workloads: PTE hit
//! ratios, second-level fetches, and how much of the cache the page
//! table actually occupies.

use spur_bench::study;
use spur_cache::counters::CounterEvent as E;
use spur_core::dirty::DirtyPolicy;
use spur_core::report::Table;
use spur_core::system::{SimConfig, SpurSystem};
use spur_trace::workloads::{slc, workload1};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

fn main() {
    let scale = study("in-cache translation study", 8_000_000);
    let mut t = Table::new("The cache as a TLB");
    t.headers(&[
        "Workload",
        "MB",
        "PTE probes",
        "PTE hit ratio",
        "2nd-level fetches",
        "PTE lines cached",
        "cache share",
    ]);
    for workload in [slc(), workload1()] {
        for mem in [MemSize::MB5, MemSize::MB8] {
            let mut sim = SpurSystem::new(SimConfig {
                mem,
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
            let probes = sim.counters().total(E::PteProbe);
            let hits = sim.counters().total(E::PteCacheHit);
            let second = sim.counters().total(E::SecondLevelFetch);
            let pte_lines = sim.pte_lines_cached();
            t.row(vec![
                workload.name().to_string(),
                mem.megabytes().to_string(),
                probes.to_string(),
                format!("{:.2}%", 100.0 * hits as f64 / probes.max(1) as f64),
                second.to_string(),
                pte_lines.to_string(),
                format!("{:.2}%", 100.0 * pte_lines as f64 / 4096.0),
            ]);
        }
    }
    println!("{}", t.render());
    println!("One 32-byte PTE block covers 8 pages, so a few dozen cached PTE");
    println!("blocks translate megabytes of working set — the reason SPUR could");
    println!("skip the TLB entirely and still translate in 3 cycles on PTE hits.");
}
