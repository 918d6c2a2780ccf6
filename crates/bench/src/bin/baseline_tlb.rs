//! The comparison the paper's introduction is about but never runs end
//! to end: the virtual-address cache (translation only on misses, but
//! awkward R/D bits) vs a conventional TLB + physical cache (free R/D
//! checks, but translation serialized into every access and TLB refills).

use spur_bench::study;
use spur_core::baseline::{TlbConfig, TlbSystem};
use spur_core::breakdown::CycleCategory;
use spur_core::dirty::DirtyPolicy;
use spur_core::report::Table;
use spur_core::system::{SimConfig, SpurSystem};
use spur_trace::workloads::{slc, workload1};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

fn main() {
    let scale = study("virtual-address cache vs TLB + physical cache", 8_000_000);

    let mut t = Table::new("Same workload, two machines (cycles in millions)");
    t.headers(&[
        "Workload",
        "MB",
        "Machine",
        "base",
        "miss+xlat",
        "dirty-bit",
        "ref-bit",
        "total-CPU",
        "dirty faults",
        "excess",
    ]);
    for workload in [slc(), workload1()] {
        for mem in [MemSize::MB5, MemSize::MB8] {
            // SPUR machine: FAULT emulation (the paper's recommendation).
            let mut va = SpurSystem::new(SimConfig {
                mem,
                dirty: DirtyPolicy::Fault,
                ref_policy: RefPolicy::Miss,
                ..SimConfig::default()
            })
            .expect("config");
            va.load_workload(&workload).expect("registers");
            va.run(&mut workload.generator(scale.seed), scale.refs)
                .expect("runs");

            // Conventional machine.
            let mut tlb = TlbSystem::new(TlbConfig {
                mem,
                ..TlbConfig::default()
            })
            .expect("config");
            tlb.load_workload(&workload).expect("registers");
            tlb.run(&mut workload.generator(scale.seed), scale.refs)
                .expect("runs");

            let row = |name: &str, b: &spur_core::breakdown::CycleBreakdown, ds: u64, ef: u64| {
                let cpu = b.total().raw() - b[CycleCategory::Paging].raw(); // paging I/O identical by construction
                vec![
                    workload.name().to_string(),
                    mem.megabytes().to_string(),
                    name.to_string(),
                    format!("{:.2}", b[CycleCategory::BaseExecution].millions()),
                    format!("{:.2}", b[CycleCategory::MissService].millions()),
                    format!("{:.3}", b[CycleCategory::DirtyBit].millions()),
                    format!("{:.3}", b[CycleCategory::RefBit].millions()),
                    format!("{:.2}", spur_types::Cycles::new(cpu).millions()),
                    ds.to_string(),
                    ef.to_string(),
                ]
            };
            use spur_cache::counters::CounterEvent as E;
            t.row(row(
                "VA-cache",
                va.breakdown(),
                va.counters().total(E::DirtyFault),
                va.counters().total(E::ExcessFault),
            ));
            t.row(row(
                "TLB+PA",
                tlb.breakdown(),
                tlb.counters().total(E::DirtyFault),
                0,
            ));
            println!(
                "{} @ {}: TLB hit ratio {:.2}%, {} TLB misses",
                workload.name(),
                mem,
                100.0 * tlb.tlb_hit_ratio(),
                tlb.tlb_misses()
            );
        }
    }
    println!();
    println!("{}", t.render());
    println!("The trade the paper describes: the VA cache saves the per-access");
    println!("serialization (compare 'base'), pays a little in dirty/ref-bit");
    println!("machinery and in-cache translation — and the paper's conclusion is");
    println!("that the R/D-bit side of that trade is cheap enough not to matter.");
}
