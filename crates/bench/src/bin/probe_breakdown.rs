//! Diagnostic: attributes necessary and excess dirty-bit faults to page
//! kinds, for workload tuning. Not a paper artifact.

use spur_bench::parse_args;
use spur_core::dirty::DirtyPolicy;
use spur_core::experiments::Scale;
use spur_core::system::{SimConfig, SpurSystem};
use spur_trace::workloads::{slc, workload1};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

fn main() {
    let scale = parse_args(&[]).0.scale.unwrap_or_else(Scale::default_scale);
    for w in [slc(), workload1()] {
        for mem in [MemSize::MB5, MemSize::MB8] {
            let (sim, _) = SpurSystem::new(SimConfig {
                mem,
                dirty: DirtyPolicy::Spur,
                ref_policy: RefPolicy::Miss,
                ..SimConfig::default()
            })
            .and_then(|sim| sim.simulate(&w, w.generator(scale.seed), scale.refs, None))
            .expect("the builtin workloads run at 5 and 8 MB");
            let ev = sim.events();
            println!(
                "{} @ {}: N_ds={} zfod={} N_ef={} whit={} wmiss={} page_ins={} misses={} refs={}",
                w.name(),
                mem,
                ev.n_ds,
                ev.n_zfod,
                ev.n_ef,
                ev.n_whit,
                ev.n_wmiss,
                ev.page_ins,
                ev.misses,
                ev.refs
            );
            println!(
                "   stale blocks cached at fault time: {} (zfod {}, refault {})",
                sim.stale_at_fault(),
                sim.stale_at_fault_zfod(),
                sim.stale_at_fault() - sim.stale_at_fault_zfod()
            );
            let mut faults: Vec<_> = sim.fault_breakdown().iter().collect();
            faults.sort_by_key(|((k, z), _)| (format!("{k}"), *z));
            for ((kind, zf), n) in faults {
                println!("   fault {kind} zfod={zf}: {n}");
            }
            let mut excess: Vec<_> = sim.excess_breakdown().iter().collect();
            excess.sort_by_key(|(kind, _)| format!("{kind}"));
            for (kind, n) in excess {
                println!("   excess {kind}: {n}");
            }
        }
    }
}
