//! Parameter sweeps: series the paper implies but never plots.
//!
//! * [`MemorySweepRow`] — page-ins/elapsed per reference-bit policy from
//!   thrashing to everything-resident (the Section 4.2 data as a curve),
//!   one [`RefbitRow`] per policy;
//! * [`measure_tlb_point`] — the conventional baseline's sensitivity to
//!   TLB reach, with and without context-switch flushes.
//!
//! The `sweep_memory` binary runs the memory points as harness jobs;
//! the TLB points are the `tlb` scenario kind's cells, committed as
//! `scenarios/sweep_tlb.json`.

use spur_trace::workloads::Workload;
use spur_types::{MemSize, Result};

use crate::baseline::{TlbConfig, TlbSystem};
use crate::experiments::refbit::RefbitRow;
use crate::experiments::Scale;
use crate::report::Table;

/// One memory-sweep point: the three policies at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySweepRow {
    /// Memory size.
    pub mem: MemSize,
    /// Rows in [`RefPolicy::ALL`](spur_vm::policy::RefPolicy::ALL) order.
    pub policies: Vec<RefbitRow>,
}

/// Renders the memory sweep.
pub fn render_memory_sweep(rows: &[MemorySweepRow]) -> String {
    let mut t = Table::new("Page-ins and elapsed seconds vs memory size");
    t.headers(&[
        "MB",
        "MISS pg-in",
        "REF pg-in",
        "NOREF pg-in",
        "MISS s",
        "REF s",
        "NOREF s",
    ]);
    for r in rows {
        let mut cells = vec![r.mem.megabytes().to_string()];
        for p in &r.policies {
            cells.push(format!("{:.0}", p.page_ins));
        }
        for p in &r.policies {
            cells.push(format!("{:.1}", p.elapsed_secs));
        }
        t.row(cells);
    }
    t.render()
}

/// One TLB-size point.
#[derive(Debug, Clone, PartialEq)]
pub struct TlbSweepRow {
    /// TLB entries.
    pub entries: usize,
    /// Whether the TLB flushes on context switches.
    pub flush_on_switch: bool,
    /// TLB miss count.
    pub tlb_misses: u64,
    /// TLB hit ratio.
    pub hit_ratio: f64,
    /// Total modeled elapsed seconds.
    pub elapsed_secs: f64,
}

impl TlbSweepRow {
    /// The artifact encoding of one TLB-sweep cell.
    pub fn to_json(&self) -> spur_harness::Json {
        use spur_harness::Json;
        Json::object([
            ("entries", Json::from(self.entries)),
            ("flush_on_switch", Json::from(self.flush_on_switch)),
            ("tlb_misses", Json::from(self.tlb_misses)),
            ("hit_ratio", Json::from(self.hit_ratio)),
            ("elapsed_secs", Json::from(self.elapsed_secs)),
        ])
    }
}

/// Runs one (TLB entries, flush-on-switch) point of the baseline
/// sweep — the cell the experiment harness schedules.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_tlb_point(
    workload: &Workload,
    mem: MemSize,
    entries: usize,
    flush_on_switch: bool,
    scale: &Scale,
) -> Result<TlbSweepRow> {
    let mut sys = TlbSystem::new(TlbConfig {
        mem,
        entries,
        flush_on_switch,
        ..TlbConfig::default()
    })?;
    sys.load_workload(workload)?;
    let mut gen = workload.generator(scale.seed);
    sys.run(&mut gen, scale.refs)?;
    Ok(TlbSweepRow {
        entries,
        flush_on_switch,
        tlb_misses: sys.tlb_misses(),
        hit_ratio: sys.tlb_hit_ratio(),
        elapsed_secs: sys.cycles().seconds(150),
    })
}

/// Renders the TLB sweep.
pub fn render_tlb_sweep(rows: &[TlbSweepRow]) -> String {
    let mut t = Table::new("Conventional baseline: TLB reach sensitivity");
    t.headers(&[
        "entries",
        "switch flush",
        "TLB misses",
        "hit ratio",
        "elapsed(s)",
    ]);
    for r in rows {
        t.row(vec![
            r.entries.to_string(),
            if r.flush_on_switch { "yes" } else { "no" }.to_string(),
            r.tlb_misses.to_string(),
            format!("{:.2}%", 100.0 * r.hit_ratio),
            format!("{:.1}", r.elapsed_secs),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::refbit::measure_refbit;
    use spur_trace::workloads::slc;
    use spur_vm::policy::RefPolicy;

    fn tiny() -> Scale {
        Scale {
            refs: 400_000,
            seed: 5,
            reps: 1,
            dev_refs_per_hour: 0,
        }
    }

    #[test]
    fn memory_sweep_page_ins_fall_with_memory() {
        let w = slc();
        let rows: Vec<MemorySweepRow> = [4, 8]
            .into_iter()
            .map(|mb| {
                let mem = MemSize::new(mb);
                let policies = RefPolicy::ALL
                    .into_iter()
                    .map(|policy| measure_refbit(&w, mem, policy, &tiny()).unwrap())
                    .collect();
                MemorySweepRow { mem, policies }
            })
            .collect();
        assert_eq!(rows.len(), 2);
        let small = rows[0].policies[0].page_ins;
        let large = rows[1].policies[0].page_ins;
        assert!(
            large <= small,
            "MISS page-ins: {small} @4MB vs {large} @8MB"
        );
        let text = render_memory_sweep(&rows);
        assert!(text.contains("NOREF pg-in"));
    }

    #[test]
    fn tlb_sweep_bigger_is_better() {
        let w = slc();
        let mut rows = Vec::new();
        for entries in [16, 256] {
            for flush_on_switch in [false, true] {
                rows.push(
                    measure_tlb_point(&w, MemSize::MB8, entries, flush_on_switch, &tiny()).unwrap(),
                );
            }
        }
        assert_eq!(rows.len(), 4);
        let small_tagged = rows
            .iter()
            .find(|r| r.entries == 16 && !r.flush_on_switch)
            .unwrap();
        let big_tagged = rows
            .iter()
            .find(|r| r.entries == 256 && !r.flush_on_switch)
            .unwrap();
        assert!(
            big_tagged.tlb_misses < small_tagged.tlb_misses,
            "more entries must miss less: {} vs {}",
            big_tagged.tlb_misses,
            small_tagged.tlb_misses
        );
        let text = render_tlb_sweep(&rows);
        assert!(text.contains("entries"));
    }
}
