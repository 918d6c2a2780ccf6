//! Table 3.5: page-out results from Sprite development systems.
//!
//! The paper's measurement is observational: six development machines
//! with 8–16 MB, watched for 36–119 hours. The headline statistic is the
//! fraction of *potentially modified* (writable) pages that were **not**
//! modified when replaced — i.e. the write-backs dirty bits actually
//! save — and how much total paging I/O would grow without dirty bits.

use spur_trace::workloads::{devmachine, DevHost};
use spur_types::{MemSize, Result};
use spur_vm::policy::RefPolicy;

use crate::dirty::DirtyPolicy;
use crate::experiments::Scale;
use crate::report::{fmt_pct, fmt_pct1, Table};
use crate::system::{SimConfig, SpurSystem};

/// One Table 3.5 row.
#[derive(Debug, Clone, PartialEq)]
pub struct PageoutRow {
    /// Hostname.
    pub host: String,
    /// Memory size.
    pub mem: MemSize,
    /// Uptime in hours (sets the simulated horizon).
    pub uptime_hours: u32,
    /// Pages read from backing store.
    pub page_ins: u64,
    /// Writable pages replaced.
    pub potentially_modified: u64,
    /// Writable pages replaced clean.
    pub not_modified: u64,
    /// `not_modified / potentially_modified`, percent.
    pub pct_not_modified: f64,
    /// Additional paging I/O without dirty bits, percent.
    pub pct_additional_io: f64,
}

impl PageoutRow {
    /// The artifact encoding of one Table 3.5 row.
    pub fn to_json(&self) -> spur_harness::Json {
        use spur_harness::Json;
        Json::object([
            ("host", Json::from(self.host.as_str())),
            ("mem_mb", Json::from(self.mem.megabytes())),
            ("uptime_hours", Json::from(self.uptime_hours)),
            ("page_ins", Json::from(self.page_ins)),
            (
                "potentially_modified",
                Json::from(self.potentially_modified),
            ),
            ("not_modified", Json::from(self.not_modified)),
            ("pct_not_modified", Json::from(self.pct_not_modified)),
            ("pct_additional_io", Json::from(self.pct_additional_io)),
        ])
    }
}

/// Simulates one development machine for its observed uptime.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_host(host: &DevHost, scale: &Scale) -> Result<PageoutRow> {
    let workload = devmachine(host);
    let mem = MemSize::new(host.mem_mb);
    let refs = host.uptime_hours as u64 * scale.dev_refs_per_hour;
    let (sim, _) = SpurSystem::new(SimConfig {
        mem,
        dirty: DirtyPolicy::Spur,
        ref_policy: RefPolicy::Miss,
        ..SimConfig::default()
    })?
    .simulate(&workload, workload.generator(host.seed), refs, None)?;

    let swap = sim.vm().swap();
    let stats = sim.vm().stats();
    Ok(PageoutRow {
        host: host.name.to_string(),
        mem,
        uptime_hours: host.uptime_hours,
        page_ins: stats.page_ins,
        potentially_modified: swap.potentially_modified,
        not_modified: swap.not_modified,
        pct_not_modified: swap.percent_not_modified(),
        pct_additional_io: swap.percent_additional_io(stats.page_ins),
    })
}

/// Renders rows in the paper's Table 3.5 format.
pub fn render_table_3_5(rows: &[PageoutRow]) -> String {
    let mut t = Table::new("Table 3.5: Page-Out Results from Sprite Development Systems");
    t.headers(&[
        "Hostname",
        "Memory",
        "Uptime(h)",
        "Page-Ins",
        "Potentially Modified",
        "Not Modified",
        "% Not Modified",
        "% Additional I/O",
    ]);
    for r in rows {
        t.row(vec![
            r.host.clone(),
            format!("{} MB", r.mem.megabytes()),
            r.uptime_hours.to_string(),
            r.page_ins.to_string(),
            r.potentially_modified.to_string(),
            r.not_modified.to_string(),
            fmt_pct(r.pct_not_modified),
            fmt_pct1(r.pct_additional_io),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_host_produces_consistent_accounting() {
        let hosts = DevHost::table_3_5();
        let scale = Scale::quick();
        let row = measure_host(&hosts[0], &scale).unwrap();
        assert!(row.not_modified <= row.potentially_modified);
        assert!(row.pct_not_modified >= 0.0 && row.pct_not_modified <= 100.0);
        assert!(row.pct_additional_io >= 0.0);
    }

    #[test]
    fn render_matches_paper_columns() {
        let rows = vec![PageoutRow {
            host: "mace".into(),
            mem: MemSize::MB8,
            uptime_hours: 70,
            page_ins: 15203,
            potentially_modified: 2681,
            not_modified: 488,
            pct_not_modified: 18.2,
            pct_additional_io: 2.8,
        }];
        let text = render_table_3_5(&rows);
        assert!(text.contains("mace"));
        assert!(text.contains("15203"));
        assert!(text.contains("18%"));
        assert!(text.contains("2.8%"));
    }
}
