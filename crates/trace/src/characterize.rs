//! Workload characterization: what a synthesized reference stream
//! actually looks like.
//!
//! The paper describes its workloads qualitatively ("a moderately heavy
//! load for a CAD tool developer"); this module quantifies ours so the
//! calibration against the 5/6/8 MB ladder is auditable: reference mix,
//! footprint growth, working-set sizes over windows, and per-process
//! activity shares.

use std::collections::{HashMap, HashSet};

use spur_types::{AccessKind, Vpn};

use crate::stream::Pid;
use crate::workloads::Workload;

/// Summary statistics of a reference stream prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    /// References examined.
    pub refs: u64,
    /// Instruction fetches.
    pub ifetches: u64,
    /// Data reads.
    pub reads: u64,
    /// Data writes.
    pub writes: u64,
    /// Distinct pages touched (the footprint).
    pub distinct_pages: u64,
    /// Distinct cache blocks touched.
    pub distinct_blocks: u64,
    /// Mean working-set size in pages over the measurement windows.
    pub mean_working_set_pages: f64,
    /// Largest per-window working set seen.
    pub peak_working_set_pages: u64,
    /// Window length used for working sets (references).
    pub window: u64,
    /// References issued per process.
    pub per_process: Vec<(Pid, u64)>,
}

impl Characterization {
    /// Footprint in megabytes (4 KB pages).
    pub(crate) fn footprint_mb(&self) -> f64 {
        self.distinct_pages as f64 * 4096.0 / (1024.0 * 1024.0)
    }

    /// Mean working set in megabytes.
    pub(crate) fn working_set_mb(&self) -> f64 {
        self.mean_working_set_pages * 4096.0 / (1024.0 * 1024.0)
    }

    /// Renders a human-readable report.
    pub fn render(&self, name: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("workload {name}: {} references\n", self.refs));
        out.push_str(&format!(
            "  mix: {:.1}% ifetch / {:.1}% read / {:.1}% write\n",
            100.0 * self.ifetches as f64 / self.refs.max(1) as f64,
            100.0 * self.reads as f64 / self.refs.max(1) as f64,
            100.0 * self.writes as f64 / self.refs.max(1) as f64,
        ));
        out.push_str(&format!(
            "  footprint: {} pages ({:.1} MB), {} blocks\n",
            self.distinct_pages,
            self.footprint_mb(),
            self.distinct_blocks
        ));
        out.push_str(&format!(
            "  working set ({}-ref windows): mean {:.0} pages ({:.2} MB), peak {} pages\n",
            self.window,
            self.mean_working_set_pages,
            self.working_set_mb(),
            self.peak_working_set_pages
        ));
        out.push_str("  per-process share:\n");
        for (pid, n) in &self.per_process {
            out.push_str(&format!(
                "    {pid}: {:.1}%\n",
                100.0 * *n as f64 / self.refs.max(1) as f64
            ));
        }
        out
    }
}

/// Characterizes the first `refs` references of `workload` at `seed`,
/// using `window`-reference working-set windows.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn characterize(workload: &Workload, seed: u64, refs: u64, window: u64) -> Characterization {
    assert!(window > 0, "working-set window must be positive");
    let mut ifetches = 0u64;
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut pages: HashSet<Vpn> = HashSet::new();
    let mut blocks: HashSet<u64> = HashSet::new();
    let mut per_process: HashMap<Pid, u64> = HashMap::new();

    let mut window_pages: HashSet<Vpn> = HashSet::new();
    let mut ws_sum = 0u64;
    let mut ws_windows = 0u64;
    let mut ws_peak = 0u64;

    let mut n = 0u64;
    for r in workload.generator(seed).take(refs as usize) {
        n += 1;
        match r.kind {
            AccessKind::InstrFetch => ifetches += 1,
            AccessKind::Read => reads += 1,
            AccessKind::Write => writes += 1,
        }
        pages.insert(r.addr.vpn());
        blocks.insert(r.addr.block().index());
        *per_process.entry(r.pid).or_insert(0) += 1;
        window_pages.insert(r.addr.vpn());
        if n.is_multiple_of(window) {
            let size = window_pages.len() as u64;
            ws_sum += size;
            ws_windows += 1;
            ws_peak = ws_peak.max(size);
            window_pages.clear();
        }
    }

    let mut per_process: Vec<(Pid, u64)> = per_process.into_iter().collect();
    per_process.sort_by_key(|(pid, _)| *pid);

    Characterization {
        refs: n,
        ifetches,
        reads,
        writes,
        distinct_pages: pages.len() as u64,
        distinct_blocks: blocks.len() as u64,
        mean_working_set_pages: if ws_windows == 0 {
            window_pages.len() as f64
        } else {
            ws_sum as f64 / ws_windows as f64
        },
        peak_working_set_pages: ws_peak.max(window_pages.len() as u64),
        window,
        per_process,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{slc, workload1};

    #[test]
    fn slc_characterization_is_sane() {
        let w = slc();
        let c = characterize(&w, 1, 500_000, 100_000);
        assert_eq!(c.refs, 500_000);
        assert_eq!(c.refs, c.ifetches + c.reads + c.writes);
        // The calibrated mix: ~half ifetches, writes in the mid-teens.
        let wf = c.writes as f64 / c.refs as f64;
        assert!((0.08..0.25).contains(&wf), "write fraction {wf}");
        assert!(c.distinct_pages > 100);
        assert!(c.distinct_blocks >= c.distinct_pages);
        assert!(c.mean_working_set_pages > 10.0);
        assert!(c.peak_working_set_pages >= c.mean_working_set_pages as u64);
    }

    #[test]
    fn workload1_touches_multiple_processes() {
        let w = workload1();
        let c = characterize(&w, 1, 400_000, 100_000);
        assert!(!c.per_process.is_empty());
        let total: u64 = c.per_process.iter().map(|(_, n)| n).sum();
        assert_eq!(total, c.refs);
    }

    #[test]
    fn footprint_grows_with_horizon() {
        let w = slc();
        let short = characterize(&w, 2, 200_000, 50_000);
        let long = characterize(&w, 2, 2_000_000, 50_000);
        assert!(long.distinct_pages > short.distinct_pages);
    }

    #[test]
    fn render_contains_key_sections() {
        let w = slc();
        let c = characterize(&w, 1, 50_000, 10_000);
        let text = c.render("SLC");
        assert!(text.contains("mix:"));
        assert!(text.contains("footprint:"));
        assert!(text.contains("working set"));
        assert!(text.contains("per-process"));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let w = slc();
        let _ = characterize(&w, 1, 1000, 0);
    }
}
