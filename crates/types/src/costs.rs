//! Cycle-cost parameters: Table 3.2 plus the additional costs used by the
//! elapsed-time model.
//!
//! The paper expresses each dirty-bit alternative's overhead as a handful of
//! event counts multiplied by per-event cycle costs. The four costs of
//! Table 3.2 are:
//!
//! | parameter | cycles | description |
//! |-----------|--------|-------------|
//! | `t_ds`    | 1000   | fault handler sets a dirty bit |
//! | `t_flush` | 500    | flush one page from the cache (tag-checked) |
//! | `t_dm`    | 25     | update a cached page-dirty copy (dirty-bit miss) |
//! | `t_dc`    | 5      | check the PTE dirty bit on a write to a clean cached block |
//!
//! The remaining fields are the simulator's elapsed-time model: they are
//! not in Table 3.2 but are required to reproduce the *elapsed time* columns
//! of Tables 3.3 and 4.1 (the paper measured those on the prototype's wall
//! clock).

use core::fmt;

/// Per-event cycle costs.
///
/// [`CostParams::paper`] gives the Table 3.2 values; every field can be
/// overridden for sensitivity studies (Section 3.2 examines `t_dc = 1`, for
/// example).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostParams {
    /// `t_ds`: cycles for the software handler to set a dirty (or
    /// reference) bit. The prototype's untuned handler takes roughly 1000
    /// cycles: kernel-stack switch, status-register read, instruction
    /// decode, PTE update.
    pub t_ds: u64,
    /// `t_flush`: cycles to flush one page from the cache with a
    /// tag-checked flush operation (128 block probes, ~10% dirty blocks
    /// written back).
    pub t_flush: u64,
    /// `t_dm`: cycles for a dirty-bit miss — refreshing the cached copy of
    /// the page dirty bit by forcing a cache miss.
    pub t_dm: u64,
    /// `t_dc`: cycles to check the PTE dirty bit on a write that hits a
    /// clean cached block (3 cycles if the PTE is cached plus ~2 cycles of
    /// weighted miss penalty).
    pub t_dc: u64,
    /// Cycles for the software handler to set a reference bit (same fault
    /// path as `t_ds`).
    pub t_ref_fault: u64,
    /// Cycles a cache hit costs the processor (1 on SPUR).
    pub cache_hit: u64,
    /// Cycles to probe the cache for a PTE during in-cache translation.
    pub pte_cached_check: u64,
    /// Cycles to fetch a second-level PTE directly from wired memory.
    pub pte_wired_fetch: u64,
    /// Cycles to fill one 32-byte block from memory (Table 2.1 timing:
    /// 3 backplane cycles to the first word, 1 per word after).
    pub block_fill: u64,
    /// Cycles to page a 4 KB page in from backing store (dominated by disk
    /// latency; ~20 ms at 150 ns/cycle).
    pub page_in: u64,
    /// Cycles to zero-fill a fresh 4 KB frame (no I/O involved).
    pub zero_fill: u64,
    /// Base cycles of servicing any page fault (trap, handler dispatch,
    /// PTE setup) on top of I/O or zero-fill work.
    pub page_fault_service: u64,
    /// Cycles charged for queueing a dirty page-out (the write itself is
    /// asynchronous; only the CPU cost of scheduling it is charged).
    pub page_out_cpu: u64,
    /// Cycles the page daemon spends examining one resident page during a
    /// clock sweep (check/clear reference bit, list manipulation).
    pub daemon_per_page: u64,
    /// Cycles to probe one cache line during a tag-checked page flush.
    pub flush_probe: u64,
    /// Cycles to write back one dirty block found during a flush.
    pub flush_writeback: u64,
}

impl CostParams {
    /// The Table 3.2 parameters with the elapsed-time model defaults.
    ///
    /// ```
    /// use spur_types::CostParams;
    ///
    /// let c = CostParams::paper();
    /// assert_eq!(c.t_ds, 1000);
    /// assert_eq!(c.t_flush, 500);
    /// assert_eq!(c.t_dm, 25);
    /// assert_eq!(c.t_dc, 5);
    /// ```
    pub const fn paper() -> Self {
        CostParams {
            t_ds: 1000,
            t_flush: 500,
            t_dm: 25,
            t_dc: 5,
            t_ref_fault: 1000,
            cache_hit: 1,
            pte_cached_check: 3,
            pte_wired_fetch: 10,
            block_fill: 9,
            // 20 ms page-in at 150 ns per cycle.
            page_in: 133_333,
            zero_fill: 1_024,
            page_fault_service: 2_000,
            page_out_cpu: 2_000,
            daemon_per_page: 10,
            flush_probe: 1,
            flush_writeback: 10,
        }
    }

    /// Cost of flushing a page with SPUR's actual tag-*blind* flush: all
    /// 128 line flush operations touch whatever block occupies the line,
    /// writing back roughly one fifth of them (Section 3.2 estimates nearly
    /// 2000 cycles).
    pub const fn tag_blind_page_flush(&self, lines_per_page: u64) -> u64 {
        // Two instructions of loop overhead per block, plus the probe, and
        // one fifth of the blocks written back.
        let loop_cost = lines_per_page * (2 + self.flush_probe);
        let writebacks = lines_per_page / 5 * self.flush_writeback;
        loop_cost + writebacks * 5
    }
}

impl Default for CostParams {
    fn default() -> Self {
        Self::paper()
    }
}

impl fmt::Display for CostParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "t_ds      {:>6}  Time for handler to set dirty bit",
            self.t_ds
        )?;
        writeln!(
            f,
            "t_flush   {:>6}  Time to flush page from cache",
            self.t_flush
        )?;
        writeln!(
            f,
            "t_dm      {:>6}  Time to update cached dirty bit",
            self.t_dm
        )?;
        write!(f, "t_dc      {:>6}  Time to check PTE dirty bit", self.t_dc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_table_3_2() {
        let c = CostParams::paper();
        assert_eq!(c.t_ds, 1000);
        assert_eq!(c.t_flush, 500);
        assert_eq!(c.t_dm, 25);
        assert_eq!(c.t_dc, 5);
    }

    #[test]
    fn fault_is_an_order_of_magnitude_slower_than_dirty_miss() {
        // Section 3.1: "a fault takes at least one order of magnitude
        // longer than a dirty bit miss".
        let c = CostParams::paper();
        assert!(c.t_ds >= 10 * c.t_dm);
    }

    #[test]
    fn tag_checked_flush_is_cheaper_than_tag_blind() {
        let c = CostParams::paper();
        // Paper: tag-blind flush costs nearly 2000 cycles vs ~500 for the
        // tag-checked variant.
        let blind = c.tag_blind_page_flush(128);
        assert!(
            blind > 2 * c.t_flush,
            "blind flush {blind} should far exceed t_flush"
        );
        assert!(
            (1500..=2500).contains(&blind),
            "blind flush {blind} ~ 2000 cycles"
        );
    }

    #[test]
    fn display_mentions_every_table_parameter() {
        let text = CostParams::paper().to_string();
        for name in ["t_ds", "t_flush", "t_dm", "t_dc"] {
            assert!(text.contains(name), "missing {name}");
        }
    }
}
