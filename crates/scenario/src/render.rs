//! Legacy stdout rendering: what the folded-in binaries printed,
//! reproduced from a scenario run's report.
//!
//! Every kind renders. The binaries a committed config replaced — the
//! seven `ablation_*` binaries, the single-table binaries (`table_3_3`,
//! `table_3_4`, `model_excess_faults`, `table_3_5`, `table_4_1`),
//! `sweep_tlb` and `mp_refbit` — are gone:
//! `spur-scenario run scenarios/<name>.json --legacy-stdout` prints
//! what they printed. The parity tests diff this output against an
//! inline reconstruction of the original code — so "the folded
//! binaries still print the same thing" is a tested claim, not a
//! code-review hope. `reproduce_all` and `reproduce_mp` assemble
//! their tables from the same row collectors ([`event_rows`],
//! [`pageout_rows`], [`refbit_rows`], [`mp_rows`]) and print the same
//! [`banner`].

use spur_core::experiments::ablation::{
    handler_tuning, render_cache_scaling, render_handler_tuning, tdc_sensitivity,
};
use spur_core::experiments::crossover::render_crossover;
use spur_core::experiments::events::{render_table_3_3, EventRow};
use spur_core::experiments::overhead::{
    model_vs_measured, render_model, render_table_3_4, table_3_4,
};
use spur_core::experiments::pageout::{render_table_3_5, PageoutRow};
use spur_core::experiments::refbit::{render_table_4_1, RefbitRow};
use spur_core::experiments::sweep::render_tlb_sweep;
use spur_core::experiments::Scale;
use spur_core::report::Table;
use spur_harness::{Json, RunReport};
use spur_mp::{mp_key, mp_model, render_mp, render_mp_model, MpRow};
use spur_trace::workloads::DevHost;
use spur_types::CostParams;
use spur_vm::policy::RefPolicy;

use crate::cells::{
    assoc_key, cache_scaling_key, crossover_key, events_key, flush_key, pageout_key, refbit_key,
    sim_key, soft_faults_key, tlb_key, watermarks_key, CellValue,
};
use crate::config::{Kind, Scenario};

/// The run banner the experiment binaries print before their tables:
/// what they regenerate, then the scale, then a blank line.
pub fn banner(what: &str, scale: &Scale) -> String {
    format!(
        "SPUR reference/dirty-bit reproduction — {what}\nscale: {} references/run, {} rep(s), seed {}\n\n",
        scale.refs, scale.reps, scale.seed
    )
}

/// The [`banner`] a folded-in binary printed before running, when the
/// scenario declares a `legacy_header`.
pub fn legacy_banner(scenario: &Scenario, scale: &Scale) -> Option<String> {
    scenario
        .legacy_header
        .as_ref()
        .map(|what| banner(what, scale))
}

/// The stderr prefix each legacy binary used on a missing/failed cell.
pub(crate) fn error_prefix(kind: Kind) -> &'static str {
    match kind {
        Kind::Flush
        | Kind::Assoc
        | Kind::CacheScaling
        | Kind::Crossover
        | Kind::Events
        | Kind::Refbit
        | Kind::Mp
        | Kind::Pageout
        | Kind::Tlb => "experiment failed",
        Kind::SoftFaults | Kind::Watermarks | Kind::Sim => "run failed",
    }
}

fn axis_u64s(scenario: &Scenario, name: &str) -> Vec<u64> {
    scenario
        .axis(name)
        .map(|a| {
            a.values
                .iter()
                .filter_map(|v| match v {
                    Json::UInt(u) => Some(*u),
                    Json::Int(i) => Some(*i as u64),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

fn axis_strs(scenario: &Scenario, name: &str) -> Vec<String> {
    scenario
        .axis(name)
        .map(|a| {
            a.values
                .iter()
                .filter_map(|v| match v {
                    Json::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

fn axis_bools(scenario: &Scenario, name: &str) -> Vec<bool> {
    scenario
        .axis(name)
        .map(|a| {
            a.values
                .iter()
                .filter_map(|v| match v {
                    Json::Bool(b) => Some(*b),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

fn ref_axis(scenario: &Scenario) -> Vec<RefPolicy> {
    axis_strs(scenario, "ref")
        .iter()
        .filter_map(|s| s.parse().ok())
        .collect()
}

macro_rules! cell_as {
    ($report:expr, $key:expr, $variant:path) => {
        match $report.require($key)? {
            $variant(v) => Ok(v),
            other => Err(format!("cell {}: unexpected value variant {other:?}", $key)),
        }
    };
}

/// An `events` scenario's rows (Table 3.3's, by default), workload
/// outermost.
///
/// # Errors
///
/// Returns the first missing or failed cell's description.
pub fn event_rows(
    scenario: &Scenario,
    report: &RunReport<CellValue>,
) -> Result<Vec<EventRow>, String> {
    let prefix = scenario.key_prefix.as_deref().unwrap_or("table_3_3");
    let mut rows = Vec::new();
    for name in axis_strs(scenario, "workload") {
        for mb in axis_u64s(scenario, "mem_mb") {
            let key = events_key(prefix, &name, mb as u32);
            rows.push(cell_as!(report, &key, CellValue::Events)?.clone());
        }
    }
    Ok(rows)
}

/// A `pageout` scenario's Table 3.5 rows, in `host` axis order.
///
/// # Errors
///
/// Returns the first missing or failed cell's description.
pub fn pageout_rows(
    scenario: &Scenario,
    report: &RunReport<CellValue>,
) -> Result<Vec<PageoutRow>, String> {
    let hosts = DevHost::table_3_5();
    axis_u64s(scenario, "host")
        .into_iter()
        .map(|i| {
            let key = pageout_key(i as usize, hosts[i as usize].name);
            Ok(cell_as!(report, &key, CellValue::Pageout)?.clone())
        })
        .collect()
}

/// A `refbit` scenario's Table 4.1 rows: workload, then memory size,
/// then policy.
///
/// # Errors
///
/// Returns the first missing or failed cell's description.
pub fn refbit_rows(
    scenario: &Scenario,
    report: &RunReport<CellValue>,
) -> Result<Vec<RefbitRow>, String> {
    let mut rows = Vec::new();
    for name in axis_strs(scenario, "workload") {
        for mb in axis_u64s(scenario, "mem_mb") {
            for policy in ref_axis(scenario) {
                let key = refbit_key(&name, mb as u32, policy);
                rows.push(cell_as!(report, &key, CellValue::Refbit)?.clone());
            }
        }
    }
    Ok(rows)
}

/// An `mp` scenario's rows: sharing degree, then CPU count, then
/// policy.
///
/// # Errors
///
/// Returns the first missing or failed cell's description.
pub fn mp_rows(scenario: &Scenario, report: &RunReport<CellValue>) -> Result<Vec<MpRow>, String> {
    let mut rows = Vec::new();
    for shared_pages in axis_u64s(scenario, "shared_pages") {
        for cpus in axis_u64s(scenario, "cpus") {
            for policy in ref_axis(scenario) {
                let key = mp_key(cpus as usize, shared_pages, policy);
                rows.push(cell_as!(report, &key, CellValue::Mp)?.clone());
            }
        }
    }
    Ok(rows)
}

/// Renders the legacy post-run stdout (tables and closing prose) for a
/// completed scenario, byte-identical to the folded-in binary.
///
/// # Errors
///
/// Returns the first missing or failed cell's description — the same
/// message the legacy `assemble` surfaced before `exit(1)`.
pub fn render_legacy(scenario: &Scenario, report: &RunReport<CellValue>) -> Result<String, String> {
    let mut out = String::new();
    // Each legacy binary emitted its epilogue through `println!`; every
    // pushed block below ends with the newline that call appended.
    match scenario.kind {
        Kind::Flush => {
            let mut t = Table::new("Page flush: tag-checked vs SPUR's tag-blind operation");
            t.headers(&[
                "page occupancy",
                "checked flushed",
                "checked cycles",
                "blind flushed",
                "blind cycles",
                "collateral blocks",
            ]);
            for pct in axis_u64s(scenario, "occupancy_pct") {
                let frac = pct as f64 / 100.0;
                let cmp = cell_as!(report, &flush_key(pct), CellValue::Flush)?;
                t.row(vec![
                    format!("{:.0}%", frac * 100.0),
                    cmp.checked_flushed.to_string(),
                    cmp.checked_cycles.to_string(),
                    cmp.blind_flushed.to_string(),
                    cmp.blind_cycles.to_string(),
                    cmp.collateral.to_string(),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
            out.push_str(
                "Section 3.2 assumed ~10% occupancy: the checked flush lands near the\n\
                 paper's ~500 cycles while the blind flush is several times costlier and\n\
                 destroys aliasing blocks from unrelated pages.\n",
            );
        }
        Kind::Assoc => {
            let ways_axis: Vec<usize> = axis_u64s(scenario, "ways")
                .into_iter()
                .map(|w| w as usize)
                .collect();
            let mut t = Table::new("128 KB virtual cache, miss ratio by associativity");
            let headers: Vec<String> = std::iter::once("Workload".to_string())
                .chain(ways_axis.iter().map(|&w| {
                    if w == 1 {
                        "direct".to_string()
                    } else {
                        format!("{w}-way")
                    }
                }))
                .collect();
            t.headers(&headers.iter().map(String::as_str).collect::<Vec<_>>());
            for name in axis_strs(scenario, "workload") {
                let mut cells = vec![name.to_string()];
                for &ways in &ways_axis {
                    let ratio = cell_as!(report, &assoc_key(&name, ways), CellValue::MissRatio)?;
                    cells.push(format!("{:.2}%", 100.0 * ratio));
                }
                t.row(cells);
            }
            out.push_str(&t.render());
            out.push('\n');
            let (direct, assoc) = spur_cache::assoc::synonym_hazard_demo();
            out.push_str(&format!(
                "Synonym hazard demo (why Sun-3 cannot follow): one datum, two legal\n\
                 Sun-3 aliases -> {direct} copy in a direct map, {assoc} incoherent copies 2-way.\n\
                 SPUR's one-global-address rule is what makes associativity an option.\n"
            ));
        }
        Kind::CacheScaling => {
            let mut rows = Vec::new();
            for kb in axis_u64s(scenario, "cache_kb") {
                let row = cell_as!(
                    report,
                    &cache_scaling_key(kb as usize),
                    CellValue::CacheScaling
                )?;
                rows.push(row.clone());
            }
            out.push_str(&render_cache_scaling(&rows));
            out.push('\n');
            out.push_str(
                "Expected trend: the MISS/REF page-in ratio grows with cache size,\n\
                 and MISS's ref faults (its chances to re-set R) shrink.\n",
            );
        }
        Kind::Crossover => {
            let policies = ref_axis(scenario);
            if !policies.contains(&RefPolicy::Miss) {
                return Err(
                    "crossover rendering needs a MISS column (elapsed times are relative to it)"
                        .into(),
                );
            }
            let mut rows = Vec::new();
            for period in scenario
                .axis("period")
                .map(|a| a.values.clone())
                .unwrap_or_default()
            {
                let period = match period {
                    Json::Null => None,
                    Json::UInt(p) => Some(p),
                    _ => continue,
                };
                for &policy in &policies {
                    let row =
                        cell_as!(report, &crossover_key(period, policy), CellValue::Crossover)?;
                    rows.push(row.clone());
                }
            }
            out.push_str(&render_crossover(&rows));
            out.push('\n');
            out.push_str(
                "Paper, Section 4.2 (WORKLOAD1 @ 8 MB): NOREF ran 2% FASTER than MISS\n\
                 because maintaining bits nobody needs is pure overhead. The periodic\n\
                 hand reproduces that crossover; pressure-only daemons hide it.\n",
            );
        }
        Kind::Events => {
            let prefix = scenario.key_prefix.as_deref().unwrap_or("table_3_3");
            if prefix == "sensitivity" {
                // `ablation_sensitivity`: one cell, two derived tables
                // (the first cell when a config sweeps more).
                let name = axis_strs(scenario, "workload")
                    .into_iter()
                    .next()
                    .ok_or("matrix.workload: axis empty")?;
                let mb = axis_u64s(scenario, "mem_mb")
                    .into_iter()
                    .next()
                    .ok_or("matrix.mem_mb: axis empty")?;
                let key = events_key(prefix, &name, mb as u32);
                let row = cell_as!(report, &key, CellValue::Events)?;
                let mut t = Table::new("t_dc sensitivity: does WRITE ever stop losing?");
                t.headers(&[
                    "t_dc",
                    "O(WRITE) Mcycles",
                    "worst other Mcycles",
                    "WRITE still worst?",
                ]);
                for r in tdc_sensitivity(&row.events) {
                    t.row(vec![
                        r.t_dc.to_string(),
                        format!("{:.3}", r.write_overhead.millions()),
                        format!("{:.3}", r.best_other.millions()),
                        if r.write_still_loses { "yes" } else { "no" }.to_string(),
                    ]);
                }
                out.push_str(&t.render());
                out.push('\n');
                out.push_str(&render_handler_tuning(&handler_tuning(&row.events)));
                out.push('\n');
            } else {
                // `table_3_3`, `table_3_4` and `model_excess_faults`:
                // three bodies over the same cells, joined by a blank
                // line.
                let rows = event_rows(scenario, report)?;
                out.push_str(&render_table_3_3(&rows));
                out.push('\n');
                out.push_str(
                    "Derived ratios (paper: excess faults are 16-34% of necessary\n\
                     faults once zero-fills are excluded; ~one fifth of modified\n\
                     blocks are read before they are written):\n",
                );
                for r in &rows {
                    out.push_str(&format!(
                        "  {:<10} {}: N_ef/N_ds = {:>5.1}%  excl. zfod = {:>5.1}%  read-before-write = {:>5.1}%\n",
                        r.workload,
                        r.mem,
                        100.0 * r.events.excess_fraction(),
                        100.0 * r.events.excess_fraction_excluding_zfod(),
                        100.0 * r.events.read_before_write_fraction(),
                    ));
                }
                out.push('\n');
                out.push_str(&render_table_3_4(&table_3_4(&rows, &CostParams::paper())));
                out.push('\n');
                out.push_str(
                    "Paper shape check: MIN (1.00) < SPUR (~1.03) < FAULT < FLUSH (1.50) << WRITE.\n",
                );
                out.push('\n');
                out.push_str(&render_model(&model_vs_measured(&rows)));
                out.push('\n');
                out.push_str(
                    "The model assumes uniform miss interleaving and infinite pages, so\n\
                     it upper-bounds the measured ratio; both should sit near one fifth.\n",
                );
            }
        }
        Kind::SoftFaults => {
            let mut t = Table::new("Soft-fault window on/off");
            t.headers(&[
                "Policy",
                "Soft faults",
                "Page-Ins",
                "Soft-faults taken",
                "Elapsed(s)",
            ]);
            let windows = axis_bools(scenario, "soft_faults");
            for policy in ref_axis(scenario) {
                for &enabled in &windows {
                    let row =
                        cell_as!(report, &soft_faults_key(policy, enabled), CellValue::Paging)?;
                    t.row(vec![
                        policy.to_string(),
                        if enabled { "on" } else { "off" }.to_string(),
                        row.page_ins.to_string(),
                        row.soft_faults.to_string(),
                        format!("{:.1}", row.elapsed_secs),
                    ]);
                }
            }
            out.push_str(&t.render());
            out.push('\n');
            out.push_str(
                "Expected: MISS barely changes (its R bits already protect hot pages),\n\
                 but NOREF without the soft-fault window thrashes.\n",
            );
        }
        Kind::Watermarks => {
            let mut t = Table::new("High watermark (= soft-fault window) vs paging");
            t.headers(&[
                "high water",
                "policy",
                "page-ins",
                "soft faults",
                "elapsed(s)",
            ]);
            for high in axis_u64s(scenario, "high_water") {
                for policy in ref_axis(scenario) {
                    let row = cell_as!(
                        report,
                        &watermarks_key(high as u32, policy),
                        CellValue::Paging
                    )?;
                    t.row(vec![
                        high.to_string(),
                        policy.to_string(),
                        row.page_ins.to_string(),
                        row.soft_faults.to_string(),
                        format!("{:.1}", row.elapsed_secs),
                    ]);
                }
            }
            out.push_str(&t.render());
            out.push('\n');
            out.push_str(
                "The window trades resident capacity for forgiveness: tiny windows\n\
                 punish NOREF's mis-reclaims with page-ins; huge ones shrink usable\n\
                 memory and push page-ins up for everyone.\n",
            );
        }
        Kind::Sim => {
            out.push_str(&render_sim(scenario, report)?);
        }
        Kind::Refbit => {
            if !ref_axis(scenario).contains(&RefPolicy::Miss) {
                return Err(
                    "table 4.1 rendering needs a MISS row (page-ins are relative to it)".into(),
                );
            }
            out.push_str(&render_table_4_1(&refbit_rows(scenario, report)?));
            out.push('\n');
            out.push_str(
                "Paper shape check: REF never wins on elapsed time despite fewer\n\
                 page-ins at small memories; NOREF pages much more at 5-6 MB but\n\
                 is competitive at 8 MB; MISS has the best overall elapsed time.\n",
            );
        }
        Kind::Pageout => {
            out.push_str(&render_table_3_5(&pageout_rows(scenario, report)?));
            out.push('\n');
            out.push_str(
                "Paper shape check: at 8 MB >= ~80% of modifiable pages are modified;\n\
                 at 12+ MB >= ~90%; dropping dirty bits adds at most a few percent I/O.\n",
            );
        }
        Kind::Mp => {
            // `mp_refbit`: the measured table, then the analytic model
            // extrapolated from the measured 1-CPU rows.
            let rows = mp_rows(scenario, report)?;
            let cpu_counts: Vec<usize> = axis_u64s(scenario, "cpus")
                .into_iter()
                .map(|n| n as usize)
                .collect();
            let model = mp_model(&rows, &cpu_counts)?;
            out.push_str(&render_mp(&rows));
            out.push('\n');
            out.push_str(
                "REF's daemon destroys cached blocks in EVERY cache per R-bit clear,\n\
                 so its flush bill scales with the processor count while MISS's\n\
                 maintenance cost stays flat — the paper's multiprocessor argument,\n\
                 measured above on a real N-cache node with Berkeley ownership.\n",
            );
            out.push('\n');
            out.push_str(&render_mp_model(&model));
            out.push('\n');
            out.push_str("(cross-check: the pre-measurement analytic model, kept for contrast)\n");
        }
        Kind::Tlb => {
            let mut rows = Vec::new();
            for entries in axis_u64s(scenario, "entries") {
                for flush in axis_bools(scenario, "flush_on_switch") {
                    let key = tlb_key(entries as usize, flush);
                    rows.push(cell_as!(report, &key, CellValue::Tlb)?.clone());
                }
            }
            out.push_str(&render_tlb_sweep(&rows));
            out.push('\n');
            out.push_str(
                "SPUR's in-cache translation is, in effect, a 4096-entry TLB that\n\
                 costs zero dedicated hardware — the original motivation for the\n\
                 design (Wood et al., ISCA 1986).\n",
            );
        }
    }
    Ok(out)
}

/// The `sim` kind's table — no legacy counterpart, so this is the
/// scenario engine's own format: one row per cell, memory size
/// outermost, then dirty policy, reference policy and CPU count,
/// whatever order the config declares its axes in.
fn render_sim(scenario: &Scenario, report: &RunReport<CellValue>) -> Result<String, String> {
    let workload = scenario.workload.as_ref().expect("kind shape").workload();
    let name = workload.name().to_string();
    let mut t = Table::new(&format!("Scenario matrix: {name}"));
    t.headers(&[
        "mem",
        "dirty",
        "ref",
        "cpus",
        "dirty faults",
        "page-ins",
        "soft faults",
        "elapsed(s)",
    ]);
    let dirties: Vec<String> = {
        let v = axis_strs(scenario, "dirty");
        if v.is_empty() {
            vec!["SPUR".into()]
        } else {
            v
        }
    };
    let refs: Vec<String> = {
        let v = axis_strs(scenario, "ref");
        if v.is_empty() {
            vec!["MISS".into()]
        } else {
            v
        }
    };
    let cpus_axis: Vec<u64> = {
        let v = axis_u64s(scenario, "cpus");
        if v.is_empty() {
            vec![1]
        } else {
            v
        }
    };
    for mb in axis_u64s(scenario, "mem_mb") {
        for dirty in &dirties {
            for policy in &refs {
                for &cpus in &cpus_axis {
                    let key = sim_key(
                        &name,
                        mb as u32,
                        dirty.parse().expect("canonical policy"),
                        policy.parse().expect("canonical policy"),
                        cpus as usize,
                    );
                    let row = cell_as!(report, &key, CellValue::Sim)?;
                    t.row(vec![
                        format!("{mb}MB"),
                        dirty.clone(),
                        policy.clone(),
                        cpus.to_string(),
                        row.dirty_faults.to_string(),
                        row.page_ins.to_string(),
                        row.soft_faults.to_string(),
                        format!("{:.1}", row.elapsed_secs),
                    ]);
                }
            }
        }
    }
    Ok(t.render())
}
