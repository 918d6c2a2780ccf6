//! Stdout parity between the committed `scenarios/table_*.json`
//! configs run with `--legacy-stdout` and the single-table binaries
//! they replaced (`table_3_3`, `table_3_4`, `model_excess_faults`,
//! `table_3_5`, `table_4_1`).
//!
//! Each test rebuilds the deleted binaries' output inline, from their
//! serial loops and their exact `println!` calls, and compares it with
//! the banner plus `render_legacy` over a scenario run. Observability
//! is off on the scenario side, as it was in the binaries.

use spur_core::experiments::events::{measure_events, render_table_3_3};
use spur_core::experiments::overhead::{
    model_vs_measured, render_model, render_table_3_4, table_3_4,
};
use spur_core::experiments::pageout::{measure_host, render_table_3_5};
use spur_core::experiments::refbit::{measure_refbit, render_table_4_1};
use spur_core::experiments::Scale;
use spur_harness::run_jobs;
use spur_scenario::cells::expand;
use spur_scenario::render::{legacy_banner, render_legacy};
use spur_scenario::Scenario;
use spur_trace::workloads::{slc, workload1, DevHost};
use spur_types::{CostParams, MemSize};
use spur_vm::policy::RefPolicy;

fn tiny() -> Scale {
    Scale {
        refs: 20_000,
        seed: 1989,
        reps: 2,
        dev_refs_per_hour: 1_000,
    }
}

/// What `print_header` in the deleted binaries wrote.
fn print_header(what: &str, scale: &Scale) -> String {
    format!(
        "SPUR reference/dirty-bit reproduction — {what}\nscale: {} references/run, {} rep(s), seed {}\n\n",
        scale.refs, scale.reps, scale.seed
    )
}

/// A `--legacy-stdout` run of a committed config: banner, then the
/// rendered tables.
fn scenario_stdout(config: &str, scale: Scale) -> String {
    let scenario = Scenario::parse_str(config).expect("committed config parses");
    let jobs = expand(&scenario, scale, None)
        .expect("expansion succeeds")
        .into_iter()
        .map(|(_, job)| job)
        .collect();
    let report = run_jobs(jobs, 2);
    let banner = legacy_banner(&scenario, &scale).expect("table configs declare a banner");
    banner + &render_legacy(&scenario, &report).expect("every cell ran")
}

#[test]
fn table_3_3_config_prints_tables_3_3_and_3_4_and_the_footnote_3_model() {
    let scale = tiny();
    // The serial `events::table_3_3` the three binaries shared.
    let mut rows = Vec::new();
    for workload in [slc(), workload1()] {
        for mem in MemSize::STUDY_SIZES {
            rows.push(measure_events(&workload, mem, &scale).unwrap());
        }
    }

    // `table_3_3`, after its banner.
    let mut table_3_3 = format!("{}\n", render_table_3_3(&rows));
    table_3_3.push_str("Derived ratios (paper: excess faults are 16-34% of necessary\n");
    table_3_3.push_str("faults once zero-fills are excluded; ~one fifth of modified\n");
    table_3_3.push_str("blocks are read before they are written):\n");
    for r in &rows {
        table_3_3.push_str(&format!(
            "  {:<10} {}: N_ef/N_ds = {:>5.1}%  excl. zfod = {:>5.1}%  read-before-write = {:>5.1}%\n",
            r.workload,
            r.mem,
            100.0 * r.events.excess_fraction(),
            100.0 * r.events.excess_fraction_excluding_zfod(),
            100.0 * r.events.read_before_write_fraction(),
        ));
    }
    // `table_3_4`, after its banner.
    let table_3_4 = format!(
        "{}\nPaper shape check: MIN (1.00) < SPUR (~1.03) < FAULT < FLUSH (1.50) << WRITE.\n",
        render_table_3_4(&table_3_4(&rows, &CostParams::paper()))
    );
    // `model_excess_faults`, after its banner.
    let model = format!(
        "{}\nThe model assumes uniform miss interleaving and infinite pages, so\n\
         it upper-bounds the measured ratio; both should sit near one fifth.\n",
        render_model(&model_vs_measured(&rows))
    );
    let expected = format!(
        "{}{table_3_3}\n{table_3_4}\n{model}",
        print_header("Table 3.3 (event frequencies)", &scale)
    );

    let ours = scenario_stdout(include_str!("../../../scenarios/table_3_3.json"), scale);
    assert_eq!(ours, expected);
}

#[test]
fn table_3_5_config_prints_what_table_3_5_printed() {
    let scale = tiny();
    let rows: Vec<_> = DevHost::table_3_5()
        .iter()
        .map(|h| measure_host(h, &scale).unwrap())
        .collect();
    let expected = format!(
        "{}{}\nPaper shape check: at 8 MB >= ~80% of modifiable pages are modified;\n\
         at 12+ MB >= ~90%; dropping dirty bits adds at most a few percent I/O.\n",
        print_header("Table 3.5 (dev-machine page-out study)", &scale),
        render_table_3_5(&rows)
    );

    let ours = scenario_stdout(include_str!("../../../scenarios/table_3_5.json"), scale);
    assert_eq!(ours, expected);
}

#[test]
fn table_4_1_config_prints_what_table_4_1_printed() {
    let scale = tiny();
    let mut rows = Vec::new();
    for workload in [slc(), workload1()] {
        for mem in MemSize::STUDY_SIZES {
            for policy in RefPolicy::ALL {
                rows.push(measure_refbit(&workload, mem, policy, &scale).unwrap());
            }
        }
    }
    let expected = format!(
        "{}{}\nPaper shape check: REF never wins on elapsed time despite fewer\n\
         page-ins at small memories; NOREF pages much more at 5-6 MB but\n\
         is competitive at 8 MB; MISS has the best overall elapsed time.\n",
        print_header("Table 4.1 (reference-bit policies)", &scale),
        render_table_4_1(&rows)
    );

    let ours = scenario_stdout(include_str!("../../../scenarios/table_4_1.json"), scale);
    assert_eq!(ours, expected);
}

#[test]
fn table_4_1_rendering_without_a_miss_row_is_an_error() {
    let scenario = Scenario::parse_str(
        r#"{"schema_version": 1, "name": "t", "experiment": "refbit",
            "matrix": {"workload": ["SLC"], "mem_mb": [5], "ref": ["NOREF"]}}"#,
    )
    .unwrap();
    let jobs = expand(&scenario, tiny(), None)
        .unwrap()
        .into_iter()
        .map(|(_, job)| job)
        .collect();
    let err = render_legacy(&scenario, &run_jobs(jobs, 1)).unwrap_err();
    assert!(err.contains("MISS"), "{err}");
}
