//! Regenerates every table and figure in one go, in paper order.
//!
//! The cells are the committed scenario configs'
//! (`scenarios/table_3_3.json`, `table_3_5.json`, `table_4_1.json`),
//! expanded into one harness pool, so the whole regeneration
//! parallelizes across `--jobs N` workers (default: `SPUR_JOBS`, or
//! available parallelism) while the assembled tables stay
//! byte-identical to a serial run. Machine-readable artifacts land in
//! `results/json/reproduce_all-<scale>/`.
//!
//! ```text
//! cargo run --release -p spur-bench --bin reproduce_all -- --scale quick --jobs 8
//! ```

use spur_bench::parse_args;
use spur_core::experiments::events::render_table_3_3;
use spur_core::experiments::overhead;
use spur_core::experiments::pageout::render_table_3_5;
use spur_core::experiments::refbit::render_table_4_1;
use spur_core::experiments::Scale;
use spur_harness::run_jobs_with_progress;
use spur_scenario::render::{banner, event_rows, pageout_rows, refbit_rows};
use spur_scenario::run::effective_obs;
use spur_scenario::{persist_run, Scenario};
use spur_types::{CostParams, SystemConfig};

/// Tables 3.3 and 3.4 and the footnote-3 model, Table 3.5, Table 4.1:
/// the cells in this order are the run's job order.
const CONFIGS: [&str; 3] = [
    include_str!("../../../../scenarios/table_3_3.json"),
    include_str!("../../../../scenarios/table_3_5.json"),
    include_str!("../../../../scenarios/table_4_1.json"),
];

fn main() {
    let (opts, _) = parse_args(&[]);
    let scale = opts.scale.unwrap_or_else(Scale::default_scale);
    let [events, pageouts, refbits] =
        CONFIGS.map(|c| Scenario::parse_str(c).expect("committed scenario config is valid"));
    print!("{}", banner("all artifacts", &scale));

    println!("Table 2.1: SPUR System Configuration");
    println!("====================================");
    println!("{}\n", SystemConfig::prototype());

    println!("Table 3.2: Time Parameters (cycle counts)");
    println!("=========================================");
    println!("{}\n", CostParams::paper());

    let mut jobs = Vec::new();
    for scenario in [&events, &pageouts, &refbits] {
        let cells = scenario
            .cells(scale, effective_obs(scenario, &opts))
            .expect("committed scenario keys are distinct");
        jobs.extend(cells.iter().map(|cell| cell.job()));
    }
    let report = run_jobs_with_progress(jobs, opts.workers, opts.progress);
    let persisted = persist_run("reproduce_all", &scale, &report, opts.trace_out.as_deref());

    let rows = match event_rows(&events, &report) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("event measurement failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", render_table_3_3(&rows));

    let oh = overhead::table_3_4(&rows, &CostParams::paper());
    println!("{}", overhead::render_table_3_4(&oh));

    println!(
        "{}",
        overhead::render_model(&overhead::model_vs_measured(&rows))
    );

    match pageout_rows(&pageouts, &report) {
        Ok(rows) => println!("{}", render_table_3_5(&rows)),
        Err(e) => eprintln!("table 3.5 failed: {e}"),
    }

    match refbit_rows(&refbits, &report) {
        Ok(rows) => println!("{}", render_table_4_1(&rows)),
        Err(e) => eprintln!("table 4.1 failed: {e}"),
    }

    println!("done; see EXPERIMENTS.md for paper-vs-measured commentary.");
    if !persisted {
        std::process::exit(1);
    }
}
