//! `sweep-2w`: a fixed Table 4.1 sweep through the reproduce path.
//!
//! WORKLOAD1 and SLC × {5, 8} MB × {MISS, REF, NOREF}: twelve cells
//! built by `spur_core::jobs::refbit_job_obs` with observability on
//! (the CLI default), run on `spur_harness::run_jobs` with two workers,
//! each artifact encoded with `job_artifact_json(..).encode_pretty()`.
//! A cell is the "job" whose latency the benchmark reports.
//!
//! The traced sweep runs the same twelve cells on two threads of its
//! own, calling each layer in turn: set-up, the generator filling a
//! batch, `SpurSystem::run` on the batch, `finish_obs`, `attach_obs`,
//! and encoding. Its artifacts must be byte-equal to the pool's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use spur_core::dirty::DirtyPolicy;
use spur_core::experiments::refbit::RefbitRow;
use spur_core::experiments::Scale;
use spur_core::jobs::{attach_obs, refbit_job_obs, WorkloadCtor};
use spur_core::stats::Sample;
use spur_core::{ObsParams, SimConfig, SpurSystem};
use spur_harness::{job_artifact_json, run_jobs, CompletedJob, JobOutput, Json};
use spur_trace::workloads::{slc, workload1};
use spur_trace::TraceGenerator;
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

use crate::layers::{Layer, LayerClock};
use crate::probe::Probe;
use crate::report::{check_expected, reconciled, same, set_end_to_end, Measured, Outcome};
use crate::sim::{run_batched, Fingerprint, BATCH};
use crate::stats::{fnv1a, median};
use crate::{sample_setup, Args};

/// The workload name, also the key into `expected.json`.
pub const NAME: &str = "sweep-2w";

/// References per cell: enough for WORKLOAD1 to page hard at 5 MB.
pub const CELL_REFS: u64 = 600_000;

/// Pool workers (the host's two cores).
pub const WORKERS: usize = 2;

const WORKLOADS: [(&str, WorkloadCtor); 2] = [("SLC", slc), ("WORKLOAD1", workload1)];

/// One Table 4.1 cell: (workload, memory, policy).
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    workload: &'static str,
    make: WorkloadCtor,
    mem: MemSize,
    policy: RefPolicy,
}

impl Cell {
    pub fn new(
        workload: &'static str,
        make: WorkloadCtor,
        mem: MemSize,
        policy: RefPolicy,
    ) -> Self {
        Cell {
            workload,
            make,
            mem,
            policy,
        }
    }

    /// The reproduce path's key for this cell.
    pub fn key(&self) -> String {
        format!(
            "table_4_1/{}/{}MB/{}",
            self.workload,
            self.mem.megabytes(),
            self.policy
        )
    }
}

/// The twelve cells, in key order (the order `run_jobs` reports in).
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (workload, make) in WORKLOADS {
        for mem in [MemSize::MB5, MemSize::MB8] {
            for policy in RefPolicy::ALL {
                cells.push(Cell::new(workload, make, mem, policy));
            }
        }
    }
    cells.sort_by_key(Cell::key);
    cells
}

fn scale(seed: u64) -> Scale {
    Scale {
        refs: CELL_REFS,
        seed,
        reps: 1,
        ..Scale::quick()
    }
}

/// The machine `measure_refbit_obs_with` builds for a cell.
fn cell_system(cell: &Cell, obs: bool) -> Result<SpurSystem, String> {
    let mut sys = SpurSystem::new(SimConfig {
        mem: cell.mem,
        dirty: DirtyPolicy::Spur,
        ref_policy: cell.policy,
        ..SimConfig::default()
    })
    .map_err(|e| e.to_string())?;
    if obs {
        sys.enable_obs(ObsParams::default());
    }
    Ok(sys)
}

/// The set-up every cell pays before its first reference: building the
/// workload and the machine, and loading the workload.
fn setup_all(seed: u64) -> Result<Vec<(SpurSystem, TraceGenerator)>, String> {
    cells()
        .iter()
        .map(|cell| {
            let workload = (cell.make)();
            let mut sys = cell_system(cell, true)?;
            sys.load_workload(&workload).map_err(|e| e.to_string())?;
            Ok((sys, workload.generator(seed)))
        })
        .collect()
}

/// One pool sweep's results.
struct PoolSweep {
    wall: f64,
    /// `CompletedJob::wall` of each cell, seconds.
    cell_walls: Vec<f64>,
    /// Encoded artifact per cell, key order; `Err` for a failed cell.
    artifacts: Vec<Result<String, String>>,
}

fn pool_sweep(seed: u64) -> PoolSweep {
    let jobs = cells()
        .iter()
        .map(|c| {
            let obs = Some(ObsParams::default());
            refbit_job_obs(c.key(), c.make, c.mem, c.policy, scale(seed), obs)
        })
        .collect();
    let start = Instant::now();
    let report = run_jobs(jobs, WORKERS);
    let artifacts = report
        .jobs()
        .iter()
        .map(|j| match j.failure() {
            None => Ok(job_artifact_json(j).encode_pretty()),
            Some(f) => Err(format!("{}: {}", j.key, f.reason)),
        })
        .collect();
    let wall = start.elapsed().as_secs_f64();
    PoolSweep {
        wall,
        cell_walls: report.jobs().iter().map(|j| j.wall.as_secs_f64()).collect(),
        artifacts,
    }
}

/// The sweep's stored values: the digest and size of every artifact.
fn sweep_print(artifacts: &[String]) -> Vec<(&'static str, u64)> {
    let joined = artifacts.concat();
    vec![
        ("artifact_digest", fnv1a(joined.as_bytes())),
        ("artifact_bytes", joined.len() as u64),
    ]
}

/// What a traced cell produced.
pub struct TracedCell {
    /// The encoded artifact.
    pub artifact: String,
    /// The run's counters.
    pub print: Fingerprint,
    /// Obs events emitted.
    pub events: u64,
    /// The completed job. Callers drop it only after their wall time is
    /// taken, as the pool's report outlives its sweep.
    pub job: CompletedJob<RefbitRow>,
}

/// One cell of `refs` references run a layer at a time, exactly as
/// `measure_refbit_obs_with` runs a one-repetition cell.
pub fn traced_cell(
    cell: &Cell,
    refs: u64,
    seed: u64,
    obs: bool,
    clock: &mut LayerClock,
) -> Result<TracedCell, String> {
    let (mut sys, mut gen, name) = clock.time(Layer::Setup, || -> Result<_, String> {
        let workload = (cell.make)();
        let mut sys = cell_system(cell, obs)?;
        sys.load_workload(&workload).map_err(|e| e.to_string())?;
        Ok((sys, workload.generator(seed), workload.name().to_string()))
    })?;
    let mut batch = Vec::with_capacity(BATCH as usize);
    run_batched(&mut sys, &mut gen, Layer::Gen, refs, &mut batch, clock)?;
    let report = clock.time(Layer::ObsFinish, || sys.finish_obs());
    let events = report.as_ref().map_or(0, |r| r.recorder.emitted_total());
    let (row, doc) = clock.time(Layer::Encode, || {
        let ev = sys.events();
        let page_ins = Sample::from_values(&[ev.page_ins as f64]);
        let elapsed = Sample::from_values(&[ev.elapsed_seconds()]);
        let row = RefbitRow {
            workload: name,
            mem: cell.mem,
            policy: cell.policy,
            page_ins: page_ins.mean(),
            elapsed_secs: elapsed.mean(),
            ref_faults: ev.ref_faults as f64,
            page_ins_sample: page_ins,
            elapsed_sample: elapsed,
        };
        let doc = row.to_json();
        (row, doc)
    });
    let output = clock.time(Layer::ObsExport, || {
        attach_obs(JobOutput::new(row, doc), report)
    });
    let job = CompletedJob {
        key: cell.key(),
        index: 0,
        outcome: Ok(output),
        wall: Duration::ZERO,
    };
    let artifact = clock.time(Layer::Encode, || job_artifact_json(&job).encode_pretty());
    Ok(TracedCell {
        artifact,
        print: Fingerprint::of(&sys),
        events,
        job,
    })
}

/// A traced sweep's results.
struct TracedSweep {
    wall: f64,
    clock: LayerClock,
    artifacts: Vec<Result<String, String>>,
    print: Fingerprint,
    events: u64,
}

fn traced_sweep(seed: u64, obs: bool) -> TracedSweep {
    let cells = cells();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let threads: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut clock = LayerClock::default();
                    let begin = Instant::now();
                    let mut done = Vec::new();
                    while let Some(cell) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                        done.push((
                            cell.key(),
                            traced_cell(cell, CELL_REFS, seed, obs, &mut clock),
                        ));
                    }
                    clock.add_wall(begin.elapsed());
                    (clock, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced sweep thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut clock = LayerClock::default();
    let mut results = Vec::new();
    for (c, done) in threads {
        clock.merge(&c);
        results.extend(done);
    }
    results.sort_by(|a, b| a.0.cmp(&b.0));
    let mut print = Fingerprint::default();
    let mut events = 0;
    let artifacts = results
        .into_iter()
        .map(|(_, r)| {
            r.map(|cell| {
                print.add(&cell.print);
                events += cell.events;
                // The wall is taken; the job may go now.
                drop(cell.job);
                cell.artifact
            })
        })
        .collect();
    TracedSweep {
        wall,
        clock,
        artifacts,
        print,
        events,
    }
}

/// Checks each cell of a sweep against the reference artifacts.
fn check_cells(
    out: &mut Outcome,
    what: &str,
    got: &[Result<String, String>],
    reference: &[String],
) {
    for (cell, want) in got.iter().zip(reference) {
        out.checks.op(match cell {
            Ok(bytes) if bytes == want => Ok(()),
            Ok(_) => Err(format!("{what}: artifact bytes differ from the reference")),
            Err(e) => Err(format!("{what}: {e}")),
        });
    }
}

/// Prints the stored-value document for `expected.json`.
pub fn fingerprint(seed: u64) -> Result<Json, String> {
    let artifacts: Vec<String> = pool_sweep(seed)
        .artifacts
        .into_iter()
        .collect::<Result<_, _>>()?;
    let traced = traced_sweep(seed, true);
    let mut fields = sweep_print(&artifacts);
    fields.extend([
        ("cycles", traced.print.cycles),
        ("misses", traced.print.misses),
        ("page_faults", traced.print.page_faults),
    ]);
    Ok(Json::object(
        fields.into_iter().map(|(k, v)| (k, Json::from(v))),
    ))
}

/// Runs the workload for `args.seconds` and reports its metrics.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let build = || setup_all(args.seed);
    if let Err(e) = sample_setup(&mut setups, build, drop) {
        out.checks.op(Err(format!("{NAME}: setup: {e}")));
        return out;
    }

    // Untimed warm-up; its artifacts are the reference.
    let warm = pool_sweep(args.seed);
    let reference: Vec<String> = match warm.artifacts.into_iter().collect() {
        Ok(a) => a,
        Err(e) => {
            out.checks.op(Err(format!("{NAME}: warm-up: {e}")));
            return out;
        }
    };
    out.checks
        .op(check_expected(NAME, args.seed, &sweep_print(&reference)));
    out.detail.push(("cell_refs", Json::from(CELL_REFS)));

    let deadline = Instant::now() + args.seconds;
    if args.trace {
        run_traced(args, &reference, deadline, &mut out);
        return out;
    }
    let mut probe = Probe::new(WORKERS);
    let mut sweeps = Vec::new();
    probe.sample();
    while sweeps.is_empty() || Instant::now() < deadline {
        let sweep = pool_sweep(args.seed);
        probe.sample();
        check_cells(&mut out, "pool sweep", &sweep.artifacts, &reference);
        sweeps.push(sweep);
    }
    out.checks.op(sample_setup(&mut setups, build, drop));
    let cells = reference.len() as f64;
    let per_s = |count: f64| -> Vec<f64> { sweeps.iter().map(|w| count / w.wall).collect() };
    out.detail.push(("sweeps", Json::from(sweeps.len())));
    let measured = Measured {
        refs_per_s: median(&per_s(cells * CELL_REFS as f64)),
        jobs_per_s: median(&per_s(cells)),
        groups_ms: sweeps
            .iter()
            .map(|w| w.cell_walls.iter().map(|t| t * 1e3).collect())
            .collect(),
        setups_s: setups,
    };
    set_end_to_end(&mut out, &probe, measured);
    out
}

fn run_traced(args: &Args, reference: &[String], deadline: Instant, out: &mut Outcome) {
    let mut on = LayerClock::default();
    let mut off = LayerClock::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let (mut busy, mut pool_capacity) = (0.0, 0.0);
    let mut print = None;
    let mut events = Vec::new();
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        let pool = pool_sweep(args.seed);
        check_cells(out, "pool sweep", &pool.artifacts, reference);
        untraced_walls.push(pool.wall);
        busy += pool.cell_walls.iter().sum::<f64>();
        pool_capacity += WORKERS as f64 * pool.wall;

        let traced = traced_sweep(args.seed, true);
        check_cells(out, "traced sweep", &traced.artifacts, reference);
        if let Some(first) = print {
            out.checks.op(same("traced counters", traced.print, first));
        }
        print = Some(traced.print);
        events.push(traced.events as f64);
        traced_walls.push(traced.wall);
        on.merge(&traced.clock);

        // The same cells with obs off: the other side of the obs tax.
        let plain = traced_sweep(args.seed, false);
        for cell in &plain.artifacts {
            out.checks
                .op(cell.as_ref().map(|_| ()).map_err(Clone::clone));
        }
        off.merge(&plain.clock);
        round += 1;
    }
    let print = print.unwrap_or_default();
    out.checks.op(check_expected(
        NAME,
        args.seed,
        &[
            ("cycles", print.cycles),
            ("misses", print.misses),
            ("page_faults", print.page_faults),
        ],
    ));
    let refs_on = on.calls(Layer::Setup).max(1) as f64 * CELL_REFS as f64;
    let refs_off = off.calls(Layer::Setup).max(1) as f64 * CELL_REFS as f64;
    let sim_on = on.secs(Layer::Sim) * 1e9 / refs_on;
    let sim_off = off.secs(Layer::Sim) * 1e9 / refs_off;
    let m = &mut out.metrics;
    m.set("trace.gen_ns_per_ref", on.secs(Layer::Gen) * 1e9 / refs_on);
    m.set("core.sim_ns_per_ref", sim_on);
    m.set("core.setup_ms", on.mean_secs(Layer::Setup) * 1e3);
    print.set_layer_metrics(m, 1.0);
    m.set("obs.tax_ns_per_ref", sim_on - sim_off);
    m.set("obs.finish_ms", on.mean_secs(Layer::ObsFinish) * 1e3);
    m.set("obs.export_ms", on.mean_secs(Layer::ObsExport) * 1e3);
    m.set("obs.events_emitted", median(&events));
    let cells = on.calls(Layer::Setup).max(1) as f64;
    m.set("harness.encode_ms", on.secs(Layer::Encode) * 1e3 / cells);
    let bytes: usize = reference.iter().map(String::len).sum();
    m.set("harness.artifact_bytes", bytes as f64);
    m.set("harness.pool_busy_frac", busy / pool_capacity);
    m.set(
        "trace_overhead_frac",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
    );
    let mut all = on.clone();
    all.merge(&off);
    let gap = all.reconcile_gap();
    m.set("reconcile_gap_frac", gap);
    out.checks.op(reconciled(gap));
    out.detail
        .push(("traced_sweeps", Json::from(traced_walls.len())));
}
