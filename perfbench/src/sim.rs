//! `uni-stream` and `mp8-stream`: one long simulator run per unit.
//!
//! A unit builds a fresh machine (caches and memory start empty) and
//! runs a fixed number of references through it in slices of [`SLICE`]
//! references. The slice is the "job" whose latency the benchmark
//! reports; running a stream slice by slice is the same run as one
//! call, because `SpurSystem::run` pulls exactly `limit` references.
//!
//! Untraced units drive the machine the way the product does
//! (`SpurSystem::run` straight off the generator, `MpSystem::run`). A
//! traced unit calls the layers one at a time instead: the generator
//! or scheduler fills a reusable batch of [`BATCH`] references, then
//! `SpurSystem::run` simulates the batch.

use std::time::Instant;

use spur_cache::CounterEvent as CE;
use spur_core::{SimConfig, SpurSystem};
use spur_harness::Json;
use spur_mp::{MpParams, MpScheduler, MpSystem};
use spur_trace::workloads::{mp_workers, workload1, Workload};
use spur_trace::{TraceGenerator, TraceRef};
use spur_types::MemSize;

use crate::layers::{Layer, LayerClock};
use crate::probe::Probe;
use crate::report::{check_expected, reconciled, same, set_end_to_end, Measured, Outcome};
use crate::stats::{fnv1a, median};
use crate::{sample_setup, Args};

/// References per slice, the reported job: about 10 ms. With 32,768
/// (2 ms), a millisecond's stall added half a job, and the p99 spread
/// past the benchmark's bound.
pub const SLICE: u64 = 131_072;

/// References per batch in a traced run.
pub const BATCH: u64 = 32_768;

/// Which stream workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// WORKLOAD1 at 5 MB on `SpurSystem`, default policies, obs off.
    Uni,
    /// MP-WORKERS(8, 256) at 8 MB on an 8-CPU `MpSystem`, obs off.
    Mp8,
}

impl Stream {
    /// The workload name, also the key into `expected.json`.
    pub fn name(self) -> &'static str {
        match self {
            Stream::Uni => "uni-stream",
            Stream::Mp8 => "mp8-stream",
        }
    }

    /// References per unit.
    pub fn refs(self) -> u64 {
        match self {
            Stream::Uni => 4_000_000,
            Stream::Mp8 => 3_000_000,
        }
    }

    fn config(self) -> SimConfig {
        match self {
            Stream::Uni => SimConfig {
                mem: MemSize::MB5,
                ..SimConfig::default()
            },
            Stream::Mp8 => SimConfig {
                mem: MemSize::MB8,
                cpus: 8,
                ..SimConfig::default()
            },
        }
    }

    fn workload(self) -> Workload {
        match self {
            Stream::Uni => workload1(),
            Stream::Mp8 => mp_workers(8, 256),
        }
    }
}

/// The deterministic outputs of one run: the quantities the traced and
/// untraced paths must agree on, and the default seed must reproduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub refs: u64,
    pub cycles: u64,
    pub misses: u64,
    pub page_faults: u64,
    pub daemon_scans: u64,
    pub dirty_faults: u64,
    pub fills: u64,
    pub invalidations: u64,
    pub owner_supplies: u64,
    pub snoop_filter_entries: u64,
}

impl Fingerprint {
    /// Reads the counters of a finished run.
    pub fn of(sys: &SpurSystem) -> Self {
        let c = sys.counters();
        Fingerprint {
            refs: sys.refs(),
            cycles: sys.cycles().raw(),
            misses: sys.misses(),
            page_faults: sys.vm().stats().page_faults,
            daemon_scans: c.total(CE::DaemonScan),
            dirty_faults: c.total(CE::DirtyFault),
            fills: c.total(CE::Fill),
            invalidations: c.total(CE::Invalidation),
            owner_supplies: c.total(CE::OwnerSupply),
            snoop_filter_entries: sys.snoop_filter_entries() as u64,
        }
    }

    /// Adds another run's counts (the sweep sums its cells).
    pub fn add(&mut self, o: &Fingerprint) {
        self.refs += o.refs;
        self.cycles += o.cycles;
        self.misses += o.misses;
        self.page_faults += o.page_faults;
        self.daemon_scans += o.daemon_scans;
        self.dirty_faults += o.dirty_faults;
        self.fills += o.fills;
        self.invalidations += o.invalidations;
        self.owner_supplies += o.owner_supplies;
        self.snoop_filter_entries += o.snoop_filter_entries;
    }

    fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("refs", self.refs),
            ("cycles", self.cycles),
            ("misses", self.misses),
            ("page_faults", self.page_faults),
            ("daemon_scans", self.daemon_scans),
            ("dirty_faults", self.dirty_faults),
            ("fills", self.fills),
            ("invalidations", self.invalidations),
            ("owner_supplies", self.owner_supplies),
            ("snoop_filter_entries", self.snoop_filter_entries),
        ]
    }

    /// Digest of the encoded counter document.
    pub fn digest(&self) -> u64 {
        let doc = Json::object(self.fields().map(|(k, v)| (k, Json::from(v))));
        fnv1a(doc.encode_pretty().as_bytes())
    }

    /// The quantities stored in `expected.json`: cycles and refs (so
    /// cycles/ref), misses, page faults, snoop-filter entries, and the
    /// digest of the whole counter document.
    pub fn expected_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("refs", self.refs),
            ("cycles", self.cycles),
            ("misses", self.misses),
            ("page_faults", self.page_faults),
            ("snoop_filter_entries", self.snoop_filter_entries),
            ("digest", self.digest()),
        ]
    }

    /// Sets the deterministic per-layer counts, per unit of work.
    pub fn set_layer_metrics(&self, m: &mut crate::report::Metrics, units: f64) {
        let refs = self.refs.max(1) as f64;
        m.set("core.cycles_per_ref", self.cycles as f64 / refs);
        m.set("core.miss_ratio", self.misses as f64 / refs);
        m.set("cache.fills", self.fills as f64 / units);
        m.set("cache.invalidations", self.invalidations as f64 / units);
        m.set("cache.owner_supplies", self.owner_supplies as f64 / units);
        m.set(
            "cache.snoop_filter_entries",
            self.snoop_filter_entries as f64 / units,
        );
        m.set("vm.page_faults", self.page_faults as f64 / units);
        m.set("vm.daemon_scans", self.daemon_scans as f64 / units);
        m.set("vm.dirty_faults", self.dirty_faults as f64 / units);
    }
}

/// A machine on the product's own driving path.
enum Machine {
    Uni(Box<SpurSystem>, TraceGenerator),
    Mp(Box<MpSystem>),
}

impl Machine {
    fn build(stream: Stream, seed: u64) -> Result<Machine, String> {
        let workload = stream.workload();
        match stream {
            Stream::Uni => {
                let mut sys = SpurSystem::new(stream.config()).map_err(|e| e.to_string())?;
                sys.load_workload(&workload).map_err(|e| e.to_string())?;
                Ok(Machine::Uni(Box::new(sys), workload.generator(seed)))
            }
            Stream::Mp8 => Ok(Machine::Mp(Box::new(MpSystem::new(
                stream.config(),
                &workload,
                seed,
                MpParams::default(),
            )?))),
        }
    }

    fn step(&mut self, refs: u64) -> Result<(), String> {
        match self {
            Machine::Uni(sys, gen) => sys.run(gen, refs).map_err(|e| e.to_string()),
            Machine::Mp(node) => node.run(refs),
        }
    }

    fn system(&self) -> &SpurSystem {
        match self {
            Machine::Uni(sys, _) => sys,
            Machine::Mp(node) => node.system(),
        }
    }
}

/// One untraced unit.
struct Unit {
    /// Seconds to build the machine.
    setup: f64,
    /// Seconds per slice, in order.
    slices: Vec<f64>,
    print: Fingerprint,
}

impl Unit {
    fn run_secs(&self) -> f64 {
        self.slices.iter().sum()
    }
}

fn untraced_unit(stream: Stream, seed: u64) -> Result<Unit, String> {
    let start = Instant::now();
    let mut machine = Machine::build(stream, seed)?;
    let setup = start.elapsed().as_secs_f64();
    let mut slices = Vec::with_capacity((stream.refs() / SLICE + 1) as usize);
    let mut left = stream.refs();
    while left > 0 {
        let n = left.min(SLICE);
        let t = Instant::now();
        machine.step(n)?;
        slices.push(t.elapsed().as_secs_f64());
        left -= n;
    }
    Ok(Unit {
        setup,
        slices,
        print: Fingerprint::of(machine.system()),
    })
}

/// Feeds `refs` references from `source` to `sys` batch by batch,
/// timing the batch fill as `fill` and the simulation as `Layer::Sim`.
pub fn run_batched<I: Iterator<Item = TraceRef>>(
    sys: &mut SpurSystem,
    source: &mut I,
    fill: Layer,
    refs: u64,
    batch: &mut Vec<TraceRef>,
    clock: &mut LayerClock,
) -> Result<(), String> {
    let mut left = refs;
    while left > 0 {
        let n = left.min(BATCH);
        clock.time(fill, || {
            batch.clear();
            batch.extend(source.by_ref().take(n as usize));
        });
        clock
            .time(Layer::Sim, || sys.run(&mut batch.iter().copied(), n))
            .map_err(|e| e.to_string())?;
        left -= n;
    }
    Ok(())
}

/// One traced unit: the same run, a layer at a time.
fn traced_unit(stream: Stream, seed: u64, clock: &mut LayerClock) -> Result<Fingerprint, String> {
    let start = Instant::now();
    let loaded = |workload: &Workload| -> Result<SpurSystem, String> {
        let mut sys = SpurSystem::new(stream.config()).map_err(|e| e.to_string())?;
        sys.load_workload(workload).map_err(|e| e.to_string())?;
        Ok(sys)
    };
    let print = match stream {
        Stream::Uni => {
            let (sys, gen) = clock.time(Layer::Setup, || -> Result<_, String> {
                let workload = stream.workload();
                Ok((loaded(&workload)?, workload.generator(seed)))
            })?;
            traced_stream(stream, sys, gen, Layer::Gen, clock)?
        }
        Stream::Mp8 => {
            let (sys, sched) = clock.time(Layer::Setup, || -> Result<_, String> {
                let workload = stream.workload();
                let p = MpParams::default();
                let cpus = stream.config().cpus;
                let sched = MpScheduler::with_params(&workload, cpus, seed, p.epoch, p.workers)?;
                Ok((loaded(&workload)?, sched))
            })?;
            traced_stream(stream, sys, sched, Layer::Sched, clock)?
        }
    };
    clock.add_wall(start.elapsed());
    Ok(print)
}

fn traced_stream<I: Iterator<Item = TraceRef>>(
    stream: Stream,
    mut sys: SpurSystem,
    mut source: I,
    fill: Layer,
    clock: &mut LayerClock,
) -> Result<Fingerprint, String> {
    let mut batch = Vec::with_capacity(BATCH as usize);
    run_batched(
        &mut sys,
        &mut source,
        fill,
        stream.refs(),
        &mut batch,
        clock,
    )?;
    Ok(Fingerprint::of(&sys))
}

/// Prints the stored-value document for `expected.json`.
pub fn fingerprint(stream: Stream, seed: u64) -> Result<Json, String> {
    let unit = untraced_unit(stream, seed)?;
    Ok(Json::object(
        unit.print
            .expected_fields()
            .into_iter()
            .map(|(k, v)| (k, Json::from(v))),
    ))
}

/// Runs the workload for `args.seconds` and reports its metrics.
pub fn run(stream: Stream, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups: Vec<f64> = Vec::new();
    let build = || Machine::build(stream, args.seed);
    if let Err(e) = sample_setup(&mut setups, build, drop) {
        out.checks.op(Err(format!("{}: setup: {e}", stream.name())));
        return out;
    }

    // Untimed warm-up; its counters are the reference every later unit
    // must reproduce.
    let reference = match untraced_unit(stream, args.seed) {
        Ok(unit) => unit.print,
        Err(e) => {
            out.checks
                .op(Err(format!("{}: warm-up: {e}", stream.name())));
            return out;
        }
    };
    out.checks.op(check_expected(
        stream.name(),
        args.seed,
        &reference.expected_fields(),
    ));
    out.detail
        .push(("refs_per_unit", Json::from(stream.refs())));
    out.detail.push(("slice_refs", Json::from(SLICE)));

    let deadline = Instant::now() + args.seconds;
    if args.trace {
        run_traced(stream, args, reference, deadline, &mut out);
        return out;
    }
    let mut probe = Probe::new(1);
    let mut units = Vec::new();
    let mut tried = 0;
    probe.sample();
    while tried == 0 || Instant::now() < deadline {
        tried += 1;
        let unit = untraced_unit(stream, args.seed);
        probe.sample();
        match unit {
            Ok(unit) => {
                out.checks.op(same("counters", unit.print, reference));
                setups.push(unit.setup);
                units.push(unit);
            }
            Err(e) => out.checks.op(Err(e)),
        }
    }
    out.checks.op(sample_setup(&mut setups, build, drop));
    let refs = stream.refs() as f64;
    let slices = stream.refs().div_ceil(SLICE) as f64;
    let per_s = |count: f64| -> Vec<f64> { units.iter().map(|u| count / u.run_secs()).collect() };
    out.detail.push(("units", Json::from(units.len())));
    let measured = Measured {
        refs_per_s: median(&per_s(refs)),
        jobs_per_s: median(&per_s(slices)),
        groups_ms: units
            .iter()
            .map(|u| u.slices.iter().map(|t| t * 1e3).collect())
            .collect(),
        setups_s: setups,
    };
    set_end_to_end(&mut out, &probe, measured);
    out
}

fn run_traced(
    stream: Stream,
    args: &Args,
    reference: Fingerprint,
    deadline: Instant,
    out: &mut Outcome,
) {
    let mut clock = LayerClock::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    // Pairs alternate which side runs first, so drift hits both.
    let mut pair = 0;
    while pair == 0 || Instant::now() < deadline {
        for traced in [pair % 2 == 0, pair % 2 == 1] {
            if traced {
                let mut unit_clock = LayerClock::default();
                let result = traced_unit(stream, args.seed, &mut unit_clock);
                out.checks
                    .op(result.and_then(|p| same("traced counters", p, reference)));
                traced_walls.push(unit_clock.wall_secs());
                clock.merge(&unit_clock);
            } else {
                let start = Instant::now();
                let result = untraced_unit(stream, args.seed);
                untraced_walls.push(start.elapsed().as_secs_f64());
                out.checks
                    .op(result.and_then(|u| same("counters", u.print, reference)));
            }
        }
        pair += 1;
    }
    let refs = clock.calls(Layer::Setup).max(1) as f64 * stream.refs() as f64;
    let m = &mut out.metrics;
    m.set("trace.gen_ns_per_ref", clock.secs(Layer::Gen) * 1e9 / refs);
    m.set("mp.sched_ns_per_ref", clock.secs(Layer::Sched) * 1e9 / refs);
    m.set("core.sim_ns_per_ref", clock.secs(Layer::Sim) * 1e9 / refs);
    m.set("core.setup_ms", clock.mean_secs(Layer::Setup) * 1e3);
    reference.set_layer_metrics(m, 1.0);
    m.set(
        "trace_overhead_frac",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
    );
    let gap = clock.reconcile_gap();
    m.set("reconcile_gap_frac", gap);
    out.checks.op(reconciled(gap));
    out.detail
        .push(("traced_units", Json::from(traced_walls.len())));
}
