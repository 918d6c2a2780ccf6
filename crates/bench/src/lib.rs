//! Shared helpers for the table/figure regenerator binaries and the
//! bench targets.
//!
//! Every regenerator accepts an optional scale argument and a worker
//! count for the experiment harness:
//!
//! ```text
//! cargo run --release -p spur-bench --bin table_3_3 -- --scale quick
//! cargo run --release -p spur-bench --bin reproduce_all -- --scale quick --jobs 8
//! ```

use spur_core::experiments::Scale;
use spur_core::obs::ObsParams;

/// Observability options shared by the harness binaries.
///
/// Recording defaults to on: artifacts gain per-job `metrics` (and
/// `series` when `--epoch` is set) without changing any existing key.
/// `--no-obs` turns the whole subsystem off, restoring artifacts that
/// are byte-identical to an uninstrumented build; stdout is identical
/// either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsOptions {
    /// Recording on (`--no-obs` clears this).
    pub enabled: bool,
    /// Epoch length in references for the counter time series
    /// (`--epoch N`); `None` records no series.
    pub epoch: Option<u64>,
    /// Directory for Chrome-trace exports (`--trace-out DIR`); one
    /// `<run>/<key>.trace.json` per successful job.
    pub trace_out: Option<std::path::PathBuf>,
    /// Stderr heartbeat while the job pool runs (`--progress` or a
    /// truthy `SPUR_PROGRESS`).
    pub progress: bool,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            enabled: true,
            epoch: None,
            trace_out: None,
            progress: false,
        }
    }
}

impl ObsOptions {
    /// The per-simulation parameters, or `None` when disabled.
    pub fn params(&self) -> Option<ObsParams> {
        self.enabled.then(|| ObsParams {
            epoch: self.epoch,
            ..ObsParams::default()
        })
    }
}

/// Parses observability flags from process args and `SPUR_PROGRESS`.
pub fn obs_from_args() -> ObsOptions {
    parse_obs(
        std::env::args().skip(1),
        std::env::var("SPUR_PROGRESS").ok().as_deref(),
    )
}

/// The testable core of [`obs_from_args`]. `progress_env` is the
/// `SPUR_PROGRESS` value; anything but empty or `"0"` enables the
/// heartbeat (the `--progress` flag also does).
pub fn parse_obs<I: IntoIterator<Item = String>>(
    args: I,
    progress_env: Option<&str>,
) -> ObsOptions {
    let mut opts = ObsOptions::default();
    if let Some(v) = progress_env {
        if !v.is_empty() && v != "0" {
            opts.progress = true;
        }
    }
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-obs" => opts.enabled = false,
            "--progress" => opts.progress = true,
            "--epoch" => match args.peek().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => {
                    opts.epoch = Some(n);
                    args.next();
                }
                _ => eprintln!("--epoch needs a positive integer; ignoring"),
            },
            "--trace-out" => match args.peek() {
                Some(v) if !v.starts_with("--") => {
                    opts.trace_out = Some(std::path::PathBuf::from(v));
                    args.next();
                }
                _ => eprintln!("--trace-out needs a directory; ignoring"),
            },
            _ => {}
        }
    }
    opts
}

/// Parses `--scale {quick|default|full}` from process args; defaults to
/// `default`.
///
/// Unknown arguments are reported on stderr and ignored.
pub fn scale_from_args() -> Scale {
    parse_scale(std::env::args().skip(1))
}

/// The testable core of [`scale_from_args`].
///
/// `--scale` only consumes the next argument when it is a scale value:
/// `--scale --csv` leaves `--csv` for the binary's own flag handling
/// instead of swallowing it as a malformed scale.
pub fn parse_scale<I: IntoIterator<Item = String>>(args: I) -> Scale {
    let mut args = args.into_iter().peekable();
    let mut scale = Scale::default_scale();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.peek().map(String::as_str) {
                Some("quick") => {
                    scale = Scale::quick();
                    args.next();
                }
                Some("default") => {
                    scale = Scale::default_scale();
                    args.next();
                }
                Some("full") => {
                    scale = Scale::full();
                    args.next();
                }
                Some(next) if next.starts_with("--") => {
                    // The next token is another flag, not a scale value:
                    // leave it alone so it keeps its own meaning.
                    eprintln!("--scale is missing a value; using default");
                }
                Some(other) => {
                    eprintln!("unknown scale {other:?}; using default");
                    args.next();
                }
                None => eprintln!("--scale is missing a value; using default"),
            },
            "--jobs" | "--epoch" | "--trace-out" => {
                // These values belong to parse_jobs / parse_obs; skip
                // them so they aren't reported as unknown arguments.
                if args.peek().is_some_and(|v| !v.starts_with("--")) {
                    args.next();
                }
            }
            other if other.starts_with("--") => {} // bare flags belong to the binary
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    scale
}

/// Parses the harness worker count: `--jobs N` from process args, then
/// the `SPUR_JOBS` environment variable, then available parallelism.
pub fn jobs_from_args() -> usize {
    parse_jobs(
        std::env::args().skip(1),
        std::env::var("SPUR_JOBS").ok().as_deref(),
    )
}

/// The testable core of [`jobs_from_args`].
///
/// Precedence: an explicit `--jobs N` wins, then `env` (the `SPUR_JOBS`
/// value), then [`std::thread::available_parallelism`]. Zero or
/// unparsable counts fall through to the next source.
pub fn parse_jobs<I: IntoIterator<Item = String>>(args: I, env: Option<&str>) -> usize {
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            match args.peek().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => return n,
                _ => {
                    eprintln!("--jobs needs a positive integer; falling back");
                    break;
                }
            }
        }
    }
    if let Some(n) = env.and_then(|v| v.parse::<usize>().ok()) {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Whether a bare `--csv` style flag is present in the process args.
pub fn has_flag(name: &str) -> bool {
    let want = format!("--{name}");
    std::env::args().skip(1).any(|a| a == want)
}

/// Prints the standard run header for a regenerator.
pub fn print_header(what: &str, scale: &Scale) {
    println!("SPUR reference/dirty-bit reproduction — {what}");
    println!(
        "scale: {} references/run, {} rep(s), seed {}\n",
        scale.refs, scale.reps, scale.seed
    );
}

pub mod load;

pub mod jobs {
    //! The memory sweep as harness jobs: its keys, its cells, and its
    //! assembly back into serial row order. The cell builders live in
    //! [`spur_core::jobs`] and the run epilogue in
    //! [`spur_scenario::persist_run`].

    use spur_core::experiments::refbit::RefbitRow;
    use spur_core::experiments::sweep::MemorySweepRow;
    use spur_core::experiments::Scale;
    use spur_core::jobs::{refbit_job_obs, WorkloadCtor};
    use spur_core::obs::ObsParams;
    use spur_harness::{Job, RunReport};
    use spur_types::MemSize;
    use spur_vm::policy::RefPolicy;

    /// The key for one memory-sweep cell.
    pub fn memory_sweep_key(mb: u32, policy: RefPolicy) -> String {
        format!("memory_sweep/{mb:02}MB/{policy}")
    }

    /// Every cell of the memory sweep: `sizes` × [`RefPolicy::ALL`].
    pub fn memory_sweep_jobs(
        make: WorkloadCtor,
        sizes: &[u32],
        scale: Scale,
    ) -> Vec<Job<RefbitRow>> {
        memory_sweep_jobs_obs(make, sizes, scale, None)
    }

    /// [`memory_sweep_jobs`] with optional observability.
    pub fn memory_sweep_jobs_obs(
        make: WorkloadCtor,
        sizes: &[u32],
        scale: Scale,
        obs: Option<ObsParams>,
    ) -> Vec<Job<RefbitRow>> {
        let mut jobs = Vec::new();
        for &mb in sizes {
            for policy in RefPolicy::ALL {
                jobs.push(refbit_job_obs(
                    memory_sweep_key(mb, policy),
                    make,
                    MemSize::new(mb),
                    policy,
                    scale,
                    obs,
                ));
            }
        }
        jobs
    }

    /// Collects a completed memory-sweep run back into the serial
    /// row order ([`RefPolicy::ALL`] within each size).
    ///
    /// # Errors
    ///
    /// Returns the first missing or failed cell's description.
    pub fn assemble_memory_sweep(
        report: &RunReport<RefbitRow>,
        sizes: &[u32],
    ) -> Result<Vec<MemorySweepRow>, String> {
        sizes
            .iter()
            .map(|&mb| {
                let policies = RefPolicy::ALL
                    .iter()
                    .map(|&policy| report.require(&memory_sweep_key(mb, policy)).cloned())
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(MemorySweepRow {
                    mem: MemSize::new(mb),
                    policies,
                })
            })
            .collect()
    }
}

pub mod microbench {
    //! A std-only timing harness for the `cargo bench` targets.
    //!
    //! The registry is unreachable in this environment, so criterion is
    //! not an option; this module provides the minimal useful subset:
    //! warmup, wall-budgeted measurement, and a ns/iter +
    //! elements/second report.

    use std::time::{Duration, Instant};

    /// One measured benchmark result.
    #[derive(Debug, Clone)]
    pub struct Measurement {
        /// Benchmark name (`group/name`).
        pub name: String,
        /// Nanoseconds per iteration (mean over the measured window).
        pub ns_per_iter: f64,
        /// Iterations measured.
        pub iters: u64,
        /// Elements processed per iteration (for throughput).
        pub elements_per_iter: u64,
    }

    /// Collects and reports measurements.
    #[derive(Debug, Default)]
    pub struct Bench {
        budget: Duration,
        results: Vec<Measurement>,
    }

    impl Bench {
        /// Creates a harness with a per-benchmark wall budget from
        /// `SPUR_BENCH_MS` (default 200 ms).
        pub fn from_env() -> Self {
            let ms = std::env::var("SPUR_BENCH_MS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(200);
            Bench {
                budget: Duration::from_millis(ms),
                results: Vec::new(),
            }
        }

        /// Runs `f` repeatedly for the wall budget and records the mean
        /// iteration time. `elements` is the per-iteration element count
        /// used for throughput reporting.
        pub fn bench(&mut self, name: &str, elements: u64, mut f: impl FnMut()) {
            // Warmup: a few iterations so lazy state settles.
            for _ in 0..3 {
                f();
            }
            let start = Instant::now();
            let mut iters = 0u64;
            while start.elapsed() < self.budget {
                f();
                iters += 1;
            }
            let total = start.elapsed();
            self.push(name, total, iters.max(1), elements);
        }

        /// Runs `f` a fixed number of iterations (for expensive bodies
        /// where wall-budget calibration would be wasteful).
        pub fn bench_n(&mut self, name: &str, iters: u64, elements: u64, mut f: impl FnMut()) {
            f(); // warmup
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let total = start.elapsed();
            self.push(name, total, iters.max(1), elements);
        }

        /// Like [`Bench::bench`], but rebuilds input state outside the
        /// timed region on every iteration.
        pub fn bench_with_setup<T>(
            &mut self,
            name: &str,
            elements: u64,
            mut setup: impl FnMut() -> T,
            mut f: impl FnMut(T),
        ) {
            f(setup()); // warmup
            let mut timed = Duration::ZERO;
            let mut iters = 0u64;
            let begin = Instant::now();
            while begin.elapsed() < self.budget {
                let input = setup();
                let start = Instant::now();
                f(input);
                timed += start.elapsed();
                iters += 1;
            }
            self.push(name, timed, iters.max(1), elements);
        }

        fn push(&mut self, name: &str, total: Duration, iters: u64, elements: u64) {
            let m = Measurement {
                name: name.to_string(),
                ns_per_iter: total.as_nanos() as f64 / iters as f64,
                iters,
                elements_per_iter: elements,
            };
            println!("{}", render_line(&m));
            self.results.push(m);
        }

        /// Prints the closing summary.
        pub fn finish(self) {
            println!(
                "\n{} benchmarks, budget {:?} each",
                self.results.len(),
                self.budget
            );
        }
    }

    /// Formats one measurement line.
    pub fn render_line(m: &Measurement) -> String {
        let rate = if m.ns_per_iter > 0.0 {
            m.elements_per_iter as f64 / (m.ns_per_iter / 1e9)
        } else {
            0.0
        };
        format!(
            "{:<44} {:>14.1} ns/iter {:>12.0} elem/s ({} iters)",
            m.name, m.ns_per_iter, rate, m.iters
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_known_scales() {
        let q = parse_scale(args(&["--scale", "quick"]));
        assert_eq!(q.refs, Scale::quick().refs);
        let f = parse_scale(args(&["--scale", "full"]));
        assert_eq!(f.refs, Scale::full().refs);
    }

    #[test]
    fn defaults_on_empty_or_unknown() {
        assert_eq!(
            parse_scale(Vec::<String>::new()).refs,
            Scale::default_scale().refs
        );
        let d = parse_scale(args(&["--scale", "bogus"]));
        assert_eq!(d.refs, Scale::default_scale().refs);
    }

    #[test]
    fn scale_does_not_swallow_following_flag() {
        // `--scale --csv`: the scale is missing, not "--csv"; the flag
        // must survive for the binary's own handling (the bare-flag arm
        // sees it on the next loop turn instead of it being consumed as
        // a malformed scale value).
        let d = parse_scale(args(&["--scale", "--csv"]));
        assert_eq!(d.refs, Scale::default_scale().refs);
        // A later valid --scale still applies.
        let q = parse_scale(args(&["--scale", "--csv", "--scale", "quick"]));
        assert_eq!(q.refs, Scale::quick().refs);
        // Trailing --scale is harmless.
        let t = parse_scale(args(&["--scale"]));
        assert_eq!(t.refs, Scale::default_scale().refs);
    }

    #[test]
    fn parses_obs_flags() {
        let defaults = parse_obs(Vec::<String>::new(), None);
        assert!(defaults.enabled, "observability is on by default");
        assert_eq!(defaults.epoch, None);
        assert_eq!(defaults.trace_out, None);
        assert!(!defaults.progress);

        let opts = parse_obs(
            args(&[
                "--epoch",
                "100000",
                "--trace-out",
                "results/trace",
                "--progress",
            ]),
            None,
        );
        assert_eq!(opts.epoch, Some(100_000));
        assert_eq!(
            opts.trace_out.as_deref(),
            Some(std::path::Path::new("results/trace"))
        );
        assert!(opts.progress);
        assert!(opts.params().is_some());
        assert_eq!(opts.params().unwrap().epoch, Some(100_000));

        let off = parse_obs(args(&["--no-obs", "--epoch", "5"]), None);
        assert!(!off.enabled);
        assert!(off.params().is_none(), "--no-obs wins over --epoch");
    }

    #[test]
    fn obs_progress_env_is_truthy() {
        assert!(parse_obs(Vec::<String>::new(), Some("1")).progress);
        assert!(parse_obs(Vec::<String>::new(), Some("yes")).progress);
        assert!(!parse_obs(Vec::<String>::new(), Some("0")).progress);
        assert!(!parse_obs(Vec::<String>::new(), Some("")).progress);
    }

    #[test]
    fn obs_flags_reject_malformed_values() {
        // A missing or non-numeric epoch is ignored, not fatal; the
        // flag that follows keeps its own meaning.
        let opts = parse_obs(args(&["--epoch", "--progress"]), None);
        assert_eq!(opts.epoch, None);
        assert!(opts.progress);
        let opts = parse_obs(args(&["--epoch", "zero"]), None);
        assert_eq!(opts.epoch, None);
        let opts = parse_obs(args(&["--trace-out", "--progress"]), None);
        assert_eq!(opts.trace_out, None);
        assert!(opts.progress);
    }

    #[test]
    fn scale_skips_obs_values() {
        // `--epoch 100000 --scale quick`: the epoch value must not be
        // reported or mistaken for a positional argument.
        let q = parse_scale(args(&[
            "--epoch",
            "100000",
            "--trace-out",
            "results/trace",
            "--scale",
            "quick",
        ]));
        assert_eq!(q.refs, Scale::quick().refs);
    }

    #[test]
    fn jobs_precedence_is_flag_env_parallelism() {
        assert_eq!(parse_jobs(args(&["--jobs", "8"]), Some("4")), 8);
        assert_eq!(parse_jobs(args(&[]), Some("4")), 4);
        let auto = parse_jobs(args(&[]), None);
        assert!(auto >= 1);
        // Bad values fall through.
        assert_eq!(parse_jobs(args(&["--jobs", "zero"]), Some("4")), 4);
        assert_eq!(parse_jobs(args(&["--jobs", "0"]), Some("4")), 4);
        assert_eq!(parse_jobs(args(&[]), Some("-3")), auto);
    }
}
