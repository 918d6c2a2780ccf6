//! Host-speed benchmark for the SPUR reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <uni-stream|mp8-stream|sweep-2w|serve-mix> \
//!     [--seed N] [--seconds N] [--trace 0|1] [--fingerprint]
//! ```
//!
//! Every run warms up untimed, measures for `--seconds`, checks that
//! the program's outputs are deterministic and correct, and prints one
//! JSON object as its last stdout line: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). End-to-end times and rates are scaled by a
//! host-speed probe sampled between units of work (`probe.rs`). The
//! line before it is a detail document (sample counts, unit sizes,
//! unscaled rates). `--fingerprint` instead prints the
//! deterministic values `expected.json` stores for the seed. See
//! `perfbench/README.md` for the workloads and metrics.

mod layers;
mod probe;
mod report;
mod serve_mix;
mod sim;
mod stats;
mod sweep;

use std::time::Duration;

use spur_harness::Json;

use report::{result_doc, Outcome};
use sim::Stream;

/// The workload seed when `--seed` is not given. `expected.json` holds
/// values for this seed only.
pub const DEFAULT_SEED: u64 = 1989;

/// Set-up repetitions before and again after the measured window;
/// `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 15;

/// Times `SETUP_REPS` calls of `setup`, appending seconds to `samples`;
/// each result goes to `teardown` untimed.
pub fn sample_setup<T>(
    samples: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        let start = std::time::Instant::now();
        let built = setup()?;
        samples.push(start.elapsed().as_secs_f64());
        teardown(built);
    }
    Ok(())
}

const USAGE: &str = "usage: spur-perfbench --workload <uni-stream|mp8-stream|sweep-2w|serve-mix> \
                     [--seed N] [--seconds N] [--trace 0|1] [--fingerprint]";

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UniStream,
    Mp8Stream,
    Sweep2w,
    ServeMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "uni-stream" => Some(Workload::UniStream),
            "mp8-stream" => Some(Workload::Mp8Stream),
            "sweep-2w" => Some(Workload::Sweep2w),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub fingerprint: bool,
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = Duration::from_secs(10);
    let mut trace = false;
    let mut fingerprint = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--fingerprint" {
            fingerprint = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
        fingerprint,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("spur-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.fingerprint {
        let doc = match args.workload {
            Workload::UniStream => sim::fingerprint(Stream::Uni, args.seed),
            Workload::Mp8Stream => sim::fingerprint(Stream::Mp8, args.seed),
            Workload::Sweep2w => sweep::fingerprint(args.seed),
            Workload::ServeMix => {
                Err("serve-mix checks bytes against run_one; it stores no values".into())
            }
        };
        match doc {
            Ok(doc) => print!("{}", doc.encode_pretty()),
            Err(e) => {
                eprintln!("spur-perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let outcome: Outcome = match args.workload {
        Workload::UniStream => sim::run(Stream::Uni, &args),
        Workload::Mp8Stream => sim::run(Stream::Mp8, &args),
        Workload::Sweep2w => sweep::run(&args),
        Workload::ServeMix => serve_mix::run(&args),
    };
    let mut detail = vec![("seed", Json::from(args.seed))];
    detail.extend(outcome.detail.iter().map(|(k, v)| (*k, v.clone())));
    println!(
        "{}",
        Json::object([("detail", Json::object(detail))]).encode()
    );
    println!("{}", result_doc(&outcome, args.trace).encode());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse("--workload serve-mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeMix);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
        let a = parse("--workload uni-stream").unwrap();
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(!a.trace);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for line in [
            "",
            "--workload nope",
            "--workload sweep-2w --trace 2",
            "--workload sweep-2w --seconds 0",
            "--workload sweep-2w --seed",
            "--workload sweep-2w --frobnicate 1",
        ] {
            assert!(parse(line).is_err(), "{line:?} should be refused");
        }
    }
}
