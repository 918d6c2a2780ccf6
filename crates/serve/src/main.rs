//! The `spur-serve` daemon binary.
//!
//! ```text
//! spur-serve [--addr 127.0.0.1:7979] [--workers N] [--queue-bound N]
//!            [--shards N] [--cache-entries N] [--client-quota N]
//!            [--peers HOST:PORT,...] [--self-peer HOST:PORT]
//!            [--accept-threads N] [--read-timeout-ms N]
//!            [--write-timeout-ms N] [--max-body-bytes N]
//!            [--results-dir DIR] [--panic-retries N]
//!            [--chaos-seed N] [--chaos-panic-ppm N] [--chaos-drop-ppm N]
//!            [--slo NAME=VALUE]... [--slo-window-secs N]
//!            [--trace-capacity N]
//! ```
//!
//! Prints one `listening on <addr>` line to stdout once bound (scripts
//! wait for it), then serves until `POST /v1/shutdown`, drains the
//! queue, and exits 0. With `--results-dir` every finished job is also
//! persisted as a single-job artifact run that `check_obs` can
//! validate.
//!
//! `--slo` is repeatable and declares one target per use, e.g.
//! `--slo p99_submit_ms=500 --slo min_jobs_per_sec=1`; declared SLOs
//! are evaluated over a sliding window (`--slo-window-secs`, default
//! 60) and exposed at `GET /v1/slo` and on `/metrics`. The `--chaos-*`
//! flags arm deterministic fault injection for soak testing; any
//! chaos flag implies chaos with the other rates at zero.
//!
//! `--peers` declares the full multi-instance membership (comma
//! separated, every instance gets the same list) and `--self-peer`
//! names this instance's own entry in it; submissions whose identity
//! hashes to another peer are proxied there. `--client-quota` caps
//! queued jobs per client id (0 = unlimited); `--shards` splits the
//! worker pool into independently-ordered queues.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use spur_obs::slo::SloTarget;
use spur_serve::{ChaosConfig, ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: spur-serve [--addr HOST:PORT] [--workers N] [--queue-bound N]\n\
         \x20                 [--shards N] [--cache-entries N] [--client-quota N]\n\
         \x20                 [--peers HOST:PORT,...] [--self-peer HOST:PORT]\n\
         \x20                 [--accept-threads N] [--read-timeout-ms N]\n\
         \x20                 [--write-timeout-ms N] [--max-body-bytes N]\n\
         \x20                 [--results-dir DIR] [--panic-retries N]\n\
         \x20                 [--chaos-seed N] [--chaos-panic-ppm N] [--chaos-drop-ppm N]\n\
         \x20                 [--slo NAME=VALUE]... [--slo-window-secs N]\n\
         \x20                 [--trace-capacity N]"
    );
    std::process::exit(2);
}

fn parse_config() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("spur-serve: {what} needs a value");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--workers" => cfg.workers = parse_nonzero(&value("--workers"), "--workers"),
            "--queue-bound" => {
                cfg.queue_bound = parse_num(&value("--queue-bound"), "--queue-bound")
            }
            "--shards" => cfg.shards = parse_num(&value("--shards"), "--shards"),
            "--cache-entries" => {
                cfg.cache_entries = parse_num(&value("--cache-entries"), "--cache-entries")
            }
            "--client-quota" => {
                cfg.client_quota = parse_num(&value("--client-quota"), "--client-quota")
            }
            "--peers" => {
                cfg.peers = value("--peers")
                    .split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty())
                    .collect()
            }
            "--self-peer" => cfg.self_peer = Some(value("--self-peer")),
            "--accept-threads" => {
                cfg.accept_threads = parse_num(&value("--accept-threads"), "--accept-threads")
            }
            "--read-timeout-ms" => {
                cfg.read_timeout = Duration::from_millis(parse_nonzero(
                    &value("--read-timeout-ms"),
                    "--read-timeout-ms",
                ))
            }
            "--write-timeout-ms" => {
                cfg.write_timeout = Duration::from_millis(parse_nonzero(
                    &value("--write-timeout-ms"),
                    "--write-timeout-ms",
                ))
            }
            "--max-body-bytes" => {
                cfg.max_body_bytes = parse_num(&value("--max-body-bytes"), "--max-body-bytes")
            }
            "--results-dir" => cfg.results_dir = Some(PathBuf::from(value("--results-dir"))),
            "--panic-retries" => {
                cfg.panic_retries = parse_num(&value("--panic-retries"), "--panic-retries")
            }
            "--chaos-seed" => {
                chaos(&mut cfg).seed = parse_num(&value("--chaos-seed"), "--chaos-seed")
            }
            "--chaos-panic-ppm" => {
                chaos(&mut cfg).worker_panic_ppm =
                    parse_num(&value("--chaos-panic-ppm"), "--chaos-panic-ppm")
            }
            "--chaos-drop-ppm" => {
                chaos(&mut cfg).drop_response_ppm =
                    parse_num(&value("--chaos-drop-ppm"), "--chaos-drop-ppm")
            }
            "--slo" => {
                let spec = value("--slo");
                match SloTarget::parse(&spec) {
                    Ok(target) => cfg.slos.push(target),
                    Err(e) => {
                        eprintln!("spur-serve: bad --slo {spec:?}: {e}");
                        usage();
                    }
                }
            }
            "--slo-window-secs" => {
                cfg.slo_window = Duration::from_secs(parse_nonzero(
                    &value("--slo-window-secs"),
                    "--slo-window-secs",
                ))
            }
            "--trace-capacity" => {
                cfg.trace_capacity = parse_num(&value("--trace-capacity"), "--trace-capacity")
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("spur-serve: unknown flag {other:?}");
                usage();
            }
        }
    }
    cfg
}

/// The chaos config a `--chaos-*` flag mutates, created zeroed on
/// first use (so `--chaos-panic-ppm` alone gets seed 0, drop rate 0).
fn chaos(cfg: &mut ServeConfig) -> &mut ChaosConfig {
    cfg.chaos.get_or_insert(ChaosConfig {
        seed: 0,
        worker_panic_ppm: 0,
        drop_response_ppm: 0,
    })
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("spur-serve: bad value {text:?} for {flag}");
        usage();
    })
}

/// [`parse_num`] for a flag whose zero leaves the daemon unable to
/// serve: no worker runs a job, a zero socket timeout is refused by the
/// OS (leaving none at all), and a zero SLO window counts no jobs.
fn parse_nonzero<T: std::str::FromStr + PartialEq + From<u8>>(text: &str, flag: &str) -> T {
    let n = parse_num(text, flag);
    if n == T::from(0) {
        eprintln!("spur-serve: {flag} must be at least 1");
        usage();
    }
    n
}

fn main() -> ExitCode {
    let cfg = parse_config();
    let workers = cfg.workers;
    let queue_bound = cfg.queue_bound;
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("spur-serve: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    // Scripts wait on this line; don't let block buffering hold it.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    eprintln!("spur-serve: {workers} worker(s), queue bound {queue_bound}; POST /v1/shutdown to drain and exit");
    let summary = server.wait();
    eprintln!(
        "spur-serve: drained; {} completed, {} failed, {} rejected, {} unstarted",
        summary.completed, summary.failed, summary.rejected, summary.unstarted
    );
    ExitCode::SUCCESS
}
