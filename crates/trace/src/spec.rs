//! A plain-text workload specification format.
//!
//! Workloads are parameter bundles, and experiments want them in files:
//! this module round-trips a [`Workload`] through a line-oriented,
//! comment-friendly format. Every behavior knob is optional and defaults
//! to [`BehaviorSpec::baseline`].
//!
//! ```text
//! # a two-process workload
//! workload DBMIX
//! shared 0
//!
//! process dbserver
//!   pages code=96 heap=512 stack=16 file=1536
//!   weight 3
//!   mix 45/45/10
//!   hot code=32 heap=96 stack=4 file=420
//!   phase len=3000000 shift=0.15
//!
//! process batch
//!   pages code=24 heap=768 stack=8 file=256
//!   schedule active=2000000 idle=6000000 offset=1000000
//! ```

use spur_types::{Error, Result};

use crate::process::{BehaviorSpec, ProcessSpec, Schedule};
use crate::stream::RefMix;
use crate::workloads::Workload;

fn bad(line_no: usize, msg: impl std::fmt::Display) -> Error {
    Error::BadWorkload(format!("spec line {line_no}: {msg}"))
}

fn parse_kv(token: &str, line_no: usize) -> Result<(&str, &str)> {
    token
        .split_once('=')
        .ok_or_else(|| bad(line_no, format!("expected key=value, got {token:?}")))
}

fn parse_num<T: std::str::FromStr>(value: &str, line_no: usize) -> Result<T> {
    value
        .parse()
        .map_err(|_| bad(line_no, format!("bad number {value:?}")))
}

/// Parses a workload specification.
///
/// # Errors
///
/// Returns [`Error::BadWorkload`] with a line number for any syntax or
/// validation problem.
///
/// ```
/// use spur_trace::spec::parse_workload;
///
/// let w = parse_workload(
///     "workload TINY\n\
///      process only\n\
///        pages code=8 heap=64 stack=8 file=8\n",
/// ).unwrap();
/// assert_eq!(w.name(), "TINY");
/// assert_eq!(w.processes().len(), 1);
/// ```
pub fn parse_workload(text: &str) -> Result<Workload> {
    let mut name: Option<String> = None;
    let mut shared: u64 = 0;
    let mut procs: Vec<ProcessSpec> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().expect("nonempty line has a token");
        match keyword {
            "workload" => {
                let n = tokens
                    .next()
                    .ok_or_else(|| bad(line_no, "workload needs a name"))?;
                name = Some(n.to_string());
            }
            "shared" => {
                let v = tokens
                    .next()
                    .ok_or_else(|| bad(line_no, "shared needs a page count"))?;
                shared = parse_num(v, line_no)?;
            }
            "process" => {
                let n = tokens
                    .next()
                    .ok_or_else(|| bad(line_no, "process needs a name"))?;
                procs.push(ProcessSpec::new(n, 8, 64, 8, 8));
            }
            _ => {
                let proc = procs
                    .last_mut()
                    .ok_or_else(|| bad(line_no, format!("{keyword:?} before any process")))?;
                apply_directive(proc, keyword, tokens, line_no)?;
            }
        }
    }

    let name = name.ok_or_else(|| Error::BadWorkload("spec has no `workload` line".into()))?;
    Workload::build_with_shared(&name, procs, shared)
}

fn apply_directive<'a, I: Iterator<Item = &'a str>>(
    proc: &mut ProcessSpec,
    keyword: &str,
    tokens: I,
    line_no: usize,
) -> Result<()> {
    match keyword {
        "pages" => {
            for token in tokens {
                let (k, v) = parse_kv(token, line_no)?;
                let n: u64 = parse_num(v, line_no)?;
                match k {
                    "code" => proc.code_pages = n,
                    "heap" => proc.heap_pages = n,
                    "stack" => proc.stack_pages = n,
                    "file" => proc.file_pages = n,
                    other => return Err(bad(line_no, format!("unknown segment {other:?}"))),
                }
            }
        }
        "weight" => {
            let v = tokens
                .into_iter()
                .next()
                .ok_or_else(|| bad(line_no, "weight needs a value"))?;
            proc.weight = parse_num(v, line_no)?;
        }
        "mix" => {
            let v = tokens
                .into_iter()
                .next()
                .ok_or_else(|| bad(line_no, "mix needs i/r/w"))?;
            let parts: Vec<&str> = v.split('/').collect();
            if parts.len() != 3 {
                return Err(bad(line_no, "mix must be ifetch/read/write"));
            }
            proc.behavior.mix = RefMix::checked(
                parse_num(parts[0], line_no)?,
                parse_num(parts[1], line_no)?,
                parse_num(parts[2], line_no)?,
            )
            .ok_or_else(|| bad(line_no, "mix parts must sum to between 1 and 4294967295"))?;
        }
        "hot" => {
            for token in tokens {
                let (k, v) = parse_kv(token, line_no)?;
                let n: usize = parse_num(v, line_no)?;
                match k {
                    "code" => proc.behavior.code_hot_pages = n,
                    "heap" => proc.behavior.heap_hot_pages = n,
                    "stack" => proc.behavior.stack_hot_pages = n,
                    "file" => proc.behavior.file_hot_pages = n,
                    "shared" => proc.behavior.shared_hot_pages = n,
                    other => return Err(bad(line_no, format!("unknown hot set {other:?}"))),
                }
            }
        }
        "phase" => {
            for token in tokens {
                let (k, v) = parse_kv(token, line_no)?;
                match k {
                    "len" => proc.behavior.phase_len = parse_num(v, line_no)?,
                    "shift" => proc.behavior.phase_shift_frac = parse_num(v, line_no)?,
                    other => return Err(bad(line_no, format!("unknown phase key {other:?}"))),
                }
            }
        }
        "frac" => {
            for token in tokens {
                let (k, v) = parse_kv(token, line_no)?;
                let f: f64 = parse_num(v, line_no)?;
                match k {
                    "heap" => proc.behavior.heap_frac = f,
                    "stack" => proc.behavior.stack_frac = f,
                    "shared" => proc.behavior.shared_frac = f,
                    "alloc" => proc.behavior.alloc_write_frac = f,
                    "rbw" => proc.behavior.read_before_write = f,
                    "rwread" => proc.behavior.rw_read_frac = f,
                    "oldwrite" => proc.behavior.old_page_write_frac = f,
                    "cold" => proc.behavior.cold_read_frac = f,
                    "seq" => proc.behavior.seq_prob = f,
                    other => return Err(bad(line_no, format!("unknown fraction {other:?}"))),
                }
            }
        }
        "tune" => {
            for token in tokens {
                let (k, v) = parse_kv(token, line_no)?;
                match k {
                    "theta" => proc.behavior.zipf_theta = parse_num(v, line_no)?,
                    "read_burst" => proc.behavior.read_burst = parse_num(v, line_no)?,
                    "write_burst" => proc.behavior.write_burst = parse_num(v, line_no)?,
                    other => return Err(bad(line_no, format!("unknown tuning key {other:?}"))),
                }
            }
        }
        "schedule" => {
            let mut active = 0u64;
            let mut idle = 0u64;
            let mut offset = 0u64;
            for token in tokens {
                let (k, v) = parse_kv(token, line_no)?;
                match k {
                    "active" => active = parse_num(v, line_no)?,
                    "idle" => idle = parse_num(v, line_no)?,
                    "offset" => offset = parse_num(v, line_no)?,
                    other => return Err(bad(line_no, format!("unknown schedule key {other:?}"))),
                }
            }
            proc.schedule = Schedule::Periodic {
                active,
                idle,
                offset,
            };
            proc.schedule.validate().map_err(|msg| bad(line_no, msg))?;
        }
        other => return Err(bad(line_no, format!("unknown directive {other:?}"))),
    }
    Ok(())
}

/// Formats a workload back into the spec format (a parse/format fixed
/// point: `parse(format(w))` reproduces `w`'s processes and shared
/// size).
pub fn format_workload(workload: &Workload) -> String {
    let mut out = format!("workload {}\n", workload.name());
    if let Some(shared) = workload.shared_region() {
        out.push_str(&format!("shared {}\n", shared.pages));
    }
    let base = BehaviorSpec::baseline();
    for p in workload.processes() {
        out.push('\n');
        out.push_str(&format!("process {}\n", p.name));
        out.push_str(&format!(
            "  pages code={} heap={} stack={} file={}\n",
            p.code_pages, p.heap_pages, p.stack_pages, p.file_pages
        ));
        if p.weight != 1 {
            out.push_str(&format!("  weight {}\n", p.weight));
        }
        if let Schedule::Periodic {
            active,
            idle,
            offset,
        } = p.schedule
        {
            out.push_str(&format!(
                "  schedule active={active} idle={idle} offset={offset}\n"
            ));
        }
        let b = &p.behavior;
        if b.mix != base.mix {
            out.push_str(&format!(
                "  mix {:.0}/{:.0}/{:.0}\n",
                100.0 * b.mix.ifetch_fraction(),
                100.0 * b.mix.read_fraction(),
                100.0 * b.mix.write_fraction()
            ));
        }
        out.push_str(&format!(
            "  hot code={} heap={} stack={} file={} shared={}\n",
            b.code_hot_pages,
            b.heap_hot_pages,
            b.stack_hot_pages,
            b.file_hot_pages,
            b.shared_hot_pages
        ));
        out.push_str(&format!(
            "  phase len={} shift={}\n",
            b.phase_len, b.phase_shift_frac
        ));
        out.push_str(&format!(
            "  tune theta={} read_burst={} write_burst={}\n",
            b.zipf_theta, b.read_burst, b.write_burst
        ));
        out.push_str(&format!(
            "  frac heap={} stack={} shared={} alloc={} rbw={} rwread={} oldwrite={} cold={} seq={}\n",
            b.heap_frac,
            b.stack_frac,
            b.shared_frac,
            b.alloc_write_frac,
            b.read_before_write,
            b.rw_read_frac,
            b.old_page_write_frac,
            b.cold_read_frac,
            b.seq_prob
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{mp_workers, slc};

    #[test]
    fn parses_a_minimal_spec() {
        let w = parse_workload("workload T\nprocess a\n  pages code=8 heap=32 stack=8 file=8\n")
            .unwrap();
        assert_eq!(w.name(), "T");
        assert_eq!(w.processes()[0].heap_pages, 32);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let w = parse_workload(
            "# header\nworkload T # trailing\n\nprocess a # named a\n  pages code=8 heap=32 stack=8 file=8\n",
        )
        .unwrap();
        assert_eq!(w.name(), "T");
    }

    #[test]
    fn full_directive_set_round_trips() {
        let text = "workload FULL\nshared 64\n\
                    process p\n  pages code=16 heap=128 stack=8 file=32\n\
                    weight 2\n  mix 40/40/20\n\
                    hot code=10 heap=40 stack=4 file=12 shared=8\n\
                    phase len=500000 shift=0.3\n\
                    frac heap=0.6 stack=0.1 shared=0.1 alloc=0.1 rbw=0.1 seq=0.8\n\
                    schedule active=100000 idle=50000 offset=10000\n";
        let w = parse_workload(text).unwrap();
        let p = &w.processes()[0];
        assert_eq!(p.weight, 2);
        assert_eq!(p.behavior.heap_hot_pages, 40);
        assert!((p.behavior.phase_shift_frac - 0.3).abs() < 1e-12);
        assert!(matches!(
            p.schedule,
            Schedule::Periodic { active: 100000, .. }
        ));
        assert_eq!(w.shared_region().unwrap().pages, 64);

        // Round trip: format then re-parse.
        let text2 = format_workload(&w);
        let w2 = parse_workload(&text2).unwrap();
        assert_eq!(w.processes(), w2.processes());
        assert_eq!(
            w.shared_region().map(|r| r.pages),
            w2.shared_region().map(|r| r.pages)
        );
    }

    #[test]
    fn builtin_workloads_round_trip() {
        for w in [slc(), mp_workers(3, 128)] {
            let text = format_workload(&w);
            let back = parse_workload(&text).unwrap();
            assert_eq!(w.name(), back.name());
            assert_eq!(w.processes(), back.processes());
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_workload("workload T\nprocess a\n  pages code=zzz\n").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        let err = parse_workload("process orphanless\n").unwrap_err();
        assert!(err.to_string().contains("no `workload` line") || !err.to_string().is_empty());
        let err = parse_workload("workload T\n  weight 3\n").unwrap_err();
        assert!(err.to_string().contains("before any process"));
        let err = parse_workload("workload T\nprocess a\n  bogus x=1\n").unwrap_err();
        assert!(err.to_string().contains("unknown directive"));
    }

    /// Every validity rule a spec can break is a typed error naming
    /// the rule, never a panic in the parser or a value that panics or
    /// wraps once the generator runs.
    #[test]
    fn invalid_specs_are_errors_not_panics() {
        for (directive, needle) in [
            ("weight 0", "weight must be positive"),
            ("frac heap=2", "heap_frac"),
            ("frac heap=0.9 stack=0.5", "room for file data"),
            ("phase len=0", "phase_len"),
            ("hot heap=0", "hot sets"),
            ("hot code=0", "hot sets"),
            ("tune read_burst=0", "bursts"),
            ("tune write_burst=0", "bursts"),
            ("tune theta=-1", "zipf_theta"),
            ("tune theta=inf", "zipf_theta"),
            ("mix 0/0/0", "mix parts"),
            ("mix 4294967295/1/0", "mix parts"),
            (
                "schedule active=9223372036854775808 idle=9223372036854775808",
                "overflows",
            ),
            (
                "schedule active=1 idle=1 offset=18446744073709551615",
                "overflows",
            ),
        ] {
            let text = format!(
                "workload T\nprocess a\n  pages code=8 heap=32 stack=8 file=8\n  {directive}\n"
            );
            let err = parse_workload(&text).unwrap_err();
            assert!(
                matches!(err, Error::BadWorkload(_)) && err.to_string().contains(needle),
                "{directive}: {err}"
            );
        }
    }

    #[test]
    fn schedule_validation() {
        let err = parse_workload(
            "workload T\nprocess a\n  pages code=8 heap=32 stack=8 file=8\n  schedule idle=5\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("active > 0"));
    }
}
