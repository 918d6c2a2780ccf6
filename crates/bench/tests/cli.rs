//! The experiment binaries' command lines: a bad run-flag value, an
//! argument the binary does not take, or a bad `SPUR_JOBS` prints the
//! usage text and exits 2 before any cell runs; `spur-fuzz` and
//! `check_obs` answer a bad number, an unknown flag or a stray argument
//! the same way.

use std::path::PathBuf;
use std::process::{Command, Output};

macro_rules! bins {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

/// Every binary that reads the run flags, with its own extra flags.
const BINARIES: [(&str, &str); 11] = bins!(
    "reproduce_all",
    "reproduce_mp",
    "sweep_memory",
    "baseline_tlb",
    "counters_dump",
    "elapsed_breakdown",
    "probe_breakdown",
    "residency_study",
    "table_3_4_direct",
    "translation_study",
    "workload_stats",
);

/// A results directory no run may create.
fn results_dir(bin: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spur-bench-cli-{}-{bin}", std::process::id()))
}

fn run(bin: &str, exe: &str, args: &[&str], jobs_env: Option<&str>) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .env("SPUR_RESULTS_DIR", results_dir(bin))
        .env_remove("SPUR_JOBS")
        .env_remove("SPUR_PROGRESS");
    if let Some(v) = jobs_env {
        cmd.env("SPUR_JOBS", v);
    }
    cmd.output().expect("binary starts")
}

/// Asserts a usage error: exit 2, the usage text (naming `needle`) on
/// stderr, nothing on stdout, no artifact directory.
fn assert_usage_error(bin: &str, case: &str, out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {case}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {bin} [run flags]")) && stderr.contains("run flags:"),
        "{bin} {case}: no usage text on stderr: {stderr}"
    );
    assert!(stderr.contains(needle), "{bin} {case}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{bin} {case}: printed on stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        !results_dir(bin).exists(),
        "{bin} {case}: created an artifact directory"
    );
}

#[test]
fn bad_run_flags_exit_2_before_any_cell_runs() {
    let cases: [(&[&str], Option<&str>, &str); 7] = [
        (
            &["--scale", "bogus"],
            None,
            "--scale: unknown preset \"bogus\"",
        ),
        (
            &["--jobs", "0"],
            None,
            "--jobs: expected a positive integer",
        ),
        (
            &["--epoch", "0"],
            None,
            "--epoch: expected a positive integer",
        ),
        (&["--trace-out"], None, "--trace-out: expected a directory"),
        (
            &["--frobnicate"],
            None,
            "unexpected argument \"--frobnicate\"",
        ),
        (&["quick"], None, "unexpected argument \"quick\""),
        (&[], Some("x"), "SPUR_JOBS: expected a positive integer"),
    ];
    for (bin, exe) in BINARIES {
        for (args, jobs_env, needle) in cases {
            let case = format!("{args:?} SPUR_JOBS={jobs_env:?}");
            let out = run(bin, exe, args, jobs_env);
            assert_usage_error(bin, &case, &out, needle);
        }
    }
}

#[test]
fn each_binary_takes_only_its_own_extra_flags() {
    // A binary's own flag passes the check, so the argument after it
    // is the one named; a flag of another binary is refused.
    for (bin, exe) in BINARIES {
        let own = match bin {
            "reproduce_mp" => Some("--verify"),
            "sweep_memory" => Some("--csv"),
            _ => None,
        };
        for flag in [
            "--verify",
            "--csv",
            "--legacy-stdout",
            "--no-persist",
            "--json",
        ] {
            let out = run(bin, exe, &[flag, "--frobnicate"], None);
            let named = if own == Some(flag) {
                "--frobnicate"
            } else {
                flag
            };
            let needle = format!("unexpected argument {named:?}");
            assert_usage_error(bin, flag, &out, &needle);
        }
    }
}

#[test]
fn spur_fuzz_answers_bad_numbers_with_usage() {
    let exe = env!("CARGO_BIN_EXE_spur-fuzz");
    for args in [
        &["--cases", "abc"][..],
        &["--cases", "1", "--seed", "nope"],
        &["--matrix", "--refs", "x"],
        &["--cases"],
        &[],
        &["--cases", "0", "--sed", "3"],
        &["--matrix", "stray"],
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("spur-fuzz starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: spur-fuzz"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran cases");
    }
}

#[test]
fn check_obs_refuses_unknown_arguments() {
    let exe = env!("CARGO_BIN_EXE_check_obs");
    let dir = std::env::temp_dir().join(format!("spur-bench-cli-{}-obs", std::process::id()));
    let dir = dir.to_str().unwrap();
    for args in [
        &["--run", dir, "--bogus"][..],
        &["--trace", dir, "stray"],
        &["--run"],
        &[],
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("check_obs starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: check_obs"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} checked something");
    }
}
