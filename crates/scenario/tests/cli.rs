//! The `spur-scenario` binary's flag parsing: a bad `run` flag is a
//! usage error (exit 2) before any cell runs.

use std::process::{Command, Output};

const FLUSH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/ablation_flush.json"
);

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spur-scenario"))
        .arg("run")
        .arg(FLUSH)
        .args(["--no-persist", "--jobs", "1"])
        .args(args)
        .output()
        .expect("spur-scenario starts")
}

#[test]
fn epoch_zero_is_a_usage_error() {
    for bad in ["0", "x", "-1"] {
        let out = run(&["--epoch", bad]);
        assert_eq!(out.status.code(), Some(2), "--epoch {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--epoch: expected a positive integer"),
            "--epoch {bad}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--epoch {bad} ran cells");
    }
    // A positive epoch is accepted and the scenario runs.
    let out = run(&["--epoch", "1000", "--legacy-stdout"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Page flush"));
}

/// Runs `spur-scenario` with exactly `args`.
fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spur-scenario"))
        .args(args)
        .output()
        .expect("spur-scenario starts")
}

#[test]
fn bad_run_flags_print_usage_and_exit_2() {
    let cases: [(&str, Output); 7] = [
        ("--scale bogus", run(&["--scale", "bogus"])),
        ("trailing --scale", run(&["--scale"])),
        ("--jobs 0", run(&["--jobs", "0"])),
        ("--jobs x", run(&["--jobs", "x"])),
        ("trailing --trace-out", run(&["--trace-out"])),
        ("--frobnicate", run(&["--frobnicate"])),
        (
            "no scenario path",
            scenario(&["run", "--no-persist", "--jobs", "1"]),
        ),
    ];
    for (case, out) in cases {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(
            stderr.contains("usage: spur-scenario") && stderr.contains("run flags:"),
            "{case}: no usage text on stderr: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{case}: printed on stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
