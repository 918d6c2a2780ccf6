//! The `spur-scenario` binary's flag parsing: a bad `run` flag or a
//! `list` argument past the one directory is a usage error (exit 2)
//! before anything runs, and `--trace-out` exports traces whether or
//! not the run persists its artifacts.

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

/// The committed scenario configs.
const SCENARIOS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");

#[test]
fn bad_run_flags_print_usage_and_exit_2() {
    let cases: [(&str, Output); 9] = [
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
        (
            "list with two paths",
            scenario(&["list", SCENARIOS, "extra"]),
        ),
        ("list --bogus", scenario(&["list", "--bogus"])),
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

#[test]
fn list_summarizes_one_directory() {
    let out = scenario(&["list", SCENARIOS]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ablation_flush.json"));
}

/// The files under `dir`, by name, with their bytes.
fn files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|e| e.unwrap().path())
                .map(|p| {
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&p).unwrap())
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

#[test]
fn trace_out_exports_without_persisting() {
    let root = std::env::temp_dir().join(format!("spur-scenario-cli-{}", std::process::id()));
    let (bare, persisted, results) = (root.join("bare"), root.join("kept"), root.join("json"));
    let config = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/ablation_soft_faults.json"
    );
    let run = |extra: &[&str], traces: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_spur-scenario"))
            .args([
                "run",
                config,
                "--scale",
                "quick",
                "--jobs",
                "2",
                "--trace-out",
            ])
            .arg(traces)
            .args(extra)
            .env("SPUR_RESULTS_DIR", &results)
            .output()
            .expect("spur-scenario starts")
    };

    let out = run(&["--no-persist"], &bare);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("traces: 4 file(s) under"), "{stderr}");
    assert!(!results.exists(), "--no-persist wrote artifacts");
    let out = run(&[], &persisted);
    assert_eq!(out.status.code(), Some(0));

    let run_dir = "ablation_soft_faults-quick";
    let bare = files(&bare.join(run_dir));
    let persisted = files(&persisted.join(run_dir));
    std::fs::remove_dir_all(&root).ok();
    let names: Vec<&str> = bare.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "soft_faults-MISS-off.trace.json",
            "soft_faults-MISS-on.trace.json",
            "soft_faults-NOREF-off.trace.json",
            "soft_faults-NOREF-on.trace.json",
        ]
    );
    assert!(bare == persisted, "the two runs' traces differ");
}
