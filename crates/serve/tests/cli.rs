//! The `spur-serve` command line: a flag value that would leave the
//! daemon unable to serve prints the usage text and exits 2 before
//! anything binds, as a non-numeric value does.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a refused start may take; a daemon that started instead
/// is killed after it.
const BOUND: Duration = Duration::from_secs(10);

/// Waits up to [`BOUND`] for `child` to exit; kills it otherwise.
/// Returns the exit code (`None` if it had to be killed), stdout and
/// stderr.
fn finish(mut child: Child) -> (Option<i32>, String, String) {
    let start = Instant::now();
    let code = loop {
        if let Some(status) = child.try_wait().expect("waits on the daemon") {
            break status.code();
        }
        if start.elapsed() > BOUND {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout).unwrap();
    }
    if let Some(mut err) = child.stderr.take() {
        err.read_to_string(&mut stderr).unwrap();
    }
    (code, stdout, stderr)
}

#[test]
fn values_that_leave_the_daemon_unable_to_serve_exit_2() {
    let cases = [
        ("--workers", "0"),
        ("--read-timeout-ms", "0"),
        ("--write-timeout-ms", "0"),
        ("--slo-window-secs", "0"),
        ("--workers", "two"),
    ];
    for (flag, value) in cases {
        let needle = match value {
            "0" => format!("{flag} must be at least 1"),
            _ => format!("bad value {value:?} for {flag}"),
        };
        let child = Command::new(env!("CARGO_BIN_EXE_spur-serve"))
            .args(["--addr", "127.0.0.1:0", flag, value])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spur-serve starts");
        let (code, stdout, stderr) = finish(child);
        let case = format!("{flag} {value}");
        assert_eq!(
            code,
            Some(2),
            "{case}: stdout {stdout:?}, stderr {stderr:?}"
        );
        assert!(stderr.contains(&needle), "{case}: {stderr}");
        assert!(stderr.contains("usage: spur-serve"), "{case}: {stderr}");
        assert!(stdout.is_empty(), "{case}: the daemon bound: {stdout}");
    }
}
