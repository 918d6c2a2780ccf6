//! The worker pool and run report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::job::{CompletedJob, FailureKind, Job, JobFailure};

/// Acquires a mutex even if a previous holder panicked.
///
/// The pool's slot data is plain storage — a poisoned lock carries no
/// broken invariant, and a long-lived service (see `spur-serve`) must
/// degrade the one job rather than panic the whole pool.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Executes a single job in the calling thread: `catch_unwind`
/// isolation, wall-clock timing, and the same outcome mapping the pool
/// applies — this *is* the pool's per-job body, extracted so a
/// persistent service can run one keyed job with byte-identical
/// semantics (and artifacts) to a batch sweep.
pub fn run_one<T>(job: Job<T>) -> CompletedJob<T> {
    execute(job, 0)
}

fn execute<T>(job: Job<T>, index: usize) -> CompletedJob<T> {
    let key = job.key;
    let begin = Instant::now();
    let outcome = match catch_unwind(AssertUnwindSafe(job.run)) {
        Ok(Ok(output)) => Ok(output),
        Ok(Err(reason)) => Err(JobFailure {
            kind: FailureKind::Error,
            reason,
        }),
        Err(payload) => Err(JobFailure {
            kind: FailureKind::Panic,
            reason: panic_message(payload.as_ref()),
        }),
    };
    CompletedJob {
        key,
        index,
        outcome,
        wall: begin.elapsed(),
    }
}

/// Executes jobs on `workers` scoped threads and collects the results
/// into deterministic key order.
///
/// Work is handed out through a shared cursor, so scheduling order is
/// nondeterministic — but each job is a pure function of its own
/// inputs and the report re-sorts by key, so the collected results
/// (and the artifacts derived from them) are identical however many
/// workers ran. `workers == 1` degenerates to serial execution in
/// submission order.
///
/// Each job runs under `catch_unwind`: a panicking cell is recorded as
/// a `JobFailure` with its panic payload and the sweep continues.
///
/// # Panics
///
/// Panics if two jobs share a key — keys are the identity the whole
/// artifact layer hangs off, so a duplicate is a programming error in
/// the caller's job construction, not a runtime condition.
pub fn run_jobs<T: Send>(jobs: Vec<Job<T>>, workers: usize) -> RunReport<T> {
    run_jobs_with_progress(jobs, workers, false)
}

/// [`run_jobs`] with an opt-in stderr heartbeat.
///
/// With `progress` set, every completion prints one stderr line —
/// `progress: completed/total (jobs/s, eta, failures so far)` — driven
/// by atomic counters so it costs nothing on the result path. Stdout
/// is untouched, preserving the byte-identical parity contract.
pub fn run_jobs_with_progress<T: Send>(
    jobs: Vec<Job<T>>,
    workers: usize,
    progress: bool,
) -> RunReport<T> {
    let workers = workers.max(1);
    {
        let mut keys: Vec<&str> = jobs.iter().map(|j| j.key.as_str()).collect();
        keys.sort_unstable();
        for pair in keys.windows(2) {
            assert!(pair[0] != pair[1], "duplicate job key {:?}", pair[0]);
        }
    }

    let started = Instant::now();
    let n = jobs.len();
    let queue: Vec<Mutex<Option<Job<T>>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<CompletedJob<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let Some(job) = lock_unpoisoned(&queue[i]).take() else {
                    continue; // each slot is taken exactly once
                };
                let completed_job = execute(job, i);
                if completed_job.outcome.is_err() {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                if progress {
                    heartbeat(
                        completed,
                        n,
                        failed.load(Ordering::Relaxed),
                        started.elapsed(),
                    );
                }
                *lock_unpoisoned(&results[i]) = Some(completed_job);
            });
        }
    });

    let completed: Vec<CompletedJob<T>> = results
        .into_iter()
        .filter_map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect();
    RunReport::from_jobs(completed, workers, started.elapsed())
}

/// One stderr progress line. Rate and ETA come from the shared run
/// clock, so concurrent completions may interleave lines but each line
/// is internally consistent.
fn heartbeat(completed: usize, total: usize, failed: usize, elapsed: Duration) {
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 {
        completed as f64 / secs
    } else {
        0.0
    };
    let eta = if rate > 0.0 {
        (total - completed) as f64 / rate
    } else {
        0.0
    };
    eprintln!(
        "progress: {completed}/{total} jobs ({rate:.2} jobs/s, eta {eta:.1}s, {failed} failed)"
    );
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Every completed job of a run, sorted by key.
#[derive(Debug)]
pub struct RunReport<T> {
    jobs: Vec<CompletedJob<T>>,
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl<T> RunReport<T> {
    /// Assembles a report from already-completed jobs (re-sorted into
    /// key order), for callers that execute jobs one at a time — a
    /// persistent service pairing [`run_one`] with
    /// [`crate::artifacts::write_run`] produces artifacts
    /// byte-identical to a batch sweep of the same keyed jobs.
    pub fn from_jobs(mut jobs: Vec<CompletedJob<T>>, workers: usize, wall: Duration) -> Self {
        jobs.sort_by(|a, b| a.key.cmp(&b.key));
        RunReport {
            jobs,
            workers,
            wall,
        }
    }

    /// All completed jobs, in key order.
    pub fn jobs(&self) -> &[CompletedJob<T>] {
        &self.jobs
    }

    /// Consumes the report, yielding every completed job (still in key
    /// order) with ownership of the outcomes — for callers that move
    /// state *through* jobs and need it back afterwards, like the
    /// spur-mp scheduler threading its per-CPU trace generators across
    /// epochs of the pool.
    pub fn into_jobs(self) -> Vec<CompletedJob<T>> {
        self.jobs
    }

    /// Looks a job up by key.
    pub fn get(&self, key: &str) -> Option<&CompletedJob<T>> {
        self.jobs
            .binary_search_by(|j| j.key.as_str().cmp(key))
            .ok()
            .map(|i| &self.jobs[i])
    }

    /// The typed value of a successful job, by key.
    pub fn value(&self, key: &str) -> Option<&T> {
        self.get(key).and_then(CompletedJob::value)
    }

    /// Like [`RunReport::value`], but failures become a descriptive
    /// `Err` suitable for the binaries' "experiment failed" paths.
    pub fn require(&self, key: &str) -> Result<&T, String> {
        match self.get(key) {
            None => Err(format!("job {key:?} was never scheduled")),
            Some(job) => match &job.outcome {
                Ok(output) => Ok(&output.value),
                Err(f) => Err(format!(
                    "job {key:?} failed ({}): {}",
                    f.kind.as_str(),
                    f.reason
                )),
            },
        }
    }

    /// Jobs that failed, in key order.
    pub fn failures(&self) -> impl Iterator<Item = &CompletedJob<T>> {
        self.jobs.iter().filter(|j| j.outcome.is_err())
    }

    /// Number of successful jobs.
    pub fn ok_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_ok()).count()
    }

    /// Total number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the run had no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// One-paragraph run summary: throughput, per-job wall times, and
    /// failures. The binaries print this to stderr so stdout stays
    /// byte-identical to a serial run.
    pub fn summary(&self) -> String {
        let secs = self.wall.as_secs_f64();
        let rate = if secs > 0.0 {
            self.len() as f64 / secs
        } else {
            0.0
        };
        let mut text = format!(
            "harness: {} job(s) on {} worker(s) in {:.2}s ({:.2} jobs/s)",
            self.len(),
            self.workers,
            secs,
            rate
        );
        if let Some(slowest) = self.jobs.iter().max_by_key(|j| j.wall) {
            let mean_ms = self.jobs.iter().map(|j| j.wall.as_secs_f64()).sum::<f64>() * 1e3
                / self.len().max(1) as f64;
            text.push_str(&format!(
                "; job wall mean {:.0} ms, max {:.0} ms ({})",
                mean_ms,
                slowest.wall.as_secs_f64() * 1e3,
                slowest.key
            ));
        }
        let failed: Vec<&str> = self.failures().map(|j| j.key.as_str()).collect();
        if failed.is_empty() {
            text.push_str("; no failures");
        } else {
            text.push_str(&format!("; {} FAILED: {}", failed.len(), failed.join(", ")));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;
    use crate::json::Json;

    fn square_jobs(n: u64) -> Vec<Job<u64>> {
        (0..n)
            .map(|i| {
                Job::new(format!("sq/{i:03}"), move || {
                    Ok(JobOutput::new(i * i, Json::from(i * i)))
                })
            })
            .collect()
    }

    #[test]
    fn collects_into_key_order_regardless_of_workers() {
        for workers in [1, 2, 7] {
            let report = run_jobs(square_jobs(20), workers);
            assert_eq!(report.len(), 20);
            assert_eq!(report.ok_count(), 20);
            let keys: Vec<&str> = report.jobs().iter().map(|j| j.key.as_str()).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "jobs must come back in key order");
            assert_eq!(report.value("sq/007"), Some(&49));
        }
    }

    #[test]
    fn serial_and_parallel_values_agree() {
        let serial = run_jobs(square_jobs(16), 1);
        let parallel = run_jobs(square_jobs(16), 4);
        for (a, b) in serial.jobs().iter().zip(parallel.jobs()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn a_panicking_job_is_recorded_and_siblings_complete() {
        let mut jobs = square_jobs(8);
        jobs.push(Job::new("sq/boom", || -> Result<JobOutput<u64>, String> {
            panic!("cell exploded at ref 12345")
        }));
        let report = run_jobs(jobs, 4);
        assert_eq!(report.len(), 9);
        assert_eq!(report.ok_count(), 8, "all siblings still complete");
        let boom = report.get("sq/boom").expect("failure is a recorded result");
        let failure = boom.failure().expect("outcome is a failure");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.reason.contains("cell exploded at ref 12345"));
        assert!(report.require("sq/boom").unwrap_err().contains("panic"));
        assert!(report.summary().contains("1 FAILED: sq/boom"));
    }

    #[test]
    fn error_results_are_failures_too() {
        let jobs = vec![
            Job::new("ok", || Ok(JobOutput::new(1u64, Json::Null))),
            Job::new("bad", || Err("no such workload".to_string())),
        ];
        let report = run_jobs(jobs, 2);
        let bad = report.get("bad").unwrap().failure().unwrap();
        assert_eq!(bad.kind, FailureKind::Error);
        assert_eq!(bad.reason, "no such workload");
        assert_eq!(report.failures().count(), 1);
    }

    #[test]
    fn empty_and_oversubscribed_runs_are_fine() {
        let report = run_jobs(Vec::<Job<u64>>::new(), 8);
        assert!(report.is_empty());
        assert!(report.summary().contains("0 job(s)"));
        let report = run_jobs(square_jobs(2), 64);
        assert_eq!(report.ok_count(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate job key")]
    fn duplicate_keys_are_rejected() {
        let jobs = vec![
            Job::new("same", || Ok(JobOutput::new(1u64, Json::Null))),
            Job::new("same", || Ok(JobOutput::new(2u64, Json::Null))),
        ];
        run_jobs(jobs, 1);
    }

    #[test]
    fn require_reports_missing_and_failed_jobs() {
        let report = run_jobs(square_jobs(1), 1);
        assert!(report.require("sq/000").is_ok());
        assert!(report
            .require("absent")
            .unwrap_err()
            .contains("never scheduled"));
    }
}
