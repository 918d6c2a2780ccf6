//! Machine-readable run artifacts.
//!
//! A run persists as `<root>/<run>/`:
//!
//! * one `<job>.json` per cell — a pure function of the cell's inputs,
//!   byte-identical however many workers ran the sweep;
//! * `manifest.json` — schema version, run metadata, worker count,
//!   per-job wall times, and the failure list. Timings live *only*
//!   here so the per-job files stay deterministic.
//!
//! See `docs/ARTIFACTS.md` for the full schema.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::job::CompletedJob;
use crate::json::Json;
use crate::run::RunReport;

/// Version stamp written into every artifact file.
///
/// History: 1 = initial layout; 2 = optional per-job `metrics` (in the
/// manifest and job files) and `series` (job files) sections from the
/// observability layer. Both are additive and appear only when
/// observability was enabled for the run.
pub(crate) const SCHEMA_VERSION: u64 = 2;

/// The default artifact root: `$SPUR_RESULTS_DIR` or `results/json`.
pub fn default_root() -> PathBuf {
    match std::env::var_os("SPUR_RESULTS_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new("results").join("json"),
    }
}

/// Where a run's artifacts landed.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The run directory (`<root>/<run>`).
    pub dir: PathBuf,
    /// The manifest path (`<dir>/manifest.json`).
    pub manifest_path: PathBuf,
    /// `(job key, artifact file name)` pairs, in key order.
    pub files: Vec<(String, String)>,
}

/// Maps a job key to a filesystem-safe artifact file stem: key
/// characters outside `[A-Za-z0-9._-]` become `-`.
pub fn sanitize_key(key: &str) -> String {
    let stem: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    if stem.is_empty() {
        "job".to_string()
    } else {
        stem
    }
}

/// Writes every per-job artifact plus the manifest for a completed run.
///
/// Distinct keys that sanitize to the same file stem are disambiguated
/// with a deterministic `-2`, `-3`, … suffix (jobs are visited in key
/// order, so the numbering never depends on scheduling).
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or file writes.
pub fn write_run<T>(
    root: &Path,
    run_name: &str,
    report: &RunReport<T>,
    meta: &[(&str, Json)],
) -> io::Result<RunArtifacts> {
    let dir = root.join(run_name);
    fs::create_dir_all(&dir)?;

    let mut used = HashSet::new();
    let mut files = Vec::new();
    let mut manifest_jobs = Vec::new();
    for job in report.jobs() {
        let stem = sanitize_key(&job.key);
        let mut file = format!("{stem}.json");
        let mut n = 2u64;
        while !used.insert(file.clone()) {
            file = format!("{stem}-{n}.json");
            n += 1;
        }
        fs::write(dir.join(&file), job_artifact_json(job).encode_pretty())?;
        let mut entry = vec![
            ("key".to_string(), Json::from(job.key.as_str())),
            ("file".to_string(), Json::from(file.as_str())),
            ("status".to_string(), Json::from(status(job))),
            ("wall_ms".to_string(), Json::from(millis(job.wall))),
        ];
        if let Ok(output) = &job.outcome {
            if let Some(metrics) = &output.metrics {
                entry.push(("metrics".to_string(), metrics.clone()));
            }
        }
        manifest_jobs.push(Json::Obj(entry));
        files.push((job.key.clone(), file));
    }

    let secs = report.wall.as_secs_f64();
    let manifest = Json::object([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("run", Json::from(run_name)),
        ("workers", Json::from(report.workers)),
        ("wall_ms", Json::from(millis(report.wall))),
        (
            "jobs_per_sec",
            Json::from(if secs > 0.0 {
                report.len() as f64 / secs
            } else {
                0.0
            }),
        ),
        (
            "meta",
            Json::object(meta.iter().map(|(k, v)| (*k, v.clone()))),
        ),
        ("jobs", Json::Arr(manifest_jobs)),
        (
            "failures",
            Json::array(report.failures().map(|j| Json::from(j.key.as_str()))),
        ),
    ]);
    let manifest_path = dir.join("manifest.json");
    fs::write(&manifest_path, manifest.encode_pretty())?;

    Ok(RunArtifacts {
        dir,
        manifest_path,
        files,
    })
}

fn status<T>(job: &CompletedJob<T>) -> &'static str {
    if job.outcome.is_ok() {
        "ok"
    } else {
        "failed"
    }
}

fn millis(wall: Duration) -> f64 {
    wall.as_secs_f64() * 1e3
}

/// The per-job artifact document. Deliberately excludes timing (see
/// the module docs): success carries the job's data, failure carries
/// the kind and reason so a dead cell is still a readable record.
/// Observability payloads (`metrics`, `series`) appear only when the
/// job attached them — an uninstrumented run's files carry exactly the
/// pre-observability shape.
///
/// Public so a serving layer can stream the identical document
/// ([`Json::encode_pretty`] of this value is byte-for-byte what
/// [`write_run`] puts in the job's file) without going through the
/// filesystem.
pub fn job_artifact_json<T>(job: &CompletedJob<T>) -> Json {
    match &job.outcome {
        Ok(output) => {
            let mut fields = vec![
                ("schema_version".to_string(), Json::from(SCHEMA_VERSION)),
                ("key".to_string(), Json::from(job.key.as_str())),
                ("status".to_string(), Json::from("ok")),
                ("data".to_string(), output.artifact.clone()),
            ];
            if let Some(metrics) = &output.metrics {
                fields.push(("metrics".to_string(), metrics.clone()));
            }
            if let Some(series) = &output.series {
                fields.push(("series".to_string(), series.clone()));
            }
            Json::Obj(fields)
        }
        Err(failure) => Json::object([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("key", Json::from(job.key.as_str())),
            ("status", Json::from("failed")),
            ("kind", Json::from(failure.kind.as_str())),
            ("reason", Json::from(failure.reason.as_str())),
        ]),
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use crate::job::{Job, JobOutput};
    use crate::run::run_jobs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spur-harness-obs-{tag}-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn metrics_and_series_land_in_artifact_and_manifest() {
        let root = temp_dir("metrics");
        let jobs = vec![Job::new("cell/m", || {
            Ok(JobOutput::new(1u64, Json::from(1u64))
                .with_metrics(Json::object([("events_total", Json::from(42u64))]))
                .with_series(Json::object([("epoch", Json::from(100u64))])))
        })];
        let report = run_jobs(jobs, 1);
        let art = write_run(&root, "demo", &report, &[]).unwrap();

        let job_file = fs::read_to_string(art.dir.join("cell-m.json")).unwrap();
        assert!(job_file.contains("\"metrics\""));
        assert!(job_file.contains("\"events_total\": 42"));
        assert!(job_file.contains("\"series\""));

        let manifest = fs::read_to_string(&art.manifest_path).unwrap();
        assert!(manifest.contains("\"metrics\""));
        assert!(manifest.contains("\"events_total\": 42"));
        assert!(
            !manifest.contains("\"series\""),
            "the full series stays out of the manifest"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn absent_observability_adds_no_keys() {
        let root = temp_dir("plain");
        let jobs = vec![Job::new("cell/p", || {
            Ok(JobOutput::new(1u64, Json::from(1u64)))
        })];
        let report = run_jobs(jobs, 1);
        let art = write_run(&root, "demo", &report, &[]).unwrap();
        let job_file = fs::read_to_string(art.dir.join("cell-p.json")).unwrap();
        assert!(!job_file.contains("metrics"));
        assert!(!job_file.contains("series"));
        let manifest = fs::read_to_string(&art.manifest_path).unwrap();
        assert!(!manifest.contains("metrics"));
        fs::remove_dir_all(&root).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobOutput};
    use crate::run::run_jobs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spur-harness-{tag}-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sanitizes_keys_to_safe_stems() {
        assert_eq!(sanitize_key("table_4_1/SLC/5MB"), "table_4_1-SLC-5MB");
        assert_eq!(sanitize_key("a b\"c"), "a-b-c");
        assert_eq!(sanitize_key(""), "job");
        assert_eq!(sanitize_key("ok-1.2_3"), "ok-1.2_3");
    }

    #[test]
    fn writes_job_files_and_manifest() {
        let root = temp_dir("write");
        let jobs = vec![
            Job::new("cell/a", || Ok(JobOutput::new(1u64, Json::from(1u64)))),
            Job::new("cell/b", || -> Result<JobOutput<u64>, String> {
                Err("deliberate".to_string())
            }),
        ];
        let report = run_jobs(jobs, 2);
        let art = write_run(&root, "demo", &report, &[("seed", Json::from(1989u64))]).unwrap();

        assert_eq!(art.files.len(), 2);
        let ok_file = fs::read_to_string(art.dir.join("cell-a.json")).unwrap();
        assert!(ok_file.contains("\"status\": \"ok\""));
        assert!(ok_file.contains("\"data\": 1"));
        assert!(!ok_file.contains("wall"), "job artifacts carry no timing");

        let bad_file = fs::read_to_string(art.dir.join("cell-b.json")).unwrap();
        assert!(bad_file.contains("\"status\": \"failed\""));
        assert!(bad_file.contains("\"kind\": \"error\""));
        assert!(bad_file.contains("deliberate"));

        let manifest = fs::read_to_string(&art.manifest_path).unwrap();
        assert!(manifest.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(manifest.contains("\"run\": \"demo\""));
        assert!(manifest.contains("\"seed\": 1989"));
        assert!(manifest.contains("\"wall_ms\""));
        assert!(manifest.contains("\"failures\": [\n    \"cell/b\"\n  ]"));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn colliding_stems_get_deterministic_suffixes() {
        let root = temp_dir("collide");
        let jobs = vec![
            Job::new("a/b", || Ok(JobOutput::new(0u64, Json::Null))),
            Job::new("a-b", || Ok(JobOutput::new(1u64, Json::Null))),
        ];
        let report = run_jobs(jobs, 1);
        let art = write_run(&root, "demo", &report, &[]).unwrap();
        // Key order: "a-b" < "a/b", so "a-b" takes the bare stem.
        assert_eq!(art.files[0], ("a-b".to_string(), "a-b.json".to_string()));
        assert_eq!(art.files[1], ("a/b".to_string(), "a-b-2.json".to_string()));
        fs::remove_dir_all(&root).unwrap();
    }
}
