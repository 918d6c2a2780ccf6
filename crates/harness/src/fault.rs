//! Seeded deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] decides, purely from `(seed, key)`, whether a named
//! injection point trips. The decision is a hash, not a stateful RNG,
//! so it does not depend on thread scheduling: the same seed and rate
//! trip the same keys no matter how many workers run or in what order
//! they pop jobs. That is what lets chaos tests assert *byte-identical*
//! artifacts — the set of injected failures is a pure function of the
//! plan, and retries are the only moving part.
//!
//! `FaultPlan::fire_once` adds once-semantics on top: the first
//! evaluation of a tripping key fires, every later evaluation of the
//! same key passes. A retried job therefore succeeds, modeling a
//! transient fault (the interesting kind for retry logic) rather than a
//! deterministic crash loop.

use std::collections::HashSet;
use std::sync::Mutex;

use spur_types::hash::{fnv1a, mix64, FNV_OFFSET};

use crate::job::Job;

/// Parts-per-million denominator for fault rates.
const PPM: u64 = 1_000_000;

/// A deterministic, seeded fault-injection plan.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rate_ppm: u64,
    tripped: Mutex<HashSet<String>>,
}

impl FaultPlan {
    /// A plan tripping roughly `rate_ppm` of keys, decided by `seed`.
    pub fn new(seed: u64, rate_ppm: u64) -> Self {
        FaultPlan {
            seed,
            rate_ppm,
            tripped: Mutex::new(HashSet::new()),
        }
    }

    /// Whether `key` trips under this plan — stateless, so repeated
    /// calls agree.
    pub(crate) fn rolls(&self, key: &str) -> bool {
        roll(self.seed, key, self.rate_ppm)
    }

    /// Whether `key` should fail *now*: true exactly once per tripping
    /// key (transient-fault semantics).
    pub(crate) fn fire_once(&self, key: &str) -> bool {
        if !self.rolls(key) {
            return false;
        }
        self.tripped
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key.to_string())
    }
}

/// The stateless trip decision: FNV-1a over `(seed, key)`, finished
/// with a splitmix64-style avalanche, reduced mod one million and
/// compared against the rate. Std-only and stable across platforms.
pub fn roll(seed: u64, key: &str, rate_ppm: u64) -> bool {
    if rate_ppm == 0 {
        return false;
    }
    if rate_ppm >= PPM {
        return true;
    }
    // Avalanche so low rates are not biased by short keys.
    mix64(fnv1a(FNV_OFFSET ^ seed, key.as_bytes())) % PPM < rate_ppm
}

/// Wraps a job so it panics with `"injected fault: <fault_key>"` the
/// first time its fault key fires, and runs normally afterwards. Jobs
/// whose key does not trip are returned unchanged in behavior.
///
/// The fault key is usually the job key, but callers injecting at a
/// specific site (worker pop, response write) should qualify it, e.g.
/// `"worker/<job key>"`, so one plan can cover several sites at
/// independent odds.
pub fn arm<T: 'static>(plan: &std::sync::Arc<FaultPlan>, job: Job<T>, fault_key: &str) -> Job<T> {
    let plan = std::sync::Arc::clone(plan);
    let fault_key = fault_key.to_string();
    let Job { key, run } = job;
    Job {
        key,
        run: Box::new(move || {
            if plan.fire_once(&fault_key) {
                panic!("injected fault: {fault_key}");
            }
            run()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;
    use crate::json::Json;
    use crate::run::run_one;
    use crate::FailureKind;
    use std::sync::Arc;

    #[test]
    fn rolls_are_deterministic_and_rate_shaped() {
        let hits: usize = (0..10_000)
            .filter(|i| roll(7, &format!("job/{i}"), 100_000))
            .count();
        // 10% nominal; the hash is not a perfect die but must be close.
        assert!((700..1_300).contains(&hits), "{hits} hits");
        for i in 0..100 {
            let key = format!("job/{i}");
            assert_eq!(roll(7, &key, 100_000), roll(7, &key, 100_000));
        }
        // The seed reshuffles which keys trip.
        assert!((0..10_000).any(
            |i| roll(7, &format!("job/{i}"), 100_000) != roll(8, &format!("job/{i}"), 100_000)
        ));
    }

    #[test]
    fn fire_once_is_transient() {
        let plan = FaultPlan::new(1, PPM);
        assert!(plan.fire_once("spin"));
        assert!(!plan.fire_once("spin"));
        assert!(plan.rolls("spin"));
        assert!(plan.tripped.lock().unwrap().contains("spin"));
    }

    #[test]
    fn an_armed_job_panics_once_then_retries_clean() {
        let plan = Arc::new(FaultPlan::new(3, PPM));
        let mk = || Job::new("cell", || Ok(JobOutput::new(9u64, Json::UInt(9))));

        let first = run_one(arm(&plan, mk(), "worker/cell"));
        let failure = first.failure().expect("armed job must panic first");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.reason.contains("injected fault: worker/cell"));

        let second = run_one(arm(&plan, mk(), "worker/cell"));
        assert_eq!(second.value(), Some(&9));
    }

    #[test]
    fn a_disabled_plan_never_interferes() {
        let plan = Arc::new(FaultPlan::new(0, 0));
        let job = Job::new("cell", || Ok(JobOutput::new(1u64, Json::UInt(1))));
        let done = run_one(arm(&plan, job, "worker/cell"));
        assert_eq!(done.value(), Some(&1));
        assert!(plan.tripped.lock().unwrap().is_empty());
    }
}
