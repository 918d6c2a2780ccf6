//! Layer timing for traced runs.
//!
//! A traced run calls each layer's public functions in turn from this
//! benchmark and wraps every call in [`LayerClock::time`]. Layers never
//! nest, so a layer's self time is simply the sum of its calls, and the
//! self times must add up to the traced wall time within
//! [`RECONCILE_TOLERANCE`]; whatever is left over is the benchmark's
//! own bookkeeping between calls.

use std::time::{Duration, Instant};

/// Largest accepted `|wall − Σ layer self time| ÷ wall` for a traced
/// run. A larger gap means some layer's work went untimed, and the run
/// fails its reconciliation check.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// The layers a traced run times. Each is one public entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Workload construction, `SpurSystem::new`, `load_workload`.
    Setup,
    /// `TraceGenerator::next`, filling a reusable batch.
    Gen,
    /// `MpScheduler::next`, filling a reusable batch.
    Sched,
    /// `SpurSystem::run` over one pre-generated batch.
    Sim,
    /// `SpurSystem::finish_obs`.
    ObsFinish,
    /// `spur_core::jobs::attach_obs`: the metrics, series and
    /// Chrome-trace documents a job output carries.
    ObsExport,
    /// Building the row, then `job_artifact_json` plus `encode_pretty`.
    Encode,
    /// `spur_obs::validate::parse` on a request or response document.
    JsonParse,
    /// `spur_serve::parse_job_spec` on a request body.
    SpecParse,
    /// `POST /v1/jobs`.
    Submit,
    /// `GET /v1/jobs/{id}`.
    Status,
    /// `GET /v1/jobs/{id}/result`.
    Result,
    /// `GET /v1/jobs/{id}/trace`.
    TraceFetch,
    /// The client's sleep between status polls.
    PollWait,
}

const LAYERS: usize = 14;

/// Accumulated self time and call counts per layer, plus the wall time
/// the calls were made in.
#[derive(Debug, Clone, Default)]
pub struct LayerClock {
    spent: [Duration; LAYERS],
    calls: [u64; LAYERS],
    wall: Duration,
}

impl LayerClock {
    /// Runs `f` as one call into `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.spent[layer as usize] += start.elapsed();
        self.calls[layer as usize] += 1;
        out
    }

    /// Adds the wall time of a traced section.
    pub fn add_wall(&mut self, wall: Duration) {
        self.wall += wall;
    }

    /// Folds another clock (another thread, another unit) into this one.
    pub fn merge(&mut self, other: &LayerClock) {
        for i in 0..LAYERS {
            self.spent[i] += other.spent[i];
            self.calls[i] += other.calls[i];
        }
        self.wall += other.wall;
    }

    /// Self time spent in `layer`, in seconds.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.spent[layer as usize].as_secs_f64()
    }

    /// Calls made into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Mean seconds per call into `layer`; zero when never called.
    pub fn mean_secs(&self, layer: Layer) -> f64 {
        match self.calls(layer) {
            0 => 0.0,
            n => self.secs(layer) / n as f64,
        }
    }

    /// Traced wall time, in seconds.
    pub fn wall_secs(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// `|wall − Σ self time| ÷ wall`.
    pub fn reconcile_gap(&self) -> f64 {
        let attributed: Duration = self.spent.iter().sum();
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            return 0.0;
        }
        (wall - attributed.as_secs_f64()).abs() / wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_wall() {
        let mut clock = LayerClock::default();
        let start = Instant::now();
        for _ in 0..3 {
            clock.time(Layer::Gen, || std::thread::sleep(Duration::from_millis(2)));
            clock.time(Layer::Sim, || std::thread::sleep(Duration::from_millis(3)));
        }
        clock.add_wall(start.elapsed());
        assert_eq!(clock.calls(Layer::Gen), 3);
        assert!(clock.secs(Layer::Sim) > clock.secs(Layer::Gen));
        assert!(clock.reconcile_gap() < RECONCILE_TOLERANCE);
    }

    #[test]
    fn untimed_work_shows_as_a_gap() {
        let mut clock = LayerClock::default();
        let start = Instant::now();
        // The untimed sleep is long enough that a late wake-up of the
        // timed one, while other tests keep both cores busy, cannot
        // close the gap.
        clock.time(Layer::Sim, || std::thread::sleep(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(40));
        clock.add_wall(start.elapsed());
        assert!(clock.reconcile_gap() > 0.5);
    }

    #[test]
    fn merge_sums_calls_and_wall() {
        let mut a = LayerClock::default();
        a.time(Layer::Submit, || ());
        a.add_wall(Duration::from_millis(1));
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.calls(Layer::Submit), 2);
        assert_eq!(b.wall_secs(), 0.002);
    }
}
