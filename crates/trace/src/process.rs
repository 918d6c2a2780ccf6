//! Process specifications: segment sizes, behavior parameters, and
//! activity schedules.

use core::fmt;

use crate::stream::RefMix;

/// Behavioral parameters of a simulated process.
///
/// The defaults are tuned to reproduce the locality statistics the paper
/// reports (hit ratios of a 128 KB cache, the ~1:5 read-before-write
/// ratio, and zero-fill-dominated dirty faults); individual workloads
/// override fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorSpec {
    /// Instruction/read/write mix.
    pub mix: RefMix,
    /// Hot code pages (instruction working set).
    pub code_hot_pages: usize,
    /// Hot heap pages.
    pub heap_hot_pages: usize,
    /// Hot stack pages.
    pub stack_hot_pages: usize,
    /// Hot file-data pages.
    pub file_hot_pages: usize,
    /// Zipf exponent for hot-set popularity.
    pub zipf_theta: f64,
    /// References between working-set shifts.
    pub phase_len: u64,
    /// Fraction of each hot set replaced at a phase shift.
    pub phase_shift_frac: f64,
    /// Probability a reference advances sequentially within its page.
    pub seq_prob: f64,
    /// Probability a data reference goes to the heap (vs stack/file).
    pub heap_frac: f64,
    /// Probability a data reference goes to the stack.
    pub stack_frac: f64,
    /// Probability a write targets a recently *read* block (this is what
    /// produces `N_w-hit`: blocks brought in by a read, modified later).
    pub read_before_write: f64,
    /// Probability a write streams through fresh allocation pages
    /// (zero-fill churn) rather than updating hot pages in place.
    pub alloc_write_frac: f64,
    /// Probability a data read misses the hot set entirely and touches a
    /// cold page (promoting it).
    pub cold_read_frac: f64,
    /// Probability an in-place update write targets an old read-hot page
    /// instead of the write-hot set. This is the knob behind the paper's
    /// excess-fault ratio: such pages have been cached clean for a long
    /// time, so modifying them trips one stale-protection fault per
    /// previously cached block.
    pub old_page_write_frac: f64,
    /// Probability a data read targets the write-hot (actively modified)
    /// pages rather than the read working set. These reads land on
    /// already-dirty pages, so the blocks they bring in are later
    /// modified without faults — the paper's large `N_w-hit` population.
    pub rw_read_frac: f64,
    /// Mean accesses per data-read burst (block-level temporal reuse).
    pub read_burst: u32,
    /// Mean accesses per update-write burst.
    pub write_burst: u32,
    /// Probability a data reference targets the workload's *shared*
    /// region (zero unless the workload declares one). Shared references
    /// are what exercise the Berkeley Ownership protocol on a
    /// multiprocessor node.
    pub shared_frac: f64,
    /// Hot pages kept in the shared region's working set.
    pub shared_hot_pages: usize,
}

impl BehaviorSpec {
    /// Baseline behavior: a compute-bound C-like program.
    pub fn baseline() -> Self {
        BehaviorSpec {
            mix: RefMix::default_mix(),
            code_hot_pages: 12,
            heap_hot_pages: 48,
            stack_hot_pages: 4,
            file_hot_pages: 8,
            zipf_theta: 0.9,
            phase_len: 400_000,
            phase_shift_frac: 0.25,
            seq_prob: 0.7,
            heap_frac: 0.7,
            stack_frac: 0.2,
            read_before_write: 0.08,
            alloc_write_frac: 0.12,
            cold_read_frac: 0.002,
            old_page_write_frac: 0.001,
            rw_read_frac: 0.05,
            read_burst: 24,
            write_burst: 16,
            shared_frac: 0.0,
            shared_hot_pages: 16,
        }
    }

    /// Checks that every probability is in range and every count the
    /// generator divides by, samples from or counts down is positive.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("phase_shift_frac", self.phase_shift_frac),
            ("seq_prob", self.seq_prob),
            ("heap_frac", self.heap_frac),
            ("stack_frac", self.stack_frac),
            ("read_before_write", self.read_before_write),
            ("alloc_write_frac", self.alloc_write_frac),
            ("cold_read_frac", self.cold_read_frac),
            ("old_page_write_frac", self.old_page_write_frac),
            ("rw_read_frac", self.rw_read_frac),
            ("shared_frac", self.shared_frac),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} = {v} out of [0,1]"));
            }
        }
        if self.heap_frac + self.stack_frac > 1.0 {
            return Err("heap_frac + stack_frac must leave room for file data".into());
        }
        if !(self.zipf_theta.is_finite() && self.zipf_theta >= 0.0) {
            return Err(format!(
                "zipf_theta = {} must be finite and >= 0",
                self.zipf_theta
            ));
        }
        if self.phase_len == 0 {
            return Err("phase_len must be positive".into());
        }
        if self.code_hot_pages == 0 || self.heap_hot_pages == 0 {
            return Err("code and heap hot sets must be nonempty".into());
        }
        if self.read_burst == 0 || self.write_burst == 0 {
            return Err("bursts must be positive".into());
        }
        Ok(())
    }
}

impl Default for BehaviorSpec {
    fn default() -> Self {
        Self::baseline()
    }
}

/// When a process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Runs for the whole workload (daemons, the background PLA
    /// optimizer).
    AlwaysOn,
    /// Alternates activity and idleness, phase-shifted by `offset`
    /// references (compiles, editor bursts). On each wake the process is
    /// treated as a fresh program instance: its working sets restart on
    /// fresh pages (new heap ⇒ zero-fill churn).
    Periodic {
        /// References of activity per burst.
        active: u64,
        /// References of idleness between bursts.
        idle: u64,
        /// Initial offset into the cycle.
        offset: u64,
    },
}

/// One activation burst of a process: its instance number and the
/// global time at which it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Activation {
    /// Which burst this is (0 for the first, and always for
    /// [`Schedule::AlwaysOn`]).
    pub(crate) instance: u64,
    /// The first global time outside this burst: the process is idle
    /// there or in its next instance. `u64::MAX` for
    /// [`Schedule::AlwaysOn`], which never ends.
    pub(crate) end: u64,
}

impl Schedule {
    /// Whether the process is active at the generator's global time `t`
    /// (references issued by every process, plus the quanta that pass
    /// while all of them idle; not the process's own count), and which
    /// activation burst (instance number) it is in.
    pub fn instance_at(&self, t: u64) -> Option<u64> {
        self.activation_at(t).map(|a| a.instance)
    }

    /// The activation burst running at global time `t`, if any, with
    /// the time it ends: [`Schedule::instance_at`] holds its
    /// value on `t..end` and changes at `end`.
    pub(crate) fn activation_at(&self, t: u64) -> Option<Activation> {
        match *self {
            Schedule::AlwaysOn => Some(Activation {
                instance: 0,
                end: u64::MAX,
            }),
            Schedule::Periodic {
                active,
                idle,
                offset,
            } => {
                let cycle = active + idle;
                let pos = (t + offset) % cycle;
                (pos < active).then(|| Activation {
                    instance: (t + offset) / cycle,
                    end: t + (active - pos),
                })
            }
        }
    }

    /// Checks that a periodic schedule has activity and that its cycle
    /// arithmetic (`active + idle + offset`) fits in a `u64`.
    ///
    /// # Errors
    ///
    /// Returns a message for a zero `active` or an overflowing cycle.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Schedule::AlwaysOn => Ok(()),
            Schedule::Periodic {
                active,
                idle,
                offset,
            } => {
                if active == 0 {
                    return Err("schedule needs active > 0".into());
                }
                match active.checked_add(idle).and_then(|c| c.checked_add(offset)) {
                    Some(_) => Ok(()),
                    None => Err(format!(
                        "schedule active={active} idle={idle} offset={offset} overflows u64"
                    )),
                }
            }
        }
    }
}

/// A process of a workload: segment sizes (in pages), behavior, and
/// schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessSpec {
    /// Human-readable name ("cc1", "espresso", "slc").
    pub name: String,
    /// Code pages.
    pub code_pages: u64,
    /// Heap pages (the region cycles through these for fresh
    /// allocations).
    pub heap_pages: u64,
    /// Stack pages.
    pub stack_pages: u64,
    /// File-data pages.
    pub file_pages: u64,
    /// Behavior parameters.
    pub behavior: BehaviorSpec,
    /// Activity schedule.
    pub schedule: Schedule,
    /// Scheduling weight: how many quanta this process gets per
    /// round-robin turn (the background optimizer is compute-bound and
    /// gets more).
    pub weight: u32,
}

impl ProcessSpec {
    /// Creates an always-on process with baseline behavior.
    pub fn new(name: &str, code: u64, heap: u64, stack: u64, file: u64) -> Self {
        ProcessSpec {
            name: name.to_string(),
            code_pages: code,
            heap_pages: heap,
            stack_pages: stack,
            file_pages: file,
            behavior: BehaviorSpec::baseline(),
            schedule: Schedule::AlwaysOn,
            weight: 1,
        }
    }

    /// Total declared pages.
    pub fn total_pages(&self) -> u64 {
        self.code_pages + self.heap_pages + self.stack_pages + self.file_pages
    }

    /// Checks the weight, the behavior and the schedule.
    ///
    /// # Errors
    ///
    /// Returns a message naming the broken rule. A zero weight gives a
    /// zero quantum, which would never yield the CPU.
    pub fn validate(&self) -> Result<(), String> {
        if self.weight == 0 {
            return Err("weight must be positive".into());
        }
        self.behavior.validate()?;
        self.schedule.validate()
    }
}

impl fmt::Display for ProcessSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[code={} heap={} stack={} file={} pages]",
            self.name, self.code_pages, self.heap_pages, self.stack_pages, self.file_pages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        BehaviorSpec::baseline().validate().unwrap();
    }

    #[test]
    fn invalid_probability_is_rejected() {
        let mut b = BehaviorSpec::baseline();
        b.read_before_write = 1.5;
        let err = b.validate().unwrap_err();
        assert!(err.contains("read_before_write"), "{err}");
        b.read_before_write = f64::NAN;
        assert!(b.validate().is_err());
    }

    #[test]
    fn segment_fractions_must_fit() {
        let mut b = BehaviorSpec::baseline();
        b.heap_frac = 0.8;
        b.stack_frac = 0.3;
        let err = b.validate().unwrap_err();
        assert!(err.contains("room for file data"), "{err}");
    }

    #[test]
    fn counts_and_theta_are_checked() {
        let base = BehaviorSpec::baseline();
        for (needle, b) in [
            (
                "phase_len",
                BehaviorSpec {
                    phase_len: 0,
                    ..base
                },
            ),
            (
                "hot sets",
                BehaviorSpec {
                    heap_hot_pages: 0,
                    ..base
                },
            ),
            (
                "hot sets",
                BehaviorSpec {
                    code_hot_pages: 0,
                    ..base
                },
            ),
            (
                "bursts",
                BehaviorSpec {
                    read_burst: 0,
                    ..base
                },
            ),
            (
                "zipf_theta",
                BehaviorSpec {
                    zipf_theta: -1.0,
                    ..base
                },
            ),
            (
                "zipf_theta",
                BehaviorSpec {
                    zipf_theta: f64::INFINITY,
                    ..base
                },
            ),
        ] {
            let err = b.validate().unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn schedules_are_checked() {
        assert!(Schedule::AlwaysOn.validate().is_ok());
        let periodic = |active, idle, offset| Schedule::Periodic {
            active,
            idle,
            offset,
        };
        assert!(periodic(10, 5, 3).validate().is_ok());
        assert!(periodic(0, 5, 0).validate().is_err());
        assert!(periodic(1 << 63, 1 << 63, 0).validate().is_err());
        assert!(periodic(u64::MAX - 1, 1, 1).validate().is_err());
        assert!(periodic(u64::MAX - 2, 1, 1).validate().is_ok());
    }

    /// The activation end is the first time a brute-force scan of
    /// `instance_at` sees a different value, for random periodic
    /// schedules and start times.
    #[test]
    fn activation_end_is_where_the_instance_changes() {
        let mut rng = spur_types::rng::SmallRng::seed_from_u64(0xac71_0001);
        for _ in 0..300 {
            let s = Schedule::Periodic {
                active: rng.random_range(1u64..=60),
                idle: rng.random_range(0u64..=60),
                offset: rng.random_range(0u64..=200),
            };
            let t = rng.random_range(0u64..=500);
            match s.activation_at(t) {
                None => assert_eq!(s.instance_at(t), None),
                Some(a) => {
                    assert_eq!(Some(a.instance), s.instance_at(t));
                    let changes = (t + 1..).find(|&u| s.instance_at(u) != Some(a.instance));
                    assert_eq!(changes, Some(a.end), "{s:?} at {t}");
                }
            }
        }
        let a = Schedule::AlwaysOn.activation_at(1 << 40).unwrap();
        assert_eq!((a.instance, a.end), (0, u64::MAX));
    }

    #[test]
    fn always_on_is_always_instance_zero() {
        assert_eq!(Schedule::AlwaysOn.instance_at(0), Some(0));
        assert_eq!(Schedule::AlwaysOn.instance_at(1 << 40), Some(0));
    }

    #[test]
    fn periodic_schedule_cycles() {
        let s = Schedule::Periodic {
            active: 10,
            idle: 5,
            offset: 0,
        };
        assert_eq!(s.instance_at(0), Some(0));
        assert_eq!(s.instance_at(9), Some(0));
        assert_eq!(s.instance_at(10), None);
        assert_eq!(s.instance_at(14), None);
        assert_eq!(s.instance_at(15), Some(1));
        assert_eq!(s.instance_at(29), None);
        assert_eq!(s.instance_at(30), Some(2));
    }

    #[test]
    fn periodic_offset_shifts_the_cycle() {
        let s = Schedule::Periodic {
            active: 10,
            idle: 10,
            offset: 10,
        };
        assert_eq!(s.instance_at(0), None, "starts idle");
        assert_eq!(s.instance_at(10), Some(1));
    }

    #[test]
    fn process_spec_totals() {
        let p = ProcessSpec::new("cc1", 10, 20, 3, 5);
        assert_eq!(p.total_pages(), 38);
        assert!(p.to_string().contains("cc1"));
    }
}
