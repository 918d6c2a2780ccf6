//! The paper's workloads, synthesized.
//!
//! * [`workload1`] — "a moderately heavy load for a CAD tool developer":
//!   compiles of several modules, the link and debug of the 12 000-line
//!   `espresso` CAD tool, the same tool optimizing a large PLA in the
//!   background, edits and miscellaneous commands, plus two performance
//!   monitors (Section 2).
//! * [`slc`] — the SPUR Common Lisp system and compiler compiling a set of
//!   benchmark programs.
//! * [`devmachine`] — a Sprite development machine for the Table 3.5
//!   page-out study: the Sprite developers' own machines, used for kernel
//!   hacking, mail, and paper writing.
//!
//! Sizing rationale: the synthetic working sets are sized against the
//! paper's memory ladder (5/6/8 MB with ~1 MB of kernel), so that 5 MB
//! pages heavily, 6 MB moderately, and 8 MB lightly — the gradient Tables
//! 3.3 and 4.1 depend on.

use spur_types::{Error, Result};

use crate::gen::TraceGenerator;
use crate::layout::{Layout, Region, SegKind};
use crate::process::{BehaviorSpec, ProcessSpec, Schedule};
use crate::stream::{Pid, RefMix};

/// The four regions belonging to one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcRegions {
    /// Program text.
    pub code: Region,
    /// Heap.
    pub heap: Region,
    /// Stack.
    pub stack: Region,
    /// File data.
    pub file: Region,
}

/// A fully laid-out workload: process specs plus their address-space
/// regions.
#[derive(Debug, Clone)]
pub struct Workload {
    name: String,
    specs: Vec<ProcessSpec>,
    layout: Layout,
    regions: Vec<ProcRegions>,
    shared: Option<Region>,
}

/// Multiplier applied to every phase length and activity period.
///
/// The synthetic workloads' *spatial* structure (working-set sizes) is
/// calibrated against the 5/6/8 MB memory ladder; this temporal stretch
/// calibrates their *churn rate* so that paging I/O is a minority of
/// elapsed time, as on the measured prototype (where a 948-second run
/// did ~4600 page-ins). Without it, scaled-down runs are paging-dominated
/// and every per-fault overhead drowns.
const TEMPORAL_SCALE: u64 = 6;

fn stretch(mut spec: ProcessSpec) -> ProcessSpec {
    spec.behavior.phase_len *= TEMPORAL_SCALE;
    if let Schedule::Periodic {
        active,
        idle,
        offset,
    } = spec.schedule
    {
        spec.schedule = Schedule::Periodic {
            active: active * TEMPORAL_SCALE,
            idle: idle * TEMPORAL_SCALE,
            offset: offset * TEMPORAL_SCALE,
        };
    }
    spec
}

impl Workload {
    /// Builds a workload, allocating global address space for every
    /// process.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] if there are no processes, a
    /// process's behavior or schedule is invalid
    /// ([`BehaviorSpec::validate`], [`Schedule::validate`]), a segment
    /// is empty, or the address space is exhausted.
    pub fn build(name: &str, specs: Vec<ProcessSpec>) -> Result<Workload> {
        Self::build_with_shared(name, specs, 0)
    }

    /// Builds a workload with a `shared_pages`-page region every process
    /// references (SPUR's whole point: processes sharing memory use the
    /// same global addresses, so shared data exercises the coherence
    /// protocol on a multiprocessor).
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] on the same conditions as
    /// [`Workload::build`].
    pub fn build_with_shared(
        name: &str,
        specs: Vec<ProcessSpec>,
        shared_pages: u64,
    ) -> Result<Workload> {
        if specs.is_empty() {
            return Err(Error::BadWorkload("workload has no processes".to_string()));
        }
        let mut layout = Layout::new();
        let mut regions = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            spec.validate()
                .map_err(|msg| Error::BadWorkload(format!("process {}: {msg}", spec.name)))?;
            let pid = Pid(i as u32);
            regions.push(ProcRegions {
                code: layout.add(pid, SegKind::Code, spec.code_pages)?,
                heap: layout.add(pid, SegKind::Heap, spec.heap_pages)?,
                stack: layout.add(pid, SegKind::Stack, spec.stack_pages)?,
                file: layout.add(pid, SegKind::FileData, spec.file_pages)?,
            });
        }
        let shared = if shared_pages > 0 {
            Some(layout.add(Pid(u32::MAX), SegKind::FileData, shared_pages)?)
        } else {
            None
        };
        Ok(Workload {
            name: name.to_string(),
            specs,
            layout,
            regions,
            shared,
        })
    }

    /// The shared region, if the workload declares one.
    pub fn shared_region(&self) -> Option<Region> {
        self.shared
    }

    /// The workload's name ("WORKLOAD1", "SLC", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The process specifications.
    pub fn processes(&self) -> &[ProcessSpec] {
        &self.specs
    }

    /// The regions of process `idx`.
    pub fn proc_regions(&self, idx: usize) -> ProcRegions {
        self.regions[idx]
    }

    /// Every allocated region (for registering with the VM system).
    pub fn regions(&self) -> &[Region] {
        self.layout.regions()
    }

    /// Total declared footprint in MB.
    pub fn footprint_mb(&self) -> f64 {
        self.layout.footprint_mb()
    }

    /// Creates a deterministic generator over this workload.
    pub fn generator(&self, seed: u64) -> TraceGenerator {
        TraceGenerator::new(self, seed)
    }
}

/// `WORKLOAD1`: the CAD-tool developer's day.
pub fn workload1() -> Workload {
    let mut procs = Vec::new();

    // espresso optimizing a large PLA in the background: compute-bound,
    // large slowly-shifting heap.
    let mut espresso = ProcessSpec::new("espresso-pla", 80, 1600, 16, 120);
    espresso.weight = 3;
    espresso.behavior = BehaviorSpec {
        code_hot_pages: 30,
        heap_hot_pages: 340,
        file_hot_pages: 20,
        phase_len: 900_000,
        phase_shift_frac: 0.18,
        alloc_write_frac: 0.05,
        ..BehaviorSpec::baseline()
    };
    procs.push(espresso);

    // Repeated compiles of CAD-tool modules: come and go, restarting on
    // fresh heaps each time (heavy zero-fill churn).
    let mut cc1 = ProcessSpec::new("cc1", 120, 1100, 24, 240);
    cc1.weight = 2;
    cc1.schedule = Schedule::Periodic {
        active: 2_800_000,
        idle: 1_400_000,
        offset: 0,
    };
    cc1.behavior = BehaviorSpec {
        code_hot_pages: 55,
        heap_hot_pages: 220,
        file_hot_pages: 45,
        phase_len: 450_000,
        phase_shift_frac: 0.30,
        alloc_write_frac: 0.09,
        ..BehaviorSpec::baseline()
    };
    procs.push(cc1);

    // The link and debug of espresso: bursty, file-dominated.
    let mut linker = ProcessSpec::new("link-debug", 48, 768, 16, 640);
    linker.schedule = Schedule::Periodic {
        active: 1_200_000,
        idle: 4_800_000,
        offset: 2_000_000,
    };
    linker.behavior = BehaviorSpec {
        code_hot_pages: 20,
        heap_hot_pages: 110,
        file_hot_pages: 160,
        heap_frac: 0.45,
        stack_frac: 0.10,
        seq_prob: 0.85,
        phase_len: 350_000,
        phase_shift_frac: 0.35,
        ..BehaviorSpec::baseline()
    };
    procs.push(linker);

    // Edits and miscellaneous file commands.
    let mut editor = ProcessSpec::new("editor-misc", 64, 480, 16, 320);
    editor.schedule = Schedule::Periodic {
        active: 600_000,
        idle: 1_800_000,
        offset: 900_000,
    };
    editor.behavior = BehaviorSpec {
        code_hot_pages: 24,
        heap_hot_pages: 50,
        file_hot_pages: 60,
        heap_frac: 0.5,
        stack_frac: 0.15,
        phase_len: 250_000,
        ..BehaviorSpec::baseline()
    };
    procs.push(editor);

    // Two performance monitors reporting VM and CPU status periodically.
    for (i, name) in ["vmstat-mon", "cpu-mon"].iter().enumerate() {
        let mut mon = ProcessSpec::new(name, 16, 192, 8, 24);
        mon.schedule = Schedule::Periodic {
            active: 120_000,
            idle: 1_000_000,
            offset: 300_000 * (i as u64 + 1),
        };
        mon.behavior = BehaviorSpec {
            code_hot_pages: 8,
            heap_hot_pages: 16,
            file_hot_pages: 8,
            phase_len: 100_000,
            ..BehaviorSpec::baseline()
        };
        procs.push(mon);
    }

    let procs = procs.into_iter().map(stretch).collect();
    Workload::build("WORKLOAD1", procs).expect("WORKLOAD1 spec is valid")
}

/// `SLC`: the SPUR Common Lisp compiler over a benchmark suite.
pub fn slc() -> Workload {
    let mut procs = Vec::new();

    // The Lisp system + compiler: one large allocation-heavy process.
    // Lisp's cons-heavy allocation reuses GC'd pages, so in-place updates
    // dominate and the fresh-page stream is moderate.
    let mut lisp = ProcessSpec::new("slc", 140, 2200, 24, 180);
    lisp.weight = 6;
    lisp.behavior = BehaviorSpec {
        mix: RefMix::new(48, 36, 16),
        code_hot_pages: 60,
        heap_hot_pages: 560,
        file_hot_pages: 24,
        zipf_theta: 0.8,
        phase_len: 1_100_000,
        phase_shift_frac: 0.22,
        alloc_write_frac: 0.06,
        read_before_write: 0.20,
        ..BehaviorSpec::baseline()
    };
    procs.push(lisp);

    // The benchmark programs being compiled arrive as file data through a
    // reader process.
    let mut reader = ProcessSpec::new("bench-reader", 24, 384, 8, 280);
    reader.schedule = Schedule::Periodic {
        active: 400_000,
        idle: 1_600_000,
        offset: 0,
    };
    reader.behavior = BehaviorSpec {
        code_hot_pages: 10,
        heap_hot_pages: 20,
        file_hot_pages: 70,
        heap_frac: 0.35,
        stack_frac: 0.10,
        seq_prob: 0.9,
        phase_len: 200_000,
        phase_shift_frac: 0.5,
        ..BehaviorSpec::baseline()
    };
    procs.push(reader);

    // A status monitor.
    let mut mon = ProcessSpec::new("monitor", 16, 192, 8, 16);
    mon.schedule = Schedule::Periodic {
        active: 100_000,
        idle: 900_000,
        offset: 500_000,
    };
    mon.behavior = BehaviorSpec {
        code_hot_pages: 8,
        heap_hot_pages: 12,
        file_hot_pages: 8,
        phase_len: 90_000,
        ..BehaviorSpec::baseline()
    };
    procs.push(mon);

    let procs = procs.into_iter().map(stretch).collect();
    Workload::build("SLC", procs).expect("SLC spec is valid")
}

/// A multiprocessor workload: `n` compute workers, one per CPU, all
/// reading and updating a shared data region (the configuration the
/// paper's multiprocessor arguments — software PTE updates, flush-all-
/// caches reference-bit clears — are about).
pub fn mp_workers(n: usize, shared_pages: u64) -> Workload {
    assert!(n > 0, "at least one worker");
    let mut procs = Vec::new();
    for i in 0..n {
        let mut w = ProcessSpec::new(&format!("worker{i}"), 48, 700, 16, 120);
        w.behavior = BehaviorSpec {
            code_hot_pages: 20,
            heap_hot_pages: 160,
            file_hot_pages: 24,
            shared_frac: 0.20,
            shared_hot_pages: 24,
            phase_len: 600_000,
            ..BehaviorSpec::baseline()
        };
        procs.push(w);
    }
    let procs = procs.into_iter().map(stretch).collect();
    Workload::build_with_shared("MP-WORKERS", procs, shared_pages).expect("mp spec is valid")
}

/// One of the Sprite development machines observed in Table 3.5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DevHost {
    /// Hostname as reported in the table.
    pub name: &'static str,
    /// Main memory in megabytes.
    pub mem_mb: u32,
    /// Observed uptime in hours (drives the simulated horizon).
    pub uptime_hours: u32,
    /// Seed so each host's activity pattern differs.
    pub seed: u64,
}

impl DevHost {
    /// The six machines of Table 3.5.
    pub fn table_3_5() -> Vec<DevHost> {
        vec![
            DevHost {
                name: "mace",
                mem_mb: 8,
                uptime_hours: 70,
                seed: 101,
            },
            DevHost {
                name: "sloth",
                mem_mb: 8,
                uptime_hours: 37,
                seed: 202,
            },
            DevHost {
                name: "mace",
                mem_mb: 8,
                uptime_hours: 46,
                seed: 303,
            },
            DevHost {
                name: "sage",
                mem_mb: 12,
                uptime_hours: 45,
                seed: 404,
            },
            DevHost {
                name: "fenugreek",
                mem_mb: 12,
                uptime_hours: 36,
                seed: 505,
            },
            DevHost {
                name: "murder",
                mem_mb: 16,
                uptime_hours: 119,
                seed: 606,
            },
        ]
    }
}

/// A Sprite development machine's workload: kernel builds, editing, mail,
/// and miscellaneous commands over a long uptime.
pub fn devmachine(host: &DevHost) -> Workload {
    let mut procs = Vec::new();

    // Long-running editor sessions: modest, steady.
    let mut editor = ProcessSpec::new("emacs", 160, 420, 16, 320);
    editor.weight = 2;
    editor.behavior = BehaviorSpec {
        code_hot_pages: 40,
        heap_hot_pages: 120,
        file_hot_pages: 48,
        phase_len: 700_000,
        phase_shift_frac: 0.2,
        ..BehaviorSpec::baseline()
    };
    procs.push(editor);

    // Kernel compiles: big bursts with fresh heaps.
    let mut cc = ProcessSpec::new("cc-kernel", 120, 2200, 24, 640);
    cc.weight = 3;
    cc.schedule = Schedule::Periodic {
        active: 2_000_000,
        idle: 2_000_000 + (host.seed % 7) * 300_000,
        offset: host.seed % 1_000_000,
    };
    cc.behavior = BehaviorSpec {
        code_hot_pages: 50,
        heap_hot_pages: 260,
        file_hot_pages: 70,
        phase_len: 400_000,
        phase_shift_frac: 0.3,
        alloc_write_frac: 0.10,
        ..BehaviorSpec::baseline()
    };
    procs.push(cc);

    // Mail and miscellaneous interactive commands.
    let mut mail = ProcessSpec::new("mail-misc", 60, 420, 12, 260);
    mail.schedule = Schedule::Periodic {
        active: 300_000,
        idle: 1_200_000,
        offset: (host.seed % 11) * 100_000,
    };
    mail.behavior = BehaviorSpec {
        code_hot_pages: 20,
        heap_hot_pages: 40,
        file_hot_pages: 50,
        heap_frac: 0.5,
        stack_frac: 0.1,
        phase_len: 200_000,
        ..BehaviorSpec::baseline()
    };
    procs.push(mail);

    // Paper/dissertation writing: text processing over file data.
    let mut tex = ProcessSpec::new("tex", 80, 360, 16, 420);
    tex.schedule = Schedule::Periodic {
        active: 900_000,
        idle: 2_700_000,
        offset: (host.seed % 5) * 400_000,
    };
    tex.behavior = BehaviorSpec {
        code_hot_pages: 30,
        heap_hot_pages: 90,
        file_hot_pages: 90,
        heap_frac: 0.55,
        stack_frac: 0.1,
        seq_prob: 0.85,
        phase_len: 300_000,
        ..BehaviorSpec::baseline()
    };
    procs.push(tex);

    // A second build stream (the Sprite tree is big; developers juggle
    // several module builds).
    let mut cc2 = ProcessSpec::new("cc-modules", 100, 1600, 24, 520);
    cc2.weight = 2;
    cc2.schedule = Schedule::Periodic {
        active: 1_500_000,
        idle: 2_500_000 + (host.seed % 5) * 200_000,
        offset: 700_000 + host.seed % 900_000,
    };
    cc2.behavior = BehaviorSpec {
        code_hot_pages: 40,
        heap_hot_pages: 220,
        file_hot_pages: 60,
        phase_len: 350_000,
        phase_shift_frac: 0.3,
        alloc_write_frac: 0.10,
        ..BehaviorSpec::baseline()
    };
    procs.push(cc2);

    let procs = procs.into_iter().map(stretch).collect();
    Workload::build(&format!("DEV-{}", host.name), procs).expect("dev spec is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload1_matches_paper_description() {
        let w = workload1();
        assert_eq!(w.name(), "WORKLOAD1");
        // espresso in the background plus compiles, link/debug, edits and
        // two monitors.
        assert!(w.processes().len() >= 6);
        assert!(w.processes().iter().any(|p| p.name.contains("espresso")));
        assert_eq!(
            w.processes()
                .iter()
                .filter(|p| p.name.contains("mon"))
                .count(),
            2,
            "two performance monitors"
        );
        // Footprint exceeds the largest study memory so paging can occur.
        assert!(w.footprint_mb() > 8.0, "footprint {}", w.footprint_mb());
    }

    #[test]
    fn slc_is_a_lisp_compiler_shape() {
        let w = slc();
        assert_eq!(w.name(), "SLC");
        let lisp = &w.processes()[0];
        assert!(
            lisp.heap_pages > 4 * lisp.code_pages,
            "Lisp is heap-dominated"
        );
    }

    #[test]
    fn regions_cover_every_process_segment() {
        let w = workload1();
        assert_eq!(w.regions().len(), w.processes().len() * 4);
        for i in 0..w.processes().len() {
            let r = w.proc_regions(i);
            assert_eq!(r.code.kind, SegKind::Code);
            assert_eq!(r.heap.kind, SegKind::Heap);
            assert_eq!(r.stack.kind, SegKind::Stack);
            assert_eq!(r.file.kind, SegKind::FileData);
        }
    }

    #[test]
    fn dev_hosts_match_table_3_5_inventory() {
        let hosts = DevHost::table_3_5();
        assert_eq!(hosts.len(), 6);
        assert_eq!(hosts.iter().filter(|h| h.mem_mb == 8).count(), 3);
        assert_eq!(hosts.iter().filter(|h| h.mem_mb == 12).count(), 2);
        assert_eq!(hosts.iter().filter(|h| h.mem_mb == 16).count(), 1);
        let w = devmachine(&hosts[0]);
        assert!(w.name().contains("mace"));
    }

    #[test]
    fn shared_region_is_allocated_and_exposed() {
        let w = mp_workers(3, 64);
        let shared = w.shared_region().expect("mp workload shares");
        assert_eq!(shared.pages, 64);
        assert_eq!(shared.kind, SegKind::FileData);
        // The shared region is part of the registered regions.
        assert!(w
            .regions()
            .iter()
            .any(|r| r.start == shared.start && r.pages == shared.pages));
        // Plain workloads have none.
        assert!(slc().shared_region().is_none());
    }

    #[test]
    fn shared_references_actually_occur() {
        let w = mp_workers(2, 64);
        let shared = w.shared_region().unwrap();
        let hits = w
            .generator(5)
            .take(200_000)
            .filter(|r| {
                let vpn = r.addr.vpn().index();
                vpn >= shared.start.index() && vpn < shared.start.index() + shared.pages
            })
            .count();
        // shared_frac is 0.2 of data references (~35% of refs + writes).
        let frac = hits as f64 / 200_000.0;
        assert!(
            (0.02..0.30).contains(&frac),
            "shared-reference fraction {frac}"
        );
    }

    #[test]
    fn empty_workload_is_rejected() {
        assert!(Workload::build("empty", vec![]).is_err());
    }

    #[test]
    fn generators_from_different_hosts_differ() {
        let hosts = DevHost::table_3_5();
        let a: Vec<_> = devmachine(&hosts[0])
            .generator(hosts[0].seed)
            .take(2000)
            .collect();
        let b: Vec<_> = devmachine(&hosts[3])
            .generator(hosts[3].seed)
            .take(2000)
            .collect();
        assert_ne!(a, b);
    }
}
