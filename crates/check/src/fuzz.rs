//! Workload fuzzing: random configurations + random reference streams,
//! run system-vs-oracle, with ddmin-style shrinking of failures down to
//! a minimal explicit repro spec.
//!
//! A [`FuzzCase`] is fully explicit — the reference list is stored, not
//! regenerated — so shrinking can delete references and the case can be
//! serialized as JSON, checked into `results/repros/`, and replayed
//! bit-for-bit later (`spur-fuzz --replay`). Cases are generated under
//! deliberate memory pressure (usable frames are randomized well below
//! the region footprint) so reclaim, write-back, and soft-fault paths
//! all get exercised, not just first-touch faults.

use spur_core::{DirtyPolicy, SimConfig};
use spur_harness::Json;
use spur_obs::validate;
use spur_trace::stream::{Pid, TraceRef};
use spur_types::rng::SmallRng;
use spur_types::{AccessKind, CostParams, GlobalAddr, MemSize};
use spur_vm::policy::RefPolicy;
use spur_vm::region::PageKind;

use crate::lockstep::{Divergence, Lockstep};
use crate::oracle::Mutation;

/// Pages per segment (30-bit segments, 12-bit pages).
const PAGES_PER_SEGMENT_SHIFT: u64 = 18;
/// Frames per megabyte of simulated memory (4 KB pages).
const FRAMES_PER_MB: u64 = 256;

/// One region of a fuzzed address space. Regions live at the base of
/// distinct segments (never segment 255, the page-table segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzRegion {
    /// Segment number (region starts at the segment's first page).
    pub segment: u64,
    /// Region length in pages.
    pub pages: u64,
    /// Page kind (decides writability and zero-fill behavior).
    pub kind: PageKind,
}

impl FuzzRegion {
    /// Index of the region's first page.
    pub(crate) fn start_page(&self) -> u64 {
        self.segment << PAGES_PER_SEGMENT_SHIFT
    }
}

/// One explicit reference of a fuzzed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzRef {
    /// Issuing process (cpu is `pid % cpus`).
    pub pid: u32,
    /// Raw global address.
    pub addr: u64,
    /// Fetch, read, or write.
    pub access: AccessKind,
}

/// A fully explicit differential test case: configuration, regions, and
/// the complete reference list.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Seed this case was generated from (repro bookkeeping only; the
    /// case replays from its explicit fields).
    pub seed: u64,
    /// Main-memory megabytes.
    pub mem_mb: u32,
    /// Dirty-bit mechanism.
    pub dirty: DirtyPolicy,
    /// Reference-bit policy.
    pub ref_policy: RefPolicy,
    /// Processor count.
    pub cpus: usize,
    /// Free-list soft faults on/off.
    pub soft_faults: bool,
    /// Clear-only daemon period, if any.
    pub daemon_period: Option<u64>,
    /// Frames wired for the kernel (randomized high to force paging
    /// pressure in a small address space).
    pub kernel_reserved_frames: u32,
    /// Page-daemon low watermark.
    pub free_low_water: u32,
    /// Page-daemon high watermark.
    pub free_high_water: u32,
    /// The fuzzed address space.
    pub regions: Vec<FuzzRegion>,
    /// The fuzzed reference stream.
    pub refs: Vec<FuzzRef>,
}

/// The result of running one case differentially.
#[derive(Debug)]
pub enum FuzzOutcome {
    /// System and oracle agreed on every reference.
    Pass {
        /// References stepped.
        refs: u64,
    },
    /// The models split.
    Fail {
        /// Index into `case.refs` of the offending reference.
        failing_index: usize,
        /// Full divergence report.
        divergence: Box<Divergence>,
    },
}

impl FuzzCase {
    /// Deterministically generates case number `seed`.
    pub fn generate(seed: u64) -> FuzzCase {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mem_mb = rng.random_range(1..=2u32);
        let frames = mem_mb as u64 * FRAMES_PER_MB;
        // Usable memory deliberately smaller than the footprint below,
        // so the page daemon has real work.
        let usable = rng.random_range(70..=180u64);
        let kernel_reserved_frames = (frames - usable) as u32;
        let dirty = DirtyPolicy::ALL[rng.random_range(0..DirtyPolicy::ALL.len())];
        let ref_policy =
            [RefPolicy::Miss, RefPolicy::Ref, RefPolicy::Noref][rng.random_range(0..3usize)];
        let cpus = rng.random_range(1..=3usize);
        let soft_faults = rng.next_u64() & 1 == 0;
        let daemon_period = if rng.next_u64().is_multiple_of(4) {
            Some(rng.random_range(100..=600u64))
        } else {
            None
        };

        // 2–4 regions in distinct low segments, one always Code so
        // protection violations stay reachable; total footprint 1.2×–2.5×
        // usable memory.
        let nregions = rng.random_range(2..=4usize);
        let footprint = usable * rng.random_range(120..=250u64) / 100;
        let kinds = [
            PageKind::Code,
            PageKind::Heap,
            PageKind::Stack,
            PageKind::FileData,
        ];
        let mut regions = Vec::with_capacity(nregions);
        for i in 0..nregions {
            let kind = if i == 0 {
                PageKind::Code
            } else {
                kinds[rng.random_range(0..kinds.len())]
            };
            let share = footprint / nregions as u64;
            let pages = (share * rng.random_range(60..=140u64) / 100).max(4);
            regions.push(FuzzRegion {
                segment: 1 + i as u64,
                pages,
                kind,
            });
        }

        let nrefs = rng.random_range(600..=2000usize);
        let mut refs = Vec::with_capacity(nrefs);
        let total_pages: u64 = regions.iter().map(|r| r.pages).sum();
        for _ in 0..nrefs {
            // Pick a page uniformly across the whole footprint, then a
            // block within it.
            let mut pick = rng.random_range(0..total_pages);
            let region = regions
                .iter()
                .find(|r| {
                    if pick < r.pages {
                        true
                    } else {
                        pick -= r.pages;
                        false
                    }
                })
                .expect("pick is within the total");
            let page = region.start_page() + pick;
            let block = rng.random_range(0..128u64);
            let access = if region.kind == PageKind::Code {
                // Mostly fetched, occasionally (illegally) written so the
                // ProtFault abort path stays covered.
                match rng.random_range(0..20u32) {
                    0 => AccessKind::Write,
                    1..=6 => AccessKind::Read,
                    _ => AccessKind::InstrFetch,
                }
            } else {
                match rng.random_range(0..10u32) {
                    0 => AccessKind::InstrFetch,
                    1..=5 => AccessKind::Read,
                    _ => AccessKind::Write,
                }
            };
            refs.push(FuzzRef {
                pid: rng.random_range(0..(2 * cpus as u32)),
                addr: page * 4096 + block * 32,
                access,
            });
        }

        FuzzCase {
            seed,
            mem_mb,
            dirty,
            ref_policy,
            cpus,
            soft_faults,
            daemon_period,
            kernel_reserved_frames,
            free_low_water: 8,
            free_high_water: 24,
            regions,
            refs,
        }
    }

    /// The `SimConfig` this case runs under.
    pub(crate) fn sim_config(&self) -> SimConfig {
        SimConfig {
            mem: MemSize::new(self.mem_mb),
            costs: CostParams::paper(),
            dirty: self.dirty,
            ref_policy: self.ref_policy,
            kernel_reserved_frames: self.kernel_reserved_frames,
            free_low_water: self.free_low_water,
            free_high_water: self.free_high_water,
            cpus: self.cpus,
            soft_faults: self.soft_faults,
            daemon_period: self.daemon_period,
            counter_mode: None,
        }
    }

    /// Serializes the case as a replayable JSON repro spec.
    pub(crate) fn to_json(&self) -> Json {
        Json::object([
            ("seed", Json::UInt(self.seed)),
            ("mem_mb", Json::UInt(self.mem_mb as u64)),
            (
                "dirty",
                Json::Str(self.dirty.to_string().to_ascii_lowercase()),
            ),
            (
                "ref_policy",
                Json::Str(self.ref_policy.to_string().to_ascii_lowercase()),
            ),
            ("cpus", Json::UInt(self.cpus as u64)),
            ("soft_faults", Json::Bool(self.soft_faults)),
            (
                "daemon_period",
                match self.daemon_period {
                    Some(n) => Json::UInt(n),
                    None => Json::Null,
                },
            ),
            (
                "kernel_reserved_frames",
                Json::UInt(self.kernel_reserved_frames as u64),
            ),
            ("free_low_water", Json::UInt(self.free_low_water as u64)),
            ("free_high_water", Json::UInt(self.free_high_water as u64)),
            (
                "regions",
                Json::array(self.regions.iter().map(|r| {
                    Json::object([
                        ("segment", Json::UInt(r.segment)),
                        ("pages", Json::UInt(r.pages)),
                        ("kind", Json::Str(kind_name(r.kind).to_string())),
                    ])
                })),
            ),
            (
                "refs",
                Json::array(self.refs.iter().map(|r| {
                    Json::array([
                        Json::UInt(r.pid as u64),
                        Json::UInt(r.addr),
                        Json::Str(access_name(r.access).to_string()),
                    ])
                })),
            ),
        ])
    }

    /// Pretty-printed JSON repro spec.
    pub fn encode(&self) -> String {
        self.to_json().encode_pretty()
    }

    /// Parses a repro spec produced by [`FuzzCase::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn decode(input: &str) -> Result<FuzzCase, String> {
        let doc = validate::parse(input).map_err(|e| e.to_string())?;
        FuzzCase::from_json(&doc)
    }

    /// Builds a case from a parsed JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub(crate) fn from_json(doc: &Json) -> Result<FuzzCase, String> {
        let regions = match field(doc, "regions")? {
            Json::Arr(items) => items
                .iter()
                .map(|r| {
                    Ok(FuzzRegion {
                        segment: uint(field(r, "segment")?, "segment")?,
                        pages: uint(field(r, "pages")?, "pages")?,
                        kind: parse_kind(str_field(r, "kind")?)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("regions: expected an array".to_string()),
        };
        let refs = match field(doc, "refs")? {
            Json::Arr(items) => items
                .iter()
                .map(|r| match r {
                    Json::Arr(parts) if parts.len() == 3 => Ok(FuzzRef {
                        pid: uint(&parts[0], "pid")? as u32,
                        addr: uint(&parts[1], "addr")?,
                        access: parse_access(match &parts[2] {
                            Json::Str(s) => s,
                            _ => return Err("access: expected a string".to_string()),
                        })?,
                    }),
                    _ => Err("refs: expected [pid, addr, access] triples".to_string()),
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("refs: expected an array".to_string()),
        };
        Ok(FuzzCase {
            seed: uint(field(doc, "seed")?, "seed")?,
            mem_mb: uint(field(doc, "mem_mb")?, "mem_mb")? as u32,
            dirty: str_field(doc, "dirty")?
                .parse::<DirtyPolicy>()
                .map_err(|e| e.to_string())?,
            ref_policy: str_field(doc, "ref_policy")?
                .parse::<RefPolicy>()
                .map_err(|e| e.to_string())?,
            cpus: uint(field(doc, "cpus")?, "cpus")? as usize,
            soft_faults: match field(doc, "soft_faults")? {
                Json::Bool(b) => *b,
                _ => return Err("soft_faults: expected a bool".to_string()),
            },
            daemon_period: match field(doc, "daemon_period")? {
                Json::Null => None,
                other => Some(uint(other, "daemon_period")?),
            },
            kernel_reserved_frames: uint(
                field(doc, "kernel_reserved_frames")?,
                "kernel_reserved_frames",
            )? as u32,
            free_low_water: uint(field(doc, "free_low_water")?, "free_low_water")? as u32,
            free_high_water: uint(field(doc, "free_high_water")?, "free_high_water")? as u32,
            regions,
            refs,
        })
    }
}

/// Runs one case differentially (no oracle mutation).
pub fn run_case(case: &FuzzCase) -> FuzzOutcome {
    run_case_with(case, None)
}

/// Runs one case differentially, optionally with an intentional oracle
/// defect installed (checker self-test).
///
/// # Panics
///
/// Panics if the case's configuration cannot even construct a system —
/// that is a fuzzer bug, not a divergence.
pub fn run_case_with(case: &FuzzCase, mutation: Option<Mutation>) -> FuzzOutcome {
    let mut lock = Lockstep::new(case.sim_config())
        .unwrap_or_else(|e| panic!("fuzz case built an unconstructible config: {e}"))
        .with_mutation(mutation);
    for region in &case.regions {
        lock.register_region(
            spur_types::Vpn::new(region.start_page()),
            region.pages,
            region.kind,
        )
        .unwrap_or_else(|e| panic!("fuzz case built an invalid region: {e}"));
    }
    for (i, fr) in case.refs.iter().enumerate() {
        let r = TraceRef {
            pid: Pid(fr.pid),
            addr: GlobalAddr::new(fr.addr),
            kind: fr.access,
        };
        if let Err(d) = lock.step(r) {
            return FuzzOutcome::Fail {
                failing_index: i,
                divergence: Box::new(d),
            };
        }
    }
    FuzzOutcome::Pass {
        refs: case.refs.len() as u64,
    }
}

/// Shrinks a failing case to a (locally) minimal reference list:
/// truncate to the first failure, then ddmin-style chunk deletion with
/// re-truncation after every successful removal. Returns the input
/// unchanged if it does not actually fail.
pub fn shrink(case: &FuzzCase, mutation: Option<Mutation>) -> FuzzCase {
    let mut best = case.clone();
    match run_case_with(&best, mutation) {
        FuzzOutcome::Fail { failing_index, .. } => best.refs.truncate(failing_index + 1),
        FuzzOutcome::Pass { .. } => return best,
    }
    let mut chunk = (best.refs.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < best.refs.len() {
            let end = (start + chunk).min(best.refs.len());
            if end == best.refs.len() && end - start == best.refs.len() {
                // Removing everything cannot still fail; skip.
                start = end;
                continue;
            }
            let mut candidate = best.clone();
            candidate.refs.drain(start..end);
            match run_case_with(&candidate, mutation) {
                FuzzOutcome::Fail { failing_index, .. } => {
                    candidate.refs.truncate(failing_index + 1);
                    best = candidate;
                    // Retry the same position against the shrunk list.
                }
                FuzzOutcome::Pass { .. } => start = end,
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    best
}

/// A successful checker self-test: the mutation was caught and shrunk.
#[derive(Debug)]
pub struct MutationSelftest {
    /// The generation seed that tripped the mutation.
    pub seed: u64,
    /// Reference count before shrinking.
    pub original_len: usize,
    /// The shrunk failing case.
    pub shrunk: FuzzCase,
    /// The shrunk case's divergence.
    pub divergence: Box<Divergence>,
}

/// Proves the checker catches an intentionally injected divergence
/// (SPUR's dirty-bit refresh skipped in the oracle) and shrinks it to a
/// small repro.
///
/// # Errors
///
/// Returns an error if no generated case trips the mutation, or the
/// shrunk repro is not actually small (> 20 references) — either would
/// mean the checker or the shrinker has rotted.
pub fn mutation_selftest() -> Result<MutationSelftest, String> {
    let mutation = Some(Mutation::SkipSpurDirtyRefresh);
    for seed in 0..64u64 {
        let mut case = FuzzCase::generate(seed);
        case.dirty = DirtyPolicy::Spur;
        if case.regions.iter().all(|r| r.kind == PageKind::Code) {
            continue;
        }
        if let FuzzOutcome::Fail { .. } = run_case_with(&case, mutation) {
            let original_len = case.refs.len();
            let shrunk = shrink(&case, mutation);
            let FuzzOutcome::Fail { divergence, .. } = run_case_with(&shrunk, mutation) else {
                return Err("shrunk case no longer fails".to_string());
            };
            if shrunk.refs.len() > 20 {
                return Err(format!(
                    "shrunk repro still has {} references (wanted ≤ 20)",
                    shrunk.refs.len()
                ));
            }
            return Ok(MutationSelftest {
                seed,
                original_len,
                shrunk,
                divergence,
            });
        }
    }
    Err("no generated case tripped the injected SPUR mutation".to_string())
}

fn kind_name(k: PageKind) -> &'static str {
    match k {
        PageKind::Code => "code",
        PageKind::Heap => "heap",
        PageKind::Stack => "stack",
        PageKind::FileData => "filedata",
    }
}

fn parse_kind(name: &str) -> Result<PageKind, String> {
    match name {
        "code" => Ok(PageKind::Code),
        "heap" => Ok(PageKind::Heap),
        "stack" => Ok(PageKind::Stack),
        "filedata" => Ok(PageKind::FileData),
        other => Err(format!("unknown page kind {other:?}")),
    }
}

fn access_name(a: AccessKind) -> &'static str {
    match a {
        AccessKind::InstrFetch => "x",
        AccessKind::Read => "r",
        AccessKind::Write => "w",
    }
}

fn parse_access(name: &str) -> Result<AccessKind, String> {
    match name {
        "x" => Ok(AccessKind::InstrFetch),
        "r" => Ok(AccessKind::Read),
        "w" => Ok(AccessKind::Write),
        other => Err(format!("unknown access kind {other:?}")),
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    validate::get_field(doc, key).ok_or_else(|| format!("missing field {key:?}"))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    match field(doc, key)? {
        Json::Str(s) => Ok(s),
        _ => Err(format!("{key}: expected a string")),
    }
}

fn uint(v: &Json, key: &str) -> Result<u64, String> {
    match v {
        Json::UInt(n) => Ok(*n),
        Json::Int(n) if *n >= 0 => Ok(*n as u64),
        _ => Err(format!("{key}: expected an unsigned integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(FuzzCase::generate(42), FuzzCase::generate(42));
        assert_ne!(FuzzCase::generate(42), FuzzCase::generate(43));
    }

    #[test]
    fn repro_specs_round_trip_through_json() {
        let case = FuzzCase::generate(7);
        let decoded = FuzzCase::decode(&case.encode()).unwrap();
        assert_eq!(case, decoded);
    }

    #[test]
    fn generated_cases_pass_differentially() {
        for seed in 0..4 {
            let case = FuzzCase::generate(seed);
            match run_case(&case) {
                FuzzOutcome::Pass { refs } => assert_eq!(refs, case.refs.len() as u64),
                FuzzOutcome::Fail {
                    failing_index,
                    divergence,
                } => panic!("seed {seed} diverged at ref {failing_index}:\n{divergence}"),
            }
        }
    }

    #[test]
    fn the_injected_spur_mutation_is_caught_and_shrunk_small() {
        let st = mutation_selftest().unwrap();
        assert!(st.shrunk.refs.len() <= 20, "{}", st.shrunk.refs.len());
        assert!(st.shrunk.refs.len() < st.original_len);
        // The shrunk repro still replays after a JSON round trip.
        let replayed = FuzzCase::decode(&st.shrunk.encode()).unwrap();
        assert!(!matches!(
            run_case_with(&replayed, Some(Mutation::SkipSpurDirtyRefresh)),
            FuzzOutcome::Pass { .. }
        ));
        assert!(
            matches!(run_case(&replayed), FuzzOutcome::Pass { .. }),
            "unmutated oracle must accept the repro"
        );
    }
}
