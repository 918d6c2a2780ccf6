//! The expected-shape assertion language.
//!
//! A scenario asserts the *shape* its results must have, not exact
//! numbers: counter ranges per cell, cross-cell relations ("FAULT
//! dirty faults ≥ MIN dirty faults at every memory size"), and
//! monotonicity over an axis. Assertions evaluate against the same
//! job-artifact documents the harness writes to disk, addressed by
//! dotted metric paths (`data.events.n_ds`), so a passing scenario is
//! a machine-checked claim about the committed artifacts — the CI gate
//! the ablation binaries never had.

use spur_harness::Json;

use crate::config::Axis;

/// How a relation compares its two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    /// `left >= right`.
    Ge,
    /// `left <= right`.
    Le,
    /// `left > right`.
    Gt,
    /// `left < right`.
    Lt,
    /// `left == right` (exact; artifacts are deterministic).
    Eq,
}

impl RelOp {
    fn as_str(self) -> &'static str {
        match self {
            RelOp::Ge => ">=",
            RelOp::Le => "<=",
            RelOp::Gt => ">",
            RelOp::Lt => "<",
            RelOp::Eq => "==",
        }
    }

    fn holds(self, left: f64, right: f64) -> bool {
        match self {
            RelOp::Ge => left >= right,
            RelOp::Le => left <= right,
            RelOp::Gt => left > right,
            RelOp::Lt => left < right,
            RelOp::Eq => left == right,
        }
    }
}

/// Which direction a `monotonic` assertion expects along its axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Each value ≥ its predecessor.
    Nondecreasing,
    /// Each value ≤ its predecessor.
    Nonincreasing,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::Nondecreasing => "nondecreasing",
            Direction::Nonincreasing => "nonincreasing",
        }
    }
}

/// A coordinate filter: axis name → required value. A cell matches
/// when every listed axis has the listed value; unlisted axes are
/// unconstrained.
pub(crate) type Selector = Vec<(String, Json)>;

/// One expected-shape assertion.
#[derive(Debug, Clone, PartialEq)]
pub enum Assertion {
    /// Every matching cell's metric lies in `[min, max]`.
    Range {
        /// Assertion name (shown in verdicts and failure reports).
        name: String,
        /// Dotted path into the job-artifact document.
        metric: String,
        /// Cells the assertion applies to (empty = all cells).
        filter: Selector,
        /// Inclusive lower bound.
        min: Option<f64>,
        /// Inclusive upper bound.
        max: Option<f64>,
    },
    /// For every combination of the `over` axes, the metric of the
    /// unique `left` cell relates to the unique `right` cell.
    Relation {
        /// Assertion name.
        name: String,
        /// Dotted path into the job-artifact document.
        metric: String,
        /// Comparison operator.
        op: RelOp,
        /// Selector pinning the left side (e.g. `{"dirty":"FAULT"}`).
        left: Selector,
        /// Selector pinning the right side (e.g. `{"dirty":"MIN"}`).
        right: Selector,
        /// Axes the comparison quantifies over ("at every memory
        /// size"). Must cover all axes the selectors leave free.
        over: Vec<String>,
    },
    /// Along `axis` (in declared order), the metric never moves
    /// against `direction`, within every group of cells that agree on
    /// all other axes.
    Monotonic {
        /// Assertion name.
        name: String,
        /// Dotted path into the job-artifact document.
        metric: String,
        /// The axis to walk.
        axis: String,
        /// Expected direction.
        direction: Direction,
        /// Cells the assertion applies to (empty = all cells).
        filter: Selector,
    },
}

impl Assertion {
    /// The assertion's name, used in verdicts and CI output.
    pub fn name(&self) -> &str {
        match self {
            Assertion::Range { name, .. }
            | Assertion::Relation { name, .. }
            | Assertion::Monotonic { name, .. } => name,
        }
    }
}

/// One evaluated cell: its stable job key, its axis coordinates, and
/// its full artifact document (`{schema_version, key, status, data,
/// ...}` — the exact bytes-on-disk shape).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The harness job key.
    pub key: String,
    /// Axis coordinates, in axis-declaration order.
    pub coords: Vec<(String, Json)>,
    /// The job-artifact document.
    pub doc: Json,
}

impl CellResult {
    fn coord(&self, axis: &str) -> Option<&Json> {
        self.coords.iter().find(|(a, _)| a == axis).map(|(_, v)| v)
    }

    fn matches(&self, selector: &Selector) -> bool {
        selector
            .iter()
            .all(|(axis, want)| self.coord(axis) == Some(want))
    }

    fn coords_str(&self) -> String {
        let parts: Vec<String> = self
            .coords
            .iter()
            .map(|(a, v)| format!("{a}={}", v.encode()))
            .collect();
        parts.join(", ")
    }
}

/// One assertion's evaluation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The assertion name.
    pub name: String,
    /// Whether every check passed.
    pub passed: bool,
    /// One message per violated check, with observed values.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Serializes for scenario-level artifacts and the serve API.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::Str(self.name.clone())),
            ("passed", Json::Bool(self.passed)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
        ])
    }
}

/// Follows a dotted path (`data.events.n_ds`) into a document.
pub(crate) fn metric_path<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    let mut cur = doc;
    for seg in path.split('.') {
        match cur {
            Json::Obj(fields) => {
                cur = fields.iter().find(|(k, _)| k == seg).map(|(_, v)| v)?;
            }
            _ => return None,
        }
    }
    Some(cur)
}

fn as_number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// Reads `metric` from a cell's document as a number, or explains why
/// it could not.
fn read_metric(cell: &CellResult, metric: &str) -> Result<f64, String> {
    match metric_path(&cell.doc, metric) {
        None => Err(format!(
            "cell {}: metric {metric:?} not present in artifact",
            cell.key
        )),
        Some(v) => as_number(v).ok_or_else(|| {
            format!(
                "cell {}: metric {metric:?} is {} — not a number",
                cell.key,
                v.encode()
            )
        }),
    }
}

/// Evaluates every assertion against the cell results. Cells whose
/// jobs failed should not be passed in — the runner reports those as
/// cell failures, which already fail the scenario.
pub fn evaluate(assertions: &[Assertion], cells: &[CellResult]) -> Vec<Verdict> {
    assertions.iter().map(|a| evaluate_one(a, cells)).collect()
}

fn evaluate_one(assertion: &Assertion, cells: &[CellResult]) -> Verdict {
    let mut failures = Vec::new();
    match assertion {
        Assertion::Range {
            metric,
            filter,
            min,
            max,
            ..
        } => {
            let mut matched = 0usize;
            for cell in cells.iter().filter(|c| c.matches(filter)) {
                matched += 1;
                match read_metric(cell, metric) {
                    Err(e) => failures.push(e),
                    Ok(value) => {
                        if let Some(lo) = min {
                            if value < *lo {
                                failures.push(format!(
                                    "cell {} ({}): {metric} = {value} < min {lo}",
                                    cell.key,
                                    cell.coords_str()
                                ));
                            }
                        }
                        if let Some(hi) = max {
                            if value > *hi {
                                failures.push(format!(
                                    "cell {} ({}): {metric} = {value} > max {hi}",
                                    cell.key,
                                    cell.coords_str()
                                ));
                            }
                        }
                    }
                }
            }
            if matched == 0 {
                failures.push("no cells matched the assertion's filter".into());
            }
        }
        Assertion::Relation {
            metric,
            op,
            left,
            right,
            over,
            ..
        } => {
            // Quantify: one comparison per distinct combination of
            // the `over` axes present among the cells.
            let mut combos: Vec<Vec<(String, Json)>> = Vec::new();
            for cell in cells {
                let combo: Vec<(String, Json)> = over
                    .iter()
                    .filter_map(|axis| cell.coord(axis).map(|v| (axis.clone(), v.clone())))
                    .collect();
                if combo.len() == over.len() && !combos.contains(&combo) {
                    combos.push(combo);
                }
            }
            if combos.is_empty() {
                failures.push(format!("no cells carry the quantified axes {over:?}"));
            }
            for combo in combos {
                let pick = |side: &Selector, label: &str| -> Result<f64, String> {
                    let matching: Vec<&CellResult> = cells
                        .iter()
                        .filter(|c| c.matches(side) && c.matches(&combo))
                        .collect();
                    let at = || {
                        let parts: Vec<String> = combo
                            .iter()
                            .map(|(a, v)| format!("{a}={}", v.encode()))
                            .collect();
                        parts.join(", ")
                    };
                    match matching.as_slice() {
                        [] => Err(format!("{label} side matched no cell at {}", at())),
                        [one] => read_metric(one, metric),
                        many => Err(format!(
                            "{label} side is ambiguous at {} ({} cells)",
                            at(),
                            many.len()
                        )),
                    }
                };
                match (pick(left, "left"), pick(right, "right")) {
                    (Ok(l), Ok(r)) => {
                        if !op.holds(l, r) {
                            let at: Vec<String> = combo
                                .iter()
                                .map(|(a, v)| format!("{a}={}", v.encode()))
                                .collect();
                            failures.push(format!(
                                "at {}: {metric} violates left {} right ({l} vs {r})",
                                at.join(", "),
                                op.as_str()
                            ));
                        }
                    }
                    (l, r) => {
                        if let Err(e) = l {
                            failures.push(e);
                        }
                        if let Err(e) = r {
                            failures.push(e);
                        }
                    }
                }
            }
        }
        Assertion::Monotonic {
            metric,
            axis,
            direction,
            filter,
            ..
        } => {
            // Group cells that agree on every axis except the walked
            // one, preserving their axis-declaration order within the
            // group (cells arrive in expansion order, which follows
            // declared axis-value order).
            let eligible: Vec<&CellResult> = cells
                .iter()
                .filter(|c| c.matches(filter) && c.coord(axis).is_some())
                .collect();
            if eligible.is_empty() {
                failures.push(format!(
                    "no cells matched the filter and carry axis {axis:?}"
                ));
            }
            // One group per combination of the non-swept axes.
            type Group<'a> = (Vec<(String, Json)>, Vec<&'a CellResult>);
            let mut groups: Vec<Group> = Vec::new();
            for cell in eligible {
                let rest: Vec<(String, Json)> = cell
                    .coords
                    .iter()
                    .filter(|(a, _)| a != axis)
                    .cloned()
                    .collect();
                match groups.iter_mut().find(|(key, _)| *key == rest) {
                    Some((_, members)) => members.push(cell),
                    None => groups.push((rest, vec![cell])),
                }
            }
            for (rest, members) in groups {
                let mut prev: Option<(f64, &CellResult)> = None;
                for cell in members {
                    let value = match read_metric(cell, metric) {
                        Ok(v) => v,
                        Err(e) => {
                            failures.push(e);
                            continue;
                        }
                    };
                    if let Some((pv, pc)) = prev {
                        let ok = match direction {
                            Direction::Nondecreasing => value >= pv,
                            Direction::Nonincreasing => value <= pv,
                        };
                        if !ok {
                            let group: Vec<String> = rest
                                .iter()
                                .map(|(a, v)| format!("{a}={}", v.encode()))
                                .collect();
                            let at = if group.is_empty() {
                                String::new()
                            } else {
                                format!(" [{}]", group.join(", "))
                            };
                            failures.push(format!(
                                "{metric} not {} along {axis}{at}: {} -> {} ({pv} -> {value})",
                                direction.as_str(),
                                pc.coord(axis).map(|v| v.encode()).unwrap_or_default(),
                                cell.coord(axis).map(|v| v.encode()).unwrap_or_default(),
                            ));
                        }
                    }
                    prev = Some((value, cell));
                }
            }
        }
    }
    Verdict {
        name: assertion.name().to_string(),
        passed: failures.is_empty(),
        failures,
    }
}

// ---------------------------------------------------------------------------
// Parsing (strict, path-qualified — the same discipline as config.rs)
// ---------------------------------------------------------------------------

fn fields(doc: &Json) -> &[(String, Json)] {
    match doc {
        Json::Obj(fields) => fields,
        _ => &[],
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    fields(doc).iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn check_unknown(doc: &Json, path: &str, allowed: &[&str]) -> Result<(), String> {
    for (key, _) in fields(doc) {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "{path}: unknown field {key:?} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn str_field(doc: &Json, path: &str, key: &str) -> Result<String, String> {
    match field(doc, key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("{path}.{key}: must be a string")),
        None => Err(format!("{path}.{key}: missing required field")),
    }
}

fn num_field(doc: &Json, path: &str, key: &str) -> Result<Option<f64>, String> {
    match field(doc, key) {
        None => Ok(None),
        Some(v) => as_number(v)
            .map(Some)
            .ok_or_else(|| format!("{path}.{key}: must be a number")),
    }
}

/// Checks a metric path's spelling: non-empty dot-separated segments
/// of reasonable characters. Presence in the artifact is a runtime
/// question (evaluation reports missing metrics per cell).
fn check_metric(metric: &str, path: &str) -> Result<(), String> {
    let ok = !metric.is_empty()
        && metric.split('.').all(|seg| {
            !seg.is_empty() && seg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        });
    if !ok {
        return Err(format!(
            "{path}: metric must be dotted identifier segments, got {metric:?}"
        ));
    }
    Ok(())
}

/// Parses a selector object (`{"dirty":"FAULT"}`) against the
/// scenario's declared axes: unknown axes and values not on the axis
/// are errors — a selector that can never match is a config bug.
fn parse_selector(doc: &Json, path: &str, axes: &[Axis]) -> Result<Selector, String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err(format!("{path}: must be an object of axis: value pairs"));
    }
    let mut selector = Vec::new();
    for (axis_name, want) in fields(doc) {
        let Some(axis) = axes.iter().find(|a| &a.name == axis_name) else {
            let known: Vec<&str> = axes.iter().map(|a| a.name.as_str()).collect();
            return Err(format!(
                "{path}.{axis_name}: not a matrix axis (axes: {})",
                known.join(", ")
            ));
        };
        // Accept the same spellings the matrix accepts (e.g. "fault"
        // for "FAULT") by comparing against canonical forms loosely:
        // exact match first, then case-insensitive for strings.
        let canonical = axis
            .values
            .iter()
            .find(|v| {
                *v == want
                    || matches!((v, want), (Json::Str(a), Json::Str(b))
                        if a.eq_ignore_ascii_case(b))
            })
            .cloned();
        let Some(value) = canonical else {
            return Err(format!(
                "{path}.{axis_name}: value {} is not on the axis",
                want.encode()
            ));
        };
        if selector.iter().any(|(a, _)| a == axis_name) {
            return Err(format!("{path}.{axis_name}: duplicate axis"));
        }
        selector.push((axis_name.clone(), value));
    }
    Ok(selector)
}

/// Parses the scenario's `assertions` array.
///
/// # Errors
///
/// Returns a path-qualified message for the first invalid assertion.
pub(crate) fn parse_assertions(doc: &Json, axes: &[Axis]) -> Result<Vec<Assertion>, String> {
    let Json::Arr(items) = doc else {
        return Err("assertions: must be an array".into());
    };
    let mut assertions: Vec<Assertion> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let path = format!("assertions[{i}]");
        let assertion = parse_assertion(item, &path, axes)?;
        if assertions.iter().any(|a| a.name() == assertion.name()) {
            return Err(format!(
                "{path}.name: duplicate assertion name {:?}",
                assertion.name()
            ));
        }
        assertions.push(assertion);
    }
    Ok(assertions)
}

fn parse_assertion(doc: &Json, path: &str, axes: &[Axis]) -> Result<Assertion, String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err(format!("{path}: must be an object"));
    }
    let kind = str_field(doc, path, "check")?;
    let name = str_field(doc, path, "name")?;
    if name.is_empty() {
        return Err(format!("{path}.name: must not be empty"));
    }
    let metric = str_field(doc, path, "metric")?;
    check_metric(&metric, &format!("{path}.metric"))?;
    match kind.as_str() {
        "range" => {
            check_unknown(
                doc,
                path,
                &["check", "name", "metric", "where", "min", "max"],
            )?;
            let filter = match field(doc, "where") {
                None => Vec::new(),
                Some(w) => parse_selector(w, &format!("{path}.where"), axes)?,
            };
            let min = num_field(doc, path, "min")?;
            let max = num_field(doc, path, "max")?;
            if min.is_none() && max.is_none() {
                return Err(format!("{path}: range needs min and/or max"));
            }
            if let (Some(lo), Some(hi)) = (min, max) {
                if lo > hi {
                    return Err(format!("{path}: min {lo} exceeds max {hi}"));
                }
            }
            Ok(Assertion::Range {
                name,
                metric,
                filter,
                min,
                max,
            })
        }
        "relation" => {
            check_unknown(
                doc,
                path,
                &["check", "name", "metric", "op", "left", "right", "over"],
            )?;
            let op = match str_field(doc, path, "op")?.as_str() {
                ">=" => RelOp::Ge,
                "<=" => RelOp::Le,
                ">" => RelOp::Gt,
                "<" => RelOp::Lt,
                "==" => RelOp::Eq,
                other => {
                    return Err(format!(
                        "{path}.op: unknown operator {other:?} (expected >=, <=, >, <, ==)"
                    ))
                }
            };
            let left = parse_selector(
                field(doc, "left").ok_or_else(|| format!("{path}.left: missing required field"))?,
                &format!("{path}.left"),
                axes,
            )?;
            let right = parse_selector(
                field(doc, "right")
                    .ok_or_else(|| format!("{path}.right: missing required field"))?,
                &format!("{path}.right"),
                axes,
            )?;
            if left.is_empty() || right.is_empty() {
                return Err(format!(
                    "{path}: left and right must each pin at least one axis"
                ));
            }
            let over = match field(doc, "over") {
                None => Vec::new(),
                Some(Json::Arr(items)) => {
                    let mut over = Vec::with_capacity(items.len());
                    for (j, v) in items.iter().enumerate() {
                        let Json::Str(axis) = v else {
                            return Err(format!("{path}.over[{j}]: must be an axis name"));
                        };
                        if !axes.iter().any(|a| &a.name == axis) {
                            return Err(format!("{path}.over[{j}]: {axis:?} is not a matrix axis"));
                        }
                        if over.contains(axis) {
                            return Err(format!("{path}.over[{j}]: duplicate {axis:?}"));
                        }
                        over.push(axis.clone());
                    }
                    over
                }
                Some(_) => return Err(format!("{path}.over: must be an array of axis names")),
            };
            // Every axis must be pinned by both selectors or
            // quantified — otherwise "the unique left cell" is not
            // unique and the comparison is ill-posed.
            for axis in axes {
                let pinned = |s: &Selector| s.iter().any(|(a, _)| *a == axis.name);
                let covered = (pinned(&left) && pinned(&right)) || over.contains(&axis.name);
                if !covered && axis.values.len() > 1 {
                    return Err(format!(
                        "{path}: axis {:?} is neither pinned by left+right nor listed in \
                         over — the compared cells would be ambiguous",
                        axis.name
                    ));
                }
            }
            Ok(Assertion::Relation {
                name,
                metric,
                op,
                left,
                right,
                over,
            })
        }
        "monotonic" => {
            check_unknown(
                doc,
                path,
                &["check", "name", "metric", "axis", "direction", "where"],
            )?;
            let axis = str_field(doc, path, "axis")?;
            if !axes.iter().any(|a| a.name == axis) {
                return Err(format!("{path}.axis: {axis:?} is not a matrix axis"));
            }
            let direction = match str_field(doc, path, "direction")?.as_str() {
                "nondecreasing" => Direction::Nondecreasing,
                "nonincreasing" => Direction::Nonincreasing,
                other => {
                    return Err(format!(
                        "{path}.direction: unknown direction {other:?} \
                         (expected nondecreasing|nonincreasing)"
                    ))
                }
            };
            let filter = match field(doc, "where") {
                None => Vec::new(),
                Some(w) => parse_selector(w, &format!("{path}.where"), axes)?,
            };
            Ok(Assertion::Monotonic {
                name,
                metric,
                axis,
                direction,
                filter,
            })
        }
        other => Err(format!(
            "{path}.check: unknown check {other:?} (expected range|relation|monotonic)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_obs::validate::parse;

    fn axes() -> Vec<Axis> {
        vec![
            Axis {
                name: "mem_mb".into(),
                values: vec![Json::UInt(5), Json::UInt(6), Json::UInt(8)],
            },
            Axis {
                name: "dirty".into(),
                values: vec![Json::Str("MIN".into()), Json::Str("FAULT".into())],
            },
        ]
    }

    fn cell(mem: u64, dirty: &str, value: i64) -> CellResult {
        CellResult {
            key: format!("sim/{mem}MB/{dirty}"),
            coords: vec![
                ("mem_mb".into(), Json::UInt(mem)),
                ("dirty".into(), Json::Str(dirty.into())),
            ],
            doc: Json::object([("data", Json::object([("dirty_faults", Json::Int(value))]))]),
        }
    }

    fn assertions(text: &str) -> Result<Vec<Assertion>, String> {
        parse_assertions(&parse(text).unwrap(), &axes())
    }

    #[test]
    fn range_flags_cells_out_of_bounds_with_observed_values() {
        let asserts = assertions(
            r#"[{"check":"range","name":"sane","metric":"data.dirty_faults",
                "min":0,"max":10}]"#,
        )
        .unwrap();
        let cells = vec![cell(5, "MIN", 3), cell(6, "MIN", 42)];
        let verdicts = evaluate(&asserts, &cells);
        assert!(!verdicts[0].passed);
        assert_eq!(verdicts[0].failures.len(), 1);
        assert!(
            verdicts[0].failures[0].contains("42 > max 10"),
            "{:?}",
            verdicts
        );
        assert!(verdicts[0].failures[0].contains("sim/6MB/MIN"));
    }

    #[test]
    fn relation_quantifies_over_axes() {
        let asserts = assertions(
            r#"[{"check":"relation","name":"fault_ge_min","metric":"data.dirty_faults",
                "op":">=","left":{"dirty":"FAULT"},"right":{"dirty":"MIN"},
                "over":["mem_mb"]}]"#,
        )
        .unwrap();
        let good = vec![
            cell(5, "MIN", 10),
            cell(5, "FAULT", 12),
            cell(6, "MIN", 8),
            cell(6, "FAULT", 8),
        ];
        assert!(evaluate(&asserts, &good)[0].passed);

        let bad = vec![cell(5, "MIN", 10), cell(5, "FAULT", 7)];
        let verdict = &evaluate(&asserts, &bad)[0];
        assert!(!verdict.passed);
        assert!(verdict.failures[0].contains("mem_mb=5"), "{:?}", verdict);
        assert!(verdict.failures[0].contains("7 vs 10"), "{:?}", verdict);
    }

    #[test]
    fn relation_rejects_uncovered_axes_at_parse_time() {
        let err = assertions(
            r#"[{"check":"relation","name":"x","metric":"data.dirty_faults",
                "op":">=","left":{"dirty":"FAULT"},"right":{"dirty":"MIN"}}]"#,
        )
        .unwrap_err();
        assert!(err.contains("mem_mb"), "{err}");
    }

    #[test]
    fn monotonic_walks_groups_in_order() {
        let asserts = assertions(
            r#"[{"check":"monotonic","name":"paging_shrinks","metric":"data.dirty_faults",
                "axis":"mem_mb","direction":"nonincreasing","where":{"dirty":"MIN"}}]"#,
        )
        .unwrap();
        let good = vec![cell(5, "MIN", 9), cell(6, "MIN", 9), cell(8, "MIN", 2)];
        assert!(evaluate(&asserts, &good)[0].passed);
        let bad = vec![cell(5, "MIN", 2), cell(6, "MIN", 9)];
        let verdict = &evaluate(&asserts, &bad)[0];
        assert!(!verdict.passed);
        assert!(
            verdict.failures[0].contains("not nonincreasing"),
            "{:?}",
            verdict
        );
        assert!(verdict.failures[0].contains("2 -> 9"), "{:?}", verdict);
    }

    #[test]
    fn selectors_reject_unknown_axes_and_off_axis_values() {
        let err = assertions(
            r#"[{"check":"range","name":"x","metric":"data.dirty_faults",
                "min":0,"where":{"colour":"red"}}]"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "assertions[0].where.colour: not a matrix axis (axes: mem_mb, dirty)"
        );
        let err = assertions(
            r#"[{"check":"range","name":"x","metric":"data.dirty_faults",
                "min":0,"where":{"mem_mb":7}}]"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "assertions[0].where.mem_mb: value 7 is not on the axis"
        );
    }

    #[test]
    fn missing_metric_fails_with_cell_name() {
        let asserts =
            assertions(r#"[{"check":"range","name":"x","metric":"data.nope","min":0}]"#).unwrap();
        let verdict = &evaluate(&asserts, &[cell(5, "MIN", 1)])[0];
        assert!(!verdict.passed);
        assert!(
            verdict.failures[0].contains("\"data.nope\" not present"),
            "{:?}",
            verdict
        );
    }

    #[test]
    fn duplicate_assertion_names_are_rejected() {
        let err = assertions(
            r#"[{"check":"range","name":"x","metric":"data.a","min":0},
                {"check":"range","name":"x","metric":"data.b","min":0}]"#,
        )
        .unwrap_err();
        assert!(err.contains("duplicate assertion name"), "{err}");
    }

    #[test]
    fn unknown_assertion_fields_are_path_qualified() {
        let err =
            assertions(r#"[{"check":"range","name":"x","metric":"data.a","min":0,"bogus":1}]"#)
                .unwrap_err();
        assert!(err.starts_with("assertions[0]:"), "{err}");
        assert!(err.contains("unknown field \"bogus\""), "{err}");
    }
}
