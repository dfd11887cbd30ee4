//! Perf-trajectory regression gate over at-scale sweep reports.
//!
//! CI uploads every build's `BENCH_cluster.json` (see
//! [`dscs_cluster::at_scale`]). This module diffs the current report against
//! the previous run's artifact, cell by cell, and flags mean/p99 latency
//! regressions beyond a threshold — the repo's tracked performance
//! trajectory becomes a gate instead of a graph. One schema rule decides what is comparable. Reports of different
//! schema versions (e.g. a v4 baseline against a v5 current report, which
//! added the engine-throughput fields) pass vacuously with an explanatory
//! note instead of comparing incomparable numbers or erroring on missing
//! fields — so the first CI run after a schema bump stays green and the next
//! run re-arms the gate. Within one schema, cells are matched by their full
//! identity, the nine `IDENTITY_KEYS`; a cell missing one of them, or
//! present on only one side, is reported as skipped rather than failing.
//!
//! Besides the modelled latencies, the gate watches the *engine's* measured
//! `events_per_sec` (per cell and in aggregate, present since schema v5 in
//! the throughput JSON variant). Drops beyond the threshold are reported as
//! **warnings only** — wall-clock throughput on shared CI runners is noisy,
//! so a drop flags "look at engine speed" without failing the build; reports
//! without the measured fields (including the first baseline-less build)
//! simply produce no warnings.
//!
//! Since schema v7 the gate also watches per-cell policy regret
//! (`regret_pct`, the distance above the offline-optimal cold-start bound of
//! [`dscs_cluster::optimal`]): increases beyond the threshold, in percentage
//! points, are again warnings only. Pre-v7 baselines carry no regret fields
//! and pass vacuously — either through the schema-bump path or, for
//! hand-trimmed same-schema reports, because missing fields warn nothing.

use std::fmt;

use dscs_simcore::json::JsonValue;

/// The latency metrics the gate compares per cell.
const GATED_METRICS: [&str; 2] = ["mean_latency_ms", "p99_latency_ms"];

/// Latencies below this floor (in ms) are noise, not signal; the gate skips
/// them rather than flagging a large relative change on a tiny base.
const METRIC_FLOOR_MS: f64 = 0.01;

/// Policy-regret increases below this many percentage points are noise; the
/// gate warns only on jumps past it.
const REGRET_FLOOR_POINTS: f64 = 0.01;

/// One metric regression beyond the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Cell identity, e.g. `azure/DSCS-DSA/fcfs/hybrid-prewarm/reactive`.
    pub cell: String,
    /// The metric that regressed (`mean_latency_ms` or `p99_latency_ms`).
    pub metric: &'static str,
    /// Baseline value (previous run).
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative change in percent (positive = slower).
    pub change_pct: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} {:.3} -> {:.3} ms (+{:.1}%)",
            self.cell, self.metric, self.baseline, self.current, self.change_pct
        )
    }
}

/// One measured engine-throughput drop beyond the threshold. Warn-only:
/// wall-clock throughput on shared runners is noisy, so these never fail
/// the gate — they flag that engine speed deserves a look.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputWarning {
    /// Cell identity, or `"(aggregate)"` for the report-level throughput.
    pub cell: String,
    /// Baseline events per second (previous run).
    pub baseline: f64,
    /// Current events per second.
    pub current: f64,
    /// Relative drop in percent (positive = slower engine).
    pub drop_pct: f64,
}

impl fmt::Display for ThroughputWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: events_per_sec {:.0} -> {:.0} (-{:.1}%)",
            self.cell, self.baseline, self.current, self.drop_pct
        )
    }
}

/// One policy-regret increase beyond the threshold (schema v7 reports carry
/// a per-cell `regret_pct` against the offline-optimal cold-start bound).
/// Warn-only, like throughput: a regret jump says "look at the cold-start
/// path" without failing the build, and pre-v7 baselines — which carry no
/// regret fields — simply produce no warnings.
#[derive(Debug, Clone, PartialEq)]
pub struct RegretWarning {
    /// Cell identity.
    pub cell: String,
    /// Baseline regret (fraction above the offline bound, previous run).
    pub baseline: f64,
    /// Current regret.
    pub current: f64,
    /// Increase in percentage points. Regret is already relative to the
    /// bound, so the gate diffs it absolutely — a zero-regret baseline
    /// (policy matched the bound) would make any relative change infinite.
    pub increase_points: f64,
}

impl fmt::Display for RegretWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: regret_pct {:.3} -> {:.3} (+{:.2} points)",
            self.cell, self.baseline, self.current, self.increase_points
        )
    }
}

/// Outcome of one gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Cells whose metrics were compared on both sides.
    pub compared: usize,
    /// Cells present on only one side (schema or sweep-shape drift).
    pub skipped: usize,
    /// Metric regressions beyond the threshold, worst first.
    pub regressions: Vec<Regression>,
    /// Measured `events_per_sec` drops beyond the threshold, worst first.
    /// Warnings, not failures: they never affect [`GateOutcome::passed`].
    pub throughput_warnings: Vec<ThroughputWarning>,
    /// Policy-regret increases beyond the threshold (in percentage points),
    /// worst first. Warnings, not failures; empty for reports without the
    /// v7 regret fields.
    pub regret_warnings: Vec<RegretWarning>,
    /// Set when the reports carry different schema versions: the comparison
    /// was skipped entirely and the gate passed vacuously, for this reason.
    pub schema_note: Option<String>,
}

impl GateOutcome {
    /// Whether the gate passes (no regression beyond the threshold).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Errors produced by [`compare_reports`].
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// A report failed to parse as JSON.
    Malformed {
        /// Which side failed (`"baseline"` or `"current"`).
        which: &'static str,
        /// The parser's message.
        message: String,
    },
    /// A report parsed but has no `cells` array.
    MissingCells {
        /// Which side is missing cells.
        which: &'static str,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Malformed { which, message } => {
                write!(f, "{which} report is not valid JSON: {message}")
            }
            GateError::MissingCells { which } => {
                write!(f, "{which} report has no cells array")
            }
        }
    }
}

impl std::error::Error for GateError {}

/// The keys that identify a sweep cell: its workload (name and source, so a
/// trace-file cell is never diffed against a synthetic cell that happens to
/// share its workload name), platform and policy point.
const IDENTITY_KEYS: [&str; 9] = [
    "workload",
    "workload_source",
    "platform",
    "scheduler",
    "keepalive",
    "scaling",
    "balancer",
    "cold_path",
    "ipc",
];

/// The full identity of one sweep cell, or `None` if the cell lacks one of
/// the `IDENTITY_KEYS` (such a cell is skipped, never compared).
fn cell_key(cell: &JsonValue) -> Option<String> {
    let parts = IDENTITY_KEYS
        .iter()
        .map(|key| cell.get(key).and_then(JsonValue::as_str))
        .collect::<Option<Vec<_>>>()?;
    Some(parts.join("/"))
}

/// The report's schema tag; reports predating the tag count as `"(untagged)"`.
fn schema_of(report: &JsonValue) -> &str {
    report
        .get("schema")
        .and_then(JsonValue::as_str)
        .unwrap_or("(untagged)")
}

fn cells(report: &JsonValue, which: &'static str) -> Result<Vec<JsonValue>, GateError> {
    report
        .get("cells")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .ok_or(GateError::MissingCells { which })
}

/// Diffs `current` against `baseline` (both rendered at-scale reports) and
/// returns every mean/p99 latency regression beyond `threshold_pct` percent.
pub fn compare_reports(
    baseline: &str,
    current: &str,
    threshold_pct: f64,
) -> Result<GateOutcome, GateError> {
    let parse = |text: &str, which: &'static str| {
        JsonValue::parse(text).map_err(|err| GateError::Malformed {
            which,
            message: err.to_string(),
        })
    };
    let baseline = parse(baseline, "baseline")?;
    let current = parse(current, "current")?;
    let baseline_cells = cells(&baseline, "baseline")?;
    let current_cells = cells(&current, "current")?;

    // A schema bump means the cells are not comparable (the report layout —
    // or the modelled physics behind the numbers — changed). Pass vacuously
    // with a note rather than diffing incomparable latencies; the next run's
    // baseline will carry the new schema and the gate re-arms.
    let (baseline_schema, current_schema) = (schema_of(&baseline), schema_of(&current));
    if baseline_schema != current_schema {
        return Ok(GateOutcome {
            compared: 0,
            skipped: baseline_cells.len() + current_cells.len(),
            regressions: Vec::new(),
            throughput_warnings: Vec::new(),
            regret_warnings: Vec::new(),
            schema_note: Some(format!(
                "baseline schema {baseline_schema} != current schema {current_schema}; \
                 reports are not comparable, passing vacuously"
            )),
        });
    }

    let baseline_by_key: Vec<(String, &JsonValue)> = baseline_cells
        .iter()
        .filter_map(|c| cell_key(c).map(|k| (k, c)))
        .collect();

    let mut compared = 0;
    let mut skipped = 0;
    let mut regressions = Vec::new();
    let mut throughput_warnings = Vec::new();
    let mut regret_warnings = Vec::new();
    let mut matched_keys = 0;
    // Measured engine throughput: warn (never fail) when a drop exceeds the
    // threshold. Sides lacking the measured key — deterministic reports, or
    // pre-v5 baselines — produce no warning. Non-finite or zero baselines
    // (a sweep too fast to time, or a hand-damaged artifact) also warn
    // nothing: dividing by them would poison the worst-first sort below
    // with inf/NaN percentages.
    let mut check_throughput = |label: String, base: &JsonValue, cur: &JsonValue| {
        let (Some(before), Some(after)) = (
            base.get("events_per_sec").and_then(JsonValue::as_f64),
            cur.get("events_per_sec").and_then(JsonValue::as_f64),
        ) else {
            return;
        };
        if !before.is_finite() || !after.is_finite() {
            return;
        }
        if before > 0.0 && after < before * (1.0 - threshold_pct / 100.0) {
            throughput_warnings.push(ThroughputWarning {
                cell: label,
                baseline: before,
                current: after,
                drop_pct: (1.0 - after / before) * 100.0,
            });
        }
    };
    check_throughput("(aggregate)".to_string(), &baseline, &current);
    for cell in &current_cells {
        let Some(key) = cell_key(cell) else {
            skipped += 1;
            continue;
        };
        let Some((_, base)) = baseline_by_key.iter().find(|(k, _)| *k == key) else {
            skipped += 1;
            continue;
        };
        matched_keys += 1;
        compared += 1;
        check_throughput(key.clone(), base, cell);
        // Policy regret (v7): warn when a cell drifted away from the offline
        // bound by more than `threshold_pct` percentage points. Absolute
        // comparison — see [`RegretWarning::increase_points`]; cells lacking
        // the field (pre-v7 hand-trimmed reports) warn nothing.
        if let (Some(before), Some(after)) = (
            base.get("regret_pct").and_then(JsonValue::as_f64),
            cell.get("regret_pct").and_then(JsonValue::as_f64),
        ) {
            let increase = (after - before) * 100.0;
            if before.is_finite()
                && after.is_finite()
                && increase > threshold_pct.max(REGRET_FLOOR_POINTS)
            {
                regret_warnings.push(RegretWarning {
                    cell: key.clone(),
                    baseline: before,
                    current: after,
                    increase_points: increase,
                });
            }
        }
        for metric in GATED_METRICS {
            let (Some(before), Some(after)) = (
                base.get(metric).and_then(JsonValue::as_f64),
                cell.get(metric).and_then(JsonValue::as_f64),
            ) else {
                continue;
            };
            if before < METRIC_FLOOR_MS && after < METRIC_FLOOR_MS {
                continue;
            }
            if before > 0.0 && after > before * (1.0 + threshold_pct / 100.0) {
                regressions.push(Regression {
                    cell: key.clone(),
                    metric,
                    baseline: before,
                    current: after,
                    change_pct: (after / before - 1.0) * 100.0,
                });
            }
        }
    }
    skipped += baseline_cells.len().saturating_sub(matched_keys);
    regressions.sort_by(|a, b| {
        b.change_pct
            .partial_cmp(&a.change_pct)
            .expect("finite percentages")
            .then_with(|| a.cell.cmp(&b.cell))
    });
    throughput_warnings.sort_by(|a, b| {
        b.drop_pct
            .partial_cmp(&a.drop_pct)
            .expect("finite percentages")
            .then_with(|| a.cell.cmp(&b.cell))
    });
    regret_warnings.sort_by(|a, b| {
        b.increase_points
            .partial_cmp(&a.increase_points)
            .expect("finite points")
            .then_with(|| a.cell.cmp(&b.cell))
    });
    Ok(GateOutcome {
        compared,
        skipped,
        regressions,
        throughput_warnings,
        regret_warnings,
        schema_note: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "dscs-at-scale-v8";

    /// One sweep cell at the azure / DSCS-DSA / fcfs / fixed-window / fixed
    /// / round-robin / flash / shm point, every identity key present, with
    /// `identity` overriding some of them, its `(mean, p99)` latency, then
    /// the numeric `extra` fields.
    fn cell(
        identity: &[(&str, &str)],
        (mean, p99): (f64, f64),
        extra: &[(&str, f64)],
    ) -> JsonValue {
        let defaults = [
            "azure",
            "synthetic",
            "DSCS-DSA",
            "fcfs",
            "fixed-window",
            "fixed",
            "round-robin",
            "flash",
            "shm",
        ];
        let mut c = JsonValue::object();
        for (key, default) in IDENTITY_KEYS.into_iter().zip(defaults) {
            let value = identity
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(default, |&(_, v)| v);
            c.push(key, value);
        }
        c.push("mean_latency_ms", mean);
        c.push("p99_latency_ms", p99);
        for &(key, value) in extra {
            c.push(key, value);
        }
        c
    }

    /// A rendered report of `schema` with top-level `fields` and `cells`.
    fn render(schema: &str, fields: &[(&str, f64)], cells: Vec<JsonValue>) -> String {
        let mut root = JsonValue::object();
        root.push("schema", schema);
        for &(key, value) in fields {
            root.push(key, value);
        }
        root.push("cells", JsonValue::Array(cells));
        root.render()
    }

    /// A report of one cell per `(keepalive, mean, p99)` entry.
    fn report(cells: &[(&str, f64, f64)]) -> String {
        let cells = cells
            .iter()
            .map(|&(keepalive, mean, p99)| cell(&[("keepalive", keepalive)], (mean, p99), &[]))
            .collect();
        render(SCHEMA, &[], cells)
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[("fixed-window", 10.0, 20.0)]);
        let outcome = compare_reports(&r, &r, 10.0).expect("valid");
        assert!(outcome.passed());
        assert_eq!(outcome.compared, 1);
        assert_eq!(outcome.skipped, 0);
    }

    #[test]
    fn regressions_beyond_threshold_fail_worst_first() {
        let base = report(&[("fixed-window", 10.0, 20.0), ("no-keepalive", 5.0, 9.0)]);
        let cur = report(&[("fixed-window", 10.5, 25.0), ("no-keepalive", 8.0, 9.0)]);
        let outcome = compare_reports(&base, &cur, 10.0).expect("valid");
        assert!(!outcome.passed());
        // mean 10 -> 10.5 is +5%, below threshold; p99 20 -> 25 and
        // mean 5 -> 8 are beyond it.
        assert_eq!(outcome.regressions.len(), 2);
        assert_eq!(outcome.regressions[0].metric, "mean_latency_ms");
        assert!((outcome.regressions[0].change_pct - 60.0).abs() < 1e-9);
        assert_eq!(outcome.regressions[1].metric, "p99_latency_ms");
        assert!(outcome.regressions[0].to_string().contains("no-keepalive"));
    }

    #[test]
    fn improvements_and_new_cells_pass() {
        let base = report(&[("fixed-window", 10.0, 20.0)]);
        let cur = report(&[("fixed-window", 8.0, 15.0), ("hybrid-prewarm", 50.0, 90.0)]);
        let outcome = compare_reports(&base, &cur, 10.0).expect("valid");
        assert!(outcome.passed());
        assert_eq!(outcome.compared, 1);
        assert_eq!(outcome.skipped, 1, "the new cell is skipped, not failed");
    }

    /// Satellite regression test: a baseline carrying an older schema
    /// version (e.g. the v2 artifact of the run before a schema bump) passes
    /// vacuously with an explanatory note instead of erroring on missing
    /// fields or flagging spurious regressions against changed physics.
    #[test]
    fn older_schema_baselines_pass_vacuously_with_a_note() {
        let v2 = render("dscs-at-scale-v2", &[], vec![cell(&[], (10.0, 20.0), &[])]);
        let v3 = render(
            "dscs-at-scale-v3",
            &[],
            vec![cell(&[], (1000.0, 2000.0), &[])],
        );

        // A 100x "regression" against the old schema still passes: the
        // numbers are not comparable across the bump.
        let outcome = compare_reports(&v2, &v3, 10.0).expect("valid");
        assert!(outcome.passed());
        assert_eq!(outcome.compared, 0);
        assert_eq!(outcome.skipped, 2);
        let note = outcome.schema_note.expect("note explains the vacuous pass");
        assert!(note.contains("dscs-at-scale-v2") && note.contains("dscs-at-scale-v3"));

        // Same schema on both sides: the gate compares and arms normally.
        let same = compare_reports(
            &report(&[("fixed-window", 10.0, 20.0)]),
            &report(&[("fixed-window", 10.0, 20.0)]),
            10.0,
        )
        .expect("valid");
        assert_eq!(same.schema_note, None);
        assert_eq!(same.compared, 1);
    }

    #[test]
    fn cells_differing_only_by_balancer_are_distinct() {
        let cell_at = |balancer, mean| cell(&[("balancer", balancer)], (mean, mean * 2.0), &[]);
        let base = render(
            SCHEMA,
            &[],
            vec![cell_at("round-robin", 10.0), cell_at("locality", 5.0)],
        );
        // The locality cell regresses, the round-robin cell improves: the
        // gate must not cross-match them.
        let cur = render(
            SCHEMA,
            &[],
            vec![cell_at("round-robin", 9.0), cell_at("locality", 8.0)],
        );
        let outcome = compare_reports(&base, &cur, 10.0).expect("valid");
        assert_eq!(outcome.compared, 2);
        assert_eq!(outcome.regressions.len(), 2, "locality mean and p99");
        assert!(outcome.regressions[0].cell.contains("locality"));
    }

    /// Satellite regression test: the v8 modality axes are part of cell
    /// identity, so a snapshot-restore cell is never diffed against the
    /// flash-reload cell sharing its policy point, and an http-transport
    /// cell is never diffed against its shm twin.
    #[test]
    fn cells_differing_only_by_cold_path_or_ipc_are_distinct() {
        let cell_at = |path, ipc, mean| {
            cell(
                &[("cold_path", path), ("ipc", ipc)],
                (mean, mean * 2.0),
                &[],
            )
        };
        let base = render(
            SCHEMA,
            &[],
            vec![
                cell_at("flash", "shm", 10.0),
                cell_at("snapshot", "shm", 5.0),
                cell_at("flash", "http", 12.0),
            ],
        );
        // Only the snapshot cell regresses; its flash/http neighbours
        // improve. Cross-matching any of them would hide the regression or
        // flag a spurious one.
        let cur = render(
            SCHEMA,
            &[],
            vec![
                cell_at("flash", "shm", 9.0),
                cell_at("snapshot", "shm", 8.0),
                cell_at("flash", "http", 11.0),
            ],
        );
        let outcome = compare_reports(&base, &cur, 10.0).expect("valid");
        assert_eq!(outcome.compared, 3);
        assert_eq!(outcome.regressions.len(), 2, "snapshot mean and p99");
        assert!(outcome.regressions[0].cell.contains("snapshot"));
    }

    /// Satellite regression test: the workload's source is part of cell
    /// identity, so a trace-file replay of "azure" traffic is never diffed
    /// against the synthetic "azure" cell (within one schema version; a
    /// cross-version comparison already passes vacuously).
    #[test]
    fn cells_differing_only_by_workload_source_are_distinct() {
        let cell_at = |source, mean| cell(&[("workload_source", source)], (mean, mean * 2.0), &[]);
        let base = render(
            SCHEMA,
            &[],
            vec![
                cell_at("synthetic", 10.0),
                cell_at("trace-file:day1.csv", 5.0),
            ],
        );
        // The trace-file cell regresses, the synthetic cell improves: the
        // gate must not cross-match them on the shared workload name.
        let cur = render(
            SCHEMA,
            &[],
            vec![
                cell_at("synthetic", 9.0),
                cell_at("trace-file:day1.csv", 8.0),
            ],
        );
        let outcome = compare_reports(&base, &cur, 10.0).expect("valid");
        assert_eq!(outcome.compared, 2);
        assert_eq!(outcome.regressions.len(), 2, "trace-file mean and p99");
        assert!(outcome.regressions[0].cell.contains("trace-file:day1.csv"));
    }

    /// A cell missing any one identity key has no identity: it is skipped
    /// on either side, never matched against a cell that carries the key.
    #[test]
    fn cells_missing_an_identity_key_are_skipped() {
        let whole = render(SCHEMA, &[], vec![cell(&[], (10.0, 20.0), &[])]);
        for key in IDENTITY_KEYS {
            let JsonValue::Object(pairs) = cell(&[], (10.0, 20.0), &[]) else {
                panic!("a cell is an object")
            };
            let trimmed = JsonValue::Object(pairs.into_iter().filter(|(k, _)| k != key).collect());
            let partial = render(SCHEMA, &[], vec![trimmed]);
            for (base, cur) in [(&whole, &partial), (&partial, &whole), (&partial, &partial)] {
                let outcome = compare_reports(base, cur, 10.0).expect("valid");
                assert_eq!(outcome.compared, 0, "without {key}");
                assert_eq!(outcome.skipped, 2, "without {key}");
            }
        }
    }

    /// Engine-throughput drops warn without failing: a >10% `events_per_sec`
    /// regression (per cell and aggregate) is reported, worst first, but the
    /// gate still passes; reports without the measured fields warn nothing.
    #[test]
    fn throughput_drops_warn_but_never_fail() {
        let make = |aggregate_eps: f64, cell_eps: f64| {
            let cell = cell(&[], (10.0, 20.0), &[("events_per_sec", cell_eps)]);
            render(SCHEMA, &[("events_per_sec", aggregate_eps)], vec![cell])
        };
        // Aggregate halves (-50%), the cell drops 20%: both warned, worst
        // first, and the gate still passes.
        let outcome = compare_reports(&make(1e6, 1e5), &make(5e5, 8e4), 10.0).expect("valid");
        assert!(outcome.passed(), "throughput drops must not fail the gate");
        assert_eq!(outcome.regressions, Vec::new());
        assert_eq!(outcome.throughput_warnings.len(), 2);
        assert_eq!(outcome.throughput_warnings[0].cell, "(aggregate)");
        assert!((outcome.throughput_warnings[0].drop_pct - 50.0).abs() < 1e-9);
        assert!(outcome.throughput_warnings[1].cell.contains("azure"));
        assert!(outcome.throughput_warnings[0]
            .to_string()
            .contains("events_per_sec"));
        // Within threshold, or faster: no warnings.
        let fine = compare_reports(&make(1e6, 1e5), &make(9.5e5, 2e5), 10.0).expect("valid");
        assert_eq!(fine.throughput_warnings, Vec::new());
        // Baselines without the measured fields (deterministic reports)
        // produce no warnings either.
        let bare = report(&[("fixed-window", 10.0, 20.0)]);
        let warned = compare_reports(&bare, &bare, 10.0).expect("valid");
        assert_eq!(warned.throughput_warnings, Vec::new());
    }

    /// Satellite regression test: a baseline cell carrying
    /// `events_per_sec: 0.0` (a sweep too fast for the wall clock to
    /// resolve) must produce no warning at all — not an inf/NaN drop
    /// percentage that poisons the worst-first sort.
    #[test]
    fn zero_throughput_baselines_warn_nothing() {
        let make = |eps: f64| {
            let cell = cell(&[], (10.0, 20.0), &[("events_per_sec", eps)]);
            render(SCHEMA, &[("events_per_sec", eps)], vec![cell])
        };
        let outcome = compare_reports(&make(0.0), &make(1e5), 10.0).expect("valid");
        assert!(outcome.passed());
        assert_eq!(outcome.throughput_warnings, Vec::new());
        // And a genuine drop onto a zero current value still warns cleanly:
        // the percentage is computed off the (positive) baseline.
        let dropped = compare_reports(&make(1e5), &make(0.0), 10.0).expect("valid");
        assert_eq!(dropped.throughput_warnings.len(), 2);
        assert!(dropped
            .throughput_warnings
            .iter()
            .all(|w| w.drop_pct.is_finite()));
    }

    /// Regret increases warn (worst first) without failing; decreases and
    /// sub-threshold drifts warn nothing, and reports lacking the v7 regret
    /// fields pass vacuously.
    #[test]
    fn regret_increases_warn_but_never_fail() {
        let make = |regrets: &[(&str, f64)]| {
            let cells = regrets
                .iter()
                .map(|&(keepalive, regret)| {
                    cell(
                        &[("keepalive", keepalive)],
                        (10.0, 20.0),
                        &[("regret_pct", regret)],
                    )
                })
                .collect();
            render(SCHEMA, &[], cells)
        };
        // no-keepalive jumps 0.50 -> 1.00 (+50 points), fixed-window drifts
        // +0.05 points: only the jump warns, and the gate still passes.
        let base = make(&[("no-keepalive", 0.50), ("fixed-window", 0.10)]);
        let cur = make(&[("no-keepalive", 1.00), ("fixed-window", 0.1005)]);
        let outcome = compare_reports(&base, &cur, 10.0).expect("valid");
        assert!(outcome.passed(), "regret is warn-only");
        assert_eq!(outcome.regret_warnings.len(), 1);
        let warning = &outcome.regret_warnings[0];
        assert!(warning.cell.contains("no-keepalive"));
        assert!((warning.increase_points - 50.0).abs() < 1e-9);
        assert!(warning.to_string().contains("regret_pct"));
        // Improvements warn nothing.
        let improved = compare_reports(&cur, &base, 10.0).expect("valid");
        assert_eq!(improved.regret_warnings, Vec::new());
        // A same-schema report without regret fields warns nothing (the
        // cross-schema pre-v7 case already passes vacuously with a note).
        let bare = report(&[("fixed-window", 10.0, 20.0)]);
        let vacuous = compare_reports(&bare, &bare, 10.0).expect("valid");
        assert_eq!(vacuous.regret_warnings, Vec::new());
    }

    #[test]
    fn malformed_reports_are_typed_errors() {
        let good = report(&[("fixed-window", 10.0, 20.0)]);
        assert!(matches!(
            compare_reports("not json", &good, 10.0),
            Err(GateError::Malformed {
                which: "baseline",
                ..
            })
        ));
        assert!(matches!(
            compare_reports(&good, "{}", 10.0),
            Err(GateError::MissingCells { which: "current" })
        ));
    }
}
