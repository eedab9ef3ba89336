//! The perf-regression gate: compares fresh `BENCH_*.json` output
//! against committed baseline specs in `results/baselines/`.
//!
//! A baseline spec pairs a frozen copy of a benchmark artifact with a
//! list of [`Check`]s over dotted JSON paths; its file format is the
//! derived JSON of [`BaselineSpec`], so an unknown key or op is an
//! error. Checks gate the *stable* facts a benchmark asserts (overhead
//! ratios, budget booleans, artifact-identity flags, allocation counts)
//! rather than raw wall-clock seconds, which vary with host load — so
//! the gate stays meaningful on a laptop and in CI alike; the one
//! exception, simulator throughput, is held to a multiple of its own
//! committed baseline. `juggler perf-report` evaluates every spec and exits
//! nonzero when any check fails; `scripts/refresh_baselines.sh` is the
//! only sanctioned way to move a baseline, keeping churn explicit.

use serde::{Deserialize, Serialize, Value};

use crate::format::fmt_sig;

/// How a single metric is gated against its baseline. In a spec file it
/// is externally tagged: `"Equals"`, `{"Max": 1.05}`, `{"MaxRatio": 1.3}`,
/// `{"Band": {"tol_abs": 0.1, "tol_rel": 0.0}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum CheckOp {
    /// Fresh value must equal the baseline value exactly (numeric
    /// comparison is kind-insensitive: `5` matches `5.0`).
    Equals,
    /// Fresh value must not exceed `limit` (absolute ceiling,
    /// independent of the baseline value).
    Max(f64),
    /// Fresh value must be at least `limit`.
    Min(f64),
    /// Fresh value must not exceed `ratio` times the baseline value: a
    /// one-sided, baseline-relative ceiling (for seconds, where only
    /// slower is a regression).
    MaxRatio(f64),
    /// Fresh value must sit within `max(tol_abs, tol_rel * |baseline|)`
    /// of the baseline value.
    Band {
        /// Absolute tolerance (same unit as the metric).
        tol_abs: f64,
        /// Relative tolerance as a fraction of the baseline magnitude.
        tol_rel: f64,
    },
}

/// One gated metric: a dotted path into the benchmark JSON plus the op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Check {
    /// Dotted path, e.g. `rows.chaos_armed_idle.median`.
    pub path: String,
    /// The gate applied at that path.
    pub op: CheckOp,
}

impl Check {
    /// Convenience constructor.
    #[must_use]
    pub fn new(path: &str, op: CheckOp) -> Self {
        Check {
            path: path.to_owned(),
            op,
        }
    }
}

/// A committed baseline: the source artifact name, the checks, and the
/// frozen benchmark document they gate against. Committed under
/// `results/baselines/` as its pretty-printed JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BaselineSpec {
    /// Name of the benchmark artifact this gates, e.g.
    /// `BENCH_overhead.json`.
    pub source: String,
    /// The gates.
    pub checks: Vec<Check>,
    /// Frozen copy of the benchmark document at baseline time.
    pub baseline: Value,
}

/// Verdict for one evaluated check.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Dotted path of the gated metric.
    pub path: String,
    /// Human-readable account of the comparison.
    pub detail: String,
    /// Whether the check passed.
    pub pass: bool,
}

/// All check outcomes for one benchmark artifact.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Source artifact name.
    pub source: String,
    /// Per-check verdicts, in spec order.
    pub outcomes: Vec<CheckOutcome>,
}

impl BenchReport {
    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.pass)
    }
}

/// The full perf-report: one [`BenchReport`] per baseline spec.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    /// Per-benchmark reports, in evaluation order.
    pub benches: Vec<BenchReport>,
}

impl PerfReport {
    /// Whether any check anywhere failed.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.benches.iter().any(|b| !b.passed())
    }

    /// Deterministic human-readable rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("perf-report\n");
        for bench in &self.benches {
            let verdict = if bench.passed() { "ok" } else { "REGRESSION" };
            out.push_str(&format!("  {} .. {verdict}\n", bench.source));
            for o in &bench.outcomes {
                let mark = if o.pass { "pass" } else { "FAIL" };
                out.push_str(&format!("    [{mark}] {}: {}\n", o.path, o.detail));
            }
        }
        let (total, failed) = self.benches.iter().fold((0usize, 0usize), |(t, f), b| {
            (
                t + b.outcomes.len(),
                f + b.outcomes.iter().filter(|o| !o.pass).count(),
            )
        });
        if failed == 0 {
            out.push_str(&format!("  {total} checks passed\n"));
        } else {
            out.push_str(&format!("  {failed} of {total} checks FAILED\n"));
        }
        out
    }
}

/// Names the phases behind a throughput regression: when `bench` has a
/// tripped [`CheckOp::Min`] or [`CheckOp::MaxRatio`] check and both the
/// frozen baseline document
/// and the fresh artifact embed a `profile` key (a canonical
/// [`crate::prof::Profile`] JSON tree), the two profiles are diffed
/// node-by-node and the `top` largest per-phase slowdowns are returned,
/// rendered one per line. `None` when nothing tripped or either side
/// carries no profile — the attribution is best-effort and never turns
/// a clean report into a failure.
#[must_use]
pub fn regression_attribution(
    spec: &BaselineSpec,
    fresh: &Value,
    bench: &BenchReport,
    top: usize,
) -> Option<Vec<String>> {
    let throughput_tripped = spec
        .checks
        .iter()
        .zip(&bench.outcomes)
        .any(|(check, outcome)| {
            matches!(check.op, CheckOp::Min(_) | CheckOp::MaxRatio(_)) && !outcome.pass
        });
    if !throughput_tripped {
        return None;
    }
    let base = crate::prof::Profile::from_value(spec.baseline.get("profile")?).ok()?;
    let new = crate::prof::Profile::from_value(fresh.get("profile")?).ok()?;
    let lines = crate::prof::ProfileDiff::between(&base, &new).top_regressed(top);
    if lines.is_empty() {
        return None;
    }
    Some(lines)
}

impl BaselineSpec {
    /// A spec from its parts.
    #[must_use]
    pub fn new(source: &str, checks: Vec<Check>, baseline: Value) -> Self {
        BaselineSpec {
            source: source.to_owned(),
            checks,
            baseline,
        }
    }

    /// Evaluates every check against a fresh benchmark document.
    #[must_use]
    pub fn evaluate(&self, fresh: &Value) -> BenchReport {
        let outcomes = self
            .checks
            .iter()
            .map(|check| {
                let got = lookup(fresh, &check.path);
                let base = lookup(&self.baseline, &check.path);
                evaluate_check(check, base, got)
            })
            .collect();
        BenchReport {
            source: self.source.clone(),
            outcomes,
        }
    }
}

fn evaluate_check(check: &Check, base: Option<&Value>, got: Option<&Value>) -> CheckOutcome {
    let path = check.path.clone();
    let Some(got) = got else {
        return CheckOutcome {
            path,
            detail: "missing from fresh benchmark output".into(),
            pass: false,
        };
    };
    let (pass, detail) = match &check.op {
        CheckOp::Equals => match base {
            Some(base) => {
                let eq = values_equal(base, got);
                (
                    eq,
                    format!("{} == baseline {}", render_value(got), render_value(base)),
                )
            }
            None => (false, "missing from baseline document".into()),
        },
        CheckOp::Max(limit) => match as_f64(got) {
            Some(x) => (
                x <= *limit,
                format!("{} <= limit {}", fmt_sig(x, 4), fmt_sig(*limit, 4)),
            ),
            None => (false, format!("{} is not numeric", render_value(got))),
        },
        CheckOp::Min(limit) => match as_f64(got) {
            Some(x) => (
                x >= *limit,
                format!("{} >= limit {}", fmt_sig(x, 4), fmt_sig(*limit, 4)),
            ),
            None => (false, format!("{} is not numeric", render_value(got))),
        },
        CheckOp::MaxRatio(ratio) => match (base.and_then(as_f64), as_f64(got)) {
            (Some(b), Some(x)) => (
                x <= ratio * b,
                format!(
                    "{} <= {} x baseline {}",
                    fmt_sig(x, 4),
                    fmt_sig(*ratio, 4),
                    fmt_sig(b, 4)
                ),
            ),
            _ => (false, "baseline or fresh value not numeric".into()),
        },
        CheckOp::Band { tol_abs, tol_rel } => match (base.and_then(as_f64), as_f64(got)) {
            (Some(b), Some(x)) => {
                let tol = tol_abs.max(tol_rel * b.abs());
                (
                    (x - b).abs() <= tol,
                    format!(
                        "{} within {} of baseline {}",
                        fmt_sig(x, 4),
                        fmt_sig(tol, 4),
                        fmt_sig(b, 4)
                    ),
                )
            }
            _ => (false, "baseline or fresh value not numeric".into()),
        },
    };
    CheckOutcome { path, detail, pass }
}

/// Resolves a dotted path (`a.b.c`) inside a JSON document.
#[must_use]
pub fn lookup<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    let mut cur = doc;
    for segment in path.split('.') {
        cur = cur.get(segment)?;
    }
    Some(cur)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// Kind-insensitive equality: numerics compare as `f64`, everything
/// else structurally.
fn values_equal(a: &Value, b: &Value) -> bool {
    match (as_f64(a), as_f64(b)) {
        (Some(x), Some(y)) => x == y,
        _ => match (a, b) {
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Null, Value::Null) => true,
            _ => false,
        },
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Float(x) => fmt_sig(*x, 4),
        Value::Str(s) => format!("\"{s}\""),
        other => serde_json::to_string(other).unwrap_or_else(|_| other.kind().to_owned()),
    }
}

/// How many times the committed baseline's best seconds a fresh
/// `sim_throughput` scenario may take. The committed baseline is the
/// fastest of fifteen consecutive runs of one build on a 2-vCPU Xeon; the
/// slowest of them read 1.60 times it, because the host has a fast and a
/// slow state that last seconds. Against that floor a 2x slowdown of the
/// hot path reads at least 2.0 and fails.
pub const SIM_THROUGHPUT_RATIO: f64 = 1.8;

/// The default gate policy for the workspace's benchmark artifacts.
///
/// Returns `None` for unknown artifacts (they are reported but not
/// gated). Policy rationale: overhead *ratios* and identity
/// *booleans* are functions of code, not of host speed, so they are
/// safe to gate. The only seconds gated are `sim_throughput`'s, and
/// only as a multiple of the committed baseline's (`MaxRatio`), which
/// is meaningful only on hosts like the one that recorded it.
#[must_use]
pub fn default_checks(bench: &str) -> Option<Vec<Check>> {
    match bench {
        // The median B/A ratio of each overhead row: a budgeted row's is
        // held to its limit (1.05: at most 5 % slower; the warm fold to
        // 0.05 of a doctor run), and `within_budget` also fails a row
        // whose interval stayed too wide to decide. An informational
        // row's band reaches from the baseline median to the farthest
        // bound of any ≈95 % interval the row showed in ten consecutive
        // runs on a 2-vCPU Xeon, so each of those runs sits inside it.
        "overhead" => {
            let band = |tol_abs| CheckOp::Band {
                tol_abs,
                tol_rel: 0.0,
            };
            let rows = [
                ("chaos_armed_idle", CheckOp::Max(1.05)),
                ("chaos_speculation_armed", band(0.052)),
                ("tenants_single", CheckOp::Max(1.05)),
                ("tenants_lone_active", band(0.027)),
                ("metrics_training", CheckOp::Max(1.05)),
                ("metrics_engine", band(0.020)),
                ("profile_training", CheckOp::Max(1.05)),
                ("profile_engine", band(0.023)),
                ("profile_idle_scope", band(0.028)),
                ("trace_training", CheckOp::Max(1.05)),
                ("trace_engine", band(0.049)),
                ("health_cold_fold", band(0.027)),
                ("health_warm_fold", CheckOp::Max(0.05)),
            ];
            let identity = ["workload", "manifests", "stop_width", "within_budget"]
                .map(|path| Check::new(path, CheckOp::Equals));
            let medians = rows.map(|(row, op)| Check::new(&format!("rows.{row}.median"), op));
            Some(identity.into_iter().chain(medians).collect())
        }
        // Heap allocations per one-thread training at seed 3, one row per
        // paper family. A counting global allocator makes them a function
        // of the code alone, so they repeat exactly on any host and a
        // ceiling cannot flake: each holds the count the training path
        // reaches, and any allocation added to it trips it. The seconds
        // beside them are not gated.
        "training_allocs" => {
            let ceilings = [
                ("LIR", 3_012.0),
                ("LOR", 4_572.0),
                ("PCA", 4_718.0),
                ("RFC", 4_057.0),
                ("SVM", 5_500.0),
            ];
            let shape = ["seed", "threads"].map(|path| Check::new(path, CheckOp::Equals));
            let counts = ceilings.map(|(family, max)| {
                Check::new(&format!("rows.{family}.allocs"), CheckOp::Max(max))
            });
            Some(shape.into_iter().chain(counts).collect())
        }
        "training_parallel" => Some(vec![
            Check::new("workload", CheckOp::Equals),
            Check::new("reps", CheckOp::Equals),
            Check::new("artifacts_identical", CheckOp::Equals),
        ]),
        // SHA-256 portable vs dispatched throughput: the digests must
        // agree and the measured shape must not drift. The ≥3× SHA-NI
        // floor is the bench's own gate (skipped on CPUs without SHA-NI),
        // so no host-dependent speed is pinned here.
        "hash_throughput" => Some(vec![
            Check::new("reps", CheckOp::Equals),
            Check::new("digests_identical", CheckOp::Equals),
            Check::new("manifest_window.manifests", CheckOp::Equals),
        ]),
        // JSON number text (kernel vs `format!`) and manifest
        // parse/serialize throughput: the kernel's text must equal
        // `format!`'s and the window must not drift. The >=1.3x f64 text
        // speedup is the bench's own gate, so no host speed is pinned here.
        "json_throughput" => Some(vec![
            Check::new("reps", CheckOp::Equals),
            Check::new("manifests", CheckOp::Equals),
            Check::new("output_identical", CheckOp::Equals),
        ]),
        // Single-run simulator throughput: each scenario's best-of-9
        // seconds against the committed baseline's, measured on the same
        // host (see `SIM_THROUGHPUT_RATIO`). The workload shape and the
        // determinism flag must not drift.
        "sim_throughput" => {
            let ceiling = CheckOp::MaxRatio(SIM_THROUGHPUT_RATIO);
            Some(vec![
                Check::new("workload", CheckOp::Equals),
                Check::new("machines", CheckOp::Equals),
                Check::new("tasks_per_run", CheckOp::Equals),
                Check::new("digests_stable", CheckOp::Equals),
                Check::new("run_only.best_seconds", ceiling.clone()),
                Check::new("grid_cell.best_seconds", ceiling),
            ])
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc(engine: f64, within: bool) -> Value {
        serde_json::from_str(&format!(
            r#"{{
                "workload": "LOR",
                "within_budget": {within},
                "rows": {{
                    "trace_training": {{"median": 1.01}},
                    "trace_engine": {{"median": {engine}}}
                }}
            }}"#
        ))
        .unwrap()
    }

    fn spec() -> BaselineSpec {
        let band = CheckOp::Band {
            tol_abs: 0.1,
            tol_rel: 0.0,
        };
        BaselineSpec::new(
            "BENCH_overhead.json",
            vec![
                Check::new("workload", CheckOp::Equals),
                Check::new("within_budget", CheckOp::Equals),
                Check::new("rows.trace_training.median", CheckOp::Max(1.05)),
                Check::new("rows.trace_engine.median", band),
            ],
            bench_doc(1.30, true),
        )
    }

    #[test]
    fn identical_run_passes() {
        let report = spec().evaluate(&bench_doc(1.30, true));
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn small_timing_noise_passes() {
        let report = spec().evaluate(&bench_doc(1.37, true));
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn budget_blowout_fails() {
        let report = spec().evaluate(&bench_doc(2.2, false));
        assert!(!report.passed());
        let failed: Vec<&str> = report
            .outcomes
            .iter()
            .filter(|o| !o.pass)
            .map(|o| o.path.as_str())
            .collect();
        assert_eq!(failed, ["within_budget", "rows.trace_engine.median"]);
    }

    #[test]
    fn missing_metric_fails() {
        let fresh: Value = serde_json::from_str(r#"{"workload": "LOR"}"#).unwrap();
        let report = spec().evaluate(&fresh);
        assert!(!report.passed());
        let missing = report
            .outcomes
            .iter()
            .find(|o| o.path == "within_budget")
            .expect("within_budget outcome");
        assert!(missing.detail.contains("missing"), "{}", missing.detail);
    }

    #[test]
    fn spec_json_roundtrip() {
        let original = spec();
        let text = serde_json::to_string_pretty(&original).unwrap();
        let parsed: BaselineSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.source, original.source);
        assert_eq!(parsed.checks, original.checks);
        assert_eq!(parsed.baseline, original.baseline);
        // The re-parsed spec gates identically.
        assert!(parsed.evaluate(&bench_doc(1.30, true)).passed());
        assert!(!parsed.evaluate(&bench_doc(4.0, true)).passed());
    }

    #[test]
    fn checks_are_externally_tagged_and_strict() {
        let checks = vec![
            Check::new("a", CheckOp::Equals),
            Check::new("b", CheckOp::Max(1.05)),
            Check::new(
                "c",
                CheckOp::Band {
                    tol_abs: 0.5,
                    tol_rel: 0.0,
                },
            ),
        ];
        let text = serde_json::to_string(&checks).unwrap();
        assert_eq!(
            text,
            r#"[{"path":"a","op":"Equals"},{"path":"b","op":{"Max":1.05}},{"path":"c","op":{"Band":{"tol_abs":0.5,"tol_rel":0.0}}}]"#
        );
        // An unknown op or key is an error (end to end, with the file
        // named, in `tests/perf_report_cli.rs`).
        for bad in [
            r#"{"path":"a","op":"equals"}"#,
            r#"{"path":"a","op":"Equals","limit":1}"#,
        ] {
            assert!(serde_json::from_str::<Check>(bad).is_err(), "{bad}");
        }
    }

    /// `MaxRatio` is one-sided and relative to the baseline value: faster
    /// always passes, slower passes up to the ratio, and a 2x slowdown
    /// fails the sim-throughput ceiling.
    #[test]
    fn max_ratio_is_a_baseline_relative_ceiling() {
        let doc = |s: f64| Value::Object(vec![("s".to_owned(), Value::Float(s))]);
        let spec = BaselineSpec::new(
            "x",
            vec![Check::new("s", CheckOp::MaxRatio(SIM_THROUGHPUT_RATIO))],
            doc(0.002),
        );
        for (fresh, pass) in [
            (0.001, true),
            (0.002, true),
            (0.002 * SIM_THROUGHPUT_RATIO, true),
            (0.002 * SIM_THROUGHPUT_RATIO * 1.001, false),
            (0.004, false),
        ] {
            assert_eq!(spec.evaluate(&doc(fresh)).passed(), pass, "{fresh}");
        }
        let text = serde_json::to_string(&Check::new("s", CheckOp::MaxRatio(1.5))).unwrap();
        assert_eq!(text, r#"{"path":"s","op":{"MaxRatio":1.5}}"#);
        let policy = default_checks("sim_throughput").unwrap();
        for scenario in ["run_only", "grid_cell"] {
            let path = format!("{scenario}.best_seconds");
            let check = policy.iter().find(|c| c.path == path).expect("gated");
            assert_eq!(check.op, CheckOp::MaxRatio(SIM_THROUGHPUT_RATIO));
        }
    }

    #[test]
    fn equals_is_kind_insensitive() {
        let base: Value = serde_json::from_str(r#"{"reps": 9}"#).unwrap();
        let fresh: Value = serde_json::from_str(r#"{"reps": 9.0}"#).unwrap();
        let spec = BaselineSpec::new("x", vec![Check::new("reps", CheckOp::Equals)], base);
        assert!(spec.evaluate(&fresh).passed());
    }

    #[test]
    fn lookup_walks_nested_paths() {
        let doc: Value = serde_json::from_str(r#"{"a": {"b": {"c": 7}}}"#).unwrap();
        assert!(matches!(lookup(&doc, "a.b.c"), Some(Value::Int(7))));
        assert!(lookup(&doc, "a.b.missing").is_none());
    }

    #[test]
    fn render_shows_regression_summary() {
        let mut report = PerfReport::default();
        report.benches.push(spec().evaluate(&bench_doc(4.0, false)));
        let text = report.render();
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("FAILED"), "{text}");
        let ok = PerfReport {
            benches: vec![spec().evaluate(&bench_doc(1.30, true))],
        };
        assert!(ok.render().contains("checks passed"));
    }

    #[test]
    fn overhead_policy_holds_budgeted_rows_to_their_limits() {
        let checks = default_checks("overhead").unwrap();
        let op = |path: &str| {
            let found = checks.iter().find(|c| c.path == path);
            found.map(|c| c.op.clone()).expect(path)
        };
        for row in [
            "chaos_armed_idle",
            "tenants_single",
            "metrics_training",
            "profile_training",
            "trace_training",
        ] {
            assert_eq!(op(&format!("rows.{row}.median")), CheckOp::Max(1.05));
        }
        assert_eq!(op("rows.health_warm_fold.median"), CheckOp::Max(0.05));
        assert_eq!(op("within_budget"), CheckOp::Equals);
        // No band is wider than its row's effective tolerance before the
        // merge (metrics engine 8 points, trace engine 95 points).
        for (row, cap) in [("metrics_engine", 0.08), ("trace_engine", 0.95)] {
            let CheckOp::Band { tol_abs, tol_rel } = op(&format!("rows.{row}.median")) else {
                panic!("{row} is banded");
            };
            assert!(tol_abs <= cap && tol_rel == 0.0, "{row}");
        }
        assert!(
            !checks.iter().any(|c| c.path.contains("seconds")),
            "raw seconds are never gated"
        );
    }

    fn throughput_doc(best_seconds: f64, sim_ns: u64) -> Value {
        let profile = crate::prof::Profile {
            roots: vec![crate::prof::ProfileNode {
                name: "sim".to_owned(),
                calls: 1,
                total_ns: sim_ns,
                self_ns: sim_ns,
                counters: Default::default(),
                children: Vec::new(),
            }],
        };
        Value::Object(vec![
            (
                "run_only".to_owned(),
                Value::Object(vec![(
                    "best_seconds".to_owned(),
                    Value::Float(best_seconds),
                )]),
            ),
            ("profile".to_owned(), profile.to_value()),
        ])
    }

    #[test]
    fn regression_attribution_names_slow_phases_on_tripped_ceiling() {
        let spec = BaselineSpec::new(
            "BENCH_sim_throughput.json",
            vec![Check::new("run_only.best_seconds", CheckOp::MaxRatio(1.3))],
            throughput_doc(0.002, 100),
        );
        let fresh = throughput_doc(0.004, 250);
        let bench = spec.evaluate(&fresh);
        assert!(!bench.passed());
        let lines = regression_attribution(&spec, &fresh, &bench, 3).expect("attribution lines");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("sim:"), "{lines:?}");

        // A passing report produces no attribution, even though the fresh
        // profile is slower.
        let ok = throughput_doc(0.0025, 250);
        let bench_ok = spec.evaluate(&ok);
        assert!(bench_ok.passed());
        assert!(regression_attribution(&spec, &ok, &bench_ok, 3).is_none());
    }
}
