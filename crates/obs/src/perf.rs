//! The perf-regression gate: compares fresh `BENCH_*.json` output
//! against committed baseline specs in `results/baselines/`.
//!
//! A baseline spec pairs a frozen copy of a benchmark artifact with a
//! list of [`Check`]s over dotted JSON paths. Checks gate the *stable*
//! facts a benchmark asserts (overhead percentages, budget booleans,
//! artifact-identity flags) rather than raw wall-clock seconds, which
//! vary with host load — so the gate stays meaningful on a laptop and
//! in CI alike. `juggler perf-report` evaluates every spec and exits
//! nonzero when any check fails; `scripts/refresh_baselines.sh` is the
//! only sanctioned way to move a baseline, keeping churn explicit.

use serde::Value;

use crate::format::fmt_sig;

/// How a single metric is gated against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckOp {
    /// Fresh value must equal the baseline value exactly (numeric
    /// comparison is kind-insensitive: `5` matches `5.0`).
    Equals,
    /// Fresh value must not exceed `limit` (absolute ceiling,
    /// independent of the baseline value).
    Max(f64),
    /// Fresh value must be at least `limit`.
    Min(f64),
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
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Dotted path, e.g. `engine_batch.overhead_pct`.
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
/// frozen benchmark document they gate against.
#[derive(Debug, Clone)]
pub struct BaselineSpec {
    /// Name of the benchmark artifact this gates, e.g.
    /// `BENCH_metrics_overhead.json`.
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
/// tripped [`CheckOp::Min`] check and both the frozen baseline document
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
    let min_tripped = spec
        .checks
        .iter()
        .zip(&bench.outcomes)
        .any(|(check, outcome)| matches!(check.op, CheckOp::Min(_)) && !outcome.pass);
    if !min_tripped {
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

    /// Pretty-printed JSON for committing under `results/baselines/`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|c| {
                let mut fields = vec![("path".to_owned(), Value::Str(c.path.clone()))];
                match &c.op {
                    CheckOp::Equals => fields.push(("op".to_owned(), Value::Str("equals".into()))),
                    CheckOp::Max(limit) => {
                        fields.push(("op".to_owned(), Value::Str("max".into())));
                        fields.push(("limit".to_owned(), Value::Float(*limit)));
                    }
                    CheckOp::Min(limit) => {
                        fields.push(("op".to_owned(), Value::Str("min".into())));
                        fields.push(("limit".to_owned(), Value::Float(*limit)));
                    }
                    CheckOp::Band { tol_abs, tol_rel } => {
                        fields.push(("op".to_owned(), Value::Str("band".into())));
                        fields.push(("tol_abs".to_owned(), Value::Float(*tol_abs)));
                        fields.push(("tol_rel".to_owned(), Value::Float(*tol_rel)));
                    }
                }
                Value::Object(fields)
            })
            .collect();
        let doc = Value::Object(vec![
            ("source".to_owned(), Value::Str(self.source.clone())),
            ("checks".to_owned(), Value::Array(checks)),
            ("baseline".to_owned(), self.baseline.clone()),
        ]);
        let mut text = serde_json::to_string_pretty(&doc).expect("Value always serializes");
        text.push('\n');
        text
    }

    /// Parses a committed spec document.
    pub fn from_json(raw: &str) -> Result<Self, String> {
        let doc: Value = serde_json::from_str(raw).map_err(|e| format!("baseline spec: {e}"))?;
        let source = match doc.get("source") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("baseline spec: missing `source`".into()),
        };
        let baseline = doc
            .get("baseline")
            .cloned()
            .ok_or("baseline spec: missing `baseline`")?;
        let mut checks = Vec::new();
        let Some(Value::Array(raw_checks)) = doc.get("checks") else {
            return Err("baseline spec: missing `checks` array".into());
        };
        for c in raw_checks {
            let path = match c.get("path") {
                Some(Value::Str(p)) => p.clone(),
                _ => return Err("baseline spec: check missing `path`".into()),
            };
            let op_name = match c.get("op") {
                Some(Value::Str(o)) => o.clone(),
                _ => return Err(format!("baseline spec: check `{path}` missing `op`")),
            };
            let num = |key: &str| -> Result<f64, String> {
                c.get(key).and_then(as_f64).ok_or(format!(
                    "baseline spec: check `{path}` op `{op_name}` missing `{key}`"
                ))
            };
            let op = match op_name.as_str() {
                "equals" => CheckOp::Equals,
                "max" => CheckOp::Max(num("limit")?),
                "min" => CheckOp::Min(num("limit")?),
                "band" => CheckOp::Band {
                    tol_abs: num("tol_abs")?,
                    tol_rel: num("tol_rel")?,
                },
                other => return Err(format!("baseline spec: unknown op `{other}`")),
            };
            checks.push(Check { path, op });
        }
        Ok(BaselineSpec {
            source,
            checks,
            baseline,
        })
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

/// The default gate policy for the workspace's benchmark artifacts.
///
/// Returns `None` for unknown artifacts (they are reported but not
/// gated). Policy rationale: overhead *percentages* and identity
/// *booleans* are functions of code, not of host speed, so they are
/// safe to gate; raw seconds are not gated at all.
#[must_use]
pub fn default_checks(bench: &str) -> Option<Vec<Check>> {
    let overhead_common = |engine_band_abs: f64| {
        vec![
            Check::new("workload", CheckOp::Equals),
            Check::new("reps", CheckOp::Equals),
            Check::new("budget_pct", CheckOp::Equals),
            Check::new("within_budget", CheckOp::Equals),
            Check::new("offline_training.overhead_pct", CheckOp::Max(5.0)),
            Check::new(
                "engine_batch.overhead_pct",
                CheckOp::Band {
                    tol_abs: engine_band_abs,
                    tol_rel: 1.0,
                },
            ),
        ]
    };
    match bench {
        "metrics_overhead" => Some(overhead_common(8.0)),
        "trace_overhead" => Some(overhead_common(25.0)),
        // Armed-but-idle chaos machinery on the fault-free hot path: the
        // recorded overhead percentage must stay under the 5 % budget.
        "chaos_overhead" => Some(vec![
            Check::new("workload", CheckOp::Equals),
            Check::new("reps", CheckOp::Equals),
            Check::new("budget_pct", CheckOp::Equals),
            Check::new("within_budget", CheckOp::Equals),
            // The default-policy armed state is the one every fault-free
            // run carries: gate it to the declared 5 % budget. The
            // speculation-armed row is opt-in and reported but not gated
            // (like trace_overhead's jittery engine batch).
            Check::new("armed_idle.overhead_pct", CheckOp::Max(5.0)),
        ]),
        // Tenancy machinery for a lone application: the single-tenant
        // set is the path every one-entry spec takes, so it is gated to
        // the 5 % budget. The lone-active row (plus a weightless ghost)
        // is opt-in and reported but not gated.
        "tenants_overhead" => Some(vec![
            Check::new("workload", CheckOp::Equals),
            Check::new("reps", CheckOp::Equals),
            Check::new("budget_pct", CheckOp::Equals),
            Check::new("within_budget", CheckOp::Equals),
            Check::new("single_tenant.overhead_pct", CheckOp::Max(5.0)),
        ]),
        // Phase-profiler tax on the training pipeline. The scope call
        // sites are always compiled in, so the measurable contrast is
        // recording on vs off: gate the *enabled* overhead to the
        // declared 5 % budget (per-run granularity keeps it small).
        // The armed-idle row (disabled profiler, one relaxed atomic
        // load per call site) is a nanoseconds-scale micro-measurement,
        // reported for visibility but too jittery to pin.
        "profile_overhead" => Some(vec![
            Check::new("workload", CheckOp::Equals),
            Check::new("reps", CheckOp::Equals),
            Check::new("budget_pct", CheckOp::Equals),
            Check::new("within_budget", CheckOp::Equals),
            Check::new("enabled.overhead_pct", CheckOp::Max(5.0)),
        ]),
        // Health-watchtower fold cost over a synthetic 100-manifest
        // ledger, relative to one offline training run: the fold must
        // stay under the 5 % budget so `juggler watch` is cheap enough
        // to run after every training sweep.
        "health_overhead" => Some(vec![
            Check::new("workload", CheckOp::Equals),
            Check::new("manifests", CheckOp::Equals),
            Check::new("budget_pct", CheckOp::Equals),
            Check::new("within_budget", CheckOp::Equals),
            Check::new("fold.overhead_pct", CheckOp::Max(5.0)),
        ]),
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
        // Single-run simulator throughput vs the frozen pre-rework
        // constants. The workload shape, the frozen constants, and the
        // determinism flag must not drift. The speedup bar is a
        // regression trip-wire, NOT the ≥3× achievement bar: the fresh
        // run is re-measured at check time on a shared box whose noisy
        // neighbours inflate the fresh seconds (the frozen denominator
        // cannot move), and sustained contention has been observed to
        // deflate a calm-window 2.9× to ~1.55×. The bar sits below that
        // worst observed window, so it only trips when the hot path
        // loses the rework's win outright (a >2× slowdown at equal
        // contention) — calm-window throughput is recorded in the
        // committed artifact, where drift is visible in review.
        "sim_throughput" => Some(vec![
            Check::new("workload", CheckOp::Equals),
            Check::new("machines", CheckOp::Equals),
            Check::new("tasks_per_run", CheckOp::Equals),
            Check::new("digests_stable", CheckOp::Equals),
            Check::new("run_only.pre_pr_seconds", CheckOp::Equals),
            Check::new("grid_cell.pre_pr_seconds", CheckOp::Equals),
            Check::new("run_only.speedup_vs_pre_pr", CheckOp::Min(1.3)),
            Check::new("grid_cell.speedup_vs_pre_pr", CheckOp::Min(1.3)),
        ]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc(overhead: f64, within: bool) -> Value {
        serde_json::from_str(&format!(
            r#"{{
                "workload": "LOR",
                "reps": 9,
                "budget_pct": 5.0,
                "within_budget": {within},
                "offline_training": {{"overhead_pct": -0.53}},
                "engine_batch": {{"overhead_pct": {overhead}}}
            }}"#
        ))
        .unwrap()
    }

    fn spec() -> BaselineSpec {
        BaselineSpec::new(
            "BENCH_metrics_overhead.json",
            default_checks("metrics_overhead").unwrap(),
            bench_doc(1.85, true),
        )
    }

    #[test]
    fn identical_run_passes() {
        let report = spec().evaluate(&bench_doc(1.85, true));
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn small_timing_noise_passes() {
        let report = spec().evaluate(&bench_doc(3.4, true));
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn budget_blowout_fails() {
        let report = spec().evaluate(&bench_doc(22.0, false));
        assert!(!report.passed());
        let failed: Vec<&str> = report
            .outcomes
            .iter()
            .filter(|o| !o.pass)
            .map(|o| o.path.as_str())
            .collect();
        assert!(failed.contains(&"within_budget"), "{failed:?}");
        assert!(failed.contains(&"engine_batch.overhead_pct"), "{failed:?}");
    }

    #[test]
    fn missing_metric_fails() {
        let fresh: Value = serde_json::from_str(r#"{"workload": "LOR"}"#).unwrap();
        let report = spec().evaluate(&fresh);
        assert!(!report.passed());
        let missing = report
            .outcomes
            .iter()
            .find(|o| o.path == "reps")
            .expect("reps outcome");
        assert!(missing.detail.contains("missing"), "{}", missing.detail);
    }

    #[test]
    fn spec_json_roundtrip() {
        let original = spec();
        let parsed = BaselineSpec::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed.source, original.source);
        assert_eq!(parsed.checks, original.checks);
        // The re-parsed spec gates identically.
        assert!(parsed.evaluate(&bench_doc(1.85, true)).passed());
        assert!(!parsed.evaluate(&bench_doc(40.0, true)).passed());
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
        report
            .benches
            .push(spec().evaluate(&bench_doc(40.0, false)));
        let text = report.render();
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("FAILED"), "{text}");
        let ok = PerfReport {
            benches: vec![spec().evaluate(&bench_doc(1.85, true))],
        };
        assert!(ok.render().contains("checks passed"));
    }

    #[test]
    fn profile_overhead_policy_gates_enabled_row_only() {
        let checks = default_checks("profile_overhead").unwrap();
        assert!(checks
            .iter()
            .any(|c| c.path == "enabled.overhead_pct" && c.op == CheckOp::Max(5.0)));
        assert!(
            !checks.iter().any(|c| c.path.starts_with("armed_idle.")),
            "the armed-idle micro row is informational, not gated"
        );
    }

    #[test]
    fn health_overhead_policy_gates_fold_cost() {
        let checks = default_checks("health_overhead").unwrap();
        assert!(checks
            .iter()
            .any(|c| c.path == "fold.overhead_pct" && c.op == CheckOp::Max(5.0)));
        assert!(checks
            .iter()
            .any(|c| c.path == "manifests" && c.op == CheckOp::Equals));
        assert!(
            !checks.iter().any(|c| c.path.contains("seconds")),
            "raw seconds are never gated"
        );
    }

    fn throughput_doc(speedup: f64, sim_ns: u64) -> Value {
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
                    "speedup_vs_pre_pr".to_owned(),
                    Value::Float(speedup),
                )]),
            ),
            ("profile".to_owned(), profile.to_value()),
        ])
    }

    #[test]
    fn regression_attribution_names_slow_phases_on_tripped_min() {
        let spec = BaselineSpec::new(
            "BENCH_sim_throughput.json",
            vec![Check::new("run_only.speedup_vs_pre_pr", CheckOp::Min(1.3))],
            throughput_doc(2.0, 100),
        );
        let fresh = throughput_doc(1.0, 250);
        let bench = spec.evaluate(&fresh);
        assert!(!bench.passed());
        let lines = regression_attribution(&spec, &fresh, &bench, 3).expect("attribution lines");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("sim:"), "{lines:?}");

        // A passing report produces no attribution, even though the fresh
        // profile is slower.
        let ok = throughput_doc(2.5, 250);
        let bench_ok = spec.evaluate(&ok);
        assert!(bench_ok.passed());
        assert!(regression_attribution(&spec, &ok, &bench_ok, 3).is_none());
    }
}
