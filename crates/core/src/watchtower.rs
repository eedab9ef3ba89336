//! The health watchtower: folds stored run history into per-model
//! health series, runs the `obs::health` drift detectors over them, and
//! evaluates the result against a declarative error budget.
//!
//! The fold consumes [`RunManifest`]s **oldest-first** and builds, per
//! fitted model, two fixed-point series:
//!
//! * **Prediction-error series** — per-validation-entry relative errors
//!   for time models (matched by schedule index), the manifest-level
//!   mean size error for size models. Page–Hinkley watches this for
//!   sustained mean shifts; an EWMA band (seedable from training
//!   holdout residuals) flags outliers.
//! * **Coefficient-deviation series** — the worst relative deviation of
//!   any coefficient from the *first* manifest in the window (a spec
//!   change counts as 100 %). A one-sided CUSUM watches this: recorded
//!   prediction errors are frozen at training time, so a model whose
//!   coefficients silently walked away from the baseline is only
//!   visible here. This is the detector the drift drill must trip.
//!
//! Everything downstream of `to_micro` is integer arithmetic, so a
//! [`HealthReport`] — verdicts, onsets, magnitudes, digest — is
//! bit-identical at any `JUGGLER_THREADS`, across repeat folds, and
//! across machines. A report's digest covers no wall-clock, so the same
//! window and SLO always give the same digest.

use serde::{Deserialize, Serialize};

use obs::health::{to_micro, Cusum, EwmaBand, PageHinkley, SloSpec, Verdict, MICRO};

use crate::provenance::RunManifest;

/// Detector thresholds, in micro-units. The defaults are tuned to the
/// repo's determinism contract: coefficient deviation in a healthy
/// ledger is exactly zero (training is bit-deterministic), so the CUSUM
/// slack only needs to absorb fixed-point rounding, while the
/// error-stream detectors absorb the few-percent scatter real
/// validation errors show.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorTuning {
    /// CUSUM slack on the coefficient-deviation stream.
    pub coeff_slack_micro: i64,
    /// CUSUM alarm threshold on the coefficient-deviation stream.
    pub coeff_threshold_micro: i64,
    /// Page–Hinkley per-sample slack on the prediction-error stream.
    pub err_delta_micro: i64,
    /// Page–Hinkley alarm threshold on the prediction-error stream.
    pub err_lambda_micro: i64,
    /// EWMA smoothing numerator (alpha = num/den).
    pub ewma_num: i64,
    /// EWMA smoothing denominator.
    pub ewma_den: i64,
    /// EWMA band half-width in deviations.
    pub ewma_k: i64,
    /// EWMA minimum band half-width.
    pub ewma_min_band_micro: i64,
}

impl Default for DetectorTuning {
    fn default() -> Self {
        DetectorTuning {
            // Healthy coefficient deviation is 0 exactly; 1 % slack and
            // a 10 % cumulative threshold mean a 50 % perturbation fires
            // on the very sample it appears.
            coeff_slack_micro: 10_000,
            coeff_threshold_micro: 100_000,
            // Prediction errors sit in the 5–10 % range for the bundled
            // workloads; 0.5 % slack + 15 % cumulative threshold needs a
            // sustained shift, not one bad run.
            err_delta_micro: 5_000,
            err_lambda_micro: 150_000,
            ewma_num: 1,
            ewma_den: 4,
            ewma_k: 4,
            ewma_min_band_micro: 20_000,
        }
    }
}

/// Health of one fitted model over the window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelHealth {
    /// Model name as recorded in manifests (`time [0]`, `size D2`).
    pub name: String,
    /// Manifests in the window that carry this model.
    pub runs: u64,
    /// Mean prediction-error sample, micro-units (-1 when no samples).
    pub mean_err_micro: i64,
    /// p50 upper bound of the error samples, micro-units (-1 when none).
    pub p50_err_micro: i64,
    /// p95 upper bound, micro-units (-1 when none).
    pub p95_err_micro: i64,
    /// p99 upper bound, micro-units (-1 when none).
    pub p99_err_micro: i64,
    /// Worst coefficient deviation from the window baseline.
    pub max_coeff_dev_micro: i64,
    /// The model's verdict.
    pub verdict: Verdict,
}

/// Error-budget accounting over the window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetHealth {
    /// Runs evaluated.
    pub runs: u64,
    /// Runs whose recorded mean errors breached the SLO.
    pub breaches: u64,
    /// Longest streak of consecutive breaching runs.
    pub max_consecutive: u64,
    /// Budget burn rate, micro-units (1 000 000 = budget exhausted):
    /// breaching fraction ÷ allowed fraction.
    pub burn_rate_micro: i64,
    /// The budget verdict.
    pub verdict: Verdict,
}

/// Actionable refit guidance for one drifted model — the contract the
/// future online-calibration loop consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefitAdvice {
    /// Drifted model name.
    pub model: String,
    /// Model family (the recorded winning spec) to refit within.
    pub family: String,
    /// Why a refit is advised (the verdict detail).
    pub reason: String,
    /// `(examples, features)` probe points to re-run, smallest first —
    /// the diagonal of the training grid scaled to the latest params.
    pub probe_examples: Vec<u64>,
    /// Features per probe (parallel to `probe_examples`).
    pub probe_features: Vec<u64>,
    /// Expected refit cost in machine-minutes, from the recorded
    /// per-run training cost × probe count.
    pub expected_cost_machine_minutes: f64,
}

/// The content-addressed output of one watchtower fold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Workload the window covers.
    pub workload: String,
    /// Run ids in fold order (oldest first).
    pub window: Vec<String>,
    /// The SLO the window was evaluated against.
    pub slo: SloSpec,
    /// Per-model health, time models first.
    pub models: Vec<ModelHealth>,
    /// Error-budget accounting.
    pub budget: BudgetHealth,
    /// Worst verdict across models and budget.
    pub verdict: Verdict,
    /// One advice entry per drifted model.
    pub advice: Vec<RefitAdvice>,
}

/// The watchtower: an SLO plus detector tuning, ready to fold windows.
#[derive(Debug, Clone, Default)]
pub struct Watchtower {
    /// The error budget to evaluate against.
    pub slo: SloSpec,
    /// Detector thresholds.
    pub tuning: DetectorTuning,
}

/// Schema version of the cached [`RunSample`] projection. Bump when the
/// extraction changes shape or meaning; stale caches are discarded and
/// rebuilt from the manifests, never migrated.
pub const SAMPLE_SCHEMA_VERSION: u32 = 3;

/// One model's slice of a [`RunSample`]: identity (name + family spec),
/// the fitted coefficients (the CUSUM's subject), and the prediction
/// -error samples this manifest contributes to the model's series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSample {
    /// Model name as recorded in manifests (`time [0]`, `size D2`).
    pub name: String,
    /// Winning model-family spec (a spec change reads as 100 % drift).
    pub spec: String,
    /// Fitted coefficients.
    pub coeffs: Vec<f64>,
    /// Prediction-error samples, micro-units: one per validation entry
    /// of the model's schedule for time models, the manifest-level mean
    /// for size models (empty when unrecorded).
    pub err_micro: Vec<i64>,
}

/// The compact, content-addressed projection of one [`RunManifest`] —
/// everything a fold or `juggler runs list` reads, at ~16 % of the
/// manifest's bytes (887 B of compact JSON against 5,653 B for LOR). Keyed by
/// the manifest's run id (a content-hash prefix), so a cached sample
/// can never go stale: a different manifest is a different id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSample {
    /// Run id of the manifest this projects.
    pub id: String,
    /// Workload name.
    pub workload: String,
    /// Training-grid `examples` at recording time (refit probe anchor).
    pub examples: u64,
    /// Training-grid `features` at recording time.
    pub features: u64,
    /// Training-grid `iterations` at recording time.
    pub iterations: u32,
    /// Schedules the manifest records.
    pub schedules: usize,
    /// Per-model slices, time models first (schedule order).
    pub models: Vec<ModelSample>,
    /// Recorded window-mean time prediction error (negative if absent).
    pub mean_time_rel_error: f64,
    /// Recorded mean size prediction error (negative if absent).
    pub mean_size_rel_error: f64,
    /// Simulated runs in the time-model training stage.
    pub time_stage_runs: u32,
    /// Machine-minutes of the time-model training stage.
    pub time_stage_machine_minutes: f64,
    /// Simulated runs in the parameter-calibration stage.
    pub size_stage_runs: u32,
    /// Machine-minutes of the parameter-calibration stage.
    pub size_stage_machine_minutes: f64,
}

impl RunSample {
    /// Projects a manifest down to its fold-relevant sample.
    #[must_use]
    pub fn extract(manifest: &RunManifest) -> Self {
        let c = &manifest.content;
        let mut models = Vec::with_capacity(c.time_models.len() + c.size_models.len());
        for r in &c.time_models {
            let mut err_micro = Vec::new();
            if let Some(index) = schedule_index_of(&r.name) {
                for entry in &c.predictions.entries {
                    if entry.schedule_index == index {
                        err_micro.push(to_micro(rel_error(
                            entry.predicted_time_s,
                            entry.actual_time_s,
                        )));
                    }
                }
            }
            models.push(ModelSample {
                name: r.name.clone(),
                spec: r.model.spec.clone(),
                coeffs: r.model.coeffs.clone(),
                err_micro,
            });
        }
        for r in &c.size_models {
            let err_micro = if c.predictions.mean_size_rel_error >= 0.0 {
                vec![to_micro(c.predictions.mean_size_rel_error)]
            } else {
                Vec::new()
            };
            models.push(ModelSample {
                name: r.name.clone(),
                spec: r.model.spec.clone(),
                coeffs: r.model.coeffs.clone(),
                err_micro,
            });
        }
        RunSample {
            id: manifest.id(),
            workload: c.workload.clone(),
            examples: c.params.examples,
            features: c.params.features,
            iterations: c.params.iterations,
            schedules: c.schedules.len(),
            models,
            mean_time_rel_error: c.predictions.mean_time_rel_error,
            mean_size_rel_error: c.predictions.mean_size_rel_error,
            time_stage_runs: c.training_costs.time_models.runs,
            time_stage_machine_minutes: c.training_costs.time_models.machine_minutes,
            size_stage_runs: c.training_costs.param_calibration.runs,
            size_stage_machine_minutes: c.training_costs.param_calibration.machine_minutes,
        }
    }
}

/// A named residual series used to warm-start a model's EWMA band
/// (see [`modeling::FitReport::residual_micro_series`]).
#[derive(Debug, Clone)]
pub struct ResidualSeed {
    /// Model name the seed belongs to (`time [0]`, `size D2`).
    pub model: String,
    /// Training holdout residuals, micro-units.
    pub residuals_micro: Vec<i64>,
}

impl Watchtower {
    /// A watchtower with the given SLO and default detector tuning.
    #[must_use]
    pub fn new(slo: SloSpec) -> Self {
        Watchtower {
            slo,
            tuning: DetectorTuning::default(),
        }
    }

    /// Folds a window of manifests (oldest first) into a health report.
    #[must_use]
    pub fn fold(&self, manifests: &[RunManifest]) -> HealthReport {
        self.fold_seeded(manifests, &[])
    }

    /// [`Self::fold`] with EWMA bands warm-started from training
    /// holdout residuals.
    #[must_use]
    pub fn fold_seeded(&self, manifests: &[RunManifest], seeds: &[ResidualSeed]) -> HealthReport {
        let samples: Vec<RunSample> = manifests.iter().map(RunSample::extract).collect();
        self.fold_samples(&samples, seeds)
    }

    /// The fold itself, over pre-extracted samples (oldest first). This
    /// is the streaming entry point: [`Self::fold`] is exactly
    /// `fold_samples(extract each)`, so folding cached samples is
    /// bit-identical to folding the manifests they project.
    #[must_use]
    pub fn fold_samples(&self, samples: &[RunSample], seeds: &[ResidualSeed]) -> HealthReport {
        let workload = samples
            .first()
            .map(|s| s.workload.clone())
            .unwrap_or_default();
        let window: Vec<String> = samples.iter().map(|s| s.id.clone()).collect();

        let mut models = Vec::new();
        for name in model_names(samples) {
            models.push(self.model_health(&name, samples, &window, seeds));
        }
        let budget = self.budget_health(samples, &window);

        let mut verdict = budget.verdict.clone();
        for m in &models {
            verdict = verdict.worst(m.verdict.clone());
        }

        let advice = models
            .iter()
            .filter(|m| matches!(m.verdict, Verdict::Drifted { .. }))
            .map(|m| refit_advice(m, samples))
            .collect();

        HealthReport {
            workload,
            window,
            slo: self.slo.clone(),
            models,
            budget,
            verdict,
            advice,
        }
    }

    /// Builds one model's series, runs the detectors, and scores it.
    fn model_health(
        &self,
        name: &str,
        samples: &[RunSample],
        window: &[String],
        seeds: &[ResidualSeed],
    ) -> ModelHealth {
        let t = &self.tuning;
        // (sample, window index it came from) so a firing maps back to
        // the onset run id.
        let mut err_series: Vec<(i64, usize)> = Vec::new();
        let mut coeff_series: Vec<(i64, usize)> = Vec::new();
        let mut runs = 0u64;
        let mut baseline: Option<&ModelSample> = None;
        for (idx, sample) in samples.iter().enumerate() {
            let Some(record) = sample.models.iter().find(|m| m.name == name) else {
                continue;
            };
            runs += 1;
            let base = baseline.get_or_insert(record);
            coeff_series.push((coeff_deviation_micro(base, record), idx));
            for &err in &record.err_micro {
                err_series.push((err, idx));
            }
        }

        let mut cusum = Cusum::new(0, t.coeff_slack_micro, t.coeff_threshold_micro);
        let mut coeff_onset = None;
        let mut max_coeff_dev = 0i64;
        for &(x, idx) in &coeff_series {
            max_coeff_dev = max_coeff_dev.max(x);
            if cusum.observe(x) {
                coeff_onset = Some(idx);
            }
        }

        let mut ph = PageHinkley::new(t.err_delta_micro, t.err_lambda_micro);
        let mut band = EwmaBand::new(t.ewma_num, t.ewma_den, t.ewma_k, t.ewma_min_band_micro);
        if let Some(seed) = seeds.iter().find(|s| s.model == name) {
            band.seed(&seed.residuals_micro);
        }
        let mut ph_onset = None;
        let mut band_onset = None;
        for &(x, idx) in &err_series {
            if ph.observe(x) {
                ph_onset = Some(idx);
            }
            if band.observe(x) && band_onset.is_none() {
                band_onset = Some(idx);
            }
        }

        // CUSUM-on-coefficients outranks Page–Hinkley: a coefficient
        // shift is drift by construction, while an error shift could
        // still be the environment.
        let verdict = if let (Some(onset), Some(firing)) = (coeff_onset, cusum.fired()) {
            Verdict::Drifted {
                detector: "cusum(coeff)".to_owned(),
                onset_run: window[onset].clone(),
                magnitude_micro: firing.magnitude_micro,
            }
        } else if let (Some(onset), Some(firing)) = (ph_onset, ph.fired()) {
            Verdict::Drifted {
                detector: "page_hinkley(err)".to_owned(),
                onset_run: window[onset].clone(),
                magnitude_micro: firing.magnitude_micro,
            }
        } else if let (Some(_), Some(firing)) = (band_onset, band.fired()) {
            Verdict::Warn {
                signal: "ewma_band(err)".to_owned(),
                value_micro: firing.magnitude_micro,
            }
        } else {
            Verdict::Healthy
        };

        let (mean, p50, p95, p99) = err_stats(&err_series);
        ModelHealth {
            name: name.to_owned(),
            runs,
            mean_err_micro: mean,
            p50_err_micro: p50,
            p95_err_micro: p95,
            p99_err_micro: p99,
            max_coeff_dev_micro: max_coeff_dev,
            verdict,
        }
    }

    /// Evaluates the per-run recorded means against the error budget.
    fn budget_health(&self, samples: &[RunSample], window: &[String]) -> BudgetHealth {
        let max_time = to_micro(self.slo.max_mean_time_rel_error);
        let max_size = to_micro(self.slo.max_mean_size_rel_error);
        let mut breaches = 0u64;
        let mut streak = 0u64;
        let mut max_consecutive = 0u64;
        let mut exhausted_at: Option<usize> = None;
        for (idx, s) in samples.iter().enumerate() {
            let time_breach =
                s.mean_time_rel_error >= 0.0 && to_micro(s.mean_time_rel_error) > max_time;
            let size_breach =
                s.mean_size_rel_error >= 0.0 && to_micro(s.mean_size_rel_error) > max_size;
            if time_breach || size_breach {
                breaches += 1;
                streak += 1;
                max_consecutive = max_consecutive.max(streak);
                if streak > u64::from(self.slo.max_consecutive_breaches) && exhausted_at.is_none() {
                    exhausted_at = Some(idx);
                }
            } else {
                streak = 0;
            }
        }
        let runs = samples.len() as u64;
        let burn_rate_micro = if runs == 0 {
            0
        } else {
            let breach_fraction = i128::from(breaches) * i128::from(MICRO) / i128::from(runs);
            let allowed = i128::from(to_micro(self.slo.budget_breach_fraction).max(1));
            i64::try_from(breach_fraction * i128::from(MICRO) / allowed).unwrap_or(i64::MAX)
        };
        let verdict = if let Some(idx) = exhausted_at {
            Verdict::Drifted {
                detector: "error_budget".to_owned(),
                onset_run: window[idx].clone(),
                magnitude_micro: burn_rate_micro,
            }
        } else if runs > 0 && burn_rate_micro >= to_micro(self.slo.warn_burn_rate) {
            Verdict::Warn {
                signal: "budget_burn".to_owned(),
                value_micro: burn_rate_micro,
            }
        } else {
            Verdict::Healthy
        };
        BudgetHealth {
            runs,
            breaches,
            max_consecutive,
            burn_rate_micro,
            verdict,
        }
    }
}

/// Relative error `|predicted − actual| / |actual|` (absolute error when
/// the actual is ~zero) — the same formula `LedgerEntry` uses, repeated
/// here so stored manifests never need the live types.
fn rel_error(predicted: f64, actual: f64) -> f64 {
    let diff = (predicted - actual).abs();
    if actual.abs() < 1e-12 {
        diff
    } else {
        diff / actual.abs()
    }
}

/// All model names in the window: time models first (in first-seen
/// order, which is schedule order), then size models. Samples keep each
/// run's time models ahead of its size models, so first-seen order over
/// `name.starts_with("time")` reproduces the manifest ordering.
fn model_names(samples: &[RunSample]) -> Vec<String> {
    let mut names = Vec::new();
    let push_new = |name: &String, names: &mut Vec<String>| {
        if !names.contains(name) {
            names.push(name.clone());
        }
    };
    for s in samples {
        for m in s.models.iter().filter(|m| m.name.starts_with("time")) {
            push_new(&m.name, &mut names);
        }
    }
    for s in samples {
        for m in s.models.iter().filter(|m| !m.name.starts_with("time")) {
            push_new(&m.name, &mut names);
        }
    }
    names
}

/// `time [3]` → `Some(3)`.
fn schedule_index_of(name: &str) -> Option<usize> {
    name.strip_prefix("time [")?.strip_suffix(']')?.parse().ok()
}

/// Worst relative coefficient deviation from the baseline sample, in
/// micro-units. A spec (model-family) change counts as a full 100 %.
fn coeff_deviation_micro(baseline: &ModelSample, current: &ModelSample) -> i64 {
    if baseline.spec != current.spec || baseline.coeffs.len() != current.coeffs.len() {
        return MICRO;
    }
    let mut worst = 0i64;
    for (b, c) in baseline.coeffs.iter().zip(&current.coeffs) {
        let dev = (c - b).abs() / b.abs().max(1e-12);
        worst = worst.max(to_micro(dev));
    }
    worst
}

/// Mean and p50/p95/p99 of an error series via the shared log2-bucket
/// quantile estimator (-1 marks an empty series).
fn err_stats(series: &[(i64, usize)]) -> (i64, i64, i64, i64) {
    if series.is_empty() {
        return (-1, -1, -1, -1);
    }
    let mut sum = 0i128;
    let mut buckets = vec![0u64; obs::HIST_BUCKETS];
    for &(x, _) in series {
        sum += i128::from(x);
        buckets[obs::log2_bucket(u64::try_from(x).unwrap_or(0))] += 1;
    }
    let count = series.len() as u64;
    let mean = i64::try_from(sum / i128::from(count)).unwrap_or(i64::MAX);
    let q = |num: u64| {
        obs::log2_quantile(&buckets, count, num, 100)
            .and_then(|v| i64::try_from(v).ok())
            .unwrap_or(-1)
    };
    (mean, q(50), q(95), q(99))
}

/// Builds the refit advice for one drifted model from the newest
/// sample's parameters and recorded training costs.
fn refit_advice(model: &ModelHealth, samples: &[RunSample]) -> RefitAdvice {
    let latest = samples.last().expect("drifted model implies samples");
    let probe_examples = vec![
        (latest.examples / 4).max(1),
        (latest.examples / 2).max(1),
        latest.examples.max(1),
    ];
    let probe_features = vec![
        (latest.features / 4).max(1),
        (latest.features / 2).max(1),
        latest.features.max(1),
    ];
    let (stage_runs, stage_minutes) = if model.name.starts_with("time") {
        (latest.time_stage_runs, latest.time_stage_machine_minutes)
    } else {
        (latest.size_stage_runs, latest.size_stage_machine_minutes)
    };
    let per_run = if stage_runs == 0 {
        0.0
    } else {
        stage_minutes / f64::from(stage_runs)
    };
    let family = latest
        .models
        .iter()
        .find(|m| m.name == model.name)
        .map(|m| m.spec.clone())
        .unwrap_or_default();
    RefitAdvice {
        model: model.name.clone(),
        family,
        reason: model.verdict.detail(),
        probe_examples,
        probe_features,
        expected_cost_machine_minutes: per_run * 3.0,
    }
}

impl HealthReport {
    /// The canonical serialization the digest covers: compact JSON,
    /// struct fields in declaration order. No wall-clock value exists
    /// anywhere in the structure.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("HealthReport always serializes")
    }

    /// SHA-256 over [`Self::canonical_json`] — the report's identity.
    #[must_use]
    pub fn digest(&self) -> String {
        obs::sha256_hex(self.canonical_json().as_bytes())
    }

    /// Pretty JSON, `juggler health --format json` (trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("HealthReport always serializes");
        s.push('\n');
        s
    }

    /// Parses a report printed by [`Self::to_json`].
    pub fn from_json(raw: &str) -> Result<Self, String> {
        serde_json::from_str(raw).map_err(|e| format!("health report: {e}"))
    }

    /// Deterministic human-readable rendering (the `--format tree`
    /// output, and the golden-test surface).
    #[must_use]
    pub fn render_tree(&self) -> String {
        use obs::health::fmt_micro_pct as pct;
        let mut out = format!("juggler health — {}\n", self.workload);
        match (self.window.first(), self.window.last()) {
            (Some(first), Some(last)) if self.window.len() > 1 => {
                out.push_str(&format!(
                    "  window: {} runs, {first} .. {last} (oldest first)\n",
                    self.window.len()
                ));
            }
            (Some(only), _) => {
                out.push_str(&format!("  window: 1 run, {only}\n"));
            }
            _ => out.push_str("  window: empty\n"),
        }
        out.push_str(&format!("  slo: {}\n", self.slo.summary()));
        let b = &self.budget;
        out.push_str(&format!(
            "  budget: {} runs, {} breaches, max streak {}, burn {}  → {}\n",
            b.runs,
            b.breaches,
            b.max_consecutive,
            pct(b.burn_rate_micro),
            b.verdict.detail()
        ));
        out.push_str("  models\n");
        for m in &self.models {
            let errs = if m.mean_err_micro < 0 {
                "no error samples".to_owned()
            } else {
                format!(
                    "err mean {} p50<={} p95<={} p99<={}",
                    pct(m.mean_err_micro),
                    pct(m.p50_err_micro),
                    pct(m.p95_err_micro),
                    pct(m.p99_err_micro)
                )
            };
            out.push_str(&format!(
                "    {:<9} runs {:>3}  {errs}  coeff dev {}  → {}\n",
                m.name,
                m.runs,
                pct(m.max_coeff_dev_micro),
                m.verdict.detail()
            ));
        }
        if !self.advice.is_empty() {
            out.push_str("  refit advice\n");
            for a in &self.advice {
                let probes: Vec<String> = a
                    .probe_examples
                    .iter()
                    .zip(&a.probe_features)
                    .map(|(e, f)| format!("({e}, {f})"))
                    .collect();
                out.push_str(&format!(
                    "    {}: refit `{}` at probes {} — expected cost {} machine-min\n",
                    a.model,
                    a.family,
                    probes.join(", "),
                    obs::fmt_sig(a.expected_cost_machine_minutes, 3)
                ));
            }
        }
        out.push_str(&format!("  verdict: {}\n", self.verdict.detail()));
        out
    }

    /// Registers the report's gauges/counters/histograms into `registry`
    /// (the `/healthz` surface: `juggler health --format prom` exports a
    /// snapshot of exactly these).
    pub fn register_metrics(&self, registry: &obs::Registry) {
        registry
            .gauge(
                "health_level",
                "overall health verdict level (0 healthy, 1 warn, 2 drifted)",
                obs::MetricClass::Deterministic,
            )
            .set(f64::from(self.verdict.level()));
        registry
            .counter("health_runs_scanned_total", "runs folded into the report")
            .add(self.budget.runs);
        registry
            .counter(
                "health_budget_breaches_total",
                "runs that breached the error budget",
            )
            .add(self.budget.breaches);
        registry
            .gauge(
                "health_budget_burn_micro",
                "error-budget burn rate in micro-units (1e6 = exhausted)",
                obs::MetricClass::Deterministic,
            )
            .set(self.budget.burn_rate_micro as f64);
        let hist = registry.histogram(
            "health_model_err_micro",
            "per-model mean prediction error samples, micro-units",
        );
        for m in &self.models {
            registry
                .gauge(
                    &format!("health_model_{}_level", sanitize_metric(&m.name)),
                    "model verdict level (0 healthy, 1 warn, 2 drifted)",
                    obs::MetricClass::Deterministic,
                )
                .set(f64::from(m.verdict.level()));
            if m.mean_err_micro >= 0 {
                hist.record(u64::try_from(m.mean_err_micro).unwrap_or(0));
            }
        }
    }
}

/// `time [0]` → `time_0`: lowercase alphanumerics and underscores only,
/// runs collapsed — a legal Prometheus metric-name fragment.
fn sanitize_metric(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut last_underscore = true;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_underscore = false;
        } else if !last_underscore {
            out.push('_');
            last_underscore = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// File name of the [`RunSample`] cache inside a ledger store's root.
/// The cache belongs to the ledger it projects, so stores never share
/// one; without a `.json` extension, [`obs::LedgerStore::entries`]
/// never lists it as a run.
pub const SAMPLE_CACHE_FILE: &str = "sample_cache";

/// The persisted sample cache: the projection of every verified run in
/// a store, as derived JSON. Run ids are content hashes, so a cached
/// sample can never go stale — a changed manifest is a *different* run.
/// A cache that is cut short, corrupt, or of another schema version is
/// discarded whole and rebuilt from the manifests, never half-read.
#[derive(Serialize, Deserialize)]
struct SampleCache {
    schema_version: u32,
    samples: Vec<RunSample>,
}

impl SampleCache {
    fn parse(raw: &str) -> Option<Vec<RunSample>> {
        let cache: SampleCache = serde_json::from_str(raw).ok()?;
        (cache.schema_version == SAMPLE_SCHEMA_VERSION).then_some(cache.samples)
    }
}

/// Every verified run in `store`, newest first (the
/// [`obs::LedgerStore::entries`] order) — the one way a stored run is
/// read. A run's sample comes from the store's sample cache, or from
/// [`RunManifest::from_json`] (which verifies the content hash) plus
/// [`RunSample::extract`] when it is not cached yet. A file that does
/// not verify, or is not filed under its own id, is skipped with a
/// warning. The cache is rewritten, atomically, only when a run was
/// added to or left the store, so a steady-state read parses only the
/// cache.
pub fn ledger_samples(store: &obs::LedgerStore) -> Result<Vec<RunSample>, String> {
    let entries = store
        .entries()
        .map_err(|e| format!("reading ledger {}: {e}", store.root().display()))?;
    let cache_path = store.root().join(SAMPLE_CACHE_FILE);
    let mut cached: std::collections::HashMap<String, RunSample> =
        match std::fs::read_to_string(&cache_path).map(|raw| SampleCache::parse(&raw)) {
            Ok(Some(samples)) => samples.into_iter().map(|s| (s.id.clone(), s)).collect(),
            Ok(None) => {
                obs::log_warn!(
                    "ledger: rebuilding stale sample cache {}",
                    cache_path.display()
                );
                std::collections::HashMap::new()
            }
            Err(_) => std::collections::HashMap::new(),
        };
    let mut extracted = false;
    let mut samples = Vec::with_capacity(entries.len());
    for entry in &entries {
        if let Some(sample) = cached.remove(&entry.id) {
            samples.push(sample);
            continue;
        }
        let raw = std::fs::read_to_string(&entry.path)
            .map_err(|e| format!("reading {}: {e}", entry.path.display()))?;
        match RunManifest::from_json(&raw) {
            Ok(m) if m.id() == entry.id => {
                samples.push(RunSample::extract(&m));
                extracted = true;
            }
            Ok(m) => obs::log_warn!(
                "ledger: skipping {}: filed under another id than its own ({})",
                entry.path.display(),
                m.id()
            ),
            Err(e) => obs::log_warn!("ledger: skipping {}: {e}", entry.path.display()),
        }
    }
    // Whatever is left in `cached` projects runs that left the store.
    if extracted || !cached.is_empty() {
        // Sorted by id, so the cache bytes depend on the set of runs
        // only, never on mtimes.
        let mut by_id = samples.clone();
        by_id.sort_by(|a, b| a.id.cmp(&b.id));
        let cache = SampleCache {
            schema_version: SAMPLE_SCHEMA_VERSION,
            samples: by_id,
        };
        let json = serde_json::to_string(&cache).expect("SampleCache always serializes");
        if let Err(e) = obs::write_atomic(&cache_path, json.as_bytes()) {
            obs::log_warn!(
                "ledger: could not persist sample cache {}: {e}",
                cache_path.display()
            );
        }
    }
    Ok(samples)
}

impl Watchtower {
    /// Folds a workload's window straight off a ledger store: its runs
    /// from [`ledger_samples`], newest first, back to and including the
    /// first whose id starts with `since` (an error when none does), cut
    /// to the newest `limit` (0 = unlimited), folded oldest-first. The
    /// result is bit-identical to [`Self::fold`] over the same manifests.
    pub fn fold_ledger(
        &self,
        store: &obs::LedgerStore,
        workload: &str,
        since: Option<&str>,
        limit: usize,
    ) -> Result<HealthReport, String> {
        let mut window: Vec<RunSample> = ledger_samples(store)?
            .into_iter()
            .filter(|s| s.workload == workload)
            .collect();
        if let Some(prefix) = since {
            let at = window
                .iter()
                .position(|s| s.id.starts_with(prefix))
                .ok_or_else(|| format!("--since {prefix}: no matching run for {workload}"))?;
            window.truncate(at + 1);
        }
        if limit > 0 {
            window.truncate(limit);
        }
        window.reverse();
        Ok(self.fold_samples(&window, &[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TrainingCosts;
    use crate::provenance::{
        CounterRecord, ManifestContent, ManifestEnvelope, ModelRecord, PredictionRecord,
        PredictionsRecord, ScheduleRecord, SCHEMA_VERSION,
    };
    use modeling::ModelSummary;
    use workloads::WorkloadParams;

    fn manifest(seed: u64, time_coeff: f64, mean_time_err: f64) -> RunManifest {
        let content = ManifestContent {
            workload: "TINY".into(),
            params: WorkloadParams {
                examples: 4_000,
                features: 800,
                iterations: 4,
                partitions: 4,
            },
            seed,
            max_machines: 12,
            memory_factor: 1.0,
            schedules: vec![ScheduleRecord {
                index: 0,
                notation: "p(2)".into(),
                digest: "ab".repeat(32),
                benefit_s: 12.5,
                budget_bytes: 1_000_000,
            }],
            size_models: vec![ModelRecord {
                name: "size D2".into(),
                model: ModelSummary {
                    spec: "e·f".into(),
                    coeffs: vec![0.016],
                    cv_error: 0.001,
                },
            }],
            time_models: vec![ModelRecord {
                name: "time [0]".into(),
                model: ModelSummary {
                    spec: "1 + e·f".into(),
                    coeffs: vec![30.0, time_coeff],
                    cv_error: 0.02,
                },
            }],
            training_costs: TrainingCosts::default(),
            predictions: PredictionsRecord {
                entries: vec![PredictionRecord {
                    schedule_index: 0,
                    machines: 4,
                    predicted_time_s: 100.0 * (1.0 + mean_time_err),
                    actual_time_s: 100.0,
                    predicted_size_bytes: 900_000,
                    actual_peak_bytes: 950_000,
                    report_digest: "cd".repeat(32),
                }],
                mean_time_rel_error: mean_time_err,
                max_time_rel_error: mean_time_err,
                mean_size_rel_error: 0.05,
            },
            counters: vec![CounterRecord {
                name: "sim_runs_total".into(),
                value: 11,
            }],
        };
        let content_hash = content.hash();
        RunManifest {
            envelope: ManifestEnvelope {
                schema_version: SCHEMA_VERSION,
                tool: "test".into(),
                threads_requested: 0,
                threads_resolved: 1,
            },
            content,
            content_hash,
        }
    }

    fn window(n: usize) -> Vec<RunManifest> {
        (0..n).map(|k| manifest(k as u64, 3.2e-7, 0.04)).collect()
    }

    #[test]
    fn clean_window_is_healthy() {
        let report = Watchtower::default().fold(&window(12));
        assert_eq!(report.verdict, Verdict::Healthy);
        assert_eq!(report.budget.breaches, 0);
        assert!(report.advice.is_empty());
        assert_eq!(report.models.len(), 2);
        assert_eq!(report.models[0].name, "time [0]");
        assert_eq!(report.models[0].runs, 12);
        assert_eq!(report.models[0].mean_err_micro, 40_000);
        assert_eq!(report.models[0].max_coeff_dev_micro, 0);
    }

    #[test]
    fn perturbed_coefficient_drifts_at_the_onset_run() {
        let mut w = window(12);
        for (k, m) in w.iter_mut().enumerate() {
            if k >= 8 {
                m.perturb_time_coefficient(0, 0.5);
            }
        }
        let onset_id = w[8].id();
        let report = Watchtower::default().fold(&w);
        let tm = &report.models[0];
        match &tm.verdict {
            Verdict::Drifted {
                detector,
                onset_run,
                magnitude_micro,
            } => {
                assert_eq!(detector, "cusum(coeff)");
                assert_eq!(onset_run, &onset_id, "fires on the first perturbed run");
                assert_eq!(*magnitude_micro, 490_000, "50% dev minus 1% slack");
            }
            other => panic!("expected coefficient drift, got {other:?}"),
        }
        assert_eq!(report.verdict.level(), 2);
        assert_eq!(report.advice.len(), 1);
        let a = &report.advice[0];
        assert_eq!(a.model, "time [0]");
        assert_eq!(a.probe_examples, vec![1_000, 2_000, 4_000]);
        assert_eq!(a.probe_features, vec![200, 400, 800]);
        // Size model untouched.
        assert_eq!(report.models[1].verdict, Verdict::Healthy);
    }

    #[test]
    fn budget_exhaustion_drifts_and_burn_warns() {
        let slo = SloSpec::default(); // mean time ceiling 15%
                                      // 12 runs, the last 4 breaching at 30%: streak 4 > 3 allowed.
        let mut w = window(8);
        w.extend((8..12).map(|k| manifest(k, 3.2e-7, 0.30)));
        let report = Watchtower::new(slo.clone()).fold(&w);
        match &report.budget.verdict {
            Verdict::Drifted {
                detector,
                onset_run,
                ..
            } => {
                assert_eq!(detector, "error_budget");
                assert_eq!(onset_run, &w[11].id(), "the 4th consecutive breach");
            }
            other => panic!("expected budget drift, got {other:?}"),
        }
        assert_eq!(report.budget.breaches, 4);
        assert_eq!(report.budget.max_consecutive, 4);
        // 4/12 breaching over a 25% budget = 4/3 burn.
        assert_eq!(report.budget.burn_rate_micro, 1_333_332);

        // 2 breaches in 12 runs with gaps: burn 2/3 ≥ warn 0.5 → Warn.
        let mut w = window(12);
        w[3] = manifest(103, 3.2e-7, 0.30);
        w[7] = manifest(107, 3.2e-7, 0.30);
        let report = Watchtower::new(slo).fold(&w);
        assert_eq!(report.budget.breaches, 2);
        assert_eq!(report.budget.max_consecutive, 1);
        match &report.budget.verdict {
            Verdict::Warn { signal, .. } => assert_eq!(signal, "budget_burn"),
            other => panic!("expected budget warn, got {other:?}"),
        }
    }

    #[test]
    fn fold_is_repeatable_and_digest_is_stable() {
        let mut w = window(10);
        for (k, m) in w.iter_mut().enumerate() {
            if k >= 6 {
                m.perturb_time_coefficient(0, 0.5);
            }
        }
        let tower = Watchtower::default();
        let (a, b) = (tower.fold(&w), tower.fold(&w));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.canonical_json(), b.canonical_json());
        let roundtrip = HealthReport::from_json(&a.to_json()).unwrap();
        assert_eq!(roundtrip.digest(), a.digest());
    }

    #[test]
    fn empty_window_reports_healthy_emptiness() {
        let report = Watchtower::default().fold(&[]);
        assert_eq!(report.verdict, Verdict::Healthy);
        assert!(report.models.is_empty());
        assert_eq!(report.budget.runs, 0);
        assert!(report.render_tree().contains("window: empty"));
    }

    #[test]
    fn seeded_band_absorbs_training_scale_errors() {
        // Error stream consistent with the seed: no warning.
        let seeds = [ResidualSeed {
            model: "time [0]".into(),
            residuals_micro: vec![38_000, 42_000, 40_000, 41_000],
        }];
        let report = Watchtower::default().fold_seeded(&window(12), &seeds);
        assert_eq!(report.models[0].verdict, Verdict::Healthy);
        // One wild outlier against the seeded band: Warn, not Drifted.
        let mut w = window(12);
        w[6] = manifest(206, 3.2e-7, 0.14); // inside budget, outside band
        let report = Watchtower::default().fold_seeded(&w, &seeds);
        match &report.models[0].verdict {
            Verdict::Warn { signal, .. } => assert_eq!(signal, "ewma_band(err)"),
            other => panic!("expected band warn, got {other:?}"),
        }
    }

    fn seed_store(dir: &std::path::Path, window: &[RunManifest]) -> obs::LedgerStore {
        let _ = std::fs::remove_dir_all(dir);
        let store = obs::LedgerStore::new(dir.to_path_buf());
        let base =
            std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_700_000_000);
        for (k, m) in window.iter().enumerate() {
            let path = store.record(&m.content_hash, &m.to_json()).unwrap();
            let file = std::fs::File::options().write(true).open(&path).unwrap();
            file.set_modified(base + std::time::Duration::from_secs(k as u64))
                .unwrap();
        }
        store
    }

    #[test]
    fn fold_ledger_matches_the_manifest_fold_cold_and_warm() {
        let mut w = window(8);
        for (k, m) in w.iter_mut().enumerate() {
            if k >= 5 {
                m.perturb_time_coefficient(0, 0.5 + k as f64 * 1e-4);
            }
        }
        let dir = std::env::temp_dir().join(format!("juggler-foldledger-{}", std::process::id()));
        let store = seed_store(&dir, &w);
        let cache = dir.join(SAMPLE_CACHE_FILE);
        let tower = Watchtower::default();

        // Full window, cold (parses every manifest, persists the cache)
        // then warm (reads only the cache).
        let direct = tower.fold(&w);
        let cold = tower.fold_ledger(&store, "TINY", None, 0).unwrap();
        assert!(cache.is_file(), "cold fold persists the sample cache");
        let warm = tower.fold_ledger(&store, "TINY", None, 0).unwrap();
        assert_eq!(direct.digest(), cold.digest());
        assert_eq!(direct.canonical_json(), warm.canonical_json());

        // `since` reaches back to and includes the named run; `limit`
        // keeps the newest runs. Each is checked cold and warm.
        let since = w[4].id();
        for cold in [true, false] {
            if cold {
                std::fs::remove_file(&cache).unwrap();
            }
            let got = tower.fold_ledger(&store, "TINY", Some(&since), 0).unwrap();
            assert_eq!(tower.fold(&w[4..]).digest(), got.digest());
            let got = tower.fold_ledger(&store, "TINY", None, 3).unwrap();
            assert_eq!(tower.fold(&w[5..]).digest(), got.digest());
            let got = tower.fold_ledger(&store, "TINY", Some(&since), 2).unwrap();
            assert_eq!(tower.fold(&w[6..]).digest(), got.digest());
        }
        let err = tower
            .fold_ledger(&store, "TINY", Some("ffff"), 0)
            .unwrap_err();
        assert!(err.contains("no matching run"), "{err}");
        let empty = tower.fold_ledger(&store, "OTHER", None, 0).unwrap();
        assert!(empty.window.is_empty());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_stale_sample_cache_is_rebuilt() {
        let w = window(5);
        let dir = std::env::temp_dir().join(format!("juggler-foldcache-{}", std::process::id()));
        let store = seed_store(&dir, &w);
        let cache = dir.join(SAMPLE_CACHE_FILE);
        let tower = Watchtower::default();
        let expect = tower.fold(&w);

        std::fs::write(&cache, "not a cache at all").unwrap();
        let got = tower.fold_ledger(&store, "TINY", None, 0).unwrap();
        assert_eq!(expect.digest(), got.digest());

        // A schema bump invalidates wholesale, never half-reads.
        let stale = SampleCache {
            schema_version: SAMPLE_SCHEMA_VERSION + 1,
            samples: w.iter().map(RunSample::extract).collect(),
        };
        std::fs::write(&cache, serde_json::to_string(&stale).unwrap()).unwrap();
        let got = tower.fold_ledger(&store, "TINY", None, 0).unwrap();
        assert_eq!(expect.digest(), got.digest());
        let rebuilt = SampleCache::parse(&std::fs::read_to_string(&cache).unwrap())
            .expect("rebuilt cache parses at the current schema");
        assert_eq!(rebuilt.len(), w.len());

        // The JSON round trip is exact: a warm fold from the rebuilt
        // cache still matches bit-for-bit.
        let warm = tower.fold_ledger(&store, "TINY", None, 0).unwrap();
        assert_eq!(expect.digest(), warm.digest());

        // A run that left the store is pruned from the cache.
        std::fs::remove_file(dir.join(format!("{}.json", w[0].id()))).unwrap();
        let got = tower.fold_ledger(&store, "TINY", None, 0).unwrap();
        assert_eq!(tower.fold(&w[1..]).digest(), got.digest());
        let pruned = SampleCache::parse(&std::fs::read_to_string(&cache).unwrap()).unwrap();
        assert_eq!(pruned.len(), w.len() - 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unverifiable_runs_are_skipped_and_never_cached() {
        let w = window(3);
        let dir = std::env::temp_dir().join(format!("juggler-foldskip-{}", std::process::id()));
        let store = seed_store(&dir, &w);
        store.record("bb22334455667788", "[1, 2, 3]").unwrap();
        let mut tampered = w[0].to_json();
        tampered = tampered.replacen("\"TINY\"", "\"TINX\"", 1);
        store.record("cc22334455667788", &tampered).unwrap();
        // A verified manifest filed under a foreign id is not its run.
        store.record("dd22334455667788", &w[1].to_json()).unwrap();

        let ids: Vec<String> = ledger_samples(&store)
            .unwrap()
            .into_iter()
            .map(|s| s.id)
            .collect();
        let want: Vec<String> = w.iter().rev().map(RunManifest::id).collect();
        assert_eq!(
            ids, want,
            "only verified runs under their own ids, newest first"
        );
        let cache = std::fs::read_to_string(dir.join(SAMPLE_CACHE_FILE)).unwrap();
        assert_eq!(SampleCache::parse(&cache).unwrap().len(), w.len());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_or_flipped_sample_cache_is_rejected_without_panics() {
        let cache = SampleCache {
            schema_version: SAMPLE_SCHEMA_VERSION,
            samples: window(3).iter().map(RunSample::extract).collect(),
        };
        let raw = serde_json::to_string(&cache).unwrap();
        assert_eq!(SampleCache::parse(&raw), Some(cache.samples));

        // Every cut short of the whole document is rejected, never half-read.
        for cut in (0..raw.len()).filter(|&cut| raw.is_char_boundary(cut)) {
            assert!(
                SampleCache::parse(&raw[..cut]).is_none(),
                "truncation at byte {cut} of {}",
                raw.len()
            );
        }
        proptest::run_cases(
            &proptest::ProptestConfig::with_cases(512),
            "sample_cache_flips",
            |rng| {
                let mut bytes = raw.as_bytes().to_vec();
                let at = rng.next_in(0, bytes.len() as u64) as usize;
                bytes[at] = rng.next_in(0, 128) as u8;
                if let Ok(text) = String::from_utf8(bytes) {
                    let _ = SampleCache::parse(&text);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn metric_names_sanitize() {
        assert_eq!(sanitize_metric("time [0]"), "time_0");
        assert_eq!(sanitize_metric("size D2"), "size_d2");
        assert_eq!(sanitize_metric("weird--name!!"), "weird_name");
    }

    #[test]
    fn register_metrics_exports_health_surface() {
        let mut w = window(10);
        for (k, m) in w.iter_mut().enumerate() {
            if k >= 6 {
                m.perturb_time_coefficient(0, 0.5);
            }
        }
        let report = Watchtower::default().fold(&w);
        let reg = obs::Registry::new();
        report.register_metrics(&reg);
        let snap = reg.snapshot(false);
        let prom = snap.to_prometheus();
        assert!(prom.contains("health_level 2"), "{prom}");
        assert!(prom.contains("health_model_time_0_level 2"), "{prom}");
        assert!(prom.contains("health_model_size_d2_level 0"), "{prom}");
        assert!(prom.contains("health_runs_scanned_total 10"), "{prom}");
        // Repeat registration into a fresh registry is byte-identical.
        let reg2 = obs::Registry::new();
        report.register_metrics(&reg2);
        assert_eq!(prom, reg2.snapshot(false).to_prometheus());
    }
}
