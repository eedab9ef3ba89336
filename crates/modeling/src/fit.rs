//! Fitting a model spec to samples, leave-one-out cross-validation, and
//! best-model selection — the §5.2/§5.4 training procedure:
//!
//! 1. run the full-factorial experiments;
//! 2. for each candidate model, hold out each point in turn, fit on the
//!    rest, and average the errors;
//! 3. select the candidate with the least cross-validation error and refit
//!    it on all points with non-negative coefficients.

use serde::{Deserialize, Serialize};

use crate::families::ModelSpec;
use crate::nnls::Workspace;

/// One training observation: parameter point `(e, f, i)` and the measured
/// response (dataset size or execution time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Examples parameter.
    pub e: f64,
    /// Features parameter.
    pub f: f64,
    /// Iterations parameter (set to 1.0 when unused).
    pub i: f64,
    /// Measured response.
    pub y: f64,
}

impl Sample {
    /// Convenience constructor for two-parameter samples (i = 1).
    #[must_use]
    pub fn ef(e: f64, f: f64, y: f64) -> Self {
        Sample { e, f, i: 1.0, y }
    }
}

/// Errors from the fitting pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// No samples were provided.
    NoSamples,
    /// No candidate model specs were provided.
    NoCandidates,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::NoSamples => write!(f, "no training samples"),
            FitError::NoCandidates => write!(f, "no candidate model specs"),
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted model: spec plus non-negative coefficients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedModel {
    /// The monomial basis.
    pub spec: ModelSpec,
    /// Coefficients θ, non-negative, aligned with `spec.terms`.
    pub coeffs: Vec<f64>,
}

impl FittedModel {
    /// Predicts the response at a parameter point.
    #[must_use]
    pub fn predict(&self, e: f64, f: f64, i: f64) -> f64 {
        self.spec
            .features(e, f, i)
            .iter()
            .zip(&self.coeffs)
            .map(|(x, t)| x * t)
            .sum()
    }

    /// Renders the model with its coefficients at 4 significant figures
    /// (`%.4g` style), e.g. `1200 + 4.5·e·f`. Small coefficients switch
    /// to scientific notation instead of rounding away to `0.000`.
    #[must_use]
    pub fn render(&self) -> String {
        if self.spec.terms.is_empty() {
            return "0".to_owned();
        }
        self.spec
            .terms
            .iter()
            .zip(&self.coeffs)
            .map(|(t, c)| {
                let c = obs::fmt_sig(*c, 4);
                if *t == crate::families::Term::ONE {
                    c
                } else {
                    format!("{c}·{t}")
                }
            })
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

/// Serialization-friendly précis of one model selection: the winning
/// spec in formula notation (`1 + e·f`), the raw coefficient vector
/// aligned with the spec's terms, and the LOO-CV error. This is the
/// provenance surface — run manifests record it verbatim so cross-run
/// diffs can compare winners and coefficients without carrying a whole
/// [`FitReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSummary {
    /// The winning spec's formula (see [`ModelSpec::formula`]).
    pub spec: String,
    /// Fitted coefficients θ, aligned with the spec's terms.
    pub coeffs: Vec<f64>,
    /// Mean leave-one-out relative error of the winner.
    pub cv_error: f64,
}

impl ModelSummary {
    /// Summary of a fitted model with a known cross-validation error.
    #[must_use]
    pub fn of(model: &FittedModel, cv_error: f64) -> Self {
        ModelSummary {
            spec: model.spec.to_string(),
            coeffs: model.coeffs.clone(),
            cv_error,
        }
    }
}

/// A fitted model together with its cross-validation error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossValidated {
    /// The winning model refit on all samples.
    pub model: FittedModel,
    /// Mean leave-one-out relative error of the winning spec.
    pub cv_error: f64,
}

/// The buffers of one model selection: the current spec's feature rows,
/// evaluated once per spec, and the NNLS workspace that every solve of
/// the selection (each candidate's holdouts, the winner's refit and its
/// residuals) runs in.
#[derive(Debug, Default)]
struct FitBuffers {
    /// Feature rows of every sample, `samples × terms`, row-major.
    features: Vec<f64>,
    nnls: Workspace,
}

impl FitBuffers {
    /// Evaluates `spec`'s feature row at every sample.
    fn load(&mut self, spec: &ModelSpec, samples: &[Sample]) {
        self.features.clear();
        for s in samples {
            self.features
                .extend(spec.terms.iter().map(|t| t.eval(s.e, s.f, s.i)));
        }
    }

    /// Fits the loaded spec on every sample except `hold`; the
    /// coefficients land in `self.nnls.x`.
    fn solve_without(&mut self, terms: usize, samples: &[Sample], hold: Option<usize>) {
        self.nnls.start(terms);
        for (k, s) in samples.iter().enumerate() {
            if hold != Some(k) {
                self.nnls
                    .push_row(&self.features[k * terms..(k + 1) * terms], s.y);
            }
        }
        self.nnls.solve();
    }

    /// [`fit_spec`] in these buffers.
    fn fit(&mut self, spec: &ModelSpec, samples: &[Sample]) -> Result<FittedModel, FitError> {
        if samples.is_empty() {
            return Err(FitError::NoSamples);
        }
        self.load(spec, samples);
        self.solve_without(spec.terms.len(), samples, None);
        Ok(FittedModel {
            spec: spec.clone(),
            coeffs: self.nnls.x.clone(),
        })
    }

    /// [`loocv_residuals`] in these buffers, into `out` (cleared first).
    fn residuals(&mut self, spec: &ModelSpec, samples: &[Sample], out: &mut Vec<f64>) {
        out.clear();
        let (n, terms) = (samples.len(), spec.terms.len());
        if n < 2 || terms == 0 || terms > n - 1 {
            return;
        }
        self.load(spec, samples);
        for (hold, s) in samples.iter().enumerate() {
            self.solve_without(terms, samples, Some(hold));
            let row = &self.features[hold * terms..(hold + 1) * terms];
            let pred: f64 = row.iter().zip(&self.nnls.x).map(|(x, t)| x * t).sum();
            out.push(if s.y.abs() < 1e-12 {
                (pred - s.y).abs()
            } else {
                ((pred - s.y) / s.y).abs()
            });
        }
    }

    /// [`loocv_error`] in these buffers; `out` holds the residuals after.
    fn cv_error(&mut self, spec: &ModelSpec, samples: &[Sample], out: &mut Vec<f64>) -> f64 {
        let _prof = obs::prof::scope("loocv");
        if let Some(reg) = obs::Registry::current() {
            reg.counter(
                "modeling_loocv_evaluations_total",
                "candidate specs scored by leave-one-out cross-validation",
            )
            .inc();
        }
        self.residuals(spec, samples, out);
        if out.is_empty() {
            return f64::INFINITY;
        }
        out.iter().sum::<f64>() / out.len() as f64
    }
}

/// Fits a single spec on all samples with non-negative coefficients.
pub fn fit_spec(spec: &ModelSpec, samples: &[Sample]) -> Result<FittedModel, FitError> {
    FitBuffers::default().fit(spec, samples)
}

/// Per-holdout leave-one-out relative errors of a spec, in sample order:
/// sample `k` of the result is the relative prediction error at sample `k`
/// when the model was fit on everything *but* sample `k`. Empty when the
/// spec is infeasible for the sample count (fewer than 2 samples, no
/// terms, or more coefficients than remaining samples).
#[must_use]
pub fn loocv_residuals(spec: &ModelSpec, samples: &[Sample]) -> Vec<f64> {
    let mut out = Vec::new();
    FitBuffers::default().residuals(spec, samples, &mut out);
    out
}

/// Leave-one-out cross-validation error of a spec: each sample is held out
/// in turn, the model is fit on the rest, and the held-out relative errors
/// are averaged (paper §5.2). Specs with more coefficients than remaining
/// samples are penalized with infinite error.
#[must_use]
pub fn loocv_error(spec: &ModelSpec, samples: &[Sample]) -> f64 {
    FitBuffers::default().cv_error(spec, samples, &mut Vec::new())
}

/// One candidate's score in a [`FitReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateScore {
    /// The candidate spec.
    pub spec: ModelSpec,
    /// Its mean leave-one-out relative error (infinite when infeasible
    /// for the sample count).
    pub cv_error: f64,
    /// Whether model selection picked this candidate.
    pub selected: bool,
}

/// Model-quality diagnostics from one [`fit_best_with_report`] selection:
/// every candidate's cross-validation score, the winner refit on all
/// samples, and the winner's per-holdout residuals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// All candidates in evaluation order, each with its LOO-CV error.
    pub candidates: Vec<CandidateScore>,
    /// The winning model refit on all samples.
    pub winner: FittedModel,
    /// Mean leave-one-out relative error of the winner.
    pub cv_error: f64,
    /// The winner's per-holdout relative errors, in sample order (see
    /// [`loocv_residuals`]); empty only when LOO-CV was infeasible.
    pub residuals: Vec<f64>,
}

impl FitReport {
    /// Mean holdout relative error (equals [`FitReport::cv_error`] when
    /// residuals are available).
    #[must_use]
    pub fn mean_residual(&self) -> f64 {
        if self.residuals.is_empty() {
            f64::INFINITY
        } else {
            self.residuals.iter().sum::<f64>() / self.residuals.len() as f64
        }
    }

    /// Worst holdout relative error.
    #[must_use]
    pub fn max_residual(&self) -> f64 {
        self.residuals
            .iter()
            .fold(f64::NEG_INFINITY, |m, &r| m.max(r))
    }

    /// The winner's [`ModelSummary`] — what run manifests record.
    #[must_use]
    pub fn summary(&self) -> ModelSummary {
        ModelSummary::of(&self.winner, self.cv_error)
    }

    /// The holdout residual series in fixed-point micro-units
    /// (`obs::health::MICRO`), in sample order — the seed the health
    /// watchtower warm-starts its EWMA residual bands from, so the first
    /// production runs are judged against the training-time error
    /// distribution instead of a cold band.
    #[must_use]
    pub fn residual_micro_series(&self) -> Vec<i64> {
        self.residuals.iter().map(|&r| obs::to_micro(r)).collect()
    }
}

/// Full model selection: cross-validate each candidate, pick the least
/// error, refit on all samples. Ties break toward fewer terms (the earlier,
/// simpler candidates in the lists from [`ModelSpec`]).
pub fn fit_best(candidates: &[ModelSpec], samples: &[Sample]) -> Result<CrossValidated, FitError> {
    fit_best_with_report(candidates, samples).map(|(cv, _)| cv)
}

/// [`fit_best`] plus a [`FitReport`] carrying per-candidate LOO-CV scores
/// and the winner's holdout residuals — the `juggler doctor` model-quality
/// surface.
pub fn fit_best_with_report(
    candidates: &[ModelSpec],
    samples: &[Sample],
) -> Result<(CrossValidated, FitReport), FitError> {
    if candidates.is_empty() {
        return Err(FitError::NoCandidates);
    }
    if samples.is_empty() {
        return Err(FitError::NoSamples);
    }
    let _prof = obs::prof::scope("fit");
    // One set of buffers for the whole selection: every solve below
    // reuses them.
    let mut bufs = FitBuffers::default();
    let mut residuals = Vec::with_capacity(samples.len());
    let mut scores = Vec::with_capacity(candidates.len());
    let mut best: Option<(f64, usize)> = None;
    for (k, spec) in candidates.iter().enumerate() {
        let err = bufs.cv_error(spec, samples, &mut residuals);
        let better = match best {
            None => true,
            Some((e, _)) => err < e - 1e-15,
        };
        if better {
            best = Some((err, k));
        }
        scores.push(CandidateScore {
            spec: spec.clone(),
            cv_error: err,
            selected: false,
        });
    }
    let (cv_error, kbest) = best.expect("candidates is non-empty");
    scores[kbest].selected = true;
    // The winner is refit, and its residuals recomputed, as separate
    // solves: solve counts enter run manifests.
    let model = bufs.fit(&candidates[kbest], samples)?;
    bufs.residuals(&candidates[kbest], samples, &mut residuals);
    let report = FitReport {
        candidates: scores,
        winner: model.clone(),
        cv_error,
        residuals,
    };
    Ok((CrossValidated { model, cv_error }, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::Term;

    fn grid(ys: impl Fn(f64, f64) -> f64) -> Vec<Sample> {
        let es = [10_000.0, 40_000.0, 70_000.0];
        let fs = [20_000.0, 60_000.0, 120_000.0];
        let mut out = Vec::new();
        for &e in &es {
            for &f in &fs {
                out.push(Sample::ef(e, f, ys(e, f)));
            }
        }
        out
    }

    /// The LOO-CV the workspace replaced: per holdout, a fresh training
    /// set, a Matrix design and the Matrix-based Lawson–Hanson.
    fn oracle_residuals(spec: &ModelSpec, samples: &[Sample]) -> Vec<f64> {
        let n = samples.len();
        if n < 2 || spec.terms.is_empty() || spec.terms.len() > n - 1 {
            return Vec::new();
        }
        (0..n)
            .map(|hold| {
                let train: Vec<&Sample> =
                    (0..n).filter(|&k| k != hold).map(|k| &samples[k]).collect();
                let coeffs = oracle_fit(spec, &train);
                let s = samples[hold];
                let model = FittedModel {
                    spec: spec.clone(),
                    coeffs,
                };
                let pred = model.predict(s.e, s.f, s.i);
                if s.y.abs() < 1e-12 {
                    (pred - s.y).abs()
                } else {
                    ((pred - s.y) / s.y).abs()
                }
            })
            .collect()
    }

    fn oracle_fit(spec: &ModelSpec, train: &[&Sample]) -> Vec<f64> {
        let rows: Vec<Vec<f64>> = train.iter().map(|s| spec.features(s.e, s.f, s.i)).collect();
        let y: Vec<f64> = train.iter().map(|s| s.y).collect();
        crate::nnls::oracle::nnls_with_stats(&crate::linalg::Matrix::from_rows(&rows), &y).0
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `loocv_residuals`, `fit_spec` and a whole selection reproduce the
    /// per-holdout Matrix oracle bit for bit on random samples: 2–12 rows,
    /// specs of 1–4 terms, zero columns (`i = 0` under an `i` term),
    /// collinear columns (`f` next to `f·i` at `i = 1`) and responses
    /// falling in `e`, whose unconstrained optimum is negative.
    #[test]
    fn loocv_matches_per_holdout_oracle_bit_for_bit() {
        let pool = [
            Term::ONE,
            Term::E,
            Term::F,
            Term::EF,
            Term::F2,
            Term::I,
            Term::FI,
        ];
        let mut state = 7;
        let mut unit = || crate::nnls::oracle::unit(&mut state);
        for case in 0..600 {
            let n = 2 + (unit() * 11.0) as usize;
            let i_level = [0.0, 1.0, 5.0][(unit() * 3.0) as usize];
            let slope = unit() * 4.0 - 2.0;
            let samples: Vec<Sample> = (0..n)
                .map(|_| {
                    let (e, f) = (1.0 + unit() * 1e4, 1.0 + unit() * 1e3);
                    let y = 1e3 + slope * e + 0.01 * e * f * (1.0 + 0.01 * unit());
                    Sample {
                        e,
                        f,
                        i: i_level,
                        y,
                    }
                })
                .collect();
            let candidates: Vec<ModelSpec> = (0..3)
                .map(|_| {
                    let terms = 1 + (unit() * 4.0) as usize;
                    ModelSpec::new((0..terms).map(|_| pool[(unit() * 7.0) as usize]).collect())
                })
                .collect();
            let at = format!("case {case}");
            for spec in &candidates {
                let want = oracle_residuals(spec, &samples);
                assert_eq!(bits(&loocv_residuals(spec, &samples)), bits(&want), "{at}");
                let all: Vec<&Sample> = samples.iter().collect();
                let fit = fit_spec(spec, &samples).unwrap();
                assert_eq!(bits(&fit.coeffs), bits(&oracle_fit(spec, &all)), "{at}");
            }
            let (cv, report) = fit_best_with_report(&candidates, &samples).unwrap();
            let winner = report.candidates.iter().position(|c| c.selected).unwrap();
            let spec = &candidates[winner];
            for (c, spec) in report.candidates.iter().zip(&candidates) {
                let want = oracle_residuals(spec, &samples);
                let err = if want.is_empty() {
                    f64::INFINITY
                } else {
                    want.iter().sum::<f64>() / want.len() as f64
                };
                assert_eq!(c.cv_error.to_bits(), err.to_bits(), "{at}");
            }
            assert_eq!(
                bits(&report.residuals),
                bits(&oracle_residuals(spec, &samples)),
                "{at}"
            );
            let all: Vec<&Sample> = samples.iter().collect();
            assert_eq!(
                bits(&cv.model.coeffs),
                bits(&oracle_fit(spec, &all)),
                "{at}"
            );
        }
    }

    #[test]
    fn selects_pure_ef_model() {
        let samples = grid(|e, f| 0.016 * e * f);
        let cv = fit_best(&ModelSpec::size_candidates(), &samples).unwrap();
        assert!(cv.cv_error < 1e-9, "cv error {}", cv.cv_error);
        let pred = cv.model.predict(55_000.0, 90_000.0, 1.0);
        let truth = 0.016 * 55_000.0 * 90_000.0;
        assert!(((pred - truth) / truth).abs() < 1e-9);
    }

    #[test]
    fn selects_affine_e_ef_model() {
        let samples = grid(|e, f| 1.0e7 + 96.0 * e + 0.008 * e * f);
        let cv = fit_best(&ModelSpec::size_candidates(), &samples).unwrap();
        assert!(cv.cv_error < 1e-6, "cv error {}", cv.cv_error);
        let pred = cv.model.predict(30_000.0, 45_000.0, 1.0);
        let truth = 1.0e7 + 96.0 * 30_000.0 + 0.008 * 30_000.0 * 45_000.0;
        assert!(
            ((pred - truth) / truth).abs() < 1e-6,
            "pred {pred}, truth {truth}"
        );
    }

    #[test]
    fn selects_f2_time_model() {
        let samples = grid(|e, f| 2.0e-6 * f * f + 3.0e-5 * e * f);
        let cv = fit_best(&ModelSpec::time_candidates(), &samples).unwrap();
        assert_eq!(cv.model.spec, ModelSpec::new(vec![Term::F2, Term::EF]));
        assert!(cv.cv_error < 1e-9);
    }

    #[test]
    fn iteration_extended_family_recovers_i_term() {
        let mut samples = Vec::new();
        for &e in &[1.0e4, 5.0e4] {
            for &f in &[1.0e4, 8.0e4] {
                for &i in &[10.0, 50.0, 100.0] {
                    samples.push(Sample {
                        e,
                        f,
                        i,
                        y: 30.0 + 2.0e-7 * e * f * i,
                    });
                }
            }
        }
        let cv = fit_best(&ModelSpec::time_candidates_with_iterations(), &samples).unwrap();
        assert!(cv.cv_error < 1e-9, "cv error {}", cv.cv_error);
        let pred = cv.model.predict(3.0e4, 4.0e4, 70.0);
        let truth = 30.0 + 2.0e-7 * 3.0e4 * 4.0e4 * 70.0;
        assert!(((pred - truth) / truth).abs() < 1e-9);
    }

    #[test]
    fn report_scores_every_candidate_and_marks_one_winner() {
        let samples = grid(|e, f| 0.016 * e * f);
        let candidates = ModelSpec::size_candidates();
        let (cv, report) = fit_best_with_report(&candidates, &samples).unwrap();
        assert_eq!(report.candidates.len(), candidates.len());
        let selected: Vec<&CandidateScore> =
            report.candidates.iter().filter(|c| c.selected).collect();
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].spec, cv.model.spec);
        assert_eq!(selected[0].cv_error, cv.cv_error);
        assert_eq!(report.residuals.len(), samples.len());
        assert!((report.mean_residual() - cv.cv_error).abs() < 1e-15);
        assert!(report.max_residual() >= report.mean_residual());
        // Every other candidate scored no better than the winner.
        for c in &report.candidates {
            assert!(c.cv_error >= cv.cv_error - 1e-15, "{c:?}");
        }
    }

    #[test]
    fn summary_exposes_winner_spec_and_coefficients() {
        let samples = grid(|e, f| 0.016 * e * f);
        let (cv, report) = fit_best_with_report(&ModelSpec::size_candidates(), &samples).unwrap();
        let s = report.summary();
        assert_eq!(s.spec, cv.model.spec.to_string());
        assert_eq!(s.coeffs, cv.model.coeffs);
        assert_eq!(s.cv_error, cv.cv_error);
        assert!(s.spec.contains("e·f"), "{}", s.spec);
    }

    #[test]
    fn residuals_match_loocv_error() {
        let samples = grid(|e, f| 1.0e7 + 96.0 * e + 0.008 * e * f);
        let spec = ModelSpec::new(vec![Term::ONE, Term::E, Term::EF]);
        let residuals = loocv_residuals(&spec, &samples);
        assert_eq!(residuals.len(), samples.len());
        let mean = residuals.iter().sum::<f64>() / residuals.len() as f64;
        assert!((mean - loocv_error(&spec, &samples)).abs() < 1e-15);
    }

    #[test]
    fn loocv_penalizes_overparameterized_specs() {
        let samples = vec![Sample::ef(1.0, 1.0, 1.0), Sample::ef(2.0, 2.0, 2.0)];
        let big = ModelSpec::new(vec![Term::ONE, Term::E, Term::F, Term::EF]);
        assert_eq!(loocv_error(&big, &samples), f64::INFINITY);
    }

    #[test]
    fn fit_best_errors_on_empty_inputs() {
        assert!(matches!(
            fit_best(&[], &[Sample::ef(1.0, 1.0, 1.0)]),
            Err(FitError::NoCandidates)
        ));
        assert!(matches!(
            fit_best(&ModelSpec::size_candidates(), &[]),
            Err(FitError::NoSamples)
        ));
    }

    #[test]
    fn coefficients_are_nonnegative_even_for_decreasing_data() {
        // Response decreases in f; the best non-negative model must not
        // produce negative coefficients.
        let samples = grid(|e, f| 1.0e9 + 50.0 * e - 0.001 * f);
        let cv = fit_best(&ModelSpec::size_candidates(), &samples).unwrap();
        assert!(cv.model.coeffs.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn render_is_humane() {
        let m = FittedModel {
            spec: ModelSpec::new(vec![Term::ONE, Term::EF]),
            coeffs: vec![2.0, 0.5],
        };
        assert_eq!(m.render(), "2 + 0.5·e·f");
    }

    /// A coefficient like 3.2e-7 (typical for e·f·i time terms) must not
    /// render as zero.
    #[test]
    fn render_keeps_tiny_coefficients_visible() {
        let m = FittedModel {
            spec: ModelSpec::new(vec![Term::ONE, Term::EFI]),
            coeffs: vec![30.0, 3.2e-7],
        };
        assert_eq!(m.render(), "30 + 3.2e-7·e·f·i");
    }

    /// Noisy data: selection still lands on a model whose held-out error is
    /// small, reproducing the paper's ~0.9 % worst-case size error regime.
    #[test]
    fn tolerates_measurement_noise() {
        let mut k = 0u64;
        let mut noise = move || {
            // Tiny deterministic pseudo-noise in ±0.5 %.
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((k >> 33) as f64 / 2f64.powi(31) - 0.5) * 0.01
        };
        let samples: Vec<Sample> = grid(|e, f| 96.0 * e + 0.008 * e * f)
            .into_iter()
            .map(|mut s| {
                s.y *= 1.0 + noise();
                s
            })
            .collect();
        let cv = fit_best(&ModelSpec::size_candidates(), &samples).unwrap();
        assert!(cv.cv_error < 0.02, "cv error {}", cv.cv_error);
    }
}
