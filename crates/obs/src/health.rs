//! Streaming model-health primitives: deterministic drift detectors and
//! declarative error budgets (SLOs).
//!
//! Everything here operates on **fixed-point micro-units** (`1.0` ==
//! [`MICRO`] == `1_000_000`): relative errors, coefficient deviations and
//! thresholds are converted once via [`to_micro`] and every detector
//! update is pure integer arithmetic (`i64`/`i128`, truncating division).
//! That is what makes a health verdict *bit-identical* across worker
//! thread counts, repeat folds, and machines — the same contract the run
//! manifests obey, extended to the component that watches them.
//!
//! Three detector families cover the paper-pipeline failure modes:
//!
//! * [`PageHinkley`] — cumulative-deviation test for sustained mean
//!   shifts in a prediction-error stream.
//! * [`Cusum`] — one-sided cumulative-sum test; the workhorse for
//!   "coefficient silently drifted away from its baseline".
//! * [`EwmaBand`] — exponentially weighted mean/deviation bands for
//!   runtime/size residual outliers; seedable from training holdout
//!   residuals so the band starts calibrated instead of cold.
//!
//! The *policy* side is [`SloSpec`]: a per-workload JSON error budget
//! (max mean/p95 relative error, consecutive-breach and burn-rate
//! limits) that `juggler health` evaluates the folded history against.
//! The typed outcome is [`Verdict`]. The fold itself (which series feed
//! which detector, refit advice) lives in `juggler-core::watchtower` —
//! obs only knows streams, budgets, and verdicts.

use serde::{Deserialize, Serialize};

/// Fixed-point scale: `1.0` (100 % relative error) in micro-units.
pub const MICRO: i64 = 1_000_000;

/// Converts a fraction (e.g. a relative error) to clamped micro-units.
/// `NaN` saturates to `i64::MAX` so a poisoned series reads as maximally
/// drifted instead of silently healthy.
#[must_use]
pub fn to_micro(x: f64) -> i64 {
    if x.is_nan() {
        return i64::MAX;
    }
    let scaled = x * MICRO as f64;
    if scaled >= i64::MAX as f64 {
        i64::MAX
    } else if scaled <= i64::MIN as f64 {
        i64::MIN
    } else {
        scaled.round() as i64
    }
}

/// Renders micro-units as a percentage string (`500000` → `50%`).
#[must_use]
pub fn fmt_micro_pct(micro: i64) -> String {
    crate::format::fmt_sig(micro as f64 / (MICRO as f64 / 100.0), 3) + "%"
}

/// Where a detector first fired: 0-based sample index plus the statistic
/// magnitude (micro-units) at that sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Firing {
    /// 0-based index of the sample that tripped the detector.
    pub sample: u64,
    /// Detector statistic at the firing sample, micro-units.
    pub magnitude_micro: i64,
}

/// Page–Hinkley test for a sustained upward mean shift.
///
/// Classic formulation over a stream `x_t`: track the running mean
/// `μ_t`, accumulate `m_t = Σ (x_i − μ_i − δ)` and its running minimum
/// `M_t`; alarm when `m_t − M_t > λ`. All state is integer (micro-unit
/// samples, `i128` accumulators, truncating mean division), so the
/// firing sample is a pure function of the series.
#[derive(Debug, Clone)]
pub struct PageHinkley {
    delta_micro: i64,
    lambda_micro: i64,
    n: u64,
    sum: i128,
    mh: i128,
    min_mh: i128,
    fired: Option<Firing>,
}

impl PageHinkley {
    /// A detector with slack `delta` and threshold `lambda`, micro-units.
    #[must_use]
    pub fn new(delta_micro: i64, lambda_micro: i64) -> Self {
        PageHinkley {
            delta_micro,
            lambda_micro,
            n: 0,
            sum: 0,
            mh: 0,
            min_mh: 0,
            fired: None,
        }
    }

    /// Feeds one sample; returns `true` the first time the alarm trips.
    pub fn observe(&mut self, x_micro: i64) -> bool {
        self.n += 1;
        self.sum += i128::from(x_micro);
        let mean = self.sum / i128::from(self.n);
        self.mh += i128::from(x_micro) - mean - i128::from(self.delta_micro);
        self.min_mh = self.min_mh.min(self.mh);
        let stat = self.mh - self.min_mh;
        if self.fired.is_none() && stat > i128::from(self.lambda_micro) {
            self.fired = Some(Firing {
                sample: self.n - 1,
                magnitude_micro: i64::try_from(stat).unwrap_or(i64::MAX),
            });
            return true;
        }
        false
    }

    /// First firing, if any.
    #[must_use]
    pub fn fired(&self) -> Option<Firing> {
        self.fired
    }
}

/// One-sided CUSUM: `s_t = max(0, s_{t−1} + x_t − target − slack)`,
/// alarm when `s_t > threshold`. Integer state throughout.
#[derive(Debug, Clone)]
pub struct Cusum {
    target_micro: i64,
    slack_micro: i64,
    threshold_micro: i64,
    s: i128,
    n: u64,
    fired: Option<Firing>,
}

impl Cusum {
    /// A detector testing for upward shifts past `target + slack`.
    #[must_use]
    pub fn new(target_micro: i64, slack_micro: i64, threshold_micro: i64) -> Self {
        Cusum {
            target_micro,
            slack_micro,
            threshold_micro,
            s: 0,
            n: 0,
            fired: None,
        }
    }

    /// Feeds one sample; returns `true` the first time the alarm trips.
    pub fn observe(&mut self, x_micro: i64) -> bool {
        let step =
            i128::from(x_micro) - i128::from(self.target_micro) - i128::from(self.slack_micro);
        self.s = (self.s + step).max(0);
        self.n += 1;
        if self.fired.is_none() && self.s > i128::from(self.threshold_micro) {
            self.fired = Some(Firing {
                sample: self.n - 1,
                magnitude_micro: i64::try_from(self.s).unwrap_or(i64::MAX),
            });
            return true;
        }
        false
    }

    /// First firing, if any.
    #[must_use]
    pub fn fired(&self) -> Option<Firing> {
        self.fired
    }
}

/// EWMA mean/deviation bands with a fixed-point smoothing factor
/// `alpha = num/den`. A sample breaches when it sits more than
/// `k · dev` (floored at `min_band`) from the tracked mean. Deviation is
/// a mean-absolute-deviation EWMA — integer-friendly, no square roots.
#[derive(Debug, Clone)]
pub struct EwmaBand {
    num: i64,
    den: i64,
    k: i64,
    min_band_micro: i64,
    mean: i64,
    dev: i64,
    n: u64,
    observed: u64,
    breaches: u64,
    fired: Option<Firing>,
}

impl EwmaBand {
    /// A band tracker with smoothing `num/den` and width `k · dev`,
    /// floored at `min_band_micro`.
    #[must_use]
    pub fn new(num: i64, den: i64, k: i64, min_band_micro: i64) -> Self {
        assert!(den > 0 && num > 0 && num <= den, "alpha must be in (0, 1]");
        EwmaBand {
            num,
            den,
            k,
            min_band_micro,
            mean: 0,
            dev: 0,
            n: 0,
            observed: 0,
            breaches: 0,
            fired: None,
        }
    }

    /// Warm-starts the mean/deviation state without breach checking —
    /// used to seed the band from training holdout residuals so the
    /// first production runs are judged against a calibrated baseline.
    pub fn seed(&mut self, baseline_micro: &[i64]) {
        for &x in baseline_micro {
            self.update(x);
        }
    }

    fn update(&mut self, x_micro: i64) {
        if self.n == 0 {
            self.mean = x_micro;
            self.dev = 0;
        } else {
            let err = x_micro - self.mean;
            self.mean += self.num * err / self.den;
            self.dev += self.num * (err.abs() - self.dev) / self.den;
        }
        self.n += 1;
    }

    /// Feeds one sample; returns `true` when it falls outside the band.
    /// The sample still updates the band afterwards, so a level shift
    /// breaches a few times and then becomes the new normal (bands flag
    /// outliers; sustained shifts are Page–Hinkley/CUSUM territory).
    pub fn observe(&mut self, x_micro: i64) -> bool {
        let mut breached = false;
        if self.n > 0 {
            let err = (x_micro - self.mean).abs();
            let band = (self.k * self.dev).max(self.min_band_micro);
            if err > band {
                breached = true;
                self.breaches += 1;
                if self.fired.is_none() {
                    // Samples are numbered over `observe` calls only, so
                    // seed data never shifts the reported onset.
                    self.fired = Some(Firing {
                        sample: self.observed,
                        magnitude_micro: err,
                    });
                }
            }
        }
        self.update(x_micro);
        self.observed += 1;
        breached
    }

    /// Samples fed through `observe` (seed data excluded).
    #[must_use]
    pub fn observed_samples(&self) -> u64 {
        self.observed
    }

    /// Total band breaches observed.
    #[must_use]
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// First breach, if any.
    #[must_use]
    pub fn fired(&self) -> Option<Firing> {
        self.fired
    }
}

/// A declarative per-workload error budget (SLO): what prediction
/// quality the stored history must sustain. Parsed from JSON via
/// [`SloSpec::from_json`]; every field has a default so a spec file only
/// states what it tightens.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct SloSpec {
    /// Per-run and window-mean ceiling on the mean relative
    /// time-prediction error (fraction; a run above it *breaches*).
    pub max_mean_time_rel_error: f64,
    /// Ceiling on the window's p95 time relative error (fraction).
    pub max_p95_time_rel_error: f64,
    /// Per-run ceiling on the mean relative size-prediction error.
    pub max_mean_size_rel_error: f64,
    /// Runs may breach at most this many times *in a row* before the
    /// budget verdict escalates to `Drifted`.
    pub max_consecutive_breaches: u32,
    /// Fraction of runs in the window allowed to breach (the error
    /// budget proper). Burn rate = breaching fraction / this.
    pub budget_breach_fraction: f64,
    /// Burn rate at or above which the verdict is at least `Warn`.
    pub warn_burn_rate: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            max_mean_time_rel_error: 0.15,
            max_p95_time_rel_error: 0.35,
            max_mean_size_rel_error: 0.20,
            max_consecutive_breaches: 3,
            budget_breach_fraction: 0.25,
            warn_burn_rate: 0.5,
        }
    }
}

impl SloSpec {
    /// Parses a spec document, starting from the defaults. Unknown keys
    /// are an error (a typoed budget must not silently loosen to the
    /// default), wrong kinds are an error, absent keys keep defaults.
    pub fn from_json(raw: &str) -> Result<Self, String> {
        let slo: SloSpec = serde_json::from_str(raw).map_err(|e| format!("slo spec: {e}"))?;
        // JSON has no non-finite numbers, so <= is exhaustive.
        if slo.budget_breach_fraction <= 0.0 {
            return Err("slo spec: `budget_breach_fraction` must be positive".into());
        }
        Ok(slo)
    }

    /// One-line deterministic rendering for reports.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "mean<={} p95<={} size<={} consecutive<={} budget_fraction {} warn_burn {}",
            fmt_micro_pct(to_micro(self.max_mean_time_rel_error)),
            fmt_micro_pct(to_micro(self.max_p95_time_rel_error)),
            fmt_micro_pct(to_micro(self.max_mean_size_rel_error)),
            self.max_consecutive_breaches,
            fmt_micro_pct(to_micro(self.budget_breach_fraction)),
            fmt_micro_pct(to_micro(self.warn_burn_rate)),
        )
    }
}

/// The typed outcome of a health evaluation (one model, the budget, or
/// the whole report — worst wins).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Inside budget, no detector fired.
    Healthy,
    /// The budget is burning (or residual bands are breaching) but no
    /// drift detector has confirmed a sustained shift yet.
    Warn {
        /// What raised the warning (`budget_burn`, `ewma_band`, …).
        signal: String,
        /// Magnitude of the warning signal, micro-units.
        value_micro: i64,
    },
    /// A drift detector fired: the model no longer matches reality.
    Drifted {
        /// Which detector fired (`cusum(coeff)`, `page_hinkley(err)`, …).
        detector: String,
        /// Run id (ledger id) of the onset sample.
        onset_run: String,
        /// Detector statistic at onset, micro-units.
        magnitude_micro: i64,
    },
}

impl Verdict {
    /// Severity level: 0 healthy, 1 warn, 2 drifted.
    #[must_use]
    pub fn level(&self) -> u8 {
        match self {
            Verdict::Healthy => 0,
            Verdict::Warn { .. } => 1,
            Verdict::Drifted { .. } => 2,
        }
    }

    /// Short lowercase/uppercase label (`healthy`, `WARN`, `DRIFTED`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Healthy => "healthy",
            Verdict::Warn { .. } => "WARN",
            Verdict::Drifted { .. } => "DRIFTED",
        }
    }

    /// The more severe of two verdicts (`self` wins ties, so earlier
    /// evaluation order is a deterministic tiebreak).
    #[must_use]
    pub fn worst(self, other: Verdict) -> Verdict {
        if other.level() > self.level() {
            other
        } else {
            self
        }
    }

    /// Deterministic one-line detail rendering.
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            Verdict::Healthy => "healthy".to_owned(),
            Verdict::Warn {
                signal,
                value_micro,
            } => {
                format!("WARN {signal} {}", fmt_micro_pct(*value_micro))
            }
            Verdict::Drifted {
                detector,
                onset_run,
                magnitude_micro,
            } => format!(
                "DRIFTED {detector} at run {onset_run} (magnitude {})",
                fmt_micro_pct(*magnitude_micro)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_micro_clamps_and_rounds() {
        assert_eq!(to_micro(0.0805), 80_500);
        assert_eq!(to_micro(0.5), 500_000);
        assert_eq!(to_micro(-0.25), -250_000);
        assert_eq!(to_micro(f64::NAN), i64::MAX);
        assert_eq!(to_micro(f64::INFINITY), i64::MAX);
        assert_eq!(to_micro(f64::NEG_INFINITY), i64::MIN);
        assert_eq!(to_micro(1e300), i64::MAX);
        assert_eq!(to_micro(4.4e-7), 0, "sub-half-micro jitter rounds away");
    }

    #[test]
    fn page_hinkley_fires_on_a_mean_shift_not_on_noise() {
        let mut ph = PageHinkley::new(5_000, 150_000);
        for _ in 0..50 {
            assert!(!ph.observe(80_000));
        }
        assert!(ph.fired().is_none(), "stationary stream never fires");
        // Mean shift: 8% -> 30%.
        let mut fired_at = None;
        for i in 0..20 {
            if ph.observe(300_000) {
                fired_at = Some(i);
                break;
            }
        }
        let fired_at = fired_at.expect("shift fires");
        assert!(
            fired_at <= 2,
            "fires within two shifted samples: {fired_at}"
        );
        assert!(ph.fired().unwrap().magnitude_micro > 150_000);
    }

    #[test]
    fn page_hinkley_is_replay_deterministic() {
        let series: Vec<i64> = (0..200).map(|i| 70_000 + (i % 7) * 3_000).collect();
        let run = || {
            let mut ph = PageHinkley::new(5_000, 50_000);
            let mut log = Vec::new();
            for &x in &series {
                log.push(ph.observe(x));
            }
            (log, ph.fired())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cusum_fires_at_the_first_large_excursion() {
        let mut c = Cusum::new(0, 10_000, 100_000);
        for _ in 0..30 {
            assert!(!c.observe(1), "1-micro jitter sits inside the slack");
        }
        assert!(c.observe(500_000), "a 50% deviation trips immediately");
        let firing = c.fired().unwrap();
        assert_eq!(firing.sample, 30);
        assert_eq!(firing.magnitude_micro, 490_000);
    }

    #[test]
    fn cusum_accumulates_slow_drift() {
        let mut c = Cusum::new(0, 10_000, 100_000);
        let mut fired = None;
        for i in 0..100 {
            // 3% per run: 20k above slack each step, fires when the
            // excess sum passes 100k.
            if c.observe(30_000) {
                fired = Some(i);
                break;
            }
        }
        assert_eq!(fired, Some(5), "100k excess / 20k per step, strict >");
    }

    #[test]
    fn ewma_band_flags_outliers_and_absorbs_level_shifts() {
        let mut b = EwmaBand::new(1, 4, 4, 20_000);
        for _ in 0..20 {
            assert!(!b.observe(80_000));
        }
        assert!(b.observe(200_000), "12-point jump breaches the band");
        assert_eq!(b.breaches(), 1);
        // Keep feeding the new level: the band re-centres.
        let mut later_breaches = 0;
        for _ in 0..40 {
            if b.observe(200_000) {
                later_breaches += 1;
            }
        }
        assert!(
            later_breaches < 8,
            "band re-centres on the new level ({later_breaches} later breaches)"
        );
    }

    #[test]
    fn ewma_seed_warms_the_band_without_breaching() {
        let mut b = EwmaBand::new(1, 4, 4, 20_000);
        b.seed(&[80_000, 90_000, 70_000, 85_000]);
        assert_eq!(b.breaches(), 0, "seeding never counts breaches");
        assert!(!b.observe(82_000), "in-band first observation");
        assert!(b.observe(400_000), "seeded band still catches outliers");
        assert_eq!(b.observed_samples(), 2, "seed data is not counted");
    }

    #[test]
    fn slo_parses_partial_specs_and_rejects_typos() {
        let slo = SloSpec::from_json(r#"{"max_mean_time_rel_error": 0.05}"#).unwrap();
        assert_eq!(slo.max_mean_time_rel_error, 0.05);
        assert_eq!(
            slo.max_consecutive_breaches,
            SloSpec::default().max_consecutive_breaches
        );
        let err = SloSpec::from_json(r#"{"max_mean_time_err": 0.05}"#).unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        let err = SloSpec::from_json(r#"{"max_mean_time_rel_error": "a"}"#).unwrap_err();
        assert!(
            err.contains("max_mean_time_rel_error") && err.contains("expected number"),
            "{err}"
        );
        let err = SloSpec::from_json(r#"{"budget_breach_fraction": 0}"#).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = SloSpec::from_json(r#"{"max_consecutive_breaches": 2.5}"#).unwrap_err();
        assert!(err.contains("integer"), "{err}");
        // A derived u32 takes no float, integral or not, as serde does.
        let err = SloSpec::from_json(r#"{"max_consecutive_breaches": 3.0}"#).unwrap_err();
        assert!(err.contains("integer"), "{err}");
    }

    #[test]
    fn slo_summary_is_stable() {
        assert_eq!(
            SloSpec::default().summary(),
            "mean<=15% p95<=35% size<=20% consecutive<=3 budget_fraction 25% warn_burn 50%"
        );
    }

    #[test]
    fn verdict_ordering_and_labels() {
        let warn = Verdict::Warn {
            signal: "budget_burn".into(),
            value_micro: 600_000,
        };
        let drifted = Verdict::Drifted {
            detector: "cusum(coeff)".into(),
            onset_run: "abcd".into(),
            magnitude_micro: 490_000,
        };
        assert_eq!(Verdict::Healthy.level(), 0);
        assert_eq!(warn.level(), 1);
        assert_eq!(drifted.level(), 2);
        assert_eq!(Verdict::Healthy.worst(warn.clone()), warn);
        assert_eq!(warn.clone().worst(drifted.clone()), drifted);
        assert_eq!(drifted.clone().worst(warn.clone()), drifted);
        assert_eq!(warn.detail(), "WARN budget_burn 60%");
        assert_eq!(
            drifted.detail(),
            "DRIFTED cusum(coeff) at run abcd (magnitude 49%)"
        );
    }
}
