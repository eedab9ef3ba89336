//! End-to-end diagnostics behind `juggler doctor`.
//!
//! [`doctor`] trains a workload with a metrics registry of its own
//! installed, then *validates its own predictions*: every Pareto menu
//! option at the paper-scale parameters is simulated once (fixed seeds)
//! and the predicted time/size are compared against the observed run in
//! a [`PredictionLedger`]. The result bundles the hotspot decision trace,
//! the per-model fit reports, the ledger, and a deterministic counter
//! snapshot of the doctor's registry, which no other caller in the
//! process can write into.
//!
//! [`DoctorReport::render`] is fully deterministic for a given
//! (workload, config): it contains no wall-clock values — host timings
//! live in the separate [`PipelineTimings`] field, which callers print
//! (or don't) themselves.

use std::sync::Arc;

use cluster_sim::{ClusterConfig, Engine, EnginePrep, RunOptions};
use workloads::Workload;

use crate::diagnostics::{LedgerEntry, PredictionLedger, TrainingDiagnostics};
use crate::pipeline::{
    OfflineTraining, PipelineTimings, TrainedJuggler, TrainingConfig, TrainingError,
};
use crate::provenance::RunManifest;
use crate::recommend::RecommendationMenu;
use crate::watchtower::{HealthReport, ResidualSeed, Watchtower};

/// Everything `juggler doctor` reports about one workload.
#[derive(Debug)]
pub struct DoctorReport {
    /// The trained artifact (byte-identical to `OfflineTraining::run`).
    pub trained: TrainedJuggler,
    /// Decision trace and fit reports from training.
    pub diagnostics: TrainingDiagnostics,
    /// The recommendation menu at the paper-scale parameters.
    pub menu: RecommendationMenu,
    /// Paper-scale `(e, f)` the menu and validations used.
    pub params: (f64, f64),
    /// Predicted-vs-simulated validation rows, one per menu option.
    pub ledger: PredictionLedger,
    /// Deterministic counter snapshot taken after the validations.
    pub snapshot: obs::Snapshot,
    /// The registry this run recorded into; snapshot it with timings for
    /// the host wall-clock gauges.
    pub registry: Arc<obs::Registry>,
    /// Single-run health baseline: this run's own manifest folded
    /// through the watchtower against the default SLO, with EWMA bands
    /// seeded from the training holdout residuals. Deliberately ignores
    /// the on-disk ledger so the render stays a pure function of
    /// (workload, config) — `juggler health` is the history view.
    pub health: HealthReport,
    /// Host-side stage timings (never part of [`Self::render`]).
    pub timings: PipelineTimings,
}

/// Trains `workload`, validates the menu's predictions, and gathers the
/// full diagnostics bundle. The run records into a fresh registry that it
/// installs on the calling thread (and its training workers) for the
/// duration, so concurrent callers never share counters.
pub fn doctor(
    workload: &dyn Workload,
    config: &TrainingConfig,
) -> Result<DoctorReport, TrainingError> {
    let registry = Arc::new(obs::Registry::new());
    let _scope = registry.install();
    doctor_inner(workload, config, registry)
}

fn doctor_inner(
    workload: &dyn Workload,
    config: &TrainingConfig,
    registry: Arc<obs::Registry>,
) -> Result<DoctorReport, TrainingError> {
    let (trained, timings, diagnostics) = OfflineTraining::run_full(workload, config)?;

    let paper = workload.paper_params();
    let (e, f) = (paper.examples as f64, paper.features as f64);
    let menu = trained.recommend(e, f);

    // Validate each surviving option with one simulated run of the one
    // paper-scale app. Seeds are fixed per schedule index, so the ledger
    // is deterministic.
    let app = workload.build(&paper);
    let prep = Arc::new(EnginePrep::new(&app));
    let mut ledger = PredictionLedger::default();
    for opt in &menu.options {
        let mut sim = workload.sim_params();
        sim.seed = config.seed.wrapping_add(7000 + opt.schedule_index as u64);
        let cluster = ClusterConfig::new(opt.machines.max(1), config.target_spec);
        let report = Engine::with_prep(&app, cluster, sim, Arc::clone(&prep))
            .run_shared(&opt.schedule, RunOptions::default())?;
        registry
            .counter(
                "prediction_validations_total",
                "menu options validated against a simulated run",
            )
            .inc();
        ledger.push(LedgerEntry {
            workload: trained.workload.clone(),
            schedule_index: opt.schedule_index,
            examples: e,
            features: f,
            machines: opt.machines,
            predicted_time_s: opt.predicted_time_s,
            actual_time_s: report.total_time_s,
            predicted_size_bytes: opt.predicted_size_bytes,
            actual_peak_bytes: report.cache.peak_storage_bytes,
            report_digest: report.digest(),
        });
    }

    let mut report = DoctorReport {
        trained,
        diagnostics,
        menu,
        params: (e, f),
        ledger,
        snapshot: registry.snapshot(false),
        registry,
        health: Watchtower::default().fold(&[]),
        timings,
    };
    let manifest = RunManifest::from_doctor(&report, config, &paper);
    let seeds = residual_seeds(&report.diagnostics);
    report.health = Watchtower::default().fold_seeded(&[manifest], &seeds);
    Ok(report)
}

/// Training holdout residuals keyed by manifest model name — the EWMA
/// warm-start for the health baseline.
fn residual_seeds(diagnostics: &TrainingDiagnostics) -> Vec<ResidualSeed> {
    let mut seeds = Vec::new();
    for (i, fit) in diagnostics.time_fits.iter().enumerate() {
        seeds.push(ResidualSeed {
            model: format!("time [{i}]"),
            residuals_micro: fit.residual_micro_series(),
        });
    }
    for (dataset, fit) in &diagnostics.size_fits {
        seeds.push(ResidualSeed {
            model: format!("size {dataset}"),
            residuals_micro: fit.residual_micro_series(),
        });
    }
    seeds
}

/// `fraction` as a percentage with three significant figures (`4.56%`).
fn fmt_pct(fraction: f64) -> String {
    format!("{}%", obs::fmt_sig(fraction * 100.0, 3))
}

impl DoctorReport {
    /// Renders the human-readable diagnostics. Deterministic for a given
    /// (workload, config): every number flows through the shared `obs`
    /// formatters and no wall-clock value appears.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, s: String| out.push_str(&s);

        push(
            &mut out,
            format!("juggler doctor — {}\n", self.trained.workload),
        );

        // ── Hotspot decisions. ──
        let h = &self.diagnostics.hotspot;
        push(
            &mut out,
            format!(
                "\nhotspot detection: {} rounds, {} BCR evaluations, {} re-evaluations\n",
                h.rounds, h.bcr_evaluations, h.reevaluations
            ),
        );
        for d in &h.datasets {
            push(
                &mut out,
                format!(
                    "  {:<5} benefit {:>8}  size {:>8}  evals {}  {}\n",
                    d.dataset.to_string(),
                    obs::fmt_duration_s(d.benefit_s),
                    obs::fmt_bytes(d.size_bytes),
                    d.evaluations,
                    d.outcome.label()
                ),
            );
        }
        push(&mut out, "\nschedules\n".to_owned());
        for s in &h.schedules {
            push(
                &mut out,
                format!(
                    "  {} {:<24} benefit {:>8}  budget {:>8}\n",
                    if s.kept { "keep   " } else { "discard" },
                    s.notation,
                    obs::fmt_duration_s(s.benefit_s),
                    obs::fmt_bytes(s.budget_bytes)
                ),
            );
        }

        // ── Model quality. ──
        push(
            &mut out,
            "\nsize models (LOO-CV winner per dataset)\n".to_owned(),
        );
        for (dataset, report) in &self.diagnostics.size_fits {
            push(
                &mut out,
                format!(
                    "  {:<5} {}  cv {}\n",
                    dataset.to_string(),
                    report.winner.render(),
                    fmt_pct(report.cv_error)
                ),
            );
            for c in &report.candidates {
                push(
                    &mut out,
                    format!(
                        "        {} {:<14} cv {}\n",
                        if c.selected { "*" } else { " " },
                        c.spec.to_string(),
                        fmt_pct(c.cv_error)
                    ),
                );
            }
        }
        push(
            &mut out,
            "\ntime models (LOO-CV winner per schedule)\n".to_owned(),
        );
        for (i, report) in self.diagnostics.time_fits.iter().enumerate() {
            push(
                &mut out,
                format!(
                    "  [{}] {}  cv {}  max holdout {}\n",
                    i,
                    report.winner.render(),
                    fmt_pct(report.cv_error),
                    fmt_pct(report.max_residual())
                ),
            );
        }
        push(
            &mut out,
            format!(
                "\nmemory factor: {}\n",
                obs::fmt_sig(self.trained.memory_factor.factor, 3)
            ),
        );
        for n in &self.diagnostics.notes {
            push(&mut out, format!("note: {n}\n"));
        }

        // ── Predictions vs simulation. ──
        let (e, f) = self.params;
        push(
            &mut out,
            format!(
                "\npredictions at paper scale (e = {}, f = {})\n",
                obs::fmt_sig(e, 3),
                obs::fmt_sig(f, 3)
            ),
        );
        for entry in &self.ledger.entries {
            push(
                &mut out,
                format!(
                    "  [{}] {} machines  time {} predicted / {} simulated (err {})  size {} / peak {} (err {})\n",
                    entry.schedule_index,
                    entry.machines,
                    obs::fmt_duration_s(entry.predicted_time_s),
                    obs::fmt_duration_s(entry.actual_time_s),
                    fmt_pct(entry.time_rel_error()),
                    obs::fmt_bytes(entry.predicted_size_bytes),
                    obs::fmt_bytes(entry.actual_peak_bytes),
                    fmt_pct(entry.size_rel_error())
                ),
            );
        }
        if let (Some(mean_t), Some(max_t), Some(mean_s)) = (
            self.ledger.mean_time_rel_error(),
            self.ledger.max_time_rel_error(),
            self.ledger.mean_size_rel_error(),
        ) {
            push(
                &mut out,
                format!(
                    "  time error: mean {}, max {}   size error: mean {}\n",
                    fmt_pct(mean_t),
                    fmt_pct(max_t),
                    fmt_pct(mean_s)
                ),
            );
        }

        // ── Counters. ──
        push(&mut out, "\ncounters\n".to_owned());
        for m in &self.snapshot.metrics {
            if let obs::MetricValue::Counter(v) = m.value {
                push(&mut out, format!("  {:<36} {}\n", m.name, v));
            }
        }

        // ── Health baseline. ──
        push(
            &mut out,
            format!(
                "\nhealth (this run vs default SLO; `juggler health {}` folds history)\n",
                self.trained.workload
            ),
        );
        for m in &self.health.models {
            push(
                &mut out,
                format!("  {:<9} {}\n", m.name, m.verdict.detail()),
            );
        }
        push(
            &mut out,
            format!("  budget: {}\n", self.health.budget.verdict.detail()),
        );
        push(
            &mut out,
            format!("  verdict: {}\n", self.health.verdict.detail()),
        );
        out
    }
}
