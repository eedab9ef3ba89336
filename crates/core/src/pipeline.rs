//! The offline-training pipeline (paper Figure 8): four sequential stages
//! producing a serializable [`TrainedJuggler`] artifact, plus the §5.5
//! run-time recommendation flow.
//!
//! Stage costs are tracked in machine-minutes — the bookkeeping behind the
//! paper's Figure 16 (training-cost breakdown) and Table 5 (runs needed to
//! amortize training).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use cluster_sim::{
    ClusterConfig, Engine, EnginePrep, MachineSpec, RunOptions, RunReport, TraceConfig,
};
use dagflow::{Application, DagError, DatasetId};
use instrument::profile_run;
use workloads::{Workload, WorkloadParams};

use crate::diagnostics::TrainingDiagnostics;
use crate::hotspot::{detect_hotspots_audited, DatasetMetricsView, HotspotConfig, RankedSchedule};
use crate::memory_calibration::{MemoryCalibration, MemoryFactor};
use crate::parallel::{resolve_threads, try_run_indexed};
use crate::param_calibration::ParamCalibration;
use crate::recommend::{CostModel, MachineMinutes, Recommendation, RecommendationMenu};
use crate::time_model::TimeModel;

/// Attempts each training experiment gets before the pipeline reacts: the
/// single-run stages (1: hotspot, 3: memory calibration) fail after the
/// last attempt, while the grid stages (2: parameter calibration, 4:
/// execution-time models) skip the failing point with a note — losing one
/// of nine grid cells degrades the fit, it does not kill the training.
pub const TRAINING_RETRIES: u32 = 3;

/// Seed salt added per retry attempt. Far above every stage's seed-offset
/// space, so a retried run draws fresh noise, while attempt 0 keeps the
/// original seed — healthy workloads produce bit-identical artifacts to
/// the pre-retry pipeline.
const RETRY_SEED_SALT: u64 = 1 << 32;

/// Errors from the offline-training pipeline.
#[derive(Debug)]
pub enum TrainingError {
    /// A simulated run rejected its plan or schedule.
    Dag(DagError),
    /// A model-fitting stage failed (no samples / no candidates).
    Fit(modeling::FitError),
}

impl std::fmt::Display for TrainingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainingError::Dag(e) => write!(f, "plan error during training: {e}"),
            TrainingError::Fit(e) => write!(f, "model fitting failed: {e}"),
        }
    }
}

impl std::error::Error for TrainingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainingError::Dag(e) => Some(e),
            TrainingError::Fit(e) => Some(e),
        }
    }
}

impl From<DagError> for TrainingError {
    fn from(e: DagError) -> Self {
        TrainingError::Dag(e)
    }
}

impl From<modeling::FitError> for TrainingError {
    fn from(e: modeling::FitError) -> Self {
        TrainingError::Fit(e)
    }
}

/// Configuration of the offline training.
#[derive(Debug, Clone, Copy)]
pub struct TrainingConfig {
    /// The single node used for hotspot detection, parameter calibration
    /// and memory calibration (§7.1's Core i3).
    pub calibration_spec: MachineSpec,
    /// The machine type of the target cluster, used for execution-time
    /// model training and the Eq. 6 recommendation.
    pub target_spec: MachineSpec,
    /// Hotspot-detection tunables.
    pub hotspot: HotspotConfig,
    /// Cap on recommendable machine counts (the evaluation sweeps 1–12).
    pub max_machines: u32,
    /// RNG seed threaded into every simulated run.
    pub seed: u64,
    /// Worker threads for the independent training experiments. `0` means
    /// automatic: the `JUGGLER_THREADS` environment variable if set, else
    /// the machine's available parallelism. `1` forces the sequential
    /// path. Every run owns its seed, so the trained artifact is
    /// bit-identical at any setting.
    pub threads: usize,
    /// Structured-trace recording for the pipeline's single-run stages
    /// (the stage-3 memory-calibration run). Disabled by default; the
    /// trace never enters the serialized [`TrainedJuggler`], so artifacts
    /// stay bit-identical with or without it.
    pub trace: TraceConfig,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            calibration_spec: MachineSpec::calibration_node(),
            target_spec: MachineSpec::private_cluster(),
            hotspot: HotspotConfig::default(),
            max_machines: 12,
            seed: 0x5EED,
            threads: 0,
            trace: TraceConfig::default(),
        }
    }
}

/// Wall-clock timing of one offline-pipeline stage. Host timing only —
/// never part of the serialized artifact (it would break the bit-identical
/// determinism contract).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineStageTiming {
    /// Stage label (`"1: hotspot detection"`, …).
    pub stage: String,
    /// Host wall-clock seconds the stage took.
    pub wall_s: f64,
    /// Experiment runs the stage performed.
    pub runs: u32,
}

/// Per-stage wall-clock timings of one pipeline execution, plus
/// calibration notes (e.g. a clamped stage-3 scale target).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PipelineTimings {
    /// Stages in execution order.
    pub stages: Vec<PipelineStageTiming>,
    /// Non-fatal calibration anomalies, human-readable.
    pub notes: Vec<String>,
}

impl PipelineTimings {
    fn push(&mut self, stage: &str, started: std::time::Instant, runs: u32) {
        let wall_s = started.elapsed().as_secs_f64();
        if let Some(reg) = obs::Registry::current() {
            reg.counter(
                "pipeline_stage_runs_total",
                "experiment runs across pipeline stages",
            )
            .add(u64::from(runs));
            let idx = self.stages.len() + 1;
            reg.gauge(
                &format!("pipeline_stage{idx}_seconds"),
                "pipeline stage wall-clock seconds (host timing)",
                obs::MetricClass::Timing,
            )
            .set(wall_s);
        }
        self.stages.push(PipelineStageTiming {
            stage: stage.to_owned(),
            wall_s,
            runs,
        });
    }

    /// Total wall-clock seconds across recorded stages.
    #[must_use]
    pub fn total_wall_s(&self) -> f64 {
        self.stages.iter().map(|s| s.wall_s).sum()
    }

    /// Multi-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            out.push_str(&format!(
                "  stage {:<28} {:>9}  ({} runs)\n",
                s.stage,
                obs::fmt_duration_s(s.wall_s),
                s.runs
            ));
        }
        out.push_str(&format!(
            "  total {:>32}\n",
            obs::fmt_duration_s(self.total_wall_s())
        ));
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// Cost of one training stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// Number of experiment runs in the stage.
    pub runs: u32,
    /// Total cost in machine-minutes.
    pub machine_minutes: f64,
}

impl StageCost {
    fn add(&mut self, report: &RunReport) {
        self.runs += 1;
        self.machine_minutes += report.cost_machine_minutes();
    }

    /// Accumulates a run's cost from its machine-minutes alone (used when
    /// the report itself stays on a worker thread).
    fn add_cost(&mut self, machine_minutes: f64) {
        self.runs += 1;
        self.machine_minutes += machine_minutes;
    }
}

/// Per-stage training costs (Figure 16 / Table 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingCosts {
    /// Stage 1: the single instrumented sample run.
    pub hotspot: StageCost,
    /// Stage 2: the 3×3 full-factorial instrumented runs.
    pub param_calibration: StageCost,
    /// Stage 3: the single memory-calibration run.
    pub memory_calibration: StageCost,
    /// Stage 4: execution-time model training (9 runs per schedule).
    pub time_models: StageCost,
}

impl TrainingCosts {
    /// Optimization-stage cost (stages 1–3), machine-minutes.
    #[must_use]
    pub fn optimization_machine_minutes(&self) -> f64 {
        self.hotspot.machine_minutes
            + self.param_calibration.machine_minutes
            + self.memory_calibration.machine_minutes
    }

    /// Total training cost, machine-minutes.
    #[must_use]
    pub fn total_machine_minutes(&self) -> f64 {
        self.optimization_machine_minutes() + self.time_models.machine_minutes
    }
}

/// The trained artifact: everything the §5.5 flow needs, serializable so
/// one offline training serves arbitrarily many later runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedJuggler {
    /// Workload name (`LOR`, …).
    pub workload: String,
    /// The hotspot-detection schedules, in generation order.
    pub schedules: Vec<RankedSchedule>,
    /// Fitted dataset-size models.
    pub sizes: ParamCalibration,
    /// The calibrated memory factor.
    pub memory_factor: MemoryFactor,
    /// Per-schedule execution-time models (same order as `schedules`).
    pub time_models: Vec<TimeModel>,
    /// Machine type the recommendations target.
    pub target_spec: MachineSpec,
    /// Machine-count cap.
    pub max_machines: u32,
    /// Bookkeeping for Figure 16 / Table 5.
    pub costs: TrainingCosts,
}

impl TrainedJuggler {
    /// The §5.5 flow with the paper's machine-minutes pricing.
    #[must_use]
    pub fn recommend(&self, examples: f64, features: f64) -> RecommendationMenu {
        self.recommend_with(examples, features, &MachineMinutes)
    }

    /// The §5.5 flow under a custom pricing model.
    #[must_use]
    pub fn recommend_with(
        &self,
        examples: f64,
        features: f64,
        pricing: &dyn CostModel,
    ) -> RecommendationMenu {
        let _prof = obs::prof::scope("menu");
        let candidates: Vec<Recommendation> = self
            .schedules
            .iter()
            .enumerate()
            .map(|(i, rs)| {
                let size = self
                    .sizes
                    .predict_schedule_size(&rs.schedule, examples, features);
                let machines = self
                    .memory_factor
                    .recommend_machines(size, &self.target_spec)
                    .min(self.max_machines);
                let time = self.time_models[i].predict(examples, features);
                Recommendation {
                    schedule_index: i,
                    schedule: Arc::clone(&rs.schedule),
                    predicted_size_bytes: size,
                    machines,
                    predicted_time_s: time,
                    predicted_cost_machine_min: pricing.cost(machines, time),
                }
            })
            .collect();
        RecommendationMenu::from_candidates(candidates)
    }

    /// Recommended machine count for one schedule at `(e, f)` (Eq. 6).
    #[must_use]
    pub fn machines_for(&self, schedule_index: usize, examples: f64, features: f64) -> u32 {
        let size = self.sizes.predict_schedule_size(
            &self.schedules[schedule_index].schedule,
            examples,
            features,
        );
        self.memory_factor
            .recommend_machines(size, &self.target_spec)
            .min(self.max_machines)
    }

    /// The §6.2 cross-machine-type flow: the *optimization* models (sizes,
    /// memory factor, Eq. 6) are reused as-is with the new machine's
    /// memory; the *prediction* side goes through an optional
    /// [`crate::TransferModel`] bridging the base predictions to the new
    /// type (`None` falls back to the base model — correct only for
    /// machines similar to the training cluster).
    #[must_use]
    pub fn recommend_on(
        &self,
        examples: f64,
        features: f64,
        spec: &MachineSpec,
        transfer: Option<&crate::TransferModel>,
    ) -> RecommendationMenu {
        let candidates: Vec<Recommendation> = self
            .schedules
            .iter()
            .enumerate()
            .map(|(i, rs)| {
                let size = self
                    .sizes
                    .predict_schedule_size(&rs.schedule, examples, features);
                let machines = self
                    .memory_factor
                    .recommend_machines(size, spec)
                    .min(self.max_machines);
                let base = self.time_models[i].predict(examples, features);
                let time = transfer.map_or(base, |t| t.predict(base));
                Recommendation {
                    schedule_index: i,
                    schedule: Arc::clone(&rs.schedule),
                    predicted_size_bytes: size,
                    machines,
                    predicted_time_s: time,
                    predicted_cost_machine_min: MachineMinutes.cost(machines, time),
                }
            })
            .collect();
        RecommendationMenu::from_candidates(candidates)
    }

    /// Fits a §6.2 transfer model for a new machine type from a few probe
    /// runs: `runner(e, f, machines)` must execute the *first* schedule on
    /// the new type and return the measured seconds. Probe parameter
    /// points are chosen from `candidates` by spread-maximizing selection;
    /// `probes` runs are spent (CherryPick's point: a handful suffices).
    pub fn fit_transfer(
        &self,
        candidates: &[(f64, f64)],
        probes: usize,
        spec: &MachineSpec,
        mut runner: impl FnMut(f64, f64, u32) -> f64,
    ) -> crate::TransferModel {
        let base_preds: Vec<f64> = candidates
            .iter()
            .map(|&(e, f)| self.time_models[0].predict(e, f))
            .collect();
        let picks = crate::select_probes(&base_preds, probes.min(candidates.len()));
        let pairs: Vec<(f64, f64)> = picks
            .into_iter()
            .map(|i| {
                let (e, f) = candidates[i];
                let size = self
                    .sizes
                    .predict_schedule_size(&self.schedules[0].schedule, e, f);
                let machines = self
                    .memory_factor
                    .recommend_machines(size, spec)
                    .min(self.max_machines);
                (base_preds[i], runner(e, f, machines))
            })
            .collect();
        crate::TransferModel::fit(&pairs)
    }
}

/// Runs the four offline-training stages.
#[derive(Debug)]
pub struct OfflineTraining;

impl OfflineTraining {
    /// Trains Juggler for one workload. Deterministic for a given
    /// (workload, config).
    pub fn run(
        workload: &dyn Workload,
        config: &TrainingConfig,
    ) -> Result<TrainedJuggler, TrainingError> {
        Self::run_traced(workload, config).map(|(trained, _)| trained)
    }

    /// Like [`OfflineTraining::run`], also returning per-stage wall-clock
    /// timings and calibration notes. The timings are host-side
    /// observability only; the returned [`TrainedJuggler`] is byte-for-byte
    /// the one [`OfflineTraining::run`] produces.
    pub fn run_traced(
        workload: &dyn Workload,
        config: &TrainingConfig,
    ) -> Result<(TrainedJuggler, PipelineTimings), TrainingError> {
        Self::run_full(workload, config).map(|(trained, timings, _)| (trained, timings))
    }

    /// The full-evidence variant: [`OfflineTraining::run_traced`] plus the
    /// [`TrainingDiagnostics`] (hotspot decision trace, per-model fit
    /// reports) that `juggler doctor` renders. The trained artifact is
    /// byte-for-byte the one [`OfflineTraining::run`] produces.
    pub fn run_full(
        workload: &dyn Workload,
        config: &TrainingConfig,
    ) -> Result<(TrainedJuggler, PipelineTimings, TrainingDiagnostics), TrainingError> {
        let _prof = obs::prof::scope("training");
        let mut timings = PipelineTimings::default();
        let mut costs = TrainingCosts::default();
        let sim = |seed_off: u64| {
            let mut p = workload.sim_params();
            p.seed = config.seed.wrapping_add(seed_off);
            p
        };
        // Resolve the worker count once for the whole pipeline.
        // `resolve_threads` consults the `JUGGLER_THREADS` environment
        // variable; resolving per fan-out (worse: per `run_indexed` call)
        // re-reads the environment mid-training, so a variable change
        // while the pipeline runs would give different stages different
        // pools. One read, one answer, every stage.
        let threads = resolve_threads(config.threads);

        // ── Stage 1: hotspot detection (one instrumented sample run). ──
        let stage_prof = obs::prof::scope("stage1_hotspot");
        let clock = std::time::Instant::now();
        let sample = workload.sample_params();
        let sample_app = {
            let _plan = obs::prof::scope("plan");
            workload.build(&sample)
        };
        let calib_cluster = ClusterConfig::new(1, config.calibration_spec);
        let (out, attempt) = crate::parallel::with_retry(TRAINING_RETRIES, |attempt| {
            profile_run(
                &sample_app,
                sample_app.default_schedule(),
                calib_cluster,
                sim(1 + u64::from(attempt) * RETRY_SEED_SALT),
            )
        })?;
        if attempt > 0 {
            timings.notes.push(format!(
                "stage-1 sample run succeeded on attempt {}",
                attempt + 1
            ));
        }
        costs.hotspot.add(&out.report);
        let metrics = DatasetMetricsView::from_metrics(&out.metrics, sample_app.dataset_count());
        let (schedules, hotspot_audit) = {
            let _detect = obs::prof::scope("detect");
            detect_hotspots_audited(&sample_app, &metrics, &config.hotspot)
        };
        timings.push("1: hotspot detection", clock, costs.hotspot.runs);
        obs::log_info!(
            "stage 1 done: {} candidate schedules from the sample run",
            schedules.len()
        );
        drop(stage_prof);

        // ── Stage 2: parameter calibration (3×3 instrumented runs, one
        //    grid point per worker; each point owns its seed). ──
        let stage_prof = obs::prof::scope("stage2_calibration");
        let clock = std::time::Instant::now();
        let (e_axis, f_axis) = workload.training_axes();
        let grid = ParamCalibration::training_grid(&e_axis, &f_axis);
        let wanted: BTreeSet<DatasetId> =
            ParamCalibration::datasets_of(schedules.iter().map(|s| s.schedule.as_ref()));
        // One application per grid point, built up front and shared into
        // the fan-out: the DAG is a pure function of the parameters, so a
        // retry (or a worker) re-deriving it can only waste time, never
        // change a result.
        let plan_prof = obs::prof::scope("plan");
        let grid_apps: Vec<Arc<Application>> = grid
            .iter()
            .map(|&(e, f)| {
                let params = WorkloadParams::auto(e as u64, f as u64, sample.iterations);
                Arc::new(workload.build(&params))
            })
            .collect();
        drop(plan_prof);
        let grid_runs = crate::parallel::run_indexed(grid.len(), threads, |gi| {
            let app = &grid_apps[gi];
            let attempt_run = |attempt: u32| {
                profile_run(
                    app.as_ref(),
                    app.default_schedule(),
                    calib_cluster,
                    sim(2 + gi as u64 + u64::from(attempt) * RETRY_SEED_SALT),
                )
            };
            match crate::parallel::with_retry(TRAINING_RETRIES, attempt_run) {
                Ok((run, attempt)) => {
                    let sizes: Vec<(DatasetId, u64)> = run
                        .metrics
                        .iter()
                        .filter(|m| wanted.contains(&m.dataset))
                        .map(|m| (m.dataset, m.size_bytes))
                        .collect();
                    Ok((run.report.cost_machine_minutes(), sizes, attempt))
                }
                Err(e) => Err(e.to_string()),
            }
        });
        // Accumulate in grid order — identical at any thread count. A grid
        // point whose run died on every attempt is skipped with a note:
        // the size models fit on the surviving eight points.
        let mut observations: HashMap<DatasetId, Vec<(f64, f64, u64)>> = HashMap::new();
        for (outcome, &(e, f)) in grid_runs.iter().zip(&grid) {
            match outcome {
                Ok((machine_minutes, sizes, attempt)) => {
                    if *attempt > 0 {
                        timings.notes.push(format!(
                            "stage-2 run at (e={e:.0}, f={f:.0}) succeeded on attempt {}",
                            attempt + 1
                        ));
                    }
                    costs.param_calibration.add_cost(*machine_minutes);
                    for &(dataset, size_bytes) in sizes {
                        observations
                            .entry(dataset)
                            .or_default()
                            .push((e, f, size_bytes));
                    }
                }
                Err(msg) => {
                    obs::log_warn!(
                        "stage-2 grid point (e={e:.0}, f={f:.0}) skipped after \
                         {TRAINING_RETRIES} attempts: {msg}"
                    );
                    timings.notes.push(format!(
                        "stage-2 run at (e={e:.0}, f={f:.0}) failed after \
                         {TRAINING_RETRIES} attempts; grid point skipped: {msg}"
                    ));
                }
            }
        }
        let fit_prof = obs::prof::scope("fit_sizes");
        let (sizes, size_fits) = match ParamCalibration::fit_with_reports(&observations) {
            Ok(pair) => pair,
            Err(_) if observations.is_empty() => (ParamCalibration::default(), Vec::new()),
            Err(e) => return Err(e.into()),
        };
        drop(fit_prof);
        timings.push(
            "2: parameter calibration",
            clock,
            costs.param_calibration.runs,
        );
        obs::log_info!(
            "stage 2 done: {} calibration runs, {} dataset size models",
            costs.param_calibration.runs,
            size_fits.len()
        );
        drop(stage_prof);

        // ── Stage 3: memory calibration (one run filling M). ──
        let stage_prof = obs::prof::scope("stage3_memory");
        let clock = std::time::Instant::now();
        let memory_factor = if let Some(first) = schedules.first() {
            let m_bytes = config.calibration_spec.unified_memory() as f64;
            let (e0, f0) = (
                *e_axis.last().expect("axes non-empty"),
                *f_axis.last().expect("axes non-empty"),
            );
            let scaled = MemoryCalibration::scale_params_to_target(e0, f0, m_bytes, |e, f| {
                sizes.predict_schedule_size(&first.schedule, e, f) as f64
            });
            if let Some(note) = scaled.outcome.note(m_bytes) {
                timings.notes.push(note);
            }
            let params = WorkloadParams::auto(scaled.e as u64, scaled.f as u64, sample.iterations);
            // Plan the app once; retries only need a fresh seed, not a
            // fresh `EnginePrep`.
            let plan_prof = obs::prof::scope("plan");
            let app = workload.build(&params);
            let prep = Arc::new(EnginePrep::new(&app));
            drop(plan_prof);
            let (report, attempt) = crate::parallel::with_retry(TRAINING_RETRIES, |attempt| {
                let engine = Engine::with_prep(
                    &app,
                    calib_cluster,
                    sim(20 + u64::from(attempt) * RETRY_SEED_SALT),
                    Arc::clone(&prep),
                );
                engine.run_shared(
                    &first.schedule,
                    RunOptions {
                        trace: config.trace,
                        ..RunOptions::default()
                    },
                )
            })?;
            if attempt > 0 {
                timings.notes.push(format!(
                    "stage-3 memory-calibration run succeeded on attempt {}",
                    attempt + 1
                ));
            }
            costs.memory_calibration.add(&report);
            if let Some(trace) = &report.trace {
                timings.notes.push(format!("stage-3 {}", trace.summary()));
            }
            MemoryFactor::from_run(&app, &first.schedule, &report)
        } else {
            MemoryFactor { factor: 1.0 }
        };
        timings.push(
            "3: memory calibration",
            clock,
            costs.memory_calibration.runs,
        );
        obs::log_info!("stage 3 done: memory factor {:.3}", memory_factor.factor);
        drop(stage_prof);

        // ── Stage 4: execution-time models (9 runs per schedule on the
        //    recommended configuration, full iteration counts). The
        //    (schedule × grid-point) matrix is flattened onto the worker
        //    pool; the seed offset `40 + k` matches the sequential loop. ──
        let stage_prof = obs::prof::scope("stage4_time_models");
        let clock = std::time::Instant::now();
        let paper = workload.paper_params();
        let cells = schedules.len() * grid.len();
        // The cell application depends only on the grid point — every
        // schedule (and every retry attempt) of the same `(e, f)` runs the
        // same DAG. Build it once per grid point, plan it once
        // (`EnginePrep`), and share both into the fan-out: per cell only
        // the cheap `Engine::with_prep` handle remains. Clusters still
        // differ per cell (the recommended machine count depends on the
        // schedule), which `with_prep` is built for.
        let plan_prof = obs::prof::scope("plan");
        let cell_shared: Vec<(Arc<Application>, Arc<EnginePrep>)> = grid
            .iter()
            .map(|&(e, f)| {
                let params = WorkloadParams::auto(e as u64, f as u64, paper.iterations);
                let app = Arc::new(workload.build(&params));
                let prep = Arc::new(EnginePrep::new(&app));
                (app, prep)
            })
            .collect();
        drop(plan_prof);
        let matrix = crate::parallel::run_indexed(cells, threads, |k| {
            let (si, gi) = (k / grid.len(), k % grid.len());
            let rs = &schedules[si];
            let (e, f) = grid[gi];
            let size = sizes.predict_schedule_size(&rs.schedule, e, f);
            let machines = memory_factor
                .recommend_machines(size, &config.target_spec)
                .min(config.max_machines);
            let cluster = ClusterConfig::new(machines, config.target_spec);
            let (app, prep) = &cell_shared[gi];
            let attempt_run = |attempt: u32| {
                let engine = Engine::with_prep(
                    app.as_ref(),
                    cluster,
                    sim(40 + k as u64 + u64::from(attempt) * RETRY_SEED_SALT),
                    Arc::clone(prep),
                );
                engine.run_shared(&rs.schedule, RunOptions::default())
            };
            match crate::parallel::with_retry(TRAINING_RETRIES, attempt_run) {
                Ok((report, attempt)) => Ok((
                    report.cost_machine_minutes(),
                    (e, f, report.total_time_s),
                    attempt,
                )),
                Err(e) => Err(e.to_string()),
            }
        });
        let mut time_models = Vec::with_capacity(schedules.len());
        let mut time_fits = Vec::with_capacity(schedules.len());
        for si in 0..schedules.len() {
            let row = &matrix[si * grid.len()..(si + 1) * grid.len()];
            let mut points = Vec::with_capacity(grid.len());
            for (ci, cell) in row.iter().enumerate() {
                let (e, f) = grid[ci];
                match cell {
                    Ok((machine_minutes, point, attempt)) => {
                        if *attempt > 0 {
                            timings.notes.push(format!(
                                "stage-4 run (schedule {si}, e={e:.0}, f={f:.0}) \
                                 succeeded on attempt {}",
                                attempt + 1
                            ));
                        }
                        costs.time_models.add_cost(*machine_minutes);
                        points.push(*point);
                    }
                    // A cell whose run died on every attempt loses one of
                    // the schedule's nine fit points; the model fits on
                    // the rest (and fitting fails loudly if none survive).
                    Err(msg) => {
                        obs::log_warn!(
                            "stage-4 cell (schedule {si}, e={e:.0}, f={f:.0}) skipped \
                             after {TRAINING_RETRIES} attempts: {msg}"
                        );
                        timings.notes.push(format!(
                            "stage-4 run (schedule {si}, e={e:.0}, f={f:.0}) failed after \
                             {TRAINING_RETRIES} attempts; point skipped: {msg}"
                        ));
                    }
                }
            }
            let fit_prof = obs::prof::scope("fit_times");
            let (model, report) = TimeModel::fit_with_report(si, &points)?;
            drop(fit_prof);
            time_models.push(model);
            time_fits.push(report);
        }
        timings.push("4: execution-time models", clock, costs.time_models.runs);
        obs::log_info!(
            "stage 4 done: {} matrix runs, {} time models",
            costs.time_models.runs,
            time_models.len()
        );
        drop(stage_prof);

        if let Some(reg) = obs::Registry::current() {
            reg.counter("pipeline_trainings_total", "offline trainings completed")
                .inc();
        }

        let diagnostics = TrainingDiagnostics {
            hotspot: hotspot_audit,
            size_fits,
            time_fits,
            notes: timings.notes.clone(),
        };
        Ok((
            TrainedJuggler {
                workload: workload.name().to_owned(),
                schedules,
                sizes,
                memory_factor,
                time_models,
                target_spec: config.target_spec,
                max_machines: config.max_machines,
                costs,
            },
            timings,
            diagnostics,
        ))
    }
}

impl OfflineTraining {
    /// §6.1 extension: fits iteration-aware execution-time models by
    /// adding an iterations axis to the stage-4 experiments — "another
    /// (linear) execution time model can be extracted … by carrying out
    /// additional experiments". Returns one model per schedule, aligned
    /// with `trained.schedules`.
    pub fn fit_iteration_models(
        workload: &dyn Workload,
        config: &TrainingConfig,
        trained: &TrainedJuggler,
        iteration_axis: &[u32],
    ) -> Result<Vec<TimeModel>, TrainingError> {
        assert!(
            !iteration_axis.is_empty(),
            "need at least one iteration level"
        );
        let (e_axis, f_axis) = workload.training_axes();
        let grid = ParamCalibration::training_grid(&e_axis, &f_axis);
        // Flatten the (schedule × grid × iterations) cube onto the worker
        // pool; the seed offset `900 + k` matches the sequential loop.
        let per_schedule = grid.len() * iteration_axis.len();
        let cells = trained.schedules.len() * per_schedule;
        // As in stage 4: the application depends only on `(e, f, iters)`,
        // never on the schedule, so one app + prep per (grid point,
        // iteration level) is shared across every schedule's cells.
        let cube_shared: Vec<(Arc<Application>, Arc<EnginePrep>)> = grid
            .iter()
            .flat_map(|&(e, f)| iteration_axis.iter().map(move |&iters| (e, f, iters)))
            .map(|(e, f, iters)| {
                let params = WorkloadParams::auto(e as u64, f as u64, iters);
                let app = Arc::new(workload.build(&params));
                let prep = Arc::new(EnginePrep::new(&app));
                (app, prep)
            })
            .collect();
        let threads = resolve_threads(config.threads);
        let runs = try_run_indexed::<_, TrainingError, _>(cells, threads, |k| {
            let si = k / per_schedule;
            let (gi, ii) = (
                (k % per_schedule) / iteration_axis.len(),
                k % iteration_axis.len(),
            );
            let rs = &trained.schedules[si];
            let (e, f) = grid[gi];
            let iters = iteration_axis[ii];
            let size = trained.sizes.predict_schedule_size(&rs.schedule, e, f);
            let machines = trained
                .memory_factor
                .recommend_machines(size, &config.target_spec)
                .min(config.max_machines);
            let mut sim = workload.sim_params();
            sim.seed = config.seed.wrapping_add(900 + k as u64);
            let cluster = ClusterConfig::new(machines, config.target_spec);
            let (app, prep) = &cube_shared[gi * iteration_axis.len() + ii];
            let report = Engine::with_prep(app.as_ref(), cluster, sim, Arc::clone(prep))
                .run_shared(&rs.schedule, RunOptions::default())
                .map_err(TrainingError::from)?;
            Ok((e, f, f64::from(iters), report.total_time_s))
        })?;
        let mut models = Vec::with_capacity(trained.schedules.len());
        for (si, points) in runs.chunks(per_schedule).enumerate() {
            models.push(TimeModel::fit_with_iterations(si, points)?);
        }
        Ok(models)
    }
}
