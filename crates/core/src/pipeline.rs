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

use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions, RunReport, SimParams};
use dagflow::{DagError, DatasetId, Schedule};
use instrument::{profile_run, profile_sizes};
use workloads::{Workload, WorkloadParams};

use crate::diagnostics::TrainingDiagnostics;
use crate::hotspot::{detect_hotspots_audited, DatasetMetricsView, HotspotConfig, RankedSchedule};
use crate::memory_calibration::{MemoryCalibration, MemoryFactor};
use crate::parallel::{resolve_threads, run_indexed, try_run_indexed, GridPlan};
use crate::param_calibration::ParamCalibration;
use crate::recommend::{CostModel, MachineMinutes, Recommendation, RecommendationMenu};
use crate::time_model::TimeModel;

/// Errors from the offline-training pipeline. A simulated run fails only
/// when its schedule does not fit its application, which no seed changes,
/// so no experiment is retried: the single-run stages (1: hotspot, 3:
/// memory calibration) return the error, while the grid stages (2:
/// parameter calibration, 4: execution-time models) skip the failing
/// point with a note — losing one of nine grid cells degrades the fit, it
/// does not kill the training.
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
    /// Record a structured trace of the pipeline's single-run stages
    /// (the stage-3 memory-calibration run). Off by default; the
    /// trace never enters the serialized [`TrainedJuggler`], so artifacts
    /// stay bit-identical with or without it.
    pub trace: bool,
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
            trace: false,
        }
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
        self.menu(examples, features, &self.target_spec, None, pricing)
    }

    /// Recommended machine count for one schedule at `(e, f)` (Eq. 6).
    #[must_use]
    pub fn machines_for(&self, schedule_index: usize, examples: f64, features: f64) -> u32 {
        let schedule = &self.schedules[schedule_index].schedule;
        let (_, machines) = self.eq6(schedule, (examples, features), &self.target_spec);
        machines
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
        self.menu(examples, features, spec, transfer, &MachineMinutes)
    }

    /// One candidate per schedule at `(e, f)` on `spec`: Eq. 6's machine
    /// count, the time model's prediction (bridged by `transfer` if any)
    /// and its price.
    fn menu(
        &self,
        examples: f64,
        features: f64,
        spec: &MachineSpec,
        transfer: Option<&crate::TransferModel>,
        pricing: &dyn CostModel,
    ) -> RecommendationMenu {
        let candidates: Vec<Recommendation> = self
            .schedules
            .iter()
            .enumerate()
            .map(|(i, rs)| {
                let (size, machines) = self.eq6(&rs.schedule, (examples, features), spec);
                let base = self.time_models[i].predict(examples, features);
                let time = transfer.map_or(base, |t| t.predict(base));
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

    /// [`eq6`] with this artifact's models and machine cap.
    fn eq6(&self, schedule: &Schedule, point: (f64, f64), spec: &MachineSpec) -> (u64, u32) {
        eq6(
            &self.sizes,
            &self.memory_factor,
            schedule,
            point,
            spec,
            self.max_machines,
        )
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
                let (_, machines) = self.eq6(&self.schedules[0].schedule, (e, f), spec);
                (base_preds[i], runner(e, f, machines))
            })
            .collect();
        crate::TransferModel::fit(&pairs)
    }
}

/// Eq. 6: the predicted size of `schedule` at `(e, f)` and the number of
/// `spec` machines whose caching memory holds it, capped at
/// `max_machines`.
fn eq6(
    sizes: &ParamCalibration,
    memory_factor: &MemoryFactor,
    schedule: &Schedule,
    (e, f): (f64, f64),
    spec: &MachineSpec,
    max_machines: u32,
) -> (u64, u32) {
    let size = sizes.predict_schedule_size(schedule, e, f);
    let machines = memory_factor.recommend_machines(size, spec);
    (size, machines.min(max_machines))
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

    /// Like [`OfflineTraining::run`], also returning the
    /// [`TrainingDiagnostics`] (hotspot decision trace, per-model fit
    /// reports, calibration notes) that `juggler doctor` renders. The
    /// trained artifact is byte-for-byte the one [`OfflineTraining::run`]
    /// produces. Host wall-clock per stage is the phase profile's
    /// (`obs::prof`, shown by `juggler profile`).
    pub fn run_traced(
        workload: &dyn Workload,
        config: &TrainingConfig,
    ) -> Result<(TrainedJuggler, TrainingDiagnostics), TrainingError> {
        let _prof = obs::prof::scope("training");
        let mut notes = Vec::new();
        let mut costs = TrainingCosts::default();
        let sim = |seed_off: u64| seeded(workload, config, seed_off);
        // Resolve the worker count once for the whole pipeline.
        // `resolve_threads` consults the `JUGGLER_THREADS` environment
        // variable; resolving per fan-out (worse: per `run_indexed` call)
        // re-reads the environment mid-training, so a variable change
        // while the pipeline runs would give different stages different
        // pools. One read, one answer, every stage.
        let threads = resolve_threads(config.threads);

        // ── Stage 1: hotspot detection (one instrumented sample run). ──
        let stage_prof = obs::prof::scope("stage1_hotspot");
        let sample = workload.sample_params();
        let sample_app = {
            let _plan = obs::prof::scope("plan");
            workload.build(&sample)
        };
        let calib_cluster = ClusterConfig::new(1, config.calibration_spec);
        let out = profile_run(
            &sample_app,
            sample_app.default_schedule(),
            calib_cluster,
            sim(1),
        )?;
        costs.hotspot.add(&out.report);
        let metrics = DatasetMetricsView::from_metrics(&out.metrics, sample_app.dataset_count());
        let (schedules, hotspot_audit) = {
            let _detect = obs::prof::scope("detect");
            detect_hotspots_audited(&sample_app, &metrics, &config.hotspot)
        };
        obs::log_info!(
            "stage 1 done: {} candidate schedules from the sample run",
            schedules.len()
        );
        drop(stage_prof);

        // ── Stage 2: parameter calibration (3×3 instrumented runs, one
        //    grid point per worker; each point owns its seed). ──
        let stage_prof = obs::prof::scope("stage2_calibration");
        let (e_axis, f_axis) = workload.training_axes();
        let grid = ParamCalibration::training_grid(&e_axis, &f_axis);
        let wanted: BTreeSet<DatasetId> =
            ParamCalibration::datasets_of(schedules.iter().map(|s| s.schedule.as_ref()));
        // One application per grid point, sized against the sample app's
        // lineage (the grid runs at the sample's iteration count) and
        // shared into the fan-out. Stage 1's inject of that lineage and
        // its prep serve every point of it (all nine, in every paper
        // family): each point runs the instrumented plan with its own
        // sizes. Only the sizes of the schedules' datasets are fitted, so
        // the runs record nothing else.
        let grid_plan = GridPlan::build(
            workload,
            Some((&sample_app, sample)),
            grid.iter()
                .map(|&(e, f)| WorkloadParams::auto(e as u64, f as u64, sample.iterations)),
        );
        grid_plan.give_instrumented(out.instrumented, out.prep);
        let grid_runs = run_indexed(grid.len(), threads, |gi| {
            let (instrumented, app, prep) = {
                let _plan = obs::prof::scope("plan");
                let (instrumented, app) = grid_plan.instrumented(gi);
                let prep = grid_plan.prep(gi, &app);
                (instrumented, app, prep)
            };
            let engine = Engine::with_prep(&app, calib_cluster, sim(2 + gi as u64), prep);
            let schedule = grid_plan.app(gi).default_schedule();
            profile_sizes(&engine, instrumented, schedule, &wanted)
                .map(|(report, sizes)| (report.cost_machine_minutes(), sizes))
        });
        // The grid's apps and instrumented prep are done with: free them
        // before the later stages build theirs.
        drop(grid_plan);
        // Accumulate in grid order — identical at any thread count. A grid
        // point whose run was rejected is skipped with a note: the size
        // models fit on the surviving eight points.
        let mut observations: HashMap<DatasetId, Vec<(f64, f64, u64)>> = HashMap::new();
        for (outcome, &(e, f)) in grid_runs.iter().zip(&grid) {
            match outcome {
                Ok((machine_minutes, sizes)) => {
                    costs.param_calibration.add_cost(*machine_minutes);
                    for &(dataset, size_bytes) in sizes {
                        observations
                            .entry(dataset)
                            .or_default()
                            .push((e, f, size_bytes));
                    }
                }
                Err(err) => {
                    obs::log_warn!("stage-2 grid point (e={e:.0}, f={f:.0}) skipped: {err}");
                    notes.push(format!(
                        "stage-2 run at (e={e:.0}, f={f:.0}) failed; grid point skipped: {err}"
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
        obs::log_info!(
            "stage 2 done: {} calibration runs, {} dataset size models",
            costs.param_calibration.runs,
            size_fits.len()
        );
        drop(stage_prof);

        // ── Stage 3: memory calibration (one run filling M). ──
        let stage_prof = obs::prof::scope("stage3_memory");
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
                notes.push(note);
            }
            let params = WorkloadParams::auto(scaled.e as u64, scaled.f as u64, sample.iterations);
            let plan = GridPlan::build(
                workload,
                Some((&sample_app, sample)),
                std::iter::once(params),
            );
            let report = plan.engine(0, calib_cluster, sim(20)).run_shared(
                &first.schedule,
                RunOptions {
                    trace: config.trace,
                    ..RunOptions::default()
                },
            )?;
            costs.memory_calibration.add(&report);
            if let Some(trace) = &report.trace {
                notes.push(format!("stage-3 {}", trace.summary()));
            }
            MemoryFactor::from_run(plan.app(0), &first.schedule, &report)
        } else {
            MemoryFactor { factor: 1.0 }
        };
        obs::log_info!("stage 3 done: memory factor {:.3}", memory_factor.factor);
        drop(stage_prof);

        // ── Stage 4: execution-time models (9 runs per schedule on the
        //    recommended configuration, full iteration counts). The
        //    (schedule × grid-point) matrix is flattened onto the worker
        //    pool; the seed offset `40 + k` matches the sequential loop. ──
        let stage_prof = obs::prof::scope("stage4_time_models");
        let paper = workload.paper_params();
        let cells = schedules.len() * grid.len();
        // The cell application depends only on the grid point — every
        // schedule of the same `(e, f)` runs the same DAG. Build it once per
        // grid point and share it into the fan-out; the nine grid points
        // differ only in sizes, so the first is built afresh, the other
        // eight are sized against it and all share one prep, and per cell
        // only the cheap engine handle remains. Clusters still differ per
        // cell (the recommended machine count depends on the schedule).
        let cell_plan = GridPlan::build(
            workload,
            None,
            grid.iter()
                .map(|&(e, f)| WorkloadParams::auto(e as u64, f as u64, paper.iterations)),
        );
        let matrix = run_indexed(cells, threads, |k| {
            let (si, gi) = (k / grid.len(), k % grid.len());
            let schedule = &schedules[si].schedule;
            let cluster = recommended_cluster(config, &sizes, &memory_factor, schedule, grid[gi]);
            cell_plan
                .engine(gi, cluster, sim(40 + k as u64))
                .run_shared(schedule, RunOptions::default())
                .map(|report| (report.cost_machine_minutes(), report.total_time_s))
        });
        let mut time_models = Vec::with_capacity(schedules.len());
        let mut time_fits = Vec::with_capacity(schedules.len());
        for si in 0..schedules.len() {
            let row = &matrix[si * grid.len()..(si + 1) * grid.len()];
            let mut points = Vec::with_capacity(grid.len());
            for (ci, cell) in row.iter().enumerate() {
                let (e, f) = grid[ci];
                match cell {
                    Ok((machine_minutes, time_s)) => {
                        costs.time_models.add_cost(*machine_minutes);
                        points.push((e, f, *time_s));
                    }
                    // A rejected cell loses one of the schedule's nine fit
                    // points; the model fits on the rest (and fitting fails
                    // loudly if none survive).
                    Err(err) => {
                        obs::log_warn!(
                            "stage-4 cell (schedule {si}, e={e:.0}, f={f:.0}) skipped: {err}"
                        );
                        notes.push(format!(
                            "stage-4 run (schedule {si}, e={e:.0}, f={f:.0}) failed; \
                             point skipped: {err}"
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
        obs::log_info!(
            "stage 4 done: {} matrix runs, {} time models",
            costs.time_models.runs,
            time_models.len()
        );
        drop(stage_prof);

        if let Some(reg) = obs::Registry::current() {
            let stages = [
                costs.hotspot,
                costs.param_calibration,
                costs.memory_calibration,
                costs.time_models,
            ];
            reg.counter(
                "pipeline_stage_runs_total",
                "experiment runs across pipeline stages",
            )
            .add(stages.iter().map(|s| u64::from(s.runs)).sum());
            reg.counter("pipeline_trainings_total", "offline trainings completed")
                .inc();
        }

        let diagnostics = TrainingDiagnostics {
            hotspot: hotspot_audit,
            size_fits,
            time_fits,
            notes,
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
            diagnostics,
        ))
    }
}

/// The workload's simulation parameters, seeded `offset` past the
/// training seed: every experiment of a training owns one offset.
fn seeded(workload: &dyn Workload, config: &TrainingConfig, offset: u64) -> SimParams {
    let mut p = workload.sim_params();
    p.seed = config.seed.wrapping_add(offset);
    p
}

/// The target cluster a stage-4 or §6.1 cell runs `schedule` on at
/// `(e, f)`: as many target machines as Eq. 6 recommends, capped.
fn recommended_cluster(
    config: &TrainingConfig,
    sizes: &ParamCalibration,
    memory_factor: &MemoryFactor,
    schedule: &Schedule,
    point: (f64, f64),
) -> ClusterConfig {
    let spec = config.target_spec;
    let (_, machines) = eq6(
        sizes,
        memory_factor,
        schedule,
        point,
        &spec,
        config.max_machines,
    );
    ClusterConfig::new(machines, spec)
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
        let levels = iteration_axis.len();
        let per_schedule = grid.len() * levels;
        let cells = trained.schedules.len() * per_schedule;
        // As in stage 4: the application depends only on `(e, f, iters)`,
        // never on the schedule, so one app per (grid point, iteration
        // level) is shared across every schedule's cells. The first point
        // of each iteration level is a lineage, the level's other points
        // are sized against it, and each level shares one prep.
        let cube_plan = GridPlan::build(
            workload,
            None,
            (0..per_schedule).map(|j| {
                let (e, f) = grid[j / levels];
                WorkloadParams::auto(e as u64, f as u64, iteration_axis[j % levels])
            }),
        );
        let threads = resolve_threads(config.threads);
        let runs = try_run_indexed(cells, threads, |k| {
            let (si, j) = (k / per_schedule, k % per_schedule);
            let schedule = &trained.schedules[si].schedule;
            let (e, f) = grid[j / levels];
            let cluster = recommended_cluster(
                config,
                &trained.sizes,
                &trained.memory_factor,
                schedule,
                (e, f),
            );
            let iters = f64::from(iteration_axis[j % levels]);
            cube_plan
                .engine(j, cluster, seeded(workload, config, 900 + k as u64))
                .run_shared(schedule, RunOptions::default())
                .map(|report| (e, f, iters, report.total_time_s))
        })?;
        let mut models = Vec::with_capacity(trained.schedules.len());
        for (si, points) in runs.chunks(per_schedule).enumerate() {
            models.push(TimeModel::fit_with_iterations(si, points)?);
        }
        Ok(models)
    }
}
