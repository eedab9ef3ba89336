//! `train_paper`: an op trains one family with `OfflineTraining::run` and
//! asks the artifact for its recommendation menu at the Table-1
//! parameters. Families go round-robin (LIR, LOR, PCA, RFC, SVM), each with
//! `SEEDS_PER_FAMILY` training seeds drawn from the workload seed.
//!
//! The traced op replays the same four pipeline stages through the layers'
//! public functions, with the pipeline's seed offsets, and wraps each call
//! in a span. The replay must rebuild the pipeline's artifact bit for bit,
//! and its per-stage simulated-run counts must match the `sim` call counts
//! of the pipeline's own `obs::prof` tree; otherwise the run fails.

use std::collections::HashMap;
use std::sync::Arc;

use cluster_sim::{ClusterConfig, Engine, EnginePrep, RunOptions, RunReport, SimParams};
use dagflow::{Application, DatasetId};
use instrument::{derive_metrics, inject, DatasetMetrics, ProfilingDatabase, ProfilingOverhead};
use juggler::pipeline::{OfflineTraining, TrainedJuggler, TrainingConfig, TrainingCosts};
use juggler::{
    detect_hotspots_audited, DatasetMetricsView, MemoryCalibration, MemoryFactor, ParamCalibration,
    RecommendationMenu, TimeModel,
};
use workloads::{Workload, WorkloadParams};

use crate::trace::Tracer;
use crate::{mix, record_run, Bench, OpError};

/// Training seeds per family in one run; more seeds average the op mix.
const SEEDS_PER_FAMILY: usize = 4;

/// Simulated runs per pipeline stage (hotspot, calibration, memory, time
/// models).
type StageRuns = [u64; 4];

/// The training configuration of one op: one thread, the given seed.
pub fn config(seed: u64) -> TrainingConfig {
    TrainingConfig {
        threads: 1,
        seed,
        ..TrainingConfig::default()
    }
}

/// The training seed of family `family`, seed slot `slot`.
pub fn family_seed(seed: u64, family: usize, slot: usize) -> u64 {
    mix(seed, (family * 1000 + slot) as u64)
}

/// What an op must reproduce: the artifact's JSON and the menu digest.
#[derive(Clone, PartialEq)]
struct Reference {
    artifact: String,
    menu: String,
}

pub struct TrainPaper {
    families: Vec<Box<dyn Workload>>,
    /// `(family, training seed)` in op order.
    inputs: Vec<(usize, u64)>,
    refs: Vec<Reference>,
    /// The artifact the last untraced op produced, for the replay check.
    last_untraced: Option<(usize, String)>,
    /// Replay run counts per input, once its replay was checked.
    replayed: Vec<Option<StageRuns>>,
}

fn menu_digest(menu: &RecommendationMenu) -> String {
    menu.options
        .iter()
        .map(|o| {
            format!(
                "{}:{}:{:x}:{:x}:{};",
                o.schedule_index,
                o.machines,
                o.predicted_time_s.to_bits(),
                o.predicted_cost_machine_min.to_bits(),
                o.predicted_size_bytes
            )
        })
        .collect()
}

fn artifact_json(trained: &TrainedJuggler) -> String {
    serde_json::to_string(trained).expect("TrainedJuggler serializes")
}

fn paper_point(w: &dyn Workload) -> (f64, f64) {
    let paper = w.paper_params();
    (paper.examples as f64, paper.features as f64)
}

impl TrainPaper {
    fn input(&self, k: usize) -> usize {
        k % self.inputs.len()
    }

    /// The untraced op body: the program's own pipeline and menu.
    fn train(&self, i: usize) -> Result<Reference, String> {
        let (family, seed) = self.inputs[i];
        let w = self.families[family].as_ref();
        let trained = OfflineTraining::run(w, &config(seed)).map_err(|e| e.to_string())?;
        let (e, f) = paper_point(w);
        let menu = trained.recommend(e, f);
        Ok(Reference {
            artifact: artifact_json(&trained),
            menu: menu_digest(&menu),
        })
    }

    fn check(&self, i: usize, got: &Reference) -> Result<(), String> {
        if *got != self.refs[i] {
            return Err(format!(
                "{} seed {:#x}: artifact or menu differs from the warm-up",
                self.families[self.inputs[i].0].name(),
                self.inputs[i].1
            ));
        }
        Ok(())
    }

    /// Replays input `i`, checks it against `expected` (the pipeline's
    /// artifact for the same input) and records its stage run counts.
    fn replay_checked(
        &mut self,
        i: usize,
        expected: &str,
        t: &mut Tracer,
    ) -> Result<Reference, String> {
        let (family, seed) = self.inputs[i];
        let w = self.families[family].as_ref();
        let (trained, menu, runs) = replay(w, &config(seed), t)?;
        let got = Reference {
            artifact: artifact_json(&trained),
            menu: menu_digest(&menu),
        };
        if got.artifact != expected {
            return Err(format!(
                "replay of {} seed {seed:#x} does not reproduce OfflineTraining::run",
                w.name()
            ));
        }
        self.replayed[i] = Some(runs);
        Ok(got)
    }
}

impl Bench for TrainPaper {
    fn setup(seed: u64, _t: &mut Tracer) -> Result<Self, String> {
        let families = workloads::all_workloads();
        let mut inputs = Vec::new();
        for slot in 0..SEEDS_PER_FAMILY {
            for family in 0..families.len() {
                inputs.push((family, family_seed(seed, family, slot)));
            }
        }
        let mut bench = TrainPaper {
            replayed: vec![None; inputs.len()],
            families,
            inputs,
            refs: Vec::new(),
            last_untraced: None,
        };
        // Warm-up: every input once; its outputs are the references.
        for i in 0..bench.inputs.len() {
            let r = bench.train(i)?;
            bench.refs.push(r);
        }
        Ok(bench)
    }

    fn reference(&self) -> String {
        let all: String = self
            .refs
            .iter()
            .map(|r| format!("{}{}", r.artifact, r.menu))
            .collect();
        obs::sha256_hex(all.as_bytes())
    }

    fn op(&mut self, k: usize) -> Result<(), OpError> {
        let i = self.input(k);
        let got = self.train(i)?;
        let checked = self.check(i, &got);
        self.last_untraced = Some((i, got.artifact));
        Ok(checked?)
    }

    fn traced_op(&mut self, k: usize, t: &mut Tracer) -> Result<(), OpError> {
        let i = self.input(k);
        // The paired untraced op trained the same input just before; a
        // replay that differs from it stops the run.
        let expected = match &self.last_untraced {
            Some((j, artifact)) if *j == i => artifact.clone(),
            _ => {
                return Err(OpError::Fatal(
                    "traced op without its untraced pair".to_owned(),
                ))
            }
        };
        let got = self
            .replay_checked(i, &expected, t)
            .map_err(OpError::Fatal)?;
        Ok(self.check(i, &got)?)
    }

    fn after_trace(&mut self) -> Result<Vec<String>, String> {
        // Every family and seed must have a checked replay, and the
        // replay's per-stage run counts must equal the `sim` calls the
        // pipeline's own profile tree records under each stage.
        let mut quiet = Tracer::off();
        let mut notes = Vec::new();
        for i in 0..self.inputs.len() {
            let (family, seed) = self.inputs[i];
            if self.replayed[i].is_none() {
                let w = self.families[family].as_ref();
                let trained = OfflineTraining::run(w, &config(seed)).map_err(|e| e.to_string())?;
                self.replay_checked(i, &artifact_json(&trained), &mut quiet)?;
            }
            let replay_runs = self.replayed[i].expect("replayed above");
            let w = self.families[family].as_ref();
            let pipeline_runs = profiled_stage_runs(w, &config(seed))?;
            if replay_runs != pipeline_runs {
                return Err(format!(
                    "{} seed {seed:#x}: replay ran {replay_runs:?} simulations per stage, \
                     the pipeline's profile shows {pipeline_runs:?}",
                    w.name()
                ));
            }
            if i < self.families.len() {
                notes.push(format!(
                    "{} replay reproduces OfflineTraining::run; simulations per stage \
                     {replay_runs:?}, as in the pipeline's profile",
                    w.name()
                ));
            }
        }
        Ok(notes)
    }

    fn inject_mismatch(&mut self) {
        self.refs[0].menu.push('!');
    }
}

/// `sim` calls under each training stage of the pipeline's phase profile.
fn profiled_stage_runs(w: &dyn Workload, cfg: &TrainingConfig) -> Result<StageRuns, String> {
    let profiler = obs::prof::profiler();
    profiler.reset();
    profiler.enable();
    let trained = OfflineTraining::run(w, cfg);
    profiler.set_enabled(false);
    let profile = profiler.take_profile();
    trained.map_err(|e| e.to_string())?;
    let training = profile
        .roots
        .iter()
        .find(|n| n.name == "training")
        .ok_or("profile has no `training` phase")?;
    let mut runs = [0u64; 4];
    for (slot, stage) in [
        "stage1_hotspot",
        "stage2_calibration",
        "stage3_memory",
        "stage4_time_models",
    ]
    .iter()
    .enumerate()
    {
        runs[slot] = training
            .children
            .iter()
            .find(|n| n.name == *stage)
            .and_then(|n| n.children.iter().find(|c| c.name == "sim"))
            .map_or(0, |sim| sim.calls);
    }
    Ok(runs)
}

fn add_cost(stage: &mut juggler::pipeline::StageCost, report: &RunReport) {
    stage.runs += 1;
    stage.machine_minutes += report.cost_machine_minutes();
}

/// `instrument::profile_run`, one public call at a time.
fn profile(
    t: &mut Tracer,
    app: &Application,
    cluster: ClusterConfig,
    params: SimParams,
) -> Result<(RunReport, Vec<DatasetMetrics>), String> {
    let instrumented = t.span("instrument.inject", |_| {
        inject(app, ProfilingOverhead::default())
    });
    let mapped = instrumented.map_schedule(app.default_schedule());
    let prep = t.span("cluster_sim.prep", |_| {
        Arc::new(EnginePrep::new(&instrumented.app))
    });
    let engine = Engine::with_prep(&instrumented.app, cluster, params, prep);
    let options = RunOptions {
        collect_traces: true,
        ..RunOptions::default()
    };
    let report = t
        .span("instrument.run_traced", |_| engine.run(&mapped, options))
        .map_err(|e| e.to_string())?;
    record_run(t, &report);
    t.count("instrument.task_traces", report.traces.len() as f64);
    let db = ProfilingDatabase::new();
    t.span("instrument.ingest", |_| db.ingest(&instrumented, &report));
    let metrics = t.span("instrument.derive", |_| {
        derive_metrics(&db, app, cluster.total_cores())
    });
    Ok((report, metrics))
}

/// `OfflineTraining::run` followed by `recommend`, replayed through the
/// layers' public functions with the pipeline's seed offsets (1, 2 + grid
/// point, 20, 40 + cell) on one thread.
fn replay(
    w: &dyn Workload,
    cfg: &TrainingConfig,
    t: &mut Tracer,
) -> Result<(TrainedJuggler, RecommendationMenu, StageRuns), String> {
    let sim = |offset: u64| {
        let mut p = w.sim_params();
        p.seed = cfg.seed.wrapping_add(offset);
        p
    };
    let mut costs = TrainingCosts::default();
    let mut runs: StageRuns = [0; 4];
    let calib = ClusterConfig::new(1, cfg.calibration_spec);

    // Stage 1: hotspot detection from one instrumented sample run.
    let stage = t.enter("stage1_hotspot");
    let sample = w.sample_params();
    let sample_app = t.span("workloads.build", |_| w.build(&sample));
    let (report, metrics) = profile(t, &sample_app, calib, sim(1))?;
    add_cost(&mut costs.hotspot, &report);
    runs[0] += 1;
    let view = DatasetMetricsView::from_metrics(&metrics, sample_app.dataset_count());
    let (schedules, _audit) = t.span("core.hotspot", |_| {
        detect_hotspots_audited(&sample_app, &view, &cfg.hotspot)
    });
    t.count("core.schedules", schedules.len() as f64);
    t.exit(stage);

    // Stage 2: parameter calibration over the 3×3 grid.
    let stage = t.enter("stage2_calibration");
    let (e_axis, f_axis) = w.training_axes();
    let grid = ParamCalibration::training_grid(&e_axis, &f_axis);
    let wanted = ParamCalibration::datasets_of(schedules.iter().map(|s| s.schedule.as_ref()));
    let mut grid_apps = Vec::with_capacity(grid.len());
    for &(e, f) in &grid {
        let params = WorkloadParams::auto(e as u64, f as u64, sample.iterations);
        grid_apps.push(t.span("workloads.build", |_| w.build(&params)));
    }
    let mut observations: HashMap<DatasetId, Vec<(f64, f64, u64)>> = HashMap::new();
    for (gi, app) in grid_apps.iter().enumerate() {
        let (report, metrics) = profile(t, app, calib, sim(2 + gi as u64))?;
        add_cost(&mut costs.param_calibration, &report);
        runs[1] += 1;
        let (e, f) = grid[gi];
        for m in metrics.iter().filter(|m| wanted.contains(&m.dataset)) {
            observations
                .entry(m.dataset)
                .or_default()
                .push((e, f, m.size_bytes));
        }
    }
    let (sizes, size_fits) =
        t.span(
            "modeling.size_fit",
            |_| match ParamCalibration::fit_with_reports(&observations) {
                Ok(pair) => Ok(pair),
                Err(_) if observations.is_empty() => Ok((ParamCalibration::default(), Vec::new())),
                Err(e) => Err(e.to_string()),
            },
        )?;
    let candidates: usize = size_fits.iter().map(|(_, r)| r.candidates.len()).sum();
    t.count("modeling.candidates", candidates as f64);
    t.exit(stage);

    // Stage 3: memory calibration, one run filling the calibration node.
    let stage = t.enter("stage3_memory");
    let memory_factor = if let Some(first) = schedules.first() {
        let m_bytes = cfg.calibration_spec.unified_memory() as f64;
        let (e0, f0) = (
            *e_axis.last().expect("axes non-empty"),
            *f_axis.last().expect("axes non-empty"),
        );
        let scaled = t.span("core.memory_calibration", |_| {
            MemoryCalibration::scale_params_to_target(e0, f0, m_bytes, |e, f| {
                sizes.predict_schedule_size(&first.schedule, e, f) as f64
            })
        });
        let params = WorkloadParams::auto(scaled.e as u64, scaled.f as u64, sample.iterations);
        let app = t.span("workloads.build", |_| w.build(&params));
        let prep = t.span("cluster_sim.prep", |_| Arc::new(EnginePrep::new(&app)));
        let options = RunOptions {
            trace: cfg.trace,
            ..RunOptions::default()
        };
        let report = t
            .span("cluster_sim.run", |_| {
                Engine::with_prep(&app, calib, sim(20), prep).run_shared(&first.schedule, options)
            })
            .map_err(|e| e.to_string())?;
        record_run(t, &report);
        add_cost(&mut costs.memory_calibration, &report);
        runs[2] += 1;
        t.span("core.memory_calibration", |_| {
            MemoryFactor::from_run(&app, &first.schedule, &report)
        })
    } else {
        MemoryFactor { factor: 1.0 }
    };
    t.exit(stage);

    // Stage 4: one time model per schedule from its 3×3 grid of runs.
    let stage = t.enter("stage4_time_models");
    let paper = w.paper_params();
    let mut cells = Vec::with_capacity(grid.len());
    for &(e, f) in &grid {
        let params = WorkloadParams::auto(e as u64, f as u64, paper.iterations);
        let app = t.span("workloads.build", |_| w.build(&params));
        let prep = t.span("cluster_sim.prep", |_| Arc::new(EnginePrep::new(&app)));
        cells.push((app, prep));
    }
    let mut points = vec![Vec::with_capacity(grid.len()); schedules.len()];
    for k in 0..schedules.len() * grid.len() {
        let (si, gi) = (k / grid.len(), k % grid.len());
        let rs = &schedules[si];
        let (e, f) = grid[gi];
        let size = sizes.predict_schedule_size(&rs.schedule, e, f);
        let machines = memory_factor
            .recommend_machines(size, &cfg.target_spec)
            .min(cfg.max_machines);
        let cluster = ClusterConfig::new(machines, cfg.target_spec);
        let (app, prep) = &cells[gi];
        let report = t
            .span("cluster_sim.run", |_| {
                Engine::with_prep(app, cluster, sim(40 + k as u64), Arc::clone(prep))
                    .run_shared(&rs.schedule, RunOptions::default())
            })
            .map_err(|e| e.to_string())?;
        record_run(t, &report);
        add_cost(&mut costs.time_models, &report);
        runs[3] += 1;
        points[si].push((e, f, report.total_time_s));
    }
    let mut time_models = Vec::with_capacity(schedules.len());
    for (si, pts) in points.iter().enumerate() {
        let (model, report) = t
            .span("modeling.time_fit", |_| TimeModel::fit_with_report(si, pts))
            .map_err(|e| e.to_string())?;
        t.count("modeling.candidates", report.candidates.len() as f64);
        time_models.push(model);
    }
    t.exit(stage);

    let trained = TrainedJuggler {
        workload: w.name().to_owned(),
        schedules,
        sizes,
        memory_factor,
        time_models,
        target_spec: cfg.target_spec,
        max_machines: cfg.max_machines,
        costs,
    };
    let (e, f) = paper_point(w);
    let menu = t.span("core.recommend", |_| trained.recommend(e, f));
    Ok((trained, menu, runs))
}
