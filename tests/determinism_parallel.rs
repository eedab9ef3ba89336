//! The parallel experiment runner's determinism contract: training on a
//! worker pool must produce an artifact byte-identical to the sequential
//! run, because every simulated experiment owns its RNG seed and results
//! are gathered in index order.

mod common;

use common::TinyScoring;
use std::sync::atomic::{AtomicU32, Ordering};

use juggler_suite::cluster_sim::EnginePrep;
use juggler_suite::dagflow::{Application, Lineages};
use juggler_suite::juggler::pipeline::{OfflineTraining, TrainingConfig};
use juggler_suite::juggler::{resolve_threads, run_indexed, try_run_indexed};
use juggler_suite::workloads::{all_workloads, LogisticRegression, Pca, Workload, WorkloadParams};

fn config_with_threads(threads: usize) -> TrainingConfig {
    TrainingConfig {
        threads,
        ..TrainingConfig::default()
    }
}

/// Serializes a trained artifact to its canonical JSON bytes.
fn artifact_bytes(w: &dyn Workload, threads: usize) -> String {
    let trained =
        OfflineTraining::run(w, &config_with_threads(threads)).expect("training succeeds");
    serde_json::to_string_pretty(&trained).expect("artifact serializes")
}

#[test]
fn parallel_training_is_bit_identical_to_sequential() {
    let workloads: [&dyn Workload; 2] = [&Pca, &LogisticRegression];
    for w in workloads {
        let sequential = artifact_bytes(w, 1);
        for threads in [2, 4] {
            let parallel = artifact_bytes(w, threads);
            assert_eq!(
                sequential,
                parallel,
                "{}: artifact differs between threads=1 and threads={threads}",
                w.name()
            );
        }
    }
}

#[test]
fn iteration_models_are_bit_identical_to_sequential() {
    let w = Pca;
    let axis = [1u32, 2, 4];
    let trained = OfflineTraining::run(&w, &config_with_threads(1)).expect("training succeeds");
    let sequential =
        OfflineTraining::fit_iteration_models(&w, &config_with_threads(1), &trained, &axis)
            .expect("sequential fit succeeds");
    let parallel =
        OfflineTraining::fit_iteration_models(&w, &config_with_threads(4), &trained, &axis)
            .expect("parallel fit succeeds");
    let seq_json = serde_json::to_string(&sequential).unwrap();
    let par_json = serde_json::to_string(&parallel).unwrap();
    assert_eq!(seq_json, par_json);
}

/// Forwards to an inner workload while counting `build` calls (fresh
/// DAG constructions) and `build_sized` calls (grid points sized against
/// a known lineage) — the DAG constructions the pipeline actually
/// performs.
struct CountingWorkload<'a> {
    inner: &'a dyn Workload,
    builds: AtomicU32,
    sized: AtomicU32,
}

impl Workload for CountingWorkload<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn build(&self, params: &WorkloadParams) -> Application {
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.inner.build(params)
    }
    fn build_sized(&self, params: &WorkloadParams, lineages: &Lineages<'_>) -> Application {
        self.sized.fetch_add(1, Ordering::Relaxed);
        self.inner.build_sized(params, lineages)
    }
    fn paper_params(&self) -> WorkloadParams {
        self.inner.paper_params()
    }
    fn sim_params(&self) -> juggler_suite::cluster_sim::SimParams {
        self.inner.sim_params()
    }
    fn sample_params(&self) -> WorkloadParams {
        self.inner.sample_params()
    }
    fn training_axes(&self) -> (Vec<f64>, Vec<f64>) {
        self.inner.training_axes()
    }
}

/// Pins the grid sharing contract: per-grid-point runs share one
/// application across schedules instead of cloning it
/// per cell, each lineage is built afresh once and every other grid point
/// is sized against it, and the nine grid points of stages 2 and 4, which
/// differ only in sizes, share one `EnginePrep` per stage. Every paper
/// family trains its schedules over a 9-point grid. Fresh builds are 2
/// per training: the stage-1 sample app, which is the lineage of stages 2
/// and 3 (both run at the sample's iteration count), and stage 4's first
/// grid point, the paper-scale lineage. Sized builds are 9 + 1 + 8: the
/// stage-2 grid, the stage-3 memory calibration and the rest of stage 4,
/// one per grid point — NOT one per cell; LOR has 18. Preps are
/// 1 + 0 + 1 + 1: stage 2 runs stage 1's instrumented prep, and stage 4
/// plans its grid once. A regression
/// that moves the build back inside the per-cell closure, builds a grid
/// point afresh, or plans or injects the sample lineage again, breaks
/// these counts immediately. A one-thread training runs on this thread, so the
/// thread's prep count sees every prep it builds.
#[test]
fn grid_point_runs_share_the_app_dag() {
    for w in all_workloads() {
        let counting = CountingWorkload {
            inner: w.as_ref(),
            builds: AtomicU32::new(0),
            sized: AtomicU32::new(0),
        };
        let preps_before = EnginePrep::built_on_this_thread();
        let trained =
            OfflineTraining::run(&counting, &config_with_threads(1)).expect("training succeeds");
        let preps = EnginePrep::built_on_this_thread() - preps_before;
        assert_eq!(
            counting.builds.load(Ordering::Relaxed),
            1 + 1,
            "{}: one fresh build per lineage: the sample app and stage 4's first point",
            w.name()
        );
        assert_eq!(
            counting.sized.load(Ordering::Relaxed),
            9 + 1 + 8,
            "{}: every other grid point is sized, one app per point, shared across schedules",
            w.name()
        );
        assert_eq!(
            preps,
            3,
            "{}: stages 1, 3 and 4 plan one prep each; stage 2 reuses stage 1's",
            w.name()
        );
        if w.name() != "LOR" {
            continue;
        }
        assert_eq!(trained.costs.time_models.runs, 18, "2 schedules x 9 cells");
        // Sharing must not change the artifact: the counting wrapper
        // trains to the same bytes as the plain workload.
        let plain = artifact_bytes(w.as_ref(), 1);
        let wrapped = serde_json::to_string_pretty(&trained).expect("artifact serializes");
        assert_eq!(plain, wrapped);
    }
}

/// [`TinyScoring`], except that the grid points at the largest
/// training-axis `e` run one extra iteration: their applications end in
/// one more dataset pair and job, so every training grid holds two
/// lineages. Records this thread's prep count at each `build` call, which
/// splits a one-thread training's preps by stage.
#[derive(Default)]
struct TwoLineages {
    preps_at_build: std::sync::Mutex<Vec<u64>>,
}

impl Workload for TwoLineages {
    fn name(&self) -> &'static str {
        "TINY-TWO-LINEAGES"
    }
    fn build(&self, params: &WorkloadParams) -> juggler_suite::dagflow::Application {
        self.preps_at_build
            .lock()
            .expect("unpoisoned")
            .push(EnginePrep::built_on_this_thread());
        let (e_axis, _) = TinyScoring.training_axes();
        let largest_e = e_axis.iter().copied().fold(0.0, f64::max) as u64;
        if params.examples == largest_e {
            return TinyScoring.build(&WorkloadParams {
                iterations: params.iterations + 1,
                ..*params
            });
        }
        TinyScoring.build(params)
    }
    fn paper_params(&self) -> WorkloadParams {
        TinyScoring.paper_params()
    }
    fn sim_params(&self) -> juggler_suite::cluster_sim::SimParams {
        TinyScoring.sim_params()
    }
}

/// Stages 2 and 4 plan one prep per lineage of their grid, whatever the
/// order of the points: here three of nine points (the largest `e`) have
/// a lineage of their own, so stage 4 plans two preps, stage 2 one (its
/// other lineage is the sample app's, whose prep stage 1 hands on), and
/// the stage-1 and stage-3 runs one each. Builds run in stage order (1 + 9 + 1 + 9),
/// so the prep counts seen at the first build of each stage split the
/// total. The shared preps must not change the artifact at any thread
/// count.
#[test]
fn grid_stages_plan_one_prep_per_lineage() {
    let w = TwoLineages::default();
    let trained = OfflineTraining::run(&w, &config_with_threads(1)).expect("training succeeds");
    let end = EnginePrep::built_on_this_thread();
    let seen = w.preps_at_build.lock().expect("unpoisoned").clone();
    assert_eq!(seen.len(), 1 + 9 + 1 + 9, "builds per stage");
    let per_stage = [
        seen[1] - seen[0],
        seen[10] - seen[1],
        seen[11] - seen[10],
        end - seen[11],
    ];
    assert_eq!(per_stage, [1, 1, 1, 2], "preps per stage");
    let sequential = serde_json::to_string_pretty(&trained).expect("artifact serializes");
    for threads in [2, 8] {
        assert_eq!(
            sequential,
            artifact_bytes(&TwoLineages::default(), threads),
            "artifact differs between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn threads_one_takes_the_sequential_fallback() {
    // With one worker the runner never spawns: the closure observes the
    // caller's thread id on every item.
    let caller = std::thread::current().id();
    let ids = run_indexed(8, 1, |_| std::thread::current().id());
    assert!(ids.iter().all(|&id| id == caller));

    // And with several workers at least one item runs off-thread (8 items
    // across 4 workers; the work-stealing loop makes this deterministic
    // enough — workers are spawned before the caller's thread joins in).
    let results = try_run_indexed::<_, (), _>(8, 4, |i| {
        std::thread::sleep(std::time::Duration::from_millis(1));
        Ok((i, std::thread::current().id()))
    })
    .expect("infallible closure");
    assert_eq!(results.len(), 8);
    assert!(results.iter().all(|&(_, id)| id != caller));
}

#[test]
fn explicit_thread_request_wins_over_environment() {
    assert_eq!(resolve_threads(2), 2);
    assert_eq!(resolve_threads(7), 7);
    assert!(resolve_threads(0) >= 1);
}
