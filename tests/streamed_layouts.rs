//! The per-run layouts of the training path against the layouts they
//! replaced: a profiling run that folds each task as it finishes must
//! derive exactly the metrics of a run whose traces are collected and
//! then ingested, a sizes-only run must report exactly the sizes of the
//! full profiling run while recording only the steps it measures, and the
//! stage plans one shared planner builds for
//! every job of an application must equal plans built one job at a time.

use std::collections::BTreeSet;

use juggler_suite::cluster_sim::{
    ClusterConfig, Engine, EnginePrep, MachineSpec, RunOptions, StepKind, TaskTrace,
};
use juggler_suite::dagflow::{Application, DatasetId, JobId, Schedule, StagePlan};
use juggler_suite::instrument::{
    derive_metrics, inject, profile_run, profile_sizes, DatasetMetrics, ProfilingDatabase,
    ProfilingOverhead,
};
use juggler_suite::juggler::{workload_by_name, ParamCalibration};
use juggler_suite::workloads::WorkloadParams;

fn assert_same_bits(got: &[DatasetMetrics], want: &[DatasetMetrics], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: dataset count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.dataset, w.dataset, "{what}");
        assert_eq!(g.size_bytes, w.size_bytes, "{what}: {} size", g.dataset);
        assert_eq!(
            g.et_seconds.to_bits(),
            w.et_seconds.to_bits(),
            "{what}: {} et",
            g.dataset
        );
        assert_eq!(g.observations, w.observations, "{what}: {}", g.dataset);
    }
}

const WORKLOADS: [&str; 8] = [
    "LIR", "LOR", "PCA", "RFC", "SVM", "KMEANS", "SQLJOIN", "STREAM",
];

/// Every dataset of `app`.
fn every_dataset(app: &Application) -> BTreeSet<DatasetId> {
    app.datasets().iter().map(|d| d.id).collect()
}

/// `(dataset, size_bytes)` of `metrics`, as the sizes-only run reports them.
fn sizes_of(metrics: &[DatasetMetrics]) -> Vec<(DatasetId, u64)> {
    metrics.iter().map(|m| (m.dataset, m.size_bytes)).collect()
}

/// Every workload's nine stage-2 grid points, on one and three
/// calibration nodes: `profile_run` (streamed fold) and collect →
/// `ingest` → `derive_metrics` agree bit for bit, and so do the two runs;
/// the sizes-only run over every dataset reports exactly `profile_run`'s
/// datasets and sizes, after the same run.
#[test]
fn streamed_profile_runs_match_collect_then_ingest() {
    let mut runs = 0;
    for name in WORKLOADS {
        let w = workload_by_name(name).expect("known workload");
        let (e_axis, f_axis) = w.training_axes();
        let iterations = w.sample_params().iterations;
        for (gi, &(e, f)) in ParamCalibration::training_grid(&e_axis, &f_axis)
            .iter()
            .enumerate()
        {
            let app = w.build(&WorkloadParams::auto(e as u64, f as u64, iterations));
            for machines in [1, 3] {
                let what = format!("{name} point {gi}, {machines} machines");
                let cluster = ClusterConfig::new(machines, MachineSpec::calibration_node());
                let mut params = w.sim_params();
                params.seed = 2 + gi as u64;
                let streamed =
                    profile_run(&app, app.default_schedule(), cluster, params.clone()).unwrap();
                assert!(streamed.report.traces.is_empty(), "{what}");

                let instr = inject(&app, ProfilingOverhead::default());
                let engine = Engine::new(&instr.app, cluster, params);
                let collected = engine
                    .run(
                        &instr.map_schedule(app.default_schedule()),
                        RunOptions {
                            collect_traces: true,
                            ..RunOptions::default()
                        },
                    )
                    .unwrap();
                assert_eq!(
                    collected.traces.len() as u64,
                    collected.total_tasks,
                    "{what}"
                );
                let db = ProfilingDatabase::new();
                db.ingest(&instr, &collected);
                let want = derive_metrics(&db, &app, cluster.total_cores());

                assert_same_bits(&streamed.metrics, &want, &what);
                assert_eq!(
                    streamed.report.total_time_s.to_bits(),
                    collected.total_time_s.to_bits(),
                    "{what}"
                );
                assert_eq!(streamed.report.digest(), collected.digest(), "{what}");

                let (report, sizes) = profile_sizes(
                    &engine,
                    &instr,
                    app.default_schedule(),
                    &every_dataset(&app),
                )
                .unwrap();
                assert_eq!(sizes, sizes_of(&streamed.metrics), "{what}");
                assert_eq!(
                    report.total_time_s.to_bits(),
                    streamed.report.total_time_s.to_bits(),
                    "{what}"
                );
                assert_eq!(report.digest(), streamed.report.digest(), "{what}");
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 144);
}

/// LOR persisting every dataset on one calibration node cut to 1 GB:
/// persisted shadows are evicted and recomputed, so partitions are
/// observed more than once, and the sizes-only run still reports
/// `profile_run`'s sizes.
#[test]
fn sizes_only_run_matches_under_memory_pressure() {
    let w = workload_by_name("LOR").expect("known workload");
    let (e_axis, f_axis) = w.training_axes();
    let app = w.build(&WorkloadParams::auto(
        *e_axis.last().unwrap() as u64,
        *f_axis.last().unwrap() as u64,
        w.sample_params().iterations,
    ));
    let cluster = ClusterConfig::new(
        1,
        MachineSpec {
            ram_bytes: 1_000_000_000,
            ..MachineSpec::calibration_node()
        },
    );
    let all = every_dataset(&app);
    let schedule = Schedule::persist_all(all.iter().copied());
    let full = profile_run(&app, &schedule, cluster, w.sim_params()).unwrap();
    let instr = &full.instrumented;
    let engine = Engine::new(&instr.app, cluster, w.sim_params());
    let (report, sizes) = profile_sizes(&engine, instr, &schedule, &all).unwrap();
    assert_eq!(report.digest(), full.report.digest());
    assert_eq!(sizes, sizes_of(&full.metrics));
    let recomputed = app
        .datasets()
        .iter()
        .filter(|d| {
            report
                .cache
                .per_dataset
                .get(&instr.shadow[d.id.index()])
                .is_some_and(|s| s.evictions > 0 && s.misses > u64::from(d.partitions))
        })
        .count();
    assert!(
        recomputed > 0,
        "no persisted shadow was evicted and recomputed"
    );
}

/// The steps of a trace that `watch` flags, as comparable bits.
fn watched_steps(trace: &TaskTrace, watch: &[bool]) -> Vec<(DatasetId, StepKind, u64, u64, u64)> {
    trace
        .steps
        .iter()
        .filter(|s| watch[s.dataset.index()])
        .map(|s| {
            let (start, finish) = (s.start.to_bits(), s.finish.to_bits());
            (s.dataset, s.kind, start, finish, s.out_bytes)
        })
        .collect()
}

/// Every workload's nine stage-2 grid points, measuring the sizes of the
/// default schedule's datasets and the first one: the watched size run
/// (`profile_sizes`) reports the sizes, `total_time_s` bits and digest of
/// the full observed run (`profile_run`, which records every step). A
/// watched `run_observed` hands on exactly the tasks of the full run that
/// hold a watched step, each with exactly its watched steps, and never a
/// task without one.
#[test]
fn watched_size_runs_match_full_observed_runs() {
    let (mut runs, mut skipped) = (0, 0u64);
    for name in WORKLOADS {
        let w = workload_by_name(name).expect("known workload");
        let (e_axis, f_axis) = w.training_axes();
        let iterations = w.sample_params().iterations;
        for (gi, &(e, f)) in ParamCalibration::training_grid(&e_axis, &f_axis)
            .iter()
            .enumerate()
        {
            let what = format!("{name} point {gi}");
            let app = w.build(&WorkloadParams::auto(e as u64, f as u64, iterations));
            let mut wanted: BTreeSet<DatasetId> =
                app.default_schedule().persisted().into_iter().collect();
            wanted.insert(DatasetId(0));
            let cluster = ClusterConfig::new(1, MachineSpec::calibration_node());
            let mut params = w.sim_params();
            params.seed = 2 + gi as u64;
            let full = profile_run(&app, app.default_schedule(), cluster, params.clone()).unwrap();
            let instr = &full.instrumented;
            let engine = Engine::new(&instr.app, cluster, params);

            let (report, sizes) =
                profile_sizes(&engine, instr, app.default_schedule(), &wanted).unwrap();
            let want: Vec<(DatasetId, u64)> = sizes_of(&full.metrics)
                .into_iter()
                .filter(|(d, _)| wanted.contains(d))
                .collect();
            assert_eq!(sizes, want, "{what}");
            assert_eq!(
                report.total_time_s.to_bits(),
                full.report.total_time_s.to_bits(),
                "{what}"
            );
            assert_eq!(report.digest(), full.report.digest(), "{what}");

            let watch: Vec<bool> = instr
                .copy_of
                .iter()
                .zip(&instr.profiles)
                .map(|(c, p)| c.or(*p).is_some_and(|d| wanted.contains(&d)))
                .collect();
            let mapped = instr.map_schedule(app.default_schedule());
            let mut every = Vec::new();
            engine
                .run_observed(&mapped, RunOptions::default(), None, &mut |t| {
                    let steps = watched_steps(t, &watch);
                    if !steps.is_empty() {
                        every.push(steps);
                    }
                })
                .unwrap();
            let mut watched = Vec::new();
            let observed = engine
                .run_observed(&mapped, RunOptions::default(), Some(&watch), &mut |t| {
                    assert!(!t.steps.is_empty(), "{what}: a task without a watched step");
                    assert_eq!(watched_steps(t, &watch).len(), t.steps.len(), "{what}");
                    watched.push(watched_steps(t, &watch));
                })
                .unwrap();
            assert_eq!(watched, every, "{what}");
            assert_eq!(observed.digest(), full.report.digest(), "{what}");
            skipped += observed.total_tasks - watched.len() as u64;
            runs += 1;
        }
    }
    assert_eq!(runs, 72);
    assert!(skipped > 0, "no task ran without a watched step");
}

/// `EnginePrep` plans every job of an application with one shared
/// planner; `StagePlan::build` plans one job with a fresh one. They agree
/// on every workload, at sample and paper scale, plain and instrumented.
#[test]
fn shared_planner_matches_fresh_plans_on_every_workload() {
    for name in WORKLOADS {
        let w = workload_by_name(name).expect("known workload");
        for params in [w.sample_params(), w.paper_params()] {
            let app = w.build(&params);
            let instrumented = inject(&app, ProfilingOverhead::default()).app;
            for app in [&app, &instrumented] {
                check_plans(app, &format!("{name} {}", app.dataset_count()));
            }
        }
    }
}

fn check_plans(app: &Application, what: &str) {
    let prep = EnginePrep::new(app);
    assert_eq!(prep.plans().len(), app.jobs().len(), "{what}");
    for (ji, plan) in prep.plans().iter().enumerate() {
        let fresh = StagePlan::build(app, JobId(ji as u32));
        assert_eq!(plan, &fresh, "{what}: job {ji}");
    }
}
