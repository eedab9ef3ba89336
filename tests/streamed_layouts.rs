//! The per-run layouts of the training path against the layouts they
//! replaced: a profiling run that folds each task as it finishes must
//! derive exactly the metrics of a run whose traces are collected and
//! then ingested, and the stage plans one shared planner builds for every
//! job of an application must equal plans built one job at a time.

use juggler_suite::cluster_sim::{ClusterConfig, Engine, EnginePrep, MachineSpec, RunOptions};
use juggler_suite::dagflow::{Application, JobId, StagePlan};
use juggler_suite::instrument::{
    derive_metrics, inject, profile_run, DatasetMetrics, ProfilingDatabase, ProfilingOverhead,
};
use juggler_suite::juggler::{workload_by_name, ParamCalibration};
use juggler_suite::workloads::{all_workloads, WorkloadParams};

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

/// Every family's nine stage-2 grid points, on one and three calibration
/// nodes: `profile_run` (streamed fold) and collect → `ingest` →
/// `derive_metrics` agree bit for bit, and so do the two runs.
#[test]
fn streamed_profile_runs_match_collect_then_ingest() {
    let mut runs = 0;
    for w in all_workloads() {
        let (e_axis, f_axis) = w.training_axes();
        let iterations = w.sample_params().iterations;
        for (gi, &(e, f)) in ParamCalibration::training_grid(&e_axis, &f_axis)
            .iter()
            .enumerate()
        {
            let app = w.build(&WorkloadParams::auto(e as u64, f as u64, iterations));
            for machines in [1, 3] {
                let what = format!("{} point {gi}, {machines} machines", w.name());
                let cluster = ClusterConfig::new(machines, MachineSpec::calibration_node());
                let mut params = w.sim_params();
                params.seed = 2 + gi as u64;
                let streamed =
                    profile_run(&app, app.default_schedule(), cluster, params.clone()).unwrap();
                assert!(streamed.report.traces.is_empty(), "{what}");

                let instr = inject(&app, ProfilingOverhead::default());
                let collected = Engine::new(&instr.app, cluster, params)
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
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 90);
}

/// `EnginePrep` plans every job of an application with one shared
/// planner; `StagePlan::build` plans one job with a fresh one. They agree
/// on every workload, at sample and paper scale, plain and instrumented.
#[test]
fn shared_planner_matches_fresh_plans_on_every_workload() {
    let names = [
        "LIR", "LOR", "PCA", "RFC", "SVM", "KMEANS", "SQLJOIN", "STREAM",
    ];
    for name in names {
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
