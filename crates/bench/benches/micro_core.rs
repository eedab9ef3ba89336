//! Microbenchmarks of the core algorithms, best of `REPS` each: lineage
//! analysis and hotspot detection on synthetic iterative DAGs of 50–800
//! iterations, NNLS fitting with model selection, one simulated LOR
//! sample run, and one full PCA offline training.

use bench::harness;
use cluster_sim::{ClusterConfig, Engine, MachineSpec, NoiseParams, RunOptions, SimParams};
use dagflow::{
    AppBuilder, Application, ComputeCost, LineageAnalysis, NarrowKind, Schedule, SourceFormat,
    WideKind,
};
use juggler::pipeline::{OfflineTraining, TrainingConfig};
use juggler::{detect_hotspots, DatasetMetricsView, HotspotConfig};
use modeling::{fit_best, ModelSpec, Sample};
use workloads::{LogisticRegression, Pca, Workload};

/// Synthetic iterative app with `iters` iterations and a reusable chain.
fn synthetic_app(iters: usize) -> Application {
    let mut b = AppBuilder::new("synthetic");
    let src = b.source("in", SourceFormat::DistributedFs, 10_000, 1 << 30, 16);
    let parsed = b.narrow(
        "parsed",
        NarrowKind::Map,
        &[src],
        10_000,
        1 << 30,
        ComputeCost::new(0.001, 0.0, 1e-10),
    );
    let points = b.narrow(
        "points",
        NarrowKind::Map,
        &[parsed],
        10_000,
        1 << 29,
        ComputeCost::new(0.001, 0.0, 1e-10),
    );
    for i in 0..iters {
        let m = b.narrow(
            format!("m{i}"),
            NarrowKind::Map,
            &[points],
            10_000,
            1 << 20,
            ComputeCost::new(0.001, 0.0, 1e-9),
        );
        let g = b.wide_with_partitions(
            format!("g{i}"),
            WideKind::TreeAggregate,
            &[m],
            1,
            1 << 12,
            1,
            ComputeCost::new(0.001, 0.0, 1e-9),
        );
        b.job("agg", g);
    }
    b.build().unwrap()
}

const REPS: usize = 20;

fn main() {
    let mut rows = Vec::new();
    let mut row = |group: &str, case: String, secs: f64| {
        rows.push(vec![group.to_owned(), case, obs::fmt_duration_s(secs)]);
    };

    for iters in [50usize, 200, 800] {
        let app = synthetic_app(iters);
        let secs = harness::best_of(REPS, || LineageAnalysis::new(&app).computation_counts()[2]);
        row("lineage_analysis", format!("{iters} iterations"), secs);
    }

    for iters in [50usize, 200, 800] {
        let app = synthetic_app(iters);
        let metrics = DatasetMetricsView {
            et: (0..app.dataset_count())
                .map(|i| 0.01 + (i % 7) as f64 * 0.02)
                .collect(),
            size: app.datasets().iter().map(|d| d.bytes).collect(),
        };
        let secs = harness::best_of(REPS, || {
            detect_hotspots(&app, &metrics, &HotspotConfig::default()).len()
        });
        row("hotspot_detection", format!("{iters} iterations"), secs);
    }

    let samples: Vec<Sample> = [1.0e4, 4.0e4, 7.0e4]
        .iter()
        .flat_map(|&e| {
            [1.0e4, 3.0e4, 5.0e4].map(|f| Sample::ef(e, f, 10.0 + 96.0 * e + 0.008 * e * f))
        })
        .collect();
    let secs = harness::best_of(REPS, || {
        fit_best(&ModelSpec::size_candidates(), &samples)
            .expect("size models fit")
            .cv_error
    });
    row("model_fitting", "fit_best size models".into(), secs);

    let w = LogisticRegression;
    let app = w.build(&w.sample_params());
    let cluster = ClusterConfig::new(4, MachineSpec::private_cluster());
    let sim = SimParams {
        noise: NoiseParams::NONE,
        ..SimParams::default()
    };
    let secs = harness::best_of(REPS, || {
        Engine::new(&app, cluster, sim.clone())
            .run(&Schedule::empty(), RunOptions::default())
            .expect("sample run succeeds")
            .total_time_s
    });
    row("simulator", "LOR sample run".into(), secs);

    let secs = harness::best_of(10, || {
        OfflineTraining::run(&Pca, &TrainingConfig::default())
            .expect("training succeeds")
            .schedules
            .len()
    });
    row("offline_training", "PCA full pipeline".into(), secs);

    bench::print_table(
        &format!("Core microbenchmarks (best of {REPS}; training best of 10)"),
        &["group", "case", "best"],
        &rows,
    );
}
