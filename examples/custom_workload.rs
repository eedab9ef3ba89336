//! Bring your own application: define a custom iterative dataflow with the
//! `dagflow` builder, give it Juggler's `Workload` interface, and let the
//! full offline-training pipeline find its caching schedules and cluster
//! configuration.
//!
//! The application here is a "sessionization + feature extraction"
//! pipeline: raw click logs are parsed, sessionized (a shuffle), and a
//! feature matrix is derived that an iterative scoring loop re-reads; two
//! report jobs share the session dataset.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use juggler_suite::cluster_sim::{NoiseParams, SimParams};
use juggler_suite::dagflow::{
    AppBuilder, Application, ComputeCost, NarrowKind, Schedule, SourceFormat, WideKind,
};
use juggler_suite::juggler::pipeline::{OfflineTraining, TrainingConfig};
use juggler_suite::workloads::{Workload, WorkloadParams};

/// A click-stream scoring pipeline, parameterized like the ML workloads:
/// `examples` = click events, `features` = attributes per event.
struct ClickstreamScoring;

impl Workload for ClickstreamScoring {
    fn name(&self) -> &'static str {
        "CLICKS"
    }

    fn paper_params(&self) -> WorkloadParams {
        WorkloadParams::auto(50_000, 30_000, 20)
    }

    fn sim_params(&self) -> SimParams {
        SimParams {
            exec_mem_per_task_factor: 0.15,
            noise: NoiseParams::default(),
            ..SimParams::default()
        }
    }

    fn build(&self, p: &WorkloadParams) -> Application {
        let ef = p.ef();
        let parts = p.partitions;
        let parse = ComputeCost::new(0.002, 0.0, 5.0e-9);
        let light = ComputeCost::new(0.001, 0.0, 2.0e-11);
        let scan = ComputeCost::new(0.004, 0.0, 2.0e-9);
        let agg = ComputeCost::new(0.004, 0.0, 1.0e-9);

        let mut b = AppBuilder::new("clickstream");
        let logs = b.source(
            "clickLogs",
            SourceFormat::DistributedFs,
            p.examples,
            p.input_bytes(),
            parts,
        );
        let events = b.narrow(
            "events",
            NarrowKind::Map,
            &[logs],
            p.examples,
            (6.8 * ef) as u64,
            parse,
        );
        let sessions = b.wide(
            "sessions",
            WideKind::GroupByKey,
            &[events],
            p.examples / 4,
            (5.2 * ef) as u64,
            agg,
        );
        let matrix = b.narrow(
            "featureMatrix",
            NarrowKind::Map,
            &[sessions],
            p.examples / 4,
            (4.1 * ef) as u64,
            light,
        );

        // Iterative scoring over the feature matrix.
        for i in 0..p.iterations {
            let scores = b.narrow(
                format!("scores[{i}]"),
                NarrowKind::Map,
                &[matrix],
                p.examples / 4,
                16 * p.examples,
                scan,
            );
            let model = b.wide_with_partitions(
                format!("model[{i}]"),
                WideKind::TreeAggregate,
                &[scores],
                1,
                8 * p.features,
                1,
                agg,
            );
            b.job("treeAggregate", model);
        }

        // Two reports over the sessions dataset.
        for name in ["funnelReport", "retentionReport"] {
            let v = b.narrow(name, NarrowKind::Map, &[sessions], 1, 8, light);
            b.job("collect", v);
        }

        // The hypothetical developers cached nothing.
        b.default_schedule(Schedule::empty());
        b.build().expect("valid plan")
    }
}

fn main() {
    let w = ClickstreamScoring;
    println!("Training Juggler for the custom {} workload ...", w.name());
    let trained = OfflineTraining::run(&w, &TrainingConfig::default()).expect("training succeeds");

    println!("\nDiscovered schedules:");
    for (i, rs) in trained.schedules.iter().enumerate() {
        let names: Vec<String> = rs
            .schedule
            .persisted()
            .iter()
            .map(|&d| w.build(&w.sample_params()).dataset(d).name.to_string())
            .collect();
        println!(
            "  #{} {:<18} caches [{}]",
            i + 1,
            rs.schedule.notation(),
            names.join(", ")
        );
    }

    let p = w.paper_params();
    let menu = trained.recommend(p.e(), p.f());
    println!(
        "\nRecommendations at {} events x {} attributes:",
        p.examples, p.features
    );
    for o in &menu.options {
        println!(
            "  {:<18} -> {:>2} machines, {:>8.1}s predicted, {:>6.1} machine-min",
            o.schedule.notation(),
            o.machines,
            o.predicted_time_s,
            o.predicted_cost_machine_min
        );
    }
    assert!(
        !trained.schedules.is_empty(),
        "the iterative matrix reuse must be detected as a hotspot"
    );
}
