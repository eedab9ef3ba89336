//! Table 1 — "Details of evaluated applications".
//!
//! Prints, for each generated workload at its paper-scale parameters, the
//! columns of Table 1: examples, features, iterations, input size, total
//! datasets, intermediate datasets, and the number of schedules Juggler's
//! hotspot detection produces (measured through a real instrumented
//! sample run).

use bench::print_table;
use cluster_sim::{ClusterConfig, MachineSpec};
use dagflow::LineageAnalysis;
use instrument::profile_run;
use juggler::{detect_hotspots, DatasetMetricsView, HotspotConfig};

fn main() {
    let mut rows = Vec::new();
    for w in bench::workloads() {
        let params = w.paper_params();
        let app = w.build(&params);
        let la = LineageAnalysis::new(&app);

        // Schedules come from the genuine stage-1 pipeline.
        let sample = w.sample_params();
        let sample_app = w.build(&sample);
        let cluster = ClusterConfig::new(1, MachineSpec::calibration_node());
        let out = profile_run(
            &sample_app,
            &sample_app.default_schedule().clone(),
            cluster,
            w.sim_params(),
        )
        .expect("sample run succeeds");
        let metrics = DatasetMetricsView::from_metrics(&out.metrics, sample_app.dataset_count());
        let schedules = detect_hotspots(&sample_app, &metrics, &HotspotConfig::default());

        rows.push(vec![
            w.name().to_owned(),
            format!("{}k", params.examples / 1000),
            format!("{}k", params.features / 1000),
            params.iterations.to_string(),
            obs::fmt_bytes(app.input_bytes()),
            app.dataset_count().to_string(),
            la.intermediates().len().to_string(),
            schedules.len().to_string(),
        ]);
    }
    print_table(
        "Table 1: Details of evaluated applications",
        &[
            "Application",
            "Examples",
            "Features",
            "Iterations",
            "Input data",
            "Datasets",
            "Intermediate",
            "Schedules",
        ],
        &rows,
    );
    println!(
        "\nPaper reference: LIR 40k/120k/10/35.8GB/111/16/2 | LOR 70k/50k/50/26.1GB/210/4/2 \
         | PCA 6k/5k/100/229.2MB/1833/5/1 | RFC 100k/40k/3/29.8GB/26/8/3 | SVM 40k/80k/100/23.8GB/524/9/2"
    );
}
