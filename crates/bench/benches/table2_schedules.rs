//! Table 2 — "Juggler's SCHEDULES & default schedules".
//!
//! For every application, runs the genuine hotspot-detection stage (one
//! instrumented sample run on the calibration node) and prints the
//! resulting schedule family next to the HiBench developer-cached default,
//! in the paper's `p(i)`/`u(i)` notation.

use bench::print_table;
use cluster_sim::{ClusterConfig, MachineSpec};
use instrument::profile_run;
use juggler::{detect_hotspots, DatasetMetricsView, HotspotConfig};

fn main() {
    let mut rows = Vec::new();
    for w in bench::workloads() {
        let sample = w.sample_params();
        let app = w.build(&sample);
        let cluster = ClusterConfig::new(1, MachineSpec::calibration_node());
        let out = profile_run(
            &app,
            &app.default_schedule().clone(),
            cluster,
            w.sim_params(),
        )
        .expect("sample run succeeds");
        let metrics = DatasetMetricsView::from_metrics(&out.metrics, app.dataset_count());
        let schedules = detect_hotspots(&app, &metrics, &HotspotConfig::default());

        for (i, s) in schedules.iter().enumerate() {
            rows.push(vec![
                w.name().to_owned(),
                (i + 1).to_string(),
                s.schedule.notation(),
                format!("{:.2}", s.benefit_s),
                obs::fmt_bytes(s.budget_bytes),
            ]);
        }
        rows.push(vec![
            w.name().to_owned(),
            "HiBench".to_owned(),
            app.default_schedule().notation(),
            String::new(),
            String::new(),
        ]);
    }
    print_table(
        "Table 2: Juggler's schedules vs HiBench defaults",
        &["Application", "ID", "Schedule", "benefit (s)", "budget"],
        &rows,
    );
    println!(
        "\nPaper reference: LIR p(1) | p(1) p(3); LOR p(2) | p(1) p(2) u(2) p(11); \
         PCA p(1) u(1) p(2) u(2) p(13); RFC p(11) | p(1) p(12) | p(1) p(5) u(5) p(12); \
         SVM p(2) | p(1) p(6)."
    );
}
