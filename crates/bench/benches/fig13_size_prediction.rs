//! Figure 13 — "Juggler's dataset prediction accuracy".
//!
//! Compares the sizes of the cached datasets of every schedule, as
//! predicted by the parameter-calibration models at the Table 1
//! parameters, against the actual sizes in the actual runs. The paper's
//! worst-case error is 0.91 %.

use bench::print_table;
use modeling::accuracy_pct;

fn main() {
    let mut rows = Vec::new();
    let mut worst_err: f64 = 0.0;

    for (w, trained) in bench::workloads().iter().zip(bench::train_all()) {
        let params = w.paper_params();
        let app = w.build(&params);
        for (i, rs) in trained.schedules.iter().enumerate() {
            for d in rs.schedule.persisted() {
                let predicted = trained.sizes.predict_dataset(d, params.e(), params.f());
                let actual = app.dataset(d).bytes;
                let err = (predicted as f64 - actual as f64).abs() / actual as f64 * 100.0;
                worst_err = worst_err.max(err);
                rows.push(vec![
                    w.name().to_owned(),
                    format!("#{}", i + 1),
                    d.to_string(),
                    obs::fmt_bytes(predicted),
                    obs::fmt_bytes(actual),
                    format!("{:.2}%", accuracy_pct(predicted as f64, actual as f64)),
                ]);
            }
        }
    }
    print_table(
        "Figure 13: predicted vs actual cached-dataset sizes",
        &[
            "app",
            "schedule",
            "dataset",
            "predicted",
            "actual",
            "accuracy",
        ],
        &rows,
    );
    println!("\nWorst-case size error: {worst_err:.2}% (paper: 0.91%)");
}
