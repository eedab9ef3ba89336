//! Figure 12 — "Juggler vs Ernest: Prediction accuracy".
//!
//! For every application and every Juggler schedule: predict the execution
//! time at the paper-scale parameters on the recommended configuration
//! with (a) Juggler's trained execution-time model and (b) an Ernest model
//! trained from 7 short small-sample runs chosen by optimal experiment
//! design; compare both against the actual simulated run. The paper
//! reports average accuracies of 90.6 % (Juggler) vs 53.2 % (Ernest).

use baselines::ErnestTrainer;
use bench::print_table;
use modeling::accuracy_pct;
use workloads::WorkloadParams;

fn main() {
    let mut rows = Vec::new();
    let mut juggler_accs = Vec::new();
    let mut ernest_accs = Vec::new();

    for (w, trained) in bench::workloads().iter().zip(bench::train_all()) {
        let params = w.paper_params();
        let spec = trained.target_spec;

        for (i, rs) in trained.schedules.iter().enumerate() {
            let machines = trained.machines_for(i, params.e(), params.f());
            let actual =
                bench::actual_run(w.as_ref(), &params, &rs.schedule, machines, spec).total_time_s;
            let juggler_pred = trained.time_models[i].predict(params.e(), params.f());

            // Ernest: train on 1–10 % samples at the *same* schedule.
            let schedule = rs.schedule.clone();
            let model = ErnestTrainer::default().train(|scale, m| {
                let sample = WorkloadParams::auto(
                    ((params.examples as f64) * scale.sqrt()) as u64,
                    ((params.features as f64) * scale.sqrt()) as u64,
                    params.iterations,
                );
                bench::actual_run(w.as_ref(), &sample, &schedule, m, spec).total_time_s
            });
            let ernest_pred = model.predict(1.0, machines);

            let ja = accuracy_pct(juggler_pred, actual);
            let ea = accuracy_pct(ernest_pred, actual);
            juggler_accs.push(ja);
            ernest_accs.push(ea);
            rows.push(vec![
                w.name().to_owned(),
                format!("#{}", i + 1),
                machines.to_string(),
                obs::fmt_duration_s(actual),
                obs::fmt_duration_s(juggler_pred),
                format!("{ja:.0}%"),
                obs::fmt_duration_s(ernest_pred),
                format!("{ea:.0}%"),
            ]);
        }
    }
    print_table(
        "Figure 12: execution-time prediction accuracy per schedule",
        &[
            "app", "schedule", "machines", "actual", "Juggler", "acc", "Ernest", "acc",
        ],
        &rows,
    );
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nAverage accuracy: Juggler {:.1}% (paper: 90.6%), Ernest {:.1}% (paper: 53.2%)",
        avg(&juggler_accs),
        avg(&ernest_accs)
    );
    bench::save_results(
        "fig12_prediction_accuracy",
        &serde_json::json!({
            "juggler_avg_accuracy_pct": avg(&juggler_accs),
            "ernest_avg_accuracy_pct": avg(&ernest_accs),
            "paper": {"juggler": 90.6, "ernest": 53.2},
        }),
    );
}
