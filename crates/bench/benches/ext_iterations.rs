//! §6.1 extension — the number of iterations.
//!
//! The paper's two claims:
//!
//! 1. **Optimization is iteration-independent**: the iteration count does
//!    not change cached-dataset sizes, so the recommended machine count
//!    is identical for any iteration count.
//! 2. **Prediction needs an extended model**: "another (linear) execution
//!    time model can be extracted from the main execution time model by
//!    carrying out additional experiments" — here, stage-4 runs over an
//!    iterations axis, fit to the `θ·e·f·i`-style families.

use bench::print_table;
use cluster_sim::{ClusterConfig, Engine, RunOptions};
use juggler::pipeline::OfflineTraining;
use modeling::accuracy_pct;
use workloads::{LogisticRegression, Workload, WorkloadParams};

fn main() {
    let w = LogisticRegression;
    let config = juggler::pipeline::TrainingConfig::default();
    let trained = bench::train(&w);

    // 1. Machine recommendations are independent of iterations (sizes do
    //    not depend on the iteration count).
    let p = w.paper_params();
    let m_any = trained.machines_for(0, p.e(), p.f());
    println!(
        "Recommended machines for schedule #1 at any iteration count: {m_any} \
         (sizes are iteration-independent; §6.1 optimization claim)."
    );

    // 2. Iteration-aware models trained at 10/25/50 iterations, evaluated
    //    at unseen counts including extrapolation to 100.
    let models = OfflineTraining::fit_iteration_models(&w, &config, &trained, &[10, 25, 50])
        .expect("iteration models fit");
    let base = &trained.time_models[0];
    let ext = &models[0];

    let mut rows = Vec::new();
    for &iters in &[10u32, 30, 50, 80, 100] {
        let params = WorkloadParams::auto(p.examples, p.features, iters);
        let app = w.build(&params);
        let machines = trained.machines_for(0, p.e(), p.f());
        let mut sim = w.sim_params();
        sim.seed = 0x1734 ^ u64::from(iters);
        let actual = Engine::new(&app, ClusterConfig::new(machines, trained.target_spec), sim)
            .run(&trained.schedules[0].schedule, RunOptions::default())
            .expect("run succeeds")
            .total_time_s;
        let naive = base.predict(p.e(), p.f()); // trained at 50 iterations only
        let aware = ext.predict_with_iterations(p.e(), p.f(), f64::from(iters));
        rows.push(vec![
            iters.to_string(),
            obs::fmt_duration_s(actual),
            obs::fmt_duration_s(naive),
            format!("{:.0}%", accuracy_pct(naive, actual)),
            obs::fmt_duration_s(aware),
            format!("{:.0}%", accuracy_pct(aware, actual)),
        ]);
    }
    print_table(
        "§6.1: LOR schedule #1 across iteration counts",
        &[
            "iterations",
            "actual",
            "base model",
            "acc",
            "iteration-aware",
            "acc",
        ],
        &rows,
    );
    println!(
        "\nThe base model (trained at the Table 1 iteration count) collapses away \
         from it; the iteration-aware family stays accurate, including the 2x \
         extrapolation to 100 iterations."
    );
}
