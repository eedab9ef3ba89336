//! §6.1 (second half) — hyper-parameters in the execution-time model.
//!
//! "Some hyper-parameters, like the number of clusters in K-MEANS,
//! influence … the execution time of each iteration. Similar to the
//! number of iterations, these hyper-parameters are to be considered when
//! Juggler builds the execution time model."
//!
//! K-Means (the extension workload) is trained with a third model axis
//! bound to the cluster count `k`; the extended family predicts across
//! unseen `k`, while a fixed-`k` model cannot.

use bench::print_table;
use cluster_sim::{ClusterConfig, Engine, RunOptions};
use juggler::TimeModel;
use modeling::accuracy_pct;
use workloads::{KMeans, Workload, WorkloadParams};

fn actual(k: u32, e: f64, f: f64, machines: u32, seed: u64) -> f64 {
    let w = KMeans { clusters: k };
    let params = WorkloadParams::auto(e as u64, f as u64, w.paper_params().iterations);
    let app = w.build(&params);
    let mut sim = w.sim_params();
    sim.seed = seed;
    Engine::new(
        &app,
        ClusterConfig::new(machines, cluster_sim::MachineSpec::private_cluster()),
        sim,
    )
    .run(&app.default_schedule().clone(), RunOptions::default())
    .expect("run succeeds")
    .total_time_s
}

fn main() {
    let base = KMeans::default();
    let paper = base.paper_params();
    let machines = 2;

    // Training grid: (e, f) × k ∈ {5, 15, 30}; the hyper-parameter rides
    // in the model's third (iterations) slot.
    let (e_axis, f_axis) = base.training_axes();
    let mut points = Vec::new();
    for &e in &e_axis {
        for &f in &f_axis {
            for &k in &[5u32, 15, 30] {
                points.push((
                    e,
                    f,
                    f64::from(k),
                    actual(k, e, f, machines, 0xAB ^ u64::from(k)),
                ));
            }
        }
    }
    let extended = TimeModel::fit_with_iterations(0, &points).expect("fits");

    // Fixed-k baseline trained only at k = 10.
    let fixed_points: Vec<(f64, f64, f64)> = e_axis
        .iter()
        .flat_map(|&e| {
            f_axis
                .iter()
                .map(move |&f| (e, f, actual(10, e, f, machines, 0xCD ^ (e as u64))))
        })
        .collect();
    let fixed = TimeModel::fit(0, &fixed_points).expect("fits");

    let mut rows = Vec::new();
    for &k in &[5u32, 10, 20, 40, 60] {
        let truth = actual(k, paper.e(), paper.f(), machines, 0xEF ^ u64::from(k));
        let ext_pred = extended.predict_with_iterations(paper.e(), paper.f(), f64::from(k));
        let fixed_pred = fixed.predict(paper.e(), paper.f());
        rows.push(vec![
            k.to_string(),
            obs::fmt_duration_s(truth),
            obs::fmt_duration_s(ext_pred),
            format!("{:.0}%", accuracy_pct(ext_pred, truth)),
            obs::fmt_duration_s(fixed_pred),
            format!("{:.0}%", accuracy_pct(fixed_pred, truth)),
        ]);
    }
    print_table(
        "§6.1: K-Means across the cluster-count hyper-parameter",
        &[
            "k",
            "actual",
            "k-aware model",
            "acc",
            "fixed-k model",
            "acc",
        ],
        &rows,
    );
    println!(
        "\nThe hyper-parameter-extended family tracks unseen k (including 2x \
         extrapolation to k = 60); a model trained at one k cannot."
    );
}
