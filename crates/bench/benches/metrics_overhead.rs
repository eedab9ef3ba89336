//! Overhead of the metrics registry, measured two ways:
//!
//! 1. **Engine hot path** — a batch of paper-scale LOR runs with no
//!    registry in scope ("off") vs one installed around the batch ("on")
//!    (informational; sub-100ms batches are jittery on shared machines,
//!    so this number is reported but not gated).
//! 2. **Offline training** off vs on — this is the gated < 5 % budget:
//!    each call site asks `Registry::current()` once, so the off path
//!    must stay essentially free and the on path is a handful of relaxed
//!    atomic ops per run.
//!
//! Results land in `results/BENCH_metrics_overhead.json`.

use std::sync::Arc;
use std::time::Instant;

use bench::print_table;
use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions};
use juggler::pipeline::{OfflineTraining, TrainingConfig};
use workloads::{LogisticRegression, Workload};

const ENGINE_RUNS: usize = 24;
const REPS: usize = 9;

/// A fresh registry installed on this thread when `enabled`, none when not.
fn scope(enabled: bool) -> Option<obs::InstallGuard> {
    enabled.then(|| Arc::new(obs::Registry::new()).install())
}

/// One timed batch of engine runs with the registry in the given state.
fn engine_batch_once(enabled: bool, rep: usize) -> f64 {
    let w = LogisticRegression;
    let app = w.build(&w.paper_params());
    let schedule = app.default_schedule().clone();
    let _scope = scope(enabled);
    let t0 = Instant::now();
    for i in 0..ENGINE_RUNS {
        let mut params = w.sim_params();
        params.seed = 0xB22 + (rep * ENGINE_RUNS + i) as u64;
        let report = Engine::new(
            &app,
            ClusterConfig::new(4, MachineSpec::private_cluster()),
            params,
        )
        .run(&schedule, RunOptions::default())
        .expect("run succeeds");
        std::hint::black_box(&report);
    }
    t0.elapsed().as_secs_f64()
}

/// One timed offline training (threads = 1 for a stable measurement).
fn training_once(enabled: bool) -> f64 {
    let w = LogisticRegression;
    let config = TrainingConfig {
        threads: 1,
        ..TrainingConfig::default()
    };
    let _scope = scope(enabled);
    let t0 = Instant::now();
    let trained = OfflineTraining::run(&w, &config).expect("training succeeds");
    let elapsed = t0.elapsed().as_secs_f64();
    std::hint::black_box(&trained);
    elapsed
}

/// Best-of-`REPS` for the off and on states, *interleaved* so slow
/// drift (thermal, background load) hits both states evenly instead of
/// whichever happened to run second.
fn interleaved_best(mut measure: impl FnMut(bool, usize) -> f64) -> (f64, f64) {
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..REPS {
        best_off = best_off.min(measure(false, rep));
        best_on = best_on.min(measure(true, rep));
    }
    (best_off, best_on)
}

fn pct(off: f64, on: f64) -> f64 {
    if off <= 0.0 {
        0.0
    } else {
        (on - off) / off * 100.0
    }
}

fn main() {
    let (engine_off, engine_on) = interleaved_best(engine_batch_once);
    let (train_off, train_on) = interleaved_best(|enabled, _| training_once(enabled));

    let engine_pct = pct(engine_off, engine_on);
    let train_pct = pct(train_off, train_on);

    print_table(
        &format!("Metrics-registry overhead (best of {REPS}, interleaved)"),
        &["scenario", "metrics off (s)", "metrics on (s)", "overhead"],
        &[
            vec![
                format!("engine x{ENGINE_RUNS} (LOR paper scale)"),
                format!("{engine_off:.4}"),
                format!("{engine_on:.4}"),
                format!("{engine_pct:+.2}%"),
            ],
            vec![
                "offline training (LOR)".to_string(),
                format!("{train_off:.4}"),
                format!("{train_on:.4}"),
                format!("{train_pct:+.2}%"),
            ],
        ],
    );
    let within_budget = train_pct < 5.0;
    println!(
        "\ntraining metrics-enabled overhead within the 5% budget: {within_budget} \
         (engine batch is informational)"
    );

    bench::save_results(
        "BENCH_metrics_overhead",
        &serde_json::json!({
            "workload": "LOR",
            "reps": REPS,
            "engine_runs_per_batch": ENGINE_RUNS,
            "engine_batch": {
                "metrics_off_seconds": engine_off,
                "metrics_on_seconds": engine_on,
                "overhead_pct": engine_pct,
            },
            "offline_training": {
                "metrics_off_seconds": train_off,
                "metrics_on_seconds": train_on,
                "overhead_pct": train_pct,
            },
            "budget_pct": 5.0,
            "within_budget": within_budget,
        }),
    );
    assert!(
        within_budget,
        "metrics-enabled training overhead {train_pct:.2}% exceeds the 5% budget"
    );
}
