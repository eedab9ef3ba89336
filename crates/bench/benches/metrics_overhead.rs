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

use bench::harness::{self, Budget, LorBatch, BUDGET_PCT, ENGINE_RUNS};
use cluster_sim::RunOptions;

const REPS: usize = 9;

/// A fresh registry installed on this thread when `enabled`, none when not.
fn scope(enabled: bool) -> Option<obs::InstallGuard> {
    enabled.then(|| Arc::new(obs::Registry::new()).install())
}

fn main() {
    let batch = LorBatch::new(0xB22);
    let [engine_off, engine_on] = harness::interleaved_best(REPS, [false, true], |enabled, rep| {
        let _scope = scope(enabled);
        batch.time(rep, |seed| batch.run(seed, |_| {}, RunOptions::default()))
    });
    let config = harness::training_config();
    let [train_off, train_on] = harness::interleaved_best(REPS, [false, true], |enabled, _| {
        let _scope = scope(enabled);
        harness::time_training(&config)
    });

    let engine_pct = harness::overhead_pct(engine_off, engine_on);
    let train_pct = harness::overhead_pct(train_off, train_on);
    let gate = Budget::at_most("metrics-enabled training overhead %", train_pct, BUDGET_PCT);

    harness::publish(
        "metrics_overhead",
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
            "budget_pct": BUDGET_PCT,
            "within_budget": gate.met(),
        }),
        &[gate],
    );
}
