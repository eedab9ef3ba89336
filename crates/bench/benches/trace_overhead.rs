//! Overhead of the structured trace layer, measured two ways:
//!
//! 1. **Engine hot path** — a batch of paper-scale LOR runs with tracing
//!    off vs on (informational; sub-100ms batches are jittery on shared
//!    machines, so this number is reported but not gated).
//! 2. **Offline training** (the `training_parallel` scenario) with
//!    `TrainingConfig::trace` off vs on — this is the gated < 5 % budget.
//!
//! Results land in `results/BENCH_trace_overhead.json`.

use bench::harness::{self, Budget, LorBatch, BUDGET_PCT, ENGINE_RUNS};
use cluster_sim::{RunOptions, TraceConfig};
use juggler::pipeline::TrainingConfig;

const REPS: usize = 9;

fn main() {
    let states = [TraceConfig::default(), TraceConfig::enabled()];
    let batch = LorBatch::new(0xA11);
    let [engine_off, engine_on] = harness::interleaved_best(REPS, states, |trace, rep| {
        batch.time(rep, |seed| {
            let report = batch.run(
                seed,
                |_| {},
                RunOptions {
                    trace,
                    ..RunOptions::default()
                },
            );
            assert_eq!(report.trace.is_some(), trace.enabled);
            report
        })
    });
    let [train_off, train_on] = harness::interleaved_best(REPS, states, |trace, _| {
        harness::time_training(&TrainingConfig {
            trace,
            ..harness::training_config()
        })
    });

    let engine_pct = harness::overhead_pct(engine_off, engine_on);
    let train_pct = harness::overhead_pct(train_off, train_on);
    let gate = Budget::at_most("trace-enabled training overhead %", train_pct, BUDGET_PCT);

    harness::publish(
        "trace_overhead",
        &format!("Structured-trace overhead (best of {REPS}, interleaved)"),
        &["scenario", "trace off (s)", "trace on (s)", "overhead"],
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
                "trace_off_seconds": engine_off,
                "trace_on_seconds": engine_on,
                "overhead_pct": engine_pct,
            },
            "offline_training": {
                "trace_off_seconds": train_off,
                "trace_on_seconds": train_on,
                "overhead_pct": train_pct,
            },
            "budget_pct": BUDGET_PCT,
            "within_budget": gate.met(),
        }),
        &[gate],
    );
}
