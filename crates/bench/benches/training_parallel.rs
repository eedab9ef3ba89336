//! Wall-clock benchmark of the parallel experiment runner: offline
//! training of a multi-schedule workload, sequential vs parallel across
//! thread counts. Verifies on the way that every thread count yields a
//! byte-identical artifact, then records the timings (and speedups over
//! the sequential run) to `results/BENCH_training_parallel.json`. On a
//! host with at least 8 cores the run fails below a 4× speedup at 8
//! threads.

use bench::harness::{self, Budget};
use juggler::pipeline::{OfflineTraining, TrainedJuggler, TrainingConfig};
use workloads::{LogisticRegression, Workload};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

fn train(threads: usize) -> TrainedJuggler {
    let config = TrainingConfig {
        threads,
        ..TrainingConfig::default()
    };
    OfflineTraining::run(&LogisticRegression, &config).expect("training succeeds")
}

fn artifact(trained: &TrainedJuggler) -> String {
    serde_json::to_string(trained).expect("artifact serializes")
}

fn main() {
    // LOR has a multi-schedule family (Table 2), so stage 4 fans a
    // (schedules × 9)-cell matrix — the case the runner is built for.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("host parallelism: {cores}");

    // Every timed run at every thread count must reproduce the
    // sequential warm-up artifact byte for byte.
    let reference = artifact(&train(1));
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut baseline_s = 0.0;
    let mut speedup_at_8 = 0.0;
    for threads in THREAD_COUNTS {
        let best = harness::best_reproducing(REPS, &reference, || train(threads), artifact);
        if threads == 1 {
            baseline_s = best;
        }
        // A speedup claim is only meaningful when the host can actually
        // run that many workers; oversubscribed points (threads beyond
        // host parallelism) still verify determinism, but their timing is
        // marked ungated so downstream gates must not consume it.
        let gated = threads <= cores;
        let speedup = baseline_s / best;
        if threads == 8 {
            speedup_at_8 = speedup;
        }
        rows.push(vec![
            threads.to_string(),
            format!("{best:.3}"),
            format!("{speedup:.2}x"),
            if gated {
                "yes".into()
            } else {
                "no (oversubscribed)".into()
            },
        ]);
        series.push(serde_json::json!({
            "threads": threads,
            "best_seconds": best,
            "speedup_vs_sequential": speedup,
            "gated": gated,
        }));
    }

    // The ≥4× speedup-at-8-threads gate only applies on hosts with at
    // least 8 cores; elsewhere it is skipped with an explicit note so a
    // 1-core CI box cannot silently "pass" (or fail) a claim it cannot
    // measure.
    let gate_applicable = cores >= 8;
    let gate = gate_applicable
        .then(|| Budget::at_least("training speedup at 8 threads", speedup_at_8, 4.0));
    if !gate_applicable {
        println!(
            "speedup gate (>=4x at 8 threads): SKIPPED — host parallelism \
             is {cores}, below the 8 workers the gate needs"
        );
    }

    harness::publish(
        "training_parallel",
        &format!("Offline training wall clock (LOR, best of {REPS})"),
        &["threads", "seconds", "speedup", "gated"],
        &rows,
        &serde_json::json!({
            "workload": LogisticRegression.name(),
            "reps": REPS,
            "host_parallelism": cores,
            "artifacts_identical": true,
            "speedup_gate": {
                "required_at_8_threads": 4.0,
                "applicable": gate_applicable,
                "note": if gate_applicable {
                    "host has >=8 cores; gate enforced".to_string()
                } else {
                    format!("host parallelism {cores} < 8; gate skipped")
                },
            },
            "series": series,
        }),
        gate.as_slice(),
    );
}
