//! The trace layer's determinism contract: structured traces are part of
//! the run result, so they must be bit-identical no matter how many
//! worker threads the runs are fanned across — every simulated run owns
//! its RNG seed, timestamps are quantized to integer microseconds, and
//! the exporters emit integers only.

use juggler_suite::cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions};
use juggler_suite::dagflow::{DatasetId, Schedule};
use juggler_suite::juggler::run_indexed;
use juggler_suite::workloads::{LogisticRegression, Workload};

/// Runs `n` traced simulations across `threads` workers and returns each
/// run's serialized event stream (JSONL) and Chrome export.
fn traced_streams(n: usize, threads: usize) -> Vec<(String, String)> {
    let w = LogisticRegression;
    let app = w.build(&w.sample_params());
    let schedule = Schedule::persist_all([DatasetId(1)]);
    run_indexed(n, threads, |i| {
        let mut params = w.sim_params();
        params.seed = 0xBEEF ^ (i as u64);
        let engine = Engine::new(
            &app,
            ClusterConfig::new(2, MachineSpec::private_cluster()),
            params,
        );
        let report = engine
            .run(
                &schedule,
                RunOptions {
                    trace: true,
                    ..RunOptions::default()
                },
            )
            .expect("run succeeds");
        let trace = report.trace.expect("trace enabled");
        (trace.to_jsonl(), trace.to_chrome_json("determinism"))
    })
}

#[test]
fn traced_runs_emit_identical_event_streams_at_any_thread_count() {
    let sequential = traced_streams(6, 1);
    assert!(!sequential.is_empty());
    assert!(sequential
        .iter()
        .all(|(jsonl, chrome)| { !jsonl.is_empty() && chrome.starts_with('{') }));
    for threads in [2, 8] {
        let parallel = traced_streams(6, threads);
        assert_eq!(
            sequential, parallel,
            "trace streams differ between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn repeated_traced_runs_are_bit_identical() {
    let a = traced_streams(2, 1);
    let b = traced_streams(2, 1);
    assert_eq!(a, b);
}
