//! Overhead of the hierarchical phase profiler, measured two ways:
//!
//! 1. **Recording enabled** — offline training (the instrumented path:
//!    stage scopes, NNLS/LOO-CV scopes, per-run simulator spans) with
//!    the profiler on vs off. This is the gated < 5 % budget: the
//!    simulator records per *run*, not per task, precisely so a full
//!    training sweep stays cheap to profile.
//! 2. **Armed idle** — the tax every normal run pays for the compiled-in
//!    call sites while the profiler is disabled. A disabled
//!    `prof::scope` is one relaxed atomic load, so this is measured
//!    directly as nanoseconds per call in a tight loop (informational;
//!    single-digit-ns numbers are too jittery to pin in a gate).
//!
//! Both states run interleaved best-of-`REPS` like the other overhead
//! benches so slow drift hits them evenly. Results land in
//! `results/BENCH_profile_overhead.json`.

use bench::harness::{self, Budget, LorBatch, BUDGET_PCT, ENGINE_RUNS};
use cluster_sim::RunOptions;

const REPS: usize = 9;
const IDLE_CALLS: u64 = 2_000_000;

/// Seconds of `f` with the profiler reset and set to `enabled`; the
/// profiler is disabled and cleared again afterwards, untimed.
fn with_profiler(enabled: bool, f: impl FnOnce() -> f64) -> f64 {
    let prof = obs::prof::profiler();
    prof.set_enabled(false);
    prof.reset();
    prof.set_enabled(enabled);
    let secs = f();
    prof.set_enabled(false);
    prof.reset();
    secs
}

fn main() {
    let config = harness::training_config();
    let [train_off, train_on] = harness::interleaved_best(REPS, [false, true], |enabled, _| {
        with_profiler(enabled, || harness::time_training(&config))
    });
    // Exercises the per-run `sim`/`faults`/`stages` spans and the
    // counter attribution path.
    let batch = LorBatch::new(0xF10);
    let [engine_off, engine_on] = harness::interleaved_best(REPS, [false, true], |enabled, rep| {
        with_profiler(enabled, || {
            batch.time(rep, |seed| batch.run(seed, |_| {}, RunOptions::default()))
        })
    });
    // Nanoseconds per disabled `prof::scope` call: the armed-idle tax.
    obs::prof::profiler().set_enabled(false);
    let idle_ns = harness::best_of(REPS, || {
        for _ in 0..IDLE_CALLS {
            let s = obs::prof::scope("bench/idle");
            std::hint::black_box(&s);
        }
    }) * 1e9
        / IDLE_CALLS as f64;

    let train_pct = harness::overhead_pct(train_off, train_on);
    let engine_pct = harness::overhead_pct(engine_off, engine_on);
    let gate = Budget::at_most(
        "profiling-enabled training overhead %",
        train_pct,
        BUDGET_PCT,
    );
    println!("\narmed idle (disabled scope call): {idle_ns:.1} ns (informational)");

    harness::publish(
        "profile_overhead",
        &format!("Phase-profiler overhead (best of {REPS}, interleaved)"),
        &["scenario", "prof off (s)", "prof on (s)", "overhead"],
        &[
            vec![
                "offline training (LOR)".to_string(),
                format!("{train_off:.4}"),
                format!("{train_on:.4}"),
                format!("{train_pct:+.2}%"),
            ],
            vec![
                format!("engine x{ENGINE_RUNS} (LOR paper scale)"),
                format!("{engine_off:.4}"),
                format!("{engine_on:.4}"),
                format!("{engine_pct:+.2}%"),
            ],
        ],
        &serde_json::json!({
            "workload": "LOR",
            "reps": REPS,
            "engine_runs_per_batch": ENGINE_RUNS,
            "enabled": {
                "prof_off_seconds": train_off,
                "prof_on_seconds": train_on,
                "overhead_pct": train_pct,
            },
            "engine_batch": {
                "prof_off_seconds": engine_off,
                "prof_on_seconds": engine_on,
                "overhead_pct": engine_pct,
            },
            "armed_idle": {
                "ns_per_scope": idle_ns,
            },
            "budget_pct": BUDGET_PCT,
            "within_budget": gate.met(),
        }),
        &[gate],
    );
}
