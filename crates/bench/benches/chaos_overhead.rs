//! Overhead of the chaos machinery when no fault fires: a batch of
//! paper-scale LOR runs with untouched `SimParams` vs the chaos
//! apparatus *armed but idle* — a four-event fault plan scheduled far
//! beyond the end of the run (tracked at every job boundary, never
//! firing) under the default retry policy. That is exactly the state
//! every fault-free run carries, so its overhead is the chaos tax on
//! the hot path. Gated budget: < 5 %.
//!
//! A third batch additionally enables speculative execution with an
//! unreachable multiplier, so straggler statistics (a running median of
//! completed task durations) are maintained for every task without a
//! copy ever launching. Speculation is opt-in — the default policy does
//! not pay for it — so this row is reported but not gated, mirroring
//! the jittery engine batch of `trace_overhead`. Results land in
//! `results/BENCH_chaos_overhead.json`.

use bench::harness::{self, Budget, LorBatch, BUDGET_PCT, ENGINE_RUNS};
use cluster_sim::{FaultKind, FaultPlan, RetryPolicy, RunOptions, SimParams};

const REPS: usize = 15;

/// Which chaos state a batch runs under.
#[derive(Clone, Copy, PartialEq)]
enum State {
    /// Untouched `SimParams`: no plan, default policy.
    Plain,
    /// Never-firing four-event plan, default retry policy — the armed
    /// state of every real fault-free run.
    ArmedIdle,
    /// Never-firing plan plus speculation tracking that can never
    /// trigger a copy (unreachable multiplier).
    SpeculationArmed,
}

/// A plan whose events can never fire.
fn never_plan() -> FaultPlan {
    let never = 1.0e9;
    FaultPlan::none()
        .event(never, FaultKind::ExecutorLoss { machine: 1 })
        .event(
            never,
            FaultKind::SlowNode {
                machine: 0,
                factor: 2.0,
                duration_s: 1.0,
            },
        )
        .event(never, FaultKind::TaskFailures { count: 1 })
        .event(
            never,
            FaultKind::MemoryPressure {
                machine: 0,
                bytes: 1,
                duration_s: 1.0,
            },
        )
}

fn apply(state: State) -> impl Fn(&mut SimParams) {
    move |params| match state {
        State::Plain => {}
        State::ArmedIdle => {
            params.faults = never_plan();
            params.retry = RetryPolicy::default();
        }
        State::SpeculationArmed => {
            params.faults = never_plan();
            params.retry = RetryPolicy {
                speculation: true,
                speculation_multiplier: 1.0e9,
                ..RetryPolicy::default()
            };
        }
    }
}

fn main() {
    let batch = LorBatch::new(0xC4A0);

    // Correctness preflight: armed-but-idle chaos must not change the
    // simulated outcome — with or without speculation tracking — only
    // (at most) the wall-clock of simulating it.
    let plain = batch.run(0xC4A05, apply(State::Plain), RunOptions::default());
    for state in [State::ArmedIdle, State::SpeculationArmed] {
        let armed = batch.run(0xC4A05, apply(state), RunOptions::default());
        assert_eq!(plain.total_time_s, armed.total_time_s);
        assert_eq!(plain.total_tasks, armed.total_tasks);
        assert_eq!(armed.task_attempts, armed.total_tasks);
        assert_eq!(armed.faults.speculative_launched, 0);
        assert!(armed.faults.outcomes.iter().all(|o| !o.fired));
    }

    let states = [State::Plain, State::ArmedIdle, State::SpeculationArmed];
    let [best_plain, best_armed, best_spec] = harness::interleaved_best(REPS, states, |s, rep| {
        batch.time(rep, |seed| batch.run(seed, apply(s), RunOptions::default()))
    });
    let armed_pct = harness::overhead_pct(best_plain, best_armed);
    let spec_pct = harness::overhead_pct(best_plain, best_spec);
    let gate = Budget::at_most("armed-idle chaos overhead %", armed_pct, BUDGET_PCT);

    harness::publish(
        "chaos_overhead",
        &format!("Chaos-machinery overhead with no faults (best of {REPS}, interleaved)"),
        &["scenario", "batch (s)", "overhead", "gated"],
        &[
            vec![
                format!("plain x{ENGINE_RUNS} (LOR paper scale)"),
                format!("{best_plain:.4}"),
                String::from("—"),
                String::from("baseline"),
            ],
            vec![
                String::from("armed idle (default policy)"),
                format!("{best_armed:.4}"),
                format!("{armed_pct:+.2}%"),
                String::from("< 5%"),
            ],
            vec![
                String::from("speculation armed (opt-in)"),
                format!("{best_spec:.4}"),
                format!("{spec_pct:+.2}%"),
                String::from("informational"),
            ],
        ],
        &serde_json::json!({
            "workload": "LOR",
            "reps": REPS,
            "engine_runs_per_batch": ENGINE_RUNS,
            "plain_seconds": best_plain,
            "armed_idle": {
                "seconds": best_armed,
                "overhead_pct": armed_pct,
            },
            "speculation_armed": {
                "seconds": best_spec,
                "overhead_pct": spec_pct,
            },
            "budget_pct": BUDGET_PCT,
            "within_budget": gate.met(),
        }),
        &[gate],
    );
}
