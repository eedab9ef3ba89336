//! Single-run simulator throughput at paper scale.
//!
//! Offline training is dominated by stage-4 grid cells, each of which is
//! one paper-scale simulated run (LOR: ~56 jobs, ~11k tasks). This bench
//! times two shapes of that work and records them to
//! `results/BENCH_sim_throughput.json`:
//!
//! * `run_only` — a single `Engine::run` on a prebuilt engine: the pure
//!   simulator hot path (block store, task walks, wave scheduling);
//! * `grid_cell` — one stage-4 cell as the training pipeline executes it:
//!   a cheap `Engine::with_prep` handle on the app and prep shared per
//!   grid point, plus the run.
//!
//! Determinism is asserted on the way: every timed run must reproduce the
//! digest of the warm-up run exactly. No budget is enforced here;
//! `juggler perf-report` holds each scenario's best seconds to a multiple
//! of the committed baseline's.
//!
//! `cargo bench --offline -p bench --bench sim_throughput -- --baseline
//! <file>` also embeds an artifact this bench wrote at another commit,
//! with each scenario's speedup over it: run the bench at the parent
//! commit, keep its artifact, then run it here with that file.
//!
//! The artifact also embeds a phase profile of one (untimed) run under a
//! `"profile"` key. `juggler perf-report` diffs it against the baseline's
//! embedded profile when a throughput check trips, so a regression
//! report names the phases that slowed down instead of just the headline
//! number.

use std::sync::Arc;

use bench::harness;
use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions, RunReport};
use serde::Deserialize;
use workloads::{LogisticRegression, Workload};

/// Best-of-`REPS` minimum. The reference host has a fast and a slow state
/// that each last seconds, so one invocation's minimum reads ~1.5 or
/// ~2.2 ms; 60 reps (~0.1 s of runs, against ~20 ms at 9) catch the fast
/// state more often. The gate in `obs::perf` allows for the slow one.
const REPS: usize = 60;

/// The part of an earlier artifact of this bench that a run compares
/// against.
#[derive(Deserialize)]
struct Baseline {
    run_only: BaselineScenario,
    grid_cell: BaselineScenario,
}

#[derive(Deserialize)]
struct BaselineScenario {
    best_seconds: f64,
}

fn main() {
    let base = harness::baseline::<Baseline>();
    let w = LogisticRegression;
    let params = w.paper_params();
    let app = w.build(&params);
    let sim = w.sim_params();
    let cluster = ClusterConfig::new(8, MachineSpec::private_cluster());
    let schedule = Arc::new(app.default_schedule().clone());

    // Warm-up run pins the digest every timed run must reproduce.
    let engine = Engine::new(&app, cluster, sim.clone());
    let warm = engine
        .run_shared(&schedule, RunOptions::default())
        .expect("default schedule validates");
    let digest = warm.digest();
    let tasks = warm.total_tasks;

    let run = || {
        engine
            .run_shared(&schedule, RunOptions::default())
            .expect("default schedule validates")
    };
    let best_run = harness::best_reproducing(REPS, &digest, run, RunReport::digest);

    // One shared app + prep, as the stage-4 fan-out holds them per grid
    // point; the timed region is one cell's share of the work.
    let prep = Arc::clone(engine.prep());
    let cell = || {
        Engine::with_prep(&app, cluster, sim.clone(), Arc::clone(&prep))
            .run_shared(&schedule, RunOptions::default())
            .expect("default schedule validates")
    };
    let best_cell = harness::best_reproducing(REPS, &digest, cell, RunReport::digest);

    // One profiled (untimed) run for the embedded phase attribution.
    let prof = obs::prof::profiler();
    prof.set_enabled(false);
    prof.reset();
    prof.enable();
    let r = engine
        .run_shared(&schedule, RunOptions::default())
        .expect("default schedule validates");
    assert_eq!(r.digest(), digest, "profiled run must be bit-identical");
    let profile = prof.take_profile();
    prof.set_enabled(false);

    let scenarios = [
        (
            "run_only",
            best_run,
            base.as_ref().map(|(_, b)| &b.run_only),
        ),
        (
            "grid_cell",
            best_cell,
            base.as_ref().map(|(_, b)| &b.grid_cell),
        ),
    ];
    let mut table = Vec::new();
    let mut json = serde_json::json!({
        "commit": harness::commit(),
        "workload": w.name(),
        "reps": REPS,
        "machines": 8,
        "tasks_per_run": tasks,
        "digests_stable": true,
    });
    for (name, best, before) in scenarios {
        let mut cells = vec![
            name.to_owned(),
            format!("{best:.4}"),
            format!("{:.0}", tasks as f64 / best),
        ];
        let mut entry = serde_json::json!({
            "best_seconds": best,
            "tasks_per_second": tasks as f64 / best,
        });
        if let Some(before) = before {
            let speedup = before.best_seconds / best;
            cells.extend([
                format!("{:.4}", before.best_seconds),
                format!("{speedup:.3}x"),
            ]);
            entry["baseline_seconds"] = serde_json::json!(before.best_seconds);
            entry["speedup_vs_baseline"] = serde_json::json!(speedup);
        }
        table.push(cells);
        json[name] = entry;
    }
    json["profile"] = profile.to_value();
    let mut header = vec!["scenario", "seconds", "tasks/s"];
    if let Some((raw, _)) = base {
        header.extend(["baseline s", "speedup"]);
        json["baseline"] = raw;
    }
    harness::publish(
        "sim_throughput",
        &format!("Single-run simulator throughput (LOR paper scale, best of {REPS})"),
        &header,
        &table,
        &json,
        &[],
    );
}
