//! Shared harness utilities for the experiment benches.
//!
//! Every paper table and figure has a `[[bench]]` target (with
//! `harness = false`) that regenerates its rows/series from the simulator;
//! this crate holds the pieces they share: paper-scale actual runs,
//! 1–12-machine sweeps, optimal-configuration search, and plain-text table
//! rendering. The overhead and throughput benches time their work through
//! [`harness`].

#![forbid(unsafe_code)]

pub mod harness;

use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions, RunReport};
use dagflow::Schedule;
use juggler::pipeline::{OfflineTraining, TrainedJuggler, TrainingConfig};
use workloads::{Workload, WorkloadParams};

/// The machine-count range every evaluation sweep uses (§7.1: "we run
/// every schedule on 12 different configurations (1–12 machines)").
pub const MACHINE_RANGE: std::ops::RangeInclusive<u32> = 1..=12;

/// Deterministic seed base for actual runs (offset per machine count so
/// different configurations see different noise, like different days on a
/// real cluster).
pub const RUN_SEED: u64 = 0xAC7A;

/// One actual run of a workload at given parameters.
#[must_use]
pub fn actual_run(
    w: &dyn Workload,
    params: &WorkloadParams,
    schedule: &Schedule,
    machines: u32,
    spec: MachineSpec,
) -> RunReport {
    let app = w.build(params);
    let mut sim = w.sim_params();
    sim.seed = RUN_SEED ^ (u64::from(machines) << 8);
    let engine = Engine::new(&app, ClusterConfig::new(machines, spec), sim);
    engine
        .run(
            schedule,
            RunOptions {
                collect_traces: false,
                partition_skew: 0.15,
                ..RunOptions::default()
            },
        )
        .expect("schedule validated upstream")
}

/// Runs a schedule on every configuration of [`MACHINE_RANGE`] on the
/// shared scoped worker pool (runs are independent and seeded per machine
/// count, so the parallel sweep is bit-identical to the sequential one;
/// `JUGGLER_THREADS` caps the pool).
#[must_use]
pub fn sweep(
    w: &dyn Workload,
    params: &WorkloadParams,
    schedule: &Schedule,
    spec: MachineSpec,
) -> Vec<RunReport> {
    let app = w.build(params);
    let sim_base = w.sim_params();
    // One prep and one schedule clone for the whole sweep: the engine
    // derives both from the app alone, so the 12 configurations differ
    // only in their cluster (which `with_prep` takes per engine).
    let prep = std::sync::Arc::new(cluster_sim::EnginePrep::new(&app));
    let shared = std::sync::Arc::new(schedule.clone());
    let machines: Vec<u32> = MACHINE_RANGE.collect();
    juggler::parallel::run_indexed(machines.len(), 0, |i| {
        let m = machines[i];
        let mut sim = sim_base.clone();
        sim.seed = RUN_SEED ^ (u64::from(m) << 8);
        let engine = Engine::with_prep(
            &app,
            ClusterConfig::new(m, spec),
            sim,
            std::sync::Arc::clone(&prep),
        );
        engine
            .run_shared(
                &shared,
                RunOptions {
                    collect_traces: false,
                    partition_skew: 0.15,
                    ..RunOptions::default()
                },
            )
            .expect("schedule validated upstream")
    })
}

/// The configuration with minimal cost in a sweep: `(machines, cost
/// machine-minutes, time seconds)`.
#[must_use]
pub fn optimal_config(sweep: &[RunReport]) -> (u32, f64, f64) {
    sweep
        .iter()
        .map(|r| (r.machines, r.cost_machine_minutes(), r.total_time_s))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
        .expect("sweep non-empty")
}

/// Minimal cost over a sweep, machine-minutes.
#[must_use]
pub fn minimal_cost(sweep: &[RunReport]) -> f64 {
    optimal_config(sweep).1
}

/// Trains Juggler for a workload with the default (paper) configuration.
#[must_use]
pub fn train(w: &dyn Workload) -> TrainedJuggler {
    OfflineTraining::run(w, &TrainingConfig::default()).expect("training succeeds")
}

/// Trains Juggler for every evaluated workload, whole workloads fanned
/// across the worker pool (each training itself sequential so the pool is
/// not oversubscribed). Returns artifacts in [`workloads()`] order —
/// bit-identical to training them one by one.
#[must_use]
pub fn train_all() -> Vec<TrainedJuggler> {
    let ws = workloads();
    juggler::parallel::run_indexed(ws.len(), 0, |i| {
        let config = TrainingConfig {
            threads: 1,
            ..TrainingConfig::default()
        };
        OfflineTraining::run(ws[i].as_ref(), &config).expect("training succeeds")
    })
}

/// All five evaluated workloads.
#[must_use]
pub fn workloads() -> Vec<Box<dyn Workload>> {
    workloads::all_workloads()
}

/// Renders an aligned plain-text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The workspace-level `results/` directory every bench writes its
/// `BENCH_*.json` artifact to. `juggler perf-report` gates the same
/// directory against `results/baselines/`, so emission and gating agree
/// on the location by construction.
#[must_use]
pub fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Persists a bench's headline numbers as JSON under [`results_dir`], so
/// runs are diffable across calibration changes and gateable by
/// `juggler perf-report`. Failures to write are reported but non-fatal —
/// benches must not die on a read-only checkout.
pub fn save_results(bench_name: &str, value: &serde_json::Value) {
    let dir = results_dir();
    let write = || -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{bench_name}.json"));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(value).expect("serializable"),
        )?;
        Ok(path)
    };
    match write() {
        Ok(path) => println!("\n[results saved to {}]", path.display()),
        Err(e) => eprintln!("\n[could not save results: {e}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_config_picks_min_cost() {
        let w = workloads::Pca;
        let p = WorkloadParams::auto(1_000, 500, 2);
        let app_schedule = Schedule::empty();
        let runs: Vec<RunReport> = (1..=3)
            .map(|m| actual_run(&w, &p, &app_schedule, m, MachineSpec::private_cluster()))
            .collect();
        let (m, cost, _) = optimal_config(&runs);
        for r in &runs {
            assert!(r.cost_machine_minutes() >= cost - 1e-9);
        }
        assert!(MACHINE_RANGE.contains(&m));
    }
}
