//! Figure 1 — "Selection of appropriate datasets for caching (LIR)".
//!
//! HiBench's Linear Regression caches nothing, so each of the 10 SGD
//! iterations re-reads the 35.8 GB input. The paper modifies LIR to cache
//! the parsed input dataset (35.9 GB) and observes execution time dropping
//! to 54.8 % and cost to 34.3 % on average across 1–12 machines.
//!
//! This bench reruns exactly that experiment: the default (cache-nothing)
//! schedule vs `p(1)` on every configuration.

use bench::print_table;
use cluster_sim::MachineSpec;
use dagflow::{DatasetId, Schedule};
use workloads::{LinearRegression, Workload};

fn main() {
    let w = LinearRegression;
    let params = w.paper_params();
    let spec = MachineSpec::private_cluster();

    let default = Schedule::empty();
    let cached = Schedule::persist_all([DatasetId(1)]);

    let sweep_default = bench::sweep(&w, &params, &default, spec);
    let sweep_cached = bench::sweep(&w, &params, &cached, spec);

    let mut time_ratios = Vec::new();
    let mut cost_ratios = Vec::new();
    let rows: Vec<Vec<String>> = sweep_default
        .iter()
        .zip(&sweep_cached)
        .map(|(d, c)| {
            let tr = c.total_time_s / d.total_time_s;
            let cr = c.cost_machine_minutes() / d.cost_machine_minutes();
            time_ratios.push(tr);
            cost_ratios.push(cr);
            vec![
                d.machines.to_string(),
                obs::fmt_duration_s(d.total_time_s),
                obs::fmt_duration_s(c.total_time_s),
                format!("{:.1}", d.cost_machine_minutes()),
                format!("{:.1}", c.cost_machine_minutes()),
                format!("{:.0}%", tr * 100.0),
                format!("{:.0}%", cr * 100.0),
            ]
        })
        .collect();
    print_table(
        "Figure 1: LIR with vs without caching the parsed input (35.9 GB)",
        &[
            "machines",
            "t(default)",
            "t(p(1))",
            "cost(default)",
            "cost(p(1))",
            "time ratio",
            "cost ratio",
        ],
        &rows,
    );

    let avg_t = time_ratios.iter().sum::<f64>() / time_ratios.len() as f64;
    let _ = cost_ratios;
    // At equal machine counts the cost ratio equals the time ratio, so the
    // paper's separate cost number compares best-against-best: the minimal
    // cost achievable with caching vs without.
    let min_cost_default = bench::minimal_cost(&sweep_default);
    let min_cost_cached = bench::minimal_cost(&sweep_cached);
    println!(
        "\nAverage time ratio across configurations: {:.1}% (paper: 54.8%)",
        avg_t * 100.0
    );
    println!(
        "Minimal-cost ratio (best cached vs best default): {:.1}% (paper: 34.3%)",
        min_cost_cached / min_cost_default * 100.0
    );
    bench::save_results(
        "fig01_lir_caching",
        &serde_json::json!({
            "avg_time_ratio": avg_t,
            "min_cost_ratio": min_cost_cached / min_cost_default,
            "paper": {"avg_time_ratio": 0.548, "min_cost_ratio": 0.343},
        }),
    );
}
