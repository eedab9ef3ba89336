//! The metric table: every metric the benchmark prints, with its unit, its
//! direction, and what it means. `BENCHMARK.json` declares the same names,
//! units and directions; `--self-test` checks the two agree. For a
//! per-layer metric, `note` names the end-to-end metric it should move.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        note,
    }
}

/// Printed by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    m(
        "op_ref_p50",
        "ref",
        "lower",
        "median op latency, in yardstick times",
    ),
    m(
        "op_ref_p90",
        "ref",
        "lower",
        "90th-percentile op latency, in yardstick times",
    ),
    m(
        "ops_per_kref",
        "1/kref",
        "higher",
        "completed ops per 1000 yardstick times of op latency",
    ),
    m(
        "setup_s",
        "s",
        "lower",
        "median set-up time (inputs, warm-up, references) over 5 set-ups, scaled to the yardstick's nominal speed",
    ),
    m(
        "peak_rss_mb",
        "MB",
        "lower",
        "process high-water mark (VmHWM)",
    ),
    m(
        "train_cost_mm",
        "machine-min",
        "lower",
        "simulated training cost of the five families (Fig. 16)",
    ),
    m(
        "pred_err_pct",
        "%",
        "lower",
        "mean |predicted - simulated| / simulated time over every menu option",
    ),
    m(
        "rec_cost_mm",
        "machine-min",
        "lower",
        "simulated cost of the cheapest menu option of the five families (Fig. 14)",
    ),
];

/// Printed by every workload with `--trace 1`; a layer a workload does not
/// reach reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "cluster_sim.run_ms",
        "ms",
        "lower",
        "op_ref_p50/ops_per_kref on train_paper and tenants_tight",
    ),
    m(
        "cluster_sim.runs",
        "count",
        "lower",
        "op_ref_p50 on train_paper and tenants_tight",
    ),
    m(
        "cluster_sim.tasks",
        "count",
        "lower",
        "op_ref_p50 on train_paper and tenants_tight",
    ),
    m(
        "cluster_sim.tasks_per_s",
        "1/s",
        "higher",
        "ops_per_kref on train_paper and tenants_tight",
    ),
    m(
        "cluster_sim.cache_hit_ratio",
        "ratio",
        "higher",
        "op_ref_p50 on train_paper and tenants_tight",
    ),
    m(
        "cluster_sim.evictions",
        "count",
        "lower",
        "op_ref_p50 on tenants_tight",
    ),
    m(
        "cluster_sim.tenant_run_ms",
        "ms",
        "lower",
        "op_ref_p50 on tenants_tight",
    ),
    m(
        "cluster_sim.solo_run_ms",
        "ms",
        "lower",
        "op_ref_p50 on tenants_tight (reference)",
    ),
    m(
        "cluster_sim.tenant_overhead_pct",
        "%",
        "lower",
        "op_ref_p50 on tenants_tight",
    ),
    m(
        "cluster_sim.cross_evictions",
        "count",
        "lower",
        "op_ref_p50 on tenants_tight",
    ),
    m(
        "instrument.inject_ms",
        "ms",
        "lower",
        "op_ref_p50 on train_paper (LIR/RFC ops)",
    ),
    m(
        "instrument.run_traced_ms",
        "ms",
        "lower",
        "op_ref_p50 on train_paper (LIR/RFC ops)",
    ),
    m(
        "instrument.ingest_ms",
        "ms",
        "lower",
        "op_ref_p50 on train_paper (LIR/RFC ops), peak_rss_mb",
    ),
    m(
        "instrument.derive_ms",
        "ms",
        "lower",
        "op_ref_p50 on train_paper (LIR/RFC ops)",
    ),
    m(
        "instrument.task_traces",
        "count",
        "lower",
        "peak_rss_mb, op_ref_p50 on train_paper",
    ),
    m(
        "workloads.build_ms",
        "ms",
        "lower",
        "op_ref_p90/op_ref_p50 on train_paper (PCA ops), setup_s on tenants_tight",
    ),
    m(
        "workloads.build_calls",
        "count",
        "lower",
        "op_ref_p50 on train_paper, setup_s on tenants_tight",
    ),
    m(
        "cluster_sim.prep_ms",
        "ms",
        "lower",
        "op_ref_p90/op_ref_p50 on train_paper (PCA ops)",
    ),
    m(
        "core.hotspot_ms",
        "ms",
        "lower",
        "op_ref_p50 on train_paper",
    ),
    m(
        "core.schedules",
        "count",
        "lower",
        "op_ref_p50 on train_paper (stage-4 runs scale with it)",
    ),
    m(
        "core.memory_calibration_ms",
        "ms",
        "lower",
        "op_ref_p50 on train_paper",
    ),
    m(
        "modeling.size_fit_ms",
        "ms",
        "lower",
        "op_ref_p50 on train_paper",
    ),
    m(
        "modeling.time_fit_ms",
        "ms",
        "lower",
        "op_ref_p50 on train_paper",
    ),
    m(
        "modeling.candidates",
        "count",
        "lower",
        "op_ref_p50 on train_paper",
    ),
    m(
        "core.recommend_us",
        "us",
        "lower",
        "op_ref_p50 on train_paper",
    ),
    m(
        "core.provenance.serialize_ms",
        "ms",
        "lower",
        "op_ref_p50/ops_per_kref on ledger_health",
    ),
    m(
        "core.provenance.parse_ms",
        "ms",
        "lower",
        "op_ref_p50/ops_per_kref on ledger_health",
    ),
    m(
        "compat.json_parse_ms",
        "ms",
        "lower",
        "op_ref_p50/ops_per_kref on ledger_health",
    ),
    m(
        "obs.sha256_ms",
        "ms",
        "lower",
        "op_ref_p50/ops_per_kref on ledger_health",
    ),
    m(
        "core.provenance.bytes",
        "bytes",
        "lower",
        "op_ref_p50 on ledger_health",
    ),
    m(
        "core.watchtower.fold_ms",
        "ms",
        "lower",
        "op_ref_p50/ops_per_kref on ledger_health",
    ),
    m(
        "core.watchtower.fold_samples_ms",
        "ms",
        "lower",
        "op_ref_p50/ops_per_kref on ledger_health",
    ),
    m(
        "unattributed_ms",
        "ms",
        "lower",
        "op_ref_p50 on the same workload",
    ),
    m(
        "trace_overhead_pct",
        "%",
        "lower",
        "none: the cost of tracing itself",
    ),
    m(
        "error_rate",
        "ratio",
        "lower",
        "failed / attempted traced ops; correct is false above 0",
    ),
];
