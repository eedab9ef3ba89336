//! What each observability layer costs the work it watches, in one table.
//!
//! Every row times a base closure A and an instrumented closure B in
//! back-to-back pairs through [`harness::paired_ratio`] (the same seeds
//! on both sides of a pair, the first side alternating) and reports the
//! median B/A ratio with a distribution-free ≈95 % interval. A row with a
//! limit fails when its median is over it, and fails as inconclusive when
//! its interval is still wider than [`STOP_WIDTH`] at the pair cap; a row
//! without a limit is reported for visibility and banded by the perf gate.
//!
//! The rows limited to 1.05 are the < 5 % overhead budgets: the chaos
//! machinery armed but idle (a four-event plan scheduled past the end of
//! every run under the default retry policy: the state every fault-free
//! run carries), a single-tenant `TenantSet` against the plain engine, and
//! one-thread LOR training with a metrics registry installed, the phase
//! profiler recording, or the structured trace on. The health row holds a
//! warm-cache fold of a 100-manifest ledger to 5 % of one doctor run (the
//! `juggler runs record` flow a health check rides on): a share, not a
//! slowdown, so its limit is 0.05.
//!
//! Informational rows: speculation tracking armed with an unreachable
//! multiplier (opt-in), a lone active tenant next to a weightless one, the
//! engine batches under metrics, profiler and trace (trace records every
//! task span, which is why it is opt-in), the cold fold (every manifest
//! parsed and verified, the cache written back), and a disabled
//! `prof::scope` call around a fixed unit of leaf work ([`leaf_work`]).
//!
//! Results land in `results/BENCH_overhead.json`, gated by the `overhead`
//! policy in `results/baselines/`.

use std::sync::Arc;

use bench::harness::{self, Budget, LorBatch, ENGINE_RUNS, MAX_PAIRS, MIN_PAIRS};
use cluster_sim::{
    FaultKind, FaultPlan, RetryPolicy, RunOptions, RunReport, SimParams, Tenant, TenantSet,
    TraceConfig,
};
use dagflow::Application;
use juggler::pipeline::TrainingConfig;
use juggler::provenance::RunManifest;
use juggler::watchtower::{Watchtower, SAMPLE_CACHE_FILE};
use obs::LedgerStore;
use serde_json::{json, Value};
use workloads::{LogisticRegression, Workload};

/// The limit of every overhead row: instrumented work at most 5 % slower.
const OVERHEAD_LIMIT: f64 = 1.05;
/// A row stops adding pairs once its interval is no wider than this: half
/// of the 5-point budget, so a median well inside the limit is decided.
const STOP_WIDTH: f64 = 0.025;
/// Manifests in the ledger the health rows fold.
const MANIFESTS: usize = 100;
/// Disabled `prof::scope` calls per timed loop.
const IDLE_CALLS: u64 = 20_000;

/// One row of the table.
struct Row<'a> {
    name: &'static str,
    /// Ceiling on the median B/A ratio; `None` for an informational row.
    limit: Option<f64>,
    /// Correctness assertions (and setup) run once before any pair.
    preflight: Box<dyn Fn() + 'a>,
    /// Seconds of the base work for pair `p`.
    base: Box<dyn FnMut(usize) -> f64 + 'a>,
    /// Seconds of the same work, instrumented, for pair `p`.
    instrumented: Box<dyn FnMut(usize) -> f64 + 'a>,
}

fn row<'a>(
    name: &'static str,
    limit: Option<f64>,
    base: impl FnMut(usize) -> f64 + 'a,
    instrumented: impl FnMut(usize) -> f64 + 'a,
) -> Row<'a> {
    Row {
        name,
        limit,
        preflight: Box::new(|| {}),
        base: Box::new(base),
        instrumented: Box::new(instrumented),
    }
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

fn plain(_: &mut SimParams) {}

/// The never-firing plan under the default retry policy.
fn armed_idle(params: &mut SimParams) {
    params.faults = never_plan();
    params.retry = RetryPolicy::default();
}

/// The never-firing plan plus speculation tracking that can never launch
/// a copy.
fn speculation_armed(params: &mut SimParams) {
    params.faults = never_plan();
    params.retry = RetryPolicy {
        speculation: true,
        speculation_multiplier: 1.0e9,
        ..RetryPolicy::default()
    };
}

/// `batch`'s run at `seed` admitted as a tenant set: the lone LOR tenant,
/// plus a weightless `ghost` tenant when given.
fn tenant_run(batch: &LorBatch, ghost: Option<&Application>, seed: u64) -> RunReport {
    let tenant = |app, seed| Tenant::new(app, Arc::clone(&batch.schedule), LorBatch::params(seed));
    let mut tenants = vec![tenant(&batch.app, seed)];
    tenants.extend(ghost.map(|ghost| Tenant {
        weight: 0.0,
        ..tenant(ghost, seed ^ 1)
    }));
    let set = TenantSet {
        cluster: batch.cluster,
        tenants,
    };
    let mut tr = set.run(RunOptions::default()).expect("run succeeds");
    tr.reports.swap_remove(0)
}

/// Armed-but-idle chaos must not change the simulated outcome, with or
/// without speculation tracking; only, at most, the wall clock.
fn chaos_reproduces(batch: &LorBatch, tweak: fn(&mut SimParams)) -> Box<dyn Fn() + '_> {
    Box::new(move || {
        let plain = batch.run(0xC4A05, plain, RunOptions::default());
        let armed = batch.run(0xC4A05, tweak, RunOptions::default());
        assert_eq!(plain.total_time_s, armed.total_time_s);
        assert_eq!(plain.total_tasks, armed.total_tasks);
        assert_eq!(armed.task_attempts, armed.total_tasks);
        assert_eq!(armed.faults.speculative_launched, 0);
        assert!(armed.faults.outcomes.iter().all(|o| !o.fired));
    })
}

/// A tenancy path must reproduce the plain engine byte for byte before
/// its speed means anything.
fn tenancy_reproduces<'a>(
    batch: &'a LorBatch,
    ghost: Option<&'a Application>,
) -> Box<dyn Fn() + 'a> {
    Box::new(move || {
        let plain = batch.run(0x7E4A7, plain, RunOptions::default());
        let tenant = tenant_run(batch, ghost, 0x7E4A7);
        assert_eq!(plain.digest(), tenant.digest());
        assert_eq!(plain.total_time_s, tenant.total_time_s);
        assert_eq!(plain.cache, tenant.cache);
    })
}

/// Seconds of `f` with a fresh metrics registry installed on this thread.
fn with_registry(f: impl FnOnce() -> f64) -> f64 {
    let _scope = Arc::new(obs::Registry::new()).install();
    f()
}

/// Seconds of `f` with the (otherwise disabled) profiler recording; its
/// tree is cleared again afterwards, untimed.
fn profiled(f: impl FnOnce() -> f64) -> f64 {
    let prof = obs::prof::profiler();
    prof.set_enabled(true);
    let secs = f();
    prof.set_enabled(false);
    prof.reset();
    secs
}

/// Seconds of [`IDLE_CALLS`] calls of `f`, each result black-boxed and
/// dropped.
fn idle_loop<T>(mut f: impl FnMut(u64) -> T) -> f64 {
    harness::time(|| (0..IDLE_CALLS).for_each(|i| drop(std::hint::black_box(f(i)))))
}

/// The base of the idle-scope row: 64 dependent multiply-xorshift rounds,
/// ~80 ns on the reference host, the size of the smallest leaf a scope
/// wraps. A base this long keeps the ratio steady from run to run; over
/// an empty loop iteration it is a quotient of two nanosecond figures.
fn leaf_work(i: u64) -> u64 {
    let mut z = std::hint::black_box(i);
    for _ in 0..64 {
        z = (z ^ (z >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    z
}

/// Files `MANIFESTS` healthy-regime variants of one recorded run
/// (distinct sub-slack coefficient nudges, pinned mtimes so the listing
/// order is reproducible) into a scratch ledger.
fn seed_ledger(dir: &std::path::Path, base: &RunManifest) {
    let _ = std::fs::remove_dir_all(dir);
    let store = LedgerStore::new(dir.to_path_buf());
    let base_time =
        std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_700_000_000);
    for k in 0..MANIFESTS {
        let mut m = base.clone();
        m.perturb_time_coefficient(0, (k + 1) as f64 * 1e-6);
        let path = store
            .record(&m.content_hash, &m.to_json())
            .expect("record succeeds");
        let file = std::fs::File::options()
            .write(true)
            .open(&path)
            .expect("reopen manifest");
        file.set_modified(base_time + std::time::Duration::from_secs(k as u64))
            .expect("set mtime");
    }
}

fn main() {
    let batch = &LorBatch::new(0x0E4D);
    let ghost = &batch.app.clone();
    let engine = |tweak: fn(&mut SimParams), options: RunOptions| {
        move |p: usize| batch.time(p, |seed| batch.run(seed, tweak, options))
    };
    let plain_engine = engine(plain, RunOptions::default());
    let traced = RunOptions {
        trace: TraceConfig::enabled(),
        ..RunOptions::default()
    };
    let config = &harness::training_config();
    let traced_config = &TrainingConfig {
        trace: TraceConfig::enabled(),
        ..harness::training_config()
    };
    let train = move |_: usize| harness::time_training(config);

    let report = juggler::doctor(&LogisticRegression, config).expect("doctor succeeds");
    let manifest = RunManifest::from_doctor(&report, config, &LogisticRegression.paper_params());
    let dir = std::env::temp_dir().join(format!("juggler-overhead-bench-{}", std::process::id()));
    seed_ledger(&dir, &manifest);
    let store = &LedgerStore::new(dir.clone());
    let cache = &dir.join(SAMPLE_CACHE_FILE);
    let fold = move || {
        let report = Watchtower::default()
            .fold_ledger(store, "LOR", None, 0)
            .expect("ledger folds");
        assert_eq!(
            report.window.len(),
            MANIFESTS,
            "the whole ledger must be folded"
        );
    };
    let doctor = move |_: usize| {
        harness::time(|| juggler::doctor(&LogisticRegression, config).expect("doctor succeeds"))
    };

    let rows = vec![
        Row {
            preflight: chaos_reproduces(batch, armed_idle),
            ..row(
                "chaos_armed_idle",
                Some(OVERHEAD_LIMIT),
                plain_engine,
                engine(armed_idle, RunOptions::default()),
            )
        },
        Row {
            preflight: chaos_reproduces(batch, speculation_armed),
            ..row(
                "chaos_speculation_armed",
                None,
                plain_engine,
                engine(speculation_armed, RunOptions::default()),
            )
        },
        Row {
            preflight: tenancy_reproduces(batch, None),
            ..row(
                "tenants_single",
                Some(OVERHEAD_LIMIT),
                plain_engine,
                move |p| batch.time(p, |seed| tenant_run(batch, None, seed)),
            )
        },
        Row {
            preflight: tenancy_reproduces(batch, Some(ghost)),
            ..row("tenants_lone_active", None, plain_engine, move |p| {
                batch.time(p, |seed| tenant_run(batch, Some(ghost), seed))
            })
        },
        row("metrics_training", Some(OVERHEAD_LIMIT), train, move |p| {
            with_registry(|| train(p))
        }),
        row("metrics_engine", None, plain_engine, move |p| {
            with_registry(|| plain_engine(p))
        }),
        row("profile_training", Some(OVERHEAD_LIMIT), train, move |p| {
            profiled(|| train(p))
        }),
        row("profile_engine", None, plain_engine, move |p| {
            profiled(|| plain_engine(p))
        }),
        // `profiled` leaves the profiler disabled: each scope is the idle
        // call site every normal run pays for.
        row(
            "profile_idle_scope",
            None,
            |_| idle_loop(leaf_work),
            |_| {
                idle_loop(|i| {
                    let _scope = obs::prof::scope("bench/idle");
                    leaf_work(i)
                })
            },
        ),
        row("trace_training", Some(OVERHEAD_LIMIT), train, move |_| {
            harness::time_training(traced_config)
        }),
        Row {
            preflight: Box::new(move || {
                assert!(batch.run(1, plain, traced).trace.is_some());
                assert!(batch.run(1, plain, RunOptions::default()).trace.is_none());
            }),
            ..row("trace_engine", None, plain_engine, engine(plain, traced))
        },
        row("health_cold_fold", None, doctor, move |_| {
            let _ = std::fs::remove_file(cache);
            harness::time(fold)
        }),
        // The cold row left the cache warm; the preflight fold makes sure.
        Row {
            preflight: Box::new(fold),
            ..row("health_warm_fold", Some(0.05), doctor, move |_| {
                harness::time(fold)
            })
        },
    ];

    let (mut table, mut results, mut budgets) = (Vec::new(), Vec::new(), Vec::new());
    let mut idle_ns = 0.0;
    for row in rows {
        (row.preflight)();
        let est = harness::paired_ratio(STOP_WIDTH, row.base, row.instrumented);
        let verdict = match row.limit {
            None => "info",
            Some(limit) if est.median > limit => "OVER",
            Some(_) if est.width() > STOP_WIDTH => "inconclusive",
            Some(_) => "pass",
        };
        if let Some(limit) = row.limit {
            let (name, width) = (row.name, est.width());
            budgets.push(Budget::at_most(
                format!("{name} median B/A"),
                est.median,
                limit,
            ));
            budgets.push(Budget::at_most(
                format!("{name} interval width"),
                width,
                STOP_WIDTH,
            ));
        }
        if row.name == "profile_idle_scope" {
            idle_ns = (est.b_seconds - est.a_seconds) * 1e9 / IDLE_CALLS as f64;
        }
        table.push(vec![
            row.name.to_owned(),
            est.pairs.to_string(),
            format!("{:.5}", est.a_seconds),
            format!("{:.5}", est.b_seconds),
            format!("{:.4}", est.median),
            format!("[{:.4}, {:.4}]", est.low, est.high),
            row.limit.map_or_else(|| "—".to_owned(), |l| format!("{l}")),
            verdict.to_owned(),
        ]);
        results.push((
            row.name.to_owned(),
            json!({
                "limit": row.limit,
                "pairs": est.pairs,
                "median": est.median,
                "low": est.low,
                "high": est.high,
                "base_seconds": est.a_seconds,
                "instrumented_seconds": est.b_seconds,
                "verdict": verdict,
            }),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("\ndisabled prof::scope: {idle_ns:.1} ns per call (informational)");

    harness::publish(
        "overhead",
        &format!(
            "Observability overhead: median B/A over {MIN_PAIRS}..{MAX_PAIRS} alternating pairs, \
             ≈95 % interval, LOR x{ENGINE_RUNS} engine batches"
        ),
        &[
            "row",
            "pairs",
            "A (s)",
            "B (s)",
            "B/A",
            "≈95 % interval",
            "limit",
            "verdict",
        ],
        &table,
        &json!({
            "workload": "LOR",
            "engine_runs_per_batch": ENGINE_RUNS,
            "manifests": MANIFESTS,
            "min_pairs": MIN_PAIRS,
            "max_pairs": MAX_PAIRS,
            "stop_width": STOP_WIDTH,
            "rows": Value::Object(results),
            "profile_idle_ns_per_scope": idle_ns,
            "within_budget": budgets.iter().all(Budget::met),
        }),
        &budgets,
    );
}
