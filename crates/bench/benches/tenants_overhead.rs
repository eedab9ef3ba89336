//! Overhead of the tenancy machinery for a lone application: a batch of
//! paper-scale LOR runs through the plain engine vs the same runs
//! admitted as a single-tenant [`TenantSet`] — the path every
//! `juggler tenants` spec with one entry takes, and the path whose
//! reports must stay byte-identical to the pre-tenancy simulator. Both
//! drive the same job stepper; the set adds the shared pool's tenancy
//! bookkeeping and the per-job share check. Gated budget: < 5 % over
//! the plain engine (the same baseline batch `sim_throughput` tracks).
//!
//! A third batch admits a weightless tenant next to the lone active one.
//! It builds nothing, so the row prices the same path plus one idle
//! admission. Multi-tenant runs are opt-in, so this row is reported but
//! not gated.
//! Results land in `results/BENCH_tenants_overhead.json`.

use std::sync::Arc;
use std::time::Instant;

use bench::print_table;
use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions, RunReport, Tenant, TenantSet};
use dagflow::{Application, Schedule};
use workloads::{LogisticRegression, Workload};

const ENGINE_RUNS: usize = 24;
const REPS: usize = 15;

/// Which admission path a batch runs under.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// The plain engine: no tenancy machinery at all.
    Plain,
    /// A single-tenant set.
    SingleTenant,
    /// A lone active tenant plus a weightless one.
    LoneActive,
}

fn fixture() -> (Application, Arc<Schedule>, ClusterConfig) {
    let w = LogisticRegression;
    let app = w.build(&w.paper_params());
    let schedule = Arc::new(app.default_schedule().clone());
    let cluster = ClusterConfig::new(4, MachineSpec::private_cluster());
    (app, schedule, cluster)
}

fn params(seed: u64) -> cluster_sim::SimParams {
    let mut p = LogisticRegression.sim_params();
    p.seed = seed;
    p
}

fn run_one(
    path: Path,
    app: &Application,
    ghost: &Application,
    schedule: &Arc<Schedule>,
    cluster: ClusterConfig,
    seed: u64,
) -> RunReport {
    match path {
        Path::Plain => Engine::new(app, cluster, params(seed))
            .run_shared(schedule, RunOptions::default())
            .expect("run succeeds"),
        Path::SingleTenant => {
            let set = TenantSet {
                cluster,
                tenants: vec![Tenant::new(app, Arc::clone(schedule), params(seed))],
            };
            let mut tr = set.run(RunOptions::default()).expect("run succeeds");
            tr.reports.pop().expect("one report")
        }
        Path::LoneActive => {
            let set = TenantSet {
                cluster,
                tenants: vec![
                    Tenant::new(app, Arc::clone(schedule), params(seed)),
                    Tenant {
                        weight: 0.0,
                        ..Tenant::new(ghost, Arc::clone(schedule), params(seed ^ 1))
                    },
                ],
            };
            let mut tr = set.run(RunOptions::default()).expect("run succeeds");
            tr.reports.swap_remove(0)
        }
    }
}

/// One timed batch of runs down the given path.
fn batch_once(
    path: Path,
    app: &Application,
    ghost: &Application,
    schedule: &Arc<Schedule>,
    cluster: ClusterConfig,
    rep: usize,
) -> f64 {
    let t0 = Instant::now();
    for i in 0..ENGINE_RUNS {
        let seed = 0x7E40 + (rep * ENGINE_RUNS + i) as u64;
        let report = run_one(path, app, ghost, schedule, cluster, seed);
        std::hint::black_box(&report);
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let (app, schedule, cluster) = fixture();
    let ghost = app.clone();

    // Correctness preflight: both tenancy paths must reproduce the plain
    // engine byte-for-byte before their speed means anything.
    let plain = run_one(Path::Plain, &app, &ghost, &schedule, cluster, 0x7E4A7);
    for path in [Path::SingleTenant, Path::LoneActive] {
        let tenant = run_one(path, &app, &ghost, &schedule, cluster, 0x7E4A7);
        assert_eq!(plain.digest(), tenant.digest());
        assert_eq!(plain.total_time_s, tenant.total_time_s);
        assert_eq!(plain.cache, tenant.cache);
    }

    // Best-of-`REPS` for all three paths, *interleaved* so slow drift
    // (thermal, background load) hits every path evenly.
    let (mut best_plain, mut best_single, mut best_lone) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for rep in 0..REPS {
        best_plain = best_plain.min(batch_once(
            Path::Plain,
            &app,
            &ghost,
            &schedule,
            cluster,
            rep,
        ));
        best_single = best_single.min(batch_once(
            Path::SingleTenant,
            &app,
            &ghost,
            &schedule,
            cluster,
            rep,
        ));
        best_lone = best_lone.min(batch_once(
            Path::LoneActive,
            &app,
            &ghost,
            &schedule,
            cluster,
            rep,
        ));
    }
    let pct = |t: f64| {
        if best_plain <= 0.0 {
            0.0
        } else {
            (t - best_plain) / best_plain * 100.0
        }
    };
    let single_pct = pct(best_single);
    let lone_pct = pct(best_lone);

    print_table(
        &format!("Tenancy overhead for a lone application (best of {REPS}, interleaved)"),
        &["path", "batch (s)", "overhead", "gated"],
        &[
            vec![
                format!("plain engine x{ENGINE_RUNS} (LOR paper scale)"),
                format!("{best_plain:.4}"),
                String::from("—"),
                String::from("baseline"),
            ],
            vec![
                String::from("single-tenant set"),
                format!("{best_single:.4}"),
                format!("{single_pct:+.2}%"),
                String::from("< 5%"),
            ],
            vec![
                String::from("lone active + weightless ghost"),
                format!("{best_lone:.4}"),
                format!("{lone_pct:+.2}%"),
                String::from("informational"),
            ],
        ],
    );
    let within_budget = single_pct < 5.0;
    println!("\nsingle-tenant overhead within the 5% budget: {within_budget}");

    bench::save_results(
        "BENCH_tenants_overhead",
        &serde_json::json!({
            "workload": "LOR",
            "reps": REPS,
            "engine_runs_per_batch": ENGINE_RUNS,
            "plain_seconds": best_plain,
            "single_tenant": {
                "seconds": best_single,
                "overhead_pct": single_pct,
            },
            "lone_active": {
                "seconds": best_lone,
                "overhead_pct": lone_pct,
            },
            "budget_pct": 5.0,
            "within_budget": within_budget,
        }),
    );
}
