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

use bench::harness::{self, Budget, LorBatch, BUDGET_PCT, ENGINE_RUNS};
use cluster_sim::{RunOptions, RunReport, Tenant, TenantSet};
use dagflow::Application;

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

fn run_one(path: Path, batch: &LorBatch, ghost: &Application, seed: u64) -> RunReport {
    let tenant = |app, seed| Tenant::new(app, Arc::clone(&batch.schedule), LorBatch::params(seed));
    let tenants = match path {
        Path::Plain => return batch.run(seed, |_| {}, RunOptions::default()),
        Path::SingleTenant => vec![tenant(&batch.app, seed)],
        Path::LoneActive => vec![
            tenant(&batch.app, seed),
            Tenant {
                weight: 0.0,
                ..tenant(ghost, seed ^ 1)
            },
        ],
    };
    let set = TenantSet {
        cluster: batch.cluster,
        tenants,
    };
    let mut tr = set.run(RunOptions::default()).expect("run succeeds");
    tr.reports.swap_remove(0)
}

fn main() {
    let batch = LorBatch::new(0x7E40);
    let ghost = batch.app.clone();

    // Correctness preflight: both tenancy paths must reproduce the plain
    // engine byte-for-byte before their speed means anything.
    let plain = run_one(Path::Plain, &batch, &ghost, 0x7E4A7);
    for path in [Path::SingleTenant, Path::LoneActive] {
        let tenant = run_one(path, &batch, &ghost, 0x7E4A7);
        assert_eq!(plain.digest(), tenant.digest());
        assert_eq!(plain.total_time_s, tenant.total_time_s);
        assert_eq!(plain.cache, tenant.cache);
    }

    let paths = [Path::Plain, Path::SingleTenant, Path::LoneActive];
    let [best_plain, best_single, best_lone] = harness::interleaved_best(REPS, paths, |p, rep| {
        batch.time(rep, |seed| run_one(p, &batch, &ghost, seed))
    });
    let single_pct = harness::overhead_pct(best_plain, best_single);
    let lone_pct = harness::overhead_pct(best_plain, best_lone);
    let gate = Budget::at_most("single-tenant overhead %", single_pct, BUDGET_PCT);

    harness::publish(
        "tenants_overhead",
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
            "budget_pct": BUDGET_PCT,
            "within_budget": gate.met(),
        }),
        &[gate],
    );
}
