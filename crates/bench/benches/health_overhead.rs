//! Cost of the watchtower fold relative to the work it monitors. The
//! gated number is the *steady-state* fold: `Watchtower::fold_ledger`
//! over a 100-manifest run ledger whose sample cache is warm — exactly
//! what `juggler health` costs once the store has been read before. It
//! must stay under 5 % of the `juggler runs record` flow (doctor =
//! training + validation) that precedes every health check, so the
//! check is cheap enough to hang off every recorded run. The cold fold
//! (`fold_ledger` after deleting the cache: every manifest parsed and
//! verified, and the cache written back) is reported informationally.
//! Training, doctor, and folds are measured interleaved best-of-`REPS`;
//! results land in `results/BENCH_health_overhead.json` and are gated by
//! the `health_overhead` policy in `results/baselines/`.

use bench::harness::{self, Budget, BUDGET_PCT};
use juggler::provenance::RunManifest;
use juggler::watchtower::{Watchtower, SAMPLE_CACHE_FILE};
use obs::LedgerStore;
use workloads::{LogisticRegression, Workload};

const REPS: usize = 9;
const MANIFESTS: usize = 100;

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
    let config = harness::training_config();
    let report = juggler::doctor(&LogisticRegression, &config).expect("doctor succeeds");
    let base = RunManifest::from_doctor(&report, &config, &LogisticRegression.paper_params());

    let dir = std::env::temp_dir().join(format!("juggler-health-bench-{}", std::process::id()));
    seed_ledger(&dir, &base);
    let store = LedgerStore::new(dir.clone());
    let cache = dir.join(SAMPLE_CACHE_FILE);
    let fold = || {
        let report = Watchtower::default()
            .fold_ledger(&store, "LOR", None, 0)
            .expect("ledger folds");
        assert_eq!(
            report.window.len(),
            MANIFESTS,
            "the whole ledger must be folded"
        );
    };

    #[derive(Clone, Copy)]
    enum Step {
        Training,
        Doctor,
        ColdFold,
        WarmFold,
    }
    let steps = [Step::Training, Step::Doctor, Step::ColdFold, Step::WarmFold];
    let [best_train, best_doctor, best_cold, best_warm] =
        harness::interleaved_best(REPS, steps, |step, _| match step {
            Step::Training => harness::time_training(&config),
            Step::Doctor => harness::time(|| {
                juggler::doctor(&LogisticRegression, &config).expect("doctor succeeds")
            }),
            Step::ColdFold => {
                let _ = std::fs::remove_file(&cache);
                harness::time(fold)
            }
            // The cold step just before it left the cache warm: this is
            // the steady-state check.
            Step::WarmFold => harness::time(fold),
        });
    let _ = std::fs::remove_dir_all(&dir);

    // A share of the doctor run, not an on-vs-off delta: the fold is
    // extra work after a doctor run, not a slower version of it.
    let share_pct = |fold: f64| {
        if best_doctor <= 0.0 {
            0.0
        } else {
            fold / best_doctor * 100.0
        }
    };
    let overhead_pct = share_pct(best_warm);
    let cold_overhead_pct = share_pct(best_cold);
    let gate = Budget::at_most(
        "steady-state fold, % of one doctor run",
        overhead_pct,
        BUDGET_PCT,
    );
    println!("\ncold fold: {cold_overhead_pct:.2}% of one doctor run (informational)");

    harness::publish(
        "health_overhead",
        &format!("Watchtower fold cost (best of {REPS}, interleaved, {MANIFESTS} manifests)"),
        &["scenario", "seconds"],
        &[
            vec![
                "offline training (LOR)".to_string(),
                format!("{best_train:.4}"),
            ],
            vec![
                "doctor = train + validate (LOR)".to_string(),
                format!("{best_doctor:.4}"),
            ],
            vec![
                format!("cold fold x{MANIFESTS} (parse every manifest, write the cache)"),
                format!("{best_cold:.4}"),
            ],
            vec![
                format!("warm fold x{MANIFESTS} (sample cache)"),
                format!("{best_warm:.4}"),
            ],
        ],
        &serde_json::json!({
            "workload": "LOR",
            "manifests": MANIFESTS,
            "reps": REPS,
            "training": {
                "seconds": best_train,
            },
            "doctor": {
                "seconds": best_doctor,
            },
            "fold": {
                "seconds": best_warm,
                "overhead_pct": overhead_pct,
                "cold_seconds": best_cold,
                "cold_overhead_pct": cold_overhead_pct,
            },
            "budget_pct": BUDGET_PCT,
            "within_budget": gate.met(),
        }),
        &[gate],
    );
}
