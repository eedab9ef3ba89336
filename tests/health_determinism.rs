//! Determinism contract for the watchtower: the `HealthReport` digest
//! of a fold over recorded history must be bit-identical whether
//! `JUGGLER_THREADS` is 1, 2, or 8, across repeated folds of the same
//! window, and across the ledger round trip (`Watchtower::fold_ledger`
//! cold and warm vs folding the in-memory manifests directly). The doctor-embedded single-run
//! baseline rides along under the same contract.
//!
//! One test function on purpose: the `JUGGLER_THREADS` environment
//! variable is process-wide.

mod common;

use common::TinyScoring;
use juggler_suite::juggler::parallel::THREADS_ENV;
use juggler_suite::juggler::pipeline::TrainingConfig;
use juggler_suite::juggler::provenance::RunManifest;
use juggler_suite::juggler::watchtower::Watchtower;
use juggler_suite::obs::LedgerStore;
use juggler_suite::workloads::Workload;

/// A three-run history: the recorded doctor manifest plus two copies
/// with slightly perturbed time coefficients (distinct content, same
/// healthy regime — a 1-2% nudge stays under the drift thresholds).
fn history(base: &RunManifest) -> Vec<RunManifest> {
    let mut second = base.clone();
    second.perturb_time_coefficient(0, 0.01);
    let mut third = base.clone();
    third.perturb_time_coefficient(0, 0.02);
    vec![base.clone(), second, third]
}

#[test]
fn health_digests_are_bit_identical_across_threads_and_refolds() {
    let mut doctor_digests = Vec::new();
    let mut fold_digests = Vec::new();
    for threads in [1_usize, 2, 8] {
        std::env::set_var(THREADS_ENV, threads.to_string());
        // threads: 0 resolves the pool size from JUGGLER_THREADS, the
        // exact path `juggler health` users exercise.
        let config = TrainingConfig {
            threads: 0,
            ..TrainingConfig::default()
        };
        let report =
            juggler_suite::juggler::doctor(&TinyScoring, &config).expect("doctor succeeds");
        doctor_digests.push(report.health.digest());

        let manifest = RunManifest::from_doctor(&report, &config, &TinyScoring.paper_params());
        let window = history(&manifest);
        let tower = Watchtower::default();
        let folded = tower.fold(&window);
        // Refolding the identical window is byte-identical, not merely
        // equal: detector state is integer-only, so nothing drifts.
        assert_eq!(
            folded.canonical_json(),
            tower.fold(&window).canonical_json(),
            "repeat folds of one window must agree byte-for-byte"
        );
        fold_digests.push(folded.digest());
    }
    std::env::remove_var(THREADS_ENV);

    for other in &doctor_digests[1..] {
        assert_eq!(
            &doctor_digests[0], other,
            "the doctor-embedded health baseline must not depend on the worker pool"
        );
    }
    for other in &fold_digests[1..] {
        assert_eq!(
            &fold_digests[0], other,
            "history-fold digests must not depend on the worker pool"
        );
    }

    // Ledger round trip: record the window, fold it back off the store
    // (cold, then from the sample cache), and the fold digest must not
    // move. This pins that file mtimes (ordering metadata) stay out of
    // the report content.
    let config = TrainingConfig::default();
    let report = juggler_suite::juggler::doctor(&TinyScoring, &config).expect("doctor succeeds");
    let manifest = RunManifest::from_doctor(&report, &config, &TinyScoring.paper_params());
    let window = history(&manifest);

    let dir = std::env::temp_dir().join(format!("juggler-health-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = LedgerStore::new(dir.clone());
    let base_time =
        std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_700_000_000);
    for (i, m) in window.iter().enumerate() {
        let path = store
            .record(&m.content_hash, &m.to_json())
            .expect("record succeeds");
        // Pin mtimes so the store lists the window in recording order —
        // the ordering metadata the ledger reader sorts by.
        let file = std::fs::File::options()
            .write(true)
            .open(&path)
            .expect("reopen manifest");
        file.set_modified(base_time + std::time::Duration::from_secs(i as u64))
            .expect("set mtime");
    }
    let direct = Watchtower::default().fold(&window);
    for pass in ["cold", "warm"] {
        let via_store = Watchtower::default()
            .fold_ledger(&store, "TINY", None, 0)
            .expect("history folds");
        assert_eq!(via_store.window.len(), window.len(), "{pass}");
        assert_eq!(
            direct.digest(),
            via_store.digest(),
            "the {pass} ledger round trip must not change the report digest \
             (file mtimes are ordering metadata, never content)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
