//! Determinism contract for the run-provenance subsystem: the hashed
//! manifest *content* of a `doctor` run must be bit-identical across
//! worker-thread counts and across repeated runs — only the (unhashed)
//! envelope may record how the run was executed. The same test drives
//! the drift detector end-to-end: identical runs diff clean, a
//! perturbed model coefficient is flagged, and the ledger store files
//! and lists the manifest under its content-derived id.

mod common;

use common::TinyScoring;
use juggler_suite::juggler::pipeline::TrainingConfig;
use juggler_suite::juggler::provenance::{DiffTolerances, ManifestDiff, RunManifest};
use juggler_suite::juggler::watchtower::ledger_samples;
use juggler_suite::obs::LedgerStore;
use juggler_suite::workloads::Workload;

fn manifest_at(threads: usize) -> RunManifest {
    let config = TrainingConfig {
        threads,
        ..TrainingConfig::default()
    };
    let report = juggler_suite::juggler::doctor(&TinyScoring, &config).expect("doctor succeeds");
    RunManifest::from_doctor(&report, &config, &TinyScoring.paper_params())
}

#[test]
fn manifest_content_is_bit_identical_across_threads_and_reruns() {
    let m1 = manifest_at(1);
    let m2 = manifest_at(2);
    let m8 = manifest_at(8);
    let m1_again = manifest_at(1);

    // The hashed content — canonical bytes, hash, and id — is
    // bit-identical whatever the worker pool looked like.
    for other in [&m2, &m8, &m1_again] {
        assert_eq!(
            m1.content.canonical_json(),
            other.content.canonical_json(),
            "manifest content must not depend on thread count"
        );
        assert_eq!(m1.content_hash, other.content_hash);
        assert_eq!(m1.id(), other.id());
    }
    assert_eq!(m1.content_hash.len(), 64, "full SHA-256 hex");

    // The envelope is where execution circumstances live.
    assert_eq!(m1.envelope.threads_requested, 1);
    assert_eq!(m2.envelope.threads_requested, 2);
    assert_eq!(m1.envelope.threads_resolved, 1);
    assert_eq!(m2.envelope.threads_resolved, 2);

    // Storage roundtrip preserves identity (and re-verifies the hash).
    let parsed = RunManifest::from_json(&m1.to_json()).expect("roundtrip");
    assert_eq!(parsed, m1);

    // Identical runs diff clean.
    let tol = DiffTolerances::default();
    let diff = ManifestDiff::between(&m1, &m1_again, &tol);
    assert!(!diff.has_drift(), "unexpected drift: {:#?}", diff.drifts);
    assert!(diff.render().contains("no drift"));

    // A silently perturbed time-model coefficient is drift.
    let mut perturbed = m1.clone();
    perturbed.perturb_time_coefficient(0, 0.03);
    assert_ne!(perturbed.content_hash, m1.content_hash);
    let diff = ManifestDiff::between(&m1, &perturbed, &tol);
    assert!(diff.has_drift(), "3% coefficient change must be flagged");
    assert!(
        diff.drifts.iter().any(|d| d.category == "coeff"),
        "expected a coeff drift, got {:#?}",
        diff.drifts
    );

    // The ledger store files the manifest under its id and lists it.
    let dir = std::env::temp_dir().join(format!("juggler-ledger-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = LedgerStore::new(dir.clone());
    let path = store
        .record(&m1.content_hash, &m1.to_json())
        .expect("record succeeds");
    assert_eq!(
        path.file_stem().and_then(|s| s.to_str()),
        Some(m1.id().as_str())
    );
    let runs = ledger_samples(&store).expect("the ledger reads back");
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].id, m1.id());
    assert_eq!(runs[0].workload, "TINY");
    let (_, raw) = store.load(&m1.id()).expect("load by id");
    assert_eq!(RunManifest::from_json(&raw).expect("verifies"), m1);
    let _ = std::fs::remove_dir_all(&dir);
}
