//! Drift-drill golden for the watchtower: a synthetic 12-run history of
//! the tiny workload whose time-model coefficient is silently inflated
//! by 50% from run 8 onward must fold to `Drifted` with the CUSUM
//! naming exactly that onset run, and the rendered tree must match the
//! committed golden byte-for-byte. A clean 12-run history must stay
//! `Healthy`. The same drills drive the `juggler health` / `juggler
//! watch` binaries end-to-end to pin the exit-code contract (1 on
//! drift, 0 otherwise). Regenerate the golden with
//! `UPDATE_GOLDEN=1 cargo test --test health_golden`.

mod common;

use std::sync::OnceLock;

use common::TinyScoring;
use juggler_suite::juggler::pipeline::TrainingConfig;
use juggler_suite::juggler::provenance::RunManifest;
use juggler_suite::juggler::watchtower::{Watchtower, SAMPLE_CACHE_FILE};
use juggler_suite::obs::health::Verdict;
use juggler_suite::obs::LedgerStore;
use juggler_suite::workloads::Workload;

/// The doctor run behind every drill manifest, run once and shared by
/// every test in this binary.
fn base_manifest() -> &'static RunManifest {
    static BASE: OnceLock<RunManifest> = OnceLock::new();
    BASE.get_or_init(|| {
        let config = TrainingConfig::default();
        let report =
            juggler_suite::juggler::doctor(&TinyScoring, &config).expect("doctor succeeds");
        RunManifest::from_doctor(&report, &config, &TinyScoring.paper_params())
    })
}

/// A 12-run history. Every run gets a distinct sub-slack coefficient
/// nudge (so the manifests have distinct content hashes without
/// tripping any detector); from `drift_from` onward the time
/// coefficient is additionally inflated by 50% — the silent model
/// staleness the drill expects the CUSUM to catch.
fn drill(drift_from: Option<usize>) -> Vec<RunManifest> {
    (0..12)
        .map(|k| {
            let mut m = base_manifest().clone();
            let mut delta = (k + 1) as f64 * 1e-4;
            if drift_from.is_some_and(|onset| k >= onset) {
                // Keep the per-run nudge so the drifted manifests stay
                // distinct documents (distinct ids) in the ledger too.
                delta += 0.5;
            }
            m.perturb_time_coefficient(0, delta);
            m
        })
        .collect()
}

/// Files `window` into a fresh ledger at `dir` with pinned, strictly
/// increasing mtimes so the store lists it in recording order.
fn seed_store(dir: &std::path::Path, window: &[RunManifest]) {
    let _ = std::fs::remove_dir_all(dir);
    let store = LedgerStore::new(dir.to_path_buf());
    let base_time =
        std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_700_000_000);
    for (i, m) in window.iter().enumerate() {
        let path = store
            .record(&m.content_hash, &m.to_json())
            .expect("record succeeds");
        let file = std::fs::File::options()
            .write(true)
            .open(&path)
            .expect("reopen manifest");
        file.set_modified(base_time + std::time::Duration::from_secs(i as u64))
            .expect("set mtime");
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/health_drill.txt")
}

#[test]
fn drift_drill_names_the_onset_run_and_matches_the_golden() {
    let window = drill(Some(8));
    let report = Watchtower::default().fold(&window);

    match &report.verdict {
        Verdict::Drifted {
            detector,
            onset_run,
            magnitude_micro,
        } => {
            assert_eq!(detector, "cusum(coeff)");
            assert_eq!(
                onset_run,
                &window[8].id(),
                "the verdict must name the first perturbed run"
            );
            assert!(
                *magnitude_micro > 400_000,
                "a 50% coefficient inflation is a ~49% excursion past slack, got {magnitude_micro}"
            );
        }
        other => panic!("expected Drifted, got {other:?}"),
    }
    assert!(
        !report.advice.is_empty(),
        "a drifted model must come with refit advice"
    );

    let got = report.render_tree();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test health_golden",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "health drill report drifted from the golden file; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn clean_drill_stays_healthy() {
    let report = Watchtower::default().fold(&drill(None));
    assert_eq!(report.verdict, Verdict::Healthy, "{}", report.render_tree());
    assert!(report.advice.is_empty());
    for m in &report.models {
        assert_eq!(m.verdict, Verdict::Healthy, "{}", m.name);
    }
}

#[test]
fn health_cli_exit_codes_follow_the_verdict() {
    let scratch =
        std::env::temp_dir().join(format!("juggler-health-golden-{}", std::process::id()));
    let drifted_dir = scratch.join("drifted");
    let clean_dir = scratch.join("clean");
    seed_store(&drifted_dir, &drill(Some(8)));
    seed_store(&clean_dir, &drill(None));

    let health = |store: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_juggler"))
            .args(["health", "TINY", "--store"])
            .arg(store)
            .output()
            .expect("juggler health runs")
    };
    let watch = |store: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_juggler"))
            .args(["watch", "--store"])
            .arg(store)
            .output()
            .expect("juggler watch runs")
    };

    // Drifted history: exit 1 and the tree names the onset run.
    let out = health(&drifted_dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let onset = drill(Some(8))[8].id();
    assert!(
        stdout.contains("DRIFTED cusum(coeff)") && stdout.contains(&onset),
        "stdout must name the detector and onset run:\n{stdout}"
    );

    // Clean history: exit 0 and a healthy verdict.
    let out = health(&clean_dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("verdict: healthy"),
        "clean drill must render healthy"
    );

    // The sweep mirrors the per-workload exit codes.
    let out = watch(&drifted_dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = watch(&clean_dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Nothing but the manifests and the sample cache: no report is filed.
    let mut files: Vec<String> = std::fs::read_dir(&drifted_dir)
        .expect("ledger lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut expected: Vec<String> = drill(Some(8))
        .iter()
        .map(|m| format!("{}.json", m.id()))
        .chain([SAMPLE_CACHE_FILE.to_owned()])
        .collect();
    expected.sort();
    assert_eq!(files, expected);

    let _ = std::fs::remove_dir_all(&scratch);
}
