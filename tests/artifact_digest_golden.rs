//! Paper-scale bit-identity golden: for every evaluated workload family
//! and two training seeds, the SHA-256 of the `OfflineTraining::run`
//! artifact JSON and of the recommendation menu at the family's paper
//! parameters must equal the committed digests. The other goldens pin the
//! tiny workload only; this one pins the simulator, profiler, fitting and
//! menu arithmetic on the full-size DAGs, so a hot-path rework that moves
//! a single bit anywhere in training fails here. Each line also pins the
//! `juggler doctor` run manifest: the SHA-256 of its pretty ledger JSON
//! (`RunManifest::to_json`) and its content hash, which together fix every
//! byte the JSON printer emits for typed values. Training runs at one
//! thread (artifacts are thread-count-invariant, which
//! `determinism_parallel` covers separately). Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test artifact_digest_golden` only for an
//! intended behaviour change, and review the diff.

use juggler_suite::juggler::pipeline::TrainingConfig;
use juggler_suite::juggler::provenance::RunManifest;
use juggler_suite::obs::sha256_hex;
use juggler_suite::workloads::all_workloads;

/// Training seeds per family: the default seed and one more.
const SEEDS: [u64; 2] = [0x5EED, 0x0B5E_55ED];

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/artifact_digests.txt")
}

/// One line per (family, seed):
/// `<family> <seed> artifact=<sha> menu=<sha> manifest=<sha> content_hash=<sha>`.
///
/// The doctor report's artifact and menu are byte-identical to
/// `OfflineTraining::run` + `recommend` at the paper parameters.
fn render() -> String {
    let mut out = String::new();
    for w in all_workloads() {
        for seed in SEEDS {
            let cfg = TrainingConfig {
                threads: 1,
                seed,
                ..TrainingConfig::default()
            };
            let report = juggler_suite::juggler::doctor(w.as_ref(), &cfg)
                .unwrap_or_else(|e| panic!("{} seed {seed:#x} failed to train: {e}", w.name()));
            let artifact = serde_json::to_string(&report.trained).expect("artifact serializes");
            let menu = serde_json::to_string(&report.menu).expect("menu serializes");
            let manifest = RunManifest::from_doctor(&report, &cfg, &w.paper_params());
            out.push_str(&format!(
                "{} {seed:#x} artifact={} menu={} manifest={} content_hash={}\n",
                w.name(),
                sha256_hex(artifact.as_bytes()),
                sha256_hex(menu.as_bytes()),
                sha256_hex(manifest.to_json().as_bytes()),
                manifest.content_hash
            ));
        }
    }
    out
}

#[test]
fn paper_scale_artifacts_match_golden_digests() {
    let got = render();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test artifact_digest_golden",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "paper-scale training artifacts or menus drifted from the golden digests"
    );
}
