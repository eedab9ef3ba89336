//! The CLI read path over the run ledger: `juggler runs list`, `watch`
//! and `health` all read a store through the one verified reader
//! (`watchtower::ledger_samples`). Pinned here: the `runs list` table
//! (header plus one row per verified run, newest first), its
//! `--workload` and `--limit` narrowing, that a foreign document and a
//! tampered manifest appear in neither `runs list` nor `watch`, and that
//! a repeat `health` on an unchanged store leaves the store's sample
//! cache untouched.

mod common;

use std::path::{Path, PathBuf};
use std::process::Output;
use std::sync::OnceLock;

use common::TinyScoring;
use juggler_suite::juggler::pipeline::TrainingConfig;
use juggler_suite::juggler::provenance::RunManifest;
use juggler_suite::juggler::watchtower::SAMPLE_CACHE_FILE;
use juggler_suite::obs::LedgerStore;
use juggler_suite::workloads::Workload;

/// The doctor run behind every ledger in this binary, run once.
fn base_manifest() -> &'static RunManifest {
    static BASE: OnceLock<RunManifest> = OnceLock::new();
    BASE.get_or_init(|| {
        let config = TrainingConfig::default();
        let report =
            juggler_suite::juggler::doctor(&TinyScoring, &config).expect("doctor succeeds");
        RunManifest::from_doctor(&report, &config, &TinyScoring.paper_params())
    })
}

/// Three runs, oldest first: two `TINY` runs (distinct sub-slack
/// coefficient nudges) and one relabelled `OTHER` run, rehashed so it
/// verifies.
fn runs() -> Vec<RunManifest> {
    let mut out: Vec<RunManifest> = (0..2)
        .map(|k| {
            let mut m = base_manifest().clone();
            m.perturb_time_coefficient(0, (k + 1) as f64 * 1e-4);
            m
        })
        .collect();
    let mut other = base_manifest().clone();
    other.content.workload = "OTHER".into();
    other.content_hash = other.content.hash();
    out.push(other);
    out
}

/// A fresh store at `dir` holding `runs` with pinned, increasing mtimes.
fn seed_store(dir: &Path, runs: &[RunManifest]) -> LedgerStore {
    let _ = std::fs::remove_dir_all(dir);
    let store = LedgerStore::new(dir.to_path_buf());
    let base_time =
        std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_700_000_000);
    for (i, m) in runs.iter().enumerate() {
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
    store
}

/// Adds a foreign JSON document and a tampered manifest (workload
/// relabelled, declared hash kept) to `store`.
fn add_unverifiable(store: &LedgerStore) {
    store
        .record("bb22334455667788", "[1, 2, 3]")
        .expect("record succeeds");
    let tampered = base_manifest()
        .to_json()
        .replacen("\"TINY\"", "\"FAKE\"", 1);
    assert_ne!(tampered, base_manifest().to_json());
    store
        .record("cc22334455667788", &tampered)
        .expect("record succeeds");
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("juggler-ledger-cli-{name}-{}", std::process::id()))
}

fn juggler(args: &[&str], store: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_juggler"))
        .args(args)
        .arg("--store")
        .arg(store)
        .env_remove("JUGGLER_LOG")
        .output()
        .expect("juggler runs")
}

fn stdout(out: &Output) -> String {
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

const HEADER: &str =
    "id               workload  examples  features  iters  schedules  mean time err\n";

/// The `runs list` row of one manifest.
fn row(m: &RunManifest) -> String {
    let c = &m.content;
    format!(
        "{:<16} {:<8} {:>9} {:>9} {:>6} {:>10} {:>14}\n",
        m.id(),
        c.workload,
        c.params.examples,
        c.params.features,
        c.params.iterations,
        c.schedules.len(),
        format!(
            "{}%",
            juggler_suite::obs::fmt_sig(c.predictions.mean_time_rel_error * 100.0, 3)
        )
    )
}

#[test]
fn runs_list_prints_one_row_per_verified_run_newest_first() {
    let dir = scratch("list");
    let runs = runs();
    seed_store(&dir, &runs);
    assert!(
        !base_manifest().content.schedules.is_empty(),
        "the tiny workload records schedules"
    );

    let want = format!(
        "{HEADER}{}{}{}",
        row(&runs[2]),
        row(&runs[1]),
        row(&runs[0])
    );
    assert_eq!(stdout(&juggler(&["runs", "list"], &dir)), want);
    // The second listing reads the sample cache the first one wrote.
    assert!(dir.join(SAMPLE_CACHE_FILE).is_file());
    assert_eq!(stdout(&juggler(&["runs", "list"], &dir)), want);

    // --workload matches case-insensitively; --limit keeps the newest.
    let got = stdout(&juggler(&["runs", "list", "--workload", "tiny"], &dir));
    assert_eq!(got, format!("{HEADER}{}{}", row(&runs[1]), row(&runs[0])));
    let got = stdout(&juggler(&["runs", "list", "--limit", "1"], &dir));
    assert_eq!(got, format!("{HEADER}{}", row(&runs[2])));
    let got = stdout(&juggler(
        &["runs", "list", "--workload", "TINY", "--limit", "1"],
        &dir,
    ));
    assert_eq!(got, format!("{HEADER}{}", row(&runs[1])));
    let got = stdout(&juggler(&["runs", "list", "--workload", "NONE"], &dir));
    assert_eq!(got, format!("no runs recorded in {}\n", dir.display()));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_and_tampered_documents_appear_in_neither_list_nor_watch() {
    let dir = scratch("unverifiable");
    let runs = runs();
    let store = seed_store(&dir, &runs);
    let clean_list = stdout(&juggler(&["runs", "list"], &dir));
    let clean_watch = stdout(&juggler(&["watch"], &dir));
    assert_eq!(
        clean_watch,
        "name      runs  verdict\n\
         OTHER        1  healthy\n\
         TINY         2  healthy\n"
    );

    add_unverifiable(&store);
    assert_eq!(store.entries().expect("store lists").len(), runs.len() + 2);
    assert_eq!(stdout(&juggler(&["runs", "list"], &dir)), clean_list);
    assert_eq!(stdout(&juggler(&["watch"], &dir)), clean_watch);

    // The skip is reported when warnings are on, naming the file.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_juggler"))
        .args(["runs", "list", "--store"])
        .arg(&dir)
        .env("JUGGLER_LOG", "warn")
        .output()
        .expect("juggler runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for id in ["bb22334455667788", "cc22334455667788"] {
        assert!(
            stderr.contains("skipping") && stderr.contains(id),
            "{stderr}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeat_health_on_an_unchanged_store_leaves_the_cache_untouched() {
    let dir = scratch("health");
    let store = seed_store(&dir, &runs());
    // Unverifiable files are re-read every time but never cached, so
    // they must not make the cache look dirty either.
    add_unverifiable(&store);
    let health = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_juggler"))
            .args(["health", "TINY", "--store"])
            .arg(&dir)
            .output()
            .expect("juggler health runs");
        stdout(&out)
    };
    let cache = dir.join(SAMPLE_CACHE_FILE);
    let first = health();
    let bytes = std::fs::read(&cache).expect("the first health writes the cache");
    let mtime = std::fs::metadata(&cache).unwrap().modified().unwrap();
    // Let the clock move past the filesystem's timestamp granularity, so
    // a rewrite would show in the mtime even on a coarse clock.
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(health(), first, "same store, same report");
    assert_eq!(std::fs::read(&cache).unwrap(), bytes);
    assert_eq!(
        std::fs::metadata(&cache).unwrap().modified().unwrap(),
        mtime
    );
    // Only runs are cached: the two verified TINY runs and OTHER.
    let text = String::from_utf8(bytes).unwrap();
    assert_eq!(text.matches("\"workload\":").count(), 3, "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}
