//! `juggler perf-report`, end to end. Pinned here: the committed bench
//! artifacts pass their committed baselines, and every committed spec is
//! the derived codec's own output byte for byte; a tripped `Max` check
//! exits 1 and prints `FAILED`; and a spec with an unknown key or op is an
//! error that names its file, not a panic.

use std::path::{Path, PathBuf};
use std::process::Output;

use juggler_suite::obs::{BaselineSpec, Check, CheckOp};

fn perf_report(results: &Path, baselines: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_juggler"))
        .arg("perf-report")
        .arg("--results")
        .arg(results)
        .arg("--baselines")
        .arg(baselines)
        .env_remove("JUGGLER_LOG")
        .output()
        .expect("juggler runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A fresh results directory with one fixture artifact, `{"x": 2.0}`, and
/// an empty `baselines/` inside it.
fn fixture(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("juggler-perf-report-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("baselines")).expect("create fixture dirs");
    std::fs::write(dir.join("BENCH_fixture.json"), r#"{"x": 2.0}"#).expect("write artifact");
    dir
}

#[test]
fn committed_artifacts_pass_their_committed_baselines() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let baselines = results.join("baselines");
    let out = perf_report(&results, &baselines);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", text(&out.stderr));
    assert!(stdout.contains("checks passed"), "{stdout}");

    let mut specs = 0;
    for entry in std::fs::read_dir(&baselines).expect("baselines dir") {
        let path = entry.expect("dir entry").path();
        let raw = std::fs::read_to_string(&path).expect("read spec");
        let spec: BaselineSpec = serde_json::from_str(&raw).expect("committed spec parses");
        let printed = serde_json::to_string_pretty(&spec).expect("spec serializes") + "\n";
        assert!(
            printed == raw,
            "{} is not the codec's output",
            path.display()
        );
        specs += 1;
    }
    assert!(specs > 0);
}

#[test]
fn a_tripped_max_check_exits_1_and_prints_failed() {
    let dir = fixture("max");
    let spec = BaselineSpec::new(
        "BENCH_fixture.json",
        vec![Check::new("x", CheckOp::Max(1.0))],
        serde_json::from_str(r#"{"x": 0.5}"#).expect("baseline doc"),
    );
    let spec = serde_json::to_string_pretty(&spec).expect("spec serializes");
    std::fs::write(dir.join("baselines/BENCH_fixture.json"), spec).expect("write spec");

    let out = perf_report(&dir, &dir.join("baselines"));
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}{}", text(&out.stderr));
    assert!(stdout.contains("[FAIL] x: 2 <= limit 1"), "{stdout}");
    assert!(stdout.contains("1 of 1 checks FAILED"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_spec_with_an_unknown_key_or_op_is_an_error_naming_its_file() {
    for (case, check, names) in [
        (
            "key",
            r#"{"path": "x", "op": {"Max": 1.0}, "limit": 1.0}"#,
            "unknown key `limit`",
        ),
        (
            "op",
            r#"{"path": "x", "op": {"Maximum": 1.0}}"#,
            "unknown variant `Maximum`",
        ),
    ] {
        let dir = fixture(case);
        let spec = dir.join("baselines/BENCH_fixture.json");
        let raw =
            format!(r#"{{"source": "BENCH_fixture.json", "checks": [{check}], "baseline": {{}}}}"#);
        std::fs::write(&spec, raw).expect("write spec");

        let out = perf_report(&dir, &dir.join("baselines"));
        let stderr = text(&out.stderr);
        assert!(!out.status.success(), "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        assert!(
            stderr.contains(&spec.display().to_string()),
            "{case}: {stderr}"
        );
        assert!(stderr.contains(names), "{case}: {stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
