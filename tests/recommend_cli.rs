//! `juggler recommend` refuses nonsense sizes: a non-finite or
//! non-positive `-e`, `-f` or `--ram-gb` is an error naming the flag and a
//! non-zero exit, never a menu. The same artifact with sane values prints
//! one.

mod common;

use common::TinyScoring;
use juggler_suite::juggler::pipeline::{OfflineTraining, TrainingConfig};

fn recommend(artifact: &std::path::Path, flags: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_juggler"))
        .arg("recommend")
        .arg(artifact)
        .args(flags)
        .output()
        .expect("juggler recommend runs")
}

#[test]
fn recommend_rejects_non_positive_and_non_finite_parameters() {
    let trained =
        OfflineTraining::run(&TinyScoring, &TrainingConfig::default()).expect("TINY trains");
    let dir = std::env::temp_dir().join(format!("juggler-recommend-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("tiny.json");
    std::fs::write(&artifact, serde_json::to_string(&trained).unwrap()).unwrap();

    let out = recommend(&artifact, &["-e", "4000", "-f", "800"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("machines"));
    let out = recommend(&artifact, &["-e", "4000", "-f", "800", "--ram-gb", "16"]);
    assert!(out.status.success(), "{out:?}");

    for bad in ["0", "-4", "-5", "nan", "NaN", "inf", "-inf"] {
        for (flags, name) in [
            (["-e", bad, "-f", "800", "--ram-gb", "16"], "-e"),
            (["-e", "4000", "-f", bad, "--ram-gb", "16"], "-f"),
            (["-e", "4000", "-f", "800", "--ram-gb", bad], "--ram-gb"),
        ] {
            let out = recommend(&artifact, &flags);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{flags:?} succeeded: {out:?}");
            assert!(
                stderr.contains(&format!("invalid {name}: `{bad}`")),
                "{flags:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{flags:?} printed a menu: {out:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
