//! `juggler profile --diff FILE` reads a profile saved from `profile
//! --format json`: the saved document keeps its four keys, and a later
//! profile diffed against it prints the per-phase delta table.

fn juggler(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_juggler"))
        .args(args)
        .output()
        .expect("juggler runs")
}

#[test]
fn diff_reads_a_saved_json_profile() {
    let dir = std::env::temp_dir().join(format!("juggler-profile-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let saved = dir.join("lor.json");

    let out = juggler(&["profile", "LOR", "--format", "json", "--threads", "1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout.clone()).expect("utf-8 stdout");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("one JSON document");
    for key in ["version", "workload", "structure_digest", "profile"] {
        assert!(doc.get(key).is_some(), "saved profile lacks `{key}`");
    }
    std::fs::write(&saved, &out.stdout).expect("save the profile");

    let path = saved.to_str().expect("utf-8 temp path");
    let out = juggler(&["profile", "LOR", "--diff", path, "--threads", "1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let table = stdout
        .split_once(&format!("phase deltas vs {path} (base -> new):\n"))
        .map(|(_, table)| table)
        .unwrap_or_else(|| panic!("no delta table:\n{stdout}"));
    for phase in [
        "training/stage1_hotspot: ",
        "training/stage4_time_models/sim: ",
    ] {
        assert!(
            table.lines().any(|l| l.starts_with(phase)),
            "no `{phase}` row:\n{table}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
