//! Every `juggler` command checks its flags against one table before any
//! work starts: an unknown flag, a value flag without its value and a
//! repeated flag exit with status 2, print the command's usage line on
//! stderr and nothing on stdout.

fn juggler(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_juggler"))
        .args(args)
        .output()
        .expect("juggler runs")
}

#[test]
fn bad_flags_exit_2_with_the_usage_line() {
    for (args, error, usage) in [
        (
            &["list", "--bogus"][..],
            "unknown flag `--bogus`",
            "juggler list",
        ),
        (
            &["train", "LOR", "--thread", "4"],
            "unknown flag `--thread`",
            "juggler train <WORKLOAD> [--out FILE] [--threads N]",
        ),
        (
            &["train", "LOR", "--out"],
            "`--out` needs a value",
            "juggler train <WORKLOAD> [--out FILE] [--threads N]",
        ),
        (
            &["health", "LOR", "--limit", "1", "--limit", "2"],
            "`--limit` given twice",
            "juggler health <WORKLOAD> [--slo FILE]",
        ),
    ] {
        let out = juggler(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(stderr.contains(usage), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed: {out:?}");
    }
}
