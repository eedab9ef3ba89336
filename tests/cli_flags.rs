//! Every `juggler` command checks its flags against one table before any
//! work starts: an unknown flag, a value flag without its value, a
//! repeated flag and two flags of one `[A | B]` group exit with status 2,
//! print the command's usage line on stderr and nothing on stdout.

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
        (
            &["profile", "LOR", "--store", "DIR"],
            "unknown flag `--store`",
            "juggler profile <WORKLOAD> [--format tree|collapsed|json] [--diff FILE]",
        ),
        (
            &["health", "LOR", "--report-store", "DIR"],
            "unknown flag `--report-store`",
            "juggler health <WORKLOAD> [--slo FILE]",
        ),
        (
            &["doctor", "LOR", "--timings"],
            "unknown flag `--timings`",
            "juggler doctor <WORKLOAD> [--threads N] [--format text|json]",
        ),
        (
            &["metrics", "LOR", "--timings"],
            "unknown flag `--timings`",
            "juggler metrics <WORKLOAD> [--format prom|json]",
        ),
        (
            &["trace", "LOR", "--no-pipeline"],
            "unknown flag `--no-pipeline`",
            "juggler trace <WORKLOAD> [--machines N] [--width N]",
        ),
        (
            &["trace", "LOR", "--threads", "2"],
            "unknown flag `--threads`",
            "juggler trace <WORKLOAD> [--machines N] [--width N]",
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

#[test]
fn sweep_takes_a_schedule_or_explicit_ops_not_both() {
    let out = juggler(&["sweep", "LOR", "--ops", "p(1)", "--schedule", "3"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("`--schedule` and `--ops` cannot be given together"),
        "{stderr}"
    );
    assert!(stderr.contains("juggler sweep <WORKLOAD>"), "{stderr}");
    assert!(out.stdout.is_empty(), "printed: {out:?}");
}

#[test]
fn schedule_zero_is_rejected_before_any_work() {
    for command in ["sweep", "dot"] {
        let out = juggler(&[command, "LOR", "--schedule", "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains("schedules are numbered from 1"),
            "{command}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{command} printed: {out:?}");
    }
}

#[test]
fn trace_rejects_zero_machines_and_a_narrow_gantt_before_any_work() {
    for (args, error) in [
        (
            &["trace", "LOR", "--machines", "0"][..],
            "--machines must be at least 1",
        ),
        (
            &["trace", "LOR", "--width", "9"],
            "--width must be at least 10",
        ),
    ] {
        let out = juggler(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed: {out:?}");
    }
}

#[test]
fn sweep_ops_names_a_malformed_token_apart_from_an_unknown_dataset() {
    for (ops, error) in [
        ("x", "malformed schedule token `x` (expected p(N) or u(N))"),
        ("p(1", "malformed schedule token `p(1`"),
        ("p(-1)", "malformed schedule token `p(-1)`"),
        ("p(1) q(2)", "malformed schedule token `q(2)`"),
        ("p(9999)", "schedule references unknown dataset D9999"),
    ] {
        let out = juggler(&["sweep", "LOR", "--ops", ops]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{ops}: {stderr}");
        assert!(stderr.contains(error), "{ops}: {stderr}");
        assert!(out.stdout.is_empty(), "{ops} printed: {out:?}");
    }
}
