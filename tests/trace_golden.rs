//! Golden test for the Chrome `trace_event` exporter: a fixed small app
//! under zero noise must export byte-for-byte the committed golden file.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test trace_golden` after
//! an intentional format change, and review the diff.

use juggler_suite::cluster_sim::{
    ClusterConfig, Engine, MachineSpec, NoiseParams, RunOptions, SimParams,
};
use juggler_suite::dagflow::{
    AppBuilder, ComputeCost, DatasetId, NarrowKind, Schedule, SourceFormat, WideKind,
};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_small.json")
}

/// The run that produced the golden: a 2-iteration cached app on one
/// 2-core machine, all noise off.
fn export() -> String {
    let mut b = AppBuilder::new("golden");
    let src = b.source("in", SourceFormat::DistributedFs, 1_000, 80_000_000, 4);
    let parsed = b.narrow(
        "parsed",
        NarrowKind::Map,
        &[src],
        1_000,
        60_000_000,
        ComputeCost::new(0.02, 1e-5, 2e-9),
    );
    for i in 0..2 {
        let g = b.wide_with_partitions(
            format!("g{i}"),
            WideKind::TreeAggregate,
            &[parsed],
            1,
            1024,
            1,
            ComputeCost::new(0.01, 0.0, 1e-9),
        );
        b.job("agg", g);
    }
    let app = b.build().unwrap();
    let params = SimParams {
        noise: NoiseParams::NONE,
        cluster_jitter_s: 0.0,
        seed: 7,
        ..SimParams::default()
    };
    let spec = MachineSpec {
        cores: 2,
        ..MachineSpec::paper_example()
    };
    let engine = Engine::new(&app, ClusterConfig::new(1, spec), params);
    let report = engine
        .run(
            &Schedule::persist_all([DatasetId(1)]),
            RunOptions {
                trace: true,
                ..RunOptions::default()
            },
        )
        .expect("run succeeds");
    report
        .trace
        .expect("trace enabled")
        .to_chrome_json("golden small run")
}

#[test]
fn chrome_export_matches_golden_file() {
    let got = export();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test trace_golden",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "Chrome export drifted from the golden file; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_export_is_parseable_json_with_driver_metadata() {
    let got = export();
    let parsed: serde_json::Value = serde_json::from_str(&got).expect("valid JSON");
    let events = parsed
        .get("traceEvents")
        .expect("traceEvents key")
        .expect_array("traceEvents")
        .expect("array");
    assert!(!events.is_empty());
    assert!(got.contains("\"displayTimeUnit\":\"ms\""));
    assert!(got.contains("process_name"));
}
