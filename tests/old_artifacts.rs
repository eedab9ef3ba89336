//! Documents written before `HotspotConfig::pressure`,
//! `HotspotAudit::pressure` and `RunReport::contention` existed still
//! load: a fresh TINY training artifact, its diagnostics, its hotspot
//! config and one simulated run report are serialized, every `pressure`
//! and `contention` member is stripped, and each part reads back with
//! the field's default.

mod common;

use common::TinyScoring;
use juggler_suite::cluster_sim::{
    ClusterConfig, ContentionSummary, Engine, MachineSpec, RunOptions, RunReport,
};
use juggler_suite::juggler::pipeline::{OfflineTraining, TrainedJuggler, TrainingConfig};
use juggler_suite::juggler::{HotspotConfig, TrainingDiagnostics};
use juggler_suite::workloads::Workload;
use serde_json::Value;

/// Removes every `pressure` and `contention` object member under `v`;
/// returns how many it removed.
fn strip(v: &mut Value) -> usize {
    match v {
        Value::Object(entries) => {
            let before = entries.len();
            entries.retain(|(k, _)| k != "pressure" && k != "contention");
            let removed = before - entries.len();
            removed + entries.iter_mut().map(|(_, v)| strip(v)).sum::<usize>()
        }
        Value::Array(items) => items.iter_mut().map(strip).sum(),
        _ => 0,
    }
}

#[test]
fn artifacts_without_pressure_or_contention_load() {
    let config = TrainingConfig::default();
    let (trained, diagnostics) =
        OfflineTraining::run_traced(&TinyScoring, &config).expect("TINY trains");
    let app = TinyScoring.build(&TinyScoring.sample_params());
    let report = Engine::new(
        &app,
        ClusterConfig::new(2, MachineSpec::private_cluster()),
        TinyScoring.sim_params(),
    )
    .run(app.default_schedule(), RunOptions::default())
    .expect("TINY runs");

    let mut doc = serde_json::json!({
        "trained": trained,
        "diagnostics": diagnostics,
        "hotspot": config.hotspot,
        "report": report,
    });
    // hotspot.pressure, diagnostics.hotspot.pressure, report.contention.
    assert_eq!(strip(&mut doc), 3);
    let old: Value = serde_json::from_str(&serde_json::to_string(&doc).unwrap()).unwrap();

    let back: TrainedJuggler = serde_json::from_value(old["trained"].clone()).expect("trained");
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(&trained).unwrap()
    );
    let back: TrainingDiagnostics =
        serde_json::from_value(old["diagnostics"].clone()).expect("diagnostics");
    assert_eq!(back.hotspot.pressure, 0.0);
    let back: HotspotConfig = serde_json::from_value(old["hotspot"].clone()).expect("hotspot");
    assert_eq!(back, HotspotConfig::default());
    assert_eq!(back.pressure, 0.0);
    let back: RunReport = serde_json::from_value(old["report"].clone()).expect("report");
    assert_eq!(back.contention, ContentionSummary::default());
    assert_eq!(back.total_time_s, report.total_time_s);
}
