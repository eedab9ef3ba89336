//! Corrupt-input robustness of the stored-record readers: a real `doctor`
//! run manifest and its health report are fed back to
//! `RunManifest::from_json` and `HealthReport::from_json` cut at every
//! truncation point and with random byte flips. Neither reader may panic;
//! a manifest is accepted only when its content hash verifies, which pins
//! the accepted content to the original, and an accepted health report
//! re-reads to itself.
//!
//! One test function: `doctor` resets the global metrics registry, so it
//! must not race another doctor call in this binary.

mod common;

use common::TinyScoring;
use juggler_suite::juggler::pipeline::TrainingConfig;
use juggler_suite::juggler::provenance::RunManifest;
use juggler_suite::juggler::HealthReport;
use juggler_suite::workloads::Workload;
use proptest::{run_cases, ProptestConfig};

/// `raw` with the byte at `at` replaced by `byte`, if that stays UTF-8.
fn flipped(raw: &str, at: usize, byte: u8) -> Option<String> {
    let mut bytes = raw.as_bytes().to_vec();
    bytes[at] = byte;
    String::from_utf8(bytes).ok()
}

/// Every strict prefix that still holds the whole JSON value (only the
/// trailing newline cut) parses; every shorter one is an error.
fn assert_truncations_fail<T>(raw: &str, read: impl Fn(&str) -> Result<T, String>) {
    let body = raw.trim_end().len();
    for cut in 0..raw.len() {
        if !raw.is_char_boundary(cut) {
            continue;
        }
        let outcome = read(&raw[..cut]);
        assert_eq!(
            outcome.is_ok(),
            cut >= body,
            "truncation at byte {cut} of {}",
            raw.len()
        );
    }
}

#[test]
fn corrupt_manifests_and_health_reports_are_rejected_without_panics() {
    let config = TrainingConfig::default();
    let report = juggler_suite::juggler::doctor(&TinyScoring, &config).expect("doctor succeeds");
    let manifest = RunManifest::from_doctor(&report, &config, &TinyScoring.paper_params());
    let raw = manifest.to_json();
    assert_eq!(
        RunManifest::from_json(&raw).expect("intact manifest"),
        manifest
    );

    assert_truncations_fail(&raw, RunManifest::from_json);
    run_cases(&ProptestConfig::with_cases(512), "manifest_flips", |rng| {
        let at = rng.next_in(0, raw.len() as u64) as usize;
        let Some(text) = flipped(&raw, at, rng.next_in(0, 128) as u8) else {
            return Ok(());
        };
        if let Ok(parsed) = RunManifest::from_json(&text) {
            if parsed.content != manifest.content || parsed.content.hash() != parsed.content_hash {
                return Err(format!("byte {at} flip accepted with altered content"));
            }
        }
        Ok(())
    });

    let health = &report.health;
    let raw = health.to_json();
    assert_eq!(
        &HealthReport::from_json(&raw).expect("intact report"),
        health
    );
    assert_truncations_fail(&raw, HealthReport::from_json);
    run_cases(&ProptestConfig::with_cases(512), "health_flips", |rng| {
        let at = rng.next_in(0, raw.len() as u64) as usize;
        let Some(text) = flipped(&raw, at, rng.next_in(0, 128) as u8) else {
            return Ok(());
        };
        if let Ok(parsed) = HealthReport::from_json(&text) {
            let again = HealthReport::from_json(&parsed.to_json())
                .map_err(|e| format!("byte {at} flip: accepted report does not re-read: {e}"))?;
            if again != parsed {
                return Err(format!(
                    "byte {at} flip: accepted report re-reads differently"
                ));
            }
        }
        Ok(())
    });
}
