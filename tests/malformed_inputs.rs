//! Corrupt-input robustness of the stored-record and spec readers: a real
//! `doctor` run manifest and its health report are fed back to
//! `RunManifest::from_json` and `HealthReport::from_json`, and the SLO and
//! tenancy specs to `SloSpec::from_json` and `TenantsSpec::from_json`, cut
//! at every truncation point and with random byte flips. No reader may
//! panic; a manifest is accepted only when its content hash verifies,
//! which pins the accepted content to the original, and an accepted
//! health report or spec re-reads to itself. A tenancy spec with a typoed
//! key, a fractional machine count or a negative seed is rejected, and
//! zero machines is a drill error rather than a simulator panic.

mod common;

use common::TinyScoring;
use juggler_suite::juggler::pipeline::TrainingConfig;
use juggler_suite::juggler::provenance::RunManifest;
use juggler_suite::juggler::{HealthReport, TenantsSpec};
use juggler_suite::obs::SloSpec;
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

/// Feeds `raw` with random single-byte flips to `read`: it must not
/// panic, and whatever it accepts must re-read to itself through `write`.
fn assert_flips_reread<T: PartialEq + std::fmt::Debug>(
    name: &str,
    raw: &str,
    read: impl Fn(&str) -> Result<T, String>,
    write: impl Fn(&T) -> String,
) {
    run_cases(&ProptestConfig::with_cases(512), name, |rng| {
        let at = rng.next_in(0, raw.len() as u64) as usize;
        let Some(text) = flipped(raw, at, rng.next_in(0, 128) as u8) else {
            return Ok(());
        };
        if let Ok(parsed) = read(&text) {
            let again = read(&write(&parsed))
                .map_err(|e| format!("byte {at} flip: accepted value does not re-read: {e}"))?;
            if again != parsed {
                return Err(format!(
                    "byte {at} flip: accepted value re-reads differently"
                ));
            }
        }
        Ok(())
    });
}

#[test]
fn corrupt_slo_and_tenants_specs_are_rejected_without_panics() {
    let slo = SloSpec {
        max_consecutive_breaches: 5,
        warn_burn_rate: 0.75,
        ..SloSpec::default()
    };
    let raw = serde_json::to_string_pretty(&slo).expect("serializes") + "\n";
    assert_eq!(SloSpec::from_json(&raw).expect("intact spec"), slo);
    assert_truncations_fail(&raw, SloSpec::from_json);
    assert_flips_reread("slo_flips", &raw, SloSpec::from_json, |s| {
        serde_json::to_string(s).expect("serializes")
    });

    let spec = TenantsSpec::drill();
    let raw = serde_json::to_string_pretty(&spec).expect("serializes") + "\n";
    assert_eq!(TenantsSpec::from_json(&raw).expect("intact spec"), spec);
    assert_truncations_fail(&raw, TenantsSpec::from_json);
    assert_flips_reread("tenants_flips", &raw, TenantsSpec::from_json, |s| {
        serde_json::to_string(s).expect("serializes")
    });
}

/// Spec values the hand-written reader once took silently: a typoed key
/// at either level, a fractional machine count and a negative seed are
/// parse errors, and zero machines is a drill error naming `machines`,
/// not an index panic in the simulator.
#[test]
fn tenants_spec_typos_and_impossible_values_are_errors() {
    use juggler_suite::juggler::tenants::run_tenants;

    let spec = TenantsSpec::from_json(r#"{"machines": 0, "tenants": [{"workload": "LOR"}]}"#)
        .expect("zero machines parses");
    let err = run_tenants(&spec).expect_err("zero machines cannot run");
    assert!(err.contains("machines"), "{err}");

    for (raw, key) in [
        (
            r#"{"machine": 9, "tenants": [{"workload": "LOR"}]}"#,
            "machine",
        ),
        (
            r#"{"tenants": [{"workload": "LOR", "wieght": 2}]}"#,
            "wieght",
        ),
        (
            r#"{"machines": 2.9, "tenants": [{"workload": "LOR"}]}"#,
            "machines",
        ),
        (r#"{"seed": -3, "tenants": [{"workload": "LOR"}]}"#, "seed"),
    ] {
        let err = TenantsSpec::from_json(raw).expect_err(raw);
        assert!(err.contains(key), "{raw}: {err}");
    }
}
