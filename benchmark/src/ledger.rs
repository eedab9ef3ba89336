//! `ledger_health`: set-up runs `juggler::doctor` for each of the five
//! families and builds, in memory, a 100-manifest history per family with
//! `RunManifest::from_doctor`: healthy variants first (coefficient nudges
//! far below the watchtower's slack), then a tail perturbed past it.
//!
//! An op records one tail manifest (perturb, hash, `to_json`, id) into the
//! family's content-addressed history, then parses and verifies the whole
//! window (`RunManifest::from_json`) and folds it (`Watchtower::fold`).
//! The recorded manifest must equal the stored one byte for byte (content
//! addressing makes the record idempotent), the fold must reproduce the
//! warm-up `HealthReport::digest`, and the tail must read as drifted. No
//! disk is touched: the op measures JSON, hashing and folding.

use juggler::pipeline::TrainingConfig;
use juggler::{HealthReport, RunManifest, RunSample, Watchtower};
use obs::health::Verdict;
use workloads::Workload;

use crate::trace::Tracer;
use crate::{mix, Bench, OpError};

const HISTORY: usize = 100;
/// The last `TAIL` manifests of each history are perturbed past the slack.
const TAIL: usize = 10;

struct Family {
    base: RunManifest,
    /// Manifest JSON, oldest first.
    history: Vec<String>,
    ids: Vec<String>,
    fold_digest: String,
}

pub struct LedgerHealth {
    families: Vec<Family>,
}

/// Relative nudge of the first time-model coefficient of manifest `j`.
fn delta(j: usize) -> f64 {
    if j < HISTORY - TAIL {
        (j + 1) as f64 * 1e-6
    } else {
        0.05 * (j + 1 - (HISTORY - TAIL)) as f64
    }
}

fn variant(base: &RunManifest, j: usize) -> RunManifest {
    let mut m = base.clone();
    m.perturb_time_coefficient(0, delta(j));
    m
}

/// The tail slot op `k` records, as a history index.
fn slot(k: usize, families: usize) -> usize {
    HISTORY - TAIL + (k / families) % TAIL
}

impl Family {
    /// Checks a fold of this family's window: the warm-up digest, and a
    /// drift verdict whose onset lies in the perturbed tail.
    fn check(&self, report: &HealthReport) -> Result<(), String> {
        if report.digest() != self.fold_digest {
            return Err(format!(
                "{}: health report differs from the warm-up",
                report.workload
            ));
        }
        self.drift_in_tail(report)
    }

    fn drift_in_tail(&self, report: &HealthReport) -> Result<(), String> {
        let tail = &self.ids[HISTORY - TAIL..];
        let flagged = report.models.iter().any(|m| {
            matches!(&m.verdict, Verdict::Drifted { onset_run, .. } if tail.contains(onset_run))
        });
        let healthy_drift = report.models.iter().any(|m| {
            matches!(&m.verdict, Verdict::Drifted { onset_run, .. } if !tail.contains(onset_run))
        });
        if !flagged || healthy_drift {
            return Err(format!(
                "{}: the perturbed tail is not what reads as drifted",
                report.workload
            ));
        }
        Ok(())
    }

    fn check_recorded(&self, j: usize, json: &str, id: &str) -> Result<(), String> {
        if json != self.history[j] || id != self.ids[j] {
            return Err(format!(
                "{}: recorded manifest {j} differs from the stored one",
                self.base.content.workload
            ));
        }
        Ok(())
    }
}

impl Bench for LedgerHealth {
    fn setup(seed: u64, _t: &mut Tracer) -> Result<Self, String> {
        let mut families = Vec::new();
        for (i, w) in workloads::all_workloads().iter().enumerate() {
            let w: &dyn Workload = w.as_ref();
            let config = TrainingConfig {
                threads: 1,
                seed: mix(seed, i as u64),
                ..TrainingConfig::default()
            };
            let report = juggler::doctor(w, &config).map_err(|e| e.to_string())?;
            let base = RunManifest::from_doctor(&report, &config, &w.paper_params());
            let (mut history, mut ids) = (Vec::new(), Vec::new());
            for j in 0..HISTORY {
                let m = variant(&base, j);
                history.push(m.to_json());
                ids.push(m.id());
            }
            let window = history
                .iter()
                .map(|raw| RunManifest::from_json(raw))
                .collect::<Result<Vec<_>, _>>()?;
            let mut family = Family {
                base,
                history,
                ids,
                fold_digest: String::new(),
            };
            let report = Watchtower::default().fold(&window);
            family.fold_digest = report.digest();
            family.drift_in_tail(&report)?;
            families.push(family);
        }
        Ok(LedgerHealth { families })
    }

    fn reference(&self) -> String {
        let all: String = self
            .families
            .iter()
            .map(|f| format!("{}{}", f.ids.concat(), f.fold_digest))
            .collect();
        obs::sha256_hex(all.as_bytes())
    }

    fn op(&mut self, k: usize) -> Result<(), OpError> {
        let family = &self.families[k % self.families.len()];
        let j = slot(k, self.families.len());
        let m = variant(&family.base, j);
        family.check_recorded(j, &m.to_json(), &m.id())?;
        let window = family
            .history
            .iter()
            .map(|raw| RunManifest::from_json(raw))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(family.check(&Watchtower::default().fold(&window))?)
    }

    fn traced_op(&mut self, k: usize, t: &mut Tracer) -> Result<(), OpError> {
        let family = &self.families[k % self.families.len()];
        let j = slot(k, self.families.len());

        // Write side: `perturb_time_coefficient` split into its
        // serialization and its hash.
        let mut m = family.base.clone();
        if let Some(record) = m.content.time_models.first_mut() {
            if let Some(c) = record.model.coeffs.iter_mut().find(|c| **c != 0.0) {
                *c *= 1.0 + delta(j);
            }
        }
        let canonical = t.span("core.provenance.serialize", |_| m.content.canonical_json());
        m.content_hash = t.span("obs.sha256", |_| obs::sha256_hex(canonical.as_bytes()));
        let json = t.span("core.provenance.serialize", |_| m.to_json());
        family.check_recorded(j, &json, &m.id())?;

        // Read side: `RunManifest::from_json` = parse + rehash + compare.
        let mut window = Vec::with_capacity(family.history.len());
        for raw in &family.history {
            let span = t.enter("core.provenance.parse");
            let parsed: Result<RunManifest, _> =
                t.span("compat.json_parse", |_| serde_json::from_str(raw));
            let manifest = parsed.map_err(|e| format!("manifest: {e}"))?;
            let canonical = manifest.content.canonical_json();
            let hash = t.span("obs.sha256", |_| obs::sha256_hex(canonical.as_bytes()));
            t.exit(span);
            if hash != manifest.content_hash {
                return Err(OpError::Wrong("manifest content hash mismatch".to_owned()));
            }
            t.count("core.provenance.bytes", raw.len() as f64);
            window.push(manifest);
        }

        // Fold: `Watchtower::fold` = extract samples + `fold_samples`.
        let report = t.span("core.watchtower.fold", |t| {
            let samples: Vec<RunSample> = window.iter().map(RunSample::extract).collect();
            t.span("core.watchtower.fold_samples", |_| {
                Watchtower::default().fold_samples(&samples, &[])
            })
        });
        Ok(family.check(&report)?)
    }

    fn inject_mismatch(&mut self) {
        self.families[0].fold_digest.push('!');
    }
}
