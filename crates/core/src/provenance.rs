//! Run provenance: the typed [`RunManifest`] every training/validation
//! run emits into the ledger, and the cross-run drift diff behind
//! `juggler runs diff`.
//!
//! A manifest has two parts with deliberately different contracts:
//!
//! * **Content** ([`ManifestContent`]) — everything the run *computed*:
//!   workload identity and parameters, seed, per-schedule digests, every
//!   fitted model's winning spec and coefficients, the prediction
//!   ledger's relative errors, and the deterministic counter snapshot.
//!   Content is canonically serialized (compact JSON, struct fields in
//!   declaration order, floats in Rust's shortest-roundtrip form) and
//!   hashed with the workspace SHA-256; the hash is the run's identity.
//!   Content must be **bit-identical across worker-thread counts** —
//!   the same determinism contract as every trained artifact.
//! * **Envelope** ([`ManifestEnvelope`]) — how the run was *executed*:
//!   schema version, tool name, thread counts. Recorded for forensics,
//!   **excluded from the hash** — re-running the same training at a
//!   different thread count maps to the same run id.
//!
//! Nothing here carries a wall-clock timestamp: identity must not
//! depend on when a run happened, only on what it computed. Host-side
//! stage wall-clock stays in the phase profile (`obs::prof`, shown by
//! `juggler profile`) and never enters a manifest.

use serde::{Deserialize, Serialize};

use dagflow::Schedule;
use modeling::ModelSummary;
use workloads::WorkloadParams;

use crate::doctor::DoctorReport;
use crate::pipeline::{TrainingConfig, TrainingCosts};

/// Version of the manifest content schema. Bump on any change to the
/// canonical serialization; `runs diff` refuses cross-version diffs.
pub const SCHEMA_VERSION: u32 = 1;

/// Execution circumstances — recorded, never hashed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEnvelope {
    /// Content-schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Producing tool, e.g. `juggler doctor`.
    pub tool: String,
    /// `TrainingConfig::threads` as requested (0 = auto).
    pub threads_requested: usize,
    /// The worker-thread count the request resolved to on this host.
    pub threads_resolved: usize,
}

/// One schedule the training ranked, with a content digest of the
/// schedule itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleRecord {
    /// Index in the trained artifact's schedule order.
    pub index: usize,
    /// Human-readable schedule notation.
    pub notation: String,
    /// SHA-256 of the schedule's canonical serialization.
    pub digest: String,
    /// Estimated caching benefit, seconds.
    pub benefit_s: f64,
    /// Memory budget the schedule needs, bytes.
    pub budget_bytes: u64,
}

/// One fitted model: a stable name plus the winning spec, coefficients
/// and LOO-CV error (see [`modeling::ModelSummary`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRecord {
    /// Stable name, e.g. `size D3` or `time [0]`.
    pub name: String,
    /// The winner's spec, coefficients, and cross-validation error.
    pub model: ModelSummary,
}

/// One predicted-vs-simulated validation row (mirrors
/// [`crate::LedgerEntry`], minus the redundant workload/params fields).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionRecord {
    /// Index of the schedule the prediction targeted.
    pub schedule_index: usize,
    /// Recommended machine count.
    pub machines: u32,
    /// Predicted execution time, seconds.
    pub predicted_time_s: f64,
    /// Simulated execution time, seconds.
    pub actual_time_s: f64,
    /// Predicted memory budget, bytes.
    pub predicted_size_bytes: u64,
    /// Observed peak cached bytes.
    pub actual_peak_bytes: u64,
    /// Digest of the validating run's report.
    pub report_digest: String,
}

/// The prediction-quality block of a manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionsRecord {
    /// Per-option validation rows.
    pub entries: Vec<PredictionRecord>,
    /// Mean relative time-prediction error (negative when no entries).
    pub mean_time_rel_error: f64,
    /// Worst relative time-prediction error (negative when no entries).
    pub max_time_rel_error: f64,
    /// Mean relative size-prediction error (negative when no entries).
    pub mean_size_rel_error: f64,
}

/// One deterministic counter from the metrics snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterRecord {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// The hashed body of a manifest — everything the run computed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestContent {
    /// Workload name.
    pub workload: String,
    /// Workload parameters the validations used.
    pub params: WorkloadParams,
    /// RNG seed threaded into every simulated run.
    pub seed: u64,
    /// Machine-count cap.
    pub max_machines: u32,
    /// Calibrated memory factor.
    pub memory_factor: f64,
    /// Ranked schedules with their digests.
    pub schedules: Vec<ScheduleRecord>,
    /// Per-dataset size models, ordered by dataset id.
    pub size_models: Vec<ModelRecord>,
    /// Per-schedule time models, in schedule order.
    pub time_models: Vec<ModelRecord>,
    /// Per-stage training costs.
    pub training_costs: TrainingCosts,
    /// Predicted-vs-simulated validation summary.
    pub predictions: PredictionsRecord,
    /// Deterministic counters from the metrics snapshot, sorted by name.
    pub counters: Vec<CounterRecord>,
}

/// A complete, storable run manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Execution circumstances (never hashed).
    pub envelope: ManifestEnvelope,
    /// The hashed body.
    pub content: ManifestContent,
    /// SHA-256 of the content's canonical serialization.
    pub content_hash: String,
}

/// SHA-256 of a schedule's canonical serialization — the per-schedule
/// digest recorded in manifests.
#[must_use]
pub fn schedule_digest(schedule: &Schedule) -> String {
    let canonical = serde_json::to_string(schedule).expect("Schedule always serializes");
    obs::sha256_hex(canonical.as_bytes())
}

impl ManifestContent {
    /// The canonical serialization the content hash covers: compact
    /// JSON, struct fields in declaration order, maps pre-sorted.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("ManifestContent always serializes")
    }

    /// SHA-256 over [`Self::canonical_json`].
    #[must_use]
    pub fn hash(&self) -> String {
        obs::sha256_hex(self.canonical_json().as_bytes())
    }
}

impl RunManifest {
    /// Builds the manifest of one `juggler doctor` run.
    #[must_use]
    pub fn from_doctor(
        report: &DoctorReport,
        config: &TrainingConfig,
        params: &WorkloadParams,
    ) -> Self {
        let trained = &report.trained;
        let schedules = trained
            .schedules
            .iter()
            .enumerate()
            .map(|(index, rs)| ScheduleRecord {
                index,
                notation: rs.schedule.notation(),
                digest: schedule_digest(&rs.schedule),
                benefit_s: rs.benefit_s,
                budget_bytes: rs.budget_bytes,
            })
            .collect();
        // HashMap order is nondeterministic; sort by dataset id.
        let mut size_models: Vec<ModelRecord> = trained
            .sizes
            .models()
            .values()
            .map(|sm| ModelRecord {
                name: format!("size {}", sm.dataset),
                model: ModelSummary::of(&sm.model, sm.cv_error),
            })
            .collect();
        size_models.sort_by(|a, b| a.name.cmp(&b.name));
        let time_models = trained
            .time_models
            .iter()
            .map(|tm| ModelRecord {
                name: format!("time [{}]", tm.schedule_index),
                model: ModelSummary::of(&tm.model, tm.cv_error),
            })
            .collect();
        let entries: Vec<PredictionRecord> = report
            .ledger
            .entries
            .iter()
            .map(|e| PredictionRecord {
                schedule_index: e.schedule_index,
                machines: e.machines,
                predicted_time_s: e.predicted_time_s,
                actual_time_s: e.actual_time_s,
                predicted_size_bytes: e.predicted_size_bytes,
                actual_peak_bytes: e.actual_peak_bytes,
                report_digest: e.report_digest.clone(),
            })
            .collect();
        let predictions = PredictionsRecord {
            entries,
            mean_time_rel_error: report.ledger.mean_time_rel_error().unwrap_or(-1.0),
            max_time_rel_error: report.ledger.max_time_rel_error().unwrap_or(-1.0),
            mean_size_rel_error: report.ledger.mean_size_rel_error().unwrap_or(-1.0),
        };
        let mut counters: Vec<CounterRecord> = report
            .snapshot
            .metrics
            .iter()
            .filter_map(|m| match m.value {
                obs::MetricValue::Counter(v) => Some(CounterRecord {
                    name: m.name.clone(),
                    value: v,
                }),
                _ => None,
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let content = ManifestContent {
            workload: trained.workload.clone(),
            params: *params,
            seed: config.seed,
            max_machines: trained.max_machines,
            memory_factor: trained.memory_factor.factor,
            schedules,
            size_models,
            time_models,
            training_costs: trained.costs,
            predictions,
            counters,
        };
        let content_hash = content.hash();
        RunManifest {
            envelope: ManifestEnvelope {
                schema_version: SCHEMA_VERSION,
                tool: "juggler doctor".to_owned(),
                threads_requested: config.threads,
                threads_resolved: crate::parallel::resolve_threads(config.threads),
            },
            content,
            content_hash,
        }
    }

    /// Run id: the leading 16 hex chars of the content hash (matches
    /// the ledger-store file stem).
    #[must_use]
    pub fn id(&self) -> String {
        obs::LedgerStore::id_of(&self.content_hash)
    }

    /// Full-manifest JSON for the ledger store (pretty, trailing
    /// newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("RunManifest always serializes");
        s.push('\n');
        s
    }

    /// Parses a stored manifest and verifies its content hash.
    pub fn from_json(raw: &str) -> Result<Self, String> {
        let manifest: RunManifest =
            serde_json::from_str(raw).map_err(|e| format!("manifest: {e}"))?;
        let recomputed = manifest.content.hash();
        if recomputed != manifest.content_hash {
            return Err(format!(
                "manifest content hash mismatch: declared {}, recomputed {} \
                 (corrupted file or schema drift)",
                manifest.content_hash, recomputed
            ));
        }
        Ok(manifest)
    }

    /// Test-only hook: multiplies one coefficient of one time model by
    /// `1 + delta_rel` and rehashes, simulating silent model drift. Used
    /// by the drift-detection tests and nothing else.
    #[doc(hidden)]
    pub fn perturb_time_coefficient(&mut self, schedule_index: usize, delta_rel: f64) {
        if let Some(record) = self.content.time_models.get_mut(schedule_index) {
            if let Some(c) = record.model.coeffs.iter_mut().find(|c| **c != 0.0) {
                *c *= 1.0 + delta_rel;
            }
        }
        self.content_hash = self.content.hash();
    }
}

// ───────────────────────────── diffing ─────────────────────────────

/// What separates noise from drift when diffing two manifests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffTolerances {
    /// Relative tolerance for model coefficients: a coefficient pair
    /// `(a, b)` drifts when `|a - b| > coeff_rel · max(|a|, |b|)`.
    pub coeff_rel: f64,
    /// Absolute tolerance on prediction relative errors (which are
    /// themselves fractions): an error that grows by more than this is
    /// a regression.
    pub pred_err_abs: f64,
}

impl Default for DiffTolerances {
    fn default() -> Self {
        // Training is bit-deterministic, so the default tolerances are
        // tight: they only absorb last-ulp noise from refactored float
        // arithmetic, not behaviour changes.
        DiffTolerances {
            coeff_rel: 1e-6,
            pred_err_abs: 1e-3,
        }
    }
}

/// One detected difference between two manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Short category tag (`model`, `coeff`, `prediction`, `counter`,
    /// `schedule`, `identity`).
    pub category: &'static str,
    /// Human-readable account of the change, `a → b`.
    pub detail: String,
}

/// The result of diffing two manifests' *content* (envelopes are
/// execution circumstances and never diffed).
#[derive(Debug, Clone)]
pub struct ManifestDiff {
    /// Id of the left (older/reference) run.
    pub a_id: String,
    /// Id of the right (newer/candidate) run.
    pub b_id: String,
    /// Every detected drift, in a fixed section order.
    pub drifts: Vec<Drift>,
}

fn rel_differs(a: f64, b: f64, rel_tol: f64) -> bool {
    if a == b {
        return false;
    }
    if !a.is_finite() || !b.is_finite() {
        return true;
    }
    (a - b).abs() > rel_tol * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

impl ManifestDiff {
    /// Diffs `b` (candidate) against `a` (reference).
    #[must_use]
    pub fn between(a: &RunManifest, b: &RunManifest, tol: &DiffTolerances) -> Self {
        let mut drifts = Vec::new();
        let push = |drifts: &mut Vec<Drift>, category: &'static str, detail: String| {
            drifts.push(Drift { category, detail });
        };
        let ca = &a.content;
        let cb = &b.content;

        // Identity: when these differ the runs aren't comparable, but
        // the diff still reports rather than erroring.
        if ca.workload != cb.workload {
            push(
                &mut drifts,
                "identity",
                format!("workload: {} → {}", ca.workload, cb.workload),
            );
        }
        if ca.params != cb.params {
            push(
                &mut drifts,
                "identity",
                format!(
                    "params: (e {}, f {}, i {}) → (e {}, f {}, i {})",
                    ca.params.examples,
                    ca.params.features,
                    ca.params.iterations,
                    cb.params.examples,
                    cb.params.features,
                    cb.params.iterations
                ),
            );
        }
        if ca.seed != cb.seed {
            push(
                &mut drifts,
                "identity",
                format!("seed: {:#x} → {:#x}", ca.seed, cb.seed),
            );
        }
        if ca.max_machines != cb.max_machines {
            push(
                &mut drifts,
                "identity",
                format!("max machines: {} → {}", ca.max_machines, cb.max_machines),
            );
        }
        if rel_differs(ca.memory_factor, cb.memory_factor, tol.coeff_rel) {
            push(
                &mut drifts,
                "model",
                format!(
                    "memory factor: {} → {}",
                    obs::fmt_sig(ca.memory_factor, 6),
                    obs::fmt_sig(cb.memory_factor, 6)
                ),
            );
        }

        // Schedules.
        if ca.schedules.len() != cb.schedules.len() {
            push(
                &mut drifts,
                "schedule",
                format!(
                    "schedule count: {} → {}",
                    ca.schedules.len(),
                    cb.schedules.len()
                ),
            );
        }
        for (sa, sb) in ca.schedules.iter().zip(&cb.schedules) {
            if sa.notation != sb.notation {
                push(
                    &mut drifts,
                    "schedule",
                    format!("[{}] schedule: {} → {}", sa.index, sa.notation, sb.notation),
                );
            } else if sa.digest != sb.digest {
                push(
                    &mut drifts,
                    "schedule",
                    format!(
                        "[{}] {} digest: {}… → {}…",
                        sa.index,
                        sa.notation,
                        &sa.digest[..12.min(sa.digest.len())],
                        &sb.digest[..12.min(sb.digest.len())]
                    ),
                );
            }
            if sa.budget_bytes != sb.budget_bytes {
                let delta = i128::from(sb.budget_bytes) - i128::from(sa.budget_bytes);
                push(
                    &mut drifts,
                    "schedule",
                    format!(
                        "[{}] budget: {} → {} ({})",
                        sa.index,
                        obs::fmt_bytes(sa.budget_bytes),
                        obs::fmt_bytes(sb.budget_bytes),
                        obs::fmt_bytes_delta(delta)
                    ),
                );
            }
            if rel_differs(sa.benefit_s, sb.benefit_s, tol.coeff_rel) {
                push(
                    &mut drifts,
                    "schedule",
                    format!(
                        "[{}] benefit: {} → {}",
                        sa.index,
                        obs::fmt_duration_s(sa.benefit_s),
                        obs::fmt_duration_s(sb.benefit_s)
                    ),
                );
            }
        }

        // Models: winners, then coefficients.
        diff_models(&mut drifts, &ca.size_models, &cb.size_models, tol);
        diff_models(&mut drifts, &ca.time_models, &cb.time_models, tol);

        // Prediction-error regressions (improvements are not drift).
        let pairs = [
            (
                "mean time rel error",
                ca.predictions.mean_time_rel_error,
                cb.predictions.mean_time_rel_error,
            ),
            (
                "max time rel error",
                ca.predictions.max_time_rel_error,
                cb.predictions.max_time_rel_error,
            ),
            (
                "mean size rel error",
                ca.predictions.mean_size_rel_error,
                cb.predictions.mean_size_rel_error,
            ),
        ];
        for (label, ea, eb) in pairs {
            if eb > ea + tol.pred_err_abs {
                push(
                    &mut drifts,
                    "prediction",
                    format!(
                        "{label} regressed: {}% → {}%",
                        obs::fmt_sig(ea * 100.0, 3),
                        obs::fmt_sig(eb * 100.0, 3)
                    ),
                );
            }
        }
        for (pa, pb) in ca.predictions.entries.iter().zip(&cb.predictions.entries) {
            if pa.schedule_index == pb.schedule_index && pa.report_digest != pb.report_digest {
                push(
                    &mut drifts,
                    "prediction",
                    format!(
                        "[{}] validation report digest: {}… → {}…",
                        pa.schedule_index,
                        &pa.report_digest[..12.min(pa.report_digest.len())],
                        &pb.report_digest[..12.min(pb.report_digest.len())]
                    ),
                );
            }
        }

        // Counter drift (sorted-by-name merge).
        let mut ia = ca.counters.iter().peekable();
        let mut ib = cb.counters.iter().peekable();
        loop {
            match (ia.peek(), ib.peek()) {
                (Some(x), Some(y)) if x.name == y.name => {
                    if x.value != y.value {
                        let delta = i128::from(y.value) - i128::from(x.value);
                        push(
                            &mut drifts,
                            "counter",
                            format!("{}: {} → {} ({:+})", x.name, x.value, y.value, delta),
                        );
                    }
                    ia.next();
                    ib.next();
                }
                (Some(x), Some(y)) if x.name < y.name => {
                    push(
                        &mut drifts,
                        "counter",
                        format!("{} disappeared (was {})", x.name, x.value),
                    );
                    ia.next();
                }
                (Some(_), Some(y)) => {
                    push(
                        &mut drifts,
                        "counter",
                        format!("{} appeared ({})", y.name, y.value),
                    );
                    ib.next();
                }
                (Some(x), None) => {
                    push(
                        &mut drifts,
                        "counter",
                        format!("{} disappeared (was {})", x.name, x.value),
                    );
                    ia.next();
                }
                (None, Some(y)) => {
                    push(
                        &mut drifts,
                        "counter",
                        format!("{} appeared ({})", y.name, y.value),
                    );
                    ib.next();
                }
                (None, None) => break,
            }
        }

        ManifestDiff {
            a_id: a.id(),
            b_id: b.id(),
            drifts,
        }
    }

    /// Whether anything drifted.
    #[must_use]
    pub fn has_drift(&self) -> bool {
        !self.drifts.is_empty()
    }

    /// Deterministic human-readable rendering (the `runs diff` output).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("runs diff {} .. {}\n", self.a_id, self.b_id);
        if self.drifts.is_empty() {
            out.push_str("  no drift\n");
            return out;
        }
        for d in &self.drifts {
            out.push_str(&format!("  [{}] {}\n", d.category, d.detail));
        }
        let n = self.drifts.len();
        out.push_str(&format!(
            "  {n} drift{} detected\n",
            if n == 1 { "" } else { "s" }
        ));
        out
    }
}

fn diff_models(
    drifts: &mut Vec<Drift>,
    a: &[ModelRecord],
    b: &[ModelRecord],
    tol: &DiffTolerances,
) {
    if a.len() != b.len() {
        drifts.push(Drift {
            category: "model",
            detail: format!("model count: {} → {}", a.len(), b.len()),
        });
    }
    for (ma, mb) in a.iter().zip(b) {
        let name = if ma.name == mb.name {
            ma.name.clone()
        } else {
            format!("{}/{}", ma.name, mb.name)
        };
        if ma.model.spec != mb.model.spec {
            drifts.push(Drift {
                category: "model",
                detail: format!(
                    "{name} winner changed: {} → {}",
                    ma.model.spec, mb.model.spec
                ),
            });
            // Coefficients of different specs aren't comparable.
            continue;
        }
        for (k, (ca, cb)) in ma.model.coeffs.iter().zip(&mb.model.coeffs).enumerate() {
            if rel_differs(*ca, *cb, tol.coeff_rel) {
                drifts.push(Drift {
                    category: "coeff",
                    detail: format!(
                        "{name} θ{k}: {} → {}",
                        obs::fmt_sig(*ca, 6),
                        obs::fmt_sig(*cb, 6)
                    ),
                });
            }
        }
        if rel_differs(ma.model.cv_error, mb.model.cv_error, tol.coeff_rel)
            && (mb.model.cv_error - ma.model.cv_error).abs() > tol.pred_err_abs
        {
            drifts.push(Drift {
                category: "model",
                detail: format!(
                    "{name} cv error: {}% → {}%",
                    obs::fmt_sig(ma.model.cv_error * 100.0, 3),
                    obs::fmt_sig(mb.model.cv_error * 100.0, 3)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_manifest() -> RunManifest {
        let content = ManifestContent {
            workload: "TINY".into(),
            params: WorkloadParams {
                examples: 4_000,
                features: 800,
                iterations: 4,
                partitions: 4,
            },
            seed: 0x5EED,
            max_machines: 12,
            memory_factor: 1.0,
            schedules: vec![ScheduleRecord {
                index: 0,
                notation: "P(D2@D0)".into(),
                digest: "ab".repeat(32),
                benefit_s: 12.5,
                budget_bytes: 1_000_000,
            }],
            size_models: vec![ModelRecord {
                name: "size D2".into(),
                model: ModelSummary {
                    spec: "e·f".into(),
                    coeffs: vec![0.016],
                    cv_error: 0.001,
                },
            }],
            time_models: vec![ModelRecord {
                name: "time [0]".into(),
                model: ModelSummary {
                    spec: "1 + e·f".into(),
                    coeffs: vec![30.0, 3.2e-7],
                    cv_error: 0.02,
                },
            }],
            training_costs: TrainingCosts::default(),
            predictions: PredictionsRecord {
                entries: vec![PredictionRecord {
                    schedule_index: 0,
                    machines: 4,
                    predicted_time_s: 100.0,
                    actual_time_s: 104.0,
                    predicted_size_bytes: 900_000,
                    actual_peak_bytes: 950_000,
                    report_digest: "cd".repeat(32),
                }],
                mean_time_rel_error: 0.04,
                max_time_rel_error: 0.04,
                mean_size_rel_error: 0.05,
            },
            counters: vec![
                CounterRecord {
                    name: "sim_runs_total".into(),
                    value: 11,
                },
                CounterRecord {
                    name: "sim_cache_hits_total".into(),
                    value: 42,
                },
            ],
        };
        let content_hash = content.hash();
        RunManifest {
            envelope: ManifestEnvelope {
                schema_version: SCHEMA_VERSION,
                tool: "test".into(),
                threads_requested: 0,
                threads_resolved: 8,
            },
            content,
            content_hash,
        }
    }

    #[test]
    fn hash_covers_content_not_envelope() {
        let a = tiny_manifest();
        let mut b = a.clone();
        b.envelope.threads_resolved = 1;
        b.envelope.tool = "other".into();
        assert_eq!(a.content.hash(), b.content.hash());
        assert_eq!(a.id(), b.id());
        let mut c = a.clone();
        c.content.seed ^= 1;
        assert_ne!(a.content.hash(), c.content.hash());
    }

    #[test]
    fn json_roundtrip_preserves_identity() {
        let m = tiny_manifest();
        let parsed = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.content_hash, m.content.hash());
    }

    #[test]
    fn from_json_rejects_tampered_content() {
        let m = tiny_manifest();
        let tampered = m.to_json().replace("\"seed\": 24301", "\"seed\": 24302");
        assert_ne!(tampered, m.to_json(), "replacement must hit");
        let err = RunManifest::from_json(&tampered).unwrap_err();
        assert!(err.contains("hash mismatch"), "{err}");
    }

    #[test]
    fn identical_manifests_diff_clean() {
        let a = tiny_manifest();
        let diff = ManifestDiff::between(&a, &a.clone(), &DiffTolerances::default());
        assert!(!diff.has_drift(), "{:#?}", diff.drifts);
        assert!(diff.render().contains("no drift"));
    }

    #[test]
    fn perturbed_coefficient_is_flagged() {
        let a = tiny_manifest();
        let mut b = a.clone();
        b.perturb_time_coefficient(0, 0.05);
        assert_ne!(a.content_hash, b.content_hash);
        let diff = ManifestDiff::between(&a, &b, &DiffTolerances::default());
        assert!(diff.has_drift());
        let coeff = diff
            .drifts
            .iter()
            .find(|d| d.category == "coeff")
            .expect("coefficient drift");
        assert!(coeff.detail.contains("time [0]"), "{}", coeff.detail);
    }

    #[test]
    fn sub_tolerance_jitter_is_not_drift() {
        let a = tiny_manifest();
        let mut b = a.clone();
        // One-ulp-scale wiggle, far below coeff_rel = 1e-6.
        b.content.time_models[0].model.coeffs[1] *= 1.0 + 1e-12;
        b.content_hash = b.content.hash();
        let diff = ManifestDiff::between(&a, &b, &DiffTolerances::default());
        assert!(!diff.has_drift(), "{:#?}", diff.drifts);
    }

    #[test]
    fn winner_change_suppresses_coefficient_noise() {
        let a = tiny_manifest();
        let mut b = a.clone();
        b.content.time_models[0].model.spec = "e·f".into();
        b.content.time_models[0].model.coeffs = vec![9.9];
        b.content_hash = b.content.hash();
        let diff = ManifestDiff::between(&a, &b, &DiffTolerances::default());
        let cats: Vec<&str> = diff.drifts.iter().map(|d| d.category).collect();
        assert!(cats.contains(&"model"), "{cats:?}");
        assert!(!cats.contains(&"coeff"), "{cats:?}");
    }

    #[test]
    fn prediction_regressions_and_counter_drift_are_flagged() {
        let a = tiny_manifest();
        let mut b = a.clone();
        b.content.predictions.mean_time_rel_error = 0.09;
        b.content.counters[1].value = 45;
        b.content.counters.push(CounterRecord {
            name: "zzz_new_total".into(),
            value: 1,
        });
        b.content_hash = b.content.hash();
        let diff = ManifestDiff::between(&a, &b, &DiffTolerances::default());
        let text = diff.render();
        assert!(
            text.contains("mean time rel error regressed: 4% → 9%"),
            "{text}"
        );
        assert!(
            text.contains("sim_cache_hits_total: 42 → 45 (+3)"),
            "{text}"
        );
        assert!(text.contains("zzz_new_total appeared (1)"), "{text}");
        // An *improvement* is not drift.
        let mut c = a.clone();
        c.content.predictions.mean_time_rel_error = 0.01;
        c.content_hash = c.content.hash();
        let diff = ManifestDiff::between(&a, &c, &DiffTolerances::default());
        assert!(!diff.has_drift(), "{:#?}", diff.drifts);
    }
}
