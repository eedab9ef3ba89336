//! Applications: ordered jobs over a shared dataset graph.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, DatasetId, Sizes};
use crate::error::DagError;
use crate::name::Name;
use crate::schedule::Schedule;

/// Identifier of a job within an application — its position in the job list.
/// Jobs run sequentially in this order (paper §2.1: "one or more sequential
/// jobs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl JobId {
    /// The id as a usize index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A job: one action over a target dataset. Triggers the computation of the
/// target's ancestor closure (its DAG of transformations).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Job {
    /// Action name (`count`, `collect`, `treeAggregate-action`, …).
    pub action: Name,
    /// The dataset the action consumes — the leaf of this job's DAG.
    pub target: DatasetId,
}

/// An application: a named, validated plan of datasets and sequential jobs,
/// plus the *default schedule* — the datasets the application's developers
/// chose to cache (HiBench's `p(…)` calls), which Juggler's engine overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    name: String,
    datasets: Vec<Dataset>,
    jobs: Vec<Job>,
    default_schedule: Schedule,
}

impl Application {
    /// Assembles an application from parts, validating all invariants.
    ///
    /// Prefer [`crate::AppBuilder`], which maintains the invariants during
    /// construction; this constructor exists for deserialized or
    /// programmatically assembled plans.
    pub fn new(
        name: impl Into<String>,
        datasets: Vec<Dataset>,
        jobs: Vec<Job>,
        default_schedule: Schedule,
    ) -> Result<Self, DagError> {
        let app = Application::from_parts(name.into(), datasets, jobs, default_schedule);
        app.validate()?;
        Ok(app)
    }

    /// Assembles an application from parts without validating them: for
    /// builders that vouch for every invariant themselves.
    pub(crate) fn from_parts(
        name: String,
        datasets: Vec<Dataset>,
        jobs: Vec<Job>,
        default_schedule: Schedule,
    ) -> Self {
        Application {
            name,
            datasets,
            jobs,
            default_schedule,
        }
    }

    /// Application name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All datasets, indexed by id.
    #[must_use]
    pub fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }

    /// Looks up one dataset.
    ///
    /// # Panics
    /// Panics if the id is out of range — ids produced by this application
    /// are always valid, so passing a foreign id is a logic error.
    #[must_use]
    pub fn dataset(&self, id: DatasetId) -> &Dataset {
        &self.datasets[id.index()]
    }

    /// The sequential job list.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Looks up one job.
    #[must_use]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// Developer-chosen caching (the HiBench default in the evaluation).
    #[must_use]
    pub fn default_schedule(&self) -> &Schedule {
        &self.default_schedule
    }

    /// Number of datasets (the paper's Table 1 "Datasets" column).
    #[must_use]
    pub fn dataset_count(&self) -> usize {
        self.datasets.len()
    }

    /// Total bytes of all source datasets (Table 1 "Input data").
    #[must_use]
    pub fn input_bytes(&self) -> u64 {
        self.datasets
            .iter()
            .filter(|d| d.op.is_source())
            .map(|d| d.bytes)
            .sum()
    }

    /// This application's lineage with the sizes `size` gives each of its
    /// datasets: names, operators, parents, jobs and the default schedule
    /// stay, records, bytes, partitions and compute costs are replaced.
    /// Validates only what sizes can break (partitions and compute costs);
    /// the lineage was validated when this application was.
    pub fn resized(&self, mut size: impl FnMut(&Dataset) -> Sizes) -> Result<Self, DagError> {
        let datasets = self
            .datasets
            .iter()
            .map(|d| {
                let s = size(d);
                let sized = Dataset {
                    id: d.id,
                    name: d.name.clone(),
                    op: d.op,
                    parents: d.parents.clone(),
                    records: s.records,
                    bytes: s.bytes,
                    partitions: s.partitions,
                    compute: s.compute,
                };
                sized.check_sizes().map(|()| sized)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Application::from_parts(
            self.name.clone(),
            datasets,
            self.jobs.clone(),
            self.default_schedule.clone(),
        ))
    }

    /// Whether `other` is a sizing of this application: the same name,
    /// default schedule and jobs, and datasets with the same names,
    /// operators and parents, in the same order.
    pub(crate) fn sized_by(&self, other: &Application) -> bool {
        self.name == other.name
            && self.default_schedule == other.default_schedule
            && self.jobs == other.jobs
            && self.datasets.len() == other.datasets.len()
            && self
                .datasets
                .iter()
                .zip(&other.datasets)
                .all(|(a, b)| a.name == b.name && a.op == b.op && a.parents == b.parents)
    }

    /// Whether `other` has this application's lineage: the same parents
    /// for every dataset, the same wide (shuffle) datasets and the same
    /// job targets, whatever the names, sizes, partition counts and costs.
    /// These are all a stage plan and the simulator's per-application
    /// precomputation read, so such applications can share them.
    #[must_use]
    pub fn same_lineage(&self, other: &Application) -> bool {
        self.datasets.len() == other.datasets.len()
            && self.jobs.len() == other.jobs.len()
            && self
                .jobs
                .iter()
                .zip(&other.jobs)
                .all(|(a, b)| a.target == b.target)
            && self
                .datasets
                .iter()
                .zip(&other.datasets)
                .all(|(a, b)| a.op.is_wide() == b.op.is_wide() && a.parents == b.parents)
    }

    /// Checks every structural invariant. `Ok` means:
    /// * dataset ids are dense and match indices,
    /// * parents exist and have strictly smaller ids (acyclicity),
    /// * sources have no parents, transformations have at least one,
    /// * every job targets an existing dataset and at least one job exists,
    /// * annotations are sane (non-zero partitions, valid compute cost),
    /// * the default schedule is well-formed and refers to known datasets.
    pub fn validate(&self) -> Result<(), DagError> {
        for (index, d) in self.datasets.iter().enumerate() {
            if d.id.index() != index {
                return Err(DagError::IdMismatch { index, found: d.id });
            }
            if d.op.is_source() && !d.parents.is_empty() {
                return Err(DagError::ArityMismatch {
                    dataset: d.id,
                    detail: "source datasets must not have parents".into(),
                });
            }
            if !d.op.is_source() && d.parents.is_empty() {
                return Err(DagError::ArityMismatch {
                    dataset: d.id,
                    detail: "transformations must have at least one parent".into(),
                });
            }
            for &p in &d.parents {
                if p.index() >= self.datasets.len() {
                    return Err(DagError::UnknownParent {
                        child: d.id,
                        parent: p,
                    });
                }
                if p >= d.id {
                    return Err(DagError::ParentNotOlder {
                        child: d.id,
                        parent: p,
                    });
                }
            }
            d.check_sizes()?;
        }
        if self.jobs.is_empty() {
            return Err(DagError::NoJobs);
        }
        for (job_index, j) in self.jobs.iter().enumerate() {
            if j.target.index() >= self.datasets.len() {
                return Err(DagError::UnknownJobTarget {
                    job_index,
                    target: j.target,
                });
            }
        }
        self.default_schedule.check()?;
        for op in self.default_schedule.ops() {
            if op.dataset().index() >= self.datasets.len() {
                return Err(DagError::UnknownScheduleDataset {
                    dataset: op.dataset(),
                });
            }
        }
        Ok(())
    }

    /// Validates an external schedule against this application.
    pub fn check_schedule(&self, schedule: &Schedule) -> Result<(), DagError> {
        schedule.check()?;
        for op in schedule.ops() {
            if op.dataset().index() >= self.datasets.len() {
                return Err(DagError::UnknownScheduleDataset {
                    dataset: op.dataset(),
                });
            }
        }
        Ok(())
    }

    /// Replaces the default schedule (used by workload generators after
    /// construction).
    pub fn set_default_schedule(&mut self, schedule: Schedule) -> Result<(), DagError> {
        self.check_schedule(&schedule)?;
        self.default_schedule = schedule;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AppBuilder;
    use crate::dataset::ComputeCost;
    use crate::ops::{NarrowKind, SourceFormat};
    use crate::schedule::{Schedule, ScheduleOp};

    fn tiny_app() -> Application {
        let mut b = AppBuilder::new("tiny");
        let src = b.source("in", SourceFormat::DistributedFs, 100, 1_000, 4);
        let mapped = b.narrow(
            "mapped",
            NarrowKind::Map,
            &[src],
            100,
            1_000,
            ComputeCost::FREE,
        );
        b.job("count", mapped);
        b.build().expect("tiny app is valid")
    }

    #[test]
    fn valid_app_roundtrips_through_serde() {
        let app = tiny_app();
        let json = serde_json::to_string(&app).unwrap();
        let back: Application = serde_json::from_str(&json).unwrap();
        assert_eq!(app, back);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn validate_rejects_id_mismatch() {
        let mut app = tiny_app();
        // Manual surgery through serde to break the invariant.
        let mut v: serde_json::Value = serde_json::to_value(&app).unwrap();
        v["datasets"][0]["id"] = serde_json::json!(7);
        app = serde_json::from_value(v).unwrap();
        assert!(matches!(app.validate(), Err(DagError::IdMismatch { .. })));
    }

    #[test]
    fn validate_rejects_unknown_job_target() {
        let mut v: serde_json::Value = serde_json::to_value(tiny_app()).unwrap();
        v["jobs"][0]["target"] = serde_json::json!(99);
        let app: Application = serde_json::from_value(v).unwrap();
        assert!(matches!(
            app.validate(),
            Err(DagError::UnknownJobTarget { .. })
        ));
    }

    #[test]
    fn validate_rejects_source_with_parents() {
        let mut v: serde_json::Value = serde_json::to_value(tiny_app()).unwrap();
        v["datasets"][1]["op"] = serde_json::json!({ "Source": "DistributedFs" });
        let app: Application = serde_json::from_value(v).unwrap();
        assert!(matches!(
            app.validate(),
            Err(DagError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_zero_partitions() {
        let mut v: serde_json::Value = serde_json::to_value(tiny_app()).unwrap();
        v["datasets"][0]["partitions"] = serde_json::json!(0);
        let app: Application = serde_json::from_value(v).unwrap();
        assert!(matches!(
            app.validate(),
            Err(DagError::InvalidAnnotation { .. })
        ));
    }

    #[test]
    fn check_schedule_rejects_foreign_dataset() {
        let app = tiny_app();
        let s = Schedule::from_ops(vec![ScheduleOp::Persist(DatasetId(42))]);
        assert!(matches!(
            app.check_schedule(&s),
            Err(DagError::UnknownScheduleDataset { .. })
        ));
    }

    #[test]
    fn input_bytes_sums_sources_only() {
        let app = tiny_app();
        assert_eq!(app.input_bytes(), 1_000);
    }

    #[test]
    fn set_default_schedule_validates() {
        let mut app = tiny_app();
        let good = Schedule::persist_all([DatasetId(1)]);
        assert!(app.set_default_schedule(good.clone()).is_ok());
        assert_eq!(app.default_schedule(), &good);
        let bad = Schedule::persist_all([DatasetId(9)]);
        assert!(app.set_default_schedule(bad).is_err());
    }

    #[test]
    fn validate_rejects_no_jobs() {
        let app = Application::new("empty", vec![], vec![], Schedule::empty());
        assert!(matches!(app, Err(DagError::NoJobs)));
    }
}
