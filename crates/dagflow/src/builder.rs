//! Fluent construction of applications with invariants maintained
//! throughout.

use crate::app::{Application, Job};
use crate::dataset::{ComputeCost, Dataset, DatasetId, Parents};
use crate::error::DagError;
use crate::ops::{NarrowKind, OpKind, SourceFormat, WideKind};
use crate::schedule::Schedule;
use crate::Bytes;

/// Builder for [`Application`]s.
///
/// Datasets receive dense, monotonically increasing ids in creation order,
/// which guarantees the parent-id-smaller-than-child-id invariant as long as
/// parents are created before children — which the borrow of returned
/// [`DatasetId`]s naturally enforces.
///
/// ```
/// use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};
///
/// let mut b = AppBuilder::new("demo");
/// let input = b.source("points", SourceFormat::DistributedFs, 10_000, 1 << 20, 8);
/// let parsed = b.narrow("parsed", NarrowKind::Map, &[input], 10_000, 1 << 20,
///                       ComputeCost::new(0.01, 1e-7, 1e-9));
/// let grad = b.wide("gradient", WideKind::TreeAggregate, &[parsed], 1, 1 << 10,
///                   ComputeCost::new(0.01, 0.0, 2e-9));
/// b.job("collect", grad);
/// let app = b.build().unwrap();
/// assert_eq!(app.dataset_count(), 3);
/// ```
#[derive(Debug)]
pub struct AppBuilder {
    name: String,
    datasets: Vec<Dataset>,
    jobs: Vec<Job>,
    default_schedule: Schedule,
}

impl AppBuilder {
    /// Starts a new application plan.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        AppBuilder {
            name: name.into(),
            datasets: Vec::new(),
            jobs: Vec::new(),
            default_schedule: Schedule::empty(),
        }
    }

    fn partitions_of(&self, p: DatasetId) -> u32 {
        assert!(
            p.index() < self.datasets.len(),
            "parent {p} must be created before its child"
        );
        self.datasets[p.index()].partitions
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        parents: &[DatasetId],
        records: u64,
        bytes: Bytes,
        partitions: u32,
        compute: ComputeCost,
    ) -> DatasetId {
        let id =
            DatasetId(u32::try_from(self.datasets.len()).expect("more than u32::MAX datasets"));
        for p in parents {
            assert!(
                p.index() < self.datasets.len(),
                "parent {p} must be created before its child"
            );
        }
        self.datasets.push(Dataset {
            id,
            name: name.into(),
            op,
            parents: Parents::from(parents),
            records,
            bytes,
            partitions,
            compute,
        });
        id
    }

    /// Adds a source dataset read from stable storage. Reading cost is
    /// modelled by the simulator from `bytes` and the cluster's I/O
    /// bandwidth, so no compute cost is given here.
    pub fn source(
        &mut self,
        name: impl Into<String>,
        format: SourceFormat,
        records: u64,
        bytes: Bytes,
        partitions: u32,
    ) -> DatasetId {
        self.push(
            name,
            OpKind::Source(format),
            &[],
            records,
            bytes,
            partitions,
            ComputeCost::FREE,
        )
    }

    /// Adds a narrow transformation. Output partitioning is inherited from
    /// the first parent.
    pub fn narrow(
        &mut self,
        name: impl Into<String>,
        kind: NarrowKind,
        parents: &[DatasetId],
        records: u64,
        bytes: Bytes,
        compute: ComputeCost,
    ) -> DatasetId {
        assert!(!parents.is_empty(), "narrow transformation needs parents");
        let partitions = self.partitions_of(parents[0]);
        self.push(
            name,
            OpKind::Narrow(kind),
            parents,
            records,
            bytes,
            partitions,
            compute,
        )
    }

    /// Adds a wide (shuffle) transformation. Output partition count defaults
    /// to the first parent's unless overridden with
    /// [`AppBuilder::wide_with_partitions`].
    pub fn wide(
        &mut self,
        name: impl Into<String>,
        kind: WideKind,
        parents: &[DatasetId],
        records: u64,
        bytes: Bytes,
        compute: ComputeCost,
    ) -> DatasetId {
        assert!(!parents.is_empty(), "wide transformation needs parents");
        let partitions = self.partitions_of(parents[0]);
        self.push(
            name,
            OpKind::Wide(kind),
            parents,
            records,
            bytes,
            partitions,
            compute,
        )
    }

    /// Adds a wide transformation with an explicit output partition count
    /// (e.g. `treeAggregate` collapsing to one partition).
    #[allow(clippy::too_many_arguments)]
    pub fn wide_with_partitions(
        &mut self,
        name: impl Into<String>,
        kind: WideKind,
        parents: &[DatasetId],
        records: u64,
        bytes: Bytes,
        partitions: u32,
        compute: ComputeCost,
    ) -> DatasetId {
        assert!(!parents.is_empty(), "wide transformation needs parents");
        self.push(
            name,
            OpKind::Wide(kind),
            parents,
            records,
            bytes,
            partitions,
            compute,
        )
    }

    /// Appends a job (action) over `target`. Jobs run in append order.
    pub fn job(&mut self, action: impl Into<String>, target: DatasetId) {
        self.jobs.push(Job {
            action: action.into(),
            target,
        });
    }

    /// Sets the developer-chosen default schedule.
    pub fn default_schedule(&mut self, schedule: Schedule) {
        self.default_schedule = schedule;
    }

    /// Number of datasets added so far.
    #[must_use]
    pub fn dataset_count(&self) -> usize {
        self.datasets.len()
    }

    /// Finalizes and validates the application.
    pub fn build(self) -> Result<Application, DagError> {
        Application::new(self.name, self.datasets, self.jobs, self.default_schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleOp;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = AppBuilder::new("x");
        let a = b.source("a", SourceFormat::Generated, 1, 1, 1);
        let c = b.narrow("c", NarrowKind::Map, &[a], 1, 1, ComputeCost::FREE);
        let d = b.wide("d", WideKind::ReduceByKey, &[c], 1, 1, ComputeCost::FREE);
        assert_eq!((a.0, c.0, d.0), (0, 1, 2));
        b.job("count", d);
        let app = b.build().unwrap();
        assert_eq!(app.dataset_count(), 3);
    }

    #[test]
    fn narrow_inherits_partitions_wide_can_override() {
        let mut b = AppBuilder::new("x");
        let a = b.source("a", SourceFormat::Generated, 100, 100, 16);
        let c = b.narrow("c", NarrowKind::Filter, &[a], 50, 50, ComputeCost::FREE);
        let d = b.wide_with_partitions(
            "d",
            WideKind::TreeAggregate,
            &[c],
            1,
            8,
            1,
            ComputeCost::FREE,
        );
        b.job("collect", d);
        let app = b.build().unwrap();
        assert_eq!(app.dataset(c).partitions, 16);
        assert_eq!(app.dataset(d).partitions, 1);
    }

    #[test]
    fn build_rejects_without_jobs() {
        let mut b = AppBuilder::new("nojobs");
        b.source("a", SourceFormat::Generated, 1, 1, 1);
        assert!(matches!(b.build(), Err(DagError::NoJobs)));
    }

    #[test]
    fn default_schedule_flows_through() {
        let mut b = AppBuilder::new("sched");
        let a = b.source("a", SourceFormat::Generated, 1, 1, 1);
        let c = b.narrow("c", NarrowKind::Map, &[a], 1, 1, ComputeCost::FREE);
        b.job("count", c);
        b.default_schedule(Schedule::from_ops(vec![ScheduleOp::Persist(c)]));
        let app = b.build().unwrap();
        assert_eq!(app.default_schedule().persisted(), vec![c]);
    }

    #[test]
    #[should_panic(expected = "created before its child")]
    fn builder_panics_on_forward_parent_reference() {
        let mut b = AppBuilder::new("bad");
        // Forge an id that does not exist yet.
        let ghost = DatasetId(5);
        b.narrow("c", NarrowKind::Map, &[ghost], 1, 1, ComputeCost::FREE);
    }
}
