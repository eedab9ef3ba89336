//! Fluent construction of applications with invariants maintained
//! throughout, and the sizing mode that repeats a known lineage.

use std::cell::Cell;

use crate::app::{Application, Job};
use crate::dataset::{ComputeCost, Dataset, DatasetId, Parents};
use crate::error::DagError;
use crate::name::Name;
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
/// A builder from [`Lineages::builder`] is in *sizing mode*: it follows
/// a known application (see [`Lineages`]) while the pushes repeat its
/// structure, and falls back to this fresh path at the first push that
/// does not.
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
pub struct AppBuilder<'l> {
    name: String,
    datasets: Vec<Dataset>,
    jobs: Vec<Job>,
    default_schedule: Schedule,
    /// Sizing mode: the set this build reports to.
    sizing: Option<&'l Lineages<'l>>,
    /// The lineage this build has repeated so far: the set's first,
    /// until a push that does not repeat it makes this a fresh build.
    follows: Option<&'l Application>,
    /// The first dataset pushed along the lineage with sizes
    /// [`Dataset::check_sizes`] rejects.
    bad_sizes: Option<usize>,
}

/// In debug builds, formats the name a sizing build was given for a
/// dataset or job whose lineage name it reuses, and checks the two agree.
fn check_reused(given: impl Into<Name>, reused: &Name) {
    if cfg!(debug_assertions) {
        let given: Name = given.into();
        assert_eq!(
            given, *reused,
            "a sizing build renamed a lineage's dataset or job"
        );
    }
}

/// The applications a grid point's build may be a sizing of: the
/// lineages of earlier points, in order.
///
/// The points of a training grid differ only in their parameters' sizes,
/// so a workload builds the same lineage for each of them (names,
/// operators, parents, jobs and default schedule) with other records,
/// bytes, partitions and compute costs. A builder from
/// [`Lineages::builder`] runs the workload's own build code against the
/// first lineage: while each push has the operator and parents of the
/// lineage's dataset at that index (each job its job's target), it
/// reuses the lineage's name without formatting the one it is given,
/// and its build validates only the sizes ([`Application::resized`]'s
/// rule). At the first push that does not repeat the lineage it falls
/// back to the fresh path, and the build is a new lineage.
/// [`Lineages::take_matched`] then tells which lineage the last build
/// repeated.
///
/// A sizing build assumes that a workload names each dataset and job from
/// its place in the lineage, never from its sizes; debug builds format
/// every reused name and check it.
#[derive(Debug, Default)]
pub struct Lineages<'l> {
    apps: Vec<&'l Application>,
    matched: Cell<Option<usize>>,
}

impl<'l> Lineages<'l> {
    /// The lineages `apps`, in order.
    #[must_use]
    pub fn new(apps: Vec<&'l Application>) -> Self {
        Lineages {
            apps,
            matched: Cell::new(None),
        }
    }

    /// Whether the set holds no lineage.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// A builder for application `name` that sizes the first lineage; a
    /// plain [`AppBuilder::new`] when there is none.
    #[must_use]
    pub fn builder(&self, name: impl Into<String>) -> AppBuilder<'_> {
        let mut b = AppBuilder::new(name);
        if let Some(&first) = self.apps.first() {
            b.datasets.reserve_exact(first.dataset_count());
            b.jobs.reserve_exact(first.jobs().len());
            b.sizing = Some(self);
            b.follows = Some(first);
        }
        b
    }

    /// Takes `app`, built some other way, as this set's build: records
    /// the first lineage `app` is a sizing of (the same name, default
    /// schedule and structure), if any. For workloads whose build code
    /// takes no builder.
    #[must_use]
    pub fn adopt(&self, app: Application) -> Application {
        self.matched
            .set(self.apps.iter().position(|l| l.sized_by(&app)));
        app
    }

    /// The lineage the last build repeated, as an index into this set;
    /// `None` for a new lineage. Resets the answer.
    #[must_use]
    pub fn take_matched(&self) -> Option<usize> {
        self.matched.take()
    }
}

impl<'l> AppBuilder<'l> {
    /// Starts a new application plan.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        AppBuilder {
            name: name.into(),
            datasets: Vec::new(),
            jobs: Vec::new(),
            default_schedule: Schedule::empty(),
            sizing: None,
            follows: None,
            bad_sizes: None,
        }
    }

    /// In sizing mode, what `known` finds in the followed lineage; at the
    /// first miss the build stops following it.
    fn follow<T: ?Sized>(
        &mut self,
        known: impl Fn(&'l Application) -> Option<&'l T>,
    ) -> Option<&'l T> {
        let found = self.follows.and_then(known);
        if found.is_none() {
            self.follows = None;
        }
        found
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
        name: impl Into<Name>,
        op: OpKind,
        parents: &[DatasetId],
        records: u64,
        bytes: Bytes,
        partitions: u32,
        compute: ComputeCost,
    ) -> DatasetId {
        let index = self.datasets.len();
        let id = DatasetId(u32::try_from(index).expect("more than u32::MAX datasets"));
        let known = self.follow(|l| {
            l.datasets()
                .get(index)
                .filter(|d| d.op == op && *d.parents == *parents)
        });
        let (name, parents) = match known {
            // The lineage's parents exist and are older: it was validated.
            Some(d) => {
                check_reused(name, &d.name);
                (d.name.clone(), d.parents.clone())
            }
            None => {
                for p in parents {
                    assert!(
                        p.index() < index,
                        "parent {p} must be created before its child"
                    );
                }
                (name.into(), Parents::from(parents))
            }
        };
        let dataset = Dataset {
            id,
            name,
            op,
            parents,
            records,
            bytes,
            partitions,
            compute,
        };
        if known.is_some() && self.bad_sizes.is_none() && dataset.check_sizes().is_err() {
            self.bad_sizes = Some(index);
        }
        self.datasets.push(dataset);
        id
    }

    /// Adds a source dataset read from stable storage. Reading cost is
    /// modelled by the simulator from `bytes` and the cluster's I/O
    /// bandwidth, so no compute cost is given here.
    pub fn source(
        &mut self,
        name: impl Into<Name>,
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
        name: impl Into<Name>,
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
        name: impl Into<Name>,
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
        name: impl Into<Name>,
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
    pub fn job(&mut self, action: impl Into<Name>, target: DatasetId) {
        let index = self.jobs.len();
        let known = self.follow(|l| l.jobs().get(index).filter(|j| j.target == target));
        let action = match known {
            Some(j) => {
                check_reused(action, &j.action);
                j.action.clone()
            }
            None => action.into(),
        };
        self.jobs.push(Job { action, target });
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

    /// Finalizes and validates the application. A sizing build that
    /// repeated a lineage whole (name, every dataset and job, default
    /// schedule) validates only the sizes and reports that lineage to its
    /// [`Lineages`]; any other build validates everything.
    pub fn build(self) -> Result<Application, DagError> {
        let Some(lineages) = self.sizing else {
            return Application::new(self.name, self.datasets, self.jobs, self.default_schedule);
        };
        let repeated = self.follows.is_some_and(|l| {
            l.name() == self.name
                && l.dataset_count() == self.datasets.len()
                && l.jobs().len() == self.jobs.len()
                && *l.default_schedule() == self.default_schedule
        });
        lineages.matched.set(repeated.then_some(0));
        if !repeated {
            return Application::new(self.name, self.datasets, self.jobs, self.default_schedule);
        }
        if let Some(index) = self.bad_sizes {
            self.datasets[index].check_sizes()?;
        }
        Ok(Application::from_parts(
            self.name,
            self.datasets,
            self.jobs,
            self.default_schedule,
        ))
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

    /// A chain app: `rounds` map steps after a source, one job each, with
    /// every size scaled by `scale` and `partitions` partitions.
    fn chain(b: &mut AppBuilder<'_>, rounds: u32, scale: u64, partitions: u32) {
        let mut prev = b.source("in", SourceFormat::Generated, scale, 10 * scale, partitions);
        for i in 0..rounds {
            prev = b.narrow(
                format_args!("step[{i}]"),
                NarrowKind::Map,
                &[prev],
                scale,
                8 * scale,
                ComputeCost::new(0.001, 0.0, 1e-9),
            );
            b.job(format_args!("count[{i}]"), prev);
        }
        b.default_schedule(Schedule::persist_all([DatasetId(1)]));
    }

    fn fresh_chain(rounds: u32, scale: u64, partitions: u32) -> Application {
        let mut b = AppBuilder::new("chain");
        chain(&mut b, rounds, scale, partitions);
        b.build().unwrap()
    }

    /// A build that repeats a lineage with other sizes equals the fresh
    /// build and names the lineage; one that runs longer or shorter falls
    /// back to the fresh path and names none.
    #[test]
    fn sizing_builds_equal_fresh_builds() {
        let lineage = fresh_chain(3, 100, 4);
        let known = Lineages::new(vec![&lineage]);
        for (rounds, matched) in [(3, Some(0)), (2, None), (4, None), (0, None)] {
            let mut b = known.builder("chain");
            chain(&mut b, rounds, 7, 2);
            let sized = b.build();
            assert_eq!(known.take_matched(), matched, "{rounds} rounds");
            if rounds == 0 {
                assert!(matches!(sized, Err(DagError::NoJobs)));
                continue;
            }
            assert_eq!(sized.unwrap(), fresh_chain(rounds, 7, 2), "{rounds} rounds");
        }
        assert_eq!(known.take_matched(), None, "taking resets the answer");
    }

    /// A build follows the set's first lineage only: one that repeats the
    /// second falls back and names none, and a fresh app is adopted by
    /// comparison with every lineage.
    #[test]
    fn sizing_follows_the_first_lineage_and_adopts_any() {
        let short = fresh_chain(2, 100, 4);
        let long = fresh_chain(3, 100, 4);
        let known = Lineages::new(vec![&short, &long]);
        let mut b = known.builder("chain");
        chain(&mut b, 3, 9, 3);
        assert_eq!(b.build().unwrap(), fresh_chain(3, 9, 3));
        assert_eq!(known.take_matched(), None);
        assert_eq!(known.adopt(fresh_chain(3, 5, 1)), fresh_chain(3, 5, 1));
        assert_eq!(known.take_matched(), Some(1));
        let mut other = AppBuilder::new("other");
        chain(&mut other, 2, 5, 1);
        let _ = known.adopt(other.build().unwrap());
        assert_eq!(
            known.take_matched(),
            None,
            "another name is another lineage"
        );
    }

    /// A sizing build still rejects the sizes it cannot vouch for.
    #[test]
    fn sizing_builds_validate_sizes() {
        let lineage = fresh_chain(2, 100, 4);
        let known = Lineages::new(vec![&lineage]);
        let mut b = known.builder("chain");
        chain(&mut b, 2, 100, 0);
        assert!(matches!(b.build(), Err(DagError::InvalidAnnotation { .. })));
        let mut b = known.builder("chain");
        let src = b.source("in", SourceFormat::Generated, 1, 1, 1);
        b.narrow(
            "step[0]",
            NarrowKind::Map,
            &[src],
            1,
            1,
            ComputeCost::new(f64::NAN, 0.0, 0.0),
        );
        b.job("count[0]", DatasetId(1));
        b.narrow(
            "step[1]",
            NarrowKind::Map,
            &[DatasetId(1)],
            1,
            1,
            ComputeCost::FREE,
        );
        b.job("count[1]", DatasetId(2));
        b.default_schedule(Schedule::persist_all([DatasetId(1)]));
        assert!(matches!(b.build(), Err(DagError::InvalidAnnotation { .. })));
        assert_eq!(known.take_matched(), Some(0));
    }

    /// Debug builds format every name a sizing build reuses and check it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "renamed a lineage's dataset or job")]
    fn sizing_builds_check_reused_names() {
        let lineage = fresh_chain(1, 100, 4);
        let known = Lineages::new(vec![&lineage]);
        let mut b = known.builder("chain");
        let src = b.source("in", SourceFormat::Generated, 1, 1, 1);
        b.narrow("renamed", NarrowKind::Map, &[src], 1, 1, ComputeCost::FREE);
    }
}
