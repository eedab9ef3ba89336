//! Splitting a job's DAG into stages at shuffle boundaries, as Spark's
//! `DAGScheduler` does (paper §2.1).
//!
//! Each *stage* pipelines a group of narrow transformations. A wide
//! transformation `W` materializes at the *start* of the stage that reads
//! the shuffle (Shuffle Read), while its parents are computed by separate
//! *map stages* that end with Shuffle Write — Juggler's §3.3 treats a wide
//! transformation as exactly this pair of narrow halves.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::app::{Application, JobId};
use crate::dataset::DatasetId;

/// Identifier of a stage within one job's [`StagePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StageId(pub u32);

impl StageId {
    /// The id as a usize index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage#{}", self.0)
    }
}

/// One stage: a pipelined group of transformations executed as one
/// parallel task per partition of its output dataset. A stage holds
/// structure only — its datasets, its output, its parent stages — so two
/// applications of the same lineage ([`Application::same_lineage`]) plan
/// the same stages whatever their sizes and partition counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage {
    /// Stage id within the job's plan (also its index).
    pub id: StageId,
    /// Datasets computed by this stage, in ascending id (topological) order.
    /// If the first dataset is wide, the stage begins with a Shuffle Read.
    pub datasets: Vec<DatasetId>,
    /// The last dataset the stage produces. For map stages this is the
    /// dataset whose bytes are shuffle-written; for the result stage it is
    /// the job target.
    pub output: DatasetId,
    /// Stages whose shuffle output this stage consumes.
    pub parents: Vec<StageId>,
}

impl Stage {
    /// Wide datasets materialized at the start of this stage (shuffle
    /// reads), in id order.
    pub fn shuffle_reads<'a>(
        &'a self,
        app: &'a Application,
    ) -> impl Iterator<Item = DatasetId> + 'a {
        self.datasets
            .iter()
            .copied()
            .filter(|&d| app.dataset(d).op.is_wide())
    }
}

/// The stage DAG of one job, topologically ordered (parents before
/// children); the last stage is the result stage producing the job target.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagePlan {
    /// The job this plan belongs to.
    pub job: JobId,
    /// Stages in execution (topological) order.
    pub stages: Vec<Stage>,
}

impl StagePlan {
    /// Builds the stage plan for `job` of `app` with a fresh
    /// [`StagePlanner`]; planning several jobs of one application should
    /// share one planner instead.
    ///
    /// # Panics
    /// Panics if the job id is out of range (validated applications never
    /// hand one out).
    #[must_use]
    pub fn build(app: &Application, job: JobId) -> Self {
        StagePlanner::new(app).plan(app, job)
    }

    /// The stage producing the job target.
    #[must_use]
    pub fn result_stage(&self) -> &Stage {
        self.stages.last().expect("plans always have >= 1 stage")
    }

    /// Total number of tasks across all stages when run over `app`.
    #[must_use]
    pub fn total_tasks(&self, app: &Application) -> u64 {
        self.stages
            .iter()
            .map(|s| u64::from(app.dataset(s.output).partitions))
            .sum()
    }
}

/// Builds the stage plans of an application's jobs over one scratch, so
/// planning every job allocates only what the plans own. Two stamp arrays
/// indexed by dataset stand in for per-call sets: `memo` remembers the
/// stage rooted at each dataset in the plan being built (map stages are
/// shared: two wide consumers of one parent read the same shuffle files),
/// stamped by plan so a new plan needs no clearing; `seen` marks the
/// datasets one stage walk reached, stamped by walk.
#[derive(Debug)]
pub struct StagePlanner {
    /// `memo[d] = (plan, stage)`: the stage rooted at `d`, valid when
    /// `plan` is the current plan's stamp.
    memo: Vec<(u32, StageId)>,
    plan: u32,
    /// `seen[d] == walk` when the current stage walk reached `d`.
    seen: Vec<u32>,
    walk: u32,
    stack: Vec<DatasetId>,
    members: Vec<DatasetId>,
    /// Parent stage roots of the stages under construction, one segment
    /// per level of the recursion.
    roots: Vec<DatasetId>,
}

impl StagePlanner {
    /// A planner for the jobs of `app`.
    #[must_use]
    pub fn new(app: &Application) -> Self {
        let n = app.dataset_count();
        StagePlanner {
            memo: vec![(0, StageId(0)); n],
            plan: 0,
            seen: vec![0; n],
            walk: 0,
            stack: Vec::new(),
            members: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// Builds the stage plan for `job` of `app`, the application this
    /// planner was made for.
    ///
    /// # Panics
    /// Panics if the job id is out of range.
    #[must_use]
    pub fn plan(&mut self, app: &Application, job: JobId) -> StagePlan {
        debug_assert_eq!(
            self.seen.len(),
            app.dataset_count(),
            "planner of another app"
        );
        self.plan = next_stamp(self.plan, &mut self.memo, |m| m.0 = 0);
        let mut stages = Vec::new();
        self.stage(app, app.job(job).target, &mut stages);
        StagePlan { job, stages }
    }

    /// Builds the stage rooted at `root` (the stage's output dataset),
    /// emitting parent stages first, and returns its id, which is its
    /// position in `stages`.
    fn stage(&mut self, app: &Application, root: DatasetId, stages: &mut Vec<Stage>) -> StageId {
        let (plan, sid) = self.memo[root.index()];
        if plan == self.plan {
            return sid;
        }
        // Gather the pipelined group: walk parents from the root, stopping
        // the upward walk at wide datasets (they belong to this stage as
        // shuffle reads, but their parents are computed by map stages).
        self.walk = next_stamp(self.walk, &mut self.seen, |w| *w = 0);
        let base = self.roots.len();
        self.members.clear();
        self.stack.push(root);
        while let Some(x) = self.stack.pop() {
            if self.seen[x.index()] == self.walk {
                continue;
            }
            self.seen[x.index()] = self.walk;
            self.members.push(x);
            let d = app.dataset(x);
            if d.op.is_wide() {
                // Shuffle read: each parent is the output of a map stage.
                self.roots.extend_from_slice(&d.parents);
            } else {
                self.stack.extend_from_slice(&d.parents);
            }
        }
        self.members.sort_unstable();
        let datasets = self.members.clone();
        self.roots[base..].sort_unstable();
        let mut end = base;
        for i in base..self.roots.len() {
            if end == base || self.roots[i] != self.roots[end - 1] {
                self.roots[end] = self.roots[i];
                end += 1;
            }
        }
        self.roots.truncate(end);
        // Deeper levels push past `end` and truncate back to it, so this
        // level's segment stays put while its parents are built.
        let mut parents = Vec::with_capacity(end - base);
        for i in base..end {
            let parent_root = self.roots[i];
            parents.push(self.stage(app, parent_root, stages));
        }
        self.roots.truncate(base);

        let id = StageId(stages.len() as u32);
        stages.push(Stage {
            id,
            datasets,
            output: root,
            parents,
        });
        self.memo[root.index()] = (self.plan, id);
        id
    }
}

/// The stamp after `stamp`; on wrap-around every slot is reset with
/// `clear` so no stale slot can match the restarted count.
fn next_stamp<T>(stamp: u32, slots: &mut [T], clear: impl Fn(&mut T)) -> u32 {
    if stamp == u32::MAX {
        slots.iter_mut().for_each(clear);
        1
    } else {
        stamp + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AppBuilder;
    use crate::dataset::ComputeCost;
    use crate::ops::{NarrowKind, SourceFormat, WideKind};

    /// input -> map -> treeAggregate -> (narrow) summary, one job: expect two
    /// stages, split at the aggregate.
    #[test]
    fn two_stage_pipeline() {
        let mut b = AppBuilder::new("p");
        let s = b.source("in", SourceFormat::DistributedFs, 1000, 10_000, 8);
        let m = b.narrow("m", NarrowKind::Map, &[s], 1000, 10_000, ComputeCost::FREE);
        let agg = b.wide_with_partitions(
            "agg",
            WideKind::TreeAggregate,
            &[m],
            1,
            64,
            1,
            ComputeCost::FREE,
        );
        let out = b.narrow("out", NarrowKind::Map, &[agg], 1, 64, ComputeCost::FREE);
        b.job("collect", out);
        let app = b.build().unwrap();
        let plan = StagePlan::build(&app, JobId(0));
        assert_eq!(plan.stages.len(), 2);
        let map_stage = &plan.stages[0];
        assert_eq!(map_stage.datasets, vec![s, m]);
        assert_eq!(map_stage.output, m);
        assert_eq!(app.dataset(map_stage.output).partitions, 8);
        assert!(map_stage.parents.is_empty());
        let result = plan.result_stage();
        assert_eq!(result.datasets, vec![agg, out]);
        assert_eq!(result.output, out);
        assert_eq!(app.dataset(result.output).partitions, 1);
        assert_eq!(result.parents, vec![StageId(0)]);
        assert_eq!(result.shuffle_reads(&app).collect::<Vec<_>>(), vec![agg]);
        assert_eq!(plan.total_tasks(&app), 9);
    }

    /// A single all-narrow job is one stage.
    #[test]
    fn narrow_only_job_is_single_stage() {
        let mut b = AppBuilder::new("n");
        let s = b.source("in", SourceFormat::DistributedFs, 10, 100, 4);
        let f = b.narrow("f", NarrowKind::Filter, &[s], 5, 50, ComputeCost::FREE);
        b.job("count", f);
        let app = b.build().unwrap();
        let plan = StagePlan::build(&app, JobId(0));
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.result_stage().datasets, vec![s, f]);
    }

    /// Join of two shuffled branches: three stages, result stage reads both.
    #[test]
    fn join_has_two_map_stages() {
        let mut b = AppBuilder::new("j");
        let a = b.source("a", SourceFormat::DistributedFs, 100, 1000, 4);
        let bsrc = b.source("b", SourceFormat::DistributedFs, 100, 1000, 4);
        let ra = b.wide(
            "ra",
            WideKind::ReduceByKey,
            &[a],
            50,
            500,
            ComputeCost::FREE,
        );
        let join = b.wide(
            "join",
            WideKind::Join,
            &[ra, bsrc],
            50,
            800,
            ComputeCost::FREE,
        );
        b.job("count", join);
        let app = b.build().unwrap();
        let plan = StagePlan::build(&app, JobId(0));
        // Stages: map(a), reduce stage producing ra as map output for join?
        // Walk: result stage rooted at `join` (wide) -> parents ra and bsrc.
        // ra is itself wide: its map stage is rooted at ra, which contains ra
        // only and has a parent stage rooted at a.
        assert_eq!(plan.stages.len(), 4);
        let result = plan.result_stage();
        assert_eq!(result.output, join);
        assert_eq!(result.parents.len(), 2);
        // Every parent id precedes the result stage (topological order).
        for s in &plan.stages {
            for p in &s.parents {
                assert!(p.index() < s.id.index());
            }
        }
    }

    /// Shared map stage: two wide consumers of the same parent share one map
    /// stage.
    #[test]
    fn shared_map_stage_is_memoized() {
        let mut b = AppBuilder::new("shared");
        let s = b.source("s", SourceFormat::DistributedFs, 100, 1000, 4);
        let w1 = b.wide(
            "w1",
            WideKind::ReduceByKey,
            &[s],
            10,
            100,
            ComputeCost::FREE,
        );
        let w2 = b.wide("w2", WideKind::GroupByKey, &[s], 10, 100, ComputeCost::FREE);
        let z = b.narrow("z", NarrowKind::Zip, &[w1, w2], 10, 200, ComputeCost::FREE);
        b.job("count", z);
        let app = b.build().unwrap();
        let plan = StagePlan::build(&app, JobId(0));
        // map(s) + result(w1, w2, z): the map stage is shared.
        assert_eq!(plan.stages.len(), 2);
        let result = plan.result_stage();
        assert_eq!(result.parents, vec![StageId(0)]);
        assert_eq!(result.datasets, vec![w1, w2, z]);
    }

    /// The recursion the planner replaced — a `HashMap` memo per plan and
    /// a fresh visited set per stage walk — kept as its oracle.
    fn reference_plan(app: &Application, job: JobId) -> StagePlan {
        fn build_stage(
            app: &Application,
            root: DatasetId,
            stages: &mut Vec<Stage>,
            memo: &mut std::collections::HashMap<DatasetId, StageId>,
        ) -> StageId {
            if let Some(&sid) = memo.get(&root) {
                return sid;
            }
            let mut members = Vec::new();
            let mut parent_roots = Vec::new();
            let mut stack = vec![root];
            let mut seen = crate::bitset::BitSet::new(app.dataset_count());
            while let Some(x) = stack.pop() {
                if !seen.insert(x.index()) {
                    continue;
                }
                members.push(x);
                let d = app.dataset(x);
                if d.op.is_wide() {
                    parent_roots.extend(d.parents.iter().copied());
                } else {
                    stack.extend(d.parents.iter().copied());
                }
            }
            members.sort_unstable();
            parent_roots.sort_unstable();
            parent_roots.dedup();
            let parents: Vec<StageId> = parent_roots
                .into_iter()
                .map(|p| build_stage(app, p, stages, memo))
                .collect();
            let id = StageId(stages.len() as u32);
            stages.push(Stage {
                id,
                datasets: members,
                output: root,
                parents,
            });
            memo.insert(root, id);
            id
        }
        let mut stages = Vec::new();
        build_stage(
            app,
            app.job(job).target,
            &mut stages,
            &mut std::collections::HashMap::new(),
        );
        StagePlan { job, stages }
    }

    /// One planner shared across every job of an application, and a fresh
    /// one per job, build exactly the reference plans; so does a planner
    /// whose stamps wrap around mid-application.
    #[test]
    fn shared_planner_matches_the_reference() {
        let (lor, _) = crate::analysis::tests::lor_like();
        let mut b = AppBuilder::new("multi");
        let s = b.source("s", SourceFormat::DistributedFs, 100, 1000, 4);
        let m = b.narrow("m", NarrowKind::Map, &[s], 100, 1000, ComputeCost::FREE);
        let w1 = b.wide(
            "w1",
            WideKind::ReduceByKey,
            &[m],
            10,
            100,
            ComputeCost::FREE,
        );
        let w2 = b.wide(
            "w2",
            WideKind::Join,
            &[m, w1, m],
            10,
            100,
            ComputeCost::FREE,
        );
        let z = b.narrow("z", NarrowKind::Zip, &[w1, w2], 10, 200, ComputeCost::FREE);
        b.job("a", w1);
        b.job("b", z);
        b.job("c", w2);
        b.job("d", z);
        let multi = b.build().unwrap();
        for app in [&lor, &multi] {
            let mut shared = StagePlanner::new(app);
            let mut wrapping = StagePlanner::new(app);
            (wrapping.plan, wrapping.walk) = (u32::MAX - 1, u32::MAX - 2);
            for ji in 0..app.jobs().len() as u32 {
                let want = reference_plan(app, JobId(ji));
                assert_eq!(
                    StagePlan::build(app, JobId(ji)),
                    want,
                    "{} job {ji}",
                    app.name()
                );
                assert_eq!(shared.plan(app, JobId(ji)), want, "{} job {ji}", app.name());
                assert_eq!(
                    wrapping.plan(app, JobId(ji)),
                    want,
                    "{} job {ji}",
                    app.name()
                );
            }
        }
    }

    /// Stage ids equal their indices and the result stage is last — the
    /// invariant the simulator relies on.
    #[test]
    fn ids_match_positions() {
        let (app, _) = crate::analysis::tests::lor_like();
        for ji in 0..app.jobs().len() {
            let plan = StagePlan::build(&app, JobId(ji as u32));
            for (i, s) in plan.stages.iter().enumerate() {
                assert_eq!(s.id.index(), i);
            }
            assert_eq!(plan.result_stage().output, app.job(JobId(ji as u32)).target);
        }
    }
}
