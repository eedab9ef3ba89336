//! The central profiling database (paper §4): when a task finishes, its
//! low-level runtime data is sent here; application/job/stage/task records
//! follow when the application ends.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use cluster_sim::{RunReport, StepKind, TaskTrace};
use dagflow::{DatasetId, JobId, StageId};

use crate::inject::Instrumented;

/// One task's bookkeeping row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Job the task belongs to.
    pub job: JobId,
    /// Stage within the job.
    pub stage: StageId,
    /// Task index within the stage.
    pub task: u32,
    /// Task start timestamp (seconds).
    pub start: f64,
    /// Task finish timestamp (seconds).
    pub finish: f64,
}

/// One stage's bookkeeping row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StageRecord {
    /// Job the stage belongs to.
    pub job: JobId,
    /// Stage id within the job.
    pub stage: StageId,
    /// Number of tasks the stage ran.
    pub n_tasks: u32,
}

/// What a profiling operator observed about one *original* transformation
/// in one task: the ENT interval (per the three cases of §3.3) and the
/// produced partition size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransformationObservation {
    /// Original dataset the transformation produces.
    pub dataset: DatasetId,
    /// Containing task.
    pub job: JobId,
    /// Containing stage.
    pub stage: StageId,
    /// Task index.
    pub task: u32,
    /// ENT start timestamp.
    pub start: f64,
    /// ENT finish timestamp.
    pub finish: f64,
    /// Partition bytes recorded by the following profiling operator
    /// (0 for Shuffle-Write halves, whose size is the written shuffle
    /// data and not a dataset partition).
    pub partition_bytes: u64,
    /// Which half of the transformation this is: plain narrow / Shuffle
    /// Read (`false`) or Shuffle Write (`true`).
    pub is_shuffle_write: bool,
    /// Whether the interval was a cache read rather than a computation
    /// (excluded from execution-time estimates, used for size estimates).
    pub is_cache_read: bool,
}

/// The profiling database. Interior mutability with a [`Mutex`] mirrors the
/// central-collector role it plays (tasks report concurrently in Spark_i);
/// the simulator reports one run at a time, but the harness profiles many
/// applications in parallel into one database.
#[derive(Debug, Default)]
pub struct ProfilingDatabase {
    inner: Mutex<DbInner>,
}

#[derive(Debug, Default)]
struct DbInner {
    tasks: Vec<TaskRecord>,
    /// Keyed and iterated in `(job, stage)` order.
    stages: BTreeMap<(JobId, StageId), StageRecord>,
    observations: Vec<TransformationObservation>,
}

impl ProfilingDatabase {
    /// Empty database.
    #[must_use]
    pub fn new() -> Self {
        ProfilingDatabase::default()
    }

    /// Ingests an instrumented run: walks every task trace, splits it at
    /// profiling-operator boundaries, and stores one observation per
    /// original transformation — using only profile-visible timestamps.
    pub fn ingest(&self, instr: &Instrumented, report: &RunReport) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        for trace in &report.traces {
            inner.tasks.push(TaskRecord {
                job: trace.job,
                stage: trace.stage,
                task: trace.task,
                start: trace.start,
                finish: trace.finish,
            });
            let rec = inner
                .stages
                .entry((trace.job, trace.stage))
                .or_insert(StageRecord {
                    job: trace.job,
                    stage: trace.stage,
                    n_tasks: 0,
                });
            rec.n_tasks = rec.n_tasks.max(trace.task + 1);
            Self::observe_task(instr, trace, |o| inner.observations.push(o));
        }
    }

    /// Splits one task at profile boundaries (the §3.3 ENT cases), handing
    /// each observation to `emit` in task order.
    pub(crate) fn observe_task(
        instr: &Instrumented,
        trace: &TaskTrace,
        mut emit: impl FnMut(TransformationObservation),
    ) {
        // `boundary` is the last profile-visible timestamp: task start, or
        // the finish of the most recent profiling operator.
        let mut boundary = trace.start;
        for step in &trace.steps {
            let did = step.dataset;
            if let Some(original) = instr.profiles.get(did.index()).copied().flatten() {
                if step.kind == StepKind::CacheRead {
                    // The cached replica was read; the profile still "sees"
                    // its size but there was no computation.
                    emit(TransformationObservation {
                        dataset: original,
                        job: trace.job,
                        stage: trace.stage,
                        task: trace.task,
                        start: boundary,
                        finish: step.finish,
                        partition_bytes: step.out_bytes,
                        is_shuffle_write: false,
                        is_cache_read: true,
                    });
                    boundary = step.finish;
                    continue;
                }
                // A profiling operator ran: everything since `boundary` up
                // to ITS OWN start is the preceding transformation's ENT.
                // (cases 1 and 3 of §3.3: first-in-task intervals start at
                // task start, middle intervals at the previous profile's
                // finish.)
                emit(TransformationObservation {
                    dataset: original,
                    job: trace.job,
                    stage: trace.stage,
                    task: trace.task,
                    start: boundary,
                    finish: step.start,
                    partition_bytes: step.out_bytes,
                    is_shuffle_write: false,
                    is_cache_read: false,
                });
                boundary = step.finish;
            } else if step.kind == StepKind::ShuffleWrite {
                // Case 2: last transformation in the task — ENT runs to the
                // task's finish. The wide dataset id in the instrumented
                // plan is a copy; map back to the original.
                let original = instr.copy_of.get(did.index()).copied().flatten();
                if let Some(original) = original {
                    emit(TransformationObservation {
                        dataset: original,
                        job: trace.job,
                        stage: trace.stage,
                        task: trace.task,
                        start: boundary,
                        finish: trace.finish,
                        partition_bytes: 0,
                        is_shuffle_write: true,
                        is_cache_read: false,
                    });
                }
            }
            // Plain copy steps are invisible: their time is absorbed into
            // the interval ending at the next profile — exactly the
            // information a real profiling operator has.
        }
    }

    /// All task records.
    #[must_use]
    pub fn tasks(&self) -> Vec<TaskRecord> {
        self.inner.lock().tasks.clone()
    }

    /// All stage records, sorted by `(job, stage)`.
    #[must_use]
    pub fn stages(&self) -> Vec<StageRecord> {
        self.inner.lock().stages.values().copied().collect()
    }

    /// All transformation observations.
    #[must_use]
    pub fn observations(&self) -> Vec<TransformationObservation> {
        self.inner.lock().observations.clone()
    }

    /// Calls `f` with the stage table and the observations, borrowed under
    /// the lock instead of cloned out of it.
    pub(crate) fn with_records<R>(
        &self,
        f: impl FnOnce(&BTreeMap<(JobId, StageId), StageRecord>, &[TransformationObservation]) -> R,
    ) -> R {
        let inner = self.inner.lock();
        f(&inner.stages, &inner.observations)
    }

    /// Number of observations (cheap, for tests).
    #[must_use]
    pub fn observation_count(&self) -> usize {
        self.inner.lock().observations.len()
    }

    /// Stores hand-built records, bypassing trace splitting.
    #[cfg(test)]
    pub(crate) fn insert_raw(
        &self,
        stages: &[StageRecord],
        observations: &[TransformationObservation],
    ) {
        let mut inner = self.inner.lock();
        for s in stages {
            inner.stages.insert((s.job, s.stage), *s);
        }
        inner.observations.extend_from_slice(observations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions, SimParams};
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};

    use crate::inject::{inject, ProfilingOverhead};

    #[test]
    fn stages_are_sorted_by_job_then_stage() {
        // Three jobs of two stages each (map + treeAggregate result).
        let mut b = AppBuilder::new("sorted");
        let src = b.source("in", SourceFormat::DistributedFs, 1_000, 80_000_000, 4);
        let parsed = b.narrow(
            "parsed",
            NarrowKind::Map,
            &[src],
            1_000,
            60_000_000,
            ComputeCost::new(0.01, 1e-6, 1e-9),
        );
        for i in 0..3 {
            let g = b.wide_with_partitions(
                format!("grad[{i}]"),
                WideKind::TreeAggregate,
                &[parsed],
                1,
                64,
                1,
                ComputeCost::FREE,
            );
            b.job("aggregate", g);
        }
        let app = b.build().unwrap();
        let instr = inject(&app, ProfilingOverhead::default());
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let report = Engine::new(&instr.app, cluster, SimParams::default())
            .run(
                &instr.map_schedule(app.default_schedule()),
                RunOptions {
                    collect_traces: true,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let (a, b) = (ProfilingDatabase::new(), ProfilingDatabase::new());
        a.ingest(&instr, &report);
        b.ingest(&instr, &report);
        let stages = a.stages();
        let keys: Vec<(JobId, StageId)> = stages.iter().map(|s| (s.job, s.stage)).collect();
        let expected: Vec<(JobId, StageId)> = (0..3)
            .flat_map(|j| (0..2).map(move |s| (JobId(j), StageId(s))))
            .collect();
        assert_eq!(keys, expected);
        assert_eq!(stages, b.stages(), "same records, same order");
    }
}
