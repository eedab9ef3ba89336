//! The central profiling database (paper §4): when a task finishes, its
//! profiling-operator data is sent here and folded at once into the
//! per-dataset state [`derive_metrics`](crate::derive_metrics) finishes.
//! No task, stage or observation rows are kept.

use std::sync::{Mutex, PoisonError};

use cluster_sim::{Engine, RunOptions, RunReport, StepKind, TaskTrace};
use dagflow::{DagError, DatasetId, JobId, Schedule, StageId};

use crate::inject::Instrumented;
use crate::metrics::MetricsFold;

/// What a profiling operator observed about one *original* transformation
/// in one task: the ENT interval (per the three cases of §3.3) and the
/// produced partition size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TransformationObservation {
    /// Original dataset the transformation produces.
    pub(crate) dataset: DatasetId,
    /// Containing task.
    pub(crate) job: JobId,
    /// Containing stage.
    pub(crate) stage: StageId,
    /// Task index.
    pub(crate) task: u32,
    /// ENT start timestamp.
    pub(crate) start: f64,
    /// ENT finish timestamp.
    pub(crate) finish: f64,
    /// Partition bytes recorded by the following profiling operator
    /// (0 for Shuffle-Write halves, whose size is the written shuffle
    /// data and not a dataset partition).
    pub(crate) partition_bytes: u64,
    /// Which half of the transformation this is: plain narrow / Shuffle
    /// Read (`false`) or Shuffle Write (`true`).
    pub(crate) is_shuffle_write: bool,
    /// Whether the interval was a cache read rather than a computation
    /// (excluded from execution-time estimates, used for size estimates).
    pub(crate) is_cache_read: bool,
}

/// The profiling database. Interior mutability with a [`Mutex`] mirrors the
/// central-collector role it plays (tasks report concurrently in Spark_i);
/// the simulator reports one run at a time. Every run ingested into one
/// database must be of the same application.
#[derive(Debug, Default)]
pub struct ProfilingDatabase {
    pub(crate) fold: Mutex<MetricsFold>,
}

impl ProfilingDatabase {
    /// Empty database.
    #[must_use]
    pub fn new() -> Self {
        ProfilingDatabase::default()
    }

    /// Ingests an instrumented run: walks every task trace, splits it at
    /// profiling-operator boundaries, and folds one observation per
    /// original transformation — using only profile-visible timestamps.
    pub fn ingest(&self, instr: &Instrumented, report: &RunReport) {
        let mut fold = self.fold.lock().unwrap_or_else(PoisonError::into_inner);
        fold.cover(instr.shadow.len());
        for trace in &report.traces {
            Self::fold_task(&mut fold, instr, trace);
        }
    }

    /// Runs `schedule` (over the instrumented plan) with default
    /// [`RunOptions`] on `engine`, an engine over `instr.app`, and folds
    /// each task into the database as it finishes, exactly as
    /// [`ProfilingDatabase::ingest`] folds a collected run: the same tasks
    /// in the same order, so the same bits. No trace is kept, so the
    /// returned report's `traces` are empty.
    ///
    /// # Errors
    /// Fails when the schedule references datasets outside `instr.app`.
    pub fn ingest_run(
        &self,
        engine: &Engine<'_>,
        instr: &Instrumented,
        schedule: &Schedule,
    ) -> Result<RunReport, DagError> {
        let mut fold = self.fold.lock().unwrap_or_else(PoisonError::into_inner);
        fold.cover(instr.shadow.len());
        engine.run_observed(schedule, RunOptions::default(), None, &mut |trace| {
            Self::fold_task(&mut fold, instr, trace);
        })
    }

    /// Counts one task and folds its observations.
    fn fold_task(fold: &mut MetricsFold, instr: &Instrumented, trace: &TaskTrace) {
        fold.count_task(trace.job, trace.stage, trace.task);
        Self::observe_task(instr, trace, |obs| fold.add(&obs));
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
}
