//! Run reports: timings, cache statistics, and task-level traces.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dagflow::{DatasetId, JobId, Schedule, StageId};

/// Per-dataset cache statistics accumulated over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetCacheStats {
    /// Cache reads that found the block resident.
    pub hits: u64,
    /// Cache reads that missed (forcing recomputation).
    pub misses: u64,
    /// Attempts to insert a block.
    pub insert_attempts: u64,
    /// Inserts that failed for lack of memory.
    pub insert_failures: u64,
    /// Blocks evicted by LRU pressure (storage or execution).
    pub evictions: u64,
    /// Blocks dropped by unpersist/swap.
    pub unpersisted: u64,
    /// Currently resident partitions.
    pub resident_partitions: u32,
    /// Currently resident bytes.
    pub resident_bytes: u64,
    /// Peak resident bytes over the run.
    pub peak_resident_bytes: u64,
    /// Distinct partition indices that were evicted at least once.
    pub evicted_partition_ids: BTreeSet<u32>,
}

/// Aggregated cache behaviour of a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Per persisted dataset.
    pub per_dataset: HashMap<DatasetId, DatasetCacheStats>,
    /// Peak storage bytes across the cluster.
    pub peak_storage_bytes: u64,
    /// Peak execution bytes across the cluster.
    pub peak_exec_bytes: u64,
}

impl CacheStats {
    /// Fraction of a dataset's partitions resident at the end of the run.
    /// `None` if the dataset was never cached.
    #[must_use]
    pub fn resident_fraction(&self, dataset: DatasetId, total_partitions: u32) -> Option<f64> {
        let s = self.per_dataset.get(&dataset)?;
        if s.insert_attempts == 0 {
            return None;
        }
        Some(f64::from(s.resident_partitions) / f64::from(total_partitions.max(1)))
    }

    /// Fraction of a dataset's partitions that were evicted at least once
    /// — the paper's per-configuration "percentage of data partitions
    /// evicted from cache" (Figure 2 discussion).
    #[must_use]
    pub fn evicted_fraction(&self, dataset: DatasetId, total_partitions: u32) -> f64 {
        let missing = self.per_dataset.get(&dataset).map_or(0u32, |s| {
            (s.evicted_partition_ids.len() as u32)
                .max(total_partitions.saturating_sub(s.resident_partitions))
        });
        f64::from(missing.min(total_partitions)) / f64::from(total_partitions.max(1))
    }
}

/// What one step of a task's pipeline did. The `instrument` crate maps
/// these to the paper's §3.3 transformation-time model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StepKind {
    /// Read a source partition from stable storage.
    SourceRead,
    /// Read a cached block from storage memory.
    CacheRead,
    /// Fetched shuffle output from all map tasks (Shuffle Read — the first
    /// "narrow half" of a wide transformation).
    ShuffleRead,
    /// Computed the dataset's partition by applying its operator.
    Compute,
    /// Wrote shuffle output for a downstream stage (Shuffle Write — the
    /// trailing "narrow half" of a wide transformation, recorded in the map
    /// stage).
    ShuffleWrite,
}

/// One step in a task's pipeline, with intra-task timestamps (seconds,
/// relative to application start).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineStep {
    /// The dataset the step materializes (for `ShuffleWrite`, the wide
    /// dataset whose map output is written).
    pub dataset: DatasetId,
    /// Step kind.
    pub kind: StepKind,
    /// Absolute start time.
    pub start: f64,
    /// Absolute finish time.
    pub finish: f64,
    /// Bytes of the produced partition (output of the step).
    pub out_bytes: u64,
}

/// Trace of one executed task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTrace {
    /// Job the task belongs to.
    pub job: JobId,
    /// Stage within the job.
    pub stage: StageId,
    /// Task index within the stage (= partition index of the stage output).
    pub task: u32,
    /// Machine the task ran on.
    pub machine: u32,
    /// Task start (absolute seconds).
    pub start: f64,
    /// Task finish (absolute seconds).
    pub finish: f64,
    /// Pipeline steps in execution order.
    pub steps: Vec<PipelineStep>,
}

/// Timing of one executed stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Containing job.
    pub job: JobId,
    /// Stage id within the job.
    pub stage: StageId,
    /// Stage start (absolute seconds).
    pub start: f64,
    /// Stage finish (absolute seconds).
    pub finish: f64,
    /// Number of tasks the stage ran.
    pub tasks: u32,
}

impl StageTiming {
    /// Stage wall-clock duration.
    #[must_use]
    pub fn duration(&self) -> f64 {
        (self.finish - self.start).max(0.0)
    }
}

/// Multi-tenant contention outcome for one tenant of a
/// [`crate::tenant::TenantSet`] run: how long its tasks queued for FAIR
/// slots, how often other tenants evicted its cached blocks (and vice
/// versa), and how long its blocks survived in the shared pool. Quiet
/// (all-default) for single-app runs, mirroring
/// [`crate::fault::FaultSummary`]'s quiet-exclusion contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ContentionSummary {
    /// This tenant's index within the tenant set.
    pub tenant: u32,
    /// Number of *active* (weight > 0) tenants that shared the cluster
    /// (0 = not a tenancy run). Weightless placeholders are excluded so
    /// admitting one never perturbs the other tenants' digests; a
    /// placeholder's own summary reports the admitted set size instead,
    /// as its self-description.
    pub tenants: u32,
    /// FAIR scheduling weight of this tenant.
    pub weight: f64,
    /// Seconds after cluster start this tenant arrived.
    pub arrival_offset_s: f64,
    /// Cumulative seconds task attempts queued for a free slot beyond
    /// dispatch, stage start, and retry backoff.
    pub slot_wait_s: f64,
    /// Cached blocks of this tenant evicted by *other* tenants' inserts.
    pub cross_evictions_suffered: u64,
    /// Cached blocks of *other* tenants evicted by this tenant's inserts.
    pub cross_evictions_inflicted: u64,
    /// Median cache lifetime (`ln 2 ×` mean) of this tenant's
    /// cross-evicted blocks, seconds; 0 when nothing was cross-evicted.
    pub residency_half_life_s: f64,
}

impl ContentionSummary {
    /// `true` when the run saw no tenancy at all — every field at its
    /// default. Quiet summaries are excluded from the digest so
    /// single-app reports keep their pre-tenancy byte format.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }
}

/// Result of one simulated application run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Schedule the engine enforced (shared — reports are cloned and
    /// fanned across threads during training, so the schedule rides along
    /// by reference count instead of deep copy).
    pub schedule: Arc<Schedule>,
    /// Number of machines.
    pub machines: u32,
    /// End-to-end wall-clock time, seconds (including startup).
    pub total_time_s: f64,
    /// Per-job wall-clock times, seconds.
    pub job_times_s: Vec<f64>,
    /// Cache behaviour.
    pub cache: CacheStats,
    /// Per-job, per-persisted-dataset (hits, misses) — the iteration-level
    /// eviction picture of §7.5.
    pub per_job_cache: Vec<Vec<(DatasetId, u64, u64)>>,
    /// Per-stage timings (always collected; a handful of entries per job).
    pub stage_times: Vec<StageTiming>,
    /// Task traces (present when requested via `RunOptions`).
    pub traces: Vec<TaskTrace>,
    /// Structured span/counter trace (present when `RunOptions::trace` was
    /// enabled); exportable as Chrome `trace_event` JSON or JSONL.
    pub trace: Option<crate::trace::RunTrace>,
    /// Count of tasks that had to spill (could not claim execution
    /// memory).
    pub spilled_tasks: u64,
    /// Total tasks executed.
    pub total_tasks: u64,
    /// Total task attempts, including retried failures and speculative
    /// copies. Equals `total_tasks` in fault-free runs.
    pub task_attempts: u64,
    /// Fault-injection outcomes and fault-tolerance counters: per-event
    /// fired/not-fired accounting, retries, speculation wins, blacklist
    /// events. Quiet (all-empty) for fault-free runs.
    pub faults: crate::fault::FaultSummary,
    /// Multi-tenant contention outcome: slot waits, cross-tenant
    /// evictions, residency half-life. Quiet (all-default) for
    /// single-app runs.
    #[serde(default)]
    pub contention: ContentionSummary,
}

impl RunReport {
    /// Cost in machine-seconds: `machines × time`, the paper's pricing
    /// model (§5.5).
    #[must_use]
    pub fn cost_machine_seconds(&self) -> f64 {
        f64::from(self.machines) * self.total_time_s
    }

    /// Cost in machine-minutes, the unit of the paper's evaluation
    /// figures.
    #[must_use]
    pub fn cost_machine_minutes(&self) -> f64 {
        self.cost_machine_seconds() / 60.0
    }

    /// Content digest of the run's *outcome*: a SHA-256 over a canonical
    /// byte encoding of what the simulation produced (app, schedule,
    /// machine count, timings, cache peaks, per-dataset cache counters,
    /// spill counts). Two runs of the same configuration must produce the
    /// same digest regardless of worker-thread count or whether tracing
    /// was requested — `traces`/`trace` are deliberately excluded, they
    /// describe *how* the run was observed, not *what* it computed.
    /// Floats enter by `to_bits`, so the digest detects even sub-format
    /// numeric drift.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut h = obs::Sha256::new();
        let put_u64 = |h: &mut obs::Sha256, x: u64| h.update(&x.to_be_bytes());
        let put_str = |h: &mut obs::Sha256, s: &str| {
            h.update(&(s.len() as u64).to_be_bytes());
            h.update(s.as_bytes());
        };
        put_str(&mut h, &self.app);
        put_str(&mut h, &self.schedule.notation());
        put_u64(&mut h, u64::from(self.machines));
        put_u64(&mut h, self.total_time_s.to_bits());
        put_u64(&mut h, self.job_times_s.len() as u64);
        for t in &self.job_times_s {
            put_u64(&mut h, t.to_bits());
        }
        put_u64(&mut h, self.cache.peak_storage_bytes);
        put_u64(&mut h, self.cache.peak_exec_bytes);
        // HashMap iteration order is nondeterministic; sort by dataset.
        let mut datasets: Vec<&DatasetId> = self.cache.per_dataset.keys().collect();
        datasets.sort();
        put_u64(&mut h, datasets.len() as u64);
        for d in datasets {
            let s = &self.cache.per_dataset[d];
            put_u64(&mut h, u64::from(d.0));
            for counter in [
                s.hits,
                s.misses,
                s.insert_attempts,
                s.insert_failures,
                s.evictions,
                s.unpersisted,
                u64::from(s.resident_partitions),
                s.resident_bytes,
                s.peak_resident_bytes,
            ] {
                put_u64(&mut h, counter);
            }
        }
        put_u64(&mut h, self.stage_times.len() as u64);
        for st in &self.stage_times {
            put_u64(&mut h, u64::from(st.job.0));
            put_u64(&mut h, u64::from(st.stage.0));
            put_u64(&mut h, st.start.to_bits());
            put_u64(&mut h, st.finish.to_bits());
            put_u64(&mut h, u64::from(st.tasks));
        }
        put_u64(&mut h, self.spilled_tasks);
        put_u64(&mut h, self.total_tasks);
        // Chaos block: hashed only when the run actually saw chaos, so
        // fault-free digests are byte-identical to the pre-chaos format
        // (ledger manifests and drift baselines stay valid).
        if !self.faults.is_quiet() {
            put_u64(&mut h, self.task_attempts);
            for counter in [
                self.faults.failed_attempts,
                self.faults.retried_attempts,
                self.faults.exhausted_tasks,
                self.faults.slowed_tasks,
                self.faults.speculative_launched,
                self.faults.speculative_wins,
            ] {
                put_u64(&mut h, counter);
            }
            put_u64(&mut h, self.faults.outcomes.len() as u64);
            for o in &self.faults.outcomes {
                put_u64(&mut h, u64::from(o.fired));
                put_u64(&mut h, o.event.at_s.to_bits());
                put_u64(&mut h, o.fired_at_s.map_or(u64::MAX, f64::to_bits));
                for w in o.event.kind.digest_words() {
                    put_u64(&mut h, w);
                }
                put_str(&mut h, &o.detail);
            }
            put_u64(&mut h, self.faults.blacklist.len() as u64);
            for b in &self.faults.blacklist {
                put_u64(&mut h, u64::from(b.machine));
                put_u64(&mut h, b.at_s.to_bits());
                put_u64(&mut h, u64::from(b.failures));
            }
        }
        // Contention block: hashed only for tenancy runs, so single-app
        // digests are byte-identical to the pre-tenancy format.
        if !self.contention.is_quiet() {
            let c = &self.contention;
            put_u64(&mut h, u64::from(c.tenant));
            put_u64(&mut h, u64::from(c.tenants));
            put_u64(&mut h, c.weight.to_bits());
            put_u64(&mut h, c.arrival_offset_s.to_bits());
            put_u64(&mut h, c.slot_wait_s.to_bits());
            put_u64(&mut h, c.cross_evictions_suffered);
            put_u64(&mut h, c.cross_evictions_inflicted);
            put_u64(&mut h, c.residency_half_life_s.to_bits());
        }
        obs::to_hex(&h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_machines_times_time() {
        let r = RunReport {
            app: "x".into(),
            schedule: Arc::new(Schedule::empty()),
            machines: 7,
            total_time_s: 120.0,
            job_times_s: vec![],
            cache: CacheStats::default(),
            per_job_cache: vec![],
            stage_times: vec![],
            traces: vec![],
            trace: None,
            spilled_tasks: 0,
            total_tasks: 0,
            task_attempts: 0,
            faults: crate::fault::FaultSummary::default(),
            contention: ContentionSummary::default(),
        };
        assert_eq!(r.cost_machine_seconds(), 840.0);
        assert_eq!(r.cost_machine_minutes(), 14.0);
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let mut r = RunReport {
            app: "x".into(),
            schedule: Arc::new(Schedule::empty()),
            machines: 7,
            total_time_s: 120.0,
            job_times_s: vec![40.0, 80.0],
            cache: CacheStats::default(),
            per_job_cache: vec![],
            stage_times: vec![],
            traces: vec![],
            trace: None,
            spilled_tasks: 0,
            total_tasks: 10,
            task_attempts: 10,
            faults: crate::fault::FaultSummary::default(),
            contention: ContentionSummary::default(),
        };
        let d1 = r.digest();
        assert_eq!(d1.len(), 64);
        assert_eq!(r.clone().digest(), d1, "same content, same digest");
        // Observation-only fields don't move the digest.
        r.traces.push(TaskTrace {
            job: JobId(0),
            stage: StageId(0),
            task: 0,
            machine: 0,
            start: 0.0,
            finish: 1.0,
            steps: vec![],
        });
        assert_eq!(r.digest(), d1, "traces are excluded");
        // Outcome fields do.
        r.total_time_s += 1e-9;
        assert_ne!(r.digest(), d1, "timing drift must change the digest");
    }

    #[test]
    fn evicted_fraction_counts_never_cached_partitions() {
        let mut cs = CacheStats::default();
        let d = DatasetId(3);
        cs.per_dataset.insert(
            d,
            DatasetCacheStats {
                insert_attempts: 10,
                insert_failures: 6,
                resident_partitions: 4,
                ..Default::default()
            },
        );
        // 10 partitions, 4 resident → 60 % "evicted or never admitted".
        assert!((cs.evicted_fraction(d, 10) - 0.6).abs() < 1e-12);
        // Unknown dataset: everything missing.
        assert_eq!(cs.evicted_fraction(DatasetId(9), 10), 0.0);
    }

    #[test]
    fn resident_fraction_requires_attempts() {
        let mut cs = CacheStats::default();
        let d = DatasetId(1);
        assert_eq!(cs.resident_fraction(d, 4), None);
        cs.per_dataset.insert(
            d,
            DatasetCacheStats {
                insert_attempts: 4,
                resident_partitions: 3,
                ..Default::default()
            },
        );
        assert_eq!(cs.resident_fraction(d, 4), Some(0.75));
    }
}
