//! Reconstructing dataset metrics from profiling observations — the
//! operator-level execution-time model of §3.3 plus partition-size
//! aggregation (§3.2).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use dagflow::{Application, DatasetId, JobId, StageId};

use crate::db::{ProfilingDatabase, TransformationObservation};

/// Metrics of one (original) dataset, as Juggler's hotspot detection
/// consumes them. The computation count `n` is *not* here — it comes from
/// the merged-DAG analysis (`dagflow::LineageAnalysis`), not from
/// measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetMetrics {
    /// The dataset (original plan id).
    pub dataset: DatasetId,
    /// Measured size: sum of observed partition sizes (§3.2).
    pub size_bytes: u64,
    /// Measured computation time `ET_T` (§3.3): wave-weighted mean task
    /// ENT, with wide transformations as Shuffle Write + Shuffle Read
    /// (Eq. 3).
    pub et_seconds: f64,
    /// Number of `(job, stage)` groups of non-cache-read observations,
    /// over both halves, supporting `et_seconds`.
    pub observations: u32,
}

/// Derives per-dataset metrics from a profiling database.
///
/// `total_cores` is the number of parallel task slots of the cluster the
/// instrumented sample run used (`machines × cores`) — the denominator of
/// the `N_waves = ⌈tasks / cores⌉` term of Eq. 2.
///
/// The database folded every observation as it ingested it, into dense
/// per-dataset state: a partition-size vector indexed by task (the last
/// write wins), and for each half — plain / Shuffle Read, Shuffle Write —
/// a short list of `(job, stage)` groups, each summing its ENT intervals in
/// observation order. This only finishes the fold: a dataset's half
/// averages its groups' `mean ENT × waves` in ascending `(job, stage)`
/// order, whatever order the traces were ingested in, so interleaved
/// observations of different groups yield the same bits as grouped ones,
/// repeated runs agree across processes, and calling it again returns the
/// same bits.
#[must_use]
pub fn derive_metrics(
    db: &ProfilingDatabase,
    app: &Application,
    total_cores: u32,
) -> Vec<DatasetMetrics> {
    db.fold
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .finish(app, total_cores)
}

/// ENT intervals of one `(job, stage)` for one dataset half.
#[derive(Debug)]
struct Group {
    job: JobId,
    stage: StageId,
    total: f64,
    count: u32,
}

/// The size rule of §3.2 for one dataset, shared by the full metrics fold
/// and the sizes-only profiling run: per task index the last partition
/// size observed wins, and the dataset's size is their sum. A Shuffle-Write
/// observation carries no partition size but still marks the dataset seen.
#[derive(Debug, Default)]
pub(crate) struct PartitionSizes {
    /// Some observation mentions the dataset.
    seen: bool,
    /// Partition bytes by task index; unwritten slots read as 0.
    sizes: Vec<u64>,
}

impl PartitionSizes {
    /// Records `bytes` as the size of partition `task`, replacing any
    /// earlier size of that partition.
    pub(crate) fn write(&mut self, task: u32, bytes: u64) {
        self.seen = true;
        let task = task as usize;
        if self.sizes.len() <= task {
            self.sizes.resize(task + 1, 0);
        }
        self.sizes[task] = bytes;
    }

    /// Records an observation without a partition size (a Shuffle Write).
    pub(crate) fn mark_seen(&mut self) {
        self.seen = true;
    }

    /// The dataset's size, or `None` if no observation mentioned it.
    pub(crate) fn total(&self) -> Option<u64> {
        self.seen.then(|| self.sizes.iter().sum())
    }
}

#[derive(Debug, Default)]
struct Acc {
    sizes: PartitionSizes,
    /// ENT groups of the read (`[0]`) and Shuffle-Write (`[1]`) halves.
    halves: [Vec<Group>; 2],
}

/// The per-dataset state a [`ProfilingDatabase`] folds observations into,
/// in observation order, plus the task count of each `(job, stage)`.
#[derive(Debug, Default)]
pub(crate) struct MetricsFold {
    /// Indexed by original dataset id.
    accs: Vec<Acc>,
    stage_tasks: BTreeMap<(JobId, StageId), u32>,
    /// The `(job, stage)` being counted and its task count so far, not yet
    /// in `stage_tasks`: tasks arrive stage by stage, so the map is
    /// written once per stage, not once per task.
    counting: Option<((JobId, StageId), u32)>,
}

impl MetricsFold {
    /// Gives each of the datasets `0..datasets` an accumulator.
    pub(crate) fn cover(&mut self, datasets: usize) {
        if self.accs.len() < datasets {
            self.accs.resize_with(datasets, Acc::default);
        }
    }

    /// Counts `task` of `(job, stage)`: a stage ran as many tasks as its
    /// highest task index plus one.
    pub(crate) fn count_task(&mut self, job: JobId, stage: StageId, task: u32) {
        match &mut self.counting {
            Some((key, n)) if *key == (job, stage) => *n = (*n).max(task + 1),
            _ => {
                self.flush_count();
                self.counting = Some(((job, stage), task + 1));
            }
        }
    }

    /// Writes the current stage's task count into `stage_tasks`.
    fn flush_count(&mut self) {
        if let Some((key, n)) = self.counting.take() {
            let total = self.stage_tasks.entry(key).or_insert(0);
            *total = (*total).max(n);
        }
    }

    /// Folds one observation; a dataset without an accumulator is skipped.
    pub(crate) fn add(&mut self, obs: &TransformationObservation) {
        let Some(acc) = self.accs.get_mut(obs.dataset.index()) else {
            return;
        };
        if obs.is_shuffle_write {
            acc.sizes.mark_seen();
        } else {
            acc.sizes.write(obs.task, obs.partition_bytes);
        }
        if obs.is_cache_read {
            return;
        }
        let groups = &mut acc.halves[usize::from(obs.is_shuffle_write)];
        let ent = (obs.finish - obs.start).max(0.0);
        // Observations arrive stage by stage, so the match is almost
        // always the most recent group.
        match groups
            .iter_mut()
            .rev()
            .find(|g| g.job == obs.job && g.stage == obs.stage)
        {
            Some(g) => {
                g.total += ent;
                g.count += 1;
            }
            None => groups.push(Group {
                job: obs.job,
                stage: obs.stage,
                total: ent,
                count: 1,
            }),
        }
    }

    /// The metrics of every dataset of `app` some observation mentioned.
    /// Sorts each half's groups in place, which leaves their totals as
    /// they are.
    fn finish(&mut self, app: &Application, total_cores: u32) -> Vec<DatasetMetrics> {
        self.flush_count();
        let stage_tasks = &self.stage_tasks;
        let waves = |job: JobId, stage: StageId| -> f64 {
            let n = stage_tasks.get(&(job, stage)).copied().unwrap_or(1).max(1);
            f64::from(n.div_ceil(total_cores.max(1)))
        };
        let mut out = Vec::new();
        for (d, acc) in app.datasets().iter().zip(&mut self.accs) {
            let Some(size_bytes) = acc.sizes.total() else {
                continue; // never touched in the sample run
            };
            // Per half: average over (job, stage) groups of (mean ENT ×
            // waves) — Eq. 2; then sum halves — Eq. 3.
            let mut et = 0.0;
            let mut obs_count = 0;
            for groups in &mut acc.halves {
                if groups.is_empty() {
                    continue;
                }
                groups.sort_unstable_by_key(|g| (g.job, g.stage));
                let mut total = 0.0;
                for g in groups.iter() {
                    total += g.total / f64::from(g.count) * waves(g.job, g.stage);
                }
                let n = groups.len() as u32;
                et += total / f64::from(n);
                obs_count += n;
            }
            out.push(DatasetMetrics {
                dataset: d.id,
                size_bytes,
                et_seconds: et,
                observations: obs_count,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions, RunReport, SimParams};
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, Schedule, SourceFormat, WideKind};

    use crate::inject::{inject, Instrumented, ProfilingOverhead};

    type StageTasks = HashMap<(JobId, StageId), u32>;

    /// The observations and per-stage task counts of `reports`, in
    /// ingestion order, split by the database's own trace splitter.
    fn observe(
        instr: &Instrumented,
        reports: &[&RunReport],
    ) -> (Vec<TransformationObservation>, StageTasks) {
        let mut observations = Vec::new();
        let mut stage_tasks = StageTasks::new();
        for trace in reports.iter().flat_map(|r| &r.traces) {
            let n = stage_tasks.entry((trace.job, trace.stage)).or_insert(0);
            *n = (*n).max(trace.task + 1);
            ProfilingDatabase::observe_task(instr, trace, |o| observations.push(o));
        }
        (observations, stage_tasks)
    }

    /// The hash-map aggregation the database fold replaced, kept as its
    /// oracle. Its groups were summed in map iteration order, which varies
    /// between processes; here they are summed in ascending
    /// `(dataset, half, job, stage)` order, the order `derive_metrics` pins.
    fn reference_derive(
        observations: &[TransformationObservation],
        stage_tasks: &StageTasks,
        app: &Application,
        total_cores: u32,
    ) -> Vec<DatasetMetrics> {
        let waves = |job: JobId, stage: StageId| -> f64 {
            let n = stage_tasks.get(&(job, stage)).copied().unwrap_or(1).max(1);
            f64::from(n.div_ceil(total_cores.max(1)))
        };
        let mut groups: HashMap<(DatasetId, bool, JobId, StageId), (f64, u32)> = HashMap::new();
        let mut sizes: HashMap<DatasetId, HashMap<u32, u64>> = HashMap::new();
        for obs in observations {
            if !obs.is_shuffle_write {
                sizes
                    .entry(obs.dataset)
                    .or_default()
                    .insert(obs.task, obs.partition_bytes);
            }
            if obs.is_cache_read {
                continue;
            }
            let acc = groups
                .entry((obs.dataset, obs.is_shuffle_write, obs.job, obs.stage))
                .or_default();
            acc.0 += (obs.finish - obs.start).max(0.0);
            acc.1 += 1;
        }
        let mut ordered: Vec<_> = groups.into_iter().collect();
        ordered.sort_unstable_by_key(|&(key, _)| key);
        let mut half_et: HashMap<(DatasetId, bool), (f64, u32)> = HashMap::new();
        for ((dataset, is_write, job, stage), (total, count)) in ordered {
            let stage_et = total / f64::from(count) * waves(job, stage);
            let slot = half_et.entry((dataset, is_write)).or_insert((0.0, 0));
            slot.0 += stage_et;
            slot.1 += 1;
        }
        let mut out = Vec::new();
        for d in app.datasets() {
            let read = half_et.get(&(d.id, false));
            let write = half_et.get(&(d.id, true));
            if read.is_none() && write.is_none() && !sizes.contains_key(&d.id) {
                continue;
            }
            let mut et = 0.0;
            let mut obs_count = 0;
            for &(total, n) in [read, write].into_iter().flatten() {
                et += total / f64::from(n.max(1));
                obs_count += n;
            }
            out.push(DatasetMetrics {
                dataset: d.id,
                size_bytes: sizes.get(&d.id).map_or(0, |p| p.values().sum()),
                et_seconds: et,
                observations: obs_count,
            });
        }
        out
    }

    /// The oracle's metrics of `app` profiled into `reports`.
    fn oracle(
        instr: &Instrumented,
        reports: &[&RunReport],
        app: &Application,
        total_cores: u32,
    ) -> Vec<DatasetMetrics> {
        let (observations, stage_tasks) = observe(instr, reports);
        reference_derive(&observations, &stage_tasks, app, total_cores)
    }

    fn assert_same_bits(got: &[DatasetMetrics], want: &[DatasetMetrics], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: dataset count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.dataset, w.dataset, "{what}");
            assert_eq!(g.size_bytes, w.size_bytes, "{what}: {} size", g.dataset);
            assert_eq!(
                g.et_seconds.to_bits(),
                w.et_seconds.to_bits(),
                "{what}: {} et {} vs {}",
                g.dataset,
                g.et_seconds,
                w.et_seconds
            );
            assert_eq!(g.observations, w.observations, "{what}: {}", g.dataset);
        }
    }

    /// Runs `app` under Spark_i and `schedule` (noisy, skewed) with traces.
    fn traced_run(
        app: &Application,
        schedule: &Schedule,
        machines: u32,
        seed: u64,
    ) -> (Instrumented, RunReport) {
        let instr = inject(app, ProfilingOverhead::default());
        let cluster = ClusterConfig::new(machines, MachineSpec::paper_example());
        let params = SimParams {
            seed,
            ..SimParams::default()
        };
        let report = Engine::new(&instr.app, cluster, params)
            .run(
                &instr.map_schedule(schedule),
                RunOptions {
                    collect_traces: true,
                    partition_skew: 0.3,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        (instr, report)
    }

    fn cores(machines: u32) -> u32 {
        machines * MachineSpec::paper_example().cores
    }

    const COST: ComputeCost = ComputeCost {
        fixed_s: 0.02,
        per_record_s: 1e-6,
        per_input_byte_s: 2e-9,
    };

    /// input → parsed → `jobs` treeAggregate jobs, nothing cached: every
    /// job recomputes `parsed`, so its read half has one group per job.
    fn iterative(jobs: usize) -> Application {
        let mut b = AppBuilder::new("iter");
        let src = b.source("in", SourceFormat::DistributedFs, 8_000, 400_000_000, 8);
        let parsed = b.narrow("parsed", NarrowKind::Map, &[src], 8_000, 300_000_000, COST);
        for i in 0..jobs {
            let g = b.wide_with_partitions(
                format!("grad[{i}]"),
                WideKind::TreeAggregate,
                &[parsed],
                8,
                1024,
                1,
                COST,
            );
            b.job("aggregate", g);
        }
        b.build().unwrap()
    }

    /// A diamond into a join, a self-join, and two wides sharing one map
    /// stage, over three jobs.
    fn joins() -> Application {
        let mut b = AppBuilder::new("joins");
        let s = b.source("s", SourceFormat::DistributedFs, 4_000, 200_000_000, 6);
        let l = b.narrow("l", NarrowKind::Map, &[s], 4_000, 150_000_000, COST);
        let r = b.narrow("r", NarrowKind::Filter, &[s], 2_000, 80_000_000, COST);
        let j = b.wide("j", WideKind::Join, &[l, r], 3_000, 120_000_000, COST);
        b.job("count", j);
        let selfj = b.wide("selfj", WideKind::Join, &[l, l], 4_000, 160_000_000, COST);
        b.job("count", selfj);
        let w1 = b.wide("w1", WideKind::ReduceByKey, &[r], 500, 8_000_000, COST);
        let w2 = b.wide("w2", WideKind::GroupByKey, &[r], 500, 9_000_000, COST);
        let z = b.narrow("z", NarrowKind::Zip, &[w1, w2], 500, 17_000_000, COST);
        b.job("collect", z);
        b.build().unwrap()
    }

    #[test]
    fn derive_matches_reference_on_profile_runs() {
        let mut most_groups = 0;
        for (name, app, schedule) in [
            ("iterative", iterative(10), Schedule::empty()),
            (
                "iterative cached",
                iterative(6),
                Schedule::persist_all([DatasetId(1)]),
            ),
            ("joins", joins(), Schedule::empty()),
            (
                "joins cached",
                joins(),
                Schedule::persist_all([DatasetId(1), DatasetId(2)]),
            ),
        ] {
            for machines in [1, 3] {
                let (instr, report) = traced_run(&app, &schedule, machines, 7);
                let db = ProfilingDatabase::new();
                db.ingest(&instr, &report);
                let got = derive_metrics(&db, &app, cores(machines));
                assert!(!got.is_empty());
                let want = oracle(&instr, &[&report], &app, cores(machines));
                assert_same_bits(&got, &want, name);
                most_groups = most_groups.max(got.iter().map(|m| m.observations).max().unwrap());
            }
        }
        // The uncached iterative run feeds parsed's read half from ten
        // (job, stage) groups, so the summation order is exercised.
        assert!(most_groups >= 10, "at most {most_groups} groups");
    }

    /// Several runs ingested into one database fold like their
    /// observations concatenated: the group sums run across reports and a
    /// later report's partition sizes overwrite an earlier one's.
    #[test]
    fn two_reports_in_one_database_match_the_oracle_over_both() {
        let app = joins();
        let (instr, cold) = traced_run(&app, &Schedule::empty(), 3, 7);
        let cached = Schedule::persist_all([DatasetId(1), DatasetId(2)]);
        let (_, hot) = traced_run(&app, &cached, 3, 11);
        let db = ProfilingDatabase::new();
        db.ingest(&instr, &cold);
        let first = derive_metrics(&db, &app, cores(3));
        assert_same_bits(&first, &oracle(&instr, &[&cold], &app, cores(3)), "cold");
        db.ingest(&instr, &hot);
        let both = derive_metrics(&db, &app, cores(3));
        let want = oracle(&instr, &[&cold, &hot], &app, cores(3));
        assert_same_bits(&both, &want, "cold then hot");
        assert_ne!(both, first, "the second report moved the metrics");
    }

    /// `derive_metrics` sorts the groups it finishes in place; a second
    /// call finds them sorted and returns the same bits.
    #[test]
    fn derive_twice_gives_the_same_bits() {
        let app = iterative(10);
        let (instr, mut report) = traced_run(&app, &Schedule::empty(), 1, 7);
        // Last job first, so every half's groups start out descending.
        report.traces.reverse();
        let db = ProfilingDatabase::new();
        db.ingest(&instr, &report);
        let once = derive_metrics(&db, &app, cores(1));
        let twice = derive_metrics(&db, &app, cores(1));
        assert_same_bits(&twice, &once, "second call");
        assert_same_bits(&once, &oracle(&instr, &[&report], &app, cores(1)), "oracle");
    }

    #[test]
    fn profile_run_matches_the_oracle() {
        for (name, app, schedule) in [
            ("iterative", iterative(10), Schedule::empty()),
            (
                "joins cached",
                joins(),
                Schedule::persist_all([DatasetId(1), DatasetId(2)]),
            ),
        ] {
            for machines in [1, 3] {
                let cluster = ClusterConfig::new(machines, MachineSpec::paper_example());
                let params = SimParams {
                    seed: 7,
                    ..SimParams::default()
                };
                let out = crate::profile_run(&app, &schedule, cluster, params.clone()).unwrap();
                assert!(!out.metrics.is_empty());
                assert!(
                    out.report.traces.is_empty(),
                    "{name}: the streamed run kept traces"
                );
                // The same engine and seed, collecting its traces.
                let collected = Engine::new(&out.instrumented.app, cluster, params)
                    .run(
                        &out.instrumented.map_schedule(&schedule),
                        RunOptions {
                            collect_traces: true,
                            ..RunOptions::default()
                        },
                    )
                    .unwrap();
                assert_eq!(collected.digest(), out.report.digest(), "{name}");
                let want = oracle(&out.instrumented, &[&collected], &app, cores(machines));
                assert_same_bits(&out.metrics, &want, name);
            }
        }
    }

    #[test]
    fn interleaved_groups_give_the_same_bits_as_grouped_ones() {
        let obs = |job: u32, task: u32, ent: f64| TransformationObservation {
            dataset: DatasetId(1),
            job: JobId(job),
            stage: StageId(0),
            task,
            start: 0.1 * f64::from(task),
            finish: 0.1 * f64::from(task) + ent,
            partition_bytes: 1_000 + u64::from(task),
            is_shuffle_write: false,
            is_cache_read: false,
        };
        // Three (job, stage) groups of 3, 5 and 4 tasks with awkward ENTs:
        // their per-group terms sum to different bits in different orders.
        let groups: Vec<Vec<TransformationObservation>> = [(0, 3, 0.7), (1, 5, 0.3), (2, 4, 1e-3)]
            .into_iter()
            .map(|(job, tasks, scale)| {
                (0..tasks)
                    .map(|t| obs(job, t, scale * (1.0 + 1.0 / f64::from(t + 3))))
                    .collect()
            })
            .collect();
        let stage_tasks: StageTasks = groups
            .iter()
            .map(|g| ((g[0].job, g[0].stage), g.len() as u32))
            .collect();
        let grouped: Vec<_> = groups.iter().flatten().copied().collect();
        let reversed: Vec<_> = groups.iter().rev().flatten().copied().collect();
        let interleaved: Vec<_> = (0..5)
            .flat_map(|i| groups.iter().rev().filter_map(move |g| g.get(i)))
            .copied()
            .collect();
        let app = iterative(2);
        let derive = |observations: &[TransformationObservation]| {
            let mut fold = MetricsFold::default();
            fold.cover(app.dataset_count());
            for o in observations {
                fold.count_task(o.job, o.stage, o.task);
                fold.add(o);
            }
            (
                fold.finish(&app, 2),
                reference_derive(observations, &stage_tasks, &app, 2),
            )
        };
        let (want, reference) = derive(&grouped);
        assert_same_bits(&want, &reference, "grouped");
        assert_eq!(want.len(), 1);
        assert_eq!(want[0].observations, 3);
        // Every group reports the same bytes per partition, so the
        // last-write-wins sizes agree in every order.
        assert_eq!(want[0].size_bytes, (0..5).map(|t| 1_000 + t).sum::<u64>());
        for (what, order) in [("reversed", reversed), ("interleaved", interleaved)] {
            let (got, reference) = derive(&order);
            assert_same_bits(&got, &want, what);
            assert_same_bits(&reference, &want, what);
        }
    }
}
