//! One-call profiling runs: inject, execute on the simulator while each
//! finished task folds into a profiling database, and derive metrics; and
//! the sizes-only run parameter calibration needs.

use std::collections::BTreeSet;
use std::sync::Arc;

use cluster_sim::{
    ClusterConfig, Engine, EnginePrep, RunOptions, RunReport, SimParams, StepKind, TaskTrace,
};
use dagflow::{Application, DagError, DatasetId, Schedule};

use crate::db::ProfilingDatabase;
use crate::inject::{inject, Instrumented, ProfilingOverhead};
use crate::metrics::{derive_metrics, DatasetMetrics, PartitionSizes};

/// Everything a profiling run produces.
#[derive(Debug)]
pub struct ProfileRunOutput {
    /// The instrumented plan and id mappings.
    pub instrumented: Instrumented,
    /// The prep of the instrumented plan's lineage, which later runs of
    /// the same lineage can share ([`Engine::with_prep`]).
    pub prep: Arc<EnginePrep>,
    /// The simulator report of the instrumented run. Its `traces` are
    /// empty: each task was folded into the profiling database as it
    /// finished and not kept (run [`Engine::run`] with
    /// `collect_traces` for a run's traces).
    pub report: RunReport,
    /// Per-original-dataset metrics (§3.2/§3.3).
    pub metrics: Vec<DatasetMetrics>,
}

/// Runs `app` under Spark_i on the given cluster and returns dataset
/// metrics. `schedule` is expressed over the *original* plan (pass the
/// app's default schedule for a faithful sample run).
pub fn profile_run(
    app: &Application,
    schedule: &Schedule,
    cluster: ClusterConfig,
    params: SimParams,
) -> Result<ProfileRunOutput, DagError> {
    let (instrumented, prep) = {
        let _prof = obs::prof::scope("plan");
        let instrumented = inject(app, ProfilingOverhead::default());
        let prep = Arc::new(EnginePrep::new(&instrumented.app));
        (instrumented, prep)
    };
    let mapped = instrumented.map_schedule(schedule);
    let engine = Engine::with_prep(&instrumented.app, cluster, params, Arc::clone(&prep));
    let db = ProfilingDatabase::new();
    let report = db.ingest_run(&engine, &instrumented, &mapped)?;
    let metrics = derive_metrics(&db, app, cluster.total_cores());
    Ok(ProfileRunOutput {
        instrumented,
        prep,
        report,
        metrics,
    })
}

/// What one step of an instrumented task tells the sizes-only run.
#[derive(Debug, Clone, Copy)]
enum SizeStep {
    /// Not a step of a requested dataset.
    Skip,
    /// The profiling shadow of requested dataset `slot`: its output is a
    /// partition size.
    Shadow(u32),
    /// The copy of requested dataset `slot`: a Shuffle Write of it marks
    /// the dataset seen.
    Copy(u32),
}

/// The sizes-only counterpart of the profiling database: it reads the
/// steps of the requested datasets' profiling shadows (and the Shuffle
/// Writes of their copies) and folds them by the database's size rule.
#[derive(Debug)]
struct SizeSink {
    /// Indexed by instrumented dataset id.
    steps: Vec<SizeStep>,
    /// One per requested dataset, in dataset-id order.
    sizes: Vec<PartitionSizes>,
}

impl SizeSink {
    fn new(instrumented: &Instrumented, datasets: &BTreeSet<DatasetId>) -> Self {
        let mut slot_of = vec![None; instrumented.shadow.len()];
        for (slot, d) in datasets.iter().enumerate() {
            if let Some(entry) = slot_of.get_mut(d.index()) {
                *entry = Some(slot as u32);
            }
        }
        let requested = |original: Option<DatasetId>| original.and_then(|d| slot_of[d.index()]);
        let steps = instrumented
            .profiles
            .iter()
            .zip(&instrumented.copy_of)
            .map(|(&profiles, &copy_of)| {
                if let Some(slot) = requested(profiles) {
                    SizeStep::Shadow(slot)
                } else if let Some(slot) = requested(copy_of) {
                    SizeStep::Copy(slot)
                } else {
                    SizeStep::Skip
                }
            })
            .collect();
        SizeSink {
            steps,
            sizes: datasets.iter().map(|_| PartitionSizes::default()).collect(),
        }
    }

    fn observe(&mut self, trace: &TaskTrace) {
        for step in &trace.steps {
            match self.steps[step.dataset.index()] {
                SizeStep::Shadow(slot) => {
                    self.sizes[slot as usize].write(trace.task, step.out_bytes);
                }
                SizeStep::Copy(slot) if step.kind == StepKind::ShuffleWrite => {
                    self.sizes[slot as usize].mark_seen();
                }
                _ => {}
            }
        }
    }

    /// The size of every requested dataset some task observed.
    fn finish(&self, datasets: &BTreeSet<DatasetId>) -> Vec<(DatasetId, u64)> {
        datasets
            .iter()
            .zip(&self.sizes)
            .filter_map(|(&d, s)| s.total().map(|bytes| (d, bytes)))
            .collect()
    }
}

/// Runs the instrumented plan on `engine`, an engine over
/// `instrumented.app` or over [`Instrumented::sized`] of it, with default
/// [`RunOptions`], and measures the partition sizes of `datasets` only:
/// for them, the `size_bytes` that [`profile_run`]'s metrics report, by
/// the same rule, with none of the execution-time fold. The run records
/// only the steps of those datasets' shadows and copies (a watched
/// [`Engine::run_observed`]). `schedule` is expressed over the *original*
/// plan.
/// The report is bit-identical to [`profile_run`]'s for the same
/// application, cluster and parameters. The sizes come in dataset-id
/// order, one for each requested dataset some task observed — exactly the
/// requested datasets [`profile_run`] reports.
///
/// # Errors
/// Returns the simulator's error when it rejects the mapped schedule.
pub fn profile_sizes(
    engine: &Engine<'_>,
    instrumented: &Instrumented,
    schedule: &Schedule,
    datasets: &BTreeSet<DatasetId>,
) -> Result<(RunReport, Vec<(DatasetId, u64)>), DagError> {
    let mut sink = SizeSink::new(instrumented, datasets);
    let watch: Vec<bool> = sink
        .steps
        .iter()
        .map(|step| !matches!(step, SizeStep::Skip))
        .collect();
    let report = engine.run_observed(
        &instrumented.map_schedule(schedule),
        RunOptions::default(),
        Some(&watch),
        &mut |trace| sink.observe(trace),
    )?;
    Ok((report, sink.finish(datasets)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::{MachineSpec, NoiseParams};
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};

    /// input → parsed → k treeAggregate jobs; parse compute ~1.17 s per
    /// task, aggregate combine ~0.11 s per map task.
    fn iterative_app(iterations: usize) -> Application {
        let mut b = AppBuilder::new("iterprof");
        let src = b.source("in", SourceFormat::DistributedFs, 8_000, 1_120_000_000, 8);
        let parsed = b.narrow(
            "parsed",
            NarrowKind::Map,
            &[src],
            8_000,
            800_000_000,
            ComputeCost::new(0.05, 1e-5, 4e-9),
        );
        for i in 0..iterations {
            let g = b.wide_with_partitions(
                format!("grad[{i}]"),
                WideKind::TreeAggregate,
                &[parsed],
                8,
                1024,
                1,
                ComputeCost::new(0.01, 0.0, 1e-9),
            );
            b.job("aggregate", g);
        }
        b.build().unwrap()
    }

    fn quiet() -> SimParams {
        SimParams {
            noise: NoiseParams::NONE,
            ..SimParams::default()
        }
    }

    #[test]
    fn measures_sizes_accurately() {
        let app = iterative_app(3);
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let out = profile_run(&app, &Schedule::empty(), cluster, quiet()).unwrap();
        let parsed = out
            .metrics
            .iter()
            .find(|m| m.dataset == DatasetId(1))
            .expect("parsed was observed");
        let truth = 800_000_000.0;
        let err = (parsed.size_bytes as f64 - truth).abs() / truth;
        assert!(err < 0.01, "size {} vs {truth}", parsed.size_bytes);
        let src = out
            .metrics
            .iter()
            .find(|m| m.dataset == DatasetId(0))
            .unwrap();
        assert!((src.size_bytes as f64 - 1_120_000_000.0).abs() / 1_120_000_000.0 < 0.01);
    }

    #[test]
    fn measures_narrow_transformation_time() {
        let app = iterative_app(2);
        // 1 machine × 4 cores, 8 tasks ⇒ 2 waves.
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let out = profile_run(&app, &Schedule::empty(), cluster, quiet()).unwrap();
        let parsed = out
            .metrics
            .iter()
            .find(|m| m.dataset == DatasetId(1))
            .unwrap();
        // Per-task ENT for `parsed` is its compute time: 0.05 + 1e-5·1000 +
        // 4e-9·140e6 = 0.62 s (plus the profiling overhead of its own
        // profile, ~0.0165 s, absorbed into the *source's* interval? No:
        // the source's profile ends the source interval; the parsed
        // interval runs from that profile's finish to parsed's profile
        // start, i.e. exactly the parsed compute). With 2 waves: ~1.24 s.
        let expect = (0.05 + 1e-5 * 1000.0 + 4e-9 * 140_000_000.0) * 2.0;
        let err = (parsed.et_seconds - expect).abs() / expect;
        assert!(err < 0.05, "ET {} vs {expect}", parsed.et_seconds);
    }

    #[test]
    fn source_read_time_includes_io() {
        let app = iterative_app(2);
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let out = profile_run(&app, &Schedule::empty(), cluster, quiet()).unwrap();
        let src = out
            .metrics
            .iter()
            .find(|m| m.dataset == DatasetId(0))
            .unwrap();
        // 140 MB at 80 MB/s = 1.75 s per task, 2 waves ⇒ ~3.5 s.
        assert!(
            (src.et_seconds - 3.5).abs() / 3.5 < 0.05,
            "ET {}",
            src.et_seconds
        );
    }

    #[test]
    fn wide_transformation_sums_write_and_read_halves() {
        let app = iterative_app(2);
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let out = profile_run(&app, &Schedule::empty(), cluster, quiet()).unwrap();
        let grad = out
            .metrics
            .iter()
            .find(|m| m.dataset == DatasetId(2))
            .unwrap();
        // Write half: combine over 100 MB parsed partitions ≈ 0.11 s ×
        // 2 waves; read half: tiny fetch+merge, 1 task, 1 wave.
        assert!(grad.et_seconds > 0.2, "ET {}", grad.et_seconds);
        assert!(grad.et_seconds < 0.5, "ET {}", grad.et_seconds);
        assert!(grad.observations >= 2, "both halves observed");
    }

    #[test]
    fn cached_runs_exclude_cache_reads_from_et() {
        let app = iterative_app(5);
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let cold = profile_run(&app, &Schedule::empty(), cluster, quiet()).unwrap();
        let hot = profile_run(
            &app,
            &Schedule::persist_all([DatasetId(1)]),
            cluster,
            quiet(),
        )
        .unwrap();
        let et_cold = cold
            .metrics
            .iter()
            .find(|m| m.dataset == DatasetId(1))
            .unwrap()
            .et_seconds;
        let et_hot = hot
            .metrics
            .iter()
            .find(|m| m.dataset == DatasetId(1))
            .unwrap()
            .et_seconds;
        // The hot run computes `parsed` once and cache-reads it afterwards;
        // measured computation time must stay in the same ballpark, not
        // shrink toward the cache-read time.
        assert!(
            (et_hot - et_cold).abs() / et_cold < 0.2,
            "hot {et_hot} vs cold {et_cold}"
        );
    }

    #[test]
    fn deterministic_metrics() {
        let app = iterative_app(2);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let a = profile_run(&app, &Schedule::empty(), cluster, quiet()).unwrap();
        let b = profile_run(&app, &Schedule::empty(), cluster, quiet()).unwrap();
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(x.dataset, y.dataset);
            assert_eq!(x.et_seconds, y.et_seconds);
            assert_eq!(x.size_bytes, y.size_bytes);
        }
    }

    /// `(dataset, size_bytes)` of every entry of `metrics`.
    fn sizes_of(metrics: &[DatasetMetrics]) -> Vec<(DatasetId, u64)> {
        metrics.iter().map(|m| (m.dataset, m.size_bytes)).collect()
    }

    #[test]
    fn sizes_only_run_matches_profile_run() {
        let app = iterative_app(4);
        let all: BTreeSet<DatasetId> = app.datasets().iter().map(|d| d.id).collect();
        for schedule in [Schedule::empty(), Schedule::persist_all([DatasetId(1)])] {
            for machines in [1, 3] {
                let cluster = ClusterConfig::new(machines, MachineSpec::paper_example());
                let full = profile_run(&app, &schedule, cluster, SimParams::default()).unwrap();
                let instr = inject(&app, ProfilingOverhead::default());
                let engine = Engine::new(&instr.app, cluster, SimParams::default());
                let (report, sizes) = profile_sizes(&engine, &instr, &schedule, &all).unwrap();
                assert_eq!(report.digest(), full.report.digest());
                assert_eq!(sizes, sizes_of(&full.metrics));
                // A subset, and an id the plan does not have, which no
                // task can observe.
                let some = BTreeSet::from([DatasetId(3), DatasetId(1), DatasetId(99)]);
                let (_, sizes) = profile_sizes(&engine, &instr, &schedule, &some).unwrap();
                let want: Vec<_> = sizes_of(&full.metrics)
                    .into_iter()
                    .filter(|(d, _)| some.contains(d))
                    .collect();
                assert_eq!(sizes, want);
                assert_eq!(sizes.len(), 2);
            }
        }
    }

    /// The sink folds by the database's size rule, on task streams a
    /// single simulated run cannot produce (every run gives one partition
    /// the same bytes each time it is observed): a second observation of
    /// a partition replaces the first, and a dataset only a Shuffle Write
    /// mentions is reported with size 0.
    #[test]
    fn size_sink_keeps_the_last_write_and_write_only_datasets() {
        let app = iterative_app(3);
        let instr = inject(&app, ProfilingOverhead::default());
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let report = Engine::new(&instr.app, cluster, quiet())
            .run(
                &instr.map_schedule(&Schedule::empty()),
                RunOptions {
                    collect_traces: true,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let mut doubled = report.clone();
        for step in doubled.traces.iter_mut().flat_map(|t| &mut t.steps) {
            step.out_bytes *= 2;
        }
        // grad[0]'s shadow never runs: only its copy's Shuffle Write is left.
        let grad = DatasetId(2);
        let mut write_only = report.clone();
        for trace in &mut write_only.traces {
            trace
                .steps
                .retain(|s| s.dataset != instr.shadow[grad.index()]);
        }
        let all: BTreeSet<DatasetId> = app.datasets().iter().map(|d| d.id).collect();
        let fold = |reports: &[&RunReport]| {
            let mut sink = SizeSink::new(&instr, &all);
            let db = ProfilingDatabase::new();
            for r in reports {
                r.traces.iter().for_each(|t| sink.observe(t));
                db.ingest(&instr, r);
            }
            let want = sizes_of(&derive_metrics(&db, &app, cluster.total_cores()));
            let got = sink.finish(&all);
            assert_eq!(got, want);
            got
        };
        let once = fold(&[&report]);
        assert_eq!(once.len(), app.dataset_count());
        let twice: Vec<_> = once.iter().map(|&(d, b)| (d, 2 * b)).collect();
        assert_eq!(fold(&[&report, &doubled]), twice, "the last write wins");
        assert_eq!(fold(&[&doubled, &report]), once, "the last write wins");
        let write_only = fold(&[&write_only]);
        assert!(write_only.contains(&(grad, 0)), "{write_only:?}");
        assert_eq!(write_only.len(), app.dataset_count());
    }
}
