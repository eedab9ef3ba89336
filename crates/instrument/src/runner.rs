//! One-call profiling runs: inject, execute on the simulator while each
//! finished task folds into a profiling database, and derive metrics.

use std::sync::Arc;

use cluster_sim::{ClusterConfig, Engine, EnginePrep, RunReport, SimParams};
use dagflow::{Application, DagError, Schedule};

use crate::db::ProfilingDatabase;
use crate::inject::{inject, Instrumented, ProfilingOverhead};
use crate::metrics::{derive_metrics, DatasetMetrics};

/// Everything a profiling run produces.
#[derive(Debug)]
pub struct ProfileRunOutput {
    /// The instrumented plan and id mappings.
    pub instrumented: Instrumented,
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
    let engine = Engine::with_prep(&instrumented.app, cluster, params, prep);
    let db = ProfilingDatabase::new();
    let report = db.ingest_run(&engine, &instrumented, &mapped)?;
    let metrics = derive_metrics(&db, app, cluster.total_cores());
    Ok(ProfileRunOutput {
        instrumented,
        report,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::{MachineSpec, NoiseParams};
    use dagflow::{AppBuilder, ComputeCost, DatasetId, NarrowKind, SourceFormat, WideKind};

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
}
