//! K-Means — the §6.1 extension workload.
//!
//! Not part of the paper's evaluation set; it exists to exercise the §6.1
//! discussion: "some hyper-parameters, like the number of clusters in
//! K-MEANS, influence the number of iterations and the execution time of
//! each iteration. Similar to the number of iterations, these
//! hyper-parameters are to be considered when Juggler builds the
//! execution time model."
//!
//! Structure: input text → parsed points (`D1`, the cacheable hotspot) →
//! per iteration, a distance computation whose per-record cost is
//! proportional to `k` (every point is compared against `k` centers),
//! then a `k`-partition reduceByKey recomputing the centers.

use cluster_sim::{NoiseParams, SimParams};
use dagflow::{Application, ComputeCost, Lineages, NarrowKind, Schedule, SourceFormat, WideKind};

use crate::common::{bytes, WorkloadParams};
use crate::Workload;

/// The K-Means workload generator. `clusters` is the §6.1 hyper-parameter.
#[derive(Debug, Clone, Copy)]
pub struct KMeans {
    /// Number of clusters `k` — scales the per-iteration distance work.
    pub clusters: u32,
}

impl Default for KMeans {
    fn default() -> Self {
        KMeans { clusters: 10 }
    }
}

impl Workload for KMeans {
    fn name(&self) -> &'static str {
        "KMEANS"
    }

    fn paper_params(&self) -> WorkloadParams {
        WorkloadParams::auto(50_000, 20_000, 20)
    }

    fn sim_params(&self) -> SimParams {
        SimParams {
            exec_mem_per_task_factor: 0.12,
            noise: NoiseParams::default(),
            ..SimParams::default()
        }
    }

    fn build(&self, p: &WorkloadParams) -> Application {
        self.build_sized(p, &Lineages::default())
    }

    fn build_sized(&self, p: &WorkloadParams, lineages: &Lineages<'_>) -> Application {
        let ef = p.ef();
        let e = p.e();
        let f = p.f();
        let k = f64::from(self.clusters.max(1));
        let parts = p.partitions;
        let iters = p.iterations.max(1) as usize;

        let parse = ComputeCost::new(0.002, 0.0, 1.5e-10);
        let tiny = ComputeCost::new(0.001, 0.0, 1.0e-11);
        // The distance scan costs k comparisons per feature cell: the
        // hyper-parameter shows up directly in the per-byte coefficient.
        let assign_scan = ComputeCost::new(0.004, 0.0, 4.0e-10 * k);
        let agg = ComputeCost::new(0.004, 0.0, 1.0e-9);

        let mut b = lineages.builder("kmeans");
        let d0 = b.source(
            "input",
            SourceFormat::DistributedFs,
            p.examples,
            p.input_bytes(),
            parts,
        );
        let d1 = b.narrow(
            "points",
            NarrowKind::Map,
            &[d0],
            p.examples,
            bytes(8.0 * ef),
            parse,
        );
        let seed = b.narrow(
            "initCenters",
            NarrowKind::Sample,
            &[d1],
            u64::from(self.clusters),
            bytes(8.0 * f * k),
            tiny,
        );
        b.job("takeSample", seed);

        for i in 0..iters {
            let assigned = b.narrow(
                format_args!("assigned[{i}]"),
                NarrowKind::Map,
                &[d1],
                p.examples,
                bytes(16.0 * e),
                assign_scan,
            );
            let centers = b.wide_with_partitions(
                format_args!("centers[{i}]"),
                WideKind::ReduceByKey,
                &[assigned],
                u64::from(self.clusters),
                bytes(8.0 * f * k),
                self.clusters.max(1),
                agg,
            );
            let moved = b.narrow(
                format_args!("movement[{i}]"),
                NarrowKind::Map,
                &[centers],
                1,
                8,
                tiny,
            );
            b.job("collect", moved);
        }
        let cost_view = b.narrow("wssse", NarrowKind::Map, &[d1], 1, 8, tiny);
        b.job("collect", cost_view);

        b.default_schedule(Schedule::persist_all([d1]));
        b.build().expect("K-Means plan is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions};
    use dagflow::{DatasetId, LineageAnalysis};

    #[test]
    fn structure_is_iterative_over_points() {
        let w = KMeans::default();
        let app = w.build(&WorkloadParams::auto(2_000, 1_000, 5));
        let la = LineageAnalysis::new(&app);
        let n = la.computation_counts();
        assert_eq!(n[1] as u32, 1 + 5 + 1, "seed job + iterations + wssse");
        assert_eq!(la.intermediates(), vec![DatasetId(0), DatasetId(1)]);
    }

    /// The §6.1 point: the hyper-parameter changes per-iteration time, so
    /// runs with more clusters take measurably longer at identical (e, f).
    #[test]
    fn more_clusters_cost_more_time() {
        let params = WorkloadParams::auto(10_000, 4_000, 4);
        let run = |k: u32| {
            let w = KMeans { clusters: k };
            let app = w.build(&params);
            let mut sim = w.sim_params();
            sim.noise = NoiseParams::NONE;
            sim.cluster_jitter_s = 0.0;
            Engine::new(
                &app,
                ClusterConfig::new(2, MachineSpec::private_cluster()),
                sim,
            )
            .run(app.default_schedule(), RunOptions::default())
            .unwrap()
            .total_time_s
        };
        let t5 = run(5);
        let t40 = run(40);
        // Compare net of the constant application startup.
        let startup = cluster_sim::engine::APP_STARTUP_S;
        assert!(
            t40 - startup > 1.8 * (t5 - startup),
            "k=40 took {t40}, k=5 took {t5}"
        );
    }

    #[test]
    fn validates_under_the_workload_harness() {
        let issues = crate::validate::validate_workload(&KMeans::default());
        assert!(issues.is_empty(), "{issues:?}");
    }
}
