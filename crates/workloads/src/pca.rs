//! Principal Components Analysis (PCA) — the paper's CPU-intensive,
//! tiny-data application: all cached datasets fit into a single machine's
//! memory, so Juggler recommends one machine (minimal cost, longest time).
//!
//! Structure:
//!
//! * `D0` input text → `D1` parsed rows → `D2` dense vectors (HiBench
//!   caches `D2`) → … → `D13` the row matrix every power-iteration reads,
//!   with an expensive normalization step producing it → `D14` the
//!   Gramian staging dataset (D13's single child);
//! * ids 3–12: pre-processing chains (mean vector, column norms,
//!   feature scaling) plus the example-count view, each used once;
//! * 100 power iterations × 18 datasets (block multiplies, normalization
//!   cascades, convergence checks — MLlib's ARPACK-style driver launches
//!   many tiny jobs, which is how PCA reaches 1 833 datasets);
//! * a final 18-dataset eigenvector extraction across 2 jobs.
//!
//! `|D1| = |D2| = |D13|` (dense doubles ≈ 8.2 bytes/cell): every schedule
//! prefix ties on memory budget, so the equal-cost rule discards all but
//! the final `p(1) u(1) p(2) u(2) p(13)` — exactly Table 2, where PCA has
//! a single schedule (id 3).

use cluster_sim::{NoiseParams, SimParams};
use dagflow::{Application, ComputeCost, Lineages, NarrowKind, Schedule, SourceFormat, WideKind};

use crate::common::{bytes, WorkloadParams};
use crate::Workload;

/// The PCA workload generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pca;

impl Workload for Pca {
    fn name(&self) -> &'static str {
        "PCA"
    }

    fn paper_params(&self) -> WorkloadParams {
        WorkloadParams::auto(6_000, 5_000, 100)
    }

    fn sim_params(&self) -> SimParams {
        SimParams {
            exec_mem_per_task_factor: 0.06,
            noise: NoiseParams::default(),
            ..SimParams::default()
        }
    }

    fn sample_params(&self) -> WorkloadParams {
        // PCA's full inputs are already tiny; halving (instead of the
        // default 1/20th) keeps sample-run benefits above the hotspot
        // noise floor.
        WorkloadParams {
            examples: 3_000,
            features: 2_500,
            iterations: 3,
            partitions: 8,
        }
    }

    fn build(&self, p: &WorkloadParams) -> Application {
        self.build_sized(p, &Lineages::default())
    }

    fn build_sized(&self, p: &WorkloadParams, lineages: &Lineages<'_>) -> Application {
        let ef = p.ef();
        let f = p.f();
        let parts = p.partitions;
        let iters = p.iterations.max(1) as usize;

        // Parsing text into dense vectors is CPU-heavy (~15 % of the read
        // time), which is what makes D1 — not the raw source — the first
        // dataset worth caching.
        let parse = ComputeCost::new(0.002, 0.0, 1.07e-9);
        let to_dense = ComputeCost::new(0.002, 0.0, 1.4e-10);
        let normalize = ComputeCost::new(0.004, 0.0, 3.0e-9); // D13: the costly step
        let staging = ComputeCost::new(0.0005, 0.0, 1.0e-12); // D14: pass-through
        let tiny = ComputeCost::new(0.001, 0.0, 1.0e-11);
        let gram_scan = ComputeCost::new(0.004, 0.0, 4.0e-9); // per-iteration multiply
        let agg = ComputeCost::new(0.004, 0.0, 1.0e-9);

        let mut b = lineages.builder("pca");
        let d0 = b.source(
            "input",
            SourceFormat::DistributedFs,
            p.examples,
            p.input_bytes(),
            parts,
        );
        let d1 = b.narrow(
            "parsed",
            NarrowKind::Map,
            &[d0],
            p.examples,
            bytes(8.2 * ef),
            parse,
        );
        let d2 = b.narrow(
            "vectors",
            NarrowKind::Map,
            &[d1],
            p.examples,
            bytes(8.2 * ef),
            to_dense,
        );
        let v0 = b.narrow("numRows", NarrowKind::Map, &[d1], 1, 8, tiny); // 3

        // ids 4..=12: three pre-processing chains over D2 (used once each).
        let m1 = b.narrow(
            "colMeans",
            NarrowKind::Map,
            &[d2],
            p.examples,
            bytes(8.0 * f),
            tiny,
        ); // 4
        let m2 = b.wide_with_partitions(
            "colMeansAgg",
            WideKind::TreeAggregate,
            &[m1],
            1,
            bytes(8.0 * f),
            1,
            agg,
        ); // 5
        let n1 = b.narrow(
            "colNorms",
            NarrowKind::Map,
            &[d2],
            p.examples,
            bytes(8.0 * f),
            tiny,
        ); // 6
        let n2 = b.narrow(
            "colNormsSq",
            NarrowKind::Map,
            &[n1],
            p.examples,
            bytes(8.0 * f),
            tiny,
        ); // 7
        let n3 = b.wide_with_partitions(
            "colNormsAgg",
            WideKind::TreeAggregate,
            &[n2],
            1,
            bytes(8.0 * f),
            1,
            agg,
        ); // 8
        let s1 = b.narrow(
            "scaleSeed",
            NarrowKind::Map,
            &[d2],
            p.examples,
            bytes(8.0 * f),
            tiny,
        ); // 9
        let s2 = b.narrow(
            "scaleSq",
            NarrowKind::Map,
            &[s1],
            p.examples,
            bytes(8.0 * f),
            tiny,
        ); // 10
        let s3 = b.narrow(
            "scaleNorm",
            NarrowKind::Map,
            &[s2],
            p.examples,
            bytes(8.0 * f),
            tiny,
        ); // 11
        let s4 = b.wide_with_partitions(
            "scaleAgg",
            WideKind::TreeAggregate,
            &[s3],
            1,
            bytes(8.0 * f),
            1,
            agg,
        ); // 12

        let d13 = b.narrow(
            "rowMatrix",
            NarrowKind::Map,
            &[d2],
            p.examples,
            bytes(8.2 * ef),
            normalize,
        ); // 13
        let d14 = b.narrow(
            "gramStage",
            NarrowKind::Map,
            &[d13],
            p.examples,
            bytes(8.5 * ef),
            staging,
        ); // 14

        b.job("count", v0);
        b.job("treeAggregate", m2);
        b.job("treeAggregate", n3);
        b.job("treeAggregate", s4);

        // 100 power iterations × 18 datasets each (one job per iteration).
        for i in 0..iters {
            let mut prev = b.narrow(
                format_args!("gram[{i}].mul0"),
                NarrowKind::Map,
                &[d14],
                p.examples,
                bytes(8.0 * f),
                gram_scan,
            );
            for k in 1..16 {
                prev = b.narrow(
                    format_args!("gram[{i}].mul{k}"),
                    NarrowKind::Map,
                    &[prev],
                    p.examples,
                    bytes(8.0 * f),
                    tiny,
                );
            }
            let reduced = b.wide_with_partitions(
                format_args!("gram[{i}].agg"),
                WideKind::TreeAggregate,
                &[prev],
                1,
                bytes(8.0 * f),
                1,
                agg,
            );
            let conv = b.narrow(
                format_args!("gram[{i}].converged"),
                NarrowKind::Map,
                &[reduced],
                1,
                8,
                tiny,
            );
            b.job("treeAggregate", conv);
        }

        // Eigenvector extraction: two jobs over 18 fresh datasets.
        for block in 0..2 {
            let mut prev = b.narrow(
                format_args!("eigen{block}.project"),
                NarrowKind::Map,
                &[d14],
                p.examples,
                bytes(8.0 * f),
                gram_scan,
            );
            for k in 1..8 {
                prev = b.narrow(
                    format_args!("eigen{block}.step{k}"),
                    NarrowKind::Map,
                    &[prev],
                    p.examples,
                    bytes(8.0 * f),
                    tiny,
                );
            }
            let out = b.wide_with_partitions(
                format_args!("eigen{block}.agg"),
                WideKind::TreeAggregate,
                &[prev],
                1,
                bytes(8.0 * f),
                1,
                agg,
            );
            b.job("collect", out);
        }

        b.default_schedule(Schedule::persist_all([d2]));
        b.build().expect("PCA plan is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{DatasetId, LineageAnalysis};

    #[test]
    fn table1_dataset_counts() {
        let app = Pca.build(&Pca.paper_params());
        assert_eq!(app.dataset_count(), 1833, "Table 1: PCA has 1833 datasets");
        let la = LineageAnalysis::new(&app);
        let inter = la.intermediates();
        assert_eq!(
            inter,
            vec![
                DatasetId(0),
                DatasetId(1),
                DatasetId(2),
                DatasetId(13),
                DatasetId(14)
            ],
            "Table 1: 5 intermediates"
        );
    }

    #[test]
    fn table1_input_size() {
        let app = Pca.build(&Pca.paper_params());
        let mb = app.input_bytes() as f64 / 1e6;
        assert!((mb - 229.2).abs() < 7.0, "input {mb} MB");
    }

    #[test]
    fn default_schedule_is_hibench() {
        let app = Pca.build(&Pca.paper_params());
        assert_eq!(app.default_schedule().notation(), "p(2)");
    }

    /// The equal-budget discard rule needs |D1| = |D2| = |D13| exactly.
    #[test]
    fn cacheable_datasets_tie_on_size() {
        let app = Pca.build(&Pca.paper_params());
        let b1 = app.dataset(DatasetId(1)).bytes;
        assert_eq!(app.dataset(DatasetId(2)).bytes, b1);
        assert_eq!(app.dataset(DatasetId(13)).bytes, b1);
        assert!(app.dataset(DatasetId(14)).bytes > b1, "staging is larger");
    }

    #[test]
    fn gram_stage_is_single_child_of_rowmatrix() {
        let app = Pca.build(&Pca.paper_params());
        let la = LineageAnalysis::new(&app);
        assert_eq!(la.children_of(DatasetId(13)), &[DatasetId(14)]);
        let n = la.computation_counts();
        assert_eq!(n[13], n[14]);
        assert_eq!(n[13] as u32, 100 + 2, "iterations + 2 eigen jobs");
    }
}
