//! Random Forest Classifier (RFC) — the shallow-iteration application
//! (3 trees) with the richest schedule family of Table 2.
//!
//! Structure (ids match Table 2's notation):
//!
//! * `D0` input text → `D1` parsed → on one branch `D2` (the test split,
//!   reused by the two post-training evaluation jobs), on the other
//!   `D3` → `D4` → `D5` (tree-point conversion; `D5` is the dataset the
//!   bagging stage feeds from) → `D11` bagging preparation → `D12` the
//!   bagged input HiBench's developers cache;
//! * ids 6–10: a five-step statistics chain over `D5` (one job);
//! * a `count` action directly on `D12`, then 3 trees × 2 jobs
//!   (best-split search, model update);
//! * two evaluation jobs over the test split `D2`.
//!
//! Totals: **26 datasets, 8 intermediates**; default `p(12)`; Juggler's
//! schedules `p(11)`, `p(1) p(12)` and `p(1) p(5) u(5) p(12)` — the
//! third emerges through two re-evaluation rounds (D11 → D1 swap, then
//! D12 → D5 swap), exercising every branch of Algorithm 1.

use cluster_sim::{NoiseParams, SimParams};
use dagflow::{Application, ComputeCost, Lineages, NarrowKind, Schedule, SourceFormat, WideKind};

use crate::common::{bytes, WorkloadParams};
use crate::Workload;

/// The RFC workload generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomForest;

impl Workload for RandomForest {
    fn name(&self) -> &'static str {
        "RFC"
    }

    fn paper_params(&self) -> WorkloadParams {
        WorkloadParams::auto(100_000, 40_000, 3)
    }

    fn sim_params(&self) -> SimParams {
        SimParams {
            exec_mem_per_task_factor: 0.20,
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
        let parts = p.partitions;
        let trees = p.iterations.clamp(1, 64) as usize;

        // Cost constants; see DESIGN.md for the BCR ordering analysis that
        // pins these ratios (relative to the input read time c1).
        let parse = ComputeCost::new(0.002, 0.0, 1.4e-10); // ET1 ≈ 0.02 c1
        let test_split = ComputeCost::new(0.0005, 0.0, 1.0e-11); // ET2 ≈ 0.002 c1
        let train_raw = ComputeCost::new(0.002, 0.0, 1.07e-10); // ET3 ≈ 0.015 c1
        let train_meta = ComputeCost::new(0.002, 0.0, 1.34e-10); // ET4 ≈ 0.015 c1
        let tree_points = ComputeCost::new(0.002, 0.0, 5.4e-10); // ET5 ≈ 0.06 c1
        let bag_prep = ComputeCost::new(0.002, 0.0, 1.8e-10); // ET11 ≈ 0.02 c1
        let bagging = ComputeCost::new(0.004, 0.0, 2.47e-9); // ET12 ≈ 0.2 c1
        let tiny = ComputeCost::new(0.001, 0.0, 1.0e-11);
        let node_scan = ComputeCost::new(0.004, 0.0, 2.0e-9);
        let agg = ComputeCost::new(0.004, 0.0, 1.0e-9);

        let mut b = lineages.builder("rfc");
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
            bytes(7.30 * ef),
            parse,
        );
        let d2 = b.narrow(
            "testSplit",
            NarrowKind::Map,
            &[d1],
            p.examples / 3,
            bytes(2.60 * ef),
            test_split,
        );
        let d3 = b.narrow(
            "trainRaw",
            NarrowKind::Map,
            &[d1],
            p.examples,
            bytes(5.96 * ef),
            train_raw,
        );
        let d4 = b.narrow(
            "trainMeta",
            NarrowKind::Map,
            &[d3],
            p.examples,
            bytes(5.90 * ef),
            train_meta,
        );
        let d5 = b.narrow(
            "treePoints",
            NarrowKind::Map,
            &[d4],
            p.examples,
            bytes(5.90 * ef),
            tree_points,
        );

        // ids 6..=10: the five-step treePoints statistics chain (one job).
        let mut stat = b.narrow(
            "tpStats0",
            NarrowKind::Map,
            &[d5],
            p.examples,
            bytes(8.0 * f),
            tiny,
        ); // 6
        for k in 1..4 {
            stat = b.narrow(
                format_args!("tpStats{k}"),
                NarrowKind::Map,
                &[stat],
                p.examples,
                bytes(8.0 * f),
                tiny,
            ); // 7..9
        }
        let stat_agg = b.wide_with_partitions(
            "tpStatsAgg",
            WideKind::TreeAggregate,
            &[stat],
            1,
            bytes(8.0 * f),
            1,
            agg,
        ); // 10

        let d11 = b.narrow(
            "baggedPrep",
            NarrowKind::Map,
            &[d5],
            p.examples,
            bytes(4.30 * ef),
            bag_prep,
        ); // 11
        let d12 = b.narrow(
            "baggedInput",
            NarrowKind::Map,
            &[d11],
            p.examples,
            bytes(5.50 * ef),
            bagging,
        ); // 12

        b.job("treeAggregate", stat_agg);
        b.job("count", d12); // direct action on the bagged input

        // Trees: the first runs a 4-dataset pipeline, the rest 3 each.
        for t in 0..trees {
            let stats = b.narrow(
                format_args!("tree{t}.nodeStats"),
                NarrowKind::Map,
                &[d12],
                p.examples,
                bytes(8.0 * f),
                node_scan,
            );
            let splits = b.wide_with_partitions(
                format_args!("tree{t}.bestSplits"),
                WideKind::TreeAggregate,
                &[stats],
                1,
                bytes(8.0 * f),
                1,
                agg,
            );
            b.job("treeAggregate", splits);
            if t == 0 {
                let upd = b.narrow(
                    format_args!("tree{t}.update"),
                    NarrowKind::Map,
                    &[d12],
                    p.examples,
                    bytes(8.0 * e),
                    node_scan,
                );
                let model = b.wide_with_partitions(
                    format_args!("tree{t}.model"),
                    WideKind::TreeAggregate,
                    &[upd],
                    1,
                    bytes(8.0 * f),
                    1,
                    agg,
                );
                b.job("treeAggregate", model);
            } else {
                let model = b.wide_with_partitions(
                    format_args!("tree{t}.model"),
                    WideKind::TreeAggregate,
                    &[d12],
                    1,
                    bytes(8.0 * f),
                    1,
                    agg,
                );
                b.job("treeAggregate", model);
            }
        }

        // Evaluation over the test split: two jobs, so D2 is intermediate.
        let preds = b.narrow(
            "predictions",
            NarrowKind::Map,
            &[d2],
            p.examples / 3,
            bytes(8.0 * e),
            tiny,
        );
        let pred_view = b.narrow("predReport", NarrowKind::Map, &[preds], 1, 8, tiny);
        b.job("collect", pred_view);
        let accuracy = b.narrow("accuracy", NarrowKind::Map, &[d2], 1, 8, tiny);
        b.job("collect", accuracy);

        b.default_schedule(Schedule::persist_all([d12]));
        b.build().expect("RFC plan is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{DatasetId, LineageAnalysis};

    #[test]
    fn table1_dataset_counts() {
        let app = RandomForest.build(&RandomForest.paper_params());
        assert_eq!(app.dataset_count(), 26, "Table 1: RFC has 26 datasets");
        let la = LineageAnalysis::new(&app);
        let inter = la.intermediates();
        let expect: Vec<DatasetId> = [0u32, 1, 2, 3, 4, 5, 11, 12].map(DatasetId).to_vec();
        assert_eq!(inter, expect, "Table 1: 8 intermediates");
    }

    #[test]
    fn table1_input_size() {
        let app = RandomForest.build(&RandomForest.paper_params());
        let gb = app.input_bytes() as f64 / 1e9;
        assert!((gb - 29.8).abs() < 0.3, "input {gb} GB");
    }

    #[test]
    fn default_schedule_is_hibench() {
        let app = RandomForest.build(&RandomForest.paper_params());
        assert_eq!(app.default_schedule().notation(), "p(12)");
    }

    #[test]
    fn bagged_input_reused_by_tree_jobs_and_count() {
        let app = RandomForest.build(&RandomForest.paper_params());
        let la = LineageAnalysis::new(&app);
        let n = la.computation_counts();
        assert_eq!(n[12], 7, "count action + 3 trees × 2 jobs");
        assert_eq!(n[11], 7, "baggedPrep rides along");
        assert_eq!(n[2], 2, "test split reused by both evaluation jobs");
        assert_eq!(n[5], 8, "stats job + everything through bagging");
    }

    #[test]
    fn bagged_prep_is_single_child_parent_of_bagged() {
        let app = RandomForest.build(&RandomForest.paper_params());
        let la = LineageAnalysis::new(&app);
        assert_eq!(la.children_of(DatasetId(11)), &[DatasetId(12)]);
    }
}
