//! Support Vector Machine (SVM) — the application behind the paper's
//! Figure 2 (areas A/B/C).
//!
//! Structure (ids match Table 2's notation):
//!
//! * `D0` input text → `D1` parsed → `D2` labeled points (the
//!   developer-cached dataset; 4.462 bytes/cell reproduces the paper's
//!   35.7 GB cached dataset at Figure 2's 59.5 GB input scale) →
//!   `D3`–`D5` (validation / normalization maps) → `D6` training set that
//!   every iteration reads;
//! * `D7`/`D8` — a tiny metadata side input and its parsed form, reused
//!   by two configuration jobs (the remaining two intermediates of
//!   Table 1's nine; their 1 kB recompute chains never become hotspots);
//! * 100 iterations × 5 datasets (margins → hinge → gradient → step →
//!   convergence);
//! * post-training: an AUC pipeline, a metrics pipeline, and a
//!   training-data summary job that reads `D1` directly — the use that
//!   keeps `p(1) p(6)` free of an unpersist (Table 2).
//!
//! Totals: **524 datasets, 9 intermediates** (Table 1); HiBench default
//! `p(2)`; Juggler's schedules `p(2)` and `p(1) p(6)`.

use cluster_sim::{NoiseParams, SimParams};
use dagflow::{Application, ComputeCost, Lineages, NarrowKind, Schedule, SourceFormat, WideKind};

use crate::common::{bytes, WorkloadParams};
use crate::Workload;

/// The SVM workload generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SupportVectorMachine;

impl Workload for SupportVectorMachine {
    fn name(&self) -> &'static str {
        "SVM"
    }

    fn paper_params(&self) -> WorkloadParams {
        WorkloadParams::auto(40_000, 80_000, 100)
    }

    fn sim_params(&self) -> SimParams {
        SimParams {
            // §2.2: SVM uses ~20 % of M for execution, leaving 79.8 % (the
            // 5.6 GB/machine of the Figure 2 analysis) for caching.
            exec_mem_per_task_factor: 0.202,
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
        let iters = p.iterations.max(1) as usize;

        // Cost constants; the chain D3–D6 must stay ≪ the input read so
        // Juggler's second schedule starts from D1 rather than extending
        // D2 (see the BCR analysis in DESIGN.md).
        let parse = ComputeCost::new(0.002, 0.0, 4.0e-8); // text-to-vector parse at ~25 MB/s: recomputing an evicted partition is ~30x a cached read
        let to_points = ComputeCost::new(0.000_5, 0.0, 3.8e-11);
        let mid_chain = ComputeCost::new(0.001, 0.0, 1.5e-11);
        let tiny = ComputeCost::new(0.001, 0.0, 1.0e-11);
        let margin_scan = ComputeCost::new(0.004, 0.0, 2.5e-9);
        let agg = ComputeCost::new(0.004, 0.0, 1.0e-9);

        let mut b = lineages.builder("svm");
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
            bytes(7.4485 * ef),
            parse,
        );
        let d2 = b.narrow(
            "points",
            NarrowKind::Map,
            &[d1],
            p.examples,
            bytes(4.462 * ef),
            to_points,
        );
        let d3 = b.narrow(
            "validated",
            NarrowKind::Map,
            &[d2],
            p.examples,
            bytes(4.465 * ef),
            mid_chain,
        );
        let d4 = b.narrow(
            "normalized",
            NarrowKind::Map,
            &[d3],
            p.examples,
            bytes(4.468 * ef),
            mid_chain,
        );
        let d5 = b.narrow(
            "shifted",
            NarrowKind::Map,
            &[d4],
            p.examples,
            bytes(4.471 * ef),
            mid_chain,
        );
        let d6 = b.narrow(
            "training",
            NarrowKind::Map,
            &[d5],
            p.examples,
            bytes(4.476 * ef),
            mid_chain,
        );
        // A tiny metadata side input whose parsed form two configuration
        // jobs reuse — the remaining two intermediates of Table 1's nine.
        // Their recompute chains are a 1 kB read, so they never become
        // hotspots.
        let meta = b.source("paramsFile", SourceFormat::DistributedFs, 32, 1024, 1); // 7
        let meta_parsed = b.narrow("paramsParsed", NarrowKind::Map, &[meta], 32, 1024, tiny); // 8
        let v1 = b.narrow("numExamples", NarrowKind::Map, &[d1], 1, 8, tiny); // 9
        let v2 = b.narrow("numFeatures", NarrowKind::Map, &[d2], 1, 8, tiny); // 10
        let mv1 = b.narrow("regParam", NarrowKind::Map, &[meta_parsed], 1, 8, tiny); // 11
        let mv2 = b.narrow("stepConfig", NarrowKind::Map, &[meta_parsed], 1, 8, tiny); // 12

        b.job("collect", mv1);
        b.job("collect", mv2);
        b.job("count", v1);
        b.job("first", v2);

        // 100 iterations × 5 datasets.
        for i in 0..iters {
            let margin = b.narrow(
                format_args!("margins[{i}]"),
                NarrowKind::Map,
                &[d6],
                p.examples,
                bytes(16.0 * e),
                margin_scan,
            );
            let hinge = b.narrow(
                format_args!("hinge[{i}]"),
                NarrowKind::Map,
                &[margin],
                p.examples,
                bytes(8.0 * e),
                tiny,
            );
            let grad = b.wide_with_partitions(
                format_args!("gradient[{i}]"),
                WideKind::TreeAggregate,
                &[hinge],
                1,
                bytes(8.0 * f),
                1,
                agg,
            );
            let step = b.narrow(
                format_args!("step[{i}]"),
                NarrowKind::Map,
                &[grad],
                1,
                bytes(8.0 * f),
                tiny,
            );
            let conv = b.narrow(
                format_args!("converged[{i}]"),
                NarrowKind::Map,
                &[step],
                1,
                8,
                tiny,
            );
            b.job("treeAggregate", conv);
        }

        // Post-training job A: AUC pipeline straight off the training set
        // (5 datasets, used once).
        let scores = b.narrow(
            "scoreAndLabels",
            NarrowKind::Map,
            &[d6],
            p.examples,
            bytes(16.0 * e),
            tiny,
        );
        let sorted = b.wide(
            "scoresSorted",
            WideKind::SortByKey,
            &[scores],
            p.examples,
            bytes(16.0 * e),
            tiny,
        );
        let pos = b.narrow(
            "positives",
            NarrowKind::Filter,
            &[sorted],
            p.examples / 2,
            bytes(8.0 * e),
            tiny,
        );
        let sums =
            b.wide_with_partitions("rankSums", WideKind::TreeAggregate, &[pos], 1, 1024, 1, agg);
        let auc_view = b.narrow("aucReport", NarrowKind::Map, &[sums], 1, 8, tiny);
        b.job("collect", auc_view);

        // Post-training job B: confusion/metrics pipeline (4 datasets, own
        // lineage — nothing shared with job A).
        let pairs = b.narrow(
            "outcomePairs",
            NarrowKind::Map,
            &[d6],
            p.examples,
            bytes(8.0 * e),
            tiny,
        );
        let counts = b.wide_with_partitions(
            "outcomeCounts",
            WideKind::ReduceByKey,
            &[pairs],
            4,
            64,
            1,
            agg,
        );
        let metrics = b.narrow("metrics", NarrowKind::Map, &[counts], 4, 64, tiny);
        let metrics_view = b.narrow("metricsReport", NarrowKind::Map, &[metrics], 1, 8, tiny);
        b.job("collect", metrics_view);

        // Post-training job C: training-data summary straight off D1.
        let sum1 = b.narrow(
            "dataSummary",
            NarrowKind::Map,
            &[d1],
            p.examples,
            bytes(8.0 * e),
            tiny,
        );
        let sum2 = b.wide_with_partitions(
            "dataSummaryAgg",
            WideKind::TreeAggregate,
            &[sum1],
            1,
            1024,
            1,
            agg,
        );
        b.job("collect", sum2);

        b.default_schedule(Schedule::persist_all([d2]));
        b.build().expect("SVM plan is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{DatasetId, LineageAnalysis};

    #[test]
    fn table1_dataset_counts() {
        let app = SupportVectorMachine.build(&SupportVectorMachine.paper_params());
        assert_eq!(app.dataset_count(), 524, "Table 1: SVM has 524 datasets");
        let la = LineageAnalysis::new(&app);
        let inter = la.intermediates();
        let expect: Vec<DatasetId> = (0..9).map(DatasetId).collect();
        assert_eq!(inter, expect, "Table 1: 9 intermediate datasets");
    }

    #[test]
    fn table1_input_size() {
        let app = SupportVectorMachine.build(&SupportVectorMachine.paper_params());
        let gb = app.input_bytes() as f64 / 1e9;
        assert!((gb - 23.8).abs() < 0.3, "input {gb} GB");
    }

    #[test]
    fn default_schedule_is_hibench() {
        let app = SupportVectorMachine.build(&SupportVectorMachine.paper_params());
        assert_eq!(app.default_schedule().notation(), "p(2)");
    }

    /// Figure 2's setting: at a 59.5 GB input (e·f = 8×10⁹ cells), the
    /// developer-cached dataset D2 is 35.7 GB.
    #[test]
    fn figure2_cached_dataset_size() {
        let p = WorkloadParams::auto(100_000, 80_000, 100);
        let app = SupportVectorMachine.build(&p);
        let input_gb = app.input_bytes() as f64 / 1e9;
        assert!((input_gb - 59.6).abs() < 0.5, "input {input_gb}");
        let cached_gb = app.dataset(DatasetId(2)).bytes as f64 / 1e9;
        assert!((cached_gb - 35.7).abs() < 0.2, "cached {cached_gb}");
    }

    #[test]
    fn computation_counts_match_structure() {
        let p = WorkloadParams::auto(2_000, 1_000, 3);
        let app = SupportVectorMachine.build(&p);
        let la = LineageAnalysis::new(&app);
        let n = la.computation_counts();
        assert_eq!(n[7], 2, "metadata side input read by both config jobs");
        assert_eq!(n[8], 2);
        assert_eq!(
            n[1] as u32,
            3 + 5,
            "n(D1) = iters + count + eval×2 + summary"
        );
        assert_eq!(n[6] as u32, 3 + 2, "n(D6) = iters + eval×2");
    }
}
