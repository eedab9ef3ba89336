//! Logistic Regression (LOR) — the paper's running example (Figure 4).
//!
//! Structure (dataset ids match the paper's notation):
//!
//! * `D0` — text input read from DFS;
//! * `D1` — parsed lines (≈ input-sized);
//! * `D2` — labeled points (≈ 0.60 × input, the dataset HiBench's
//!   developers cache);
//! * ids 3–10 — pre-training jobs: example count, feature check, data
//!   statistics, initial-weights computation, and the final-summary chain;
//! * `D11` — the per-iteration feature dataset (child of `D2`; HiBench
//!   also caches it);
//! * per iteration: margins → losses → gradient (treeAggregate) →
//!   convergence check; the last iteration collects the model directly.
//!
//! With 50 iterations the plan has exactly **210 datasets**, of which
//! exactly `{D0, D1, D2, D11}` are intermediate (computed more than once)
//! — Table 1's row. The HiBench default schedule is `p(2) p(11)`
//! (Table 2).

use cluster_sim::{NoiseParams, SimParams};
use dagflow::{Application, ComputeCost, Lineages, NarrowKind, Schedule, SourceFormat, WideKind};

use crate::common::{bytes, WorkloadParams};
use crate::Workload;

/// The LOR workload generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogisticRegression;

impl Workload for LogisticRegression {
    fn name(&self) -> &'static str {
        "LOR"
    }

    fn paper_params(&self) -> WorkloadParams {
        WorkloadParams::auto(70_000, 50_000, 50)
    }

    fn sim_params(&self) -> SimParams {
        SimParams {
            exec_mem_per_task_factor: 0.12,
            noise: NoiseParams::default(),
            ..SimParams::default()
        }
    }

    fn sample_params(&self) -> WorkloadParams {
        // A tenth of the paper scale: large enough that the per-byte costs
        // of D2 and D11 dominate the per-task fixed overheads, keeping the
        // measured ET ratios (≈ 2700 : 10 : 14 : 40 in §5.1) intact.
        WorkloadParams::auto(7_000, 5_000, 3)
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

        // Per-task compute-cost constants, calibrated so the measured
        // transformation times keep the §5.1 example's proportions
        // (ET0:ET1:ET2:ET11 ≈ 2700:10:14:40 at any scale).
        let parse = ComputeCost::new(0.000_5, 0.0, 2.9e-11);
        let to_points = ComputeCost::new(0.000_5, 0.0, 3.8e-11);
        let to_features = ComputeCost::new(0.000_5, 0.0, 2.4e-10);
        let tiny = ComputeCost::new(0.001, 0.0, 1.0e-11);
        let margin_scan = ComputeCost::new(0.004, 0.0, 2.5e-9);
        let agg = ComputeCost::new(0.004, 0.0, 1.0e-9);

        let mut b = lineages.builder("lor");
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
            bytes(4.4915 * ef),
            to_points,
        );

        // ids 3..=10: pre-training and final-summary chains (each used once).
        let v1 = b.narrow("numExamples", NarrowKind::Map, &[d1], 1, 8, tiny); // 3
        let v2 = b.narrow("numFeatures", NarrowKind::Map, &[d2], 1, 8, tiny); // 4
        let s1 = b.narrow(
            "colStats",
            NarrowKind::Map,
            &[d2],
            p.examples,
            bytes(16.0 * f),
            tiny,
        ); // 5
        let s2 = b.wide_with_partitions(
            "colStatsAgg",
            WideKind::TreeAggregate,
            &[s1],
            1,
            bytes(16.0 * f),
            1,
            agg,
        ); // 6
        let w1 = b.narrow(
            "weightSeed",
            NarrowKind::Map,
            &[d2],
            p.examples,
            bytes(8.0 * f),
            tiny,
        ); // 7
        let w2 = b.wide_with_partitions(
            "weightInit",
            WideKind::TreeAggregate,
            &[w1],
            1,
            bytes(8.0 * f),
            1,
            agg,
        ); // 8
        let f1 = b.narrow(
            "summary",
            NarrowKind::Map,
            &[d1],
            p.examples,
            bytes(8.0 * e),
            tiny,
        ); // 9
        let f2 = b.wide_with_partitions(
            "summaryAgg",
            WideKind::TreeAggregate,
            &[f1],
            1,
            1024,
            1,
            agg,
        ); // 10

        let d11 = b.narrow(
            "features",
            NarrowKind::Map,
            &[d2],
            p.examples,
            bytes(4.4929 * ef),
            to_features,
        ); // 11

        // Pre-training jobs, in execution order.
        b.job("count", v1);
        b.job("first", v2);
        b.job("treeAggregate", s2);
        b.job("treeAggregate", w2);

        // Iterations: full 4-dataset chains except the last (2 datasets),
        // which collects the model — 4·(iters−1) + 2 datasets.
        for i in 0..iters.saturating_sub(1) {
            let margin = b.narrow(
                format_args!("margins[{i}]"),
                NarrowKind::Map,
                &[d11],
                p.examples,
                bytes(16.0 * e),
                margin_scan,
            );
            let loss = b.narrow(
                format_args!("loss[{i}]"),
                NarrowKind::Map,
                &[margin],
                p.examples,
                bytes(8.0 * e),
                tiny,
            );
            let grad = b.wide_with_partitions(
                format_args!("gradient[{i}]"),
                WideKind::TreeAggregate,
                &[loss],
                1,
                bytes(8.0 * f),
                1,
                agg,
            );
            let conv = b.narrow(
                format_args!("converged[{i}]"),
                NarrowKind::Map,
                &[grad],
                1,
                8,
                tiny,
            );
            b.job("treeAggregate", conv);
        }
        let margin = b.narrow(
            "margins[last]",
            NarrowKind::Map,
            &[d11],
            p.examples,
            bytes(16.0 * e),
            margin_scan,
        );
        let model = b.wide_with_partitions(
            "model",
            WideKind::TreeAggregate,
            &[margin],
            1,
            bytes(8.0 * f),
            1,
            agg,
        );
        b.job("collect", model);

        // Final summary job (runs last, keeps D1 alive beyond D11's uses —
        // the reason Juggler cannot unpersist D1 in the paper's example).
        b.job("collect", f2);

        b.default_schedule(Schedule::persist_all([d2, d11]));
        b.build().expect("LOR plan is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{DatasetId, LineageAnalysis};

    #[test]
    fn table1_dataset_counts() {
        let app = LogisticRegression.build(&LogisticRegression.paper_params());
        assert_eq!(app.dataset_count(), 210, "Table 1: LOR has 210 datasets");
        let la = LineageAnalysis::new(&app);
        let inter = la.intermediates();
        assert_eq!(
            inter,
            vec![DatasetId(0), DatasetId(1), DatasetId(2), DatasetId(11)],
            "Table 1: 4 intermediate datasets"
        );
    }

    #[test]
    fn table1_input_size() {
        let app = LogisticRegression.build(&LogisticRegression.paper_params());
        let gb = app.input_bytes() as f64 / 1e9;
        assert!((gb - 26.1).abs() < 0.3, "input {gb} GB");
    }

    #[test]
    fn default_schedule_is_hibench() {
        let app = LogisticRegression.build(&LogisticRegression.paper_params());
        assert_eq!(app.default_schedule().notation(), "p(2) p(11)");
    }

    #[test]
    fn computation_counts_scale_with_iterations() {
        let p = WorkloadParams::auto(2_000, 1_000, 5);
        let app = LogisticRegression.build(&p);
        let la = LineageAnalysis::new(&app);
        let n = la.computation_counts();
        assert_eq!(n[1], 5 + 5, "n(D1) = iterations + 5 other jobs");
        assert_eq!(n[2], 5 + 3, "n(D2) = iterations + 3 pre-jobs");
        assert_eq!(n[11], 5, "n(D11) = iterations");
    }

    #[test]
    fn size_laws_follow_paper_families() {
        // |D2| must follow θ·e·f (the first §5.2 family) and be ~60 % of
        // the input, like 45.961/76.351 in the example.
        let p1 = WorkloadParams::auto(10_000, 5_000, 3);
        let p2 = WorkloadParams::auto(20_000, 10_000, 3);
        let a1 = LogisticRegression.build(&p1);
        let a2 = LogisticRegression.build(&p2);
        let ratio = a2.dataset(DatasetId(2)).bytes as f64 / a1.dataset(DatasetId(2)).bytes as f64;
        assert!((ratio - 4.0).abs() < 0.01, "θ·e·f scaling, got {ratio}");
        let frac = a1.dataset(DatasetId(2)).bytes as f64 / a1.dataset(DatasetId(1)).bytes as f64;
        assert!((frac - 0.602).abs() < 0.01, "points/parsed ratio {frac}");
    }

    #[test]
    fn d11_reads_d2_directly() {
        let app = LogisticRegression.build(&LogisticRegression.paper_params());
        assert_eq!(app.dataset(DatasetId(11)).parents, vec![DatasetId(2)]);
        assert_eq!(app.dataset(DatasetId(11)).name, "features");
    }
}
