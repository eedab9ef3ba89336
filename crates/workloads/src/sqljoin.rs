//! SQL star join — a multi-stage analytical-query DAG family.
//!
//! Not part of the paper's evaluation set; it exists (with
//! [`crate::stream::MicroBatchStream`]) to exercise Juggler on DAG shapes
//! beyond iterative ML: a fact table joined against two dimension tables
//! (the wide `Join` stages give the DAG genuine fan-in), then a family of
//! rollup queries over the joined star table. Every query re-pulls the
//! join chain, so the star table is the natural caching hotspot — the
//! SQL analogue of the paper's reused `points` dataset.
//!
//! Structure: fact + two dimension sources → parsed fact (`8·e·f` bytes)
//! and parsed dimensions → `factXcustomers` (2-parent join) → `star`
//! (second join) → per query, a `reduceByKey` rollup and a tiny collect.
//! `iterations` is the number of queries.

use cluster_sim::{NoiseParams, SimParams};
use dagflow::{Application, ComputeCost, Lineages, NarrowKind, Schedule, SourceFormat, WideKind};

use crate::common::{bytes, WorkloadParams};
use crate::Workload;

/// The SQL star-join workload generator. `examples` is the fact-table row
/// count, `features` the dimension cardinality, `iterations` the number
/// of rollup queries run over the joined table.
#[derive(Debug, Clone, Copy, Default)]
pub struct SqlStarJoin;

impl Workload for SqlStarJoin {
    fn name(&self) -> &'static str {
        "SQLJOIN"
    }

    fn paper_params(&self) -> WorkloadParams {
        WorkloadParams::auto(60_000, 30_000, 8)
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
        let f = p.f();
        let parts = p.partitions;
        let queries = p.iterations.max(1) as usize;

        let parse = ComputeCost::new(0.002, 0.0, 1.5e-10);
        let tiny = ComputeCost::new(0.001, 0.0, 1.0e-11);
        let join = ComputeCost::new(0.004, 0.0, 6.0e-10);
        let agg = ComputeCost::new(0.004, 0.0, 1.0e-9);

        let mut b = lineages.builder("sqljoin");
        let fact = b.source(
            "fact",
            SourceFormat::DistributedFs,
            p.examples,
            p.input_bytes(),
            parts,
        );
        let dim_customers = b.source(
            "dimCustomers",
            SourceFormat::DistributedFs,
            p.features,
            bytes(64.0 * f),
            8,
        );
        let dim_products = b.source(
            "dimProducts",
            SourceFormat::DistributedFs,
            p.features,
            bytes(32.0 * f),
            8,
        );
        let parsed = b.narrow(
            "parsedFact",
            NarrowKind::Map,
            &[fact],
            p.examples,
            bytes(8.0 * ef),
            parse,
        );
        let customers = b.narrow(
            "customers",
            NarrowKind::Map,
            &[dim_customers],
            p.features,
            bytes(48.0 * f),
            tiny,
        );
        let products = b.narrow(
            "products",
            NarrowKind::Map,
            &[dim_products],
            p.features,
            bytes(24.0 * f),
            tiny,
        );
        // The fan-in: each join stage shuffles two parents together.
        let join1 = b.wide(
            "factXcustomers",
            WideKind::Join,
            &[parsed, customers],
            p.examples,
            bytes(10.0 * ef),
            join,
        );
        let star = b.wide(
            "star",
            WideKind::Join,
            &[join1, products],
            p.examples,
            bytes(12.0 * ef),
            join,
        );
        for q in 0..queries {
            let rollup = b.wide(
                format_args!("rollup[{q}]"),
                WideKind::ReduceByKey,
                &[star],
                p.features,
                bytes(16.0 * f),
                agg,
            );
            let top = b.narrow(
                format_args!("top[{q}]"),
                NarrowKind::Map,
                &[rollup],
                1,
                8,
                tiny,
            );
            b.job("collect", top);
        }

        // The developer default caches the fully joined star table — the
        // SQL counterpart of HiBench persisting the parsed points.
        b.default_schedule(Schedule::persist_all([star]));
        b.build().expect("SQL star-join plan is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{DatasetId, LineageAnalysis};

    const STAR: DatasetId = DatasetId(7);

    #[test]
    fn structure_is_a_star_join_with_fan_in() {
        let app = SqlStarJoin.build(&WorkloadParams::auto(2_000, 1_000, 6));
        // Two 2-parent join stages give the DAG its fan-in.
        let join1 = app.dataset(DatasetId(6));
        assert_eq!(join1.name, "factXcustomers");
        assert_eq!(join1.parents.len(), 2);
        let star = app.dataset(STAR);
        assert_eq!(star.name, "star");
        assert_eq!(star.parents.len(), 2);
        // One job per query, each re-pulling the star table.
        assert_eq!(app.jobs().len(), 6);
        let la = LineageAnalysis::new(&app);
        assert_eq!(la.computation_counts()[STAR.index()], 6);
    }

    /// The whole upstream chain is reused by every query: sources, parsed
    /// tables and both joins are all stable intermediates.
    #[test]
    fn join_chain_is_reused() {
        let app = SqlStarJoin.build(&WorkloadParams::auto(2_000, 1_000, 4));
        let la = LineageAnalysis::new(&app);
        assert_eq!(
            la.intermediates(),
            (0..8).map(DatasetId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn validates_under_the_workload_harness() {
        let issues = crate::validate::validate_workload(&SqlStarJoin);
        assert!(issues.is_empty(), "{issues:?}");
    }
}
