//! Micro-batch stream — a long sequence of small per-batch jobs against a
//! shared lookup state.
//!
//! Not part of the paper's evaluation set; it exists (with
//! [`crate::sqljoin::SqlStarJoin`]) to exercise Juggler on DAG shapes
//! beyond iterative ML: Structured-Streaming-style micro-batching, where
//! every batch parses a fresh slice of events and joins it against the
//! same state/lookup table. The state table is tiny but re-pulled once
//! per batch, which makes it the highest-BCR hotspot by a wide margin —
//! the streaming analogue of caching a broadcast dimension table.
//!
//! Structure: a state source → parsed `state` (the cacheable hotspot);
//! per batch, an event source → parsed events → 2-parent `Join` with the
//! state → `reduceByKey` window aggregate → tiny collect job.
//! `iterations` is the number of micro-batches; each batch carries
//! `1/iterations` of the total event volume.

use cluster_sim::{NoiseParams, SimParams};
use dagflow::{Application, ComputeCost, Lineages, NarrowKind, Schedule, SourceFormat, WideKind};

use crate::common::{bytes, WorkloadParams};
use crate::Workload;

/// The micro-batch streaming workload generator. `examples` is the total
/// event count across the run, `features` the state-table cardinality,
/// `iterations` the number of micro-batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct MicroBatchStream;

impl Workload for MicroBatchStream {
    fn name(&self) -> &'static str {
        "STREAM"
    }

    fn paper_params(&self) -> WorkloadParams {
        WorkloadParams::auto(40_000, 10_000, 12)
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
        let batches = p.iterations.max(1) as usize;
        let per_batch = 1.0 / batches as f64;

        let parse = ComputeCost::new(0.002, 0.0, 1.5e-10);
        let tiny = ComputeCost::new(0.001, 0.0, 1.0e-11);
        let join = ComputeCost::new(0.004, 0.0, 6.0e-10);
        let agg = ComputeCost::new(0.004, 0.0, 1.0e-9);

        let mut b = lineages.builder("stream");
        let state_src = b.source(
            "stateSource",
            SourceFormat::DistributedFs,
            p.features,
            bytes(64.0 * f),
            8,
        );
        let state = b.narrow(
            "state",
            NarrowKind::Map,
            &[state_src],
            p.features,
            bytes(48.0 * f),
            parse,
        );
        for i in 0..batches {
            let events = b.source(
                format_args!("events[{i}]"),
                SourceFormat::DistributedFs,
                ((p.examples as f64 * per_batch) as u64).max(1),
                bytes(p.input_bytes() as f64 * per_batch),
                parts,
            );
            let parsed = b.narrow(
                format_args!("parsed[{i}]"),
                NarrowKind::Map,
                &[events],
                ((p.examples as f64 * per_batch) as u64).max(1),
                bytes(8.0 * ef * per_batch),
                parse,
            );
            let enriched = b.wide(
                format_args!("enriched[{i}]"),
                WideKind::Join,
                &[parsed, state],
                ((p.examples as f64 * per_batch) as u64).max(1),
                bytes(10.0 * ef * per_batch),
                join,
            );
            let window = b.wide(
                format_args!("window[{i}]"),
                WideKind::ReduceByKey,
                &[enriched],
                p.features,
                bytes(16.0 * f),
                agg,
            );
            let out = b.narrow(
                format_args!("out[{i}]"),
                NarrowKind::Map,
                &[window],
                1,
                8,
                tiny,
            );
            b.job("collect", out);
        }

        // The developer default caches the lookup state — the streaming
        // counterpart of persisting a broadcast dimension table.
        b.default_schedule(Schedule::persist_all([state]));
        b.build()
            .expect("micro-batch stream plan is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{DatasetId, LineageAnalysis};

    const STATE: DatasetId = DatasetId(1);

    #[test]
    fn structure_is_one_job_per_batch_over_shared_state() {
        let app = MicroBatchStream.build(&WorkloadParams::auto(4_000, 1_000, 5));
        assert_eq!(app.jobs().len(), 5, "one collect job per micro-batch");
        // Every batch's join re-pulls the same state table.
        let la = LineageAnalysis::new(&app);
        assert_eq!(la.computation_counts()[STATE.index()], 5);
        // Only the state chain is reused across jobs; the per-batch
        // datasets are batch-local.
        assert_eq!(la.intermediates(), vec![DatasetId(0), STATE]);
    }

    #[test]
    fn batches_join_events_with_state() {
        let app = MicroBatchStream.build(&WorkloadParams::auto(4_000, 1_000, 3));
        let enriched = app.dataset(DatasetId(4));
        assert_eq!(enriched.name, "enriched[0]");
        assert_eq!(enriched.parents, vec![DatasetId(3), STATE]);
    }

    #[test]
    fn validates_under_the_workload_harness() {
        let issues = crate::validate::validate_workload(&MicroBatchStream);
        assert!(issues.is_empty(), "{issues:?}");
    }
}
