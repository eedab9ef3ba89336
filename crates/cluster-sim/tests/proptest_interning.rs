//! Property-based tests of the dense dataset/block interning.
//!
//! The block store keys its hot path by dense indices computed from a
//! [`BlockLayout`] prefix sum instead of hashing `(DatasetId, partition)`
//! map keys. These properties pin that the interning is a bijection (the
//! round-trip is lossless for every addressable block) and that it is
//! semantically invisible: a run through a freshly interned engine, a
//! rebuilt engine, and a shared-prep engine all produce the same
//! `RunReport::digest()` — the digest a map-keyed store would produce,
//! since the mapping block → (dataset, partition) is exact.

use proptest::prelude::*;
use std::sync::Arc;

use cluster_sim::{BlockLayout, ClusterConfig, Engine, MachineSpec, RunOptions, SimParams};
use dagflow::{
    AppBuilder, Application, ComputeCost, DatasetId, NarrowKind, Schedule, SourceFormat, WideKind,
};

#[derive(Debug, Clone)]
struct Scenario {
    iterations: usize,
    partitions: u32,
    megabytes: u64,
    machines: u32,
    cache_core: bool,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        1usize..5,
        2u32..10,
        1u64..300,
        1u32..5,
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            |(iterations, partitions, megabytes, machines, cache_core, seed)| Scenario {
                iterations,
                partitions,
                megabytes,
                machines,
                cache_core,
                seed,
            },
        )
}

fn build_app(s: &Scenario) -> Application {
    let bytes = s.megabytes * 1_000_000;
    let mut b = AppBuilder::new("intern-prop");
    let src = b.source(
        "in",
        SourceFormat::DistributedFs,
        10_000,
        bytes,
        s.partitions,
    );
    let core = b.narrow(
        "core",
        NarrowKind::Map,
        &[src],
        10_000,
        bytes,
        ComputeCost::new(0.001, 0.0, 1e-9),
    );
    for i in 0..s.iterations {
        let m = b.narrow(
            format!("m{i}"),
            NarrowKind::Map,
            &[core],
            10_000,
            16 * 10_000,
            ComputeCost::new(0.001, 0.0, 1e-9),
        );
        let g = b.wide_with_partitions(
            format!("g{i}"),
            WideKind::TreeAggregate,
            &[m],
            1,
            4096,
            1,
            ComputeCost::new(0.001, 0.0, 1e-9),
        );
        b.job("agg", g);
    }
    b.build().unwrap()
}

fn sim(seed: u64) -> SimParams {
    SimParams {
        seed,
        ..SimParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The interning is a bijection: every (dataset, partition) pair maps
    /// to a distinct dense block index that maps straight back, the dense
    /// range is exactly `0..block_count`, and out-of-range partitions are
    /// rejected rather than aliased onto a neighbouring dataset's blocks.
    /// Zero-partition datasets — every dataset a run does not persist —
    /// own no slots and never alias their neighbours' blocks.
    #[test]
    fn block_interning_round_trips(partitions in prop::collection::vec(0u32..12, 1..8)) {
        let layout = BlockLayout::from_partitions(partitions.iter().copied());
        prop_assert_eq!(layout.dataset_count(), partitions.len());
        let expected_blocks: u32 = partitions.iter().sum();
        prop_assert_eq!(layout.block_count(), expected_blocks as usize);

        let mut seen = vec![false; layout.block_count()];
        for (d, &parts) in partitions.iter().enumerate() {
            let d = DatasetId(d as u32);
            prop_assert_eq!(layout.partitions(d), parts);
            for p in 0..parts {
                let block = layout.block_of(d, p).expect("in-range block interns");
                prop_assert!(block < layout.block_count());
                prop_assert!(!seen[block], "block index {} assigned twice", block);
                seen[block] = true;
                // Round trip: dense index back to the map key.
                prop_assert_eq!(layout.dataset_of(block), d);
                prop_assert_eq!(layout.partition_of(block), p);
            }
            // One past the end must not alias into the next dataset.
            prop_assert_eq!(layout.block_of(d, parts), None);
        }
        prop_assert!(seen.iter().all(|&s| s), "dense range has no holes");
    }

    /// Interning is invisible to results: a run on a freshly built engine,
    /// a second independently interned engine, and an engine sharing the
    /// first one's prep (the training fan-out shape) all report the same
    /// digest — covering report fields, per-dataset cache stats keyed by
    /// the round-tripped `DatasetId`s, and event ordering.
    #[test]
    fn interned_runs_digest_like_map_keyed_runs(s in scenario()) {
        let app = build_app(&s);
        let schedule = if s.cache_core {
            Schedule::persist_all([DatasetId(1)])
        } else {
            Schedule::empty()
        };
        let cluster = ClusterConfig::new(s.machines, MachineSpec::private_cluster());

        let fresh = Engine::new(&app, cluster, sim(s.seed));
        let a = fresh.run(&schedule, RunOptions::default()).unwrap();

        // Independent interning pass over the same app.
        let rebuilt = Engine::new(&app, cluster, sim(s.seed));
        let b = rebuilt.run(&schedule, RunOptions::default()).unwrap();

        // Shared prep + pooled scratch, as stage-4 grid cells run.
        let shared = Engine::with_prep(&app, cluster, sim(s.seed), Arc::clone(fresh.prep()));
        let c = shared.run(&schedule, RunOptions::default()).unwrap();

        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.digest(), c.digest());
        // The digest covers per-dataset stats; assert the keys directly
        // too so a digest change elsewhere cannot mask an interning bug.
        let mut ka: Vec<_> = a.cache.per_dataset.keys().copied().collect();
        let mut kc: Vec<_> = c.cache.per_dataset.keys().copied().collect();
        ka.sort_unstable();
        kc.sort_unstable();
        prop_assert_eq!(ka, kc);
    }
}
