//! Computing one task: the pipeline walk.
//!
//! A task materializes partition `p` of its stage's output dataset by
//! recursively materializing parents *within the stage*:
//!
//! * persisted + resident ⇒ cache read (fast; the 97×-cheaper path of the
//!   paper's Figure 2 discussion);
//! * source ⇒ stable-storage read at disk bandwidth;
//! * wide ⇒ shuffle read (network fetch from every machine + reduce
//!   compute);
//! * narrow ⇒ recurse into parents, then apply the operator's compute cost.
//!
//! After computing a persisted dataset's partition the walker tries to
//! cache it, honouring the `u(X) … p(Y)` partition swap of schedules.
//! Like Spark, the walk does not memoize within a task: a dataset reachable
//! via two in-stage paths is computed twice.

use std::collections::HashMap;

use dagflow::{Application, Bytes, ComputeCost, Dataset, DatasetId, OpKind};

use crate::config::{ClusterConfig, SimParams};
use crate::memory::BlockStore;
use crate::report::{PipelineStep, StepKind};

/// Deterministic per-partition size skew: a factor in `[1−s, 1+s]` drawn
/// from a hash of `(dataset, partition)`, so it is stable across runs and
/// cluster configurations. The paper observes partitions up to 2× larger
/// than others (§7.5); `s = 0.33` reproduces that ratio.
#[must_use]
pub fn skew_factor(dataset: DatasetId, partition: u32, skew: f64) -> f64 {
    if skew == 0.0 {
        // 1.0 + 0.0 * (2u − 1) is exactly 1.0 for every finite u, so the
        // fast path is bit-identical to the full computation.
        return 1.0;
    }
    // SplitMix64 over the pair for well-mixed bits.
    let mut z =
        (u64::from(dataset.0) << 32 | u64::from(partition)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = z as f64 / u64::MAX as f64; // [0, 1]
    1.0 + skew * (2.0 * u - 1.0)
}

/// Sizing helper: per-partition bytes and records with skew applied.
///
/// The per-dataset average sizes (`bytes / partitions`) are precomputed at
/// construction — they are partition-independent, and the divisions were a
/// measurable slice of the task walk's per-call cost. The skew factor is
/// applied exactly as before (`average * skew_factor`), so results are
/// bit-identical to the on-the-fly computation.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// Skew amplitude `s`.
    pub skew: f64,
    /// `base_bytes[d]` — average partition bytes of dataset `d`.
    base_bytes: Vec<f64>,
    /// `base_records[d]` — average partition records of dataset `d`.
    base_records: Vec<f64>,
}

impl Sizing {
    /// Precomputes per-dataset average partition sizes for an application.
    #[must_use]
    pub fn new(app: &Application, skew: f64) -> Self {
        Sizing {
            skew,
            base_bytes: app
                .datasets()
                .iter()
                .map(Dataset::partition_bytes)
                .collect(),
            base_records: app
                .datasets()
                .iter()
                .map(Dataset::partition_records)
                .collect(),
        }
    }

    /// Bytes of one partition of a dataset.
    #[inline]
    #[must_use]
    pub fn partition_bytes(&self, d: DatasetId, p: u32) -> f64 {
        self.base_bytes[d.index()] * skew_factor(d, p, self.skew)
    }

    /// Records of one partition of a dataset.
    #[inline]
    #[must_use]
    pub fn partition_records(&self, d: DatasetId, p: u32) -> f64 {
        self.base_records[d.index()] * skew_factor(d, p, self.skew)
    }
}

/// Everything a task walk needs to know about its environment.
pub struct TaskEnv<'a> {
    /// The application plan.
    pub app: &'a Application,
    /// Cluster hardware.
    pub cluster: &'a ClusterConfig,
    /// Simulation parameters.
    pub params: &'a SimParams,
    /// Datasets with an active persist directive.
    pub persisted: &'a [bool],
    /// `swap[y] = x` when the schedule says `u(x)` right before `p(y)`.
    pub swap: &'a HashMap<DatasetId, DatasetId>,
    /// Sizing (skew) helper.
    pub sizing: &'a Sizing,
    /// Whether to record pipeline steps.
    pub trace: bool,
}

/// Outcome of walking one task's pipeline.
#[derive(Debug, Default)]
pub struct TaskWalk {
    /// Total compute duration (seconds, before noise and spill penalty).
    pub duration: f64,
    /// Steps with offsets relative to task start (absolute times are filled
    /// in by the executor).
    pub steps: Vec<PipelineStep>,
}

impl TaskWalk {
    fn push_step(
        &mut self,
        trace: bool,
        dataset: DatasetId,
        kind: StepKind,
        dur: f64,
        out_bytes: f64,
    ) {
        let start = self.duration;
        self.duration += dur;
        if trace {
            self.steps.push(PipelineStep {
                dataset,
                kind,
                start,
                finish: self.duration,
                out_bytes: out_bytes.max(0.0) as Bytes,
            });
        }
    }
}

/// Partition-independent terms of one shuffle-write step, precomputed once
/// per stage instead of once per task. Every field holds exactly the value
/// the per-task computation produced (same expressions, same inputs), so
/// task durations are bit-identical; only the per-task divisions go away.
#[derive(Debug, Clone, Copy)]
pub struct ConsumerCost {
    /// The consuming wide dataset.
    wide: DatasetId,
    /// Bytes this map task writes (`shuffled bytes / map tasks`).
    written: f64,
    /// Seconds spent writing (`written / disk_bandwidth`).
    write_s: f64,
    /// For combining wide transformations: records per map task and the
    /// consumer's compute cost (the map-side combine scan). `None` when
    /// the shuffle does not combine map-side.
    combine: Option<(f64, ComputeCost)>,
}

impl ConsumerCost {
    /// Precomputes the shuffle-write terms for one `(producing stage
    /// output, consuming wide)` pair.
    #[must_use]
    pub fn build(env: &TaskEnv<'_>, output: DatasetId, wide: DatasetId) -> Self {
        let w = env.app.dataset(wide);
        let map_tasks = f64::from(env.app.dataset(output).partitions.max(1));
        let written = shuffled_bytes(env.app, wide) / map_tasks;
        let combine = wide_combines(w.op).then(|| (w.records as f64 / map_tasks, w.compute));
        ConsumerCost {
            wide,
            written,
            write_s: written / env.cluster.spec.disk_bandwidth,
            combine,
        }
    }
}

/// Walks the pipeline for partition `p` of `output` on `machine`, mutating
/// the block store (cache hits, inserts, swaps).
///
/// `shuffle_consumers` carries the precomputed shuffle-write costs of the
/// wide datasets (of the current job) that read this stage's output; a
/// `ShuffleWrite` step is appended for each.
pub fn walk_task(
    env: &TaskEnv<'_>,
    store: &mut BlockStore,
    machine: usize,
    output: DatasetId,
    p: u32,
    shuffle_consumers: &[ConsumerCost],
) -> TaskWalk {
    let mut walk = TaskWalk::default();
    materialize(env, store, machine, output, p, &mut walk);
    for c in shuffle_consumers {
        // Map-side combine work (the scan producing partial aggregates) is
        // part of the Shuffle Write half of a combining wide transformation.
        let combine = match c.combine {
            Some((records, compute)) => {
                let input = env.sizing.partition_bytes(output, p);
                compute.task_seconds(records, input) / env.cluster.spec.cpu_speed
            }
            None => 0.0,
        };
        let dur = combine + c.write_s;
        walk.push_step(env.trace, c.wide, StepKind::ShuffleWrite, dur, c.written);
    }
    walk
}

/// Total bytes crossing the network for a wide dataset's shuffle: combining
/// shuffles move only partial aggregates (≈ the output size per map task);
/// non-combining shuffles move the full parent data.
fn shuffled_bytes(app: &Application, wide: DatasetId) -> f64 {
    let w = app.dataset(wide);
    if wide_combines(w.op) {
        // One partial aggregate per map task.
        let map_tasks: u32 = w
            .parents
            .iter()
            .map(|&p| app.dataset(p).partitions)
            .max()
            .unwrap_or(1);
        w.bytes as f64 * f64::from(map_tasks.max(1)) / f64::from(w.partitions.max(1))
    } else {
        w.parents.iter().map(|&p| app.dataset(p).bytes as f64).sum()
    }
}

fn wide_combines(op: OpKind) -> bool {
    matches!(op, OpKind::Wide(k) if k.combines_map_side())
}

/// Reduce-side cost of materializing one partition of a wide dataset:
/// network fetch of this reducer's share plus merge/compute work.
fn shuffle_read_seconds(env: &TaskEnv<'_>, wide: DatasetId, p: u32) -> f64 {
    let spec = &env.cluster.spec;
    let w = env.app.dataset(wide);
    let fetched = shuffled_bytes(env.app, wide) / f64::from(w.partitions.max(1));
    let fetch = fetched / spec.network_bandwidth
        + f64::from(env.cluster.machines) * env.params.shuffle_connection_s;
    let compute = if wide_combines(w.op) {
        // The scan work was charged map-side; merging partials is cheap.
        (w.compute.fixed_s + w.compute.per_input_byte_s * fetched) / spec.cpu_speed
    } else {
        let records = env.sizing.partition_records(wide, p);
        w.compute.task_seconds(records, fetched) / spec.cpu_speed
    };
    fetch + compute
}

/// Recursively makes partition `p` of `d` available inside the task.
fn materialize(
    env: &TaskEnv<'_>,
    store: &mut BlockStore,
    machine: usize,
    d: DatasetId,
    p: u32,
    walk: &mut TaskWalk,
) {
    let spec = &env.cluster.spec;
    let bytes = env.sizing.partition_bytes(d, p);
    let is_persisted = env.persisted[d.index()];

    if is_persisted {
        // One fused lookup: counts the hit/miss and returns the holder.
        if let Some(holder) = store.read(d, p) {
            // Local read from storage memory, or a remote fetch if locality
            // scheduling could not place us on the holder.
            let bw = if holder == machine {
                spec.cache_read_bandwidth
            } else {
                spec.network_bandwidth
            };
            walk.push_step(env.trace, d, StepKind::CacheRead, bytes / bw, bytes);
            return;
        }
        // Persisted but not resident: the miss is recorded; recompute below.
    }

    let ds = env.app.dataset(d);
    match ds.op {
        OpKind::Source(_) => {
            walk.push_step(
                env.trace,
                d,
                StepKind::SourceRead,
                bytes / spec.disk_bandwidth,
                bytes,
            );
        }
        OpKind::Wide(_) => {
            let dur = shuffle_read_seconds(env, d, p);
            walk.push_step(env.trace, d, StepKind::ShuffleRead, dur, bytes);
        }
        OpKind::Narrow(_) => {
            let mut input_bytes = 0.0;
            for &par in &ds.parents {
                input_bytes += env.sizing.partition_bytes(par, p);
                materialize(env, store, machine, par, p, walk);
            }
            let records = env.sizing.partition_records(d, p);
            let compute = ds.compute.task_seconds(records, input_bytes) / spec.cpu_speed;
            walk.push_step(env.trace, d, StepKind::Compute, compute, bytes);
        }
    }

    if is_persisted && store.try_insert(machine, d, p, bytes.max(1.0) as Bytes) {
        apply_swap(env, store, d, p);
    }
}

/// Applies the `u(X) … p(Y)` partition-by-partition swap: as Y's blocks
/// materialize, X's are dropped so the pair never occupies more than
/// `max(|X|, |Y|)` plus one partition.
fn apply_swap(env: &TaskEnv<'_>, store: &mut BlockStore, y: DatasetId, p: u32) {
    let Some(&x) = env.swap.get(&y) else { return };
    let py = env.app.dataset(y).partitions;
    let px = env.app.dataset(x).partitions;
    let y_resident = store.resident_count(y);
    // Keep at most this many X blocks while Y is y_resident/py done.
    let keep = ((f64::from(px) * (1.0 - f64::from(y_resident) / f64::from(py.max(1))))
        .ceil()
        .max(0.0)) as u32;
    // Prefer dropping the co-indexed partition, then sweep others.
    if store.resident_count(x) > keep && p < px {
        store.drop_partition(x, p);
    }
    let mut q = 0;
    while store.resident_count(x) > keep && q < px {
        store.drop_partition(x, q);
        q += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};

    use crate::config::MachineSpec;
    use crate::memory::BlockLayout;

    fn store_for(app: &Application, cluster: &ClusterConfig) -> BlockStore {
        BlockStore::new(cluster, std::sync::Arc::new(BlockLayout::from_app(app)))
    }

    fn env_fixture() -> (Application, ClusterConfig, SimParams) {
        let mut b = AppBuilder::new("taskfix");
        let src = b.source("in", SourceFormat::DistributedFs, 8_000, 800_000_000, 8);
        let parsed = b.narrow(
            "parsed",
            NarrowKind::Map,
            &[src],
            8_000,
            640_000_000,
            ComputeCost::new(0.05, 1e-5, 2e-9),
        );
        let agg = b.wide_with_partitions(
            "agg",
            WideKind::TreeAggregate,
            &[parsed],
            8,
            1024,
            1,
            ComputeCost::new(0.02, 0.0, 1e-9),
        );
        b.job("collect", agg);
        let app = b.build().unwrap();
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let params = SimParams::default();
        (app, cluster, params)
    }

    use dagflow::Application;

    fn make_env<'a>(
        app: &'a Application,
        cluster: &'a ClusterConfig,
        params: &'a SimParams,
        persisted: &'a [bool],
        swap: &'a HashMap<DatasetId, DatasetId>,
        sizing: &'a Sizing,
    ) -> TaskEnv<'a> {
        TaskEnv {
            app,
            cluster,
            params,
            persisted,
            swap,
            sizing,
            trace: true,
        }
    }

    fn costs(env: &TaskEnv<'_>, output: DatasetId, wides: &[DatasetId]) -> Vec<ConsumerCost> {
        wides
            .iter()
            .map(|&w| ConsumerCost::build(env, output, w))
            .collect()
    }

    #[test]
    fn skew_factor_is_deterministic_and_bounded() {
        let d = DatasetId(5);
        let a = skew_factor(d, 3, 0.33);
        let b = skew_factor(d, 3, 0.33);
        assert_eq!(a, b);
        for p in 0..1000 {
            let f = skew_factor(d, p, 0.33);
            assert!((0.67..=1.33).contains(&f), "{f}");
        }
        // Mean close to 1 so totals are preserved.
        let mean: f64 = (0..10_000).map(|p| skew_factor(d, p, 0.33)).sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.01, "{mean}");
    }

    #[test]
    fn source_then_narrow_pipeline_costs_add_up() {
        let (app, cluster, params) = env_fixture();
        let persisted = vec![false; app.dataset_count()];
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        let cc = costs(&env, DatasetId(1), &[DatasetId(2)]);
        let walk = walk_task(&env, &mut store, 0, DatasetId(1), 0, &cc);
        // Steps: SourceRead(in), Compute(parsed), ShuffleWrite(agg).
        assert_eq!(walk.steps.len(), 3);
        assert_eq!(walk.steps[0].kind, StepKind::SourceRead);
        assert_eq!(walk.steps[1].kind, StepKind::Compute);
        assert_eq!(walk.steps[2].kind, StepKind::ShuffleWrite);
        assert_eq!(walk.steps[2].dataset, DatasetId(2));
        // Durations: 100 MB read at 80 MB/s, parse compute, then the
        // combining shuffle write: map-side combine over the 80 MB parsed
        // partition plus a tiny partial-aggregate write (8 × 1024 B total
        // over 8 map tasks).
        let read = 100_000_000.0 / 80.0e6;
        let compute = 0.05 + 1e-5 * 1000.0 + 2e-9 * 100_000_000.0;
        let combine = 0.02 + 1e-9 * 80_000_000.0; // agg cost over parsed partition
        let write = 1024.0 / 80.0e6;
        assert!(
            (walk.duration - (read + compute + combine + write)).abs() < 1e-9,
            "duration {}",
            walk.duration
        );
        // Steps are contiguous.
        assert_eq!(walk.steps[0].start, 0.0);
        for w in walk.steps.windows(2) {
            assert!((w[0].finish - w[1].start).abs() < 1e-12);
        }
    }

    #[test]
    fn persisted_dataset_gets_cached_then_read() {
        let (app, cluster, params) = env_fixture();
        let mut persisted = vec![false; app.dataset_count()];
        persisted[1] = true; // persist "parsed"
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        let first = walk_task(&env, &mut store, 0, DatasetId(1), 0, &[]);
        assert_eq!(store.resident_count(DatasetId(1)), 1);
        let second = walk_task(&env, &mut store, 0, DatasetId(1), 0, &[]);
        assert_eq!(second.steps.len(), 1);
        assert_eq!(second.steps[0].kind, StepKind::CacheRead);
        assert!(
            second.duration < first.duration / 10.0,
            "cache read {} vs recompute {}",
            second.duration,
            first.duration
        );
        let stats = store.dataset_stats(DatasetId(1)).unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1, "the first walk missed before computing");
    }

    #[test]
    fn remote_cache_read_is_slower_than_local() {
        let (app, cluster, params) = env_fixture();
        let mut persisted = vec![false; app.dataset_count()];
        persisted[1] = true;
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        walk_task(&env, &mut store, 0, DatasetId(1), 0, &[]);
        let local = walk_task(&env, &mut store, 0, DatasetId(1), 0, &[]);
        let remote = walk_task(&env, &mut store, 1, DatasetId(1), 0, &[]);
        assert!(remote.duration > local.duration * 2.0);
    }

    #[test]
    fn wide_dataset_costs_shuffle_read() {
        let (app, cluster, params) = env_fixture();
        let persisted = vec![false; app.dataset_count()];
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        let walk = walk_task(&env, &mut store, 0, DatasetId(2), 0, &[]);
        assert_eq!(walk.steps.len(), 1);
        assert_eq!(walk.steps[0].kind, StepKind::ShuffleRead);
        // treeAggregate combines map-side: the reducer fetches 8 partial
        // aggregates of 1024 B and merges them.
        let fetched = 1024.0 * 8.0;
        let fetch = fetched / 125.0e6 + 2.0 * params.shuffle_connection_s;
        let merge = 0.02 + 1e-9 * fetched;
        assert!(
            (walk.duration - (fetch + merge)).abs() < 1e-9,
            "duration {}",
            walk.duration
        );
    }

    #[test]
    fn swap_drops_old_blocks_as_new_ones_arrive() {
        let mut b = AppBuilder::new("swapfix");
        let src = b.source("in", SourceFormat::DistributedFs, 100, 1_000_000, 4);
        let x = b.narrow(
            "x",
            NarrowKind::Map,
            &[src],
            100,
            1_000_000,
            ComputeCost::FREE,
        );
        let y = b.narrow(
            "y",
            NarrowKind::Map,
            &[x],
            100,
            1_000_000,
            ComputeCost::FREE,
        );
        b.job("count", y);
        let app = b.build().unwrap();
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let params = SimParams::default();
        let mut persisted = vec![false; app.dataset_count()];
        persisted[x.index()] = true;
        persisted[y.index()] = true;
        let mut swap = HashMap::new();
        swap.insert(y, x);
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        // Materialize and cache all of X first.
        for p in 0..4 {
            walk_task(&env, &mut store, 0, x, p, &[]);
        }
        assert_eq!(store.resident_count(x), 4);
        // Now compute Y partition by partition: X shrinks in lock-step.
        for p in 0..4 {
            walk_task(&env, &mut store, 0, y, p, &[]);
            let expect_x = 4 - (p + 1);
            assert!(
                store.resident_count(x) <= expect_x + 1,
                "after {} Y blocks, X has {}",
                p + 1,
                store.resident_count(x)
            );
        }
        assert_eq!(store.resident_count(y), 4);
        assert_eq!(store.resident_count(x), 0, "fully swapped out");
        let sx = store.dataset_stats(x).unwrap();
        assert_eq!(sx.evictions, 0, "swap is unpersist, not eviction");
        assert_eq!(sx.unpersisted, 4);
    }

    #[test]
    fn untraced_walk_collects_no_steps() {
        let (app, cluster, params) = env_fixture();
        let persisted = vec![false; app.dataset_count()];
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let mut env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        env.trace = false;
        let mut store = store_for(&app, &cluster);
        let walk = walk_task(&env, &mut store, 0, DatasetId(1), 0, &[]);
        assert!(walk.steps.is_empty());
        assert!(walk.duration > 0.0);
    }
}
