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
//!
//! The recursion depends on the stage and the schedule only, never on the
//! partition, so `StageWalk::compile` flattens it once per stage
//! execution into a list of ops, and every task of the stage runs that
//! list in a loop (`StageWalk::run`). The list keeps the recursion's
//! store-call order exactly: a persisted dataset's cache read comes
//! before its subtree, its insert (and swap) after it, and a cache hit
//! jumps past both.
//!
//! When the run's partitions are even (`Sizing::skew == 0.0`, the
//! `RunOptions` default), every op also costs the same for every task of
//! the stage, so `compile` prices each op once into a stage row and `run`
//! reads the row instead of re-deriving sizes per task.

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
    /// When recording, the datasets whose steps are recorded (indexed by
    /// dataset id); `None` records every step.
    pub watch: Option<&'a [bool]>,
}

impl TaskEnv<'_> {
    /// Whether a step of `d` is recorded.
    #[inline]
    fn records(&self, d: DatasetId) -> bool {
        self.trace && self.watch.is_none_or(|w| w[d.index()])
    }
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
    /// Adds a step of `dur` seconds; records it when `record` says so.
    /// An unrecorded step still counts towards the duration, so recorded
    /// steps keep the offsets they have in a run recording every step.
    fn push_step(
        &mut self,
        record: bool,
        dataset: DatasetId,
        kind: StepKind,
        dur: f64,
        out_bytes: f64,
    ) {
        let start = self.duration;
        self.duration += dur;
        if record {
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
struct ConsumerCost {
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
    fn build(env: &TaskEnv<'_>, output: DatasetId, wide: DatasetId) -> Self {
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

    /// Seconds of this shuffle write for partition `p` of `output`.
    fn seconds(&self, env: &TaskEnv<'_>, output: DatasetId, p: u32) -> f64 {
        // Map-side combine work (the scan producing partial aggregates) is
        // part of the Shuffle Write half of a combining wide transformation.
        let combine = match self.combine {
            Some((records, compute)) => {
                let input = env.sizing.partition_bytes(output, p);
                compute.task_seconds(records, input) / env.cluster.spec.cpu_speed
            }
            None => 0.0,
        };
        combine + self.write_s
    }
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

/// Reduce-side cost of materializing one partition of a wide dataset —
/// network fetch of this reducer's share plus merge/compute work — split
/// into its partition-independent terms, computed with the per-task
/// expressions so every duration keeps its bits.
#[derive(Debug, Clone, Copy)]
enum ShuffleRead {
    /// A combining shuffle: the scan was charged map-side and merging
    /// partials is partition-independent, so the whole read is one
    /// constant (`fetch + merge`).
    Combined(f64),
    /// A non-combining shuffle: the fetch is constant, the reduce compute
    /// scales with the partition's records.
    PerRecord {
        fetch: f64,
        fetched: f64,
        compute: ComputeCost,
    },
}

impl ShuffleRead {
    fn build(env: &TaskEnv<'_>, wide: DatasetId) -> Self {
        let spec = &env.cluster.spec;
        let w = env.app.dataset(wide);
        let fetched = shuffled_bytes(env.app, wide) / f64::from(w.partitions.max(1));
        let fetch = fetched / spec.network_bandwidth
            + f64::from(env.cluster.machines) * env.params.shuffle_connection_s;
        if wide_combines(w.op) {
            let merge = (w.compute.fixed_s + w.compute.per_input_byte_s * fetched) / spec.cpu_speed;
            ShuffleRead::Combined(fetch + merge)
        } else {
            ShuffleRead::PerRecord {
                fetch,
                fetched,
                compute: w.compute,
            }
        }
    }

    #[inline]
    fn seconds(&self, env: &TaskEnv<'_>, wide: DatasetId, p: u32) -> f64 {
        match *self {
            ShuffleRead::Combined(s) => s,
            ShuffleRead::PerRecord {
                fetch,
                fetched,
                compute,
            } => {
                let records = env.sizing.partition_records(wide, p);
                fetch + compute.task_seconds(records, fetched) / env.cluster.spec.cpu_speed
            }
        }
    }
}

/// One op of a compiled stage walk. `Check`/`Insert` exist only for
/// datasets the schedule persists; the other three are the recursion's
/// leaves and its narrow post-step.
#[derive(Debug, Clone, Copy)]
enum WalkOp {
    /// Cache read of a persisted dataset. On a hit the read is the whole
    /// contribution of the dataset: skip the next `skip` ops (its subtree
    /// and its `Insert`).
    Check { d: DatasetId, skip: u32 },
    /// Stable-storage read of a source partition.
    Source { d: DatasetId },
    /// Reduce-side read of a wide partition.
    Shuffle { d: DatasetId, read: ShuffleRead },
    /// A narrow transformation over the parents in
    /// `StageWalk::parents[parents.0..parents.1]`, whose subtrees ran just
    /// before.
    Narrow {
        d: DatasetId,
        parents: (u32, u32),
        compute: ComputeCost,
    },
    /// Try to cache the freshly computed persisted partition; on success
    /// drop blocks of the schedule's swap partner, if it has one.
    Insert {
        d: DatasetId,
        swap: Option<DatasetId>,
    },
}

/// Step duration and bytes of one walk op for one partition. A cache
/// read has two durations, `dur` from local storage memory and `remote`
/// from another machine; every other op leaves `remote` at zero, and a
/// shuffle write fills `dur` alone.
#[derive(Debug, Clone, Copy, Default)]
struct OpCost {
    dur: f64,
    remote: f64,
    bytes: f64,
}

/// A stage's pipeline walk, compiled for one stage execution: the
/// recursion over `output`'s in-stage lineage flattened to ops, plus the
/// stage's shuffle-write costs. Held in a reusable buffer by the executor
/// state, so compiling allocates nothing once the buffers have grown.
#[derive(Debug)]
pub(crate) struct StageWalk {
    output: DatasetId,
    ops: Vec<WalkOp>,
    /// Parent lists of the `Narrow` ops, flattened.
    parents: Vec<DatasetId>,
    consumers: Vec<ConsumerCost>,
    /// The stage row of an even-partition run: `rows[i]` is the cost of
    /// `ops[i]` and `rows[ops.len() + k]` that of shuffle write `k`, the
    /// same for every task. Empty when the run is skewed, so each task
    /// prices its own partition.
    rows: Vec<OpCost>,
}

impl Default for StageWalk {
    fn default() -> Self {
        StageWalk {
            output: DatasetId(0),
            ops: Vec::new(),
            parents: Vec::new(),
            consumers: Vec::new(),
            rows: Vec::new(),
        }
    }
}

impl StageWalk {
    /// Compiles the walk of `output` under `env`'s schedule, with one
    /// `ShuffleWrite` per wide dataset in `shuffle_consumers` (the wide
    /// datasets of the current job that read this stage's output).
    pub(crate) fn compile(
        &mut self,
        env: &TaskEnv<'_>,
        output: DatasetId,
        shuffle_consumers: &[DatasetId],
    ) {
        self.output = output;
        self.ops.clear();
        self.parents.clear();
        self.emit(env, output);
        self.consumers.clear();
        self.consumers.extend(
            shuffle_consumers
                .iter()
                .map(|&w| ConsumerCost::build(env, output, w)),
        );
        let mut rows = std::mem::take(&mut self.rows);
        rows.clear();
        if env.sizing.skew == 0.0 {
            // `skew_factor` is exactly 1.0 for every partition, so
            // partition 0's costs are every task's, bit for bit.
            let ops = self.ops.iter().map(|&op| self.op_cost(env, op, 0));
            let writes = self.consumers.iter().map(|c| OpCost {
                dur: c.seconds(env, output, 0),
                ..OpCost::default()
            });
            rows.extend(ops.chain(writes));
        }
        self.rows = rows;
    }

    /// Prices `op` for partition `p`, with the expressions of the
    /// recursive walk.
    fn op_cost(&self, env: &TaskEnv<'_>, op: WalkOp, p: u32) -> OpCost {
        let spec = &env.cluster.spec;
        let sizing = env.sizing;
        match op {
            WalkOp::Check { d, .. } => {
                let bytes = sizing.partition_bytes(d, p);
                OpCost {
                    dur: bytes / spec.cache_read_bandwidth,
                    remote: bytes / spec.network_bandwidth,
                    bytes,
                }
            }
            WalkOp::Source { d } => {
                let bytes = sizing.partition_bytes(d, p);
                OpCost {
                    dur: bytes / spec.disk_bandwidth,
                    remote: 0.0,
                    bytes,
                }
            }
            WalkOp::Shuffle { d, read } => OpCost {
                dur: read.seconds(env, d, p),
                remote: 0.0,
                bytes: sizing.partition_bytes(d, p),
            },
            WalkOp::Narrow {
                d,
                parents: (start, end),
                compute,
            } => {
                let mut input_bytes = 0.0;
                for &par in &self.parents[start as usize..end as usize] {
                    input_bytes += sizing.partition_bytes(par, p);
                }
                let records = sizing.partition_records(d, p);
                OpCost {
                    dur: compute.task_seconds(records, input_bytes) / spec.cpu_speed,
                    remote: 0.0,
                    bytes: sizing.partition_bytes(d, p),
                }
            }
            WalkOp::Insert { d, .. } => OpCost {
                bytes: sizing.partition_bytes(d, p),
                ..OpCost::default()
            },
        }
    }

    /// Emits the ops of one dataset in the recursion's order: check,
    /// subtree, own step, insert.
    fn emit(&mut self, env: &TaskEnv<'_>, d: DatasetId) {
        let persisted = env.persisted[d.index()];
        let check = self.ops.len();
        if persisted {
            self.ops.push(WalkOp::Check { d, skip: 0 });
        }
        let ds = env.app.dataset(d);
        match ds.op {
            OpKind::Source(_) => self.ops.push(WalkOp::Source { d }),
            OpKind::Wide(_) => self.ops.push(WalkOp::Shuffle {
                d,
                read: ShuffleRead::build(env, d),
            }),
            OpKind::Narrow(_) => {
                let start = self.parents.len() as u32;
                self.parents.extend_from_slice(&ds.parents);
                let end = self.parents.len() as u32;
                for &par in &ds.parents {
                    self.emit(env, par);
                }
                self.ops.push(WalkOp::Narrow {
                    d,
                    parents: (start, end),
                    compute: ds.compute,
                });
            }
        }
        if persisted {
            self.ops.push(WalkOp::Insert {
                d,
                swap: env.swap.get(&d).copied(),
            });
            let span = (self.ops.len() - 1 - check) as u32;
            if let WalkOp::Check { skip, .. } = &mut self.ops[check] {
                *skip = span;
            }
        }
    }

    /// Walks the pipeline for partition `p` of the compiled output on
    /// `machine` into `walk` (cleared first, so its step buffer is reused
    /// from task to task), mutating the block store (cache hits, inserts,
    /// swaps) in exactly the order the recursive walk would. Each op's
    /// cost comes from the stage row when there is one.
    pub(crate) fn run(
        &self,
        env: &TaskEnv<'_>,
        store: &mut BlockStore,
        machine: usize,
        p: u32,
        walk: &mut TaskWalk,
    ) {
        let cost = |at: usize, op: WalkOp| match self.rows.get(at) {
            Some(&row) => row,
            None => self.op_cost(env, op, p),
        };
        walk.duration = 0.0;
        walk.steps.clear();
        let mut i = 0;
        while let Some(&op) = self.ops.get(i) {
            let at = i;
            i += 1;
            match op {
                WalkOp::Check { d, skip } => {
                    // One fused lookup: counts the hit/miss and returns the
                    // holder. A miss falls through to the subtree.
                    if let Some(holder) = store.read(d, p) {
                        // Local read from storage memory, or a remote fetch
                        // if locality scheduling could not place us on the
                        // holder.
                        let c = cost(at, op);
                        let dur = if holder == machine { c.dur } else { c.remote };
                        walk.push_step(env.records(d), d, StepKind::CacheRead, dur, c.bytes);
                        i += skip as usize;
                    }
                }
                WalkOp::Source { d } => {
                    let c = cost(at, op);
                    walk.push_step(env.records(d), d, StepKind::SourceRead, c.dur, c.bytes);
                }
                WalkOp::Shuffle { d, .. } => {
                    let c = cost(at, op);
                    walk.push_step(env.records(d), d, StepKind::ShuffleRead, c.dur, c.bytes);
                }
                WalkOp::Narrow { d, .. } => {
                    let c = cost(at, op);
                    walk.push_step(env.records(d), d, StepKind::Compute, c.dur, c.bytes);
                }
                WalkOp::Insert { d, swap } => {
                    let bytes = cost(at, op).bytes;
                    if store.try_insert(machine, d, p, bytes.max(1.0) as Bytes) {
                        if let Some(x) = swap {
                            apply_swap(env, store, x, d, p);
                        }
                    }
                }
            }
        }
        for (k, c) in self.consumers.iter().enumerate() {
            let dur = match self.rows.get(self.ops.len() + k) {
                Some(row) => row.dur,
                None => c.seconds(env, self.output, p),
            };
            walk.push_step(
                env.records(c.wide),
                c.wide,
                StepKind::ShuffleWrite,
                dur,
                c.written,
            );
        }
    }
}

/// Applies the `u(X) … p(Y)` partition-by-partition swap: as Y's blocks
/// materialize, X's are dropped so the pair never occupies more than
/// `max(|X|, |Y|)` plus one partition.
fn apply_swap(env: &TaskEnv<'_>, store: &mut BlockStore, x: DatasetId, y: DatasetId, p: u32) {
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

/// The recursive walk [`StageWalk`] replaced, kept as the oracle the
/// compiled walk is tested against: it re-derives the whole lineage walk
/// for every task.
#[cfg(test)]
pub(crate) mod recursive {
    use super::*;

    /// Walks the pipeline for partition `p` of `output` on `machine`.
    pub(crate) fn walk_task(
        env: &TaskEnv<'_>,
        store: &mut BlockStore,
        machine: usize,
        output: DatasetId,
        p: u32,
        shuffle_consumers: &[DatasetId],
    ) -> TaskWalk {
        let consumers: Vec<ConsumerCost> = shuffle_consumers
            .iter()
            .map(|&w| ConsumerCost::build(env, output, w))
            .collect();
        let mut walk = TaskWalk::default();
        materialize(env, store, machine, output, p, &mut walk);
        for c in &consumers {
            let dur = c.seconds(env, output, p);
            walk.push_step(
                env.records(c.wide),
                c.wide,
                StepKind::ShuffleWrite,
                dur,
                c.written,
            );
        }
        walk
    }

    fn shuffle_read_seconds(env: &TaskEnv<'_>, wide: DatasetId, p: u32) -> f64 {
        let spec = &env.cluster.spec;
        let w = env.app.dataset(wide);
        let fetched = shuffled_bytes(env.app, wide) / f64::from(w.partitions.max(1));
        let fetch = fetched / spec.network_bandwidth
            + f64::from(env.cluster.machines) * env.params.shuffle_connection_s;
        let compute = if wide_combines(w.op) {
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
            if let Some(holder) = store.read(d, p) {
                let bw = if holder == machine {
                    spec.cache_read_bandwidth
                } else {
                    spec.network_bandwidth
                };
                walk.push_step(env.records(d), d, StepKind::CacheRead, bytes / bw, bytes);
                return;
            }
        }

        let ds = env.app.dataset(d);
        match ds.op {
            OpKind::Source(_) => {
                walk.push_step(
                    env.records(d),
                    d,
                    StepKind::SourceRead,
                    bytes / spec.disk_bandwidth,
                    bytes,
                );
            }
            OpKind::Wide(_) => {
                let dur = shuffle_read_seconds(env, d, p);
                walk.push_step(env.records(d), d, StepKind::ShuffleRead, dur, bytes);
            }
            OpKind::Narrow(_) => {
                let mut input_bytes = 0.0;
                for &par in &ds.parents {
                    input_bytes += env.sizing.partition_bytes(par, p);
                    materialize(env, store, machine, par, p, walk);
                }
                let records = env.sizing.partition_records(d, p);
                let compute = ds.compute.task_seconds(records, input_bytes) / spec.cpu_speed;
                walk.push_step(env.records(d), d, StepKind::Compute, compute, bytes);
            }
        }

        if is_persisted && store.try_insert(machine, d, p, bytes.max(1.0) as Bytes) {
            if let Some(&x) = env.swap.get(&d) {
                apply_swap(env, store, x, d, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};

    use crate::config::MachineSpec;
    use crate::memory::BlockLayout;

    fn store_for(env: &TaskEnv<'_>) -> BlockStore {
        BlockStore::new(
            env.cluster,
            BlockLayout::persisted([(env.app, env.persisted)]),
        )
    }

    /// Compiles the walk of `output` and runs it for one task.
    fn run_walk(
        env: &TaskEnv<'_>,
        store: &mut BlockStore,
        machine: usize,
        output: DatasetId,
        p: u32,
        shuffle_consumers: &[DatasetId],
    ) -> TaskWalk {
        let mut compiled = StageWalk::default();
        compiled.compile(env, output, shuffle_consumers);
        let mut walk = TaskWalk::default();
        compiled.run(env, store, machine, p, &mut walk);
        walk
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
            watch: None,
        }
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
        let mut store = store_for(&env);
        let walk = run_walk(&env, &mut store, 0, DatasetId(1), 0, &[DatasetId(2)]);
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
        let mut store = store_for(&env);
        let first = run_walk(&env, &mut store, 0, DatasetId(1), 0, &[]);
        assert_eq!(store.resident_count(DatasetId(1)), 1);
        let second = run_walk(&env, &mut store, 0, DatasetId(1), 0, &[]);
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
        let mut store = store_for(&env);
        run_walk(&env, &mut store, 0, DatasetId(1), 0, &[]);
        let local = run_walk(&env, &mut store, 0, DatasetId(1), 0, &[]);
        let remote = run_walk(&env, &mut store, 1, DatasetId(1), 0, &[]);
        assert!(remote.duration > local.duration * 2.0);
    }

    #[test]
    fn wide_dataset_costs_shuffle_read() {
        let (app, cluster, params) = env_fixture();
        let persisted = vec![false; app.dataset_count()];
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&env);
        let walk = run_walk(&env, &mut store, 0, DatasetId(2), 0, &[]);
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
        let mut store = store_for(&env);
        // Materialize and cache all of X first.
        for p in 0..4 {
            run_walk(&env, &mut store, 0, x, p, &[]);
        }
        assert_eq!(store.resident_count(x), 4);
        // Now compute Y partition by partition: X shrinks in lock-step.
        for p in 0..4 {
            run_walk(&env, &mut store, 0, y, p, &[]);
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
        let mut store = store_for(&env);
        let walk = run_walk(&env, &mut store, 0, DatasetId(1), 0, &[]);
        assert!(walk.steps.is_empty());
        assert!(walk.duration > 0.0);
    }

    /// An even-partition walk takes its costs from the stage row, not from
    /// the partition: marked rows come back as the steps' durations.
    #[test]
    fn even_walk_reads_the_stage_row() {
        let (app, cluster, params) = env_fixture();
        let persisted = vec![false; app.dataset_count()];
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&env);
        let mut compiled = StageWalk::default();
        compiled.compile(&env, DatasetId(1), &[DatasetId(2)]);
        // Source, Narrow, then the one shuffle write.
        assert_eq!(compiled.rows.len(), 3);
        for (k, row) in compiled.rows.iter_mut().enumerate() {
            row.dur = (k + 1) as f64;
        }
        let mut walk = TaskWalk::default();
        compiled.run(&env, &mut store, 0, 5, &mut walk);
        let durs: Vec<f64> = walk.steps.iter().map(|s| s.finish - s.start).collect();
        assert_eq!(durs, [1.0, 2.0, 3.0]);

        let skewed = Sizing::new(&app, 0.3);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &skewed);
        compiled.compile(&env, DatasetId(1), &[DatasetId(2)]);
        assert!(compiled.rows.is_empty(), "a skewed run prices each task");
    }

    /// A step with its times as bits, so equality is bit equality.
    fn step_bits(s: &PipelineStep) -> (DatasetId, StepKind, u64, u64, Bytes) {
        (
            s.dataset,
            s.kind,
            s.start.to_bits(),
            s.finish.to_bits(),
            s.out_bytes,
        )
    }

    /// The compiled walk reproduces the recursive one bit for bit on
    /// random DAGs: random persisted sets with `u(x)…p(y)` swap pairs,
    /// stores under memory pressure that carry residency from walk to walk
    /// (so checks hit, miss, evict and fail inserts), skew 0 (tasks read
    /// the stage row) and 0.3 (each task prices its partition), and
    /// tracing on. The oracle runs over the full application layout, the
    /// compiled walk over the run's persisted-only one, into one reused
    /// walk buffer. After every task the durations, steps, cache
    /// statistics and residency must agree.
    #[test]
    fn compiled_walk_matches_recursive_oracle_on_random_dags() {
        use crate::eviction::EvictionPolicyKind;
        // Shapes and store behaviour the oracle must have seen.
        let (mut nested, mut reached_twice, mut swap_pair) = (false, false, false);
        let (mut hits, mut evictions, mut failures, mut swapped) = (0, 0, 0, 0);
        let mut even_rows = 0;
        for seed in 0..300u64 {
            let app = crate::engine::tests::random_app(seed);
            let mut state = seed ^ 0xC0DE;
            let mut pick = |bound: usize| -> usize {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % bound as u64) as usize
            };
            // A narrow dataset inherits its first parent's partitions, so a
            // walk can reach a later parent at a partition it lacks; such a
            // dataset cannot be cached (in either walk), so it is never
            // persisted here. `reach[d]`: partitions `d` is walked at.
            let n = app.dataset_count();
            let mut reach: Vec<u32> = app.datasets().iter().map(|d| d.partitions).collect();
            for c in (0..n).rev() {
                let ds = app.dataset(DatasetId(c as u32));
                if matches!(ds.op, OpKind::Narrow(_)) {
                    for par in &ds.parents {
                        reach[par.index()] = reach[par.index()].max(reach[c]);
                    }
                }
            }
            let persisted: Vec<bool> = (0..n)
                .map(|d| reach[d] <= app.datasets()[d].partitions && pick(3) == 0)
                .collect();
            let on: Vec<DatasetId> = (0..n as u32)
                .map(DatasetId)
                .filter(|d| persisted[d.index()])
                .collect();
            let mut swap = HashMap::new();
            for &y in &on {
                if on.len() > 1 && pick(3) == 0 {
                    let x = on[pick(on.len())];
                    if x != y {
                        swap.insert(y, x);
                    }
                }
            }
            let mut spec = MachineSpec::paper_example();
            if pick(4) != 0 {
                // A few blocks per machine: the stores fill up and evict.
                spec.ram_bytes = spec.memory.reserved_bytes + 500 + pick(4000) as u64;
            }
            let machines = 1 + pick(3);
            let cluster = ClusterConfig::new(machines as u32, spec);
            let params = SimParams::default();
            let sizing = Sizing::new(&app, if seed.is_multiple_of(2) { 0.0 } else { 0.3 });
            let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
            let policy = EvictionPolicyKind::all()[pick(4)];
            let full = BlockLayout::from_partitions(app.datasets().iter().map(|d| d.partitions));
            let mut oracle = BlockStore::with_policy(&cluster, full, policy);
            let mut store = BlockStore::with_policy(
                &cluster,
                BlockLayout::persisted([(&app, persisted.as_slice())]),
                policy,
            );
            let prep = crate::engine::EnginePrep::new(&app);
            let mut compiled = StageWalk::default();
            // One walk buffer for every task, as the executor keeps it.
            let mut got = TaskWalk::default();
            for (ji, plan) in prep.plans().iter().enumerate() {
                for (sp, stage) in plan.stages.iter().enumerate() {
                    let consumers: Vec<DatasetId> =
                        prep.consumers[ji][sp].iter().map(|&(_, w)| w).collect();
                    compiled.compile(&env, stage.output, &consumers);
                    // An even run prices every op once, into the row the
                    // tasks below read; a skewed run has no row, and each
                    // task prices its own partition.
                    let row_len = if sizing.skew == 0.0 {
                        compiled.ops.len() + consumers.len()
                    } else {
                        0
                    };
                    assert_eq!(compiled.rows.len(), row_len, "seed {seed}");
                    even_rows += row_len;
                    let ops = &compiled.ops;
                    for (i, op) in ops.iter().enumerate() {
                        match *op {
                            WalkOp::Check { skip, .. } => {
                                nested |= ops[i + 1..=i + skip as usize]
                                    .iter()
                                    .any(|o| matches!(o, WalkOp::Check { .. }));
                            }
                            WalkOp::Insert { swap: Some(_), .. } => swap_pair = true,
                            WalkOp::Source { d }
                            | WalkOp::Shuffle { d, .. }
                            | WalkOp::Narrow { d, .. } => {
                                reached_twice |= ops[..i].iter().any(|o| {
                                    matches!(*o,
                                        WalkOp::Source { d: e }
                                        | WalkOp::Shuffle { d: e, .. }
                                        | WalkOp::Narrow { d: e, .. } if e == d)
                                });
                            }
                            WalkOp::Insert { .. } => {}
                        }
                    }
                    for p in 0..app.dataset(stage.output).partitions {
                        let machine = pick(machines);
                        let want = recursive::walk_task(
                            &env,
                            &mut oracle,
                            machine,
                            stage.output,
                            p,
                            &consumers,
                        );
                        compiled.run(&env, &mut store, machine, p, &mut got);
                        let at = format!("seed {seed}, job {ji}, stage {sp}, task {p}");
                        assert_eq!(got.duration.to_bits(), want.duration.to_bits(), "{at}");
                        assert_eq!(
                            got.steps.iter().map(step_bits).collect::<Vec<_>>(),
                            want.steps.iter().map(step_bits).collect::<Vec<_>>(),
                            "{at}"
                        );
                        assert_eq!(
                            store.touched_stats().collect::<Vec<_>>(),
                            oracle.touched_stats().collect::<Vec<_>>(),
                            "{at}"
                        );
                        for d in app.datasets() {
                            for q in 0..d.partitions {
                                assert_eq!(store.residency(d.id, q), oracle.residency(d.id, q));
                            }
                        }
                        for m in 0..machines {
                            assert_eq!(store.storage_used(m), oracle.storage_used(m), "{at}");
                        }
                        assert_eq!(store.peak_storage(), oracle.peak_storage(), "{at}");
                    }
                }
            }
            for (_, s) in store.touched_stats() {
                hits += s.hits;
                evictions += s.evictions;
                failures += s.insert_failures;
                swapped += s.unpersisted;
            }
        }
        assert!(nested, "no persisted dataset under a persisted dataset");
        assert!(reached_twice, "no dataset reached twice in one stage");
        assert!(swap_pair, "no swap pair in a compiled walk");
        assert!(hits > 0, "no cache hits");
        assert!(evictions > 0, "no evictions");
        assert!(failures > 0, "no failed inserts");
        assert!(swapped > 0, "no swap drops");
        assert!(even_rows > 0, "no even-partition stage read a stage row");
    }
}
