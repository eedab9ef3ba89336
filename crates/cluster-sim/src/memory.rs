//! Per-machine unified memory and the cluster-wide block store.
//!
//! Implements Spark's memory semantics as described in §2.2 of the paper:
//!
//! * storage (cached blocks) and execution share the unified region M;
//! * inserting a new cached block may evict least-recently-used blocks of
//!   *other* datasets — never blocks of the dataset currently being cached
//!   (Spark never evicts an RDD's blocks to admit more blocks of the same
//!   RDD; this is what produces the stable `capacity/size` resident
//!   fraction of the paper's area A);
//! * execution claims may evict storage blocks, but only down to the
//!   protected floor R;
//! * unpersist drops all of a dataset's blocks immediately.
//!
//! # Dense interning
//!
//! `(dataset, partition)` pairs are interned to dense block indices via a
//! [`BlockLayout`] (a prefix sum over per-dataset partition counts), so the
//! cache-residency hot path — `residency`, `touch`/`read`, `try_insert` —
//! is straight array indexing instead of hashing. A run's layout gives
//! slots only to the datasets its schedule persists
//! ([`BlockLayout::persisted`]): no other dataset can ever hold a block,
//! so setting a store up costs O(datasets + persisted blocks), not O(all
//! blocks). Eviction outcomes are unchanged: every access and insert stamp
//! comes from a strictly monotonic clock, so victim selection has a unique
//! minimum and is independent of candidate enumeration order and of block
//! indices (this is also why the old `HashMap`-iteration enumeration was
//! deterministic across processes).
//!
//! # Eviction
//!
//! A victim search is one pass over the machine's resident blocks that
//! keeps the smallest [`EvictionPolicyKind::victim_key`]; nothing is
//! copied. A per-block "evicted before" flag means only a block's first
//! eviction touches its dataset's `evicted_partition_ids` set.

use dagflow::{Application, DatasetId};

use crate::config::ClusterConfig;
use crate::eviction::{DatasetHints, EvictionPolicyKind};
use crate::report::DatasetCacheStats;

/// Sentinel machine index meaning "not resident".
const NO_MACHINE: u32 = u32::MAX;

/// Per-block residency state. `loc == NO_MACHINE` means not resident; the
/// other fields are only meaningful while resident.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    /// Holding machine, or [`NO_MACHINE`].
    loc: u32,
    /// Position inside `resident[loc]`.
    pos: u32,
    bytes: u64,
    last_access: u64,
    inserted: u64,
}

impl Default for BlockMeta {
    fn default() -> Self {
        BlockMeta {
            loc: NO_MACHINE,
            pos: 0,
            bytes: 0,
            last_access: 0,
            inserted: 0,
        }
    }
}

/// Interns `(dataset, partition)` pairs to dense block indices: block
/// `offsets[d] + p` for partition `p` of dataset `d`. Built per run, owned
/// by the run's [`BlockStore`].
#[derive(Debug)]
pub struct BlockLayout {
    /// `offsets[d]..offsets[d + 1]` is dataset `d`'s block range.
    offsets: Vec<usize>,
    /// Owning dataset of each block (the inverse mapping).
    block_dataset: Vec<DatasetId>,
}

impl BlockLayout {
    /// The layout of one run's store: one block slot per partition of each
    /// dataset the run persists, none for the rest — only persisted
    /// datasets are ever cached. `runs` lists `(application, persisted
    /// flags)` pairs whose dataset ids are concatenated in order: a plain
    /// run passes one pair, a multi-tenant run one per tenant. Datasets
    /// past the end of a flag slice are not persisted, so an empty slice
    /// gives an application no slots at all.
    #[must_use]
    pub fn persisted<'a, 'p>(
        runs: impl IntoIterator<Item = (&'a Application, &'p [bool])>,
    ) -> Self {
        Self::from_partitions(runs.into_iter().flat_map(|(app, persisted)| {
            app.datasets().iter().map(|d| {
                if persisted.get(d.id.index()) == Some(&true) {
                    d.partitions
                } else {
                    0
                }
            })
        }))
    }

    /// Layout from explicit per-dataset partition counts (dataset `i` has
    /// `partitions[i]` partitions).
    #[must_use]
    pub fn from_partitions(partitions: impl IntoIterator<Item = u32>) -> Self {
        let mut offsets = vec![0usize];
        let mut block_dataset = Vec::new();
        for (i, parts) in partitions.into_iter().enumerate() {
            let d = DatasetId(u32::try_from(i).expect("dataset count fits u32"));
            block_dataset.extend(std::iter::repeat_n(d, parts as usize));
            offsets.push(block_dataset.len());
        }
        BlockLayout {
            offsets,
            block_dataset,
        }
    }

    /// Number of datasets covered.
    #[must_use]
    pub fn dataset_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total block slots.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.block_dataset.len()
    }

    /// Partition count of a dataset.
    #[must_use]
    pub fn partitions(&self, d: DatasetId) -> u32 {
        (self.offsets[d.index() + 1] - self.offsets[d.index()]) as u32
    }

    /// Dense index of `(d, p)`, or `None` when `p` is out of the dataset's
    /// range (such a block can never be resident — the map-keyed store
    /// simply never found it).
    #[inline]
    #[must_use]
    pub fn block_of(&self, d: DatasetId, p: u32) -> Option<usize> {
        let start = self.offsets[d.index()];
        let end = self.offsets[d.index() + 1];
        let b = start + p as usize;
        (b < end).then_some(b)
    }

    /// Owning dataset of a block index.
    #[inline]
    #[must_use]
    pub fn dataset_of(&self, block: usize) -> DatasetId {
        self.block_dataset[block]
    }

    /// Partition index of a block within its dataset.
    #[inline]
    #[must_use]
    pub fn partition_of(&self, block: usize) -> u32 {
        (block - self.offsets[self.dataset_of(block).index()]) as u32
    }
}

/// Side state of a multi-tenant run: the dataset-id partitioning of the
/// combined [`BlockLayout`] plus cross-tenant eviction attribution.
///
/// The multi-tenant runner concatenates every tenant's datasets into one
/// layout; tenant `t` owns the dense dataset-id range
/// `base[t]..base[t + 1]`. While tenant `t` is active, every dataset-id
/// argument of the store's public API is interpreted in `t`'s local id
/// space and shifted by `base[t]`, so the single-tenant engine code runs
/// unmodified against the shared pool. Evictions charged while the victim
/// belongs to a *different* tenant are counted as cross-tenant, with the
/// victim block's cache lifetime accumulated for the residency half-life
/// estimate.
#[derive(Debug)]
struct Tenancy {
    /// `base[t]..base[t + 1]` is tenant `t`'s global dataset-id range.
    base: Vec<u32>,
    /// Active tenant (the one whose job body is currently executing).
    active: usize,
    /// Cached `base[active]`, the hot-path id shift.
    active_base: u32,
    /// Simulation clock of the runner, for block lifetimes.
    now_s: f64,
    /// Whether evictions are charged to the active tenant. Fault-driven
    /// evictions (machine loss) suspend charging: they are accounted by
    /// the fault summary, not as memory contention.
    charging: bool,
    /// Per-block insert time on the runner's clock.
    inserted_s: Vec<f64>,
    /// Per-tenant cross-tenant evictions suffered (their block, another
    /// tenant's insert or claim).
    suffered: Vec<u64>,
    /// Per-tenant cross-tenant evictions inflicted on other tenants.
    inflicted: Vec<u64>,
    /// Per-tenant sum of cache lifetimes of cross-evicted blocks, seconds.
    lifetime_sum_s: Vec<f64>,
}

impl Tenancy {
    /// Owning tenant of a *global* dataset id.
    fn tenant_of(&self, dataset: DatasetId) -> usize {
        self.base.partition_point(|&b| b <= dataset.0) - 1
    }
}

/// Cluster-wide cache: per-machine memory plus a dense block index and
/// per-dataset statistics.
#[derive(Debug)]
pub struct BlockStore {
    layout: BlockLayout,
    policy: EvictionPolicyKind,
    /// Monotonic access/insert clock; every stamp is unique.
    clock: u64,
    /// Unified region M and protected storage floor R (same machine spec
    /// cluster-wide).
    unified: u64,
    min_storage: u64,
    /// Per-machine usage.
    storage_used: Vec<u64>,
    exec_used: Vec<u64>,
    /// Blocks resident on each machine (for victim enumeration).
    resident: Vec<Vec<u32>>,
    /// Per-block state, one struct per block so a read or insert touches
    /// one cache line instead of five parallel arrays.
    blocks: Vec<BlockMeta>,
    /// Per-block "evicted before" flag, kept out of [`BlockMeta`] so it
    /// stays 32 bytes.
    evicted_before: Vec<bool>,
    /// Per-dataset statistics; `touched[d]` marks datasets that ever got a
    /// stat update, reproducing the exact key set of the map-keyed store.
    stats: Vec<DatasetCacheStats>,
    touched: Vec<bool>,
    /// Per-dataset hints for the DAG-aware policies (default when unset).
    hints: Vec<DatasetHints>,
    /// Cluster-wide running totals, so peaks are O(1) instead of a
    /// per-insert sum over machines.
    total_storage: u64,
    total_exec: u64,
    peak_storage: u64,
    peak_exec: u64,
    /// Multi-tenant side state; `None` (the default) leaves every
    /// single-run code path untouched.
    tenancy: Option<Box<Tenancy>>,
}

impl BlockStore {
    /// Creates an empty store for a cluster, evicting with LRU (Spark's
    /// default).
    #[must_use]
    pub fn new(cluster: &ClusterConfig, layout: BlockLayout) -> Self {
        BlockStore::with_policy(cluster, layout, EvictionPolicyKind::Lru)
    }

    /// Creates an empty store with an explicit eviction policy.
    #[must_use]
    pub fn with_policy(
        cluster: &ClusterConfig,
        layout: BlockLayout,
        policy: EvictionPolicyKind,
    ) -> Self {
        let machines = cluster.machines as usize;
        let blocks = layout.block_count();
        let datasets = layout.dataset_count();
        BlockStore {
            policy,
            clock: 0,
            unified: cluster.spec.unified_memory(),
            min_storage: cluster.spec.min_storage(),
            storage_used: vec![0; machines],
            exec_used: vec![0; machines],
            resident: vec![Vec::new(); machines],
            blocks: vec![BlockMeta::default(); blocks],
            evicted_before: vec![false; blocks],
            stats: (0..datasets)
                .map(|_| DatasetCacheStats::default())
                .collect(),
            touched: vec![false; datasets],
            hints: vec![DatasetHints::default(); datasets],
            total_storage: 0,
            total_exec: 0,
            peak_storage: 0,
            peak_exec: 0,
            tenancy: None,
            layout,
        }
    }

    /// Switches the store into multi-tenant mode. `base` partitions the
    /// layout's dataset-id space: tenant `t` owns
    /// `base[t]..base[t + 1]`, with `base.first() == 0` and
    /// `base.last() == dataset_count`. Until
    /// [`BlockStore::set_active_tenant`] changes it, tenant 0 is active.
    ///
    /// # Panics
    /// Panics when `base` does not tile the layout's dataset range.
    pub fn enable_tenancy(&mut self, base: Vec<u32>) {
        assert!(
            base.len() >= 2
                && base[0] == 0
                && *base.last().expect("non-empty") as usize == self.layout.dataset_count()
                && base.windows(2).all(|w| w[0] <= w[1]),
            "tenant bases must tile the combined dataset range"
        );
        let tenants = base.len() - 1;
        self.tenancy = Some(Box::new(Tenancy {
            base,
            active: 0,
            active_base: 0,
            now_s: 0.0,
            charging: true,
            inserted_s: vec![0.0; self.layout.block_count()],
            suffered: vec![0; tenants],
            inflicted: vec![0; tenants],
            lifetime_sum_s: vec![0.0; tenants],
        }));
    }

    /// Selects the tenant whose local dataset ids subsequent calls use and
    /// to whom charged evictions are attributed. No-op outside tenancy.
    pub fn set_active_tenant(&mut self, tenant: usize) {
        if let Some(t) = self.tenancy.as_deref_mut() {
            t.active = tenant;
            t.active_base = t.base[tenant];
        }
    }

    /// Advances the runner's simulation clock used to stamp block insert
    /// times and measure cross-evicted lifetimes. No-op outside tenancy.
    pub fn set_sim_now(&mut self, now_s: f64) {
        if let Some(t) = self.tenancy.as_deref_mut() {
            t.now_s = now_s;
        }
    }

    /// `(suffered, inflicted, residency_half_life_s)` of one tenant:
    /// cross-tenant evictions its blocks suffered, cross-tenant evictions
    /// it inflicted on others, and an exponential-decay half-life estimate
    /// (`ln 2 ×` mean cache lifetime of its cross-evicted blocks; zero
    /// when nothing was cross-evicted).
    #[must_use]
    pub fn tenant_contention(&self, tenant: usize) -> (u64, u64, f64) {
        let Some(t) = self.tenancy.as_deref() else {
            return (0, 0, 0.0);
        };
        let suffered = t.suffered[tenant];
        let half_life = if suffered > 0 {
            std::f64::consts::LN_2 * t.lifetime_sum_s[tenant] / suffered as f64
        } else {
            0.0
        };
        (suffered, t.inflicted[tenant], half_life)
    }

    /// Iterates the touched statistics of the run the store is serving,
    /// in id order: every touched dataset outside tenancy (the same view
    /// as [`BlockStore::touched_stats`]), the active tenant's datasets
    /// keyed by its *local* ids inside it.
    pub fn active_stats(&self) -> impl Iterator<Item = (DatasetId, &DatasetCacheStats)> {
        let (lo, hi) = self.tenancy.as_deref().map_or((0, self.stats.len()), |t| {
            (t.base[t.active] as usize, t.base[t.active + 1] as usize)
        });
        self.touched_in(lo, hi)
    }

    /// Touched statistics of global datasets `lo..hi`, keyed relative to
    /// `lo`.
    fn touched_in(
        &self,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = (DatasetId, &DatasetCacheStats)> {
        (lo..hi)
            .filter(|&g| self.touched[g])
            .map(move |g| (DatasetId((g - lo) as u32), &self.stats[g]))
    }

    /// Shifts a tenant-local dataset id into the combined layout's id
    /// space; the identity outside tenancy.
    #[inline]
    fn tid(&self, d: DatasetId) -> DatasetId {
        match self.tenancy.as_deref() {
            Some(t) => DatasetId(d.0 + t.active_base),
            None => d,
        }
    }

    /// The layout this store indexes blocks with.
    #[must_use]
    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// Sets one dataset's DAG-aware hint (used by the LRC and MRD
    /// policies). The engine refreshes the hints of every persisted
    /// dataset at job boundaries; unset datasets keep the default hint,
    /// exactly like the old map's `unwrap_or_default` lookup.
    pub fn set_hint(&mut self, d: DatasetId, hint: DatasetHints) {
        let d = self.tid(d);
        self.hints[d.index()] = hint;
    }

    #[inline]
    fn stat(&mut self, d: DatasetId) -> &mut DatasetCacheStats {
        self.touched[d.index()] = true;
        &mut self.stats[d.index()]
    }

    fn free(&self, machine: usize) -> u64 {
        self.unified
            .saturating_sub(self.storage_used[machine])
            .saturating_sub(self.exec_used[machine])
    }

    /// Which machine holds the block, if resident.
    #[inline]
    #[must_use]
    pub fn residency(&self, dataset: DatasetId, partition: u32) -> Option<usize> {
        let b = self.layout.block_of(self.tid(dataset), partition)?;
        let m = self.blocks[b].loc;
        (m != NO_MACHINE).then_some(m as usize)
    }

    /// Records a cache read: refreshes the block's LRU stamp and counts a
    /// hit. No-op (counts a miss) if absent.
    pub fn touch(&mut self, dataset: DatasetId, partition: u32) -> bool {
        self.read(dataset, partition).is_some()
    }

    /// [`BlockStore::touch`] fused with [`BlockStore::residency`]: one
    /// lookup returning the holding machine on a hit. The clock ticks
    /// exactly once per call, hit or miss, like `touch` always did.
    #[inline]
    pub fn read(&mut self, dataset: DatasetId, partition: u32) -> Option<usize> {
        let dataset = self.tid(dataset);
        self.clock += 1;
        let now = self.clock;
        if let Some(b) = self.layout.block_of(dataset, partition) {
            let meta = &mut self.blocks[b];
            if meta.loc != NO_MACHINE {
                let m = meta.loc;
                meta.last_access = now;
                self.stat(dataset).hits += 1;
                return Some(m as usize);
            }
        }
        self.stat(dataset).misses += 1;
        None
    }

    /// Victim block on `machine` under the store's policy, excluding the
    /// `protect`ed dataset: one pass over the machine's resident blocks
    /// keeping the smallest [`EvictionPolicyKind::victim_key`]. Keys are
    /// unique (unique clock stamps), so the resident order cannot affect
    /// the outcome.
    fn victim(&self, machine: usize, protect: Option<DatasetId>) -> Option<usize> {
        self.resident[machine]
            .iter()
            .filter_map(|&b| {
                let d = self.layout.dataset_of(b as usize);
                if Some(d) == protect {
                    return None;
                }
                let m = &self.blocks[b as usize];
                let hints = self.hints[d.index()];
                let key = self.policy.victim_key(m.last_access, m.inserted, hints, d);
                Some((key, b))
            })
            .min()
            .map(|(_, b)| b as usize)
    }

    /// Structural removal of a resident block (no stat updates); returns
    /// its size.
    fn remove_block(&mut self, machine: usize, block: usize) -> u64 {
        let bytes = self.blocks[block].bytes;
        let list = &mut self.resident[machine];
        let i = self.blocks[block].pos as usize;
        list.swap_remove(i);
        if let Some(&moved) = list.get(i) {
            self.blocks[moved as usize].pos = i as u32;
        }
        self.blocks[block].loc = NO_MACHINE;
        self.storage_used[machine] -= bytes;
        self.total_storage -= bytes;
        bytes
    }

    /// Attempts to cache a freshly computed partition on `machine`,
    /// evicting LRU blocks of other datasets if needed. Returns whether the
    /// block is now resident.
    pub fn try_insert(
        &mut self,
        machine: usize,
        dataset: DatasetId,
        partition: u32,
        bytes: u64,
    ) -> bool {
        let dataset = self.tid(dataset);
        let block = self
            .layout
            .block_of(dataset, partition)
            .expect("partition within the dataset's layout");
        if self.blocks[block].loc != NO_MACHINE {
            return true; // already resident (e.g. recomputed concurrently)
        }
        self.stat(dataset).insert_attempts += 1;
        // Evict other datasets' LRU blocks until the block fits.
        while self.free(machine) < bytes {
            let Some(victim) = self.victim(machine, Some(dataset)) else {
                break;
            };
            self.evict_block(machine, victim);
        }
        if self.free(machine) < bytes {
            self.stat(dataset).insert_failures += 1;
            return false;
        }
        self.clock += 1;
        let now = self.clock;
        self.blocks[block] = BlockMeta {
            loc: machine as u32,
            pos: self.resident[machine].len() as u32,
            bytes,
            last_access: now,
            inserted: now,
        };
        self.resident[machine].push(block as u32);
        if let Some(t) = self.tenancy.as_deref_mut() {
            t.inserted_s[block] = t.now_s;
        }
        self.storage_used[machine] += bytes;
        self.total_storage += bytes;
        let s = self.stat(dataset);
        s.resident_partitions += 1;
        s.resident_bytes += bytes;
        s.peak_resident_bytes = s.peak_resident_bytes.max(s.resident_bytes);
        self.peak_storage = self.peak_storage.max(self.total_storage);
        true
    }

    fn evict_block(&mut self, machine: usize, block: usize) {
        let dataset = self.layout.dataset_of(block);
        // Cross-tenant attribution: a charged eviction whose victim block
        // belongs to another tenant is memory contention — count it on
        // both sides and accumulate the block's cache lifetime.
        if let Some(t) = self.tenancy.as_deref_mut() {
            if t.charging {
                let victim = t.tenant_of(dataset);
                if victim != t.active {
                    t.suffered[victim] += 1;
                    t.inflicted[t.active] += 1;
                    t.lifetime_sum_s[victim] += (t.now_s - t.inserted_s[block]).max(0.0);
                }
            }
        }
        let bytes = self.remove_block(machine, block);
        let first = !std::mem::replace(&mut self.evicted_before[block], true);
        let partition = self.layout.partition_of(block);
        let s = self.stat(dataset);
        s.resident_partitions -= 1;
        s.resident_bytes -= bytes;
        s.evictions += 1;
        if first {
            s.evicted_partition_ids.insert(partition);
        }
    }

    /// Claims execution memory for a task on `machine`. Storage above the
    /// protected floor R is evicted (LRU, any dataset) to satisfy the
    /// claim. Returns the bytes actually claimed; a task granted less than
    /// it asked for must spill. Pass the returned value to
    /// [`BlockStore::release_exec`] when the task finishes.
    pub fn claim_exec(&mut self, machine: usize, bytes: u64) -> u64 {
        while self.free(machine) < bytes && self.storage_used[machine] > self.min_storage {
            let Some(victim) = self.victim(machine, None) else {
                break;
            };
            self.evict_block(machine, victim);
        }
        let claim = bytes.min(self.free(machine));
        self.exec_used[machine] += claim;
        self.total_exec += claim;
        self.peak_exec = self.peak_exec.max(self.total_exec);
        claim
    }

    /// Releases execution memory previously claimed on `machine`.
    pub fn release_exec(&mut self, machine: usize, bytes: u64) {
        let delta = bytes.min(self.exec_used[machine]);
        self.exec_used[machine] -= delta;
        self.total_exec -= delta;
    }

    /// Drops every block a machine holds (executor loss). The blocks
    /// count as evictions — downstream reads miss and recompute through
    /// lineage, and re-insertion may land on any machine.
    pub fn lose_machine(&mut self, machine: usize) {
        // A machine loss is a fault, not memory contention: suspend
        // cross-tenant charging for its evictions (the fault summary
        // accounts for them).
        if let Some(t) = self.tenancy.as_deref_mut() {
            t.charging = false;
        }
        while let Some(&b) = self.resident[machine].last() {
            self.evict_block(machine, b as usize);
        }
        if let Some(t) = self.tenancy.as_deref_mut() {
            t.charging = true;
        }
        self.total_exec -= self.exec_used[machine];
        self.exec_used[machine] = 0;
    }

    /// Unpersists a dataset: drops all of its blocks everywhere.
    pub fn drop_dataset(&mut self, dataset: DatasetId) {
        // Local id space: `drop_partition` applies the tenant shift.
        for p in 0..self.layout.partitions(self.tid(dataset)) {
            self.drop_partition(dataset, p);
        }
    }

    /// Drops a single partition (the `u(X) … p(Y)` partition-by-partition
    /// swap). Does not count as an eviction.
    pub fn drop_partition(&mut self, dataset: DatasetId, partition: u32) {
        let dataset = self.tid(dataset);
        let Some(block) = self.layout.block_of(dataset, partition) else {
            return;
        };
        let machine = self.blocks[block].loc;
        if machine != NO_MACHINE {
            let bytes = self.remove_block(machine as usize, block);
            let s = self.stat(dataset);
            s.resident_partitions -= 1;
            s.resident_bytes -= bytes;
            s.unpersisted += 1;
        }
    }

    /// Currently resident partition count of a dataset.
    #[inline]
    #[must_use]
    pub fn resident_count(&self, dataset: DatasetId) -> u32 {
        self.stats[self.tid(dataset).index()].resident_partitions
    }

    /// Bytes of storage used on one machine.
    #[must_use]
    pub fn storage_used(&self, machine: usize) -> u64 {
        self.storage_used[machine]
    }

    /// Bytes of execution memory in use on one machine.
    #[must_use]
    pub fn exec_used(&self, machine: usize) -> u64 {
        self.exec_used[machine]
    }

    /// Peak cluster-wide storage bytes observed.
    #[must_use]
    pub fn peak_storage(&self) -> u64 {
        self.peak_storage
    }

    /// Peak cluster-wide execution bytes observed.
    #[must_use]
    pub fn peak_exec(&self) -> u64 {
        self.peak_exec
    }

    /// Statistics of one dataset, `None` if the dataset was never touched
    /// (the map-keyed store had no entry for it).
    #[must_use]
    pub fn dataset_stats(&self, dataset: DatasetId) -> Option<&DatasetCacheStats> {
        let dataset = self.tid(dataset);
        self.touched[dataset.index()].then(|| &self.stats[dataset.index()])
    }

    /// Iterates the statistics of every touched dataset, in dataset-id
    /// order.
    pub fn touched_stats(&self) -> impl Iterator<Item = (DatasetId, &DatasetCacheStats)> {
        self.touched_in(0, self.stats.len())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::config::MachineSpec;

    /// Store over a toy layout: dataset 0 is a 1-partition dummy, datasets
    /// 1 and 2 (`D_A`, `D_B`) have 10 partitions each.
    fn store(machines: u32, ram: u64) -> BlockStore {
        let spec = MachineSpec {
            ram_bytes: ram,
            ..MachineSpec::paper_example()
        };
        let layout = BlockLayout::from_partitions([1, 10, 10]);
        BlockStore::new(&ClusterConfig::new(machines, spec), layout)
    }

    const D_A: DatasetId = DatasetId(1);
    const D_B: DatasetId = DatasetId(2);

    #[test]
    fn layout_interning_round_trips() {
        let layout = BlockLayout::from_partitions([3, 0, 5, 1]);
        assert_eq!(layout.dataset_count(), 4);
        assert_eq!(layout.block_count(), 9);
        for d in 0..4u32 {
            for p in 0..layout.partitions(DatasetId(d)) {
                let b = layout.block_of(DatasetId(d), p).unwrap();
                assert_eq!(layout.dataset_of(b), DatasetId(d));
                assert_eq!(layout.partition_of(b), p);
            }
            // One past the end resolves to no block.
            let past = layout.partitions(DatasetId(d));
            assert_eq!(layout.block_of(DatasetId(d), past), None);
        }
    }

    #[test]
    fn insert_and_residency() {
        let mut s = store(2, 12_000_000_000);
        assert!(s.try_insert(0, D_A, 0, 1_000_000));
        assert_eq!(s.residency(D_A, 0), Some(0));
        assert_eq!(s.residency(D_A, 1), None);
        assert!(s.touch(D_A, 0));
        assert!(!s.touch(D_A, 1));
        let stats = s.dataset_stats(D_A).unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.resident_partitions, 1);
    }

    /// Spark's rule: a dataset never evicts its own blocks. Filling the
    /// machine with one dataset leaves the overflow uncached — the stable
    /// `capacity/size` residency of area A.
    #[test]
    fn same_dataset_never_self_evicts() {
        // M = (1e9 - 3e8) * 0.6 = 4.2e8; blocks of 1e8 → 4 fit.
        let mut s = store(1, 1_000_000_000);
        let mut cached = 0;
        for p in 0..10 {
            if s.try_insert(0, D_A, p, 100_000_000) {
                cached += 1;
            }
        }
        assert_eq!(cached, 4);
        assert_eq!(s.resident_count(D_A), 4);
        let st = s.dataset_stats(D_A).unwrap();
        assert_eq!(st.insert_failures, 6);
        assert_eq!(st.evictions, 0, "no self-eviction");
    }

    /// A new dataset evicts LRU blocks of an older one.
    #[test]
    fn cross_dataset_lru_eviction() {
        let mut s = store(1, 1_000_000_000); // M = 4.2e8
        for p in 0..4 {
            assert!(s.try_insert(0, D_A, p, 100_000_000));
        }
        // Touch partitions 2 and 3 so 0 and 1 are the LRU victims.
        s.touch(D_A, 2);
        s.touch(D_A, 3);
        assert!(s.try_insert(0, D_B, 0, 150_000_000));
        assert_eq!(s.resident_count(D_B), 1);
        assert_eq!(s.resident_count(D_A), 2);
        assert_eq!(s.residency(D_A, 0), None, "LRU victim");
        assert_eq!(s.residency(D_A, 1), None, "LRU victim");
        assert_eq!(s.residency(D_A, 2), Some(0));
        let st = s.dataset_stats(D_A).unwrap();
        assert_eq!(st.evictions, 2);
        assert!(st.evicted_partition_ids.contains(&0));
    }

    /// Execution pressure evicts storage only down to R.
    #[test]
    fn exec_claim_respects_storage_floor() {
        let mut s = store(1, 1_000_000_000); // M=4.2e8, R=2.1e8
        for p in 0..4 {
            assert!(s.try_insert(0, D_A, p, 100_000_000));
        }
        assert_eq!(s.storage_used(0), 400_000_000);
        // Claim 3e8 of execution: storage must shrink, but not below R.
        let claimed = s.claim_exec(0, 300_000_000);
        assert!(
            claimed < 300_000_000,
            "cannot fully satisfy without violating R"
        );
        assert!(s.storage_used(0) >= 200_000_000, "floor respected");
        assert!(s.storage_used(0) < 400_000_000, "some eviction happened");
        // A small claim that fits after the first is released.
        s.release_exec(0, s.exec_used(0));
        assert_eq!(s.claim_exec(0, 100_000_000), 100_000_000);
    }

    #[test]
    fn unpersist_drops_all_blocks() {
        let mut s = store(2, 12_000_000_000);
        s.try_insert(0, D_A, 0, 1000);
        s.try_insert(1, D_A, 1, 1000);
        s.try_insert(0, D_B, 0, 1000);
        s.drop_dataset(D_A);
        assert_eq!(s.resident_count(D_A), 0);
        assert_eq!(s.resident_count(D_B), 1);
        assert_eq!(s.residency(D_A, 1), None);
        let st = s.dataset_stats(D_A).unwrap();
        assert_eq!(st.unpersisted, 2);
        assert_eq!(st.evictions, 0);
    }

    #[test]
    fn drop_partition_swaps_one_block() {
        let mut s = store(1, 12_000_000_000);
        s.try_insert(0, D_A, 0, 1000);
        s.try_insert(0, D_A, 1, 1000);
        s.drop_partition(D_A, 0);
        assert_eq!(s.resident_count(D_A), 1);
        assert_eq!(s.residency(D_A, 1), Some(0));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut s = store(1, 12_000_000_000);
        assert!(s.try_insert(0, D_A, 0, 1000));
        assert!(s.try_insert(0, D_A, 0, 1000));
        assert_eq!(s.resident_count(D_A), 1);
    }

    #[test]
    fn peaks_track_maxima() {
        let mut s = store(1, 1_000_000_000);
        s.try_insert(0, D_A, 0, 100_000_000);
        s.claim_exec(0, 50_000_000);
        s.release_exec(0, 50_000_000);
        assert_eq!(s.peak_storage(), 100_000_000);
        assert_eq!(s.peak_exec(), 50_000_000);
    }

    #[test]
    fn lose_machine_evicts_and_clears_exec() {
        let mut s = store(2, 12_000_000_000);
        s.try_insert(0, D_A, 0, 1000);
        s.try_insert(0, D_A, 1, 1000);
        s.try_insert(1, D_A, 2, 1000);
        s.claim_exec(0, 500);
        s.lose_machine(0);
        assert_eq!(s.resident_count(D_A), 1);
        assert_eq!(s.storage_used(0), 0);
        assert_eq!(s.exec_used(0), 0);
        assert_eq!(s.residency(D_A, 2), Some(1));
        let st = s.dataset_stats(D_A).unwrap();
        assert_eq!(st.evictions, 2);
    }

    #[test]
    fn untouched_datasets_stay_out_of_stats() {
        let mut s = store(1, 12_000_000_000);
        s.try_insert(0, D_A, 0, 1000);
        assert!(s.dataset_stats(D_B).is_none());
        let touched: Vec<_> = s.active_stats().map(|(d, _)| d).collect();
        assert_eq!(touched, [D_A]);
    }

    /// Two-tenant store over the toy layout: tenant 0 owns datasets
    /// {0, 1} (dummy + 10 partitions), tenant 1 owns dataset {2} seen
    /// locally as its dataset 0 (10 partitions).
    fn tenant_store(ram: u64) -> BlockStore {
        let mut s = store(1, ram);
        s.enable_tenancy(vec![0, 2, 3]);
        s
    }

    #[test]
    fn tenancy_offsets_local_ids_round_trip() {
        let mut s = tenant_store(12_000_000_000);
        // Tenant 0's dataset 1 and tenant 1's dataset 0 are distinct
        // global blocks even though both are "their" first big dataset.
        s.set_active_tenant(0);
        assert!(s.try_insert(0, D_A, 3, 1000));
        s.set_active_tenant(1);
        assert_eq!(s.residency(DatasetId(0), 3), None, "other tenant's block");
        assert!(s.try_insert(0, DatasetId(0), 3, 1000));
        assert_eq!(s.residency(DatasetId(0), 3), Some(0));
        assert_eq!(s.resident_count(DatasetId(0)), 1);
        s.set_active_tenant(0);
        assert_eq!(s.residency(D_A, 3), Some(0));
        assert_eq!(s.resident_count(D_A), 1);
        // Per-tenant stats come back in local id space.
        s.set_active_tenant(1);
        let t1: HashMap<_, _> = s.active_stats().collect();
        assert_eq!(t1.len(), 1);
        assert_eq!(t1[&DatasetId(0)].resident_partitions, 1);
        s.set_active_tenant(0);
        let t0: HashMap<_, _> = s.active_stats().collect();
        assert!(t0.contains_key(&D_A));
        assert!(!t0.contains_key(&DatasetId(2)), "local ids only");
    }

    #[test]
    fn active_stats_are_the_whole_store_or_one_tenants_slice() {
        // Outside tenancy the view is every touched dataset.
        let mut plain = store(1, 12_000_000_000);
        plain.try_insert(0, D_A, 0, 1000);
        plain.try_insert(0, D_B, 1, 1000);
        assert_eq!(
            plain.active_stats().collect::<Vec<_>>(),
            plain.touched_stats().collect::<Vec<_>>()
        );
        // Inside it, the active tenant's global range, keyed locally.
        let mut s = tenant_store(12_000_000_000);
        s.set_active_tenant(0);
        s.try_insert(0, D_A, 0, 1000);
        s.set_active_tenant(1);
        s.try_insert(0, DatasetId(0), 1, 1000);
        s.read(DatasetId(0), 2);
        for (tenant, range) in [(0, 0..2), (1, 2..3)] {
            s.set_active_tenant(tenant);
            let slice: Vec<_> = s
                .touched_stats()
                .filter(|(d, _)| range.contains(&d.0))
                .map(|(d, st)| (DatasetId(d.0 - range.start), st))
                .collect();
            assert!(!slice.is_empty());
            assert_eq!(s.active_stats().collect::<Vec<_>>(), slice);
        }
    }

    #[test]
    fn cross_tenant_eviction_is_attributed_to_both_sides() {
        // M = 4.2e8: four 1e8 blocks fill the machine.
        let mut s = tenant_store(1_000_000_000);
        s.set_active_tenant(0);
        s.set_sim_now(10.0);
        for p in 0..4 {
            assert!(s.try_insert(0, D_A, p, 100_000_000));
        }
        // Tenant 1 inserts under pressure at t = 30 s: evicts tenant 0's
        // two LRU blocks (inserted at t = 10 s → lifetime 20 s each).
        s.set_active_tenant(1);
        s.set_sim_now(30.0);
        assert!(s.try_insert(0, DatasetId(0), 0, 150_000_000));
        let (suffered0, inflicted0, half_life0) = s.tenant_contention(0);
        assert_eq!(suffered0, 2);
        assert_eq!(inflicted0, 0);
        assert!((half_life0 - std::f64::consts::LN_2 * 20.0).abs() < 1e-12);
        let (suffered1, inflicted1, _) = s.tenant_contention(1);
        assert_eq!(suffered1, 0);
        assert_eq!(inflicted1, 2);
        // Totals balance: every suffered eviction was inflicted by someone.
        assert_eq!(suffered0 + suffered1, inflicted0 + inflicted1);
    }

    #[test]
    fn same_tenant_evictions_are_not_contention() {
        let mut s = tenant_store(1_000_000_000);
        s.set_active_tenant(0);
        for p in 0..4 {
            assert!(s.try_insert(0, D_A, p, 100_000_000));
        }
        // Tenant 0 evicting its *own* other dataset is plain pressure.
        assert!(s.try_insert(0, DatasetId(0), 0, 150_000_000));
        assert_eq!(s.tenant_contention(0), (0, 0, 0.0));
        assert_eq!(s.tenant_contention(1), (0, 0, 0.0));
    }

    #[test]
    fn machine_loss_evictions_are_not_charged_as_contention() {
        let mut s = tenant_store(12_000_000_000);
        s.set_active_tenant(0);
        s.try_insert(0, D_A, 0, 1000);
        s.set_active_tenant(1);
        s.lose_machine(0);
        assert_eq!(s.tenant_contention(0), (0, 0, 0.0), "fault, not contention");
        // Charging resumes after the loss.
        assert!(s.tenancy.as_deref().unwrap().charging);
    }

    /// A block evicted twice counts two evictions but one evicted
    /// partition id.
    #[test]
    fn re_evicted_block_records_its_partition_once() {
        let mut s = store(1, 1_000_000_000); // M = 4.2e8
        for round in 1..=2 {
            assert!(s.try_insert(0, D_A, 0, 300_000_000));
            assert!(s.try_insert(0, D_B, round, 300_000_000));
            assert_eq!(s.residency(D_A, 0), None, "round {round}");
        }
        let st = s.dataset_stats(D_A).unwrap();
        assert_eq!(st.evictions, 2);
        assert_eq!(st.evicted_partition_ids.len(), 1);
    }

    /// The single-pass victim search picks the block the slice oracle
    /// picks, under all four policies: random resident sets on random
    /// machines whose stamps come from the store's own clock (random
    /// inserts and reads, so unique), random hints with frequent ties, and
    /// a random protected dataset or none.
    #[test]
    fn single_pass_victim_matches_slice_oracle() {
        use crate::eviction::slice_oracle::{select_victim, VictimCandidate};
        let mut picked = 0;
        for seed in 0..500u64 {
            let mut state = seed ^ 0x5EED;
            let mut pick = |bound: u32| -> u32 {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % u64::from(bound)) as u32
            };
            let datasets = 1 + pick(6);
            let parts: Vec<u32> = (0..datasets).map(|_| 1 + pick(12)).collect();
            let machines = 1 + pick(3);
            let spec = MachineSpec {
                ram_bytes: 12_000_000_000,
                ..MachineSpec::paper_example()
            };
            let layout = BlockLayout::from_partitions(parts.iter().copied());
            let mut s = BlockStore::new(&ClusterConfig::new(machines, spec), layout);
            for _ in 0..pick(80) {
                let d = DatasetId(pick(datasets));
                let p = pick(parts[d.index()]);
                if pick(3) == 0 {
                    s.touch(d, p);
                } else {
                    s.try_insert(pick(machines) as usize, d, p, 1000);
                }
            }
            for d in 0..datasets {
                let next_use_distance = if pick(4) == 0 { u32::MAX } else { pick(3) };
                let hint = DatasetHints {
                    remaining_refs: u64::from(pick(3)),
                    next_use_distance,
                };
                s.set_hint(DatasetId(d), hint);
            }
            let machine = pick(machines) as usize;
            let protect = (pick(3) != 0).then(|| DatasetId(pick(datasets)));
            let (blocks, cands): (Vec<usize>, Vec<VictimCandidate>) = s.resident[machine]
                .iter()
                .map(|&b| (b as usize, s.layout.dataset_of(b as usize)))
                .filter(|&(_, d)| Some(d) != protect)
                .map(|(b, d)| {
                    let m = &s.blocks[b];
                    let cand = VictimCandidate {
                        dataset: d,
                        last_access: m.last_access,
                        inserted: m.inserted,
                        hints: s.hints[d.index()],
                    };
                    (b, cand)
                })
                .unzip();
            for kind in EvictionPolicyKind::all() {
                s.policy = kind;
                let want = select_victim(kind, &cands).map(|i| blocks[i]);
                assert_eq!(s.victim(machine, protect), want, "seed {seed}, {kind:?}");
                picked += usize::from(want.is_some());
            }
        }
        assert!(picked > 1000, "too few non-empty candidate sets: {picked}");
    }
}
