//! Cluster and simulation configuration.

use serde::{Deserialize, Serialize};

/// Spark's memory layout constants (paper §2.2, Figure 3).
///
/// `M = (ram − reserved) × memory_fraction` is the unified region shared by
/// execution and storage; `R = M × storage_fraction` is the minimum storage
/// region protected from execution pressure. The defaults are Spark 2.4's
/// (`spark.memory.fraction = 0.6`, `spark.memory.storageFraction = 0.5`,
/// 300 MB reserved), which are also the constants of the paper's running
/// example: on a 12 GB machine, `M = (12 GB − 300 MB) × 0.6 = 7.02 GB` and
/// `R = 3.51 GB`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryLayout {
    /// Bytes reserved for the system (Spark's 300 MB).
    pub reserved_bytes: u64,
    /// Fraction of remaining memory forming the unified region M.
    pub memory_fraction: f64,
    /// Fraction of M protected for storage (R).
    pub storage_fraction: f64,
}

impl Default for MemoryLayout {
    fn default() -> Self {
        MemoryLayout {
            reserved_bytes: 300_000_000,
            memory_fraction: 0.6,
            storage_fraction: 0.5,
        }
    }
}

/// Hardware description of one cluster machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Total RAM in bytes.
    pub ram_bytes: u64,
    /// Executor cores (parallel task slots).
    pub cores: u32,
    /// Relative CPU speed (1.0 = the calibration machine).
    pub cpu_speed: f64,
    /// Sequential disk/DFS read bandwidth, bytes per second.
    pub disk_bandwidth: f64,
    /// Network bandwidth per machine, bytes per second.
    pub network_bandwidth: f64,
    /// Bandwidth of reading cached blocks from storage memory, bytes/s.
    pub cache_read_bandwidth: f64,
    /// Memory layout constants.
    pub memory: MemoryLayout,
}

impl MachineSpec {
    /// The paper's §2.2 example machine: 12 GB RAM, 4 cores, 1 GBit/s LAN.
    #[must_use]
    pub fn paper_example() -> Self {
        MachineSpec {
            ram_bytes: 12_000_000_000,
            cores: 4,
            cpu_speed: 1.0,
            // Effective HDFS scan bandwidth per node (replication, seek and
            // deserialization overheads included).
            disk_bandwidth: 80.0e6,
            network_bandwidth: 125.0e6, // 1 GBit/s
            cache_read_bandwidth: 2.0e9,
            memory: MemoryLayout::default(),
        }
    }

    /// The evaluation cluster of §7.1: 16 GB RAM, 4 cores at 2.9 GHz,
    /// 1 GBit/s LAN.
    #[must_use]
    pub fn private_cluster() -> Self {
        MachineSpec {
            ram_bytes: 16_000_000_000,
            ..MachineSpec::paper_example()
        }
    }

    /// The single calibration node of §7.1 (Core i3, 3.8 GB RAM).
    #[must_use]
    pub fn calibration_node() -> Self {
        MachineSpec {
            ram_bytes: 3_800_000_000,
            cores: 4,
            cpu_speed: 0.83, // 2.4 GHz vs the cluster's 2.9 GHz
            ..MachineSpec::paper_example()
        }
    }

    /// The unified memory region M in bytes (§2.2).
    #[must_use]
    pub fn unified_memory(&self) -> u64 {
        let usable = self.ram_bytes.saturating_sub(self.memory.reserved_bytes);
        (usable as f64 * self.memory.memory_fraction) as u64
    }

    /// The protected storage region R in bytes (§2.2).
    #[must_use]
    pub fn min_storage(&self) -> u64 {
        (self.unified_memory() as f64 * self.memory.storage_fraction) as u64
    }
}

/// A cluster: `machines` identical [`MachineSpec`]s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker machines.
    pub machines: u32,
    /// Per-machine hardware.
    pub spec: MachineSpec,
}

impl ClusterConfig {
    /// Convenience constructor.
    #[must_use]
    pub fn new(machines: u32, spec: MachineSpec) -> Self {
        ClusterConfig { machines, spec }
    }

    /// Total task slots.
    #[must_use]
    pub fn total_cores(&self) -> u32 {
        self.machines * self.spec.cores
    }

    /// Total unified memory across machines.
    #[must_use]
    pub fn total_unified_memory(&self) -> u64 {
        u64::from(self.machines) * self.spec.unified_memory()
    }
}

/// Task-duration noise: a lognormal factor `exp(σ·z)` on every task plus
/// rare stragglers — the "uncertain internal cluster dynamics and
/// stragglers" of §7.3/§7.5 that make some recommendations near-optimal
/// rather than optimal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseParams {
    /// Lognormal sigma of per-task noise (0 disables).
    pub sigma: f64,
    /// Probability that a task is a straggler.
    pub straggler_prob: f64,
    /// Duration multiplier for straggler tasks.
    pub straggler_factor: f64,
    /// Minimum duration of a straggler task, seconds. Stragglers stem from
    /// GC pauses, disk hiccups and slow containers, whose magnitude does
    /// not shrink with the data: a task processing a few kilobytes still
    /// stalls for seconds. This floor is what makes tiny-sample training
    /// runs (Ernest's, §7.3) noisy while full-scale tasks barely notice.
    pub straggler_floor_s: f64,
}

impl NoiseParams {
    /// No noise at all (fully deterministic task durations).
    pub const NONE: NoiseParams = NoiseParams {
        sigma: 0.0,
        straggler_prob: 0.0,
        straggler_factor: 1.0,
        straggler_floor_s: 0.0,
    };
}

impl Default for NoiseParams {
    fn default() -> Self {
        NoiseParams {
            sigma: 0.04,
            straggler_prob: 0.01,
            straggler_factor: 2.5,
            straggler_floor_s: 2.5,
        }
    }
}

/// Engine-level simulation parameters. The workload crate ships calibrated
/// values per application; these defaults describe a generic Spark 2.4 +
/// YARN deployment, whose fixed overheads are constants beside the code
/// that charges them (`engine::APP_STARTUP_S` and the driver's per-job
/// terms, `task::SHUFFLE_CONNECTION_S`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Serial driver cost of launching one task (scheduling loop).
    pub task_launch_s: f64,
    /// Execution memory the application claims, as a fraction of the
    /// unified region M when all cores run tasks (each task claims
    /// `fraction × M / cores` — Spark's fair-share execution pool). This
    /// is what the §5.3 memory factor measures: SVM's 0.202 reproduces
    /// the paper's "20.2 % of M is utilized for execution", leaving
    /// 5.6 GB per 12 GB machine for caching.
    pub exec_mem_per_task_factor: f64,
    /// Slowdown multiplier applied to a task that could not claim its
    /// execution memory (spilling).
    pub spill_penalty: f64,
    /// Runtime cache-eviction policy (Spark's default is LRU; LRC and MRD
    /// reproduce the §1 eviction-policy comparison).
    pub eviction_policy: crate::eviction::EvictionPolicyKind,
    /// Task-duration noise.
    pub noise: NoiseParams,
    /// Absolute per-run cluster-dynamics jitter, seconds: container
    /// provisioning, YARN scheduling and JVM warm-up vary between runs by
    /// a roughly constant amount regardless of data size. A uniform draw
    /// in `[0, cluster_jitter_s]` is added to the startup and a smaller
    /// per-job wobble to driver time. This is the "uncertain internal
    /// cluster dynamics" of §7.3 that makes short sample runs (Ernest's
    /// training data) noisy while leaving long runs essentially
    /// unaffected.
    pub cluster_jitter_s: f64,
    /// Ordered schedule of injected fault events (executor loss, slow
    /// nodes, transient task failures, memory pressure). Empty by
    /// default: a run with an empty plan is byte-identical to one with
    /// no chaos layer at all.
    pub faults: crate::fault::FaultPlan,
    /// Fault-tolerance policy: task retry, blacklisting, speculation.
    pub retry: crate::fault::RetryPolicy,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            task_launch_s: 0.004,
            exec_mem_per_task_factor: 0.15,
            spill_penalty: 1.6,
            eviction_policy: crate::eviction::EvictionPolicyKind::Lru,
            noise: NoiseParams::default(),
            cluster_jitter_s: 12.0,
            faults: crate::fault::FaultPlan::default(),
            retry: crate::fault::RetryPolicy::default(),
            seed: 0xC0FFEE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §2.2's worked example: 12 GB machine ⇒ M = 7.02 GB, R = 3.51 GB.
    #[test]
    fn paper_memory_layout_example() {
        let spec = MachineSpec::paper_example();
        assert_eq!(spec.unified_memory(), 7_020_000_000);
        assert_eq!(spec.min_storage(), 3_510_000_000);
    }

    #[test]
    fn cluster_totals() {
        let c = ClusterConfig::new(7, MachineSpec::paper_example());
        assert_eq!(c.total_cores(), 28);
        assert_eq!(c.total_unified_memory(), 7 * 7_020_000_000);
    }

    #[test]
    fn reserved_larger_than_ram_saturates() {
        let spec = MachineSpec {
            ram_bytes: 100,
            ..MachineSpec::paper_example()
        };
        assert_eq!(spec.unified_memory(), 0);
        assert_eq!(spec.min_storage(), 0);
    }

    #[test]
    fn noise_none_is_identity() {
        assert_eq!(NoiseParams::NONE.sigma, 0.0);
        assert_eq!(NoiseParams::NONE.straggler_factor, 1.0);
    }
}
