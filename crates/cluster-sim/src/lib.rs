#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cluster-sim — a discrete-event Spark-like cluster simulator
//!
//! The execution substrate for the Juggler (SIGMOD '22) reproduction. The
//! real paper runs on a 12-node Spark 2.4 cluster; this crate replaces that
//! testbed with a simulator that implements the *mechanisms* Juggler's
//! observations rest on:
//!
//! * **Unified memory (§2.2)** — per machine, `M = (RAM − reserved) ×
//!   memory_fraction` shared between execution and storage, with a floor `R
//!   = M × storage_fraction` below which cached blocks are safe from
//!   execution pressure. Blocks of the dataset currently being cached are
//!   never evicted to make room for its own new blocks — Spark's rule, and
//!   the reason a dataset bigger than the cluster's cache keeps a
//!   `capacity/size` fraction resident and recomputes the rest every
//!   iteration (the paper's *area A*).
//! * **Wave-based task execution (§2.1, §3.3)** — stages run `num_tasks`
//!   tasks over `machines × cores` slots with cache-locality preference,
//!   seeded lognormal noise and rare stragglers.
//! * **Shuffle and driver overheads** — per-job serial driver time, a
//!   per-machine coordination term, and all-to-all shuffle reads whose
//!   per-peer overhead grows with the number of machines (the paper's
//!   *area B*).
//! * **Schedule semantics (§5.1)** — persist on first computation;
//!   `u(X) … p(Y)` swaps X's blocks out partition-by-partition as Y's
//!   blocks materialize, so the pair's peak footprint is `max(|X|, |Y|)`.
//!
//! Every run is deterministic given [`SimParams::seed`]. Reports expose
//! task-level traces (consumed by the `instrument` crate, which plays the
//! role of the paper's Spark_i) and cache statistics (consumed by Juggler's
//! memory calibration).

pub mod config;
pub mod engine;
pub mod eviction;
pub mod executor;
pub mod fault;
pub mod memory;
pub mod report;
pub mod rng;
pub mod task;
pub mod tenant;
pub mod trace;
pub mod trace_view;

pub use config::{ClusterConfig, MachineSpec, MemoryLayout, NoiseParams, SimParams};
pub use engine::{Engine, EnginePrep, RunOptions};
pub use eviction::EvictionPolicyKind;
pub use fault::{
    BlacklistEvent, FaultEvent, FaultKind, FaultOutcome, FaultPlan, FaultSummary, RetryPolicy,
};
pub use memory::{BlockLayout, BlockStore};
pub use report::{
    CacheStats, ContentionSummary, DatasetCacheStats, PipelineStep, RunReport, StageTiming,
    StepKind, TaskTrace,
};
pub use tenant::{TenancyReport, Tenant, TenantSet};
pub use trace::{
    DurationHistogram, RunTrace, TraceConfig, TraceCounters, TraceEvent, TraceRecorder,
};
pub use trace_view::render_gantt;
