//! Framework-wide observability for the Juggler reproduction.
//!
//! Two concerns live here because every other crate needs both:
//!
//! 1. **A metrics registry** ([`Registry`]) — counters, gauges, and
//!    log2 histograms scoped to the run that records into them. A run
//!    installs its own registry on its thread ([`Registry::install`]),
//!    worker threads inherit it through [`prof::ForkCtx::attach`], and
//!    call sites record only when [`Registry::current`] finds one — with
//!    none in scope they pay one thread-local read and one branch. There
//!    is no process-wide registry and no on/off switch. Snapshots
//!    export to Prometheus text format and JSON, with deterministic
//!    (sorted, byte-stable) output so exports can be golden-tested.
//! 2. **Formatting helpers** ([`fmt_sig`], [`fmt_duration_s`],
//!    [`fmt_bytes`]) — the single source of truth for human-facing
//!    numbers. Reports across `core`, `bench`, and the CLI route
//!    durations and sizes through these so units and precision stay
//!    consistent (3 significant figures, `ms`/`s` tiers).
//!
//! The registry deliberately distinguishes *stable* metrics (pure
//! functions of the work performed — cache hits, NNLS iterations) from
//! *timing* metrics (host wall-clock). Only stable metrics appear in
//! the default export, which is what makes `juggler metrics` output
//! byte-identical across worker-thread counts and machines.
//!
//! On top of those two, this crate hosts the *cross-run* observability
//! primitives: a dependency-free SHA-256 ([`sha256_hex`]) for content
//! addressing, the on-disk run ledger ([`LedgerStore`]) that files run
//! manifests under `results/runs/`, and the perf-regression gate
//! ([`BaselineSpec`]) behind `juggler perf-report`. The *typed* manifest
//! schema lives in `juggler-core::provenance` (core depends on obs, not
//! the other way round); obs deliberately only knows how to hash, store,
//! and gate JSON documents.
//!
//! Two further observability surfaces round the crate out: the
//! hierarchical phase profiler ([`prof`]) — scoped spans merged into a
//! deterministic call tree with tree/flamegraph/JSON exports and
//! node-by-node diffing — and leveled stderr diagnostics ([`log`],
//! `JUGGLER_LOG=warn|info|debug`, off by default so golden-tested
//! output stays byte-stable).
//!
//! Finally, [`health`] holds the streaming model-quality primitives:
//! fixed-point drift detectors (Page–Hinkley, CUSUM, EWMA bands) and
//! declarative error budgets ([`SloSpec`]) that
//! `juggler-core::watchtower` folds the run ledger through.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod format;
pub mod hash;
pub mod health;
mod ledger;
pub mod log;
mod perf;
pub mod prof;
mod registry;

pub use format::{fmt_bytes, fmt_bytes_delta, fmt_duration_s, fmt_percent, fmt_rate, fmt_sig};
pub use hash::{sha256, sha256_hex, to_hex, Sha256};
pub use health::{
    fmt_micro_pct, to_micro, Cusum, EwmaBand, Firing, PageHinkley, SloSpec, Verdict, MICRO,
};
pub use ledger::{write_atomic, LedgerEntryMeta, LedgerStore, RUN_ID_LEN};
pub use perf::{
    default_checks, lookup, regression_attribution, BaselineSpec, BenchReport, Check, CheckOp,
    CheckOutcome, PerfReport,
};
pub use registry::{
    log2_bucket, log2_quantile, Counter, Gauge, Histogram, InstallGuard, Metric, MetricClass,
    MetricKind, MetricValue, Registry, Snapshot, HIST_BUCKETS,
};
