#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # instrument — the Spark_i reproduction (paper §4)
//!
//! Juggler needs low-level runtime data Spark does not expose: the start
//! and end timestamps of *each transformation inside a task* and the size
//! of each produced partition. The paper modifies Spark so that a
//! pass-through `mapPartitionsWithIndex` profiling transformation is
//! injected between every consecutive pair of transformations; each
//! profiling operator records timestamps and partition sizes into
//! `TaskContext`, and the data lands in a central profiling database when
//! tasks finish.
//!
//! This crate reproduces that pipeline against the simulator:
//!
//! * [`inject`] rewrites an application plan, giving every dataset a
//!   profiling shadow and rewiring children (and job targets, and persist
//!   directives) to the shadows — exactly the dependency surgery of the
//!   paper's Figure 6;
//! * [`ProfilingDatabase`] is the central collector: it splits each task
//!   trace of an instrumented run at the profiling operators and folds the
//!   observations into per-dataset state as it ingests them, keeping no
//!   task, stage or observation rows;
//! * [`derive_metrics`] finishes that fold into per-transformation
//!   execution times with the §3.3 model (the three ENT cases,
//!   wave-weighted averaging of Eq. 2, and the Shuffle-Write + Shuffle-Read
//!   split of Eq. 3) and per-dataset sizes — using *only* timestamps a
//!   profiling operator could observe, never the simulator's ground truth;
//! * [`profile_run`] is the whole pipeline in one call: inject, run while
//!   each finished task folds into a database, derive;
//! * [`profile_sizes`] runs an instrumented plan and measures only the
//!   partition sizes of the datasets it is asked for — all parameter
//!   calibration (§5.2) reads of a run.

pub mod db;
pub mod inject;
pub mod metrics;
pub mod runner;

pub use db::ProfilingDatabase;
pub use inject::{inject, Instrumented, ProfilingOverhead};
pub use metrics::{derive_metrics, DatasetMetrics};
pub use runner::{profile_run, profile_sizes, ProfileRunOutput};
