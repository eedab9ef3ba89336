#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # dagflow — RDD-style lineage DAGs for the Juggler reproduction
//!
//! This crate is the structural substrate under the Juggler (SIGMOD '22)
//! reproduction. It models what Apache Spark calls the *logical plan*:
//!
//! * [`Dataset`]s (Spark RDDs) produced by [`OpKind`]s — sources, narrow
//!   transformations, and wide (shuffle) transformations;
//! * [`Job`]s, each triggered by one action on a target dataset;
//! * [`Name`]s — dataset and action names held inline up to 22 bytes;
//! * an [`Application`] — an ordered list of jobs over a shared dataset graph;
//! * [`Lineages`] — the known applications a grid point's build sizes
//!   instead of building afresh;
//! * [`Schedule`]s — ordered persist/unpersist instruction lists (Juggler's
//!   unit of caching decisions);
//! * [`LineageAnalysis`] — the merged-DAG analysis of the paper's §3.1:
//!   computation counts, cache-aware *pulls* (effective computation counts
//!   given a set of cached datasets), recursive chain costs, and the
//!   reachability predicates Algorithm 1 needs;
//! * [`stages`] — splitting a job at shuffle boundaries into stages, as
//!   Spark's `DAGScheduler` does (§2.1).
//!
//! The crate is engine-agnostic: it knows *structure* and *annotations*
//! (record counts, byte sizes, compute-cost coefficients) but does not
//! execute anything. Execution lives in `cluster-sim`.
//!
//! ## Invariants
//!
//! * Dataset ids are dense indices into [`Application::datasets`].
//! * A dataset's parents always have strictly smaller ids, which makes every
//!   application acyclic by construction and id order a topological order.
//! * Every job targets an existing dataset.
//!
//! [`AppBuilder`] enforces these; [`Application::validate`] re-checks them on
//! deserialized plans.

pub mod analysis;
pub mod app;
pub mod bitset;
pub mod builder;
pub mod dataset;
pub mod dot;
pub mod error;
pub mod name;
pub mod ops;
pub mod schedule;
pub mod stages;

pub use analysis::LineageAnalysis;
pub use app::{Application, Job, JobId};
pub use builder::{AppBuilder, Lineages};
pub use dataset::{ComputeCost, Dataset, DatasetId, Parents, Sizes};
pub use dot::to_dot;
pub use error::DagError;
pub use name::Name;
pub use ops::{NarrowKind, OpKind, SourceFormat, WideKind};
pub use schedule::{Schedule, ScheduleOp};
pub use stages::{Stage, StageId, StagePlan, StagePlanner};

/// Byte counts for dataset and partition sizes.
pub type Bytes = u64;

/// Wall-clock durations, in seconds.
pub type Seconds = f64;
