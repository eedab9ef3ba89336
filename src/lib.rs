#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Umbrella crate for the Juggler reproduction.
//!
//! Re-exports every member crate under one roof so that examples and
//! cross-crate integration tests can use a single dependency. Library users
//! who only need a subset should depend on the member crates directly.

pub use baselines;
pub use cluster_sim;
pub use dagflow;
pub use instrument;
pub use juggler;
pub use modeling;
pub use obs;
pub use workloads;
