#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # baselines — the systems Juggler is compared against (paper §7)
//!
//! Three families of comparators, each reimplemented from its paper's cost
//! model and adapted to schedule/configuration selection exactly the way
//! Juggler's evaluation adapts them:
//!
//! * **Dataset selection** (§7.2): LRC and MRD (DAG-aware cache-eviction
//!   policies used as selection policies), Hagedorn & Sattler '18
//!   (recycling intermediates by computation time × count), Nagel et
//!   al. '13 (benefit-per-byte without re-evaluation or unpersist), and
//!   Jindal et al. '18 (sub-expression utility). Each produces an
//!   incremental schedule family like Algorithm 1 does.
//! * **Performance prediction** (§7.3): Ernest's
//!   `T(s, m) = θ₀ + θ₁·s/m + θ₂·log m + θ₃·m` model with NNLS fitting
//!   and greedy D-optimal experiment design, trained on short
//!   small-sample runs — faithfully reproducing its blindness to cache
//!   limitation (area A of Figure 2).
//! * **Cluster sizing** (§7.5): MemTune (execution-priority memory
//!   tuning), RelM (safety factors for error-free runs) and SystemML
//!   (worst-case fit-everything estimates), each adapted to recommending
//!   a machine count as the evaluation does.
//!
//! The point of these implementations — as in the paper — is not to beat
//! the originals but to give empirical grounds for Juggler's design
//! choices under identical conditions.

pub mod ernest;
pub mod selection;
pub mod sizing;

pub use ernest::{ErnestModel, ErnestTrainer};
pub use selection::{DatasetSelector, Hagedorn, Jindal, Lrc, Mrd, Nagel, SelectionMetrics};
pub use sizing::{MemTune, RelM, SizingBaseline, SizingInputs, SystemML};
