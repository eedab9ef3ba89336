#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # modeling — model fitting for Juggler's calibration stages
//!
//! Juggler fits two families of linear-in-coefficients models (paper §5.2,
//! §5.4): dataset-size models and execution-time models over application
//! parameters *e* (examples) and *f* (features), extended with *i*
//! (iterations) for the §6.1 discussion. Fitting mirrors the paper's use of
//! scipy's `curve_fit` with enforced positive bounds: we implement
//! non-negative least squares (Lawson–Hanson), plus ordinary least squares
//! via Householder QR for the unconstrained cases, leave-one-out
//! cross-validation for model selection, and the experiment-design helpers
//! (full-factorial grids for Juggler, greedy D-optimal selection for
//! Ernest's optimal experiment design).
//!
//! Everything here is dependency-free numerics over `f64`, sized for the
//! small design matrices these stages produce (tens of rows, at most a
//! handful of columns). One model selection runs every NNLS solve (each
//! candidate's holdouts, the winner's refit and its residuals) in one
//! workspace it owns, so its solves allocate nothing once the buffers have
//! grown. Every solve still runs: the `nnls` profiler scopes and the
//! `modeling_nnls_*` counters enter run manifests.

pub mod design;
pub mod families;
pub mod fit;
pub mod linalg;
pub mod metrics;
pub mod nnls;

pub use design::{d_optimal_greedy, full_factorial};
pub use families::{ModelSpec, Term};
pub use fit::{
    fit_best, fit_best_with_report, fit_spec, loocv_residuals, CandidateScore, CrossValidated,
    FitError, FitReport, FittedModel, ModelSummary, Sample,
};
pub use linalg::Matrix;
pub use metrics::{accuracy_pct, mean_relative_error};
pub use nnls::{nnls, nnls_with_stats};
