#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # workloads — the five HiBench ML applications of the evaluation
//!
//! Generators for the iterative machine-learning applications Juggler is
//! evaluated on (paper Table 1): Linear Regression (LIR), Logistic
//! Regression (LOR), Principal Components Analysis (PCA), Random Forest
//! Classifier (RFC) and Support Vector Machine (SVM).
//!
//! Each generator produces a `dagflow::Application` parameterized by
//! *(examples, features, iterations, partitions)* whose structure matches
//! the paper's observations:
//!
//! * input size follows HiBench's text format — **7.45 bytes per (example
//!   × feature) cell**, which reproduces every "Input data" entry of
//!   Table 1 from its (examples, features) pair;
//! * dataset counts, intermediate-dataset counts, and the developer-cached
//!   default schedules match Table 1/Table 2;
//! * dataset ids are laid out so the paper's schedule notation (`p(1)`,
//!   `p(2) u(2) p(11)`, …) refers to the same ids here;
//! * per-dataset size laws fall inside the paper's §5.2 model families,
//!   and compute-cost constants are calibrated so hotspot detection
//!   reproduces Table 2's schedules exactly (asserted by integration
//!   tests).

pub mod common;
pub mod kmeans;
pub mod lir;
pub mod lor;
pub mod pca;
pub mod rfc;
pub mod sqljoin;
pub mod stream;
pub mod svm;
pub mod validate;

pub use common::{WorkloadParams, HIBENCH_BYTES_PER_CELL};
pub use kmeans::KMeans;
pub use lir::LinearRegression;
pub use lor::LogisticRegression;
pub use pca::Pca;
pub use rfc::RandomForest;
pub use sqljoin::SqlStarJoin;
pub use stream::MicroBatchStream;
pub use svm::SupportVectorMachine;
pub use validate::{validate_workload, WorkloadIssue};

use cluster_sim::SimParams;
use dagflow::Application;

/// A generatable benchmark application.
///
/// `Send + Sync` so trait objects can be shared with the scoped worker
/// threads of the offline-training runner; implementations are stateless
/// unit structs, so the bound costs nothing.
pub trait Workload: Send + Sync {
    /// Short uppercase name as the paper uses it (`LIR`, `LOR`, …).
    fn name(&self) -> &'static str;

    /// Builds the application plan for the given parameters.
    fn build(&self, params: &WorkloadParams) -> Application;

    /// The evaluation parameters of Table 1.
    fn paper_params(&self) -> WorkloadParams;

    /// Calibrated engine constants for this application (driver overheads,
    /// execution-memory factor, noise).
    fn sim_params(&self) -> SimParams;

    /// Tiny-sample parameters for the hotspot-detection run (§5.1 keeps
    /// "the training overhead to a minimum by running the application on a
    /// small data sample and with few iterations").
    fn sample_params(&self) -> WorkloadParams {
        let paper = self.paper_params();
        WorkloadParams {
            examples: (paper.examples / 20).max(200),
            features: (paper.features / 20).max(200),
            iterations: paper.iterations.min(3),
            partitions: 8,
        }
    }

    /// Training arrays `E` and `F` (three levels each, §5.2) for parameter
    /// calibration and execution-time model training. They span up to the
    /// paper-scale values so the recommended machine counts of the
    /// training runs cover the range the models will predict for — this
    /// is why the paper's Figure 16/Table 5 training costs are dominated
    /// by the execution-time stage.
    fn training_axes(&self) -> (Vec<f64>, Vec<f64>) {
        let p = self.paper_params();
        let e = p.examples as f64;
        let f = p.features as f64;
        (vec![e / 5.0, e / 2.0, e], vec![f / 5.0, f / 2.0, f])
    }
}

/// All five evaluated workloads, in the paper's table order.
#[must_use]
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(LinearRegression),
        Box::new(LogisticRegression),
        Box::new(Pca),
        Box::new(RandomForest),
        Box::new(SupportVectorMachine),
    ]
}
