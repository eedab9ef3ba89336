//! Error type for plan construction and validation.

use std::fmt;

use crate::dataset::DatasetId;

/// Errors raised while building or validating an [`crate::Application`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A dataset references a parent id that does not exist.
    UnknownParent {
        /// The dataset holding the dangling reference.
        child: DatasetId,
        /// The missing parent id.
        parent: DatasetId,
    },
    /// A dataset's parent has a greater-or-equal id, violating the
    /// topological id-order invariant (and possibly introducing a cycle).
    ParentNotOlder {
        /// The offending dataset.
        child: DatasetId,
        /// The parent with a non-smaller id.
        parent: DatasetId,
    },
    /// A job targets a dataset id that does not exist.
    UnknownJobTarget {
        /// Index of the job in the application's job list.
        job_index: usize,
        /// The missing target id.
        target: DatasetId,
    },
    /// A dataset's stored id does not match its index in the dataset list.
    IdMismatch {
        /// Index in the list.
        index: usize,
        /// Id stored on the dataset at that index.
        found: DatasetId,
    },
    /// A source dataset declared parents, or a transformation declared none.
    ArityMismatch {
        /// The offending dataset.
        dataset: DatasetId,
        /// Human-readable description of the violated arity rule.
        detail: String,
    },
    /// The application has no jobs; nothing would ever be computed.
    NoJobs,
    /// A schedule's notation holds a token that is not `p(N)` or `u(N)`.
    MalformedScheduleToken {
        /// The offending whitespace-separated token.
        token: String,
    },
    /// A schedule refers to a dataset that does not exist in the application.
    UnknownScheduleDataset {
        /// The missing dataset id.
        dataset: DatasetId,
    },
    /// A schedule unpersists a dataset it never persisted (or unpersists
    /// twice).
    UnpersistWithoutPersist {
        /// The offending dataset id.
        dataset: DatasetId,
    },
    /// A schedule persists the same dataset twice.
    DuplicatePersist {
        /// The offending dataset id.
        dataset: DatasetId,
    },
    /// A dataset has an invalid annotation (zero partitions, negative cost…).
    InvalidAnnotation {
        /// The offending dataset.
        dataset: DatasetId,
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownParent { child, parent } => {
                write!(f, "dataset {child} references unknown parent {parent}")
            }
            DagError::ParentNotOlder { child, parent } => write!(
                f,
                "dataset {child} references parent {parent} with a non-smaller id \
                 (parents must be created before children)"
            ),
            DagError::UnknownJobTarget { job_index, target } => {
                write!(f, "job #{job_index} targets unknown dataset {target}")
            }
            DagError::IdMismatch { index, found } => {
                write!(f, "dataset at index {index} carries id {found}")
            }
            DagError::ArityMismatch { dataset, detail } => {
                write!(f, "dataset {dataset}: {detail}")
            }
            DagError::NoJobs => write!(f, "application has no jobs"),
            DagError::MalformedScheduleToken { token } => {
                write!(
                    f,
                    "malformed schedule token `{token}` (expected p(N) or u(N))"
                )
            }
            DagError::UnknownScheduleDataset { dataset } => {
                write!(f, "schedule references unknown dataset {dataset}")
            }
            DagError::UnpersistWithoutPersist { dataset } => {
                write!(
                    f,
                    "schedule unpersists {dataset} which is not persisted at that point"
                )
            }
            DagError::DuplicatePersist { dataset } => {
                write!(f, "schedule persists {dataset} twice")
            }
            DagError::InvalidAnnotation { dataset, detail } => {
                write!(f, "dataset {dataset} has invalid annotation: {detail}")
            }
        }
    }
}

impl std::error::Error for DagError {}
