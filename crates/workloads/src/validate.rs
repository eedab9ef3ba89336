//! Validation harness for `Workload` implementations — the checks a
//! custom workload (like `examples/custom_workload.rs`) must satisfy for
//! Juggler's calibration stages to be applicable.

use dagflow::{LineageAnalysis, Name};

use crate::{Workload, WorkloadParams};

/// A violated workload invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadIssue {
    /// The plan failed structural validation at some parameter point.
    InvalidPlan {
        /// Human-readable description.
        detail: String,
    },
    /// A dataset's size law is not monotone in the application parameters
    /// (the §5.2 model families are all monotone; a non-monotone size
    /// cannot be fit by them).
    NonMonotoneSize {
        /// The dataset's name.
        dataset: String,
    },
    /// There is nothing to cache anywhere (no intermediate datasets at
    /// paper scale) — Juggler would produce an empty schedule family.
    NoIntermediates,
    /// The sample parameters are not actually smaller than the paper
    /// parameters, defeating the cheap-sample-run design of §5.1.
    SampleNotSmall,
    /// The intermediate-dataset *set* changes between sample and paper
    /// scale: hotspot decisions made on the sample would not transfer.
    UnstableIntermediates,
}

impl std::fmt::Display for WorkloadIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadIssue::InvalidPlan { detail } => write!(f, "invalid plan: {detail}"),
            WorkloadIssue::NonMonotoneSize { dataset } => {
                write!(f, "dataset `{dataset}` has a non-monotone size law")
            }
            WorkloadIssue::NoIntermediates => write!(f, "no intermediate datasets to cache"),
            WorkloadIssue::SampleNotSmall => {
                write!(f, "sample parameters are not smaller than paper parameters")
            }
            WorkloadIssue::UnstableIntermediates => {
                write!(
                    f,
                    "intermediate-dataset set differs between sample and paper scale"
                )
            }
        }
    }
}

/// Checks a workload against the invariants Juggler's stages rely on.
/// Returns all violations (empty = good to train).
#[must_use]
pub fn validate_workload(w: &dyn Workload) -> Vec<WorkloadIssue> {
    let mut issues = Vec::new();
    let paper = w.paper_params();
    let sample = w.sample_params();

    if sample.input_bytes() >= paper.input_bytes() {
        issues.push(WorkloadIssue::SampleNotSmall);
    }

    // Build at several scales; collect intermediate id-sets and sizes.
    let scales = [
        sample,
        WorkloadParams::auto(paper.examples / 2, paper.features / 2, sample.iterations),
        paper,
    ];
    let mut intermediate_names: Vec<Vec<Name>> = Vec::new();
    let mut sizes: Vec<Vec<(Name, u64)>> = Vec::new();
    for p in &scales {
        let app = w.build(p);
        if let Err(e) = app.validate() {
            issues.push(WorkloadIssue::InvalidPlan {
                detail: e.to_string(),
            });
            return issues;
        }
        let la = LineageAnalysis::new(&app);
        let inter = la.intermediates();
        intermediate_names.push(inter.iter().map(|&d| app.dataset(d).name.clone()).collect());
        sizes.push(
            inter
                .iter()
                .map(|&d| (app.dataset(d).name.clone(), app.dataset(d).bytes))
                .collect(),
        );
    }

    if intermediate_names.last().is_some_and(Vec::is_empty) {
        issues.push(WorkloadIssue::NoIntermediates);
    }
    if intermediate_names.windows(2).any(|w| w[0] != w[1]) {
        issues.push(WorkloadIssue::UnstableIntermediates);
    }

    // Monotonicity: every intermediate's size is non-decreasing in scale.
    for (name, _) in sizes.last().cloned().unwrap_or_default() {
        let series: Vec<u64> = sizes
            .iter()
            .filter_map(|s| s.iter().find(|(n, _)| *n == name).map(|(_, b)| *b))
            .collect();
        if series.windows(2).any(|w| w[1] < w[0]) {
            issues.push(WorkloadIssue::NonMonotoneSize {
                dataset: name.to_string(),
            });
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_workloads;

    /// Every shipped workload passes its own validation.
    #[test]
    fn shipped_workloads_are_valid() {
        for w in all_workloads() {
            let issues = validate_workload(w.as_ref());
            assert!(issues.is_empty(), "{}: {issues:?}", w.name());
        }
    }

    /// A deliberately broken workload (sample = paper scale, no reuse) is
    /// flagged.
    #[test]
    fn degenerate_workload_is_flagged() {
        use cluster_sim::SimParams;
        use dagflow::{AppBuilder, Application, ComputeCost, NarrowKind, SourceFormat};

        struct OneShot;
        impl Workload for OneShot {
            fn name(&self) -> &'static str {
                "ONESHOT"
            }
            fn paper_params(&self) -> WorkloadParams {
                WorkloadParams::auto(1_000, 1_000, 1)
            }
            fn sample_params(&self) -> WorkloadParams {
                self.paper_params() // not smaller!
            }
            fn sim_params(&self) -> SimParams {
                SimParams::default()
            }
            fn build(&self, p: &WorkloadParams) -> Application {
                let mut b = AppBuilder::new("oneshot");
                let s = b.source(
                    "in",
                    SourceFormat::DistributedFs,
                    p.examples,
                    p.input_bytes(),
                    p.partitions,
                );
                let m = b.narrow(
                    "m",
                    NarrowKind::Map,
                    &[s],
                    p.examples,
                    p.input_bytes(),
                    ComputeCost::FREE,
                );
                b.job("count", m);
                b.build().unwrap()
            }
        }
        let issues = validate_workload(&OneShot);
        assert!(
            issues.contains(&WorkloadIssue::SampleNotSmall),
            "{issues:?}"
        );
        assert!(
            issues.contains(&WorkloadIssue::NoIntermediates),
            "{issues:?}"
        );
    }
}
