//! Sizing a lineage builds what a fresh build builds. Offline training
//! builds each lineage once and sizes the other grid points against it
//! (`Workload::build_sized` on a `dagflow::Lineages` builder), and stage
//! 2 runs each point's instrumented plan as the injected lineage with the
//! point's sizes (`Instrumented::sized`). For every workload family, each
//! stage-2 grid point (sized against the stage-1 sample app, at the
//! sample's iteration count) and each stage-4 grid point (sized against
//! the first point's fresh build, at the paper's) must be byte-identical
//! to `Workload::build` of the same parameters, as JSON and as SHA-256,
//! and must name its lineage; each stage-2 point's sized instrumented plan
//! must equal `inject` of the fresh build. The tests run in debug builds,
//! where the sizing builder also formats every name it reuses and checks
//! it against the lineage's.

use juggler_suite::dagflow::{Application, Lineages};
use juggler_suite::instrument::{inject, ProfilingOverhead};
use juggler_suite::juggler::{workload_by_name, ParamCalibration};
use juggler_suite::obs::sha256_hex;
use juggler_suite::workloads::{Workload, WorkloadParams};

const WORKLOADS: [&str; 8] = [
    "LIR", "LOR", "PCA", "RFC", "SVM", "KMEANS", "SQLJOIN", "STREAM",
];

/// The training grid's parameters at `iterations`.
fn grid(w: &dyn Workload, iterations: u32) -> Vec<WorkloadParams> {
    let (e_axis, f_axis) = w.training_axes();
    ParamCalibration::training_grid(&e_axis, &f_axis)
        .iter()
        .map(|&(e, f)| WorkloadParams::auto(e as u64, f as u64, iterations))
        .collect()
}

fn json(app: &Application) -> String {
    serde_json::to_string(app).expect("application serializes")
}

/// Sizes `params` against `lineage` and checks it against a fresh build;
/// returns the sized app and the fresh one.
fn sized_equals_fresh(
    w: &dyn Workload,
    lineage: &Application,
    params: &WorkloadParams,
    what: &str,
) -> (Application, Application) {
    let known = Lineages::new(vec![lineage]);
    let sized = w.build_sized(params, &known);
    assert_eq!(
        known.take_matched(),
        Some(0),
        "{what}: lineage not repeated"
    );
    let fresh = w.build(params);
    let (got, want) = (json(&sized), json(&fresh));
    assert_eq!(
        sha256_hex(got.as_bytes()),
        sha256_hex(want.as_bytes()),
        "{what}: digest"
    );
    assert_eq!(got, want, "{what}: JSON");
    (sized, fresh)
}

#[test]
fn stage2_points_sized_against_the_sample_lineage_equal_fresh_builds() {
    for name in WORKLOADS {
        let w = workload_by_name(name).expect("known workload");
        let sample = w.sample_params();
        let lineage = w.build(&sample);
        let instrumented = inject(&lineage, ProfilingOverhead::default());
        for (gi, params) in grid(w.as_ref(), sample.iterations).iter().enumerate() {
            let what = format!("{name} stage-2 point {gi}");
            let (sized, fresh) = sized_equals_fresh(w.as_ref(), &lineage, params, &what);
            let got = json(&instrumented.sized(&sized));
            let want = json(&inject(&fresh, ProfilingOverhead::default()).app);
            assert_eq!(
                sha256_hex(got.as_bytes()),
                sha256_hex(want.as_bytes()),
                "{what}: instrumented digest"
            );
            assert_eq!(got, want, "{what}: instrumented JSON");
        }
    }
}

#[test]
fn stage4_points_sized_against_the_first_point_equal_fresh_builds() {
    for name in WORKLOADS {
        let w = workload_by_name(name).expect("known workload");
        let points = grid(w.as_ref(), w.paper_params().iterations);
        let lineage = w.build(&points[0]);
        for (gi, params) in points.iter().enumerate() {
            let what = format!("{name} stage-4 point {gi}");
            sized_equals_fresh(w.as_ref(), &lineage, params, &what);
        }
    }
}
