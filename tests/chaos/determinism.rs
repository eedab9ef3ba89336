//! Chaos determinism across worker pools: the drill's reports — and the
//! provenance manifest of a training run executed alongside them — must
//! be bit-identical whether `JUGGLER_THREADS` is 1, 2, or 8. Faults,
//! retries, and speculative copies live inside the single-threaded
//! engine, so the worker pool must have no way to leak into a digest.
//!
//! One test function on purpose: the environment variable is
//! process-wide.

use crate::common::TinyScoring;
use juggler_suite::juggler::chaos::{run_chaos, ChaosConfig, PlanKind};
use juggler_suite::juggler::parallel::THREADS_ENV;
use juggler_suite::juggler::pipeline::TrainingConfig;
use juggler_suite::juggler::provenance::RunManifest;
use juggler_suite::workloads::Workload;

#[test]
fn chaos_runs_are_bit_identical_across_thread_counts() {
    let cfg = ChaosConfig {
        kind: PlanKind::Drill,
        machines: 3,
        seed: 0xC4A05,
    };

    let mut digests = Vec::new();
    let mut renders = Vec::new();
    let mut manifest_ids = Vec::new();
    for threads in [1_usize, 2, 8] {
        std::env::set_var(THREADS_ENV, threads.to_string());
        let out = run_chaos(&TinyScoring, &cfg).expect("drill runs");
        digests.push((out.baseline.digest(), out.chaos.digest()));
        renders.push(out.render());

        let config = TrainingConfig {
            threads,
            ..TrainingConfig::default()
        };
        let report =
            juggler_suite::juggler::doctor(&TinyScoring, &config).expect("doctor succeeds");
        let manifest = RunManifest::from_doctor(&report, &config, &TinyScoring.paper_params());
        manifest_ids.push((manifest.id(), manifest.content_hash.clone()));
    }
    std::env::remove_var(THREADS_ENV);

    for other in &digests[1..] {
        assert_eq!(
            &digests[0], other,
            "chaos run digests must not depend on the worker pool"
        );
    }
    for other in &renders[1..] {
        assert_eq!(
            &renders[0], other,
            "the rendered chaos report must not depend on the worker pool"
        );
    }
    for other in &manifest_ids[1..] {
        assert_eq!(
            &manifest_ids[0], other,
            "RunManifest ids must stay stable while chaos drills run"
        );
    }
}
