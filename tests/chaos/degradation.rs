//! Graceful degradation of offline training: when a grid run is rejected,
//! the pipeline skips the grid point with an explanatory note instead of
//! aborting — the models fit on the surviving points and the
//! recommendation menu stays Pareto-consistent. A rejected single-run
//! stage has no points to fall back on, so training returns its error.
//!
//! The poisoned fixtures fail deterministically: at exactly one
//! experiment they build a degenerate application that lacks the dataset
//! the hotspot schedules persist, so `run_shared` rejects the schedule.
//! No seed changes that, so the pipeline runs each experiment once.

use crate::common::TinyScoring;
use juggler_suite::cluster_sim::SimParams;
use juggler_suite::dagflow::{
    AppBuilder, Application, ComputeCost, NarrowKind, Schedule, SourceFormat,
};
use juggler_suite::juggler::pipeline::{OfflineTraining, TrainingConfig, TrainingError};
use juggler_suite::workloads::{Workload, WorkloadParams};

/// [`TinyScoring`], except that the parameter sets `is_poison` picks
/// build an application with no shuffle stage, so the hotspot schedules'
/// persisted dataset does not exist and their runs are rejected.
struct PoisonedScoring {
    is_poison: fn(&WorkloadParams) -> bool,
}

/// Poisons the stage-4 cell at (e=2000, f=400), recognisable by its full
/// iteration count.
const STAGE4_POISON: PoisonedScoring = PoisonedScoring {
    is_poison: |p| {
        p.iterations == TinyScoring.paper_params().iterations
            && p.examples == 2_000
            && p.features == 400
    },
};

/// Poisons the stage-3 memory-calibration run: the one experiment at the
/// sample iteration count that is neither the sample run nor a stage-2
/// grid point.
const STAGE3_POISON: PoisonedScoring = PoisonedScoring {
    is_poison: |p| {
        let (e_axis, f_axis) = TinyScoring.training_axes();
        p.iterations == TinyScoring.sample_params().iterations
            && *p != TinyScoring.sample_params()
            && !(e_axis.contains(&(p.examples as f64)) && f_axis.contains(&(p.features as f64)))
    },
};

/// An application with a source and one map over it, and nothing else.
fn degenerate_app(p: &WorkloadParams) -> Application {
    let mut b = AppBuilder::new("tiny-poison");
    let logs = b.source(
        "events",
        SourceFormat::DistributedFs,
        p.examples,
        p.input_bytes(),
        p.partitions,
    );
    let parsed = b.narrow(
        "parsed",
        NarrowKind::Map,
        &[logs],
        p.examples,
        1024,
        ComputeCost::new(0.001, 0.0, 1e-9),
    );
    b.job("scan", parsed);
    b.default_schedule(Schedule::empty());
    b.build().expect("valid poison plan")
}

impl Workload for PoisonedScoring {
    fn name(&self) -> &'static str {
        "TINY-POISON"
    }

    fn paper_params(&self) -> WorkloadParams {
        TinyScoring.paper_params()
    }

    fn sim_params(&self) -> SimParams {
        TinyScoring.sim_params()
    }

    fn build(&self, p: &WorkloadParams) -> Application {
        if (self.is_poison)(p) {
            return degenerate_app(p);
        }
        TinyScoring.build(p)
    }
}

#[test]
fn training_skips_dead_grid_points_with_a_note() {
    let config = TrainingConfig::default();
    let (trained, diagnostics) =
        OfflineTraining::run_traced(&STAGE4_POISON, &config).expect("training survives the poison");

    let skips: Vec<&String> = diagnostics
        .notes
        .iter()
        .filter(|n| n.contains("point skipped"))
        .collect();
    assert!(
        !skips.is_empty(),
        "the poisoned cell must be skipped with a note, got notes: {:#?}",
        diagnostics.notes
    );
    for note in &skips {
        assert!(
            note.contains("stage-4 run") && !note.contains("attempt"),
            "skip notes must name the stage, and no retries: {note}"
        );
        assert!(
            note.contains("e=2000") && note.contains("f=400"),
            "skip notes must name the grid point: {note}"
        );
    }
    // At most one cell per schedule died — the rest of the grid survived
    // and the time models fitted on the surviving points.
    assert!(skips.len() <= trained.schedules.len());
    assert_eq!(trained.time_models.len(), trained.schedules.len());
    assert!(trained.costs.time_models.runs > 0, "stage 4 ran");

    // Degraded training still yields a Pareto-consistent menu.
    let paper = STAGE4_POISON.paper_params();
    let menu = trained.recommend(paper.e(), paper.f());
    assert!(!menu.options.is_empty(), "degraded menu must not be empty");
    for a in &menu.options {
        assert!(a.predicted_time_s.is_finite() && a.predicted_time_s > 0.0);
        for b in &menu.options {
            assert!(
                !(a.predicted_time_s < b.predicted_time_s
                    && a.predicted_cost_machine_min < b.predicted_cost_machine_min
                    && a.schedule_index != b.schedule_index),
                "degraded menu kept a dominated option"
            );
        }
    }

    // Degradation is deterministic: the same poison yields the same notes.
    let (_, again) =
        OfflineTraining::run_traced(&STAGE4_POISON, &config).expect("training survives again");
    assert_eq!(diagnostics.notes, again.notes);
}

#[test]
fn healthy_training_reports_no_skipped_points() {
    let (_, diagnostics) = OfflineTraining::run_traced(&TinyScoring, &TrainingConfig::default())
        .expect("healthy training succeeds");
    assert!(
        diagnostics.notes.iter().all(|n| !n.contains("skipped")),
        "healthy runs must not report skipped points: {:#?}",
        diagnostics.notes
    );
}

#[test]
fn rejected_memory_calibration_run_fails_training() {
    let config = TrainingConfig::default();
    let healthy = OfflineTraining::run(&TinyScoring, &config).expect("healthy training succeeds");
    // Stages 1 and 2 never meet the poison, so the poisoned training
    // calibrates memory with the healthy training's first schedule, on an
    // application that lacks its dataset.
    let first = &healthy.schedules[0].schedule;
    let err = OfflineTraining::run(&STAGE3_POISON, &config)
        .expect_err("a rejected stage-3 run has no point to skip");
    let TrainingError::Dag(err) = err else {
        panic!("expected the schedule's rejection, got {err}");
    };
    let expected = degenerate_app(&TinyScoring.sample_params())
        .check_schedule(first)
        .expect_err("the degenerate app lacks the schedule's dataset");
    assert_eq!(err, expected);
}
