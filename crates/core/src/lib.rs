#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # juggler — autonomous cost optimization and performance prediction
//!
//! Reproduction of **Juggler** (Al-Sayeh, Memishi, Jibril, Paradies,
//! Sattler — SIGMOD '22): an end-to-end, training-based framework that,
//! for iterative data-intensive applications,
//!
//! 1. **selects appropriate datasets to cache** (*hotspot detection*,
//!    Algorithm 1) from a single instrumented sample run,
//! 2. **predicts the sizes of the selected datasets** for any user-chosen
//!    application parameters (*parameter calibration*),
//! 3. **recommends the cluster configuration** that caches them without
//!    eviction (*memory calibration* — the memory-factor model), and
//! 4. **predicts execution time and cost** per schedule (*execution-time
//!    models*), offering end users a Pareto menu of schedules.
//!
//! The crate orchestrates the substrates of this workspace: `dagflow`
//! (lineage), `cluster-sim` (the simulated Spark cluster standing in for
//! the paper's testbed), `instrument` (Spark_i) and `modeling` (NNLS model
//! fitting).
//!
//! ## Quick start
//!
//! ```no_run
//! use juggler::pipeline::{OfflineTraining, TrainingConfig};
//! use workloads::{Workload, LogisticRegression};
//!
//! let workload = LogisticRegression;
//! let trained = OfflineTraining::run(&workload, &TrainingConfig::default()).unwrap();
//! let menu = trained.recommend(70_000.0, 50_000.0);
//! for option in &menu.options {
//!     println!(
//!         "{} → {} machines, {:.0} s, {:.1} machine-min",
//!         option.schedule, option.machines, option.predicted_time_s,
//!         option.predicted_cost_machine_min
//!     );
//! }
//! ```

pub mod chaos;
pub mod diagnostics;
pub mod doctor;
pub mod hotspot;
pub mod memory_calibration;
pub mod parallel;
pub mod param_calibration;
pub mod pipeline;
pub mod provenance;
pub mod recommend;
pub mod summary;
pub mod tenants;
pub mod time_model;
pub mod transfer;
pub mod watchtower;

pub use chaos::{build_plan, run_chaos, ChaosConfig, ChaosOutcome, PlanKind, ResidencyCheck};
pub use diagnostics::{LedgerEntry, PredictionLedger, TrainingDiagnostics};
pub use doctor::{doctor, DoctorReport};
pub use hotspot::{
    detect_hotspots, detect_hotspots_audited, AuditOutcome, DatasetAudit, DatasetMetricsView,
    HotspotAudit, HotspotConfig, RankedSchedule, ScheduleAudit,
};
pub use memory_calibration::{MemoryCalibration, MemoryFactor, ScaleOutcome, ScaledParams};
pub use parallel::{resolve_threads, run_indexed, try_run_indexed};
pub use param_calibration::{ParamCalibration, SizeModel};
pub use pipeline::{OfflineTraining, TrainedJuggler, TrainingConfig};
pub use provenance::{
    schedule_digest, DiffTolerances, Drift, ManifestContent, ManifestDiff, ManifestEnvelope,
    ModelRecord, RunManifest, ScheduleRecord,
};
pub use recommend::{CostModel, MachineMinutes, Recommendation, RecommendationMenu, TieredHourly};
pub use summary::model_card;
pub use tenants::{
    run_tenants, workload_by_name, TenantSpec, TenantsOutcome, TenantsSpec, DRILL_RAM_BYTES,
};
pub use time_model::TimeModel;
pub use transfer::{select_probes, InstanceCatalog, InstanceType, TransferModel};
pub use watchtower::{
    ledger_samples, BudgetHealth, HealthReport, ModelHealth, ModelSample, RefitAdvice,
    ResidualSeed, RunSample, Watchtower, SAMPLE_CACHE_FILE, SAMPLE_SCHEMA_VERSION,
};
