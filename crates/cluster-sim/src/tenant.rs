//! Multi-tenant concurrent simulation: N applications share one cluster
//! under FAIR-style slot sharing and a unified cache pool.
//!
//! The paper's engine assumes each application owns the cluster; Yang et
//! al. (intermediate-data caching for parallel frameworks) show that
//! co-running jobs contending for unified memory change which datasets
//! are worth caching. This module models that regime on the engine's own
//! code path: each active tenant is one job stepper — the per-run state
//! and job body that [`crate::Engine::run`] steps to completion — and the
//! tenancy runner only decides which stepper runs its next job, on what
//! share of the cluster, against which tenant's view of the pool:
//!
//! - **FAIR slot sharing.** Each tenant runs its jobs against a private
//!   executor grid resized at job boundaries to
//!   `max(1, ⌊cores × w_t / Σ w⌋)` over the tenants present (arrived,
//!   unfinished, weight > 0). The per-task execution-memory grant divides
//!   by the share, so a squeezed tenant runs fewer, hungrier tasks — the
//!   FAIR scheduler's "fewer slots" expressed through the existing
//!   [`crate::executor::run_stage`] math, untouched.
//! - **Shared cache pool.** One [`BlockStore`] spans every tenant's
//!   datasets via a concatenated [`crate::memory::BlockLayout`]; tenant-
//!   local dataset ids are shifted into the combined space inside the
//!   store, so engine and task code run unmodified. One tenant's inserts
//!   evict another's LRU blocks, and the store attributes each
//!   cross-tenant eviction to both sides.
//! - **Interleaving.** Tenants advance job-at-a-time in global-clock
//!   order (min cursor, ties to the lower index) — strictly sequential,
//!   so every result is bit-identical across `JUGGLER_THREADS` settings.
//!   All *reported* times stay on each tenant's own clock (seconds since
//!   its arrival), which keeps a lone active tenant byte-identical to a
//!   plain [`crate::Engine::run`] of the same configuration.
//!
//! Per-tenant fault plans ([`crate::fault::FaultPlan`] in each tenant's
//! [`SimParams`]) fire on the tenant's own timeline, so every tenancy
//! scenario composes with chaos coverage for free.

use std::sync::Arc;

use dagflow::{Application, DagError, DatasetId, Schedule};

use crate::config::{ClusterConfig, MachineSpec, SimParams};
use crate::engine::{EnginePrep, JobStepper, RunOptions};
use crate::memory::{BlockLayout, BlockStore};
use crate::report::{ContentionSummary, RunReport};

/// One application in a [`TenantSet`]: what to run, when it arrives, and
/// its FAIR scheduling weight.
#[derive(Debug, Clone)]
pub struct Tenant<'a> {
    /// The tenant's application.
    pub app: &'a Application,
    /// Persistence schedule the engine enforces for this tenant.
    pub schedule: Arc<Schedule>,
    /// Simulation parameters (seed, noise, faults, …) of this tenant's
    /// run. The shared pool's eviction policy comes from tenant 0.
    pub params: SimParams,
    /// Seconds after cluster start this tenant arrives. Reported times
    /// stay on the tenant's own clock; the offset orders tenants on the
    /// global clock.
    pub arrival_offset_s: f64,
    /// FAIR scheduling weight. A weight `≤ 0` marks the tenant
    /// *inactive*: admitted to the set but scheduled no slots — it runs
    /// nothing and must be invisible in the other tenants' results.
    pub weight: f64,
}

impl<'a> Tenant<'a> {
    /// A weight-1, offset-0 tenant — the common case.
    #[must_use]
    pub fn new(app: &'a Application, schedule: Arc<Schedule>, params: SimParams) -> Self {
        Tenant {
            app,
            schedule,
            params,
            arrival_offset_s: 0.0,
            weight: 1.0,
        }
    }

    fn active(&self) -> bool {
        self.weight > 0.0
    }
}

/// A set of applications sharing one cluster.
#[derive(Debug, Clone)]
pub struct TenantSet<'a> {
    /// The shared cluster every tenant runs on.
    pub cluster: ClusterConfig,
    /// The tenants, in admission order (index = tenant id).
    pub tenants: Vec<Tenant<'a>>,
}

/// Result of a [`TenantSet::run`]: one [`RunReport`] per tenant (same
/// order as the set) plus the global makespan.
#[derive(Debug, Clone)]
pub struct TenancyReport {
    /// Per-tenant reports. Times inside each report are seconds since
    /// that tenant's arrival; inactive tenants get an empty placeholder.
    pub reports: Vec<RunReport>,
    /// Global wall clock when the last tenant finished: the maximum of
    /// `arrival_offset_s + total_time_s` over active tenants.
    pub makespan_s: f64,
}

impl TenancyReport {
    /// Every cross-tenant eviction suffered by someone was inflicted by
    /// someone else: `Σ suffered == Σ inflicted`. A violation means the
    /// store's attribution lost an event.
    #[must_use]
    pub fn cross_evictions_balance(&self) -> bool {
        let suffered: u64 = self
            .reports
            .iter()
            .map(|r| r.contention.cross_evictions_suffered)
            .sum();
        let inflicted: u64 = self
            .reports
            .iter()
            .map(|r| r.contention.cross_evictions_inflicted)
            .sum();
        suffered == inflicted
    }
}

impl<'a> TenantSet<'a> {
    /// Runs every tenant to completion on the shared cluster. When only
    /// one tenant is active (the rest weight `≤ 0`), its report —
    /// including its digest — is byte-identical to the plain engine's.
    ///
    /// # Errors
    /// Fails when the set is empty or any tenant's schedule references
    /// datasets outside its application.
    pub fn run(&self, options: RunOptions) -> Result<TenancyReport, DagError> {
        if self.tenants.is_empty() {
            return Err(DagError::NoJobs);
        }
        for t in &self.tenants {
            t.app.check_schedule(&t.schedule)?;
        }
        let _prof = obs::prof::scope("sim");
        let machines = self.cluster.machines.max(1);

        // One stepper per active tenant; inactive tenants build nothing,
        // hold no block slots and finish with a placeholder report.
        let mut steppers: Vec<Option<JobStepper<'_>>> = self
            .tenants
            .iter()
            .map(|t| {
                t.active().then(|| {
                    let prep = Arc::new(EnginePrep::new(t.app));
                    JobStepper::new(t.app, &self.cluster, &t.params, prep, &t.schedule, options)
                })
            })
            .collect();
        let active_count = steppers.iter().flatten().count();
        let mut reports: Vec<Option<RunReport>> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                (!t.active()).then(|| placeholder_report(t, ti, self.tenants.len(), machines))
            })
            .collect();
        let mut store = self.shared_store(
            steppers
                .iter()
                .map(|s| s.as_ref().map_or(&[][..], JobStepper::persisted)),
        );

        let mut makespan_s: f64 = 0.0;
        loop {
            // Next tenant on the global clock: running, min `arrival +
            // local now`; ties go to the lower index.
            let mut chosen: Option<(usize, f64)> = None;
            for (ti, (t, s)) in self.tenants.iter().zip(&steppers).enumerate() {
                let Some(s) = s else { continue };
                let cursor = t.arrival_offset_s + s.now();
                if chosen.is_none_or(|(_, c)| cursor < c) {
                    chosen = Some((ti, cursor));
                }
            }
            let Some((ti, global_now)) = chosen else {
                break;
            };
            let tenant = &self.tenants[ti];

            // FAIR share at this instant: running tenants that have
            // arrived by the chosen cursor.
            let present: f64 = self
                .tenants
                .iter()
                .zip(&steppers)
                .filter(|(t, s)| s.is_some() && t.arrival_offset_s <= global_now)
                .map(|(t, _)| t.weight)
                .sum();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let share = ((f64::from(self.cluster.spec.cores) * tenant.weight / present).floor()
                as u32)
                .max(1);
            let fair = ClusterConfig::new(
                machines,
                MachineSpec {
                    cores: share,
                    ..self.cluster.spec
                },
            );

            store.set_active_tenant(ti);
            let stepper = steppers[ti].as_mut().expect("chosen tenant is running");
            stepper.step_job(&mut store, &fair, tenant.arrival_offset_s, None);
            if !stepper.done() {
                continue;
            }
            // Tenant finished: report it *now*, so later tenants' activity
            // cannot leak into its statistics.
            let stepper = steppers[ti].take().expect("chosen tenant is running");
            // A lone active tenant saw no contention-capable co-tenant:
            // its summary stays quiet, so its digest matches the plain
            // engine's.
            let contention = if active_count >= 2 {
                let (suffered, inflicted, half_life) = store.tenant_contention(ti);
                ContentionSummary {
                    tenant: ti as u32,
                    tenants: active_count as u32,
                    weight: tenant.weight,
                    arrival_offset_s: tenant.arrival_offset_s,
                    slot_wait_s: stepper.slot_wait_s(),
                    cross_evictions_suffered: suffered,
                    cross_evictions_inflicted: inflicted,
                    residency_half_life_s: half_life,
                }
            } else {
                ContentionSummary::default()
            };
            let report = RunReport {
                contention,
                ..stepper.finish(&store, Arc::clone(&tenant.schedule))
            };
            makespan_s = makespan_s.max(tenant.arrival_offset_s + report.total_time_s);
            reports[ti] = Some(report);
            // The tenant's executors exit with it: its cached blocks leave
            // the shared pool. A drop, not an eviction — the report above
            // already captured its statistics, and departed tenants can no
            // longer *suffer* evictions, which keeps `Σ suffered == Σ
            // inflicted` exact.
            for d in 0..tenant.app.dataset_count() as u32 {
                store.drop_dataset(DatasetId(d));
            }
        }

        let reports: Vec<RunReport> = reports.into_iter().map(|r| r.expect("all ran")).collect();
        record_tenancy_metrics(&reports);
        Ok(TenancyReport {
            reports,
            makespan_s,
        })
    }

    /// The shared cache pool: one store over the tenants' concatenated
    /// persisted-only layouts (`persisted` holds each tenant's flags, in
    /// tenant order; an inactive tenant's are empty), where tenant `t`
    /// owns global dataset ids
    /// `base[t]..base[t + 1]`. The pool's eviction policy is tenant 0's —
    /// one shared store has one policy.
    fn shared_store<'p>(&self, persisted: impl IntoIterator<Item = &'p [bool]>) -> BlockStore {
        let layout = BlockLayout::persisted(self.tenants.iter().map(|t| t.app).zip(persisted));
        let mut store = BlockStore::with_policy(
            &self.cluster,
            layout,
            self.tenants[0].params.eviction_policy,
        );
        let mut base: Vec<u32> = vec![0];
        for t in &self.tenants {
            base.push(base.last().unwrap() + t.app.dataset_count() as u32);
        }
        store.enable_tenancy(base);
        store
    }
}

/// The empty report of an inactive (weight `≤ 0`) tenant: admitted,
/// scheduled nothing, ran nothing. Its contention summary self-describes
/// the admission (index, set size, zero weight) without ever touching
/// the pool.
fn placeholder_report(tenant: &Tenant<'_>, ti: usize, tenants: usize, machines: u32) -> RunReport {
    RunReport {
        app: tenant.app.name().to_owned(),
        schedule: Arc::clone(&tenant.schedule),
        machines,
        contention: ContentionSummary {
            tenant: ti as u32,
            tenants: tenants as u32,
            weight: 0.0,
            arrival_offset_s: tenant.arrival_offset_s,
            ..ContentionSummary::default()
        },
        ..RunReport::default()
    }
}

/// Zero-gated tenancy counters for the metrics registry in scope, if any.
fn record_tenancy_metrics(reports: &[RunReport]) {
    let Some(reg) = obs::Registry::current() else {
        return;
    };
    reg.counter("sim_tenancy_runs_total", "tenant-set simulations completed")
        .inc();
    let cross: u64 = reports
        .iter()
        .map(|r| r.contention.cross_evictions_inflicted)
        .sum();
    if cross > 0 {
        reg.counter(
            "sim_cross_tenant_evictions_total",
            "cached blocks evicted by another tenant's memory pressure",
        )
        .add(cross);
    }
    let waits: f64 = reports.iter().map(|r| r.contention.slot_wait_s).sum();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let wait_ms = (waits * 1e3) as u64;
    if wait_ms > 0 {
        reg.counter(
            "sim_slot_wait_ms_total",
            "milliseconds task attempts queued for FAIR slots",
        )
        .add(wait_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};

    use crate::config::NoiseParams;
    use crate::engine::{unpack_schedule, Engine};

    /// Iterative app (input → cached parse → k aggregate jobs), the same
    /// shape the engine's own tests use.
    fn iterative_app(name: &str, iterations: usize) -> Application {
        let mut b = AppBuilder::new(name);
        let src = b.source("in", SourceFormat::DistributedFs, 8_000, 1_120_000_000, 8);
        let parsed = b.narrow(
            "parsed",
            NarrowKind::Map,
            &[src],
            8_000,
            800_000_000,
            ComputeCost::new(0.05, 1e-5, 4e-9),
        );
        for i in 0..iterations {
            let g = b.wide_with_partitions(
                format!("grad[{i}]"),
                WideKind::TreeAggregate,
                &[parsed],
                8,
                1024,
                1,
                ComputeCost::new(0.01, 0.0, 1e-9),
            );
            b.job("aggregate", g);
        }
        b.build().unwrap()
    }

    fn quiet_params(seed: u64) -> SimParams {
        SimParams {
            noise: NoiseParams::NONE,
            cluster_jitter_s: 0.0,
            seed,
            ..SimParams::default()
        }
    }

    fn persist_parsed() -> Arc<Schedule> {
        Arc::new(Schedule::persist_all([DatasetId(1)]))
    }

    #[test]
    fn single_tenant_set_is_the_plain_engine() {
        let app = iterative_app("solo", 5);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params(7));
        let plain = engine
            .run_shared(&persist_parsed(), RunOptions::default())
            .unwrap();
        let set = TenantSet {
            cluster,
            tenants: vec![Tenant::new(&app, persist_parsed(), quiet_params(7))],
        };
        let tr = set.run(RunOptions::default()).unwrap();
        assert_eq!(tr.reports.len(), 1);
        assert_eq!(tr.reports[0].digest(), plain.digest());
        assert_eq!(tr.reports[0], plain);
        assert!((tr.makespan_s - plain.total_time_s).abs() < 1e-12);
    }

    /// A lone active tenant next to a weightless one reproduces the plain
    /// engine's whole report — quiet, and again traced on a small,
    /// memory-tight cluster under executor loss, task failures and memory
    /// pressure, where traces, counter snapshots, evictions, retries and
    /// the fault summary must all match.
    #[test]
    fn inactive_second_tenant_is_invisible() {
        use crate::fault::{FaultKind, FaultPlan};
        use crate::trace::TraceConfig;

        let app_a = iterative_app("a", 6);
        let app_b = iterative_app("b", 3);
        let roomy = ClusterConfig::new(2, MachineSpec::paper_example());
        let tight = ClusterConfig::new(
            3,
            MachineSpec {
                ram_bytes: 1_000_000_000,
                ..MachineSpec::paper_example()
            },
        );
        let chaotic = SimParams {
            faults: FaultPlan::none()
                .event(
                    15.0,
                    FaultKind::MemoryPressure {
                        machine: 0,
                        bytes: 400_000_000,
                        duration_s: 5.0,
                    },
                )
                .event(4.0, FaultKind::TaskFailures { count: 3 })
                .event(10.0, FaultKind::ExecutorLoss { machine: 0 }),
            ..quiet_params(11)
        };
        let traced = RunOptions {
            collect_traces: true,
            trace: TraceConfig::enabled(),
            ..RunOptions::default()
        };
        for (cluster, params, options) in [
            (roomy, quiet_params(11), RunOptions::default()),
            (tight, chaotic, traced),
        ] {
            let plain = Engine::new(&app_a, cluster, params.clone())
                .run_shared(&persist_parsed(), options)
                .unwrap();
            let set = TenantSet {
                cluster,
                tenants: vec![
                    Tenant::new(&app_a, persist_parsed(), params.clone()),
                    Tenant {
                        weight: 0.0,
                        ..Tenant::new(&app_b, persist_parsed(), quiet_params(12))
                    },
                ],
            };
            let tr = set.run(options).unwrap();
            assert_eq!(tr.reports[0], plain);
            // The inactive tenant ran nothing and self-describes.
            assert_eq!(tr.reports[1].total_tasks, 0);
            assert_eq!(tr.reports[1].contention.weight, 0.0);
            assert_eq!(tr.reports[1].contention.tenant, 1);
            if options.collect_traces {
                let evictions: u64 = plain.cache.per_dataset.values().map(|s| s.evictions).sum();
                assert!(evictions > 0, "the chaotic input must evict");
                assert!(plain.faults.retried_attempts > 0);
                assert!(plain.faults.fired_count() > 0);
                assert!(!plain.traces.is_empty() && plain.trace.is_some());
            }
        }
    }

    #[test]
    fn two_active_tenants_terminate_and_account() {
        let app_a = iterative_app("a", 5);
        let app_b = iterative_app("b", 4);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let set = TenantSet {
            cluster,
            tenants: vec![
                Tenant::new(&app_a, persist_parsed(), quiet_params(21)),
                Tenant {
                    arrival_offset_s: 3.0,
                    weight: 2.0,
                    ..Tenant::new(&app_b, persist_parsed(), quiet_params(22))
                },
            ],
        };
        let tr = set.run(RunOptions::default()).unwrap();
        assert!(tr.cross_evictions_balance());
        for (ti, r) in tr.reports.iter().enumerate() {
            assert_eq!(r.job_times_s.len(), [5, 4][ti]);
            assert!(r.total_time_s > 0.0);
            assert_eq!(r.task_attempts, r.total_tasks, "fault-free");
            assert_eq!(r.contention.tenant, ti as u32);
            assert_eq!(r.contention.tenants, 2);
            assert!(!r.contention.is_quiet(), "multi-tenant runs are marked");
        }
        assert!(tr.makespan_s >= tr.reports[0].total_time_s);
        assert!(tr.makespan_s >= 3.0 + tr.reports[1].total_time_s);
        // Determinism: the same set reruns to identical digests.
        let again = set.run(RunOptions::default()).unwrap();
        for (a, b) in tr.reports.iter().zip(&again.reports) {
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn memory_pressure_produces_cross_evictions() {
        // One tiny machine: the two tenants' cached datasets cannot both
        // fit, so the later arrival evicts the earlier one's blocks.
        let app_a = iterative_app("a", 6);
        let app_b = iterative_app("b", 6);
        let spec = MachineSpec {
            ram_bytes: 1_600_000_000,
            ..MachineSpec::paper_example()
        };
        let cluster = ClusterConfig::new(1, spec);
        let set = TenantSet {
            cluster,
            tenants: vec![
                Tenant::new(&app_a, persist_parsed(), quiet_params(31)),
                Tenant {
                    arrival_offset_s: 7.0,
                    ..Tenant::new(&app_b, persist_parsed(), quiet_params(32))
                },
            ],
        };
        let tr = set.run(RunOptions::default()).unwrap();
        assert!(tr.cross_evictions_balance());
        // The late arrival's inserts must push out the incumbent's blocks,
        // which by then have been resident for a while.
        let incumbent = &tr.reports[0].contention;
        assert!(
            incumbent.cross_evictions_suffered > 0,
            "pool must cross-evict"
        );
        assert!(incumbent.residency_half_life_s > 0.0);
    }

    #[test]
    fn shared_store_has_slots_for_persisted_blocks_only() {
        // Datasets per app: in (8 partitions), parsed (8), then one
        // 1-partition aggregate per job.
        let app_a = iterative_app("a", 3);
        let app_b = iterative_app("b", 2);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let both = Arc::new(Schedule::persist_all([DatasetId(1), DatasetId(2)]));
        let empty = Arc::new(Schedule::empty());
        for (sa, sb, blocks) in [
            (persist_parsed(), both, 8 + 9),
            (Arc::clone(&empty), persist_parsed(), 8),
            (Arc::clone(&empty), empty, 0),
        ] {
            let set = TenantSet {
                cluster,
                tenants: vec![
                    Tenant::new(&app_a, sa, quiet_params(1)),
                    Tenant::new(&app_b, sb, quiet_params(2)),
                ],
            };
            let persisted: Vec<Vec<bool>> = set
                .tenants
                .iter()
                .map(|t| unpack_schedule(t.app, &t.schedule).0)
                .collect();
            let store = set.shared_store(persisted.iter().map(Vec::as_slice));
            assert_eq!(store.layout().block_count(), blocks);
            assert_eq!(
                store.layout().dataset_count(),
                app_a.dataset_count() + app_b.dataset_count()
            );
            // An inactive tenant's empty flags keep its ids but no slots.
            let idle = set.shared_store([persisted[0].as_slice(), &[]]);
            assert_eq!(
                idle.layout().block_count(),
                persisted[0].iter().filter(|&&p| p).count() * 8
            );
            assert_eq!(
                idle.layout().dataset_count(),
                store.layout().dataset_count()
            );
        }
    }

    #[test]
    fn empty_set_is_rejected() {
        let set = TenantSet {
            cluster: ClusterConfig::new(1, MachineSpec::paper_example()),
            tenants: vec![],
        };
        assert!(set.run(RunOptions::default()).is_err());
    }
}
