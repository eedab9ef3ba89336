//! `tenants_tight`: an op is one `TenantSet::run` of LOR, SVM and SQLJOIN
//! at Table-1 scale sharing 4 private-cluster machines whose RAM is cut to
//! 2 GB, with staggered arrivals and unequal FAIR weights. The shared
//! block store works insert- and evict-heavy here, the opposite of
//! `train_paper`'s read-mostly cache, and this is the only workload that
//! runs the tenant job loop.
//!
//! Ops cycle through `OP_SEEDS` seeds drawn from the workload seed; each
//! must reproduce the warm-up digests of its seed and balance its
//! cross-tenant evictions. The traced reference runs every tenant alone
//! through `Engine::run_shared` with the same seed, which prices the
//! tenant loop against the plain engine.

use std::sync::Arc;

use cluster_sim::{
    ClusterConfig, Engine, EnginePrep, MachineSpec, RunOptions, SimParams, TenancyReport, Tenant,
    TenantSet,
};
use dagflow::{Application, Schedule};
use workloads::Workload;

use crate::trace::Tracer;
use crate::{mix, record_run, Bench, OpError};

const MACHINES: u32 = 4;
const RAM_BYTES: u64 = 2_000_000_000;
/// `(workload, FAIR weight, arrival offset in seconds)`.
const TENANTS: [(&str, f64, f64); 3] = [
    ("LOR", 1.0, 0.0),
    ("SVM", 2.0, 20.0),
    ("SQLJOIN", 3.0, 40.0),
];
const OP_SEEDS: usize = 8;

pub struct TenantsTight {
    workloads: Vec<Box<dyn Workload>>,
    apps: Vec<Application>,
    schedules: Vec<Arc<Schedule>>,
    cluster: ClusterConfig,
    seeds: Vec<u64>,
    /// Per op seed: every tenant's report digest, then the makespan bits.
    refs: Vec<Vec<String>>,
}

impl TenantsTight {
    fn params(&self, seed: usize, tenant: usize) -> SimParams {
        let mut p = self.workloads[tenant].sim_params();
        p.seed = self.seeds[seed].wrapping_add(tenant as u64);
        p
    }

    fn run_set(&self, seed: usize) -> Result<TenancyReport, String> {
        let set = TenantSet {
            cluster: self.cluster,
            tenants: TENANTS
                .iter()
                .enumerate()
                .map(|(i, &(_, weight, arrival_offset_s))| Tenant {
                    app: &self.apps[i],
                    schedule: Arc::clone(&self.schedules[i]),
                    params: self.params(seed, i),
                    arrival_offset_s,
                    weight,
                })
                .collect(),
        };
        set.run(RunOptions::default()).map_err(|e| e.to_string())
    }

    fn check(&self, seed: usize, report: &TenancyReport) -> Result<(), OpError> {
        if !report.cross_evictions_balance() {
            return Err(OpError::Wrong(
                "cross-tenant evictions do not balance".to_owned(),
            ));
        }
        if digests(report) != self.refs[seed] {
            return Err(OpError::Wrong(format!(
                "tenant digests for op seed {seed} differ from the warm-up"
            )));
        }
        Ok(())
    }
}

fn digests(report: &TenancyReport) -> Vec<String> {
    let mut out: Vec<String> = report.reports.iter().map(|r| r.digest()).collect();
    out.push(format!("{:x}", report.makespan_s.to_bits()));
    out
}

impl Bench for TenantsTight {
    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String> {
        let workloads: Vec<Box<dyn Workload>> = TENANTS
            .iter()
            .map(|(name, ..)| {
                juggler::workload_by_name(name).ok_or(format!("unknown workload {name}"))
            })
            .collect::<Result<_, _>>()?;
        let mut apps = Vec::with_capacity(workloads.len());
        for w in &workloads {
            let paper = w.paper_params();
            apps.push(t.span("workloads.build", |_| w.build(&paper)));
        }
        let schedules = apps
            .iter()
            .map(|a| Arc::new(a.default_schedule().clone()))
            .collect();
        let mut bench = TenantsTight {
            workloads,
            apps,
            schedules,
            cluster: ClusterConfig::new(
                MACHINES,
                MachineSpec {
                    ram_bytes: RAM_BYTES,
                    ..MachineSpec::private_cluster()
                },
            ),
            seeds: (0..OP_SEEDS).map(|i| mix(seed, i as u64)).collect(),
            refs: Vec::new(),
        };
        for s in 0..OP_SEEDS {
            let report = bench.run_set(s)?;
            if !report.cross_evictions_balance() {
                return Err("warm-up: cross-tenant evictions do not balance".to_owned());
            }
            bench.refs.push(digests(&report));
        }
        Ok(bench)
    }

    fn reference(&self) -> String {
        obs::sha256_hex(self.refs.concat().concat().as_bytes())
    }

    fn op(&mut self, k: usize) -> Result<(), OpError> {
        let seed = k % OP_SEEDS;
        let report = self.run_set(seed)?;
        self.check(seed, &report)
    }

    fn traced_op(&mut self, k: usize, t: &mut Tracer) -> Result<(), OpError> {
        let seed = k % OP_SEEDS;
        let report = t.span("cluster_sim.tenant_run", |_| self.run_set(seed))?;
        for r in &report.reports {
            record_run(t, r);
            t.count(
                "cluster_sim.cross_evictions",
                r.contention.cross_evictions_suffered as f64,
            );
        }
        self.check(seed, &report)
    }

    fn traced_reference(&mut self, k: usize, t: &mut Tracer) -> Result<(), String> {
        let seed = k % OP_SEEDS;
        for (i, app) in self.apps.iter().enumerate() {
            let prep = t.span("cluster_sim.prep", |_| Arc::new(EnginePrep::new(app)));
            let engine = Engine::with_prep(app, self.cluster, self.params(seed, i), prep);
            t.span("cluster_sim.solo_run", |_| {
                engine.run_shared(&self.schedules[i], RunOptions::default())
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn inject_mismatch(&mut self) {
        self.refs[0][0].push('!');
    }
}
