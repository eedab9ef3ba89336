//! Tenancy drills: curated multi-tenant contention scenarios and their
//! invariant checks.
//!
//! The chaos drills ([`crate::chaos`]) stress one application against a
//! hostile cluster; the tenancy drill stresses the cluster against
//! *several applications at once*. A [`TenantsSpec`] names a set of
//! workloads with FAIR weights and arrival offsets, sizes the machines so
//! the shared block store cannot hold every tenant's cached datasets, and
//! runs them through [`cluster_sim::TenantSet`]. The drill then checks
//! the invariants the tenancy test matrix (`tests/tenants/`) asserts:
//!
//! * every tenant **terminates** with finite wall clock,
//! * per-tenant **task accounting** holds (attempts = tasks + retries +
//!   speculative copies),
//! * cross-tenant **evictions balance** — every eviction a tenant
//!   suffers was inflicted by some other tenant (Σ suffered = Σ
//!   inflicted),
//! * **single-tenant parity** — the incumbent run alone through the
//!   tenancy machinery is bit-identical to the plain engine,
//! * reruns are **deterministic** (digest-identical),
//! * the **pressured hotspot audit** stays Pareto-consistent: discounting
//!   candidate benefits by expected residency must not break the
//!   monotone benefit/budget ordering of the schedule family.
//!
//! All runs use `NoiseParams::NONE` and zero cluster jitter, so the drill
//! is bit-for-bit reproducible — `tests/tenants_golden.rs` pins the
//! rendered report.

use std::sync::Arc;

use cluster_sim::{
    ClusterConfig, Engine, MachineSpec, NoiseParams, RunOptions, SimParams, TenancyReport, Tenant,
    TenantSet,
};
use dagflow::{Application, Schedule};
use instrument::profile_run;
use serde::{Deserialize, Serialize};
use workloads::Workload;

use crate::chaos::drill_params;
use crate::hotspot::{detect_hotspots_audited, DatasetMetricsView, HotspotAudit, HotspotConfig};

/// Per-machine RAM of the built-in drill: small enough that LOR's parsed
/// points and the SQL star table cannot both stay resident, so the drill
/// reliably produces cross-tenant evictions.
pub const DRILL_RAM_BYTES: u64 = 1_200_000_000;

/// Looks up a workload by its paper-style name, covering the five
/// evaluated applications plus the extension families (`KMEANS`,
/// `SQLJOIN`, `STREAM`). Case-insensitive.
#[must_use]
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    let mut pool = workloads::all_workloads();
    pool.push(Box::new(workloads::KMeans::default()));
    pool.push(Box::new(workloads::SqlStarJoin));
    pool.push(Box::new(workloads::MicroBatchStream));
    pool.into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
}

/// One tenant of a drill spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TenantSpec {
    /// Workload name (`LOR`, `SQLJOIN`, …), resolved by
    /// [`workload_by_name`].
    pub workload: String,
    /// FAIR scheduler weight; ≤ 0 admits the tenant but runs nothing.
    #[serde(default = "unit_weight")]
    pub weight: f64,
    /// Seconds after drill start at which the tenant arrives.
    #[serde(default)]
    pub arrival_offset_s: f64,
}

/// A full tenancy-drill specification — the schema of the JSON file
/// `juggler tenants <spec.json>` accepts. Every field except `tenants`
/// has a drill default (see [`TenantsSpec::from_json`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TenantsSpec {
    /// Cluster size (private-cluster machine spec, RAM overridden).
    #[serde(default = "drill_machines")]
    pub machines: u32,
    /// Base RNG seed; tenant `i` runs with `seed + i`.
    #[serde(default = "drill_seed")]
    pub seed: u64,
    /// Per-machine RAM in bytes (the contention knob).
    #[serde(default = "drill_ram_bytes")]
    pub ram_bytes: u64,
    /// Contention-pressure factor for the hotspot audit section (see
    /// [`HotspotConfig::pressure`]).
    #[serde(default = "drill_pressure")]
    pub pressure: f64,
    /// The tenants, in admission order.
    pub tenants: Vec<TenantSpec>,
}

fn unit_weight() -> f64 {
    1.0
}

fn drill_machines() -> u32 {
    3
}

fn drill_seed() -> u64 {
    0x7E4A7
}

fn drill_ram_bytes() -> u64 {
    DRILL_RAM_BYTES
}

fn drill_pressure() -> f64 {
    0.6
}

impl TenantsSpec {
    /// The built-in two-tenant contention drill: LOR arrives first with
    /// weight 1; an SQL star join arrives 5 s later with weight 2, and
    /// the reduced per-machine RAM forces the tenants to evict each
    /// other's blocks.
    #[must_use]
    pub fn drill() -> Self {
        TenantsSpec {
            machines: drill_machines(),
            seed: drill_seed(),
            ram_bytes: drill_ram_bytes(),
            pressure: drill_pressure(),
            tenants: vec![
                TenantSpec {
                    workload: "LOR".to_owned(),
                    weight: 1.0,
                    arrival_offset_s: 0.0,
                },
                TenantSpec {
                    workload: "SQLJOIN".to_owned(),
                    weight: 2.0,
                    arrival_offset_s: 5.0,
                },
            ],
        }
    }

    /// Parses a spec from its JSON representation; absent optional fields
    /// take the built-in drill's defaults, and an unknown key is an
    /// error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid tenants spec: {e}"))
    }
}

/// The outcome of one tenancy drill: the multi-tenant report plus every
/// derived invariant verdict.
#[derive(Debug)]
pub struct TenantsOutcome {
    /// The spec the drill ran.
    pub spec: TenantsSpec,
    /// Resolved workload names, aligned with `spec.tenants`.
    pub names: Vec<String>,
    /// Schedule notation each tenant executed.
    pub schedules: Vec<String>,
    /// The multi-tenant run.
    pub tenancy: TenancyReport,
    /// Whether a second run of the same set produced identical digests.
    pub deterministic: bool,
    /// Whether tenant 0 alone through the tenancy machinery matches the
    /// plain engine digest.
    pub solo_parity: bool,
    /// The pressured hotspot decision trace for tenant 0's workload.
    pub audit: HotspotAudit,
}

impl TenantsOutcome {
    /// Every tenant's wall clock is finite.
    #[must_use]
    pub fn terminated(&self) -> bool {
        self.tenancy
            .reports
            .iter()
            .all(|r| r.total_time_s.is_finite())
    }

    /// Per-tenant attempts = tasks + retries + speculative copies.
    #[must_use]
    pub fn attempts_consistent(&self) -> bool {
        self.tenancy.reports.iter().all(|r| {
            r.task_attempts
                == r.total_tasks + r.faults.retried_attempts + r.faults.speculative_launched
        })
    }

    /// Σ suffered = Σ inflicted across the tenant set.
    #[must_use]
    pub fn evictions_balance(&self) -> bool {
        self.tenancy.cross_evictions_balance()
    }

    /// The schedules the pressured audit kept stay monotone in both
    /// benefit and budget — pressure discounts the *selection*, never the
    /// reported Pareto frontier.
    #[must_use]
    pub fn pressured_monotone(&self) -> bool {
        let kept: Vec<_> = self.audit.schedules.iter().filter(|s| s.kept).collect();
        kept.windows(2)
            .all(|w| w[1].benefit_s >= w[0].benefit_s && w[1].budget_bytes >= w[0].budget_bytes)
    }

    /// All invariants at once — the CLI exit-code gate.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.terminated()
            && self.attempts_consistent()
            && self.evictions_balance()
            && self.solo_parity
            && self.deterministic
            && self.pressured_monotone()
    }

    /// Deterministic human report (golden-pinned for the built-in drill).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tenancy drill: {} tenants on {} machines, seed {:#x}, {:.1} GB RAM/machine\n",
            self.spec.tenants.len(),
            self.spec.machines,
            self.spec.seed,
            self.spec.ram_bytes as f64 / 1e9
        ));
        for (i, (t, name)) in self.spec.tenants.iter().zip(&self.names).enumerate() {
            out.push_str(&format!(
                "  tenant {i} {:<8} weight {:.1}  arrival {:>6.1} s  schedule {}\n",
                name, t.weight, t.arrival_offset_s, self.schedules[i]
            ));
        }
        out.push_str(&format!(
            "  makespan {:>8.1} s\n  per-tenant outcomes\n",
            self.tenancy.makespan_s
        ));
        for (i, r) in self.tenancy.reports.iter().enumerate() {
            out.push_str(&format!(
                "    tenant {i} {:<8} {:>8.1} s  {} tasks in {} attempts\n",
                self.names[i], r.total_time_s, r.total_tasks, r.task_attempts
            ));
            let c = &r.contention;
            out.push_str(&format!(
                "      slot wait {:.1} s, evictions {} suffered / {} inflicted, \
                 residency half-life {:.1} s\n",
                c.slot_wait_s,
                c.cross_evictions_suffered,
                c.cross_evictions_inflicted,
                c.residency_half_life_s
            ));
        }
        out.push_str(&format!(
            "  contention-aware hotspots ({} sample, pressure {:.2})\n",
            self.names[0], self.spec.pressure
        ));
        for s in &self.audit.schedules {
            out.push_str(&format!(
                "    {:<24} benefit {:>7.2} s  budget {:>8.2} MB  {}\n",
                s.notation,
                s.benefit_s,
                s.budget_bytes as f64 / 1e6,
                if s.kept { "kept" } else { "discarded" }
            ));
        }
        let check = |ok: bool| if ok { "ok" } else { "FAIL" };
        out.push_str("  invariants\n");
        out.push_str(&format!(
            "    every tenant terminated          {}\n",
            check(self.terminated())
        ));
        out.push_str(&format!(
            "    attempts account for every task  {}\n",
            check(self.attempts_consistent())
        ));
        out.push_str(&format!(
            "    cross-tenant evictions balance   {}\n",
            check(self.evictions_balance())
        ));
        out.push_str(&format!(
            "    single-tenant parity             {}\n",
            check(self.solo_parity)
        ));
        out.push_str(&format!(
            "    rerun digests identical          {}\n",
            check(self.deterministic)
        ));
        out.push_str(&format!(
            "    pressured schedules monotone     {}\n",
            check(self.pressured_monotone())
        ));
        out
    }
}

/// Quiet drill sim parameters for one tenant: no noise, no jitter, the
/// tenant's own seed.
fn quiet_sim(w: &dyn Workload, seed: u64) -> SimParams {
    let mut sim = w.sim_params();
    sim.noise = NoiseParams::NONE;
    sim.cluster_jitter_s = 0.0;
    sim.seed = seed;
    sim
}

/// Runs a tenancy drill: the multi-tenant set, a determinism rerun, the
/// single-tenant parity check, and the pressured hotspot audit.
pub fn run_tenants(spec: &TenantsSpec) -> Result<TenantsOutcome, String> {
    if spec.tenants.is_empty() {
        return Err("tenants spec names no tenants".to_owned());
    }
    if spec.machines < 1 {
        return Err("tenants spec needs `machines` of at least 1".to_owned());
    }
    // FAIR shares divide by the active weights' sum, so it must be finite.
    let mut active_weight = 0.0;
    for (i, t) in spec.tenants.iter().enumerate() {
        for (key, value) in [
            ("weight", t.weight),
            ("arrival_offset_s", t.arrival_offset_s),
        ] {
            if !value.is_finite() {
                return Err(format!("tenant {i}: `{key}` must be finite, not {value}"));
            }
        }
        active_weight += t.weight.max(0.0);
    }
    if !active_weight.is_finite() {
        return Err("tenants spec: the `weight`s must sum to a finite number".to_owned());
    }
    let workloads: Vec<Box<dyn Workload>> = spec
        .tenants
        .iter()
        .map(|t| {
            workload_by_name(&t.workload)
                .ok_or_else(|| format!("unknown workload `{}`", t.workload))
        })
        .collect::<Result<_, _>>()?;
    let names: Vec<String> = workloads.iter().map(|w| w.name().to_owned()).collect();
    let apps: Vec<Application> = workloads
        .iter()
        .map(|w| w.build(&drill_params(w.as_ref())))
        .collect();
    let schedules: Vec<Arc<Schedule>> = apps
        .iter()
        .map(|a| Arc::new(a.default_schedule().clone()))
        .collect();
    let sims: Vec<SimParams> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| quiet_sim(w.as_ref(), spec.seed.wrapping_add(i as u64)))
        .collect();
    let cluster = ClusterConfig::new(
        spec.machines,
        MachineSpec {
            ram_bytes: spec.ram_bytes,
            ..MachineSpec::private_cluster()
        },
    );

    let set = TenantSet {
        cluster,
        tenants: spec
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| Tenant {
                app: &apps[i],
                schedule: schedules[i].clone(),
                params: sims[i].clone(),
                arrival_offset_s: t.arrival_offset_s,
                weight: t.weight,
            })
            .collect(),
    };
    let run = |s: &TenantSet<'_>| s.run(RunOptions::default()).map_err(|e| e.to_string());
    let tenancy = run(&set)?;
    let rerun = run(&set)?;
    let deterministic = tenancy.makespan_s.to_bits() == rerun.makespan_s.to_bits()
        && tenancy
            .reports
            .iter()
            .zip(&rerun.reports)
            .all(|(a, b)| a.digest() == b.digest());

    // Single-tenant parity: tenant 0 alone (weight 1, no offset) through
    // the tenancy machinery must reproduce the plain engine byte-for-byte.
    let solo_set = TenantSet {
        cluster,
        tenants: vec![Tenant::new(&apps[0], schedules[0].clone(), sims[0].clone())],
    };
    let solo = run(&solo_set)?;
    let plain = Engine::new(&apps[0], cluster, sims[0].clone())
        .run(&schedules[0], RunOptions::default())
        .map_err(|e| e.to_string())?;
    let solo_parity = solo.reports[0].digest() == plain.digest();

    // The pressured hotspot audit for the incumbent's workload: one quiet
    // instrumented sample run, then detection under the spec's pressure.
    let w0 = workloads[0].as_ref();
    let sample = w0.sample_params();
    let sample_app = w0.build(&sample);
    let out = profile_run(
        &sample_app,
        sample_app.default_schedule(),
        ClusterConfig::new(1, MachineSpec::calibration_node()),
        quiet_sim(w0, spec.seed),
    )
    .map_err(|e| e.to_string())?;
    let metrics = DatasetMetricsView::from_metrics(&out.metrics, sample_app.dataset_count());
    let (_, audit) = detect_hotspots_audited(
        &sample_app,
        &metrics,
        &HotspotConfig {
            pressure: spec.pressure,
            ..HotspotConfig::default()
        },
    );

    Ok(TenantsOutcome {
        spec: spec.clone(),
        names,
        schedules: schedules.iter().map(|s| s.notation()).collect(),
        tenancy,
        deterministic,
        solo_parity,
        audit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drill_spec_round_trips_through_json() {
        let spec = TenantsSpec::drill();
        let text = serde_json::to_string(&spec).unwrap();
        assert_eq!(TenantsSpec::from_json(&text).unwrap(), spec);
    }

    #[test]
    fn spec_defaults_fill_in() {
        let spec = TenantsSpec::from_json(r#"{"tenants": [{"workload": "LOR"}]}"#).unwrap();
        assert_eq!(spec.machines, 3);
        assert_eq!(spec.ram_bytes, DRILL_RAM_BYTES);
        assert_eq!(spec.tenants[0].weight, 1.0);
        assert_eq!(spec.tenants[0].arrival_offset_s, 0.0);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(TenantsSpec::from_json("not json").is_err());
        let empty = TenantsSpec {
            tenants: vec![],
            ..TenantsSpec::drill()
        };
        assert!(run_tenants(&empty).is_err());
        let unknown = TenantsSpec {
            tenants: vec![TenantSpec {
                workload: "NOPE".to_owned(),
                weight: 1.0,
                arrival_offset_s: 0.0,
            }],
            ..TenantsSpec::drill()
        };
        assert!(run_tenants(&unknown).unwrap_err().contains("NOPE"));
        let no_machines = TenantsSpec {
            machines: 0,
            ..TenantsSpec::drill()
        };
        assert!(run_tenants(&no_machines).unwrap_err().contains("machines"));
    }

    #[test]
    fn lookup_covers_extension_families() {
        for name in ["LOR", "lor", "KMEANS", "SQLJOIN", "STREAM"] {
            assert!(workload_by_name(name).is_some(), "{name}");
        }
        assert!(workload_by_name("nope").is_none());
    }
}
