//! Evict-heavy golden: pins the block store's victim choices in the
//! regime where they decide the outcome. The other goldens run roomy or
//! quiet clusters; here the cache is over-subscribed throughout.
//!
//! * **Tenants.** LOR, SVM and SQLJOIN at paper scale share 4 machines
//!   cut to 2 GB RAM, arriving at 0/20/40 s with FAIR weights 1/2/3,
//!   default noise, two seeds. This is the benchmark's `tenants_tight`
//!   shape: every report digest and the makespan bits are pinned.
//! * **Policies.** One memory-pressured `Engine::run` per eviction
//!   policy: LOR at paper scale with three persisted datasets
//!   (`p(1) p(2) p(11)`) on the same 4 × 2 GB cluster, where LRU, FIFO,
//!   LRC and MRD each pick a different victim sequence.
//!
//! `RunReport::digest` leaves out the per-dataset set of evicted
//! partition ids, so every line also pins a SHA-256 of those sets. It
//! also leaves out the structured trace, so the first tenant seed runs
//! once more with tracing on and pins a SHA-256 of each tenant's
//! serialized `RunTrace`: its spans and per-stage counter snapshots.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test evict_heavy_golden`
//! only for an intended behaviour change, and review the diff.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use juggler_suite::cluster_sim::{
    ClusterConfig, Engine, EvictionPolicyKind, MachineSpec, RunOptions, RunReport, TenancyReport,
    Tenant, TenantSet, TraceConfig,
};
use juggler_suite::dagflow::{DatasetId, Schedule};
use juggler_suite::juggler::workload_by_name;
use juggler_suite::obs::sha256_hex;

const MACHINES: u32 = 4;
const RAM_BYTES: u64 = 2_000_000_000;
/// `(workload, FAIR weight, arrival offset in seconds)`.
const TENANTS: [(&str, f64, f64); 3] = [
    ("LOR", 1.0, 0.0),
    ("SVM", 2.0, 20.0),
    ("SQLJOIN", 3.0, 40.0),
];
/// Base seeds of the tenant runs; tenant `i` runs with `seed + i`.
const TENANT_SEEDS: [u64; 2] = [1, 7];
/// LOR datasets persisted by the policy runs.
const POLICY_PERSISTED: [u32; 3] = [1, 2, 11];

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/evict_heavy_digests.txt")
}

fn cluster() -> ClusterConfig {
    ClusterConfig::new(
        MACHINES,
        MachineSpec {
            ram_bytes: RAM_BYTES,
            ..MachineSpec::private_cluster()
        },
    )
}

fn tenant_run(seed: u64, options: RunOptions) -> TenancyReport {
    let workloads: Vec<_> = TENANTS
        .iter()
        .map(|(name, ..)| workload_by_name(name).expect("known workload"))
        .collect();
    let apps: Vec<_> = workloads
        .iter()
        .map(|w| w.build(&w.paper_params()))
        .collect();
    let set = TenantSet {
        cluster: cluster(),
        tenants: TENANTS
            .iter()
            .enumerate()
            .map(|(i, &(_, weight, arrival_offset_s))| {
                let mut params = workloads[i].sim_params();
                params.seed = seed.wrapping_add(i as u64);
                Tenant {
                    app: &apps[i],
                    schedule: Arc::new(apps[i].default_schedule().clone()),
                    params,
                    arrival_offset_s,
                    weight,
                }
            })
            .collect(),
    };
    set.run(options).expect("tenant set runs")
}

fn policy_run(policy: EvictionPolicyKind) -> RunReport {
    let w = workload_by_name("LOR").expect("known workload");
    let app = w.build(&w.paper_params());
    let schedule = Schedule::persist_all(POLICY_PERSISTED.map(DatasetId));
    let mut params = w.sim_params();
    params.eviction_policy = policy;
    Engine::new(&app, cluster(), params)
        .run(&schedule, RunOptions::default())
        .expect("policy run succeeds")
}

/// SHA-256 over every dataset's sorted evicted partition ids, in dataset
/// order: the part of the cache statistics `RunReport::digest` omits.
fn evicted_digest(r: &RunReport) -> String {
    let sets: BTreeMap<_, _> = r
        .cache
        .per_dataset
        .iter()
        .map(|(d, s)| (d.0, &s.evicted_partition_ids))
        .collect();
    let mut text = String::new();
    for (d, ids) in sets {
        write!(text, "{d}:").unwrap();
        for p in ids {
            write!(text, "{p},").unwrap();
        }
        text.push(';');
    }
    sha256_hex(text.as_bytes())
}

fn evictions(r: &RunReport) -> u64 {
    r.cache.per_dataset.values().map(|s| s.evictions).sum()
}

/// SHA-256 of a report's serialized structured trace.
fn trace_digest(r: &RunReport) -> String {
    let trace = r.trace.as_ref().expect("traced run carries a trace");
    sha256_hex(
        serde_json::to_string(trace)
            .expect("trace serializes")
            .as_bytes(),
    )
}

/// One line per tenant report, one makespan line per seed, one traced
/// line per tenant of the first seed and one line per policy:
/// `tenants seed=<n> <app> digest=<sha> evicted=<sha>`,
/// `tenants seed=<n> makespan=<bits>`,
/// `tenants-traced seed=<n> <app> trace=<sha>`,
/// `policy <name> digest=<sha> evicted=<sha>`.
fn render() -> String {
    let mut out = String::new();
    for seed in TENANT_SEEDS {
        let t = tenant_run(seed, RunOptions::default());
        for r in &t.reports {
            writeln!(
                out,
                "tenants seed={seed} {} digest={} evicted={}",
                r.app,
                r.digest(),
                evicted_digest(r)
            )
            .unwrap();
        }
        writeln!(
            out,
            "tenants seed={seed} makespan={:x}",
            t.makespan_s.to_bits()
        )
        .unwrap();
    }
    let seed = TENANT_SEEDS[0];
    let traced = RunOptions {
        trace: TraceConfig::enabled(),
        ..RunOptions::default()
    };
    for r in &tenant_run(seed, traced).reports {
        writeln!(
            out,
            "tenants-traced seed={seed} {} trace={}",
            r.app,
            trace_digest(r)
        )
        .unwrap();
    }
    for policy in EvictionPolicyKind::all() {
        let r = policy_run(policy);
        writeln!(
            out,
            "policy {} digest={} evicted={}",
            policy.name(),
            r.digest(),
            evicted_digest(&r)
        )
        .unwrap();
    }
    out
}

#[test]
fn evict_heavy_runs_match_golden_digests() {
    let got = render();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test evict_heavy_golden",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "evict-heavy run digests drifted from the golden file"
    );
}

/// The fixtures really are evict-heavy: every tenant set contends across
/// tenants, and the four policies do not collapse onto one outcome.
#[test]
fn evict_heavy_fixtures_exercise_eviction() {
    for seed in TENANT_SEEDS {
        let t = tenant_run(seed, RunOptions::default());
        assert!(t.cross_evictions_balance(), "seed {seed}");
        let cross: u64 = t
            .reports
            .iter()
            .map(|r| r.contention.cross_evictions_suffered)
            .sum();
        assert!(cross > 0, "seed {seed}: no cross-tenant evictions");
    }
    let mut outcomes = std::collections::BTreeSet::new();
    for policy in EvictionPolicyKind::all() {
        let r = policy_run(policy);
        assert!(evictions(&r) > 1000, "{} barely evicts", policy.name());
        outcomes.insert(r.digest());
    }
    assert_eq!(outcomes.len(), 4, "policies share an outcome");
}
