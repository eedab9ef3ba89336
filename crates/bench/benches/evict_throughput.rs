//! Throughput of the block store's evict path, on the runs where victim
//! selection decides the outcome. One row is the benchmark's
//! `tenants_tight` shape: LOR, SVM and SQLJOIN at paper scale share 4
//! machines cut to 2 GB RAM, with FAIR weights 1/2/3 and arrivals at
//! 0/20/40 s. Four rows are the per-policy pressured runs of
//! `tests/evict_heavy_golden.rs`: LOR persisting datasets 1, 2 and 11 on
//! the same cluster under LRU, FIFO, LRC and MRD.
//!
//! Each row records its best-of-`REPS` seconds (rows interleaved), its
//! eviction count and a SHA-256 of its report digests and evicted
//! partition ids. Every timed run must reproduce its row's warm-up
//! digest; that is the only gate, and no timing is gated.
//!
//! `cargo bench --offline -p bench --bench evict_throughput -- --baseline
//! <file>` also embeds an artifact this bench wrote at another commit,
//! with each row's change in seconds and whether its digest (so every
//! victim the run picked) is the same: run the bench at the parent
//! commit, keep its artifact, then run it here with that file.
//! Results land in `results/BENCH_evict_throughput.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use bench::harness::{self, Budget};
use cluster_sim::{
    ClusterConfig, Engine, EvictionPolicyKind, MachineSpec, RunOptions, RunReport, Tenant,
    TenantSet,
};
use dagflow::{Application, DatasetId, Schedule};
use serde::Deserialize;
use workloads::Workload;

const REPS: usize = 200;
const MACHINES: u32 = 4;
const RAM_BYTES: u64 = 2_000_000_000;
/// `(workload, FAIR weight, arrival offset in seconds)`.
const TENANTS: [(&str, f64, f64); 3] = [
    ("LOR", 1.0, 0.0),
    ("SVM", 2.0, 20.0),
    ("SQLJOIN", 3.0, 40.0),
];
/// Base seed of the tenant run; tenant `i` runs with `seed + i`.
const TENANT_SEED: u64 = 1;
/// LOR datasets persisted by the policy runs.
const POLICY_PERSISTED: [u32; 3] = [1, 2, 11];

/// One measured configuration: the tenant set, or one policy run.
#[derive(Clone, Copy)]
enum Row {
    Tenants,
    Policy(EvictionPolicyKind),
}

impl Row {
    fn name(self) -> String {
        match self {
            Row::Tenants => "tenants_tight (LOR+SVM+SQLJOIN)".to_owned(),
            Row::Policy(p) => format!("LOR pressured, {}", p.name()),
        }
    }
}

/// The part of an earlier artifact of this bench that a run compares
/// against.
#[derive(Deserialize)]
struct Baseline {
    rows: Vec<BaselineRow>,
}

#[derive(Deserialize)]
struct BaselineRow {
    best_seconds: f64,
    digest: String,
}

struct Fixture {
    workloads: Vec<Box<dyn Workload>>,
    apps: Vec<Application>,
    schedules: Vec<Arc<Schedule>>,
    lor_persisted: Arc<Schedule>,
    cluster: ClusterConfig,
}

impl Fixture {
    fn new() -> Self {
        let workloads: Vec<Box<dyn Workload>> = TENANTS
            .iter()
            .map(|(name, ..)| juggler::workload_by_name(name).expect("known workload"))
            .collect();
        let apps: Vec<Application> = workloads
            .iter()
            .map(|w| w.build(&w.paper_params()))
            .collect();
        let schedules = apps
            .iter()
            .map(|a| Arc::new(a.default_schedule().clone()))
            .collect();
        let spec = MachineSpec {
            ram_bytes: RAM_BYTES,
            ..MachineSpec::private_cluster()
        };
        Fixture {
            workloads,
            apps,
            schedules,
            lor_persisted: Arc::new(Schedule::persist_all(POLICY_PERSISTED.map(DatasetId))),
            cluster: ClusterConfig::new(MACHINES, spec),
        }
    }

    /// One run of `row`: its reports, and the tenant makespan (0 for a
    /// policy run).
    fn run(&self, row: Row) -> (Vec<RunReport>, f64) {
        match row {
            Row::Tenants => {
                let set = TenantSet {
                    cluster: self.cluster,
                    tenants: TENANTS
                        .iter()
                        .enumerate()
                        .map(|(i, &(_, weight, arrival_offset_s))| {
                            let mut params = self.workloads[i].sim_params();
                            params.seed = TENANT_SEED.wrapping_add(i as u64);
                            Tenant {
                                app: &self.apps[i],
                                schedule: Arc::clone(&self.schedules[i]),
                                params,
                                arrival_offset_s,
                                weight,
                            }
                        })
                        .collect(),
                };
                let t = set.run(RunOptions::default()).expect("tenant set runs");
                (t.reports, t.makespan_s)
            }
            Row::Policy(policy) => {
                let mut params = self.workloads[0].sim_params();
                params.eviction_policy = policy;
                let r = Engine::new(&self.apps[0], self.cluster, params)
                    .run_shared(&self.lor_persisted, RunOptions::default())
                    .expect("policy run succeeds");
                (vec![r], 0.0)
            }
        }
    }
}

/// SHA-256 over every report's digest and evicted partition ids (which
/// `RunReport::digest` leaves out), then the makespan bits.
fn digest((reports, makespan_s): &(Vec<RunReport>, f64)) -> String {
    let mut text = String::new();
    for r in reports {
        write!(text, "{}|", r.digest()).unwrap();
        let sets: BTreeMap<_, _> = r
            .cache
            .per_dataset
            .iter()
            .map(|(d, s)| (d.0, &s.evicted_partition_ids))
            .collect();
        for (d, ids) in sets {
            write!(text, "{d}:{ids:?};").unwrap();
        }
    }
    write!(text, "{:x}", makespan_s.to_bits()).unwrap();
    obs::sha256_hex(text.as_bytes())
}

fn evictions(reports: &[RunReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| r.cache.per_dataset.values())
        .map(|s| s.evictions)
        .sum()
}

fn main() {
    let fixture = Fixture::new();
    let rows = [
        Row::Tenants,
        Row::Policy(EvictionPolicyKind::Lru),
        Row::Policy(EvictionPolicyKind::Fifo),
        Row::Policy(EvictionPolicyKind::Lrc),
        Row::Policy(EvictionPolicyKind::Mrd),
    ];
    let warm: Vec<_> = rows.iter().map(|&row| fixture.run(row)).collect();
    let warm_digests: Vec<String> = warm.iter().map(digest).collect();
    let mut stable = [true; 5];
    let best = harness::interleaved_best(REPS, [0, 1, 2, 3, 4], |i, _| {
        let (secs, out) = harness::timed(|| fixture.run(rows[i]));
        stable[i] &= digest(&out) == warm_digests[i];
        secs
    });

    let base = harness::baseline::<Baseline>();
    let mut table = Vec::new();
    let mut json_rows = Vec::new();
    for (i, &row) in rows.iter().enumerate() {
        let evicted = evictions(&warm[i].0);
        let mut cells = vec![
            row.name(),
            format!("{:.4}", best[i] * 1e3),
            evicted.to_string(),
            stable[i].to_string(),
        ];
        let mut entry = serde_json::json!({
            "row": row.name(),
            "best_seconds": best[i],
            "evictions": evicted,
            "digest": warm_digests[i],
            "digests_stable": stable[i],
        });
        if let Some((_, b)) = &base {
            let before = b.rows[i].best_seconds;
            let change = harness::overhead_pct(before, best[i]);
            let same = b.rows[i].digest == warm_digests[i];
            cells.extend([
                format!("{:.4}", before * 1e3),
                format!("{change:+.2}%"),
                same.to_string(),
            ]);
            entry["baseline_best_seconds"] = serde_json::json!(before);
            entry["change_pct"] = serde_json::json!(change);
            entry["same_digest_as_baseline"] = serde_json::json!(same);
        }
        table.push(cells);
        json_rows.push(entry);
    }
    let mut header = vec!["run", "best (ms)", "evictions", "digests stable"];
    if base.is_some() {
        header.extend(["baseline (ms)", "change", "same digest"]);
    }
    let all_stable = stable.iter().all(|&s| s);
    let mut json = serde_json::json!({
        "commit": harness::commit(),
        "reps": REPS,
        "machines": MACHINES,
        "ram_bytes": RAM_BYTES,
        "rows": json_rows,
        "digests_stable": all_stable,
    });
    if let Some((raw, _)) = base {
        json["baseline"] = raw;
    }
    harness::publish(
        "evict_throughput",
        &format!("Evict-heavy runs (best of {REPS}, interleaved)"),
        &header,
        &table,
        &json,
        &[Budget::at_least(
            "timed runs reproducing their warm-up digest (1 = all)",
            f64::from(u8::from(all_stable)),
            1.0,
        )],
    );
}
