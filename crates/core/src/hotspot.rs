//! Hotspot detection — Algorithm 1 of the paper.
//!
//! From one instrumented sample run, Juggler knows each dataset's
//! computation time `ET`, size, and number of computations `n`. It then
//! greedily builds an incremental family of *schedules*: in every round it
//! caches the dataset with the highest benefit-cost ratio
//! `BCR = benefit / size`, where the benefit of caching `D` is
//! `(n − 1) × (ET_D + Σ uncached-ancestor ETs)` (Eq. 4), with three
//! refinements:
//!
//! * **single-child exclusion** (lines 12–13): a dataset that is the only
//!   child of an already-cached dataset is never added;
//! * **re-evaluation** (lines 16–20): when the newly selected dataset is an
//!   ancestor of the one added in the previous round, the previous one is
//!   pulled back into the pool and re-ranked — this is what orders parents
//!   before children in the final instruction lists;
//! * **unpersist optimization** (lines 24–25): a cached dataset whose
//!   remaining uses all flow through the next cached dataset is unpersisted
//!   right before its successor caches, shrinking the schedule's memory
//!   budget to `max` instead of sum.
//!
//! Schedules with equal memory budget (within [`COST_TOLERANCE`]) keep
//! only the highest-benefit one (lines 30–32) — this is why PCA ends up
//! with a single (the third) schedule in Table 2.
//!
//! Deviations from the paper's pseudocode, both documented in DESIGN.md:
//! the incremental count bookkeeping (`n_p −= …`) is replaced by an exact
//! cache-aware recount (`LineageAnalysis::pulls`) that reproduces every
//! number of the §5.1 worked example while staying correct on non-chain
//! DAGs; and datasets whose remaining benefit drops below
//! [`HotspotConfig::min_benefit_s`] leave the pool (the paper's SVM/PCA
//! schedule counts imply the same pruning).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dagflow::{Application, DatasetId, LineageAnalysis, Schedule, ScheduleOp};
use instrument::DatasetMetrics;

/// Tunables for Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotspotConfig {
    /// Benefit floor, in seconds (at sample-run scale): datasets whose
    /// benefit falls to or below this leave the candidate pool.
    pub min_benefit_s: f64,
    /// Cache-contention pressure factor (≥ 0). Under multi-tenant
    /// contention a cached block's expected residency shrinks with its
    /// size — bigger blocks attract eviction pressure sooner — so each
    /// candidate's benefit is discounted by `1 / (1 + pressure ×
    /// size_d / Σ candidate-pool sizes)` before pruning and BCR
    /// ranking. Zero (the default) reproduces the single-tenant
    /// algorithm bit-for-bit; the reported cumulative schedule benefits
    /// are never discounted, so schedules stay monotone either way.
    #[serde(default)]
    pub pressure: f64,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        HotspotConfig {
            min_benefit_s: 0.005,
            pressure: 0.0,
        }
    }
}

/// Dense per-dataset metric view the algorithm consumes.
#[derive(Debug, Clone)]
pub struct DatasetMetricsView {
    /// `et[d]` — measured computation time of dataset `d`, seconds.
    pub et: Vec<f64>,
    /// `size[d]` — measured size of dataset `d`, bytes.
    pub size: Vec<u64>,
}

impl DatasetMetricsView {
    /// Builds the dense view from instrumentation output; unobserved
    /// datasets get zero time and size.
    #[must_use]
    pub fn from_metrics(metrics: &[DatasetMetrics], dataset_count: usize) -> Self {
        let mut et = vec![0.0; dataset_count];
        let mut size = vec![0u64; dataset_count];
        for m in metrics {
            et[m.dataset.index()] = m.et_seconds;
            size[m.dataset.index()] = m.size_bytes;
        }
        DatasetMetricsView { et, size }
    }
}

/// One produced schedule, with its provenance numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedSchedule {
    /// The ordered persist/unpersist instructions (shared — downstream
    /// recommendations and reports reference the schedule without deep
    /// copies).
    pub schedule: Arc<Schedule>,
    /// Total caching benefit, seconds (at sample-run scale).
    pub benefit_s: f64,
    /// Memory budget, bytes (at sample-run scale).
    pub budget_bytes: u64,
}

/// Why a dataset did or did not end up in the cached set — the per-dataset
/// verdict of Algorithm 1, surfaced by `juggler doctor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditOutcome {
    /// Selected in the given 1-based round and kept in the final set.
    Accepted {
        /// Round in which the dataset won the BCR ranking.
        round: u32,
    },
    /// Left the pool because its remaining benefit fell to or below
    /// [`HotspotConfig::min_benefit_s`].
    PrunedLowBenefit,
    /// Still excluded at termination as the single child of a cached
    /// parent (Algorithm 1 lines 12–13).
    SingleChildExcluded,
    /// Stayed eligible but was outranked on BCR every round.
    Outranked,
}

impl AuditOutcome {
    /// Short human label (`accepted (round 2)`, `pruned: low benefit`, …).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            AuditOutcome::Accepted { round } => format!("accepted (round {round})"),
            AuditOutcome::PrunedLowBenefit => "pruned: low benefit".to_owned(),
            AuditOutcome::SingleChildExcluded => {
                "excluded: single child of cached parent".to_owned()
            }
            AuditOutcome::Outranked => "outranked on BCR".to_owned(),
        }
    }
}

/// One dataset's final audit row: the numbers from its *last* BCR
/// evaluation plus the final verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetAudit {
    /// The dataset.
    pub dataset: DatasetId,
    /// Benefit at the last evaluation, seconds (Eq. 4, sample scale).
    pub benefit_s: f64,
    /// Measured size, bytes (sample scale).
    pub size_bytes: u64,
    /// Benefit-cost ratio at the last evaluation; zero when the dataset
    /// never reached the ranking step.
    pub bcr: f64,
    /// Number of BCR evaluations this dataset went through.
    pub evaluations: u32,
    /// The final verdict.
    pub outcome: AuditOutcome,
}

/// One generated schedule's audit row, including those the equal-cost rule
/// (Algorithm 1 lines 30–32) later discarded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleAudit {
    /// Schedule notation (`p(1) p(2) u(2) p(11)`).
    pub notation: String,
    /// Cumulative benefit, seconds (sample scale).
    pub benefit_s: f64,
    /// Memory budget, bytes (sample scale).
    pub budget_bytes: u64,
    /// Whether the schedule survived the equal-cost discard rule.
    pub kept: bool,
}

/// The full decision trace of one [`detect_hotspots_audited`] invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotspotAudit {
    /// Per-dataset verdicts, ordered by dataset id.
    pub datasets: Vec<DatasetAudit>,
    /// Every generated schedule in generation order, kept or not.
    pub schedules: Vec<ScheduleAudit>,
    /// Ranking rounds executed.
    pub rounds: u32,
    /// Total BCR candidate evaluations across all rounds.
    pub bcr_evaluations: u64,
    /// Re-evaluation pull-backs (Algorithm 1 lines 16–20).
    pub reevaluations: u32,
    /// The contention-pressure factor the detection ran under (see
    /// [`HotspotConfig::pressure`]); zero for single-tenant runs.
    #[serde(default)]
    pub pressure: f64,
}

/// Per-dataset bookkeeping while the ranking loop runs.
#[derive(Debug, Clone, Copy)]
struct AuditCell {
    benefit_s: f64,
    bcr: f64,
    evaluations: u32,
    outcome: AuditOutcome,
}

/// Runs hotspot detection. `metrics` comes from the instrumented sample
/// run; the lineage (computation counts) comes from the application plan.
/// Returns schedules ordered as generated (increasing benefit and budget).
#[must_use]
pub fn detect_hotspots(
    app: &Application,
    metrics: &DatasetMetricsView,
    config: &HotspotConfig,
) -> Vec<RankedSchedule> {
    detect_hotspots_audited(app, metrics, config).0
}

/// [`detect_hotspots`] plus the [`HotspotAudit`] decision trace. The
/// schedules are identical to the unaudited call; the audit is pure
/// bookkeeping layered on the same loop.
#[must_use]
pub fn detect_hotspots_audited(
    app: &Application,
    metrics: &DatasetMetricsView,
    config: &HotspotConfig,
) -> (Vec<RankedSchedule>, HotspotAudit) {
    let la = LineageAnalysis::new(app);
    let mut pool: BTreeSet<DatasetId> = la.intermediates().into_iter().collect();
    let mut audit: BTreeMap<DatasetId, AuditCell> = pool
        .iter()
        .map(|&d| {
            (
                d,
                AuditCell {
                    benefit_s: 0.0,
                    bcr: 0.0,
                    evaluations: 0,
                    outcome: AuditOutcome::Outranked,
                },
            )
        })
        .collect();
    let mut cached: Vec<DatasetId> = Vec::new(); // in addition order
    let mut schedules: Vec<RankedSchedule> = Vec::new();
    let mut rounds = 0u32;
    let mut bcr_evaluations = 0u64;
    let mut reevaluations = 0u32;
    // Generous bound: each round either shrinks the pool or (on
    // re-evaluation) moves a strictly higher ancestor into the schedule.
    let mut rounds_left = 4 * app.dataset_count() + 16;

    while !pool.is_empty() && rounds_left > 0 {
        rounds_left -= 1;
        rounds += 1;
        let cached_set: BTreeSet<DatasetId> = cached.iter().copied().collect();
        let pulls = la.pulls(&cached_set);
        // Expected-residency discount base: a candidate's share of the
        // current pool's bytes approximates how much eviction pressure
        // its blocks would attract from co-tenants.
        let pool_bytes: f64 = if config.pressure > 0.0 {
            pool.iter()
                .map(|&d| metrics.size[d.index()] as f64)
                .sum::<f64>()
                .max(1.0)
        } else {
            0.0
        };

        // Rank the pool by BCR; drop dead candidates.
        let mut best: Option<(f64, f64, DatasetId)> = None; // (bcr, benefit, id)
        let mut dead: Vec<DatasetId> = Vec::new();
        for &d in &pool {
            let n = pulls[d.index()];
            let mut benefit: f64 = if n <= 1 {
                0.0
            } else {
                (n - 1) as f64 * la.chain_cost(d, &cached_set, &metrics.et)
            };
            if config.pressure > 0.0 && benefit > 0.0 {
                let share = metrics.size[d.index()] as f64 / pool_bytes;
                benefit /= 1.0 + config.pressure * share;
            }
            bcr_evaluations += 1;
            let cell = audit.get_mut(&d).expect("pool members are audited");
            cell.evaluations += 1;
            cell.benefit_s = benefit;
            if benefit <= config.min_benefit_s {
                cell.outcome = AuditOutcome::PrunedLowBenefit;
                dead.push(d);
                continue;
            }
            if la.is_single_child_of_any(d, &cached_set) {
                cell.outcome = AuditOutcome::SingleChildExcluded;
                continue; // excluded while its parent is cached
            }
            let size = metrics.size[d.index()].max(1) as f64;
            let bcr = benefit / size;
            cell.bcr = bcr;
            cell.outcome = AuditOutcome::Outranked;
            let better = match best {
                None => true,
                Some((b, _, prev)) => {
                    bcr > b + f64::EPSILON || (bcr >= b - f64::EPSILON && d < prev)
                }
            };
            if better {
                best = Some((bcr, benefit, d));
            }
        }
        for d in dead {
            pool.remove(&d);
        }
        let Some((_, benefit, d_max)) = best else {
            break; // everything left is excluded or dead
        };

        pool.remove(&d_max);
        cached.push(d_max);
        audit.get_mut(&d_max).expect("audited").outcome = AuditOutcome::Accepted { round: rounds };
        let _ = benefit; // cumulative benefit is replayed exactly below

        // Re-evaluation: if the previously added dataset is a descendant of
        // the new one, pull it back and re-rank before emitting.
        if cached.len() >= 2 {
            let d_prev = cached[cached.len() - 2];
            if la.is_descendant(d_prev, d_max) {
                cached.remove(cached.len() - 2);
                pool.insert(d_prev);
                reevaluations += 1;
                audit.get_mut(&d_prev).expect("audited").outcome = AuditOutcome::Outranked;
                continue;
            }
        }
        let total_benefit = replay_benefit(&la, &cached, &metrics.et);

        let schedule = assemble_schedule(&la, &cached);
        let budget = schedule.memory_budget(|d| metrics.size[d.index()]);
        schedules.push(RankedSchedule {
            schedule: Arc::new(schedule),
            benefit_s: total_benefit,
            budget_bytes: budget,
        });
    }

    let keep = dedup_keep_flags(&schedules);
    let schedule_audits: Vec<ScheduleAudit> = schedules
        .iter()
        .zip(&keep)
        .map(|(s, &kept)| ScheduleAudit {
            notation: s.schedule.notation(),
            benefit_s: s.benefit_s,
            budget_bytes: s.budget_bytes,
            kept,
        })
        .collect();
    let kept: Vec<RankedSchedule> = schedules
        .into_iter()
        .zip(&keep)
        .filter_map(|(s, &k)| k.then_some(s))
        .collect();

    record_hotspot_metrics(rounds, bcr_evaluations, reevaluations, &schedule_audits);
    let dataset_audits = audit
        .into_iter()
        .map(|(dataset, cell)| DatasetAudit {
            dataset,
            benefit_s: cell.benefit_s,
            size_bytes: metrics.size[dataset.index()],
            bcr: cell.bcr,
            evaluations: cell.evaluations,
            outcome: cell.outcome,
        })
        .collect();
    (
        kept,
        HotspotAudit {
            datasets: dataset_audits,
            schedules: schedule_audits,
            rounds,
            bcr_evaluations,
            reevaluations,
            pressure: config.pressure,
        },
    )
}

/// Feeds one detection's decision counters into the metrics registry in
/// scope, if any.
fn record_hotspot_metrics(
    rounds: u32,
    bcr_evaluations: u64,
    reevaluations: u32,
    schedules: &[ScheduleAudit],
) {
    let Some(reg) = obs::Registry::current() else {
        return;
    };
    reg.counter("hotspot_detections_total", "hotspot-detection invocations")
        .inc();
    reg.counter("hotspot_rounds_total", "BCR ranking rounds executed")
        .add(u64::from(rounds));
    reg.counter(
        "hotspot_bcr_evaluations_total",
        "candidate BCR evaluations across all ranking rounds",
    )
    .add(bcr_evaluations);
    reg.counter(
        "hotspot_reevaluations_total",
        "re-evaluation pull-backs (Algorithm 1 lines 16-20)",
    )
    .add(u64::from(reevaluations));
    let kept = schedules.iter().filter(|s| s.kept).count() as u64;
    reg.counter(
        "hotspot_schedules_kept_total",
        "schedules surviving the equal-cost rule",
    )
    .add(kept);
    reg.counter(
        "hotspot_schedules_discarded_total",
        "schedules discarded by the equal-cost rule",
    )
    .add(schedules.len() as u64 - kept);
}

/// Recomputes the cumulative benefit of caching `cached` in order (each
/// dataset's benefit is evaluated against the set cached before it).
fn replay_benefit(la: &LineageAnalysis<'_>, cached: &[DatasetId], et: &[f64]) -> f64 {
    let mut set: BTreeSet<DatasetId> = BTreeSet::new();
    let mut total = 0.0;
    for &d in cached {
        let pulls = la.pulls(&set);
        let n = pulls[d.index()];
        if n > 1 {
            total += (n - 1) as f64 * la.chain_cost(d, &set, et);
        }
        set.insert(d);
    }
    total
}

/// Orders the cached set into persist instructions (by first
/// materialization, then lineage order) and inserts the unpersist
/// instructions of lines 24–25.
fn assemble_schedule(la: &LineageAnalysis<'_>, cached: &[DatasetId]) -> Schedule {
    let mut ordered: Vec<DatasetId> = cached.to_vec();
    ordered.sort_by_key(|&d| (la.first_job_of(d), d));
    let mut ops: Vec<ScheduleOp> = Vec::with_capacity(ordered.len() * 2);
    for (i, &d) in ordered.iter().enumerate() {
        if i > 0 {
            let prev = ordered[i - 1];
            // Unpersist `prev` right before caching `d` if `d` descends
            // from it and every remaining use of `prev` flows through `d`.
            if la.is_descendant(d, prev) && la.all_remaining_uses_pass_through(prev, d) {
                ops.push(ScheduleOp::Unpersist(prev));
            }
        }
        ops.push(ScheduleOp::Persist(d));
    }
    Schedule::from_ops(ops)
}

/// Relative tolerance when comparing schedule memory budgets for the
/// equal-cost discard rule (lines 30–32 of Algorithm 1).
pub const COST_TOLERANCE: f64 = 1e-6;

/// Marks, among schedules with (approximately) equal memory budget, only
/// the one with the highest benefit as kept.
fn dedup_keep_flags(schedules: &[RankedSchedule]) -> Vec<bool> {
    let mut discard = vec![false; schedules.len()];
    for i in 0..schedules.len() {
        for j in 0..schedules.len() {
            if i == j || discard[i] || discard[j] {
                continue;
            }
            let a = schedules[i].budget_bytes as f64;
            let b = schedules[j].budget_bytes as f64;
            let close = (a - b).abs() <= COST_TOLERANCE * a.max(b).max(1.0);
            if close {
                // Discard the lower benefit; ties discard the earlier one.
                let (lo, hi) = if schedules[i].benefit_s < schedules[j].benefit_s
                    || (schedules[i].benefit_s == schedules[j].benefit_s && i < j)
                {
                    (i, j)
                } else {
                    (j, i)
                };
                let _ = hi;
                discard[lo] = true;
            }
        }
    }
    discard.iter().map(|&d| !d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};

    /// The paper's Figure-4 / §5.1 merged LOR DAG with the published
    /// metrics: the golden end-to-end test of Algorithm 1.
    fn paper_lor() -> (Application, DatasetMetricsView) {
        let mb = |x: f64| (x * 1_000_000.0) as u64;
        let mut b = AppBuilder::new("lor-fig4");
        let d0 = b.source("input", SourceFormat::DistributedFs, 70_000, mb(76.351), 8);
        let d1 = b.narrow(
            "parsed",
            NarrowKind::Map,
            &[d0],
            70_000,
            mb(76.347),
            ComputeCost::FREE,
        );
        let d2 = b.narrow(
            "points",
            NarrowKind::Map,
            &[d1],
            70_000,
            mb(45.961),
            ComputeCost::FREE,
        );
        let v0 = b.narrow("check", NarrowKind::Map, &[d1], 1, 8, ComputeCost::FREE);
        b.job("count", v0);
        let v1 = b.narrow("stats", NarrowKind::Map, &[d2], 1, 8, ComputeCost::FREE);
        b.job("count", v1);
        let v2 = b.narrow(
            "sample",
            NarrowKind::Sample,
            &[d2],
            10,
            80,
            ComputeCost::FREE,
        );
        b.job("collect", v2);
        let d11 = b.narrow(
            "features",
            NarrowKind::Map,
            &[d2],
            70_000,
            mb(45.975),
            ComputeCost::FREE,
        );
        for i in 0..4 {
            let g = b.wide_with_partitions(
                format!("gradient[{i}]"),
                WideKind::TreeAggregate,
                &[d11],
                1,
                1024,
                1,
                ComputeCost::FREE,
            );
            b.job("treeAggregate", g);
        }
        let v7 = b.narrow("summary", NarrowKind::Map, &[d1], 1, 8, ComputeCost::FREE);
        b.job("collect", v7);
        let app = b.build().unwrap();
        let mut et = vec![0.0; app.dataset_count()];
        // Times from the §5.1 tables, converted ms → s.
        et[d0.index()] = 2.700;
        et[d1.index()] = 0.010;
        et[d2.index()] = 0.014;
        et[d11.index()] = 0.040;
        let size: Vec<u64> = app.datasets().iter().map(|d| d.bytes).collect();
        (app, DatasetMetricsView { et, size })
    }

    const D1: DatasetId = DatasetId(1);
    const D2: DatasetId = DatasetId(2);
    const D11: DatasetId = DatasetId(6); // id 6 in this fixture; "D11" in the paper

    /// End-to-end golden test: the §5.1 example must produce exactly two
    /// surviving schedules — `p(2)` and `p(1) p(2) u(2) p(11)` — with
    /// budgets 45.961 MB and 122.322 MB.
    #[test]
    fn golden_lor_example_schedules() {
        let (app, metrics) = paper_lor();
        let schedules = detect_hotspots(&app, &metrics, &HotspotConfig::default());
        assert_eq!(schedules.len(), 2, "{schedules:?}");

        let s1 = &schedules[0];
        assert_eq!(s1.schedule.ops(), &[ScheduleOp::Persist(D2)]);
        assert_eq!(s1.budget_bytes, 45_961_000);
        // Benefit of caching D2: (6−1) × (14 + 10 + 2700) ms.
        assert!(
            (s1.benefit_s - 5.0 * 2.724).abs() < 1e-9,
            "{}",
            s1.benefit_s
        );

        let s3 = &schedules[1];
        assert_eq!(
            s3.schedule.ops(),
            &[
                ScheduleOp::Persist(D1),
                ScheduleOp::Persist(D2),
                ScheduleOp::Unpersist(D2),
                ScheduleOp::Persist(D11),
            ],
            "got {}",
            s3.schedule
        );
        assert_eq!(s3.budget_bytes, 76_347_000 + 45_975_000);
        assert!(s3.benefit_s > s1.benefit_s);
    }

    /// The intermediate (discarded) schedule {D1, D11} ties the final one
    /// on budget; the survivor must be the higher-benefit one. After the
    /// re-evaluation reorders the set to [D1, D2, D11], the cumulative
    /// benefit is 7×2.710 (D1) + 5×0.014 (D2 | D1) + 3×0.040 (D11 | D1,D2)
    /// — strictly above the discarded {D1, D11} schedule's 7×2.710 +
    /// 3×0.054.
    #[test]
    fn golden_lor_winner_benefit() {
        let (app, metrics) = paper_lor();
        let schedules = detect_hotspots(&app, &metrics, &HotspotConfig::default());
        let expect = 7.0 * 2.710 + 5.0 * 0.014 + 3.0 * 0.040;
        assert!(
            (schedules[1].benefit_s - expect).abs() < 1e-9,
            "{} vs {expect}",
            schedules[1].benefit_s
        );
    }

    /// With no intermediates (a one-shot pipeline) there is nothing to
    /// cache.
    #[test]
    fn no_intermediates_no_schedules() {
        let mut b = AppBuilder::new("oneshot");
        let s = b.source("in", SourceFormat::DistributedFs, 10, 1000, 2);
        let m = b.narrow("m", NarrowKind::Map, &[s], 10, 1000, ComputeCost::FREE);
        b.job("count", m);
        let app = b.build().unwrap();
        let metrics = DatasetMetricsView {
            et: vec![1.0, 1.0],
            size: vec![1000, 1000],
        };
        assert!(detect_hotspots(&app, &metrics, &HotspotConfig::default()).is_empty());
    }

    /// Negligible-benefit intermediates are pruned: a dataset recomputed
    /// twice but costing microseconds must not spawn a schedule.
    #[test]
    fn benefit_threshold_prunes_noise() {
        let mut b = AppBuilder::new("noise");
        let s = b.source("in", SourceFormat::DistributedFs, 10, 1_000_000, 2);
        let shared = b.narrow(
            "shared",
            NarrowKind::Map,
            &[s],
            10,
            1_000_000,
            ComputeCost::FREE,
        );
        let a = b.narrow("a", NarrowKind::Map, &[shared], 1, 8, ComputeCost::FREE);
        b.job("count", a);
        let c = b.narrow("c", NarrowKind::Map, &[shared], 1, 8, ComputeCost::FREE);
        b.job("count", c);
        let app = b.build().unwrap();
        let mut metrics = DatasetMetricsView {
            et: vec![0.000_1; app.dataset_count()],
            size: app.datasets().iter().map(|d| d.bytes).collect(),
        };
        // Benefit of `shared` = 1 × (0.0001 + 0.0001) < 5 ms threshold.
        assert!(detect_hotspots(&app, &metrics, &HotspotConfig::default()).is_empty());
        // Raise its cost above the threshold: one schedule appears.
        metrics.et[1] = 1.0;
        let schedules = detect_hotspots(&app, &metrics, &HotspotConfig::default());
        assert_eq!(schedules.len(), 1);
        assert_eq!(schedules[0].schedule.persisted(), vec![DatasetId(1)]);
    }

    /// The single-child rule: when a parent is cached, its only child never
    /// enters a schedule.
    #[test]
    fn single_child_exclusion() {
        let mut b = AppBuilder::new("singlechild");
        let s = b.source("in", SourceFormat::DistributedFs, 10, 1_000_000, 2);
        // `only` is s's single child; both are reused by two jobs.
        let only = b.narrow(
            "only",
            NarrowKind::Map,
            &[s],
            10,
            1_000_000,
            ComputeCost::FREE,
        );
        let a = b.narrow("a", NarrowKind::Map, &[only], 1, 8, ComputeCost::FREE);
        b.job("count", a);
        let c = b.narrow("c", NarrowKind::Map, &[only], 1, 8, ComputeCost::FREE);
        b.job("count", c);
        let app = b.build().unwrap();
        // `only` is bulkier than its parent, so the source wins round one
        // on BCR; afterwards `only` (the cached source's single child) is
        // excluded even though its residual benefit is well above the
        // pruning floor.
        let metrics = DatasetMetricsView {
            et: vec![5.0, 0.5, 0.0, 0.0],
            size: vec![1_000_000, 2_000_000, 8, 8],
        };
        let schedules = detect_hotspots(&app, &metrics, &HotspotConfig::default());
        assert_eq!(schedules.len(), 1, "{schedules:?}");
        assert_eq!(schedules[0].schedule.persisted(), vec![DatasetId(0)]);
    }

    /// Schedules are monotone: each later schedule has at least the benefit
    /// and budget of earlier ones (the paper: "By caching more datasets in
    /// subsequent SCHEDULES, both the benefit and memory budget increase").
    #[test]
    fn schedules_are_monotone() {
        let (app, metrics) = paper_lor();
        let schedules = detect_hotspots(&app, &metrics, &HotspotConfig::default());
        for w in schedules.windows(2) {
            assert!(w[1].benefit_s >= w[0].benefit_s);
            assert!(w[1].budget_bytes >= w[0].budget_bytes);
        }
    }

    /// Two shared intermediates off one source: `big` (10 MB, 10 s) and
    /// `small` (1 MB, 0.9 s), each recomputed by two jobs.
    fn contended_pair() -> (Application, DatasetMetricsView) {
        let mut b = AppBuilder::new("contended");
        let s = b.source("in", SourceFormat::DistributedFs, 10, 1_000, 2);
        let big = b.narrow(
            "big",
            NarrowKind::Map,
            &[s],
            10,
            10_000_000,
            ComputeCost::FREE,
        );
        let small = b.narrow(
            "small",
            NarrowKind::Map,
            &[s],
            10,
            1_000_000,
            ComputeCost::FREE,
        );
        for (i, &d) in [big, small].iter().enumerate() {
            for j in 0..2 {
                let leaf = b.narrow(
                    format!("leaf{i}{j}"),
                    NarrowKind::Map,
                    &[d],
                    1,
                    8,
                    ComputeCost::FREE,
                );
                b.job("count", leaf);
            }
        }
        let app = b.build().unwrap();
        let mut et = vec![0.0; app.dataset_count()];
        et[big.index()] = 10.0;
        et[small.index()] = 0.9;
        let size: Vec<u64> = app.datasets().iter().map(|d| d.bytes).collect();
        (app, DatasetMetricsView { et, size })
    }

    /// An explicit `pressure: 0.0` is the single-tenant algorithm — the
    /// full audited output is identical to the default configuration.
    #[test]
    fn zero_pressure_is_identity() {
        let (app, metrics) = paper_lor();
        let base = detect_hotspots_audited(&app, &metrics, &HotspotConfig::default());
        let zero = detect_hotspots_audited(
            &app,
            &metrics,
            &HotspotConfig {
                pressure: 0.0,
                ..HotspotConfig::default()
            },
        );
        assert_eq!(base.0, zero.0);
        assert_eq!(base.1, zero.1);
        assert_eq!(base.1.pressure, 0.0);
    }

    /// Pressure discounts large candidates harder: `big` wins the first
    /// round on raw BCR, but under contention its expected residency
    /// shrinks and `small` overtakes it.
    #[test]
    fn pressure_discounts_large_candidates() {
        let (app, metrics) = contended_pair();
        let calm = detect_hotspots(&app, &metrics, &HotspotConfig::default());
        assert_eq!(
            calm[0].schedule.persisted(),
            vec![DatasetId(1)],
            "big first"
        );

        let config = HotspotConfig {
            pressure: 10.0,
            ..HotspotConfig::default()
        };
        let (pressed, audit) = detect_hotspots_audited(&app, &metrics, &config);
        assert_eq!(
            pressed[0].schedule.persisted(),
            vec![DatasetId(2)],
            "small overtakes under pressure"
        );
        assert_eq!(audit.pressure, 10.0);
    }

    /// Extreme pressure drives every candidate's discounted benefit under
    /// the pruning floor: nothing is worth caching when residency is nil.
    #[test]
    fn extreme_pressure_prunes_everything() {
        let (app, metrics) = contended_pair();
        let config = HotspotConfig {
            pressure: 1e9,
            ..HotspotConfig::default()
        };
        assert!(detect_hotspots(&app, &metrics, &config).is_empty());
    }

    /// The reported cumulative benefits are never discounted, so the
    /// schedule family stays monotone under pressure too.
    #[test]
    fn pressured_schedules_stay_monotone() {
        let (app, metrics) = paper_lor();
        let config = HotspotConfig {
            pressure: 0.6,
            ..HotspotConfig::default()
        };
        let schedules = detect_hotspots(&app, &metrics, &config);
        assert!(!schedules.is_empty());
        for w in schedules.windows(2) {
            assert!(w[1].benefit_s >= w[0].benefit_s);
            assert!(w[1].budget_bytes >= w[0].budget_bytes);
        }
    }
}
