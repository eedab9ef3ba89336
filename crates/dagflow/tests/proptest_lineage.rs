//! Property-based tests over random applications: the lineage-analysis
//! invariants Algorithm 1 relies on must hold for *any* valid DAG, not
//! just the curated workloads.

use std::collections::BTreeSet;

use proptest::prelude::*;

use dagflow::{
    AppBuilder, Application, ComputeCost, Dataset, DatasetId, JobId, LineageAnalysis, NarrowKind,
    Schedule, SourceFormat, StagePlan, WideKind,
};

/// Compact recipe for a random application.
#[derive(Debug, Clone)]
struct AppRecipe {
    /// For each non-source dataset: (wide?, parent picks as raw indices).
    nodes: Vec<(bool, Vec<usize>)>,
    /// Job targets as raw indices.
    jobs: Vec<usize>,
}

fn recipe_strategy() -> impl Strategy<Value = AppRecipe> {
    let node = (any::<bool>(), prop::collection::vec(0usize..1000, 1..3));
    (
        prop::collection::vec(node, 1..40),
        prop::collection::vec(0usize..1000, 1..10),
    )
        .prop_map(|(nodes, jobs)| AppRecipe { nodes, jobs })
}

fn build(recipe: &AppRecipe) -> Application {
    let mut b = AppBuilder::new("prop");
    let mut ids = vec![b.source("src", SourceFormat::DistributedFs, 1000, 1 << 20, 4)];
    for (i, (wide, parents)) in recipe.nodes.iter().enumerate() {
        let parents: Vec<DatasetId> = {
            let mut ps: Vec<DatasetId> = parents.iter().map(|&p| ids[p % ids.len()]).collect();
            ps.sort_unstable();
            ps.dedup();
            ps
        };
        let bytes = 1_000 + (i as u64 * 977) % 1_000_000;
        let id = if *wide {
            b.wide(
                format!("w{i}"),
                WideKind::ReduceByKey,
                &parents,
                100,
                bytes,
                ComputeCost::new(0.001, 0.0, 1e-9),
            )
        } else {
            b.narrow(
                format!("n{i}"),
                NarrowKind::Map,
                &parents,
                100,
                bytes,
                ComputeCost::new(0.001, 0.0, 1e-9),
            )
        };
        ids.push(id);
    }
    for &j in &recipe.jobs {
        b.job("count", ids[j % ids.len()]);
    }
    b.build().expect("recipe-built apps satisfy all invariants")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Baseline pulls equal the published computation counts.
    #[test]
    fn pulls_with_empty_cache_equals_counts(recipe in recipe_strategy()) {
        let app = build(&recipe);
        let la = LineageAnalysis::new(&app);
        prop_assert_eq!(la.pulls(&BTreeSet::new()), la.computation_counts().to_vec());
    }

    /// Caching can only reduce (never increase) any dataset's pulls.
    #[test]
    fn caching_never_increases_pulls(recipe in recipe_strategy(), pick in any::<prop::sample::Index>()) {
        let app = build(&recipe);
        let la = LineageAnalysis::new(&app);
        let inter = la.intermediates();
        prop_assume!(!inter.is_empty());
        let cached: BTreeSet<DatasetId> = [inter[pick.index(inter.len())]].into();
        let base = la.pulls(&BTreeSet::new());
        let reduced = la.pulls(&cached);
        for d in app.datasets() {
            if cached.contains(&d.id) {
                continue;
            }
            prop_assert!(
                reduced[d.id.index()] <= base[d.id.index()],
                "{}: {} > {}", d.id, reduced[d.id.index()], base[d.id.index()]
            );
        }
    }

    /// Caching a dataset means each of its parents is pulled at most once
    /// on its behalf: any parent whose every path to a job target passes
    /// through the cached dataset drops to ≤ 1 pull (the single
    /// materialization).
    #[test]
    fn cached_dataset_shields_exclusive_parents(recipe in recipe_strategy(), pick in any::<prop::sample::Index>()) {
        let app = build(&recipe);
        let la = LineageAnalysis::new(&app);
        let inter = la.intermediates();
        prop_assume!(!inter.is_empty());
        let d = inter[pick.index(inter.len())];
        let cached: BTreeSet<DatasetId> = [d].into();
        let pulls = la.pulls(&cached);
        for &p in &app.dataset(d).parents {
            let is_target = app.jobs().iter().any(|j| j.target == p);
            if !is_target && la.children_of(p) == [d] {
                prop_assert!(pulls[p.index()] <= 1, "{p} pulled {}", pulls[p.index()]);
            }
        }
    }

    /// Chain cost is non-negative and never grows when more is cached.
    #[test]
    fn chain_cost_monotone_in_cache(recipe in recipe_strategy(), pick in any::<prop::sample::Index>()) {
        let app = build(&recipe);
        let la = LineageAnalysis::new(&app);
        let et: Vec<f64> = (0..app.dataset_count()).map(|i| (i % 5) as f64 * 0.01).collect();
        let inter = la.intermediates();
        prop_assume!(!inter.is_empty());
        let cached: BTreeSet<DatasetId> = [inter[pick.index(inter.len())]].into();
        for d in app.datasets() {
            if cached.contains(&d.id) {
                continue;
            }
            let base = la.chain_cost(d.id, &BTreeSet::new(), &et);
            let cut = la.chain_cost(d.id, &cached, &et);
            prop_assert!(cut >= 0.0);
            prop_assert!(cut <= base + 1e-12, "{}: {cut} > {base}", d.id);
        }
    }

    /// Every job's stage plan covers the target and respects topology. A
    /// plan is structure only: a copy of the application with other
    /// sizes and partition counts has the same lineage and plans the same
    /// stages, whose task total follows the copy's partitions.
    #[test]
    fn stage_plans_are_wellformed(recipe in recipe_strategy()) {
        let app = build(&recipe);
        let resized = Application::new(
            "resized",
            app.datasets()
                .iter()
                .map(|d| Dataset {
                    partitions: 2 * d.partitions + 1,
                    bytes: d.bytes / 3,
                    ..d.clone()
                })
                .collect(),
            app.jobs().to_vec(),
            Schedule::empty(),
        )
        .expect("a resized copy is valid");
        prop_assert!(app.same_lineage(&resized));
        for ji in 0..app.jobs().len() {
            let plan = StagePlan::build(&app, JobId(ji as u32));
            let target = app.job(JobId(ji as u32)).target;
            prop_assert_eq!(plan.result_stage().output, target);
            prop_assert_eq!(&StagePlan::build(&resized, JobId(ji as u32)), &plan);
            prop_assert_eq!(
                plan.total_tasks(&resized),
                2 * plan.total_tasks(&app) + plan.stages.len() as u64
            );
            for s in &plan.stages {
                for p in &s.parents {
                    prop_assert!(p.index() < s.id.index(), "parents precede children");
                }
                // Pipeline datasets are id-sorted (topological).
                for w in s.datasets.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }
    }

    /// Applications survive a serde round trip with validation intact.
    #[test]
    fn serde_roundtrip_validates(recipe in recipe_strategy()) {
        let app = build(&recipe);
        let json = serde_json::to_string(&app).expect("serialize");
        let back: Application = serde_json::from_str(&json).expect("deserialize");
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(back.dataset_count(), app.dataset_count());
    }

    /// Memory budget never exceeds the plain sum of persisted sizes, and
    /// equals it for unpersist-free schedules.
    #[test]
    fn memory_budget_bounded_by_sum(recipe in recipe_strategy(), picks in prop::collection::vec(any::<prop::sample::Index>(), 1..4)) {
        let app = build(&recipe);
        let mut ds: Vec<DatasetId> = picks
            .iter()
            .map(|p| DatasetId(p.index(app.dataset_count()) as u32))
            .collect();
        ds.sort_unstable();
        ds.dedup();
        let schedule = Schedule::persist_all(ds.clone());
        let size = |d: DatasetId| app.dataset(d).bytes;
        let total: u64 = ds.iter().map(|&d| size(d)).sum();
        prop_assert_eq!(schedule.memory_budget(size), total);
    }
}
