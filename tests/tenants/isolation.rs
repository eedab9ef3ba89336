//! Isolation guarantees: the tenancy machinery must be invisible
//! whenever contention is impossible — a single-tenant set is the plain
//! engine byte-for-byte, a weight-0 co-tenant changes nothing, and with
//! ample memory each tenant's cache behaviour is exactly its solo run's.

use std::sync::Arc;

use juggler_suite::cluster_sim::{Engine, RunOptions, Tenant, TenantSet};
use juggler_suite::workloads::{LogisticRegression, SqlStarJoin};

use crate::support;

#[test]
fn single_tenant_set_is_byte_identical_to_the_engine() {
    let w = LogisticRegression;
    let app = support::drill_app(&w);
    let schedule = Arc::new(app.default_schedule().clone());
    let cluster = support::cluster(support::AMPLE_RAM);
    let plain = Engine::new(&app, cluster, support::quiet_sim(&w, 0x150))
        .run_shared(&schedule, RunOptions::default())
        .expect("plain run succeeds");
    let set = TenantSet {
        cluster,
        tenants: vec![Tenant::new(&app, schedule, support::quiet_sim(&w, 0x150))],
    };
    let tr = set.run(RunOptions::default()).expect("tenant run succeeds");
    assert_eq!(tr.reports.len(), 1);
    assert_eq!(tr.reports[0].digest(), plain.digest());
    assert_eq!(
        tr.reports[0], plain,
        "single-tenant set must be the single-app path"
    );
    assert!((tr.makespan_s - plain.total_time_s).abs() < 1e-12);
}

#[test]
fn weight_zero_co_tenant_is_invisible() {
    // A lone *active* tenant next to an admitted but weightless SQL
    // tenant: the ghost must leave no trace in LOR's report.
    let (a, b) = (LogisticRegression, SqlStarJoin);
    let app_a = support::drill_app(&a);
    let app_b = support::drill_app(&b);
    let schedule_a = Arc::new(app_a.default_schedule().clone());
    let cluster = support::cluster(support::AMPLE_RAM);
    let plain = Engine::new(&app_a, cluster, support::quiet_sim(&a, 0x151))
        .run_shared(&schedule_a, RunOptions::default())
        .expect("plain run succeeds");
    let set = TenantSet {
        cluster,
        tenants: vec![
            Tenant::new(&app_a, schedule_a, support::quiet_sim(&a, 0x151)),
            Tenant {
                weight: 0.0,
                ..Tenant::new(
                    &app_b,
                    Arc::new(app_b.default_schedule().clone()),
                    support::quiet_sim(&b, 0x152),
                )
            },
        ],
    };
    let tr = set.run(RunOptions::default()).expect("tenant run succeeds");
    assert_eq!(tr.reports[0].digest(), plain.digest());
    assert_eq!(tr.reports[0].cache, plain.cache);
    // The placeholder ran nothing and self-describes its admission.
    assert_eq!(tr.reports[1].total_tasks, 0);
    assert_eq!(tr.reports[1].job_times_s.len(), 0);
    assert_eq!(tr.reports[1].contention.weight, 0.0);
    assert_eq!(tr.reports[1].contention.tenant, 1);
}

#[test]
fn ample_memory_preserves_solo_cache_behaviour() {
    // With a pool that holds both tenants' cached datasets, slot sharing
    // stretches *time* but must not change *cache behaviour*: dataset by
    // dataset, each tenant's hits, misses and residency are exactly what
    // its solo run produced, and nobody cross-evicts anybody.
    let (a, b) = (LogisticRegression, SqlStarJoin);
    let app_a = support::drill_app(&a);
    let app_b = support::drill_app(&b);
    let schedule_a = Arc::new(app_a.default_schedule().clone());
    let schedule_b = Arc::new(app_b.default_schedule().clone());
    let cluster = support::cluster(support::AMPLE_RAM);
    let solo_a = Engine::new(&app_a, cluster, support::quiet_sim(&a, 0x153))
        .run_shared(&schedule_a, RunOptions::default())
        .expect("solo LOR succeeds");
    let solo_b = Engine::new(&app_b, cluster, support::quiet_sim(&b, 0x154))
        .run_shared(&schedule_b, RunOptions::default())
        .expect("solo SQLJOIN succeeds");

    let set = TenantSet {
        cluster,
        tenants: vec![
            Tenant::new(&app_a, schedule_a, support::quiet_sim(&a, 0x153)),
            Tenant {
                arrival_offset_s: support::LATE_ARRIVAL_S,
                weight: 2.0,
                ..Tenant::new(&app_b, schedule_b, support::quiet_sim(&b, 0x154))
            },
        ],
    };
    let tr = set.run(RunOptions::default()).expect("tenant run succeeds");

    for (ti, (shared, solo)) in tr.reports.iter().zip([&solo_a, &solo_b]).enumerate() {
        assert_eq!(
            shared.cache.per_dataset, solo.cache.per_dataset,
            "tenant {ti}: ample memory must preserve solo per-dataset cache stats"
        );
        assert_eq!(shared.contention.cross_evictions_suffered, 0, "tenant {ti}");
        assert_eq!(
            shared.contention.cross_evictions_inflicted, 0,
            "tenant {ti}"
        );
        // Sharing can only slow a tenant down, never speed it up.
        assert!(
            shared.total_time_s + 1e-9 >= solo.total_time_s,
            "tenant {ti} beat its solo run under sharing"
        );
    }
}
