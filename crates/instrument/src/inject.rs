//! Plan rewriting: injecting profiling operators (paper §4, Figure 6).

use dagflow::{
    Application, ComputeCost, Dataset, DatasetId, Job, NarrowKind, OpKind, Parents, Schedule,
    ScheduleOp, Sizes,
};

/// Cost of one profiling operator per task — the "lightweight
/// instrumentation" overhead. Defaults are sub-millisecond per partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingOverhead {
    /// Fixed seconds per task.
    pub fixed_s: f64,
    /// Seconds per byte of the profiled partition (the pass-through copy).
    pub per_byte_s: f64,
}

impl Default for ProfilingOverhead {
    fn default() -> Self {
        ProfilingOverhead {
            fixed_s: 0.000_5,
            per_byte_s: 2.0e-11,
        }
    }
}

/// An instrumented application plus the id mappings back to the original
/// plan.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The rewritten plan (copies interleaved with profiling shadows).
    pub app: Application,
    /// For each instrumented dataset id: the original dataset it is a copy
    /// of (`None` for profiling shadows).
    pub copy_of: Vec<Option<DatasetId>>,
    /// For each instrumented dataset id: the original dataset it profiles
    /// (`None` for plain copies).
    pub profiles: Vec<Option<DatasetId>>,
    /// For each original dataset id: its profiling shadow in the
    /// instrumented plan.
    pub shadow: Vec<DatasetId>,
}

impl Instrumented {
    /// Maps a schedule over original datasets onto the instrumented plan.
    /// Persisting a dataset persists its profiling shadow — the replica the
    /// rest of the DAG depends on, exactly as in Spark_i where downstream
    /// dependencies point at the instrumentation dataset.
    #[must_use]
    pub fn map_schedule(&self, schedule: &Schedule) -> Schedule {
        Schedule::from_ops(
            schedule
                .ops()
                .iter()
                .map(|op| match *op {
                    ScheduleOp::Persist(d) => ScheduleOp::Persist(self.shadow[d.index()]),
                    ScheduleOp::Unpersist(d) => ScheduleOp::Unpersist(self.shadow[d.index()]),
                })
                .collect(),
        )
    }
}

impl Instrumented {
    /// The instrumented plan of `app`, a sizing of the application this
    /// plan was injected from (the same lineage, other sizes; see
    /// `dagflow::Lineages`): this plan with `app`'s sizes, equal to
    /// `inject(app, overhead).app` for the overhead this plan was injected
    /// with. The id mappings (`copy_of`, `profiles`, `shadow`) depend only
    /// on the lineage, so this plan's serve it too.
    ///
    /// # Panics
    /// Panics if `app` has fewer datasets than the injected application.
    #[must_use]
    pub fn sized(&self, app: &Application) -> Application {
        self.app
            .resized(
                |d| match (self.copy_of[d.id.index()], self.profiles[d.id.index()]) {
                    (Some(original), _) => app.dataset(original).sizes(),
                    (None, Some(original)) => Sizes {
                        compute: d.compute,
                        ..app.dataset(original).sizes()
                    },
                    (None, None) => unreachable!("every dataset is a copy or a shadow"),
                },
            )
            .expect("a sizing of a valid application is valid")
    }
}

/// Rewrites `app` so that every dataset is followed by a profiling
/// transformation producing an instrumentation replica, with children, job
/// targets and the default schedule rewired to the replicas.
///
/// # Panics
/// Panics only if the original application violates its own invariants
/// (impossible for validated applications).
#[must_use]
pub fn inject(app: &Application, overhead: ProfilingOverhead) -> Instrumented {
    let n = app.dataset_count();
    let mut datasets: Vec<Dataset> = Vec::with_capacity(n * 2);
    let mut copy_of: Vec<Option<DatasetId>> = Vec::with_capacity(n * 2);
    let mut profiles: Vec<Option<DatasetId>> = Vec::with_capacity(n * 2);
    let mut shadow: Vec<DatasetId> = Vec::with_capacity(n);

    for d in app.datasets() {
        // The copy of the original dataset, reading from the shadows of its
        // parents (Figure 6's dependency redirection).
        let copy_id = DatasetId(datasets.len() as u32);
        datasets.push(Dataset {
            id: copy_id,
            name: d.name.clone(),
            op: d.op,
            parents: d.parents.iter().map(|p| shadow[p.index()]).collect(),
            records: d.records,
            bytes: d.bytes,
            partitions: d.partitions,
            compute: d.compute,
        });
        copy_of.push(Some(d.id));
        profiles.push(None);

        // Its profiling shadow: a pass-through replica.
        let shadow_id = DatasetId(datasets.len() as u32);
        datasets.push(Dataset {
            id: shadow_id,
            name: format_args!("{}#profile", d.name).into(),
            op: OpKind::Narrow(NarrowKind::Profile),
            parents: Parents::from(&[copy_id][..]),
            records: d.records,
            bytes: d.bytes,
            partitions: d.partitions,
            compute: ComputeCost::new(overhead.fixed_s, 0.0, overhead.per_byte_s),
        });
        copy_of.push(None);
        profiles.push(Some(d.id));
        shadow.push(shadow_id);
    }

    let jobs: Vec<Job> = app
        .jobs()
        .iter()
        .map(|j| Job {
            action: j.action.clone(),
            target: shadow[j.target.index()],
        })
        .collect();

    let partial = Instrumented {
        app: Application::new(
            format!("{}+spark_i", app.name()),
            datasets,
            jobs,
            Schedule::empty(),
        )
        .expect("instrumented plan preserves invariants"),
        copy_of,
        profiles,
        shadow,
    };
    let mapped_default = partial.map_schedule(app.default_schedule());
    let mut instrumented = partial;
    instrumented
        .app
        .set_default_schedule(mapped_default)
        .expect("mapped schedule refers to shadows that exist");
    instrumented
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{AppBuilder, LineageAnalysis, SourceFormat, StagePlan, WideKind};

    fn sample() -> Application {
        let mut b = AppBuilder::new("s");
        let src = b.source("in", SourceFormat::DistributedFs, 100, 1_000, 4);
        let m = b.narrow(
            "m",
            NarrowKind::Map,
            &[src],
            100,
            900,
            ComputeCost::new(0.01, 0.0, 0.0),
        );
        let agg = b.wide_with_partitions(
            "agg",
            WideKind::TreeAggregate,
            &[m],
            1,
            64,
            1,
            ComputeCost::new(0.005, 0.0, 0.0),
        );
        b.job("collect", agg);
        b.job("collect2", agg);
        b.default_schedule(Schedule::persist_all([m]));
        b.build().unwrap()
    }

    #[test]
    fn doubles_dataset_count_and_rewires() {
        let app = sample();
        let instr = inject(&app, ProfilingOverhead::default());
        assert_eq!(instr.app.dataset_count(), 6);
        // Copy of `m` depends on the shadow of `src`.
        let m_copy = DatasetId(2);
        assert_eq!(instr.app.dataset(m_copy).parents, vec![DatasetId(1)]);
        assert!(instr.app.dataset(DatasetId(1)).op.is_profile());
        // Jobs target the final shadow.
        assert_eq!(instr.app.jobs()[0].target, DatasetId(5));
        assert!(instr.app.validate().is_ok());
    }

    #[test]
    fn mappings_are_consistent() {
        let app = sample();
        let instr = inject(&app, ProfilingOverhead::default());
        for (orig_idx, &sh) in instr.shadow.iter().enumerate() {
            assert_eq!(instr.profiles[sh.index()], Some(DatasetId(orig_idx as u32)));
            let copy = instr.app.dataset(sh).parents[0];
            assert_eq!(
                instr.copy_of[copy.index()],
                Some(DatasetId(orig_idx as u32))
            );
        }
    }

    #[test]
    fn schedule_maps_to_shadows() {
        let app = sample();
        let instr = inject(&app, ProfilingOverhead::default());
        assert_eq!(
            instr.app.default_schedule().persisted(),
            vec![instr.shadow[1]],
            "persist(m) becomes persist(shadow-of-m)"
        );
    }

    /// Profiling must not change the lineage structure: computation counts
    /// of copies equal those of the originals.
    #[test]
    fn computation_counts_preserved() {
        let app = sample();
        let la = LineageAnalysis::new(&app);
        let instr = inject(&app, ProfilingOverhead::default());
        let la_i = LineageAnalysis::new(&instr.app);
        for d in app.datasets() {
            let copy = instr.app.dataset(instr.shadow[d.id.index()]).parents[0];
            assert_eq!(
                la.computation_counts()[d.id.index()],
                la_i.computation_counts()[copy.index()],
                "count mismatch for {}",
                d.name
            );
        }
    }

    /// Profiling shadows are narrow, so stage structure is preserved
    /// (same number of stages per job).
    #[test]
    fn stage_structure_preserved() {
        let app = sample();
        let instr = inject(&app, ProfilingOverhead::default());
        for ji in 0..app.jobs().len() {
            let orig = StagePlan::build(&app, dagflow::JobId(ji as u32));
            let inst = StagePlan::build(&instr.app, dagflow::JobId(ji as u32));
            assert_eq!(orig.stages.len(), inst.stages.len());
        }
    }
}
