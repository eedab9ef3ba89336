//! The run engine: sequential jobs, stage pruning against the cache,
//! schedule enforcement, driver overheads, and report assembly.
//!
//! This is the reproduction's stand-in for both vanilla Spark (run with the
//! application's default schedule) and the paper's *Juggler engine* — "a
//! modified version of Spark that overwrites the developer-cached datasets
//! with the recommended schedule by injecting cache/unpersist instructions
//! into the DAG" (§5.3) — run with any other schedule.

use std::collections::HashMap;
use std::sync::Arc;

use dagflow::{
    Application, DagError, DatasetId, JobId, Schedule, ScheduleOp, StagePlan, StagePlanner,
};

use crate::config::{ClusterConfig, SimParams};
use crate::eviction::DatasetHints;
use crate::executor::{run_stage, ExecutorState};
use crate::fault::{ChaosState, FaultSummary};
use crate::memory::{BlockLayout, BlockStore};
use crate::report::{CacheStats, ContentionSummary, RunReport, StageTiming, TaskTrace};
use crate::rng::TaskNoise;
use crate::task::{Sizing, TaskEnv};
use crate::trace::{TraceConfig, TraceCounters, TraceRecorder};

/// Per-run options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Collect per-task pipeline traces into [`RunReport::traces`] (costs
    /// memory proportional to total tasks; [`Engine::run_observed`] hands
    /// them to a sink one at a time instead).
    pub collect_traces: bool,
    /// Per-partition size skew amplitude (0 = perfectly even partitions).
    pub partition_skew: f64,
    /// Structured trace recording (spans + counters into a ring buffer,
    /// exported via [`crate::trace::RunTrace`]). Disabled by default; when
    /// disabled every recording call is a no-op.
    pub trace: TraceConfig,
}

/// Feeds one finished run's counters into the metrics registry in scope,
/// if any.
fn record_run_metrics(counters: &TraceCounters, total_tasks: u64, faults: &FaultSummary) {
    let Some(reg) = obs::Registry::current() else {
        return;
    };
    reg.counter("sim_runs_total", "simulated runs completed")
        .inc();
    reg.counter("sim_tasks_total", "tasks executed across all runs")
        .add(total_tasks);
    reg.counter(
        "sim_cache_hits_total",
        "cache reads that found the block resident",
    )
    .add(counters.cache_hits);
    reg.counter(
        "sim_cache_misses_total",
        "cache reads that missed, forcing recomputation",
    )
    .add(counters.cache_misses);
    reg.counter(
        "sim_evictions_total",
        "blocks evicted under memory pressure",
    )
    .add(counters.evictions);
    reg.counter(
        "sim_insert_failures_total",
        "cache inserts rejected for lack of memory",
    )
    .add(counters.insert_failures);
    reg.counter("sim_unpersisted_total", "blocks dropped by unpersist/swap")
        .add(counters.unpersisted);
    reg.counter(
        "sim_spills_total",
        "tasks that could not claim execution memory and spilled",
    )
    .add(counters.spills);
    reg.counter(
        "sim_locality_fallbacks_total",
        "tasks that gave up on their cache-local machine and ran elsewhere",
    )
    .add(counters.locality_fallbacks);
    // Chaos counters register only when non-zero: fault-free runs leave
    // the registry (and every golden pinned on it) exactly as before.
    for (value, name, help) in [
        (
            faults.failed_attempts,
            "sim_task_failures_total",
            "task attempts that failed from injected transient failures",
        ),
        (
            faults.retried_attempts,
            "sim_task_retries_total",
            "failed task attempts that were retried",
        ),
        (
            faults.exhausted_tasks,
            "sim_retry_exhausted_total",
            "tasks whose retry budget was exhausted",
        ),
        (
            faults.slowed_tasks,
            "sim_slowed_tasks_total",
            "task attempts slowed by a slow-node window",
        ),
        (
            faults.speculative_launched,
            "sim_speculative_tasks_total",
            "speculative task copies launched",
        ),
        (
            faults.speculative_wins,
            "sim_speculative_wins_total",
            "speculative copies that beat the original attempt",
        ),
        (
            faults.blacklist.len() as u64,
            "sim_blacklisted_machines_total",
            "machines blacklisted after repeated task failures",
        ),
        (
            faults.fired_count() as u64,
            "sim_faults_fired_total",
            "planned fault events that took effect",
        ),
        (
            faults.unfired_count() as u64,
            "sim_faults_unfired_total",
            "planned fault events that did not fire",
        ),
    ] {
        if value > 0 {
            reg.counter(name, help).add(value);
        }
    }
}

/// Cumulative run-wide counters for a trace snapshot: cache behaviour
/// summed over the run's datasets ([`BlockStore::active_stats`]), plus
/// executor-level spill/locality and fault tallies.
fn gather_counters(store: &BlockStore, state: &ExecutorState, chaos: &ChaosState) -> TraceCounters {
    let (task_retries, speculative_tasks, blacklisted_machines) = chaos.counter_snapshot();
    let mut c = TraceCounters {
        spills: state.spilled_tasks,
        locality_fallbacks: state.locality_fallbacks,
        task_retries,
        speculative_tasks,
        blacklisted_machines,
        ..TraceCounters::default()
    };
    for (_, s) in store.active_stats() {
        c.cache_hits += s.hits;
        c.cache_misses += s.misses;
        c.evictions += s.evictions;
        c.insert_failures += s.insert_failures;
        c.unpersisted += s.unpersisted;
    }
    c
}

/// Everything about an application a run needs but no run mutates: the
/// dataset→jobs use lists, the per-job stage plans and the static
/// shuffle-consumer table. Built once per application (inside
/// [`Engine::new`]) and shared across engines — the
/// training pipeline hands one `Arc<EnginePrep>` to every grid point via
/// [`Engine::with_prep`], so a thousand-cell simulation matrix plans each
/// job exactly once instead of once per cell per job.
#[derive(Debug)]
pub struct EnginePrep {
    /// The jobs whose DAG contains each dataset, for the DAG-aware
    /// eviction policies' hints.
    pub(crate) job_uses: JobUses,
    /// One stage plan per job, in job order.
    pub(crate) plans: Vec<StagePlan>,
    /// `consumers[ji][sp]` — for stage position `sp` of job `ji`, the
    /// statically possible shuffle consumers as `(consumer_stage_index,
    /// wide_dataset)` pairs, ordered by consumer stage, then by wide id.
    /// Runs filter by their `needed` set at job time.
    pub(crate) consumers: Vec<Vec<Vec<(u32, DatasetId)>>>,
    /// Pool of executor states (core grid, claim deques, median heaps,
    /// compiled-walk buffers), returned at run end and reset on reuse so
    /// repeated runs — grid cells in the training fan-out above all — skip
    /// those allocations. Shared across the engines of a fan-out via the
    /// prep `Arc`; a popped state is fully reset, so pool order cannot
    /// influence results. The block store is not pooled: its layout
    /// depends on the run's schedule and sets up in O(datasets +
    /// persisted blocks).
    scratch: std::sync::Mutex<Vec<ExecutorState>>,
}

impl EnginePrep {
    /// Precomputes the schedule-independent run state of an application,
    /// in time linear in the application's jobs × (their DAG edges + stage
    /// members): one ancestor walk per job for the use lists, one
    /// [`StagePlanner`] shared by every job's plan, one pass over each
    /// plan's shuffle reads for the consumer table.
    #[must_use]
    pub fn new(app: &Application) -> Self {
        let n = app.dataset_count();
        let job_uses = JobUses::new(app);
        let mut planner = StagePlanner::new(app);
        let plans: Vec<StagePlan> = (0..app.jobs().len())
            .map(|ji| planner.plan(app, JobId(ji as u32)))
            .collect();
        // `consumers`: index each plan's stages by output (outputs are
        // unique within a plan), then visit every wide read once, in
        // (stage, wide) order, and file it under the stages producing its
        // parents. A wide listing one parent twice (a self-join) is filed
        // once.
        let mut stage_of = vec![u32::MAX; n];
        let consumers = plans
            .iter()
            .map(|plan| {
                for s in &plan.stages {
                    stage_of[s.output.index()] = s.id.0;
                }
                let mut table: Vec<Vec<(u32, DatasetId)>> = vec![Vec::new(); plan.stages.len()];
                for s in &plan.stages {
                    for w in s.shuffle_reads(app) {
                        for p in &app.dataset(w).parents {
                            let Some(list) = table.get_mut(stage_of[p.index()] as usize) else {
                                continue;
                            };
                            if list.last() != Some(&(s.id.0, w)) {
                                list.push((s.id.0, w));
                            }
                        }
                    }
                }
                for s in &plan.stages {
                    stage_of[s.output.index()] = u32::MAX;
                }
                table
            })
            .collect();
        EnginePrep {
            job_uses,
            plans,
            consumers,
            scratch: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The precomputed stage plans, one per job.
    #[must_use]
    pub fn plans(&self) -> &[StagePlan] {
        &self.plans
    }
}

/// `job_uses` in compressed rows: the jobs whose DAG contains dataset `d`
/// are `jobs[offsets[d]..offsets[d + 1]]`, ascending — two allocations per
/// application instead of one list per dataset.
#[derive(Debug)]
pub(crate) struct JobUses {
    offsets: Vec<u32>,
    jobs: Vec<u32>,
}

impl JobUses {
    /// One stamp-guarded ancestor walk per job target collects the
    /// `(dataset, job)` pairs in job order; a counting sort by dataset
    /// then files them, so each row is ascending.
    fn new(app: &Application) -> Self {
        let n = app.dataset_count();
        // `stamp[d]` holds the last job whose walk reached `d`, so each
        // dataset is visited once per job.
        let mut stamp = vec![u32::MAX; n];
        let mut stack: Vec<DatasetId> = Vec::new();
        let mut pairs: Vec<(DatasetId, u32)> = Vec::new();
        let mut offsets = vec![0u32; n + 1];
        for (ji, job) in app.jobs().iter().enumerate() {
            let ji = ji as u32;
            stack.push(job.target);
            while let Some(x) = stack.pop() {
                if stamp[x.index()] == ji {
                    continue;
                }
                stamp[x.index()] = ji;
                pairs.push((x, ji));
                offsets[x.index() + 1] += 1;
                stack.extend_from_slice(&app.dataset(x).parents);
            }
        }
        for d in 0..n {
            offsets[d + 1] += offsets[d];
        }
        // The stamps are spent: reuse them as each row's fill cursor.
        let mut cursor = stamp;
        cursor.copy_from_slice(&offsets[..n]);
        let mut jobs = vec![0u32; pairs.len()];
        for (d, ji) in pairs {
            let at = &mut cursor[d.index()];
            jobs[*at as usize] = ji;
            *at += 1;
        }
        JobUses { offsets, jobs }
    }

    /// The jobs using `d`, ascending.
    pub(crate) fn row(&self, d: DatasetId) -> &[u32] {
        &self.jobs[self.offsets[d.index()] as usize..self.offsets[d.index() + 1] as usize]
    }

    /// The number of datasets with a row.
    fn datasets(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// The simulation engine. Construct once per (application, cluster,
/// parameters) and call [`Engine::run`] per schedule.
#[derive(Debug)]
pub struct Engine<'a> {
    app: &'a Application,
    cluster: ClusterConfig,
    params: SimParams,
    /// Schedule-independent precomputation, shareable across engines over
    /// the same application (grid points differ only in cluster/params).
    prep: Arc<EnginePrep>,
}

impl<'a> Engine<'a> {
    /// Creates an engine, precomputing the application's [`EnginePrep`].
    #[must_use]
    pub fn new(app: &'a Application, cluster: ClusterConfig, params: SimParams) -> Self {
        Engine::with_prep(app, cluster, params, Arc::new(EnginePrep::new(app)))
    }

    /// Creates an engine over an already-built [`EnginePrep`] (which must
    /// come from the same application). This is the fan-out constructor:
    /// per-grid-point engines share the prep instead of re-deriving it.
    #[must_use]
    pub fn with_prep(
        app: &'a Application,
        cluster: ClusterConfig,
        params: SimParams,
        prep: Arc<EnginePrep>,
    ) -> Self {
        debug_assert_eq!(
            prep.job_uses.datasets(),
            app.dataset_count(),
            "prep built from a different application"
        );
        Engine {
            app,
            cluster,
            params,
            prep,
        }
    }

    /// The application this engine runs.
    #[must_use]
    pub fn app(&self) -> &'a Application {
        self.app
    }

    /// The shared schedule-independent precomputation.
    #[must_use]
    pub fn prep(&self) -> &Arc<EnginePrep> {
        &self.prep
    }

    /// A fresh block store for a run persisting `persisted`: block slots
    /// for the persisted datasets only.
    fn run_store(&self, persisted: &[bool]) -> BlockStore {
        BlockStore::with_policy(
            &self.cluster,
            BlockLayout::persisted([(self.app, persisted)]),
            self.params.eviction_policy,
        )
    }

    /// Runs the application under `schedule`, overriding whatever the
    /// developers cached (pass [`Application::default_schedule`] to
    /// reproduce the baseline behaviour).
    ///
    /// The schedule is deep-cloned once into the report; callers that
    /// already hold an [`Arc<Schedule>`] should prefer [`Engine::run_shared`],
    /// which only bumps the reference count.
    pub fn run(&self, schedule: &Schedule, options: RunOptions) -> Result<RunReport, DagError> {
        self.run_inner(schedule, None, options, None)
    }

    /// Like [`Engine::run`] but for a shared schedule: the report's
    /// `schedule` field is a clone of the `Arc`, not of the `Schedule`.
    pub fn run_shared(
        &self,
        schedule: &Arc<Schedule>,
        options: RunOptions,
    ) -> Result<RunReport, DagError> {
        self.run_inner(schedule, Some(schedule), options, None)
    }

    /// Like [`Engine::run`], but hands each finished task's trace to
    /// `sink` as the task completes instead of collecting it: the report's
    /// `traces` stay empty whatever `options.collect_traces` says. The
    /// trace's step list lives in a buffer the executor reuses for the
    /// next task, so a consumer that folds traces as they arrive (the
    /// `instrument` crate's profiling database) keeps none of them.
    pub fn run_observed(
        &self,
        schedule: &Schedule,
        options: RunOptions,
        sink: &mut dyn FnMut(&TaskTrace),
    ) -> Result<RunReport, DagError> {
        self.run_inner(schedule, None, options, Some(sink))
    }

    fn run_inner(
        &self,
        schedule: &Schedule,
        shared: Option<&Arc<Schedule>>,
        options: RunOptions,
        mut observer: Option<&mut (dyn FnMut(&TaskTrace) + '_)>,
    ) -> Result<RunReport, DagError> {
        self.app.check_schedule(schedule)?;
        // Phase profiling: one `sim` span per run, with coarse sub-phases
        // (fault boundary, stage execution). Deliberately not per-task —
        // the per-run granularity keeps armed-idle overhead inside the
        // profiler's <5% budget even on thousand-cell training grids.
        let _prof = obs::prof::scope("sim");
        let mut stepper = JobStepper::new(
            self.app,
            &self.cluster,
            &self.params,
            Arc::clone(&self.prep),
            schedule,
            options,
        );
        let mut store = self.run_store(stepper.persisted());
        while !stepper.done() {
            stepper.step_job(&mut store, &self.cluster, 0.0, observer.as_deref_mut());
        }
        let schedule = shared.map_or_else(|| Arc::new(schedule.clone()), Arc::clone);
        Ok(stepper.finish(&store, schedule))
    }
}

/// One application's run in progress: the state the engine keeps while it
/// runs the application's jobs in order (§5.3) — stage pruning against
/// the cache, driver overhead and per-job cache deltas. [`Engine::run`]
/// steps one stepper to completion over a private store;
/// [`crate::TenantSet::run`] interleaves one per active tenant over a
/// shared pool.
pub(crate) struct JobStepper<'a> {
    app: &'a Application,
    params: &'a SimParams,
    prep: Arc<EnginePrep>,
    collect_traces: bool,
    machines: u32,
    /// Cores per machine the executor grid is currently sized for.
    cores: u32,
    persisted: Vec<bool>,
    swap: HashMap<DatasetId, DatasetId>,
    hints: JobHints,
    sizing: Sizing,
    state: ExecutorState,
    chaos: ChaosState,
    /// Seconds since the application started.
    now: f64,
    next_job: usize,
    job_times: Vec<f64>,
    per_job_cache: Vec<Vec<(DatasetId, u64, u64)>>,
    stage_times: Vec<StageTiming>,
    traces: Vec<TaskTrace>,
    recorder: TraceRecorder,
    // Scratch buffers reused across jobs and stages.
    before: Vec<(u64, u64)>,
    consumers: Vec<DatasetId>,
    needed: Vec<bool>,
    stage_stack: Vec<usize>,
}

impl<'a> JobStepper<'a> {
    /// Starts a run of `app` under `schedule` on `cluster`: unpacks the
    /// schedule and draws the run's startup jitter. The executor state
    /// comes from the prep's scratch pool when a previous run returned
    /// one (reset to pristine before use), so repeated runs — above all
    /// the training fan-out's grid cells — skip its allocations.
    pub(crate) fn new(
        app: &'a Application,
        cluster: &ClusterConfig,
        params: &'a SimParams,
        prep: Arc<EnginePrep>,
        schedule: &Schedule,
        options: RunOptions,
    ) -> Self {
        let machines = cluster.machines.max(1);
        let cores = cluster.spec.cores;
        let (persisted, swap) = unpack_schedule(app, schedule);
        let mut noise = TaskNoise::new(params.seed, params.noise);
        // Absolute cluster-dynamics jitter: drawn once per run (container
        // provisioning, JVM warm-up), dominating short sample runs.
        let startup_jitter = noise.uniform() * params.cluster_jitter_s;
        let pooled = prep
            .scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        let state = match pooled {
            Some(mut state) => {
                state.reset(machines, cores, noise);
                state
            }
            None => ExecutorState::new(machines, cores, noise),
        };
        let jobs = app.jobs().len();
        JobStepper {
            app,
            params,
            prep,
            collect_traces: options.collect_traces,
            machines,
            cores,
            hints: JobHints::new(&persisted),
            sizing: Sizing::new(app, options.partition_skew),
            persisted,
            swap,
            state,
            chaos: ChaosState::new(&params.faults, params.retry, machines as usize),
            now: params.app_startup_s + startup_jitter,
            next_job: 0,
            job_times: Vec::with_capacity(jobs),
            per_job_cache: Vec::with_capacity(jobs),
            stage_times: Vec::new(),
            traces: Vec::new(),
            recorder: TraceRecorder::new(options.trace),
            before: Vec::new(),
            consumers: Vec::new(),
            needed: Vec::new(),
            stage_stack: Vec::new(),
        }
    }

    /// The run's persist flags, per dataset id.
    pub(crate) fn persisted(&self) -> &[bool] {
        &self.persisted
    }

    /// Seconds since the application started.
    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// Seconds task attempts queued for a free slot so far.
    pub(crate) fn slot_wait_s(&self) -> f64 {
        self.state.slot_wait_s
    }

    /// Whether every job has run.
    pub(crate) fn done(&self) -> bool {
        self.next_job == self.app.jobs().len()
    }

    /// Runs the next job on `cluster`, whose per-machine core count may
    /// differ from the previous job's (the executor grid is resized at
    /// the boundary). `clock_offset_s` maps the run's clock onto the
    /// store's simulation clock; the store ignores it outside tenancy.
    /// Finished tasks' traces go to `observer` when one is given, else
    /// to the run's own list when the run collects traces; either way
    /// through the one per-task sink the executor calls.
    pub(crate) fn step_job(
        &mut self,
        store: &mut BlockStore,
        cluster: &ClusterConfig,
        clock_offset_s: f64,
        observer: Option<&mut (dyn FnMut(&TaskTrace) + '_)>,
    ) {
        if cluster.spec.cores != self.cores {
            self.cores = cluster.spec.cores;
            self.state.resize_cores(self.machines, self.cores);
        }
        let ji = self.next_job;
        let job = JobId(ji as u32);
        let job_start = self.now;
        store.set_sim_now(clock_offset_s + job_start);
        // Boundary fault events (executor loss, memory pressure) due at
        // this job start take effect now; events scheduled after the last
        // boundary are reported as "not fired" in the summary instead of
        // being silently dropped.
        {
            let _prof = obs::prof::scope("faults");
            self.chaos.fire_due(job_start, store, &mut self.state);
        }
        self.hints.refresh(&self.prep.job_uses, ji, store);
        // Per-job hit/miss snapshot of the persisted datasets, aligned
        // with `hints` (untouched datasets read as zero).
        self.before.clear();
        self.before.extend(self.hints.datasets().map(|d| {
            store
                .dataset_stats(d)
                .map_or((0, 0), |s| (s.hits, s.misses))
        }));

        let plan = &self.prep.plans[ji];
        needed_stages(
            self.app,
            plan,
            &self.persisted,
            store,
            &mut self.needed,
            &mut self.stage_stack,
        );
        let traces = &mut self.traces;
        let mut collect = |t: &TaskTrace| traces.push(t.clone());
        let mut sink: Option<&mut dyn FnMut(&TaskTrace)> = match observer {
            Some(observer) => Some(observer),
            None if self.collect_traces => Some(&mut collect),
            None => None,
        };
        let env = TaskEnv {
            app: self.app,
            cluster,
            params: self.params,
            persisted: &self.persisted,
            swap: &self.swap,
            sizing: &self.sizing,
            trace: sink.is_some(),
        };
        for (sp, stage) in plan.stages.iter().enumerate() {
            if !self.needed[stage.id.index()] {
                continue;
            }
            // Wide datasets of needed downstream stages that read this
            // stage's output: the static table filtered by this run's
            // `needed` set, in the order the per-stage scan produced.
            self.consumers.clear();
            self.consumers.extend(
                self.prep.consumers[ji][sp]
                    .iter()
                    .filter(|&&(cs, _)| self.needed[cs as usize])
                    .map(|&(_, w)| w),
            );
            let stage_start = self.now;
            store.set_sim_now(clock_offset_s + stage_start);
            let stage_prof = obs::prof::scope("stages");
            self.now = run_stage(
                &env,
                store,
                &mut self.state,
                &mut self.chaos,
                job,
                stage,
                &self.consumers,
                stage_start,
                sink.as_deref_mut(),
                &mut self.recorder,
            );
            drop(stage_prof);
            self.stage_times.push(StageTiming {
                job,
                stage: stage.id,
                start: stage_start,
                finish: self.now,
                tasks: stage.num_tasks,
            });
            if self.recorder.enabled() {
                self.recorder
                    .stage_span(job.0, stage.id.0, stage_start, self.now, stage.num_tasks);
                self.recorder
                    .counter_snapshot(self.now, gather_counters(store, &self.state, &self.chaos));
            }
        }
        // Serial driver work: job bookkeeping plus per-machine
        // coordination (the area-B term), with a small absolute wobble
        // from cluster dynamics.
        self.now += self.params.driver_per_job_s
            + self.params.driver_per_machine_s * f64::from(self.machines)
            + self.state.noise.uniform() * self.params.cluster_jitter_s * 0.02;
        self.job_times.push(self.now - job_start);
        self.recorder.job_span(job.0, job_start, self.now);

        // Per-job deltas over the persisted datasets that have stats, in
        // dataset-id order (consumers look entries up by id).
        let deltas: Vec<(DatasetId, u64, u64)> = self
            .hints
            .datasets()
            .zip(&self.before)
            .filter_map(|(d, &(h0, m0))| {
                store
                    .dataset_stats(d)
                    .map(|s| (d, s.hits - h0, s.misses - m0))
            })
            .collect();
        self.per_job_cache.push(deltas);
        self.next_job += 1;
        store.set_sim_now(clock_offset_s + self.now);
    }

    /// Assembles the finished run's report from `store`'s view of the run
    /// (its active tenant's statistics under tenancy), feeds the run's
    /// counters to the profiler and the metrics registry in scope, and
    /// returns the executor state to the pool. The contention summary is
    /// left quiet for the caller to fill in.
    pub(crate) fn finish(self, store: &BlockStore, schedule: Arc<Schedule>) -> RunReport {
        let final_counters = gather_counters(store, &self.state, &self.chaos);
        // Per-run counter deltas attributed to the `sim` node — applied
        // once per run from the aggregate snapshot (never per task), and
        // zero-gated so fault-free profiles show only the counters that
        // actually moved. Every value is seed-deterministic, so profile
        // structure digests stay thread-count-invariant.
        for (value, name) in [
            (final_counters.cache_hits, "cache_hits"),
            (final_counters.cache_misses, "cache_misses"),
            (final_counters.evictions, "evictions"),
            (final_counters.spills, "spills"),
            (final_counters.task_retries, "retries"),
            (final_counters.speculative_tasks, "speculative"),
        ] {
            if value > 0 {
                obs::prof::count(name, value);
            }
        }
        let faults = self.chaos.finish(self.now);
        record_run_metrics(&final_counters, self.state.total_tasks, &faults);
        let trace = self.recorder.finish(final_counters);
        let cache = CacheStats {
            peak_storage_bytes: store.peak_storage(),
            peak_exec_bytes: store.peak_exec(),
            per_dataset: store.active_stats().map(|(d, s)| (d, s.clone())).collect(),
        };
        let state = self.state;
        let (spilled_tasks, total_tasks, task_attempts) =
            (state.spilled_tasks, state.total_tasks, state.task_attempts);
        // Return the executor state to the pool (bounded so a pile of
        // one-shot engines cannot hoard memory).
        {
            let mut pool = self
                .prep
                .scratch
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if pool.len() < 32 {
                pool.push(state);
            }
        }
        RunReport {
            app: self.app.name().to_owned(),
            schedule,
            machines: self.machines,
            total_time_s: self.now,
            job_times_s: self.job_times,
            cache,
            per_job_cache: self.per_job_cache,
            stage_times: self.stage_times,
            traces: self.traces,
            trace,
            spilled_tasks,
            total_tasks,
            task_attempts,
            faults,
            contention: ContentionSummary::default(),
        }
    }
}

/// Unpacks a schedule into the run's persist flags (per dataset id) and
/// its `u(X)`-before-`p(Y)` swap pairs, keyed `Y → X`.
pub(crate) fn unpack_schedule(
    app: &Application,
    schedule: &Schedule,
) -> (Vec<bool>, HashMap<DatasetId, DatasetId>) {
    let mut persisted = vec![false; app.dataset_count()];
    let mut swap = HashMap::new();
    let mut pending_unpersist: Option<DatasetId> = None;
    for op in schedule.ops() {
        match *op {
            ScheduleOp::Persist(d) => {
                persisted[d.index()] = true;
                if let Some(x) = pending_unpersist.take() {
                    swap.insert(d, x);
                }
            }
            ScheduleOp::Unpersist(d) => pending_unpersist = Some(d),
        }
    }
    (persisted, swap)
}

/// DAG-aware eviction hints of a run's persisted datasets — the only
/// possible victims — for the LRC and MRD policies. Each dataset keeps a
/// cursor into its ascending job-use list ([`EnginePrep`]'s `job_uses`)
/// that only moves forward as jobs advance, so a run's refreshes cost
/// O(jobs × persisted + uses) instead of a full list scan per dataset per
/// job.
struct JobHints {
    /// `(dataset, index of its first use at or after the current job)`,
    /// in dataset-id order.
    cursors: Vec<(DatasetId, usize)>,
}

impl JobHints {
    fn new(persisted: &[bool]) -> Self {
        JobHints {
            cursors: (0..persisted.len() as u32)
                .map(DatasetId)
                .filter(|d| persisted[d.index()])
                .map(|d| (d, 0))
                .collect(),
        }
    }

    /// The persisted datasets, in id order.
    fn datasets(&self) -> impl Iterator<Item = DatasetId> + '_ {
        self.cursors.iter().map(|&(d, _)| d)
    }

    /// Every persisted dataset's hint for job `ji`: references remaining
    /// and distance to the next use, from `ji` onward. Calls must come in
    /// non-decreasing job order.
    fn advance<'s>(
        &'s mut self,
        job_uses: &'s JobUses,
        ji: usize,
    ) -> impl Iterator<Item = (DatasetId, DatasetHints)> + 's {
        let ji = ji as u32;
        self.cursors.iter_mut().map(move |(d, cursor)| {
            let uses = job_uses.row(*d);
            while uses.get(*cursor).is_some_and(|&u| u < ji) {
                *cursor += 1;
            }
            let hint = DatasetHints {
                remaining_refs: (uses.len() - *cursor) as u64,
                next_use_distance: uses.get(*cursor).map_or(u32::MAX, |&u| u - ji),
            };
            (*d, hint)
        })
    }

    /// Rewrites every persisted dataset's hint in `store` for job `ji`, so
    /// stale hints cannot leak across jobs.
    fn refresh(&mut self, job_uses: &JobUses, ji: usize, store: &mut BlockStore) {
        for (d, hint) in self.advance(job_uses, ji) {
            store.set_hint(d, hint);
        }
    }
}

/// Determines which stages of a job must actually run, given current cache
/// residency: the result stage always runs; a map stage is skipped when
/// every wide dataset consuming it is fully resident (Spark would read the
/// cached blocks and skip the parent stages entirely).
fn needed_stages(
    app: &Application,
    plan: &StagePlan,
    persisted: &[bool],
    store: &BlockStore,
    needed: &mut Vec<bool>,
    stack: &mut Vec<usize>,
) {
    needed.clear();
    needed.resize(plan.stages.len(), false);
    // Walk top-down from the result stage.
    stack.clear();
    stack.push(plan.stages.len() - 1);
    while let Some(si) = stack.pop() {
        if needed[si] {
            continue;
        }
        needed[si] = true;
        let stage = &plan.stages[si];
        for wide in stage.shuffle_reads(app) {
            let fully_resident = persisted[wide.index()]
                && store.resident_count(wide) == app.dataset(wide).partitions;
            if fully_resident {
                continue;
            }
            // Parent stages producing this wide dataset's inputs must run.
            for &parent_ds in &app.dataset(wide).parents {
                if let Some(ps) = plan.stages.iter().position(|s| s.output == parent_ds) {
                    stack.push(ps);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};

    use crate::config::{MachineSpec, NoiseParams};

    /// A small iterative app: input → parsed (cacheable) → k gradient jobs.
    fn iterative_app(iterations: usize) -> Application {
        let mut b = AppBuilder::new("iter");
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

    fn quiet_params() -> SimParams {
        SimParams {
            noise: NoiseParams::NONE,
            cluster_jitter_s: 0.0,
            seed: 1,
            ..SimParams::default()
        }
    }

    /// The construction `EnginePrep::new` replaced — a full
    /// `LineageAnalysis`, an O(datasets × jobs) membership scan and an
    /// O(stages²) consumer scan per job — kept as the oracle for the
    /// linear-time one.
    #[allow(clippy::type_complexity)]
    fn reference_prep(
        app: &Application,
    ) -> (
        Vec<Vec<usize>>,
        Vec<StagePlan>,
        Vec<Vec<Vec<(u32, DatasetId)>>>,
    ) {
        let la = dagflow::LineageAnalysis::new(app);
        let job_uses: Vec<Vec<usize>> = (0..app.dataset_count() as u32)
            .map(|d| {
                (0..app.jobs().len())
                    .filter(|&j| la.in_job(DatasetId(d), JobId(j as u32)))
                    .collect()
            })
            .collect();
        let plans: Vec<StagePlan> = (0..app.jobs().len())
            .map(|ji| StagePlan::build(app, JobId(ji as u32)))
            .collect();
        let consumers = plans
            .iter()
            .map(|plan| {
                plan.stages
                    .iter()
                    .map(|stage| {
                        plan.stages
                            .iter()
                            .flat_map(|s| {
                                s.shuffle_reads(app).map(move |w| (s.id.index() as u32, w))
                            })
                            .filter(|&(_, w)| app.dataset(w).parents.contains(&stage.output))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        (job_uses, plans, consumers)
    }

    /// A random application: 1–3 sources, then narrow and wide
    /// transformations over 1–3 random older parents (a wide sometimes
    /// lists one parent twice, a self-join), then 1–5 jobs over random
    /// targets, repeats allowed.
    pub(crate) fn random_app(seed: u64) -> Application {
        let mut state = seed;
        let mut pick = |bound: usize| -> usize {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut b = AppBuilder::new("random");
        let sources = 1 + pick(3);
        for i in 0..sources {
            let parts = 1 + pick(6) as u32;
            b.source(format!("s{i}"), SourceFormat::Generated, 100, 1000, parts);
        }
        for i in 0..4 + pick(21) {
            let older = b.dataset_count();
            let mut parents: Vec<DatasetId> = (0..1 + pick(3))
                .map(|_| DatasetId(pick(older) as u32))
                .collect();
            let cost = ComputeCost::new(0.01, 0.0, 1e-9);
            if pick(3) == 0 {
                if pick(4) == 0 {
                    parents.push(parents[0]);
                }
                let parts = 1 + pick(6) as u32;
                let kind = if parents.len() > 1 {
                    WideKind::Join
                } else {
                    WideKind::ReduceByKey
                };
                b.wide_with_partitions(format!("w{i}"), kind, &parents, 100, 1000, parts, cost);
            } else {
                parents.sort_unstable();
                parents.dedup();
                b.narrow(format!("n{i}"), NarrowKind::Map, &parents, 100, 1000, cost);
            }
        }
        let count = b.dataset_count();
        for _ in 0..1 + pick(5) {
            let target = DatasetId((sources + pick(count - sources)) as u32);
            b.job("count", target);
        }
        b.build().expect("random apps are valid")
    }

    #[test]
    fn prep_matches_reference_construction_on_random_dags() {
        // Shapes the oracle must have seen at least once.
        let (mut diamond, mut self_join, mut multi_parent_wide) = (false, false, false);
        let (mut shared_map_stage, mut outside_jobs) = (false, false);
        for seed in 0..400 {
            let app = random_app(seed);
            let prep = EnginePrep::new(&app);
            let (job_uses, plans, consumers) = reference_prep(&app);
            assert_eq!(prep.job_uses.datasets(), job_uses.len(), "seed {seed}");
            for (d, want) in job_uses.iter().enumerate() {
                let row: Vec<usize> = prep
                    .job_uses
                    .row(DatasetId(d as u32))
                    .iter()
                    .map(|&j| j as usize)
                    .collect();
                assert_eq!(&row, want, "job_uses of D{d}, seed {seed}");
            }
            // The prep's one shared planner against a fresh one per job.
            assert_eq!(prep.plans, plans, "plans, seed {seed}");
            assert_eq!(prep.consumers, consumers, "consumers, seed {seed}");

            let la = dagflow::LineageAnalysis::new(&app);
            let in_a_job = |d: DatasetId| !job_uses[d.index()].is_empty();
            outside_jobs |= app.datasets().iter().any(|d| !in_a_job(d.id));
            for d in app.datasets().iter().filter(|d| in_a_job(d.id)) {
                let mut distinct = d.parents.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                if d.op.is_wide() {
                    self_join |= distinct.len() < d.parents.len();
                    multi_parent_wide |= distinct.len() > 1;
                }
                // Two parents with a common ancestor (or one the other's).
                diamond |= distinct.iter().enumerate().any(|(i, &p)| {
                    distinct[i + 1..].iter().any(|&q| {
                        (0..=p.0).map(DatasetId).any(|a| {
                            (a == p || la.is_descendant(p, a)) && (a == q || la.is_descendant(q, a))
                        })
                    })
                });
            }
            // A map stage (not a job's result stage) planned by two jobs.
            let mut map_outputs: Vec<DatasetId> = plans
                .iter()
                .flat_map(|p| {
                    let mut outs: Vec<DatasetId> = p.stages[..p.stages.len() - 1]
                        .iter()
                        .map(|s| s.output)
                        .collect();
                    outs.sort_unstable();
                    outs.dedup();
                    outs
                })
                .collect();
            let all = map_outputs.len();
            map_outputs.sort_unstable();
            map_outputs.dedup();
            shared_map_stage |= map_outputs.len() < all;
        }
        assert!(diamond, "no diamond generated");
        assert!(self_join, "no self-join wide generated");
        assert!(multi_parent_wide, "no multi-parent wide generated");
        assert!(shared_map_stage, "no map stage shared by two jobs");
        assert!(outside_jobs, "no dataset outside every job");
    }

    #[test]
    fn job_hint_cursors_match_full_list_scans() {
        for seed in 0..200 {
            let app = random_app(seed);
            let prep = EnginePrep::new(&app);
            let persisted: Vec<bool> = (0..app.dataset_count())
                .map(|d| !(d as u64 + seed).is_multiple_of(3))
                .collect();
            let mut hints = JobHints::new(&persisted);
            for ji in 0..app.jobs().len() {
                let got: Vec<(DatasetId, DatasetHints)> =
                    hints.advance(&prep.job_uses, ji).collect();
                // The scan the cursors replaced.
                let want: Vec<(DatasetId, DatasetHints)> = (0..app.dataset_count() as u32)
                    .map(DatasetId)
                    .filter(|d| persisted[d.index()])
                    .map(|d| {
                        let uses = prep.job_uses.row(d);
                        let ji = ji as u32;
                        let hint = DatasetHints {
                            remaining_refs: uses.iter().filter(|&&u| u >= ji).count() as u64,
                            next_use_distance: uses
                                .iter()
                                .find(|&&u| u >= ji)
                                .map_or(u32::MAX, |&u| u - ji),
                        };
                        (d, hint)
                    })
                    .collect();
                assert_eq!(got, want, "seed {seed}, job {ji}");
            }
        }
    }

    #[test]
    fn run_store_has_slots_for_persisted_blocks_only() {
        // Datasets: in (8 partitions), parsed (8), grad[0..3] (1 each).
        let app = iterative_app(3);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        for (schedule, blocks) in [
            (Schedule::empty(), 0),
            (Schedule::persist_all([DatasetId(1)]), 8),
            (Schedule::persist_all([DatasetId(0), DatasetId(2)]), 9),
            (
                Schedule::from_ops(vec![
                    ScheduleOp::Persist(DatasetId(1)),
                    ScheduleOp::Unpersist(DatasetId(1)),
                    ScheduleOp::Persist(DatasetId(3)),
                ]),
                9,
            ),
        ] {
            let (persisted, _) = unpack_schedule(&app, &schedule);
            let store = engine.run_store(&persisted);
            assert_eq!(store.layout().block_count(), blocks);
            assert_eq!(store.layout().dataset_count(), app.dataset_count());
        }
    }

    #[test]
    fn caching_speeds_up_iterative_runs() {
        let app = iterative_app(10);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let cold = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        let hot = engine
            .run(
                &Schedule::persist_all([DatasetId(1)]),
                RunOptions::default(),
            )
            .unwrap();
        assert!(
            hot.total_time_s < cold.total_time_s * 0.6,
            "cached {} vs uncached {}",
            hot.total_time_s,
            cold.total_time_s
        );
        // Cache stats: 8 partitions resident, later jobs all hits.
        let stats = hot.cache.per_dataset.get(&DatasetId(1)).unwrap();
        assert_eq!(stats.resident_partitions, 8);
        assert!(stats.hits > 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn job_times_sum_to_total() {
        let app = iterative_app(5);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let r = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        let sum: f64 = r.job_times_s.iter().sum();
        assert!((r.total_time_s - (sum + quiet_params().app_startup_s)).abs() < 1e-9);
        assert_eq!(r.job_times_s.len(), 5);
    }

    #[test]
    fn runs_are_deterministic() {
        let app = iterative_app(4);
        let cluster = ClusterConfig::new(3, MachineSpec::paper_example());
        let params = SimParams {
            seed: 99,
            ..SimParams::default()
        };
        let engine = Engine::new(&app, cluster, params);
        let s = Schedule::persist_all([DatasetId(1)]);
        let a = engine.run(&s, RunOptions::default()).unwrap();
        let b = engine.run(&s, RunOptions::default()).unwrap();
        assert_eq!(a.total_time_s, b.total_time_s);
        assert_eq!(a.job_times_s, b.job_times_s);
    }

    #[test]
    fn memory_limited_cluster_evicts_and_recomputes() {
        // Dataset (800 MB) exceeds one tiny machine's cache: partial
        // residency, recomputation misses every iteration — area A.
        let app = iterative_app(6);
        let spec = MachineSpec {
            ram_bytes: 1_000_000_000, // M = 420 MB, holds 4/8 blocks
            ..MachineSpec::paper_example()
        };
        let cluster = ClusterConfig::new(1, spec);
        let params = SimParams {
            exec_mem_per_task_factor: 0.0,
            noise: NoiseParams::NONE,
            ..SimParams::default()
        };
        let engine = Engine::new(&app, cluster, params.clone());
        let r = engine
            .run(
                &Schedule::persist_all([DatasetId(1)]),
                RunOptions::default(),
            )
            .unwrap();
        let stats = r.cache.per_dataset.get(&DatasetId(1)).unwrap();
        assert_eq!(stats.resident_partitions, 4, "capacity/size fraction stays");
        assert!(stats.insert_failures > 0);
        assert_eq!(stats.evictions, 0, "no self-eviction thrash");
        // Per-job cache deltas show steady-state misses in later jobs.
        let last = r.per_job_cache.last().unwrap();
        let (_, hits, misses) = last.iter().find(|(d, _, _)| *d == DatasetId(1)).unwrap();
        assert_eq!(*hits, 4);
        assert_eq!(*misses, 4);
        // More machines: everything fits, misses vanish after job 1.
        let big = Engine::new(&app, ClusterConfig::new(2, spec), params);
        let r2 = big
            .run(
                &Schedule::persist_all([DatasetId(1)]),
                RunOptions::default(),
            )
            .unwrap();
        let last2 = r2.per_job_cache.last().unwrap();
        let (_, hits2, misses2) = last2.iter().find(|(d, _, _)| *d == DatasetId(1)).unwrap();
        assert_eq!(*hits2, 8);
        assert_eq!(*misses2, 0);
        assert!(r2.total_time_s < r.total_time_s);
    }

    #[test]
    fn traces_only_when_requested() {
        let app = iterative_app(2);
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let quiet = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        assert!(quiet.traces.is_empty());
        let traced = engine
            .run(
                &Schedule::empty(),
                RunOptions {
                    collect_traces: true,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(traced.traces.len() as u64, traced.total_tasks);
    }

    #[test]
    fn structured_trace_records_spans_and_counters() {
        let app = iterative_app(3);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        // Disabled by default: no trace, no allocation.
        let plain = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        assert!(plain.trace.is_none());

        let opts = RunOptions {
            trace: crate::trace::TraceConfig::enabled(),
            ..RunOptions::default()
        };
        let traced = engine
            .run(&Schedule::persist_all([DatasetId(1)]), opts)
            .unwrap();
        let trace = traced.trace.as_ref().expect("trace present");
        let (jobs, stages, waves, tasks, snaps) = trace.event_counts();
        assert_eq!(jobs, traced.job_times_s.len());
        assert_eq!(stages, traced.stage_times.len());
        assert_eq!(tasks as u64, traced.total_tasks);
        assert!(waves >= stages, "≥1 wave per stage");
        // One counter snapshot per stage.
        assert_eq!(snaps, traced.stage_times.len());
        // Final counters match the report's aggregate cache stats.
        let hits: u64 = traced.cache.per_dataset.values().map(|s| s.hits).sum();
        assert_eq!(trace.counters.cache_hits, hits);
        assert_eq!(trace.counters.spills, traced.spilled_tasks);
        assert_eq!(trace.task_durations.count, traced.total_tasks);
        assert_eq!(trace.dropped_events, 0);
        // Identical runs produce identical traces (seeded determinism).
        let again = engine
            .run(&Schedule::persist_all([DatasetId(1)]), opts)
            .unwrap();
        assert_eq!(traced.trace, again.trace);
    }

    #[test]
    fn stage_times_tile_the_run() {
        let app = iterative_app(4);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let r = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        assert!(!r.stage_times.is_empty());
        let startup = quiet_params().app_startup_s;
        for st in &r.stage_times {
            assert!(st.start >= startup - 1e-9);
            assert!(st.finish <= r.total_time_s + 1e-9);
            assert!(st.duration() >= 0.0);
            assert!(st.tasks >= 1);
        }
        // Stages are reported in execution order.
        for w in r.stage_times.windows(2) {
            assert!(w[1].start >= w[0].start - 1e-9);
        }
        // Per job, stage durations fit inside the job time.
        for ji in 0..r.job_times_s.len() {
            let stage_total: f64 = r
                .stage_times
                .iter()
                .filter(|st| st.job.index() == ji)
                .map(StageTiming::duration)
                .sum();
            assert!(
                stage_total <= r.job_times_s[ji] + 1e-9,
                "job {ji}: stages {stage_total} vs job {}",
                r.job_times_s[ji]
            );
        }
    }

    #[test]
    fn cached_runs_skip_stages_in_stage_times() {
        let app = iterative_app(5);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let cold = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        let hot = engine
            .run(
                &Schedule::persist_all([DatasetId(1)]),
                RunOptions::default(),
            )
            .unwrap();
        // Same stage count here (caching shortens tasks, not stages), but
        // the cached map stages are far quicker after job 0.
        assert_eq!(cold.stage_times.len(), hot.stage_times.len());
        let last_cold = cold.stage_times.last().unwrap();
        let last_hot = hot.stage_times.last().unwrap();
        assert!(last_hot.finish < last_cold.finish);
    }

    #[test]
    fn rejects_foreign_schedule() {
        let app = iterative_app(1);
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let bad = Schedule::persist_all([DatasetId(999)]);
        assert!(engine.run(&bad, RunOptions::default()).is_err());
    }

    #[test]
    fn unpersist_swap_bounds_peak_storage() {
        // x (400 MB) → y (400 MB); schedule p(x) p(y) vs p(x) u(x) p(y).
        let mut b = AppBuilder::new("swap");
        let src = b.source("in", SourceFormat::DistributedFs, 100, 400_000_000, 4);
        let x = b.narrow(
            "x",
            NarrowKind::Map,
            &[src],
            100,
            400_000_000,
            ComputeCost::new(0.01, 0.0, 1e-9),
        );
        let y = b.narrow(
            "y",
            NarrowKind::Map,
            &[x],
            100,
            400_000_000,
            ComputeCost::new(0.01, 0.0, 1e-9),
        );
        // Two jobs over x (so caching x pays), then jobs over y only.
        let vx = b.narrow("vx", NarrowKind::Map, &[x], 1, 8, ComputeCost::FREE);
        b.job("count", vx);
        let vx2 = b.narrow("vx2", NarrowKind::Map, &[x], 1, 8, ComputeCost::FREE);
        b.job("count", vx2);
        for i in 0..3 {
            let v = b.narrow(
                format!("vy{i}"),
                NarrowKind::Map,
                &[y],
                1,
                8,
                ComputeCost::FREE,
            );
            b.job("count", v);
        }
        let app = b.build().unwrap();
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());

        let both = Schedule::from_ops(vec![ScheduleOp::Persist(x), ScheduleOp::Persist(y)]);
        let swap = Schedule::from_ops(vec![
            ScheduleOp::Persist(x),
            ScheduleOp::Unpersist(x),
            ScheduleOp::Persist(y),
        ]);
        let r_both = engine.run(&both, RunOptions::default()).unwrap();
        let r_swap = engine.run(&swap, RunOptions::default()).unwrap();
        assert!(r_both.cache.peak_storage_bytes >= 790_000_000);
        assert!(
            r_swap.cache.peak_storage_bytes < 550_000_000,
            "swap peak {} should be ~max(|x|,|y|) + one block",
            r_swap.cache.peak_storage_bytes
        );
        // After the run, x is gone, y resident.
        assert_eq!(
            r_swap
                .cache
                .per_dataset
                .get(&x)
                .unwrap()
                .resident_partitions,
            0
        );
        assert_eq!(
            r_swap
                .cache
                .per_dataset
                .get(&y)
                .unwrap()
                .resident_partitions,
            4
        );
    }

    #[test]
    fn fully_cached_wide_dataset_skips_map_stages() {
        // input → parsed → wideagg (cached); iterative jobs over a narrow
        // child of wideagg. Once wideagg is resident, the expensive map
        // stage must be skipped.
        let mut b = AppBuilder::new("skip");
        let src = b.source("in", SourceFormat::DistributedFs, 8_000, 1_120_000_000, 8);
        let parsed = b.narrow(
            "parsed",
            NarrowKind::Map,
            &[src],
            8_000,
            800_000_000,
            ComputeCost::new(0.05, 1e-5, 4e-9),
        );
        let agg = b.wide(
            "agg",
            WideKind::ReduceByKey,
            &[parsed],
            4_000,
            200_000_000,
            ComputeCost::new(0.01, 0.0, 1e-9),
        );
        for i in 0..4 {
            let v = b.narrow(
                format!("v{i}"),
                NarrowKind::Map,
                &[agg],
                1,
                8,
                ComputeCost::FREE,
            );
            b.job("count", v);
        }
        let app = b.build().unwrap();
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let cold = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        let hot = engine
            .run(&Schedule::persist_all([agg]), RunOptions::default())
            .unwrap();
        let startup = quiet_params().app_startup_s;
        assert!(
            hot.total_time_s - startup < (cold.total_time_s - startup) * 0.5,
            "hot {} vs cold {}",
            hot.total_time_s,
            cold.total_time_s
        );
        // Task counts: cold runs map+reduce stages each job; hot runs the
        // map stage only in job 0.
        assert!(hot.total_tasks < cold.total_tasks);
    }
}
