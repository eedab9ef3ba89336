//! Wave-based stage execution with cache locality, execution-memory claims
//! and seeded noise.
//!
//! Tasks are dispatched in index order; each waits for (a) a free core and
//! (b) the driver's serial launch loop (`task_launch_s` per task). A task
//! prefers the machine holding its cached partition (Spark's locality
//! scheduling) unless that machine is busy far beyond the cluster-wide
//! earliest slot (`LOCALITY_WAIT_S`, mirroring `spark.locality.wait`).
//! Stage duration is the makespan over all tasks — the `N_waves` structure
//! of the paper's §3.3 emerges from `⌈tasks / cores⌉` waves of roughly
//! equal task durations.

use dagflow::{DatasetId, JobId, Stage};

use crate::fault::ChaosState;
use crate::memory::BlockStore;
use crate::report::TaskTrace;
use crate::rng::TaskNoise;
use crate::task::{StageWalk, TaskEnv, TaskWalk};
use crate::trace::TraceRecorder;

/// How long a task will wait for its preferred (cache-local) machine before
/// falling back to any machine, seconds. Mirrors `spark.locality.wait = 3s`.
const LOCALITY_WAIT_S: f64 = 3.0;

/// A finite `f64` with a total order, for the running-median heaps.
#[derive(PartialEq)]
struct FiniteF64(f64);

impl Eq for FiniteF64 {}

impl PartialOrd for FiniteF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FiniteF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite durations")
    }
}

/// Running lower median of completed task durations in a stage, via the
/// classic two-heap scheme: `lo` (max-heap) holds the smaller half
/// including the median, `hi` (min-heap) the larger half. O(log n) per
/// insert and O(1) per query — a sorted `Vec` costs an O(n) memmove per
/// insert, which at paper scale (thousands of tasks per run) blows the
/// chaos machinery's fault-free overhead budget.
#[derive(Default)]
struct RunningMedian {
    lo: std::collections::BinaryHeap<FiniteF64>,
    hi: std::collections::BinaryHeap<std::cmp::Reverse<FiniteF64>>,
}

impl RunningMedian {
    fn insert(&mut self, x: f64) {
        if self.lo.peek().is_none_or(|m| x <= m.0) {
            self.lo.push(FiniteF64(x));
        } else {
            self.hi.push(std::cmp::Reverse(FiniteF64(x)));
        }
        // Rebalance so lo holds ⌈n/2⌉ elements (its max is the lower
        // median, matching `sorted[(n - 1) / 2]`).
        if self.lo.len() > self.hi.len() + 1 {
            let FiniteF64(x) = self.lo.pop().expect("lo non-empty");
            self.hi.push(std::cmp::Reverse(FiniteF64(x)));
        } else if self.hi.len() > self.lo.len() {
            let std::cmp::Reverse(FiniteF64(x)) = self.hi.pop().expect("hi non-empty");
            self.lo.push(FiniteF64(x));
        }
    }

    fn get(&self) -> f64 {
        self.lo.peek().expect("median of at least one task").0
    }

    /// Empties both heaps, keeping their capacity so the structure can be
    /// reused across stages without reallocating.
    fn clear(&mut self) {
        self.lo.clear();
        self.hi.clear();
    }
}

/// Total task slots of a cluster. Both factors are widened to `usize`
/// *before* multiplying: the old `(machines * cores) as usize` computed the
/// product in `u32`, which overflows (panic in debug, silent wraparound in
/// release) on large machine-sweep configurations like 2^16 × 2^16.
#[must_use]
pub fn total_slots(machines: u32, cores: u32) -> usize {
    machines as usize * cores as usize
}

/// Mutable per-run scheduling state shared across stages.
pub struct ExecutorState {
    /// Next free time of each core, indexed `machine * cores + core`.
    /// Private so every write goes through [`ExecutorState::set_core_free`],
    /// which keeps `machine_best` coherent.
    core_free: Vec<f64>,
    /// Cached earliest core per machine: `(slot, free_at)` of the *first*
    /// minimum among the machine's cores — the same element a left-to-right
    /// `min_by` scan over `core_free` would pick, so slot choice (and with
    /// it every digest) is unchanged. Turns the per-attempt
    /// `machines × cores` scan into a `machines` scan plus an O(cores)
    /// refresh per core write.
    machine_best: Vec<(usize, f64)>,
    /// Cores per machine (the `machine_best` refresh stride).
    cores: usize,
    /// Outstanding execution-memory claims per machine: `(release_at,
    /// bytes)`, kept sorted ascending by release time (insert via
    /// [`ExecutorState::add_claim`]) so expiry pops an already-sorted
    /// prefix instead of scanning — and mispredicting on — a mixed list.
    pub exec_claims: Vec<std::collections::VecDeque<(f64, u64)>>,
    /// Noise source.
    pub noise: TaskNoise,
    /// Tasks that had to spill.
    pub spilled_tasks: u64,
    /// Total tasks executed.
    pub total_tasks: u64,
    /// Total task attempts, including retried failures and speculative
    /// copies (equals `total_tasks` in fault-free runs).
    pub task_attempts: u64,
    /// Tasks that preferred their cache-local machine but ran elsewhere
    /// because the locality wait was exceeded.
    pub locality_fallbacks: u64,
    /// Cumulative seconds task attempts spent waiting for a free core
    /// beyond driver dispatch, stage start, and retry backoff — the
    /// slot-contention signal the multi-tenant runner folds into
    /// [`crate::report::ContentionSummary`]. Observation only: nothing in
    /// the simulation reads it back.
    pub slot_wait_s: f64,
    /// Scratch running-median of completed task durations for speculation
    /// detection, cleared at every stage start. Lives here (not in
    /// `run_stage`) so heap capacity is reused across the hundreds of
    /// stages of an iterative run instead of reallocated per stage.
    spec_durations: RunningMedian,
    /// Scratch wave bookkeeping for the structured trace, cleared at every
    /// stage start (reused for the same reason as `spec_durations`).
    waves: Vec<(f64, f64, u32)>,
    /// The current stage's compiled task walk, taken out of the state for
    /// the duration of a stage (`mem::take`) and put back afterwards so
    /// its buffers are reused across the hundreds of stages of a run.
    stage_walk: StageWalk,
    /// Per-stage persisted-dataset preference list, reused like
    /// `stage_walk`.
    pref_datasets: Vec<DatasetId>,
    /// The current attempt's walk (duration and, when traced, steps),
    /// reused from task to task like `stage_walk`.
    walk: TaskWalk,
    /// A speculative copy's walk; swapped into `walk` when the copy wins.
    copy_walk: TaskWalk,
}

impl std::fmt::Debug for ExecutorState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorState").finish_non_exhaustive()
    }
}

impl ExecutorState {
    /// Fresh state for a cluster.
    #[must_use]
    pub fn new(machines: u32, cores: u32, noise: TaskNoise) -> Self {
        ExecutorState {
            core_free: vec![0.0; total_slots(machines, cores)],
            machine_best: (0..machines as usize)
                .map(|m| (m * cores as usize, 0.0))
                .collect(),
            cores: (cores as usize).max(1),
            exec_claims: (0..machines)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            noise,
            spilled_tasks: 0,
            total_tasks: 0,
            task_attempts: 0,
            locality_fallbacks: 0,
            slot_wait_s: 0.0,
            spec_durations: RunningMedian::default(),
            waves: Vec::new(),
            stage_walk: StageWalk::default(),
            pref_datasets: Vec::new(),
            walk: TaskWalk::default(),
            copy_walk: TaskWalk::default(),
        }
    }

    /// Restores the state to exactly what [`ExecutorState::new`] would
    /// build for the given cluster shape and noise source, reusing the
    /// existing allocations (claim deques, median heaps, stage scratch).
    pub fn reset(&mut self, machines: u32, cores: u32, noise: TaskNoise) {
        self.exec_claims.iter_mut().for_each(|q| q.clear());
        self.resize_cores(machines, cores);
        self.noise = noise;
        self.spilled_tasks = 0;
        self.total_tasks = 0;
        self.task_attempts = 0;
        self.locality_fallbacks = 0;
        self.slot_wait_s = 0.0;
        self.spec_durations.clear();
        self.waves.clear();
    }

    /// Reshapes the executor to a new core width between jobs — the FAIR
    /// slot-share lever of the multi-tenant runner. Counters, the noise
    /// stream, and stage scratch all survive; only the core grid is
    /// rebuilt, free at time zero. That is exact at a job boundary: every
    /// core's next-free time is at most the last stage finish (which the
    /// caller's time cursor has already passed), and task starts clamp to
    /// the stage start, so a zeroed grid schedules identically to the old
    /// one. Outstanding execution-memory claims must already be expired —
    /// [`run_stage`] releases everything it claimed by stage end.
    pub fn resize_cores(&mut self, machines: u32, cores: u32) {
        debug_assert!(
            self.exec_claims
                .iter()
                .all(std::collections::VecDeque::is_empty),
            "core resize requires a job boundary (no outstanding claims)"
        );
        self.core_free.clear();
        self.core_free.resize(total_slots(machines, cores), 0.0);
        self.machine_best.clear();
        self.machine_best
            .extend((0..machines as usize).map(|m| (m * cores as usize, 0.0)));
        self.cores = (cores as usize).max(1);
        self.exec_claims
            .resize_with(machines as usize, Default::default);
    }

    /// Updates a core's next-free time and refreshes the owning machine's
    /// cached earliest core. The refresh is a left-to-right first-min scan,
    /// replicating the tie-breaking of the scan it replaces.
    #[inline]
    fn set_core_free(&mut self, machine: usize, slot: usize, t: f64) {
        debug_assert_eq!(machine, slot / self.cores);
        self.core_free[slot] = t;
        let m = machine;
        let base = m * self.cores;
        // Manual first-min scan with strict `<`: same element as
        // `min_by(partial_cmp)`, but compiled to conditional moves — noisy
        // runs produce randomly-ordered times, and a branching scan pays a
        // misprediction on most comparisons.
        let mut bs = base;
        let mut bv = self.core_free[base];
        for s in base + 1..base + self.cores {
            let v = self.core_free[s];
            let better = v < bv;
            bs = if better { s } else { bs };
            bv = if better { v } else { bv };
        }
        self.machine_best[m] = (bs, bv);
    }

    /// Records an execution-memory claim on `machine`, keeping the list
    /// sorted by release time. Claims are recorded in task-completion order,
    /// so the new claim almost always belongs at the back.
    pub fn add_claim(&mut self, machine: usize, release_at: f64, bytes: u64) {
        let claims = &mut self.exec_claims[machine];
        let mut i = claims.len();
        while i > 0 && claims[i - 1].0 > release_at {
            i -= 1;
        }
        claims.insert(i, (release_at, bytes));
    }

    /// Releases every claim that expires at or before `now` on `machine`.
    /// Same set of claims as an unordered scan would release (the predicate
    /// is per-claim), and `release_exec` is a plain byte-count subtraction,
    /// so release order does not affect any observable state.
    fn expire_claims(&mut self, store: &mut BlockStore, machine: usize, now: f64) {
        let claims = &mut self.exec_claims[machine];
        while let Some(&(t, bytes)) = claims.front() {
            if t > now {
                break;
            }
            store.release_exec(machine, bytes);
            claims.pop_front();
        }
    }
}

/// Picks the core for a task attempt:
/// `(machine, slot, free_at, locality_fallback)`. The fast path (no
/// blacklist, no machine to avoid) is the pre-chaos locality logic
/// unchanged; the constrained path excludes blacklisted machines and —
/// when an alternative exists — the machine a previous attempt just failed
/// on. If the constraints exclude everything, they are ignored: the run
/// must terminate. Returning the machine index (instead of leaving callers
/// to divide `slot / cores`) keeps integer division out of the per-task
/// path.
fn choose_slot(
    state: &ExecutorState,
    chaos: &ChaosState,
    machines: usize,
    preferred: Option<usize>,
    avoid: Option<usize>,
) -> (usize, usize, f64, bool) {
    // `machine_best[m]` is maintained as exactly the first-min core scan
    // the old code did per call.
    let constrained = avoid.is_some() || chaos.constrained();
    let allowed =
        |m: usize| -> bool { !chaos.is_excluded(m) && (avoid != Some(m) || machines == 1) };
    let global_best = if constrained {
        (0..machines)
            .filter(|&m| allowed(m))
            .map(|m| (m, state.machine_best[m]))
            .min_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite times"))
    } else {
        None
    }
    .unwrap_or_else(|| {
        // Branchless first-min over the per-machine cached bests (see
        // `set_core_free` for why not `min_by`).
        let mut bm = 0;
        let mut best = state.machine_best[0];
        for m in 1..machines {
            let c = state.machine_best[m];
            let better = c.1 < best.1;
            bm = if better { m } else { bm };
            best = if better { c } else { best };
        }
        (bm, best)
    });
    let (gm, (gslot, gfree)) = global_best;
    match preferred {
        Some(m) if !constrained || allowed(m) => {
            let (lslot, lfree) = state.machine_best[m];
            if lfree <= gfree + LOCALITY_WAIT_S {
                // The local best is one of m's own cores: never a fallback.
                (m, lslot, lfree, false)
            } else {
                (gm, gslot, gfree, m != gm)
            }
        }
        Some(m) => (gm, gslot, gfree, m != gm), // preferred machine excluded
        None => (gm, gslot, gfree, false),
    }
}

/// Runs one stage starting at `stage_start`; returns the stage finish time
/// and hands each finished task's trace to `sink` when tracing is on
/// (`env.trace`, which must agree with `sink` being given). The trace's
/// steps are the executor's reused walk buffer, lent for the call. Under
/// a watch (`env.watch`) a trace holds only the watched datasets' steps,
/// and a task without one is not handed on.
/// Structured span events (tasks, waves) go to `recorder` when it is
/// enabled. `chaos` carries the run's fault plan and retry policy; with an
/// empty plan and the default policy the stage executes the exact
/// fault-free arithmetic (zero extra RNG draws), so reports stay
/// byte-identical.
#[allow(clippy::too_many_arguments)]
pub fn run_stage(
    env: &TaskEnv<'_>,
    store: &mut BlockStore,
    state: &mut ExecutorState,
    chaos: &mut ChaosState,
    job: JobId,
    stage: &Stage,
    shuffle_consumers: &[DatasetId],
    stage_start: f64,
    mut sink: Option<&mut (dyn FnMut(&TaskTrace) + '_)>,
    recorder: &mut TraceRecorder,
) -> f64 {
    debug_assert_eq!(env.trace, sink.is_some(), "steps are recorded for a sink");
    let machines = env.cluster.machines as usize;
    let cores = env.cluster.spec.cores as usize;
    let policy = chaos.policy();
    // Completed-task durations for speculation, kept sorted so detection
    // uses the *median* like Spark's TaskSetManager — a mean would be
    // inflated by the very stragglers speculation hunts, pushing
    // detection so late the copy can never win. Only maintained when
    // speculation is on, keeping the fault-free hot path unchanged.
    let track_speculation = policy.speculation && machines > 1;
    let mut done_tasks: u64 = 0;
    state.spec_durations.clear();
    // Wave bookkeeping for the structured trace: wave `w` holds the tasks
    // dispatched onto the `w`-th round of cluster slots.
    let slots = total_slots(env.cluster.machines, env.cluster.spec.cores).max(1);
    state.waves.clear();
    // Execution memory a task claims: its fair share of the execution
    // pool (Spark's UnifiedMemoryManager grants each of N concurrent
    // tasks up to 1/N of the pool). The workload-specific factor says how
    // much of M the application's execution actually uses.
    let exec_bytes = (env.cluster.spec.unified_memory() as f64
        * env.params.exec_mem_per_task_factor
        / f64::from(env.cluster.spec.cores.max(1))) as u64;

    // Hoist the partition-independent work out of the task loop: the
    // compiled task walk (lineage recursion flattened against this run's
    // persisted set, shuffle-read and shuffle-write cost terms) and the
    // stage's persisted datasets (deepest-first, the locality-preference
    // scan order). The buffers live in `ExecutorState` and are taken for
    // the stage's duration so their allocations survive across stages;
    // they are restored before returning.
    let mut stage_walk = std::mem::take(&mut state.stage_walk);
    stage_walk.compile(env, stage.output, shuffle_consumers);
    let mut pref_datasets = std::mem::take(&mut state.pref_datasets);
    let mut walk = std::mem::take(&mut state.walk);
    let mut copy_walk = std::mem::take(&mut state.copy_walk);
    pref_datasets.clear();
    pref_datasets.extend(
        stage
            .datasets
            .iter()
            .rev()
            .copied()
            .filter(|&d| env.persisted[d.index()]),
    );

    let mut stage_finish = stage_start;
    for task_idx in 0..env.app.dataset(stage.output).partitions {
        // Serial driver dispatch: task i cannot launch before the driver
        // has processed i launches.
        let dispatch_ready = stage_start + f64::from(task_idx + 1) * env.params.task_launch_s;

        // Preferred machine: holder of the deepest cached block for this
        // partition (closest to the stage output).
        let preferred = pref_datasets
            .iter()
            .find_map(|&d| store.residency(d, task_idx));

        // Attempt loop: a transient failure kills the attempt halfway
        // through, releases its core and memory at the failure instant,
        // and reschedules after a linear backoff on a different machine
        // when one exists. A failed attempt's cache reads and inserts
        // stand — the retry recomputes through whatever lineage state the
        // first attempt left behind, which is exactly Spark's behaviour.
        let mut attempt: u32 = 0;
        let mut avoid: Option<usize> = None;
        let mut retry_ready = 0.0f64;
        let (slot, machine, start, claimed, duration, spilled, fell_back) = loop {
            let (machine, slot, slot_free, locality_fallback) =
                choose_slot(state, chaos, machines, preferred, avoid);
            state.locality_fallbacks += u64::from(locality_fallback);
            // `max` over finite values is associative, so grouping the
            // non-slot terms first leaves `start` bit-identical while
            // exposing the queueing delay (`start − ready`) for the
            // slot-wait accumulator.
            let ready = dispatch_ready.max(stage_start).max(retry_ready);
            let start = slot_free.max(ready);
            state.slot_wait_s += start - ready;

            // Memory: release expired claims, then claim for this task.
            state.expire_claims(store, machine, start);
            let claimed = store.claim_exec(machine, exec_bytes);

            // A retry overwrites the failed attempt's walk.
            stage_walk.run(env, store, machine, task_idx, &mut walk);
            let (noise_factor, is_straggler) = state.noise.sample();
            // GC pauses and slow containers have an absolute magnitude: a
            // straggler never finishes faster than the floor, no matter how
            // tiny its partition is. Selecting the floor (0 for normal
            // tasks; `max(d, 0.0)` is the identity for the non-negative
            // durations here) keeps the rare-straggler branch out of the
            // hot loop.
            let floor = if is_straggler {
                state.noise.straggler_floor_s()
            } else {
                0.0
            };
            let mut duration = (walk.duration * noise_factor).max(floor);
            let spilled = claimed < exec_bytes;
            if spilled {
                duration *= env.params.spill_penalty;
                state.spilled_tasks += 1;
            }
            let slow = chaos.slow_factor(machine, start);
            if slow != 1.0 {
                duration *= slow;
            }
            state.task_attempts += 1;
            if chaos.take_failure(start) {
                if attempt + 1 < policy.max_attempts {
                    let fail_at = start + duration * 0.5;
                    state.set_core_free(machine, slot, fail_at);
                    store.release_exec(machine, claimed);
                    chaos.record_retry(machine, fail_at);
                    attempt += 1;
                    avoid = if machines > 1 { Some(machine) } else { None };
                    retry_ready = fail_at + policy.retry_backoff_s * f64::from(attempt);
                    continue;
                }
                // Retry budget exhausted: real Spark fails the job after
                // max_attempts; the simulator completes the final attempt
                // and records the exhaustion so chaos runs terminate.
                chaos.note_exhausted();
            }
            break (
                slot,
                machine,
                start,
                claimed,
                duration,
                spilled,
                locality_fallback,
            );
        };
        let mut finish = start + duration;
        let mut eff_duration = duration;

        // Speculative execution: once enough tasks of the stage finished,
        // a running attempt that exceeds multiplier × mean is copied onto
        // another machine; whichever copy finishes first wins and the
        // loser is killed at that instant.
        let mut winner = (machine, slot, start);
        let mut speculated = false;
        if track_speculation && done_tasks >= u64::from(policy.speculation_min_tasks) {
            let median = state.spec_durations.get();
            if duration > policy.speculation_multiplier * median {
                let detect_at = start + policy.speculation_multiplier * median;
                let copy_best = (0..machines)
                    .filter(|&m| m != machine && !chaos.is_excluded(m))
                    .map(|m| (m, state.machine_best[m]))
                    .min_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite times"));
                if let Some((cmachine, (cslot, cfree))) = copy_best {
                    let cstart = cfree.max(detect_at);
                    state.expire_claims(store, cmachine, cstart);
                    let cclaimed = store.claim_exec(cmachine, exec_bytes);
                    stage_walk.run(env, store, cmachine, task_idx, &mut copy_walk);
                    let (cnoise, cstraggler) = state.noise.sample();
                    let mut cduration = copy_walk.duration * cnoise;
                    if cstraggler {
                        cduration = cduration.max(state.noise.straggler_floor_s());
                    }
                    if cclaimed < exec_bytes {
                        cduration *= env.params.spill_penalty;
                        state.spilled_tasks += 1;
                    }
                    let cslow = chaos.slow_factor(cmachine, cstart);
                    if cslow != 1.0 {
                        cduration *= cslow;
                    }
                    state.task_attempts += 1;
                    let cfinish = cstart + cduration;
                    let won = cfinish < finish;
                    chaos.note_speculative(won);
                    let effective = cfinish.min(finish);
                    state.set_core_free(cmachine, cslot, effective.max(cstart));
                    state.add_claim(cmachine, effective.max(cstart), cclaimed);
                    state.set_core_free(machine, slot, effective);
                    state.add_claim(machine, effective, claimed);
                    if won {
                        finish = cfinish;
                        winner = (cmachine, cslot, cstart);
                        std::mem::swap(&mut walk, &mut copy_walk);
                        eff_duration = cduration;
                    }
                    speculated = true;
                }
            }
        }
        if !speculated {
            state.set_core_free(machine, slot, finish);
            state.add_claim(machine, finish, claimed);
        }
        let (run_machine, run_slot, run_start) = winner;
        state.total_tasks += 1;
        done_tasks += 1;
        if track_speculation {
            state.spec_durations.insert(eff_duration);
        }
        stage_finish = stage_finish.max(finish);

        if recorder.enabled() {
            recorder.task_span(
                job.0,
                stage.id.0,
                task_idx,
                run_machine as u32,
                (run_slot % cores) as u32,
                run_start,
                finish,
                spilled,
                fell_back,
            );
            let wave = task_idx as usize / slots;
            if state.waves.len() <= wave {
                state
                    .waves
                    .resize(wave + 1, (f64::INFINITY, f64::NEG_INFINITY, 0));
            }
            let w = &mut state.waves[wave];
            w.0 = w.0.min(start);
            w.1 = w.1.max(finish);
            w.2 += 1;
        }

        // A watched run hands on only the tasks that recorded a step.
        let sink = sink
            .as_mut()
            .filter(|_| env.watch.is_none() || !walk.steps.is_empty());
        if let Some(sink) = sink {
            // Shift the recorded step offsets to absolute times, scaled to
            // the noisy duration so steps still tile the (winning)
            // attempt exactly.
            let scale = if walk.duration > 0.0 {
                eff_duration / walk.duration
            } else {
                1.0
            };
            for s in &mut walk.steps {
                s.start = run_start + s.start * scale;
                s.finish = run_start + s.finish * scale;
            }
            // Lend the step buffer to the trace for the call, then take
            // it back for the next task.
            let trace = TaskTrace {
                job,
                stage: stage.id,
                task: task_idx,
                machine: run_machine as u32,
                start: run_start,
                finish,
                steps: std::mem::take(&mut walk.steps),
            };
            sink(&trace);
            walk.steps = trace.steps;
        }
    }
    for (wi, &(start, finish, tasks)) in state.waves.iter().enumerate() {
        recorder.wave_span(job.0, stage.id.0, wi as u32, start, finish, tasks);
    }
    // Release claims that expire at stage end so the next stage starts
    // clean.
    for m in 0..machines {
        state.expire_claims(store, m, stage_finish);
    }
    // Hand the hoisted-scratch allocations back for the next stage.
    state.stage_walk = stage_walk;
    state.pref_datasets = pref_datasets;
    state.walk = walk;
    state.copy_walk = copy_walk;
    stage_finish
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{AppBuilder, Application, ComputeCost, NarrowKind, SourceFormat, StagePlan};
    use std::collections::HashMap;

    use crate::trace::TraceConfig;

    use crate::config::{ClusterConfig, MachineSpec, NoiseParams, SimParams};
    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::memory::BlockLayout;
    use crate::task::Sizing;

    fn store_for(env: &TaskEnv<'_>) -> BlockStore {
        BlockStore::new(
            env.cluster,
            BlockLayout::persisted([(env.app, env.persisted)]),
        )
    }

    fn inert_chaos(machines: u32) -> ChaosState {
        ChaosState::new(
            &FaultPlan::none(),
            RetryPolicy::default(),
            machines as usize,
        )
    }

    fn fixture(partitions: u32) -> Application {
        let mut b = AppBuilder::new("exec");
        let src = b.source(
            "in",
            SourceFormat::DistributedFs,
            1000,
            80_000_000 * u64::from(partitions),
            partitions,
        );
        let m = b.narrow(
            "m",
            NarrowKind::Map,
            &[src],
            1000,
            80_000_000 * u64::from(partitions),
            ComputeCost::new(0.0, 0.0, 0.0),
        );
        b.job("count", m);
        b.build().unwrap()
    }

    fn no_noise_params() -> SimParams {
        SimParams {
            task_launch_s: 0.0,
            noise: NoiseParams::NONE,
            exec_mem_per_task_factor: 0.0,
            ..SimParams::default()
        }
    }

    #[test]
    fn waves_scale_with_cores() {
        // 16 equal tasks of 1 s (140 MB at 140 MB/s) on 1 machine × 4 cores
        // = 4 waves ⇒ ~4 s; on 2 machines = 2 waves ⇒ ~2 s.
        let app = fixture(16);
        let params = no_noise_params();
        let swap = HashMap::new();
        let persisted = vec![false; app.dataset_count()];
        for (machines, expect) in [(1u32, 4.0f64), (2, 2.0), (4, 1.0)] {
            let cluster = ClusterConfig::new(machines, MachineSpec::paper_example());
            let env = TaskEnv {
                app: &app,
                cluster: &cluster,
                params: &params,
                persisted: &persisted,
                swap: &swap,
                sizing: &Sizing::new(&app, 0.0),
                trace: false,
                watch: None,
            };
            let mut store = store_for(&env);
            let mut state = ExecutorState::new(
                machines,
                cluster.spec.cores,
                TaskNoise::new(0, NoiseParams::NONE),
            );
            let plan = StagePlan::build(&app, dagflow::JobId(0));
            let mut recorder = TraceRecorder::new(TraceConfig::default());
            let mut chaos = inert_chaos(machines);
            let finish = run_stage(
                &env,
                &mut store,
                &mut state,
                &mut chaos,
                dagflow::JobId(0),
                plan.result_stage(),
                &[],
                0.0,
                None,
                &mut recorder,
            );
            assert!(
                (finish - expect).abs() < 0.05,
                "{machines} machines: finish {finish}, expect {expect}"
            );
            assert_eq!(state.total_tasks, 16);
        }
    }

    #[test]
    fn locality_prefers_cached_machine() {
        let app = fixture(2);
        let params = no_noise_params();
        let swap = HashMap::new();
        let mut persisted = vec![false; app.dataset_count()];
        persisted[1] = true;
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let env = TaskEnv {
            app: &app,
            cluster: &cluster,
            params: &params,
            persisted: &persisted,
            swap: &swap,
            sizing: &Sizing::new(&app, 0.0),
            trace: true,
            watch: None,
        };
        let mut store = store_for(&env);
        let mut state = ExecutorState::new(2, 4, TaskNoise::new(0, NoiseParams::NONE));
        let plan = StagePlan::build(&app, dagflow::JobId(0));
        let mut traces = Vec::new();
        let mut recorder = TraceRecorder::new(TraceConfig::default());
        let mut chaos = inert_chaos(cluster.machines);
        run_stage(
            &env,
            &mut store,
            &mut state,
            &mut chaos,
            dagflow::JobId(0),
            plan.result_stage(),
            &[],
            0.0,
            Some(&mut |t: &TaskTrace| traces.push(t.clone())),
            &mut recorder,
        );
        // Record where each partition was cached.
        let homes: Vec<Option<usize>> = (0..2)
            .map(|p| store.residency(dagflow::DatasetId(1), p))
            .collect();
        traces.clear();
        // Run again: each task must land on its cached machine.
        let finish = run_stage(
            &env,
            &mut store,
            &mut state,
            &mut chaos,
            dagflow::JobId(0),
            plan.result_stage(),
            &[],
            10.0,
            Some(&mut |t: &TaskTrace| traces.push(t.clone())),
            &mut recorder,
        );
        for t in &traces {
            assert_eq!(
                Some(t.machine as usize),
                homes[t.task as usize],
                "locality respected"
            );
        }
        // Cached reads: 140 MB at 2 GB/s = 0.07 s each, both parallel.
        assert!(finish - 10.0 < 0.2, "cached rerun took {}", finish - 10.0);
    }

    #[test]
    fn traces_tile_the_task_exactly_under_noise() {
        let app = fixture(8);
        let mut params = no_noise_params();
        params.noise = NoiseParams {
            sigma: 0.2,
            straggler_prob: 0.2,
            straggler_factor: 3.0,
            straggler_floor_s: 0.0,
        };
        let swap = HashMap::new();
        let persisted = vec![false; app.dataset_count()];
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let env = TaskEnv {
            app: &app,
            cluster: &cluster,
            params: &params,
            persisted: &persisted,
            swap: &swap,
            sizing: &Sizing::new(&app, 0.3),
            trace: true,
            watch: None,
        };
        let mut store = store_for(&env);
        let mut state = ExecutorState::new(2, 4, TaskNoise::new(7, params.noise));
        let plan = StagePlan::build(&app, dagflow::JobId(0));
        let mut traces = Vec::new();
        let mut recorder = TraceRecorder::new(TraceConfig::default());
        let mut chaos = inert_chaos(cluster.machines);
        run_stage(
            &env,
            &mut store,
            &mut state,
            &mut chaos,
            dagflow::JobId(0),
            plan.result_stage(),
            &[],
            0.0,
            Some(&mut |t: &TaskTrace| traces.push(t.clone())),
            &mut recorder,
        );
        assert_eq!(traces.len(), 8);
        for t in &traces {
            assert!((t.steps.first().unwrap().start - t.start).abs() < 1e-9);
            assert!((t.steps.last().unwrap().finish - t.finish).abs() < 1e-9);
        }
    }

    /// Traced runs with retries and with speculation: each task's trace is
    /// exactly its winning attempt's walk. `m` is persisted, so an
    /// attempt after the first (a retry, or a speculative copy) finds the
    /// block its predecessor cached and walks one `CacheRead`, while a
    /// first attempt walks `SourceRead, Compute`. A retry's steps must
    /// not leak into its own trace or the next task's, and a winning
    /// copy's trace must carry the copy's steps (the swapped-in second
    /// buffer), tiling its span exactly.
    #[test]
    fn traces_carry_only_the_winning_attempt() {
        use crate::fault::FaultKind;
        use crate::report::StepKind;
        let mut b = AppBuilder::new("spec");
        let src = b.source("in", SourceFormat::DistributedFs, 4_800, 48_000_000, 48);
        let m = b.narrow(
            "m",
            NarrowKind::Map,
            &[src],
            4_800,
            48_000_000,
            ComputeCost::new(0.2, 0.0, 0.0),
        );
        b.job("count", m);
        let app = b.build().unwrap();
        let mut params = no_noise_params();
        params.noise = NoiseParams {
            sigma: 0.05,
            straggler_prob: 0.2,
            straggler_factor: 6.0,
            straggler_floor_s: 0.0,
        };
        let swap = HashMap::new();
        let mut persisted = vec![false; app.dataset_count()];
        persisted[m.index()] = true;
        let cluster = ClusterConfig::new(3, MachineSpec::paper_example());
        let env = TaskEnv {
            app: &app,
            cluster: &cluster,
            params: &params,
            persisted: &persisted,
            swap: &swap,
            sizing: &Sizing::new(&app, 0.0),
            trace: true,
            watch: None,
        };
        let plan = StagePlan::build(&app, dagflow::JobId(0));
        let run = |plan_faults: FaultPlan, policy: RetryPolicy| {
            let mut store = store_for(&env);
            let mut state = ExecutorState::new(3, 4, TaskNoise::new(5, params.noise));
            let mut chaos = ChaosState::new(&plan_faults, policy, 3);
            chaos.fire_due(0.0, &mut store, &mut state);
            let mut traces: Vec<TaskTrace> = Vec::new();
            let finish = run_stage(
                &env,
                &mut store,
                &mut state,
                &mut chaos,
                dagflow::JobId(0),
                plan.result_stage(),
                &[],
                0.0,
                Some(&mut |t: &TaskTrace| traces.push(t.clone())),
                &mut TraceRecorder::new(TraceConfig::default()),
            );
            assert_eq!(traces.len(), 48);
            let mut cache_reads = Vec::new();
            for t in &traces {
                let kinds: Vec<StepKind> = t.steps.iter().map(|s| s.kind).collect();
                if kinds == [StepKind::CacheRead] {
                    cache_reads.push(t.task);
                } else {
                    assert_eq!(
                        kinds,
                        [StepKind::SourceRead, StepKind::Compute],
                        "task {}",
                        t.task
                    );
                }
                assert_eq!(t.steps[0].start, t.start, "task {}", t.task);
                for w in t.steps.windows(2) {
                    assert_eq!(w[0].finish, w[1].start, "task {}", t.task);
                }
                let last = t.steps.last().unwrap().finish;
                assert!((last - t.finish).abs() < 1e-9, "task {}", t.task);
            }
            (cache_reads, chaos.finish(finish))
        };

        // Two failures in a row hit task 0's first two attempts; its third
        // reads the block the first cached.
        let failures = FaultPlan::none().event(0.0, FaultKind::TaskFailures { count: 2 });
        let (cache_reads, summary) = run(failures, RetryPolicy::default());
        assert_eq!(summary.retried_attempts, 2);
        assert_eq!(cache_reads, [0], "only the retried task reads the cache");

        // Every copy that won carries its own one-step walk.
        let (cache_reads, summary) = run(FaultPlan::none(), RetryPolicy::speculative());
        assert!(summary.speculative_wins > 0, "no copy won");
        assert_eq!(cache_reads.len() as u64, summary.speculative_wins);
    }

    #[test]
    fn spill_penalty_applies_when_memory_tight() {
        // Execution demand far beyond the unified region: every task must
        // spill.
        let spec = MachineSpec {
            ram_bytes: 400_000_000, // M = 60 MB
            ..MachineSpec::paper_example()
        };
        let app = fixture(4);
        let mut params = no_noise_params();
        params.exec_mem_per_task_factor = 8.0; // each task wants 2×M
        params.spill_penalty = 2.0;
        let swap = HashMap::new();
        let persisted = vec![false; app.dataset_count()];
        let cluster = ClusterConfig::new(1, spec);
        let env = TaskEnv {
            app: &app,
            cluster: &cluster,
            params: &params,
            persisted: &persisted,
            swap: &swap,
            sizing: &Sizing::new(&app, 0.0),
            trace: false,
            watch: None,
        };
        let mut store = store_for(&env);
        let mut state = ExecutorState::new(1, 4, TaskNoise::new(0, NoiseParams::NONE));
        let plan = StagePlan::build(&app, dagflow::JobId(0));
        let mut recorder = TraceRecorder::new(TraceConfig::default());
        let mut chaos = inert_chaos(cluster.machines);
        let finish = run_stage(
            &env,
            &mut store,
            &mut state,
            &mut chaos,
            dagflow::JobId(0),
            plan.result_stage(),
            &[],
            0.0,
            None,
            &mut recorder,
        );
        assert_eq!(state.spilled_tasks, 4);
        // 4 tasks of 2 s on 4 cores ⇒ one 2 s wave.
        assert!((finish - 2.0).abs() < 0.01, "finish {finish}");
    }

    /// Regression: `2^16 machines × 2^16 cores` overflows a `u32` product
    /// (the old `(machines * cores) as usize`); the widened helper must
    /// return the true slot count.
    #[test]
    fn total_slots_widens_before_multiplying() {
        assert_eq!(total_slots(1 << 16, 1 << 16), 1usize << 32);
        assert_eq!(total_slots(u32::MAX, 1), u32::MAX as usize);
        assert_eq!(
            total_slots(u32::MAX, u32::MAX),
            (u32::MAX as usize) * (u32::MAX as usize)
        );
        assert_eq!(total_slots(0, 8), 0);
    }
}
