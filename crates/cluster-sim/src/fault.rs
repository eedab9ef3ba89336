//! Fault injection and Spark-style fault tolerance.
//!
//! A [`FaultPlan`] is an ordered schedule of injected events — executor
//! loss, slow node, transient task failures, memory-pressure spikes. The
//! simulated driver reacts the way Spark's defaults do: capped task
//! retries with deterministic backoff ([`MAX_ATTEMPTS`],
//! `spark.task.maxFailures`; [`RETRY_BACKOFF_S`]) and executor
//! blacklisting after [`BLACKLIST_AFTER`] failures on one machine. A
//! [`RetryPolicy`] holds the one choice callers make: speculative
//! re-execution of straggler tasks (`spark.speculation`).
//!
//! Event semantics:
//!
//! * **Executor loss / memory pressure** mutate the block store, so they
//!   take effect at the first *job boundary* at or after `at_s` — the same
//!   granularity the old single `FailureSpec` used. An event scheduled
//!   after the last boundary is reported as *not fired* in the run's
//!   [`FaultSummary`] instead of being silently dropped.
//! * **Slow node / task failures** act on individual task attempts, so
//!   they apply to any attempt *starting* inside their window (slow node)
//!   or at/after `at_s` (task failures), with no boundary quantization.
//!
//! Determinism: a run with an empty plan and the default (speculation-off)
//! policy consumes zero extra RNG draws and performs the exact arithmetic
//! of a fault-free run, so its report is byte-identical to one produced
//! without the chaos layer.

use serde::{Deserialize, Serialize};

use crate::executor::ExecutorState;
use crate::memory::BlockStore;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The machine's executor dies: every cached block it held disappears
    /// and is recovered through lineage recomputation on later reads. The
    /// container is restarted immediately (YARN), so compute capacity is
    /// unchanged.
    ExecutorLoss {
        /// Index of the machine whose executor dies.
        machine: u32,
    },
    /// The machine runs degraded: every task attempt starting within
    /// `[at_s, at_s + duration_s)` on it is slowed by `factor` (GC storms,
    /// noisy neighbours, failing disks).
    SlowNode {
        /// Index of the degraded machine.
        machine: u32,
        /// Duration multiplier applied to affected task attempts (> 1).
        factor: f64,
        /// Length of the degradation window, seconds.
        duration_s: f64,
    },
    /// The next `count` task attempts starting at or after `at_s` fail
    /// transiently and are retried under the run's [`RetryPolicy`].
    TaskFailures {
        /// Number of attempts to fail.
        count: u32,
    },
    /// A co-tenant claims `bytes` of execution memory on the machine,
    /// holding it for `duration_s`; cached blocks above the protected
    /// floor R may be evicted to satisfy the claim.
    MemoryPressure {
        /// Index of the pressured machine.
        machine: u32,
        /// Execution bytes the co-tenant requests.
        bytes: u64,
        /// How long the claim is held, seconds.
        duration_s: f64,
    },
}

impl FaultKind {
    /// Canonical encoding of the event for [`crate::RunReport::digest`]:
    /// a type tag plus the parameters, floats by `to_bits`.
    #[must_use]
    pub(crate) fn digest_words(self) -> [u64; 4] {
        match self {
            FaultKind::ExecutorLoss { machine } => [0, u64::from(machine), 0, 0],
            FaultKind::SlowNode {
                machine,
                factor,
                duration_s,
            } => [
                1,
                u64::from(machine),
                factor.to_bits(),
                duration_s.to_bits(),
            ],
            FaultKind::TaskFailures { count } => [2, u64::from(count), 0, 0],
            FaultKind::MemoryPressure {
                machine,
                bytes,
                duration_s,
            } => [3, u64::from(machine), bytes, duration_s.to_bits()],
        }
    }

    /// Short human description, used by the chaos report.
    #[must_use]
    pub fn describe(&self) -> String {
        match *self {
            FaultKind::ExecutorLoss { machine } => format!("executor loss on m{machine}"),
            FaultKind::SlowNode {
                machine,
                factor,
                duration_s,
            } => format!("slow node m{machine} x{factor} for {duration_s:.1} s"),
            FaultKind::TaskFailures { count } => format!("{count} transient task failures"),
            FaultKind::MemoryPressure {
                machine,
                bytes,
                duration_s,
            } => format!(
                "memory pressure on m{machine} ({} for {duration_s:.1} s)",
                obs::fmt_bytes(bytes)
            ),
        }
    }
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Earliest simulated time the event may take effect, seconds.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// An ordered schedule of fault events. The default (empty) plan injects
/// nothing and leaves runs byte-identical to fault-free execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Events in schedule order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Builder-style: appends one event.
    #[must_use]
    pub fn event(mut self, at_s: f64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at_s, kind });
        self
    }

    /// A plan with a single executor loss — the old `FailureSpec`.
    #[must_use]
    pub fn executor_loss(machine: u32, at_s: f64) -> Self {
        FaultPlan::none().event(at_s, FaultKind::ExecutorLoss { machine })
    }
}

/// Maximum attempts per task (`spark.task.maxFailures`). After the
/// budget is exhausted real Spark fails the job; the simulator lets the
/// final attempt complete and records the exhaustion, so chaos runs
/// always terminate.
pub const MAX_ATTEMPTS: u32 = 4;
/// Backoff before retry attempt `n` launches: `n × RETRY_BACKOFF_S`
/// seconds after the failure instant.
pub const RETRY_BACKOFF_S: f64 = 0.5;
/// A machine is blacklisted once this many task attempts failed on it; it
/// then receives no new attempts unless every machine is blacklisted.
pub const BLACKLIST_AFTER: u32 = 2;
/// Minimum completed tasks in a stage before speculation may trigger.
pub const SPECULATION_MIN_TASKS: u32 = 4;

/// Whether the simulated driver speculates on stragglers. The default
/// mirrors Spark's: no speculation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Enable speculative re-execution of stragglers
    /// (`spark.speculation`).
    pub speculation: bool,
    /// A running task is a straggler once its duration exceeds
    /// `multiplier × mean(completed tasks in the stage)`
    /// (`spark.speculation.multiplier`); speculation waits for
    /// [`SPECULATION_MIN_TASKS`] completed tasks.
    pub speculation_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            speculation: false,
            speculation_multiplier: 1.5,
        }
    }
}

impl RetryPolicy {
    /// The default policy with speculative execution switched on.
    #[must_use]
    pub fn speculative() -> Self {
        RetryPolicy {
            speculation: true,
            ..RetryPolicy::default()
        }
    }
}

/// What became of one planned fault event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// The planned event.
    pub event: FaultEvent,
    /// Whether the event took effect.
    pub fired: bool,
    /// When it first took effect (seconds), if it fired.
    pub fired_at_s: Option<f64>,
    /// Human-readable account: what the event did, or why it did not fire.
    pub detail: String,
}

/// A machine blacklisted after repeated task failures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlacklistEvent {
    /// The blacklisted machine.
    pub machine: u32,
    /// When the blacklist triggered, seconds.
    pub at_s: f64,
    /// Failed attempts on the machine at that point.
    pub failures: u32,
}

/// Fault-tolerance summary of one run: per-event outcomes plus retry,
/// speculation and blacklist counters. Quiet (all-empty) for fault-free
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// One outcome per planned event, in plan order.
    pub outcomes: Vec<FaultOutcome>,
    /// Task attempts that failed (injected transient failures).
    pub failed_attempts: u64,
    /// Failed attempts that were retried.
    pub retried_attempts: u64,
    /// Tasks whose retry budget was exhausted (the final attempt was
    /// forced to complete; real Spark would have failed the job).
    pub exhausted_tasks: u64,
    /// Task attempts slowed by a slow-node window.
    pub slowed_tasks: u64,
    /// Speculative task copies launched.
    pub speculative_launched: u64,
    /// Speculative copies that finished before the original attempt.
    pub speculative_wins: u64,
    /// Machines blacklisted during the run, in trigger order.
    pub blacklist: Vec<BlacklistEvent>,
}

impl FaultSummary {
    /// True when the run saw no chaos at all: no planned events and no
    /// retry/speculation/blacklist activity. Quiet summaries are excluded
    /// from [`crate::RunReport::digest`], keeping fault-free digests
    /// identical to the pre-chaos format.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.outcomes.is_empty()
            && self.failed_attempts == 0
            && self.retried_attempts == 0
            && self.exhausted_tasks == 0
            && self.slowed_tasks == 0
            && self.speculative_launched == 0
            && self.blacklist.is_empty()
    }

    /// Number of planned events that fired.
    #[must_use]
    pub fn fired_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.fired).count()
    }

    /// Number of planned events that did not fire.
    #[must_use]
    pub fn unfired_count(&self) -> usize {
        self.outcomes.len() - self.fired_count()
    }
}

/// Live fault-injection state of one run. Owned by the engine; the
/// executor consults it per task attempt (slow windows, injected
/// failures, blacklist, speculation policy) and the engine fires
/// boundary events and finalizes the [`FaultSummary`].
#[derive(Debug)]
pub struct ChaosState {
    policy: RetryPolicy,
    /// Outcome slots, one per planned event, in plan order.
    outcomes: Vec<FaultOutcome>,
    /// Per-outcome effect counter (attempts slowed / failures injected).
    effect: Vec<u64>,
    /// Indices into `outcomes` of boundary events not yet fired.
    pending_boundary: Vec<usize>,
    /// Active slow windows: (outcome, machine, from_s, until_s, factor).
    windows: Vec<(usize, usize, f64, f64, f64)>,
    /// Armed transient failures: (outcome, at_s, remaining).
    pending_failures: Vec<(usize, f64, u32)>,
    /// Sum of `remaining` over `pending_failures` — the hot-path guard.
    pending_failure_total: u32,
    /// Earliest `from_s` over `windows` (infinite when there are none):
    /// an attempt starting before it meets no window, so a plan whose
    /// windows lie ahead costs the per-attempt hook one comparison.
    first_window_s: f64,
    /// Earliest `at_s` over `pending_failures`, the same guard for
    /// injected failures.
    first_failure_s: f64,
    machine_failures: Vec<u32>,
    blacklisted: Vec<bool>,
    any_blacklisted: bool,
    all_blacklisted: bool,
    blacklist_events: Vec<BlacklistEvent>,
    /// Time of the most recent fault-injection boundary (job start).
    last_boundary_s: f64,
    failed_attempts: u64,
    retried_attempts: u64,
    exhausted_tasks: u64,
    slowed_tasks: u64,
    speculative_launched: u64,
    speculative_wins: u64,
}

impl ChaosState {
    /// Arms a plan for a run on `machines` machines.
    #[must_use]
    pub fn new(plan: &FaultPlan, policy: RetryPolicy, machines: usize) -> Self {
        let mut s = ChaosState {
            policy,
            outcomes: Vec::with_capacity(plan.events.len()),
            effect: vec![0; plan.events.len()],
            pending_boundary: Vec::new(),
            windows: Vec::new(),
            pending_failures: Vec::new(),
            pending_failure_total: 0,
            first_window_s: f64::INFINITY,
            first_failure_s: f64::INFINITY,
            machine_failures: vec![0; machines],
            blacklisted: vec![false; machines],
            any_blacklisted: false,
            all_blacklisted: false,
            blacklist_events: Vec::new(),
            last_boundary_s: 0.0,
            failed_attempts: 0,
            retried_attempts: 0,
            exhausted_tasks: 0,
            slowed_tasks: 0,
            speculative_launched: 0,
            speculative_wins: 0,
        };
        for (oi, &ev) in plan.events.iter().enumerate() {
            let mut detail = String::new();
            let machine_of = match ev.kind {
                FaultKind::ExecutorLoss { machine }
                | FaultKind::SlowNode { machine, .. }
                | FaultKind::MemoryPressure { machine, .. } => Some(machine),
                FaultKind::TaskFailures { .. } => None,
            };
            match machine_of {
                Some(m) if (m as usize) >= machines => {
                    detail =
                        format!("machine {m} does not exist (cluster has {machines} machines)");
                }
                _ => match ev.kind {
                    FaultKind::ExecutorLoss { .. } | FaultKind::MemoryPressure { .. } => {
                        s.pending_boundary.push(oi);
                    }
                    FaultKind::SlowNode {
                        machine,
                        factor,
                        duration_s,
                    } => {
                        s.first_window_s = s.first_window_s.min(ev.at_s);
                        s.windows.push((
                            oi,
                            machine as usize,
                            ev.at_s,
                            ev.at_s + duration_s,
                            factor,
                        ));
                    }
                    FaultKind::TaskFailures { count } => {
                        s.first_failure_s = s.first_failure_s.min(ev.at_s);
                        s.pending_failures.push((oi, ev.at_s, count));
                        s.pending_failure_total += count;
                    }
                },
            }
            s.outcomes.push(FaultOutcome {
                event: ev,
                fired: false,
                fired_at_s: None,
                detail,
            });
        }
        s
    }

    /// The run's retry policy.
    #[must_use]
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Fires every pending boundary event due at `now` (job start), in
    /// plan order. Executor loss drops the machine's cached blocks;
    /// memory pressure claims execution memory released after its
    /// duration via the executor's claim-expiry machinery.
    pub fn fire_due(&mut self, now: f64, store: &mut BlockStore, state: &mut ExecutorState) {
        self.last_boundary_s = now;
        if self.pending_boundary.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_boundary);
        for oi in pending {
            let ev = self.outcomes[oi].event;
            if now < ev.at_s {
                self.pending_boundary.push(oi);
                continue;
            }
            match ev.kind {
                FaultKind::ExecutorLoss { machine } => {
                    store.lose_machine(machine as usize);
                    self.outcomes[oi].detail =
                        "executor lost; cached blocks dropped, recovered via lineage".to_owned();
                }
                FaultKind::MemoryPressure {
                    machine,
                    bytes,
                    duration_s,
                } => {
                    let m = machine as usize;
                    let claimed = store.claim_exec(m, bytes);
                    state.add_claim(m, now + duration_s, claimed);
                    self.outcomes[oi].detail = format!(
                        "claimed {} of execution memory for {duration_s:.1} s",
                        obs::fmt_bytes(claimed)
                    );
                }
                _ => unreachable!("only boundary events are queued"),
            }
            self.outcomes[oi].fired = true;
            self.outcomes[oi].fired_at_s = Some(now);
        }
    }

    /// Combined slowdown factor for a task attempt starting at `start` on
    /// `machine` (1.0 when no window applies). Counts affected attempts.
    pub fn slow_factor(&mut self, machine: usize, start: f64) -> f64 {
        if start < self.first_window_s {
            return 1.0;
        }
        let mut f = 1.0;
        let mut hit = false;
        for wi in 0..self.windows.len() {
            let (oi, m, from, until, factor) = self.windows[wi];
            if m == machine && start >= from && start < until {
                f *= factor;
                hit = true;
                self.effect[oi] += 1;
                if !self.outcomes[oi].fired {
                    self.outcomes[oi].fired = true;
                    self.outcomes[oi].fired_at_s = Some(start);
                }
            }
        }
        if hit {
            self.slowed_tasks += 1;
        }
        f
    }

    /// Consumes one armed transient failure applicable to an attempt
    /// starting at `start`, if any. The caller decides retry vs
    /// exhaustion from [`MAX_ATTEMPTS`].
    pub fn take_failure(&mut self, start: f64) -> bool {
        if self.pending_failure_total == 0 || start < self.first_failure_s {
            return false;
        }
        for i in 0..self.pending_failures.len() {
            let (oi, at, remaining) = self.pending_failures[i];
            if remaining > 0 && start >= at {
                self.pending_failures[i].2 -= 1;
                self.pending_failure_total -= 1;
                self.effect[oi] += 1;
                self.failed_attempts += 1;
                if !self.outcomes[oi].fired {
                    self.outcomes[oi].fired = true;
                    self.outcomes[oi].fired_at_s = Some(start);
                }
                return true;
            }
        }
        false
    }

    /// Records a failed-and-retried attempt on `machine` at `at`,
    /// blacklisting the machine once the policy threshold is reached.
    pub fn record_retry(&mut self, machine: usize, at: f64) {
        self.retried_attempts += 1;
        self.machine_failures[machine] += 1;
        if self.machine_failures[machine] >= BLACKLIST_AFTER && !self.blacklisted[machine] {
            self.blacklisted[machine] = true;
            self.any_blacklisted = true;
            self.all_blacklisted = self.blacklisted.iter().all(|&b| b);
            self.blacklist_events.push(BlacklistEvent {
                machine: machine as u32,
                at_s: at,
                failures: self.machine_failures[machine],
            });
        }
    }

    /// Records a task whose retry budget ran out.
    pub fn note_exhausted(&mut self) {
        self.exhausted_tasks += 1;
    }

    /// Records a speculative copy launch (and whether it won).
    pub fn note_speculative(&mut self, won: bool) {
        self.speculative_launched += 1;
        if won {
            self.speculative_wins += 1;
        }
    }

    /// Whether any machine is currently blacklisted (scheduling must use
    /// the constrained path).
    #[must_use]
    pub fn constrained(&self) -> bool {
        self.any_blacklisted
    }

    /// Whether `machine` must not receive new attempts. Always false once
    /// every machine is blacklisted — the run must still terminate.
    #[must_use]
    pub fn is_excluded(&self, machine: usize) -> bool {
        self.any_blacklisted && !self.all_blacklisted && self.blacklisted[machine]
    }

    /// Chaos counters for trace snapshots:
    /// `(task_retries, speculative_tasks, blacklisted_machines)`.
    #[must_use]
    pub fn counter_snapshot(&self) -> (u64, u64, u64) {
        (
            self.retried_attempts,
            self.speculative_launched,
            self.blacklist_events.len() as u64,
        )
    }

    /// Finalizes the run's [`FaultSummary`]: unfired events get an
    /// explanation (instead of being silently dropped) and task-granular
    /// events report how many attempts they affected.
    #[must_use]
    pub fn finish(mut self, end_s: f64) -> FaultSummary {
        for oi in 0..self.outcomes.len() {
            let o = &self.outcomes[oi];
            if !o.detail.is_empty() && !o.fired {
                continue; // out-of-range machine, explained at arm time
            }
            let ev = o.event;
            let detail = match ev.kind {
                FaultKind::SlowNode {
                    machine, factor, ..
                } => {
                    if o.fired {
                        format!(
                            "slowed {} task attempts on m{machine} x{factor}",
                            self.effect[oi]
                        )
                    } else {
                        format!(
                            "no task attempt started on m{machine} inside the window \
                             (run ended at {end_s:.3} s)"
                        )
                    }
                }
                FaultKind::TaskFailures { count } => {
                    let injected = self.effect[oi];
                    if o.fired {
                        format!("injected {injected} of {count} transient task failures")
                    } else {
                        format!(
                            "injected 0 of {count} failures: no attempt started at or after \
                             {:.3} s (run ended at {end_s:.3} s)",
                            ev.at_s
                        )
                    }
                }
                FaultKind::ExecutorLoss { .. } | FaultKind::MemoryPressure { .. } => {
                    if o.fired {
                        continue; // detail written at fire time
                    }
                    format!(
                        "not fired: scheduled at {:.3} s but the last fault-injection \
                         boundary (job start) was at {:.3} s",
                        ev.at_s, self.last_boundary_s
                    )
                }
            };
            self.outcomes[oi].detail = detail;
        }
        FaultSummary {
            outcomes: self.outcomes,
            failed_attempts: self.failed_attempts,
            retried_attempts: self.retried_attempts,
            exhausted_tasks: self.exhausted_tasks,
            slowed_tasks: self.slowed_tasks,
            speculative_launched: self.speculative_launched,
            speculative_wins: self.speculative_wins,
            blacklist: self.blacklist_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, MachineSpec, NoiseParams};
    use crate::rng::TaskNoise;

    fn harness(machines: u32) -> (BlockStore, ExecutorState) {
        let cluster = ClusterConfig::new(machines, MachineSpec::paper_example());
        let layout = crate::memory::BlockLayout::from_partitions([4]);
        let store = BlockStore::new(&cluster, layout);
        let state = ExecutorState::new(machines, 4, TaskNoise::new(0, NoiseParams::NONE));
        (store, state)
    }

    #[test]
    fn empty_plan_is_quiet() {
        let chaos = ChaosState::new(&FaultPlan::none(), RetryPolicy::default(), 2);
        let summary = chaos.finish(10.0);
        assert!(summary.is_quiet());
        assert_eq!(summary.fired_count(), 0);
    }

    #[test]
    fn executor_loss_fires_at_boundary_and_drops_blocks() {
        let (mut store, mut state) = harness(2);
        store.try_insert(1, dagflow::DatasetId(0), 0, 1000);
        let plan = FaultPlan::executor_loss(1, 5.0);
        let mut chaos = ChaosState::new(&plan, RetryPolicy::default(), 2);
        chaos.fire_due(2.0, &mut store, &mut state);
        assert_eq!(store.resident_count(dagflow::DatasetId(0)), 1, "too early");
        chaos.fire_due(6.0, &mut store, &mut state);
        assert_eq!(store.resident_count(dagflow::DatasetId(0)), 0);
        let summary = chaos.finish(10.0);
        assert!(!summary.is_quiet());
        assert!(summary.outcomes[0].fired);
        assert_eq!(summary.outcomes[0].fired_at_s, Some(6.0));
    }

    #[test]
    fn late_event_is_reported_not_fired() {
        let (mut store, mut state) = harness(1);
        let plan = FaultPlan::executor_loss(0, 100.0);
        let mut chaos = ChaosState::new(&plan, RetryPolicy::default(), 1);
        chaos.fire_due(1.0, &mut store, &mut state);
        chaos.fire_due(8.0, &mut store, &mut state);
        let summary = chaos.finish(9.0);
        assert!(!summary.outcomes[0].fired);
        assert!(
            summary.outcomes[0].detail.contains("not fired"),
            "detail: {}",
            summary.outcomes[0].detail
        );
        assert!(summary.outcomes[0].detail.contains("8.000"));
        assert_eq!(summary.unfired_count(), 1);
    }

    #[test]
    fn nonexistent_machine_is_harmless_and_explained() {
        let (mut store, mut state) = harness(2);
        let plan = FaultPlan::executor_loss(99, 0.0);
        let mut chaos = ChaosState::new(&plan, RetryPolicy::default(), 2);
        chaos.fire_due(1.0, &mut store, &mut state);
        let summary = chaos.finish(2.0);
        assert!(!summary.outcomes[0].fired);
        assert!(summary.outcomes[0].detail.contains("does not exist"));
    }

    #[test]
    fn slow_window_applies_only_inside_and_on_machine() {
        let plan = FaultPlan::none().event(
            10.0,
            FaultKind::SlowNode {
                machine: 1,
                factor: 3.0,
                duration_s: 5.0,
            },
        );
        let mut chaos = ChaosState::new(&plan, RetryPolicy::default(), 2);
        assert_eq!(chaos.slow_factor(1, 9.9), 1.0, "before window");
        assert_eq!(chaos.slow_factor(0, 12.0), 1.0, "other machine");
        assert_eq!(chaos.slow_factor(1, 10.0), 3.0, "inclusive start");
        assert_eq!(chaos.slow_factor(1, 14.9), 3.0);
        assert_eq!(chaos.slow_factor(1, 15.0), 1.0, "exclusive end");
        let summary = chaos.finish(20.0);
        assert_eq!(summary.slowed_tasks, 2);
        assert!(summary.outcomes[0].fired);
        assert!(summary.outcomes[0].detail.contains("slowed 2"));
    }

    #[test]
    fn task_failures_are_consumed_in_order_and_counted() {
        let plan = FaultPlan::none().event(5.0, FaultKind::TaskFailures { count: 2 });
        let mut chaos = ChaosState::new(&plan, RetryPolicy::default(), 2);
        assert!(!chaos.take_failure(4.0), "before at_s");
        assert!(chaos.take_failure(5.0));
        assert!(chaos.take_failure(6.0));
        assert!(!chaos.take_failure(7.0), "budget spent");
        let summary = chaos.finish(8.0);
        assert_eq!(summary.failed_attempts, 2);
        assert!(summary.outcomes[0].detail.contains("injected 2 of 2"));
    }

    #[test]
    fn blacklist_triggers_after_threshold_and_never_strands_the_run() {
        let mut chaos = ChaosState::new(&FaultPlan::none(), RetryPolicy::default(), 2);
        assert!(!chaos.constrained());
        chaos.record_retry(1, 1.0);
        assert!(!chaos.is_excluded(1), "below threshold");
        chaos.record_retry(1, 2.0);
        assert!(chaos.constrained());
        assert!(chaos.is_excluded(1));
        assert!(!chaos.is_excluded(0));
        // Blacklisting every machine lifts the exclusion (termination).
        chaos.record_retry(0, 3.0);
        chaos.record_retry(0, 4.0);
        assert!(!chaos.is_excluded(0));
        assert!(!chaos.is_excluded(1));
        let summary = chaos.finish(5.0);
        assert_eq!(summary.blacklist.len(), 2);
        assert_eq!(summary.blacklist[0].machine, 1);
        assert_eq!(summary.blacklist[0].failures, 2);
        assert_eq!(summary.retried_attempts, 4);
    }

    #[test]
    fn memory_pressure_claims_and_schedules_release() {
        let (mut store, mut state) = harness(1);
        let plan = FaultPlan::none().event(
            0.0,
            FaultKind::MemoryPressure {
                machine: 0,
                bytes: 1_000_000,
                duration_s: 4.0,
            },
        );
        let mut chaos = ChaosState::new(&plan, RetryPolicy::default(), 1);
        chaos.fire_due(1.0, &mut store, &mut state);
        assert_eq!(store.exec_used(0), 1_000_000);
        assert_eq!(state.exec_claims[0].len(), 1);
        assert_eq!(state.exec_claims[0][0].0, 5.0);
        let summary = chaos.finish(10.0);
        assert!(summary.outcomes[0].fired);
        assert!(summary.outcomes[0].detail.contains("claimed"));
    }

    #[test]
    fn fault_plan_serde_roundtrip() {
        let plan = FaultPlan::none()
            .event(1.0, FaultKind::ExecutorLoss { machine: 2 })
            .event(
                3.0,
                FaultKind::SlowNode {
                    machine: 0,
                    factor: 2.5,
                    duration_s: 10.0,
                },
            )
            .event(5.0, FaultKind::TaskFailures { count: 3 })
            .event(
                7.0,
                FaultKind::MemoryPressure {
                    machine: 1,
                    bytes: 1 << 30,
                    duration_s: 2.0,
                },
            );
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
