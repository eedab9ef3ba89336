//! The one timing harness behind the overhead and throughput benches.
//!
//! Every such bench measures a few states of the same work (off vs on,
//! plain vs armed), takes each state's best of `reps` runs with the
//! states *interleaved* so slow drift (thermal, background load) hits all
//! of them evenly, reports the overhead of each state over its base, and
//! gates the rows that carry a budget. The pieces live here once:
//! [`interleaved_best`], [`best_reproducing`], the shared [`LorBatch`] and
//! [`time_training`] workloads, [`overhead_pct`], and [`publish`].

use std::sync::Arc;
use std::time::Instant;

use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions, RunReport, SimParams};
use dagflow::{Application, Schedule};
use juggler::pipeline::{OfflineTraining, TrainingConfig};
use workloads::{LogisticRegression, Workload};

/// Engine runs per timed [`LorBatch`].
pub const ENGINE_RUNS: usize = 24;

/// The overhead budget every gated overhead row is held to, percent.
pub const BUDGET_PCT: f64 = 5.0;

/// Wall-clock seconds of one call of `f`, and its output. Only the call
/// is timed; the caller drops the output outside the measurement.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// Wall-clock seconds of one call of `f`; the output goes through
/// [`std::hint::black_box`] so the work cannot be optimised away.
pub fn time<T>(f: impl FnOnce() -> T) -> f64 {
    timed(f).0
}

/// Best-of-`reps` seconds for each of `states`, interleaved: rep `r`
/// measures every state in order before rep `r + 1` starts. `measure`
/// gets the state and the rep index and returns the seconds it timed, so
/// setup it does around the timed region stays out of the number.
pub fn interleaved_best<S: Copy, const N: usize>(
    reps: usize,
    states: [S; N],
    mut measure: impl FnMut(S, usize) -> f64,
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for rep in 0..reps {
        for (b, &state) in best.iter_mut().zip(&states) {
            *b = b.min(measure(state, rep));
        }
    }
    best
}

/// Best-of-`reps` seconds of `f`.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let [best] = interleaved_best(reps, [()], |(), _| time(&mut f));
    best
}

/// Best-of-`reps` seconds of `run`, asserting after every timed call
/// that `digest` of its output equals `expected` (the digest of an
/// untimed warm-up run). Only `run` is timed, not the digest.
pub fn best_reproducing<T, D: PartialEq>(
    reps: usize,
    expected: &D,
    mut run: impl FnMut() -> T,
    digest: impl Fn(&T) -> D,
) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let (secs, out) = timed(&mut run);
        assert!(
            digest(&out) == *expected,
            "timed run {rep} does not reproduce the warm-up digest"
        );
        best = best.min(secs);
    }
    best
}

/// Overhead of `t` over `base` in percent; 0 when `base` is not positive.
#[must_use]
pub fn overhead_pct(base: f64, t: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (t - base) / base * 100.0
    }
}

/// The paper-scale LOR application on 4 private-cluster machines: the
/// engine batch the overhead benches time their hot-path states on.
pub struct LorBatch {
    pub app: Application,
    pub schedule: Arc<Schedule>,
    pub cluster: ClusterConfig,
    seed_base: u64,
}

impl LorBatch {
    /// The batch whose run `i` of rep `r` is seeded
    /// `seed_base + r * ENGINE_RUNS + i`.
    #[must_use]
    pub fn new(seed_base: u64) -> Self {
        let w = LogisticRegression;
        let app = w.build(&w.paper_params());
        let schedule = Arc::new(app.default_schedule().clone());
        LorBatch {
            app,
            schedule,
            cluster: ClusterConfig::new(4, MachineSpec::private_cluster()),
            seed_base,
        }
    }

    /// LOR's simulator parameters with the given seed.
    #[must_use]
    pub fn params(seed: u64) -> SimParams {
        SimParams {
            seed,
            ..LogisticRegression.sim_params()
        }
    }

    /// One plain-engine run at `seed` with `tweak` applied to the
    /// simulator parameters.
    pub fn run(&self, seed: u64, tweak: impl Fn(&mut SimParams), options: RunOptions) -> RunReport {
        let mut params = Self::params(seed);
        tweak(&mut params);
        Engine::new(&self.app, self.cluster, params)
            .run_shared(&self.schedule, options)
            .expect("run succeeds")
    }

    /// Seconds for [`ENGINE_RUNS`] calls of `run_one`, each given its
    /// seed for rep `rep`.
    pub fn time(&self, rep: usize, mut run_one: impl FnMut(u64) -> RunReport) -> f64 {
        time(|| {
            for i in 0..ENGINE_RUNS {
                std::hint::black_box(run_one(self.seed_base + (rep * ENGINE_RUNS + i) as u64));
            }
        })
    }
}

/// The offline-training configuration the overhead benches time:
/// the paper defaults on one thread, for a stable measurement.
#[must_use]
pub fn training_config() -> TrainingConfig {
    TrainingConfig {
        threads: 1,
        ..TrainingConfig::default()
    }
}

/// Seconds of one LOR `OfflineTraining::run` under `config`.
pub fn time_training(config: &TrainingConfig) -> f64 {
    time(|| OfflineTraining::run(&LogisticRegression, config).expect("training succeeds"))
}

/// A gated measurement: `value` must stay at most (or at least) `limit`.
#[derive(Clone, Copy)]
pub struct Budget {
    what: &'static str,
    value: f64,
    limit: f64,
    at_least: bool,
}

impl Budget {
    /// `value` passes at or below `limit` (an overhead budget).
    #[must_use]
    pub fn at_most(what: &'static str, value: f64, limit: f64) -> Self {
        Budget {
            what,
            value,
            limit,
            at_least: false,
        }
    }

    /// `value` passes at or above `limit` (a speedup floor).
    #[must_use]
    pub fn at_least(what: &'static str, value: f64, limit: f64) -> Self {
        Budget {
            what,
            value,
            limit,
            at_least: true,
        }
    }

    /// Whether the measurement is within its budget.
    #[must_use]
    pub fn met(&self) -> bool {
        if self.at_least {
            self.value >= self.limit
        } else {
            self.value <= self.limit
        }
    }
}

/// Prints the table, saves `json` as `results/BENCH_<name>.json`, then
/// panics if any of `budgets` is not met. The artifact is written first
/// so a failing run still leaves its numbers for `juggler perf-report`.
pub fn publish(
    name: &str,
    title: &str,
    header: &[&str],
    rows: &[Vec<String>],
    json: &serde_json::Value,
    budgets: &[Budget],
) {
    crate::print_table(title, header, rows);
    crate::save_results(&format!("BENCH_{name}"), json);
    enforce(name, budgets);
}

/// Prints each budget's verdict and panics naming every one not met.
fn enforce(name: &str, budgets: &[Budget]) {
    for b in budgets {
        let cmp = if b.at_least { ">=" } else { "<=" };
        let verdict = if b.met() { "met" } else { "NOT MET" };
        println!("{}: {:.2} ({cmp} {}): {verdict}", b.what, b.value, b.limit);
    }
    let missed: Vec<String> = budgets
        .iter()
        .filter(|b| !b.met())
        .map(|b| format!("{} = {:.2} (limit {})", b.what, b.value, b.limit))
        .collect();
    assert!(
        missed.is_empty(),
        "{name}: over budget: {}",
        missed.join("; ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_alternate_within_each_rep() {
        let mut calls = Vec::new();
        interleaved_best(3, ['a', 'b', 'c'], |s, rep| {
            calls.push((rep, s));
            1.0
        });
        let expected: Vec<(usize, char)> = (0..3)
            .flat_map(|rep| ['a', 'b', 'c'].map(|s| (rep, s)))
            .collect();
        assert_eq!(calls, expected);
    }

    #[test]
    fn each_state_keeps_its_minimum() {
        let secs = [[3.0, 9.0], [1.0, 7.0], [2.0, 8.0]];
        let best = interleaved_best(3, [0, 1], |s, rep| secs[rep][s]);
        assert_eq!(best, [1.0, 7.0]);
    }

    #[test]
    fn overhead_is_zero_on_a_zero_base() {
        assert_eq!(overhead_pct(0.0, 5.0), 0.0);
        assert_eq!(overhead_pct(2.0, 2.1), (2.1 - 2.0) / 2.0 * 100.0);
    }

    #[test]
    #[should_panic(expected = "does not reproduce the warm-up digest")]
    fn digest_mismatch_panics() {
        let mut n = 0;
        best_reproducing(
            3,
            &0,
            || {
                n += 1;
                n
            },
            |&x| x,
        );
    }

    #[test]
    #[should_panic(expected = "over budget: overhead = 5.01")]
    fn budget_gate_panics_above_its_budget() {
        enforce(
            "unit",
            &[
                Budget::at_most("overhead", 5.01, 5.0),
                Budget::at_least("speedup", 4.0, 4.0),
            ],
        );
    }

    #[test]
    fn budget_gate_passes_at_or_below_its_budget() {
        enforce(
            "unit",
            &[
                Budget::at_most("overhead", 5.0, 5.0),
                Budget::at_most("overhead", -1.0, 5.0),
                Budget::at_least("speedup", 4.0, 4.0),
            ],
        );
        assert!(!Budget::at_least("speedup", 3.99, 4.0).met());
    }
}
