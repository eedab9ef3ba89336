//! The one timing harness behind the overhead and throughput benches.
//!
//! Overhead rows compare a base closure A with an instrumented closure B
//! through [`paired_ratio`]: pairs of back-to-back runs, the median B/A
//! ratio and a distribution-free interval for it, and a stopping rule
//! that adds pairs until that interval is narrow enough to judge a
//! budget. Throughput benches take each state's best of `reps` runs,
//! interleaved so slow drift (thermal, background load) hits all states
//! evenly ([`interleaved_best`], [`best_reproducing`]). The shared
//! [`LorBatch`] and [`time_training`] workloads, the [`Budget`] gate and
//! [`publish`] live here once.

use std::sync::Arc;
use std::time::Instant;

use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions, RunReport, SimParams};
use dagflow::{Application, Schedule};
use juggler::pipeline::{OfflineTraining, TrainingConfig};
use workloads::{LogisticRegression, Workload};

/// Engine runs per timed [`LorBatch`].
pub const ENGINE_RUNS: usize = 24;

/// Pairs [`paired_ratio`] runs before it first judges its interval.
pub const MIN_PAIRS: usize = 50;

/// Pairs after which [`paired_ratio`] stops however wide its interval.
pub const MAX_PAIRS: usize = 400;

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

/// The median of per-pair ratios B/A over `pairs` pairs, a
/// distribution-free ≈95 % interval `[low, high]` for it, and the median
/// seconds of each side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairedRatio {
    pub pairs: usize,
    pub median: f64,
    pub low: f64,
    pub high: f64,
    pub a_seconds: f64,
    pub b_seconds: f64,
}

impl PairedRatio {
    /// The estimate over per-pair seconds `a[i]`, `b[i]`. The interval's
    /// bounds are the sorted ratios at the 1-based ranks
    /// ⌊n/2 − 0.98√n⌋ and ⌈n/2 + 1 + 0.98√n⌉ (clamped to 1..=n): the
    /// count of ratios below the true median is Binomial(n, ½), and these
    /// ranks are its normal-approximation 95 % quantiles. No resampling,
    /// no RNG.
    fn of(a: &[f64], b: &[f64]) -> Self {
        let n = a.len();
        let mut ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| b / a).collect();
        let half = n as f64 / 2.0;
        let reach = 0.98 * (n as f64).sqrt();
        let rank = |r: f64| (r as usize).clamp(1, n) - 1;
        let low = rank((half - reach).floor());
        let high = rank((half + 1.0 + reach).ceil());
        PairedRatio {
            pairs: n,
            median: median(&mut ratios),
            low: ratios[low],
            high: ratios[high],
            a_seconds: median(&mut a.to_vec()),
            b_seconds: median(&mut b.to_vec()),
        }
    }

    /// Width of the interval, in ratio units.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.high - self.low
    }
}

/// Median of `xs`, which it sorts.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The B/A ratio of two ways of doing the same work. Pair `p` calls
/// `a(p)` and `b(p)` back to back, each returning the seconds it timed,
/// so both sides get the same inputs (seeds) for that pair; the side
/// that runs first alternates from pair to pair, so neither side always
/// pays for a cold cache or gets the other's warm-up. From [`MIN_PAIRS`]
/// on it stops as soon as the interval is no wider than `stop_width`,
/// and at [`MAX_PAIRS`] regardless; a result wider than `stop_width` is
/// inconclusive.
pub fn paired_ratio(
    stop_width: f64,
    mut a: impl FnMut(usize) -> f64,
    mut b: impl FnMut(usize) -> f64,
) -> PairedRatio {
    let (mut secs_a, mut secs_b) = (Vec::new(), Vec::new());
    for pair in 0..MAX_PAIRS {
        let (ta, tb) = if pair % 2 == 0 {
            let ta = a(pair);
            (ta, b(pair))
        } else {
            let tb = b(pair);
            (a(pair), tb)
        };
        secs_a.push(ta);
        secs_b.push(tb);
        if secs_a.len() >= MIN_PAIRS && PairedRatio::of(&secs_a, &secs_b).width() <= stop_width {
            break;
        }
    }
    PairedRatio::of(&secs_a, &secs_b)
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
/// engine batch the overhead bench times its hot-path rows on.
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

/// The offline-training configuration the benches time:
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

/// `git rev-parse HEAD` of the checkout the bench runs in, marked when
/// tracked files outside the benches and results differ from it: a run
/// at an older commit with a bench copied in still names that commit.
#[must_use]
pub fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(&root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let measured = [
        "status",
        "--porcelain",
        "-uno",
        "--",
        ".",
        ":!crates/bench",
        ":!results",
    ];
    match (git(&["rev-parse", "HEAD"]), git(&measured)) {
        (Some(rev), Some(changes)) if changes.is_empty() => rev,
        (Some(rev), Some(_)) => format!("{rev} + uncommitted changes"),
        _ => "unknown".to_owned(),
    }
}

/// The artifact named by `--baseline <file>` on the bench's command line,
/// if given: as written, and read as `T` (the part of an earlier artifact
/// of the same bench a run compares against).
///
/// # Panics
/// Panics when the flag has no file, or the file is unreadable or not
/// such an artifact.
#[must_use]
pub fn baseline<T: serde::Deserialize>() -> Option<(serde_json::Value, T)> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--baseline")?;
    let path = args
        .get(i + 1)
        .expect("--baseline needs a file written by this bench");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let raw = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let parsed = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    Some((raw, parsed))
}

/// A gated measurement: `value` must stay at most (or at least) `limit`.
#[derive(Clone)]
pub struct Budget {
    what: String,
    value: f64,
    limit: f64,
    at_least: bool,
}

impl Budget {
    /// `value` passes at or below `limit` (an overhead budget).
    #[must_use]
    pub fn at_most(what: impl Into<String>, value: f64, limit: f64) -> Self {
        Budget {
            what: what.into(),
            value,
            limit,
            at_least: false,
        }
    }

    /// `value` passes at or above `limit` (a speedup floor).
    #[must_use]
    pub fn at_least(what: impl Into<String>, value: f64, limit: f64) -> Self {
        Budget {
            what: what.into(),
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
        println!("{}: {:.4} ({cmp} {}): {verdict}", b.what, b.value, b.limit);
    }
    let missed: Vec<String> = budgets
        .iter()
        .filter(|b| !b.met())
        .map(|b| format!("{} = {:.4} (limit {})", b.what, b.value, b.limit))
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
    fn pairs_share_their_index_and_alternate_which_side_runs_first() {
        let calls = std::cell::RefCell::new(Vec::new());
        paired_ratio(
            1.0,
            |p| {
                calls.borrow_mut().push(('a', p));
                1.0
            },
            |p| {
                calls.borrow_mut().push(('b', p));
                1.0
            },
        );
        let calls = calls.into_inner();
        assert_eq!(
            calls.len(),
            2 * MIN_PAIRS,
            "a zero-width interval stops at once"
        );
        assert_eq!(&calls[..4], &[('a', 0), ('b', 0), ('b', 1), ('a', 1)]);
    }

    #[test]
    fn interval_bounds_are_the_order_statistics_at_the_binomial_ranks() {
        // n = 100: ranks ⌊50 − 9.8⌋ = 40 and ⌈51 + 9.8⌉ = 61.
        let a = vec![1.0; 100];
        let b: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        let est = PairedRatio::of(&a, &b);
        assert_eq!((est.low, est.median, est.high), (40.0, 50.5, 61.0));
        assert_eq!((est.a_seconds, est.b_seconds), (1.0, 50.5));
        // n = 1 clamps both ranks onto the only ratio.
        let one = PairedRatio::of(&[2.0], &[3.0]);
        assert_eq!((one.low, one.median, one.high), (1.5, 1.5, 1.5));
    }

    #[test]
    fn a_noisy_ratio_runs_to_the_pair_cap_and_stays_wide() {
        let est = paired_ratio(0.025, |_| 1.0, |p| if p % 2 == 0 { 0.9 } else { 1.2 });
        assert_eq!(est.pairs, MAX_PAIRS);
        assert!(est.width() >= 0.025, "{est:?}");
        let calm = paired_ratio(0.025, |_| 1.0, |p| 1.03 + 0.001 * (p % 5) as f64);
        assert_eq!(calm.pairs, MIN_PAIRS);
        assert!((calm.median - 1.032).abs() < 1e-12, "{calm:?}");
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
    #[should_panic(expected = "over budget: overhead = 5.0100")]
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
