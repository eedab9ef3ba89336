//! Scoped worker pool for independent simulated experiments, and the
//! per-lineage planner their fan-outs share.
//!
//! Offline training (Figure 8) is dominated by experiment runs that are
//! mutually independent: the 3×3 parameter-calibration grid, the
//! per-(schedule, grid-point) execution-time matrix, and the iteration-axis
//! extension of §6.1. Each run owns its RNG seed, so fanning them across
//! threads cannot change any result — only the wall-clock time.
//!
//! The contract of this module is **determinism**: [`run_indexed`] and
//! [`try_run_indexed`] return results in input-index order no matter how
//! the scheduler interleaves workers, and [`try_run_indexed`] reports the
//! error of the *lowest-index* failing item — exactly what a sequential
//! `for` loop with `?` would surface. Callers therefore produce
//! bit-identical artifacts at any thread count (asserted by the
//! `determinism_parallel` integration test).
//!
//! What the runs of one grid share is planned once: `GridPlan` sizes one
//! application per grid point against the grid's lineages and holds one
//! [`EnginePrep`] (and, for instrumented runs, one `inject`) per
//! lineage, planned by whichever run needs it first or handed in by
//! the caller that already made it. Nothing here
//! retries: a training run fails only when its schedule does not fit its
//! application, which no seed changes.
//!
//! Built on `std::thread::scope` — no external dependencies.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use cluster_sim::{ClusterConfig, Engine, EnginePrep, SimParams};
use dagflow::{Application, Lineages};
use instrument::{inject, Instrumented, ProfilingOverhead};
use workloads::{Workload, WorkloadParams};

/// Environment variable overriding the worker count when a caller asks
/// for the automatic setting (`threads == 0`).
pub const THREADS_ENV: &str = "JUGGLER_THREADS";

/// Resolves a requested thread count to an effective one.
///
/// * `requested > 0` — taken as-is;
/// * `requested == 0` — the `JUGGLER_THREADS` environment variable if it
///   parses to a positive integer, else [`std::thread::available_parallelism`],
///   else 1.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f(0), …, f(len − 1)` on up to `threads` scoped workers and
/// returns the results in index order.
///
/// `threads` is resolved via [`resolve_threads`]; with one effective
/// worker (or fewer than two items) the calls happen sequentially on the
/// caller's thread — the fallback path shares no code with the pool, so
/// `threads = 1` is trivially identical to a plain loop.
pub fn run_indexed<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_run_indexed::<T, std::convert::Infallible, _>(len, threads, |i| Ok(f(i))) {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

/// Fallible variant of [`run_indexed`]: every item runs (no short-circuit
/// across workers), and on failure the error of the lowest-index failing
/// item is returned — the same error a sequential `?` loop would hit
/// first, keeping error behaviour independent of the thread count.
pub fn try_run_indexed<T, E, F>(len: usize, threads: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = resolve_threads(threads).min(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }

    // The caller's run context: workers install its metrics registry (so
    // their counters land in the caller's run) and re-establish its
    // active profiler phase (so spans opened inside `f` nest identically
    // whether the work ran inline or on the pool). Both are what make
    // counters and profile structure thread-count-stable.
    let prof_ctx = obs::prof::fork();

    // Gather directly into pre-sized index-order slots — no intermediate
    // arrival-order vector. `fetch_add` hands out each index exactly once,
    // so every slot is written exactly once (asserted in debug builds);
    // the result can never be a worker-arrival-order artifact.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<T, E>>> = Vec::with_capacity(len);
    slots.resize_with(len, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                let prof_ctx = &prof_ctx;
                scope.spawn(move || {
                    let _phase = prof_ctx.attach();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("experiment worker panicked") {
                debug_assert!(
                    slots[i].is_none(),
                    "fetch_add handed out index {i} more than once"
                );
                slots[i] = Some(r);
            }
        }
    });

    // Surface the first error (by index) or the full result vector.
    let mut results = Vec::with_capacity(len);
    for slot in slots {
        results.push(slot.expect("work-stealing covered every index")?);
    }
    Ok(results)
}

/// A training grid planned once per lineage: one application per grid
/// point, sized (`Workload::build_sized`) against the lineages before it
/// of the same iteration count, and one [`EnginePrep`] per lineage. A
/// grid's points of one iteration count differ only in sizes and
/// partition counts, so each repeats the lineage of a given application
/// (stage 1's sample app for stages 2 and 3) or of an earlier point; a
/// point that repeats none, such as the first point of each iteration
/// count in a grid without a given lineage, is a lineage of its own,
/// built afresh. A lineage's prep is planned on first use from the
/// application its point runs — the point's own, or an instrumented one
/// (see [`GridPlan::instrumented`]) — unless it was handed in with the
/// given lineage's `inject` ([`GridPlan::give_instrumented`]). One plan
/// serves one of the two, never both.
pub(crate) struct GridPlan<'l> {
    points: Vec<PlannedPoint>,
    lineages: Vec<Lineage<'l>>,
}

struct PlannedPoint {
    app: Application,
    /// Index into `lineages`.
    lineage: usize,
}

struct Lineage<'l> {
    leader: Leader<'l>,
    /// The iteration count the leader was built for. A workload names
    /// its datasets by their place in the lineage of one iteration count,
    /// so only points of that count are sized against it.
    iterations: u32,
    prep: OnceLock<Arc<EnginePrep>>,
    /// `inject` of the leader, for grids that run instrumented.
    instrumented: OnceLock<Instrumented>,
}

/// A lineage's own application.
#[derive(Clone, Copy)]
enum Leader<'l> {
    /// One from outside the grid.
    Given(&'l Application),
    /// That of the point with this index.
    Point(usize),
}

impl<'l> GridPlan<'l> {
    /// Builds one application per parameter set, each against `given` (a
    /// lineage from outside the grid, with the parameters it was built
    /// from) and the lineages of the points before it. Plans nothing yet.
    pub(crate) fn build(
        workload: &dyn Workload,
        given: Option<(&'l Application, WorkloadParams)>,
        params: impl ExactSizeIterator<Item = WorkloadParams>,
    ) -> Self {
        let _plan = obs::prof::scope("plan");
        let mut plan = GridPlan {
            points: Vec::with_capacity(params.len()),
            lineages: given
                .map(|(app, p)| Lineage::new(Leader::Given(app), p.iterations))
                .into_iter()
                .collect(),
        };
        for p in params {
            let same_count = |k: &usize| plan.lineages[*k].iterations == p.iterations;
            let known = (0..plan.lineages.len()).filter(same_count);
            let known = Lineages::new(known.map(|k| plan.leader(k)).collect());
            let (app, matched) = if known.is_empty() {
                (workload.build(&p), None)
            } else {
                let app = workload.build_sized(&p, &known);
                let matched = known.take_matched();
                let lineage =
                    matched.and_then(|m| (0..plan.lineages.len()).filter(same_count).nth(m));
                (app, lineage)
            };
            let lineage = matched.unwrap_or_else(|| {
                let leader = Leader::Point(plan.points.len());
                plan.lineages.push(Lineage::new(leader, p.iterations));
                plan.lineages.len() - 1
            });
            plan.points.push(PlannedPoint { app, lineage });
        }
        plan
    }

    /// Hands the given lineage (see [`GridPlan::build`]) an `inject` of
    /// its application, with the default overhead, and that plan's prep,
    /// made before the grid — stage 1's sample run makes both.
    pub(crate) fn give_instrumented(&self, instrumented: Instrumented, prep: Arc<EnginePrep>) {
        let given = &self.lineages[0];
        let unplanned = matches!(given.leader, Leader::Given(_))
            && given.instrumented.set(instrumented).is_ok()
            && given.prep.set(prep).is_ok();
        assert!(unplanned, "the grid has no unplanned given lineage");
    }

    /// Lineage `k`'s own application.
    fn leader(&self, k: usize) -> &Application {
        match self.lineages[k].leader {
            Leader::Given(app) => app,
            Leader::Point(point) => &self.points[point].app,
        }
    }

    /// Point `i`'s application.
    pub(crate) fn app(&self, i: usize) -> &Application {
        &self.points[i].app
    }

    /// The prep of point `i`'s lineage, planned from `runs` (what point
    /// `i` runs) if no point of the lineage has needed it yet.
    pub(crate) fn prep(&self, i: usize, runs: &Application) -> Arc<EnginePrep> {
        let lineage = &self.lineages[self.points[i].lineage];
        Arc::clone(lineage.prep.get_or_init(|| Arc::new(EnginePrep::new(runs))))
    }

    /// An engine running point `i`'s own application.
    pub(crate) fn engine(&self, i: usize, cluster: ClusterConfig, sim: SimParams) -> Engine<'_> {
        let app = self.app(i);
        Engine::with_prep(app, cluster, sim, self.prep(i, app))
    }

    /// Point `i` instrumented: its lineage's `inject` (injected once per
    /// lineage, with the default overhead), whose id mappings serve every
    /// point of the lineage, and point `i`'s instrumented application —
    /// the lineage's own for its leader, [`Instrumented::sized`] for
    /// every other point.
    pub(crate) fn instrumented(&self, i: usize) -> (&Instrumented, Cow<'_, Application>) {
        let k = self.points[i].lineage;
        let lineage = &self.lineages[k];
        let instrumented = lineage
            .instrumented
            .get_or_init(|| inject(self.leader(k), ProfilingOverhead::default()));
        let app = if matches!(lineage.leader, Leader::Point(leader) if leader == i) {
            Cow::Borrowed(&instrumented.app)
        } else {
            Cow::Owned(instrumented.sized(self.app(i)))
        };
        (instrumented, app)
    }
}

impl<'l> Lineage<'l> {
    fn new(leader: Leader<'l>, iterations: u32) -> Self {
        Lineage {
            leader,
            iterations,
            prep: OnceLock::new(),
            instrumented: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = run_indexed(100, threads, |i| i * i);
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn first_error_by_index_wins() {
        // Items 3 and 7 fail; the reported error must be item 3's
        // regardless of which worker reaches which item first.
        for threads in [1, 2, 4] {
            let r: Result<Vec<usize>, String> = try_run_indexed(10, threads, |i| {
                if i == 7 {
                    // Make the later failure likely to finish first.
                    Err(format!("fast failure at {i}"))
                } else if i == 3 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    Err(format!("slow failure at {i}"))
                } else {
                    Ok(i)
                }
            });
            assert_eq!(r.unwrap_err(), "slow failure at 3", "threads={threads}");
        }
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        // requested = 0 resolves to something positive whatever the
        // environment says.
        assert!(resolve_threads(0) >= 1);
    }
}
