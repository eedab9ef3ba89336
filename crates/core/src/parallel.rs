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
//! What the runs of one grid share is planned once: `GridPlan` holds one
//! application per grid point and one [`EnginePrep`] per lineage, planned
//! by whichever run needs it first. Nothing here retries: a training run
//! fails only when its schedule does not fit its application, which no
//! seed changes.
//!
//! Built on `std::thread::scope` — no external dependencies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use cluster_sim::{ClusterConfig, Engine, EnginePrep, SimParams};
use dagflow::Application;
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
/// point, and one [`EnginePrep`] per group of points of the same lineage
/// ([`Application::same_lineage`]; a grid's points differ only in sizes
/// and partition counts). A lineage's prep is planned on first use from
/// the application its point runs — the point's own, or a structural
/// rewrite of it such as `instrument::inject`'s, which keeps the points'
/// lineages equal. One plan serves one of the two, never both.
pub(crate) struct GridPlan {
    points: Vec<PlannedPoint>,
}

struct PlannedPoint {
    app: Application,
    /// The first point of this point's lineage, which holds its prep.
    lineage: usize,
    prep: OnceLock<Arc<EnginePrep>>,
}

impl GridPlan {
    /// Builds one application per parameter set and groups them by
    /// lineage. Plans nothing yet.
    pub(crate) fn build(
        workload: &dyn Workload,
        params: impl ExactSizeIterator<Item = WorkloadParams>,
    ) -> Self {
        let _plan = obs::prof::scope("plan");
        let mut points: Vec<PlannedPoint> = Vec::with_capacity(params.len());
        for p in params {
            let app = workload.build(&p);
            let lineage = (0..points.len())
                .find(|&i| points[i].lineage == i && points[i].app.same_lineage(&app))
                .unwrap_or(points.len());
            points.push(PlannedPoint {
                app,
                lineage,
                prep: OnceLock::new(),
            });
        }
        GridPlan { points }
    }

    /// Point `i`'s application.
    pub(crate) fn app(&self, i: usize) -> &Application {
        &self.points[i].app
    }

    /// The prep of point `i`'s lineage, planned from `runs` (what point
    /// `i` runs) if no point of the lineage has needed it yet.
    pub(crate) fn prep(&self, i: usize, runs: &Application) -> Arc<EnginePrep> {
        let lead = &self.points[self.points[i].lineage];
        Arc::clone(lead.prep.get_or_init(|| Arc::new(EnginePrep::new(runs))))
    }

    /// An engine running point `i`'s own application.
    pub(crate) fn engine(&self, i: usize, cluster: ClusterConfig, sim: SimParams) -> Engine<'_> {
        let app = self.app(i);
        Engine::with_prep(app, cluster, sim, self.prep(i, app))
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
