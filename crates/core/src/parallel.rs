//! Scoped worker pool for independent simulated experiments.
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
//! Built on `std::thread::scope` — no external dependencies.

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Calls `f(attempt)` up to `attempts` times (attempt numbers `0..attempts`)
/// and returns the first success together with the attempt it happened on.
/// On persistent failure the *last* error is returned — that is the error
/// state the caller would act on, and earlier ones are retried-away noise.
///
/// This is the training-pipeline counterpart of the simulator's task retry:
/// an experiment run that dies (a schedule that fails validation at one
/// grid point, a poisoned workload) gets a bounded number of fresh chances
/// before the caller decides whether to fail or degrade gracefully.
pub fn with_retry<T, E, F>(attempts: u32, mut f: F) -> Result<(T, u32), E>
where
    F: FnMut(u32) -> Result<T, E>,
{
    let attempts = attempts.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        match f(attempt) {
            Ok(v) => return Ok((v, attempt)),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one attempt ran"))
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
    fn with_retry_returns_first_success_and_attempt() {
        let r: Result<(u32, u32), &str> =
            with_retry(4, |attempt| if attempt < 2 { Err("boom") } else { Ok(7) });
        assert_eq!(r, Ok((7, 2)));
    }

    #[test]
    fn with_retry_surfaces_last_error_when_exhausted() {
        let mut calls = 0;
        let r: Result<((), u32), String> = with_retry(3, |attempt| {
            calls += 1;
            Err(format!("fail {attempt}"))
        });
        assert_eq!(calls, 3);
        assert_eq!(r.unwrap_err(), "fail 2");
    }

    #[test]
    fn with_retry_treats_zero_attempts_as_one() {
        let r: Result<(u32, u32), &str> = with_retry(0, |_| Ok(1));
        assert_eq!(r, Ok((1, 0)));
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
