//! Heap allocations per offline training, counted by a global allocator
//! that tallies every `alloc`, `alloc_zeroed` and `realloc` call and the
//! bytes each asked for. One row per paper family: one one-thread
//! `OfflineTraining::run` at seed 3 after one untimed warm-up training,
//! whose artifact the counted training must reproduce. The counts are a
//! function of the code alone, so they repeat exactly on any host and
//! `juggler perf-report` holds each to a ceiling; the best-of-`REPS`
//! seconds beside them are informational.
//!
//! `cargo bench --offline -p bench --bench training_allocs -- --baseline
//! <file>` also embeds an artifact this bench wrote at another commit
//! (its own fields, without the artifact that one embedded), with each
//! family's change in allocations: run the bench at the parent
//! commit, keep its artifact, then run it here with that file.
//! Results land in `results/BENCH_training_allocs.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use bench::harness;
use juggler::pipeline::{OfflineTraining, TrainedJuggler, TrainingConfig};
use serde::Deserialize;

/// The system allocator, counting calls and requested bytes.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn tally(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SEED: u64 = 3;
const REPS: usize = 5;

/// The part of an earlier artifact of this bench that a run compares
/// against.
#[derive(Deserialize)]
struct Baseline {
    rows: BTreeMap<String, BaselineRow>,
}

#[derive(Deserialize)]
struct BaselineRow {
    allocs: u64,
}

/// Allocator calls and requested bytes during one call of `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let out = f();
    (
        CALLS.load(Relaxed) - calls,
        BYTES.load(Relaxed) - bytes,
        out,
    )
}

fn main() {
    let config = TrainingConfig {
        seed: SEED,
        ..harness::training_config()
    };
    let base = harness::baseline::<Baseline>();
    let mut table = Vec::new();
    let mut rows = serde_json::json!({});
    for w in workloads::all_workloads() {
        let train = || OfflineTraining::run(w.as_ref(), &config).expect("training succeeds");
        let artifact = |t: &TrainedJuggler| serde_json::to_string(t).expect("artifact serializes");
        let warm = artifact(&train());
        let (allocs, bytes, trained) = counted(train);
        assert_eq!(
            artifact(&trained),
            warm,
            "{}: the counted training differs from the warm-up",
            w.name()
        );
        drop(trained);
        let best = harness::best_of(REPS, train);
        let mut cells = vec![
            w.name().to_owned(),
            allocs.to_string(),
            format!("{:.1}", bytes as f64 / 1e6),
            format!("{:.3}", best * 1e3),
        ];
        let mut entry = serde_json::json!({
            "allocs": allocs,
            "bytes": bytes,
            "best_seconds": best,
        });
        if let Some(before) = base.as_ref().and_then(|(_, b)| b.rows.get(w.name())) {
            let change = harness::overhead_pct(before.allocs as f64, allocs as f64);
            cells.extend([before.allocs.to_string(), format!("{change:+.1}%")]);
            entry["baseline_allocs"] = serde_json::json!(before.allocs);
            entry["allocs_change_pct"] = serde_json::json!(change);
        }
        table.push(cells);
        rows[w.name()] = entry;
    }
    let mut header = vec!["family", "allocs", "MB asked", "best (ms)"];
    if base.is_some() {
        header.extend(["baseline allocs", "change"]);
    }
    let mut json = serde_json::json!({
        "commit": harness::commit(),
        "seed": SEED,
        "threads": config.threads,
        "reps": REPS,
        "rows": rows,
    });
    if let Some((mut raw, _)) = base {
        // The parent's own fields only, not the artifact it embedded.
        if let serde_json::Value::Object(fields) = &mut raw {
            fields.retain(|(key, _)| key != "baseline");
        }
        json["baseline"] = raw;
    }
    harness::publish(
        "training_allocs",
        &format!("Allocations per one-thread training (seed {SEED}; best of {REPS} seconds)"),
        &header,
        &table,
        &json,
        &[],
    );
}
