//! SHA-256 throughput of the portable rounds against the dispatched path
//! (SHA-NI where the CPU has it), at a single block, a manifest-sized
//! buffer and 1 MiB, timed interleaved best-of-`REPS`. Also times
//! `RunManifest::from_json` over a 100-manifest window — the parse,
//! re-hash and compare every ledger read pays — on the dispatched path.
//! The two paths must agree on the digest at every size. Results land in
//! `results/BENCH_hash_throughput.json`; on a CPU with SHA-NI the run
//! fails below a 3× speedup on the manifest-sized buffer.

use bench::harness::{self, Budget};
use juggler::provenance::RunManifest;
use obs::hash::{sha256_portable, sha_ni_detected};
use workloads::{LogisticRegression, Workload};

const REPS: usize = 9;
/// Bytes hashed per timed measurement, so a 64-byte row is not timer noise.
const BYTES_PER_MEASUREMENT: usize = 4 << 20;
/// The manifest-sized buffer (a doctor manifest's canonical content).
const MANIFEST_BYTES: usize = 5632;
const SIZES: [(&str, usize); 3] = [("64 B", 64), ("5.5 KB", MANIFEST_BYTES), ("1 MiB", 1 << 20)];
const MANIFESTS: usize = 100;

#[derive(Clone, Copy)]
enum Path {
    Portable,
    Dispatched,
}

/// Seconds to hash `data` `iters` times on `path`.
fn time_path(path: Path, data: &[u8], iters: usize) -> f64 {
    harness::time(|| {
        for _ in 0..iters {
            std::hint::black_box(match path {
                Path::Portable => sha256_portable(std::hint::black_box(data)),
                Path::Dispatched => obs::sha256(std::hint::black_box(data)),
            });
        }
    })
}

fn main() {
    let sha_ni = sha_ni_detected();
    println!("sha_ni detected: {sha_ni}");

    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut manifest_speedup = 0.0;
    for (label, size) in SIZES {
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        assert_eq!(
            obs::sha256(&data),
            sha256_portable(&data),
            "{label}: the dispatched digest differs from the portable one"
        );
        let iters = (BYTES_PER_MEASUREMENT / size).max(1);
        let [portable, dispatched] =
            harness::interleaved_best(REPS, [Path::Portable, Path::Dispatched], |path, _| {
                time_path(path, &data, iters)
            });
        let mb_per_s = |secs: f64| (size * iters) as f64 / secs / 1e6;
        let speedup = portable / dispatched;
        if size == MANIFEST_BYTES {
            manifest_speedup = speedup;
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", mb_per_s(portable)),
            format!("{:.0}", mb_per_s(dispatched)),
            format!("{speedup:.2}x"),
        ]);
        series.push(serde_json::json!({
            "bytes": size,
            "iterations": iters,
            "portable_mb_per_s": mb_per_s(portable),
            "dispatched_mb_per_s": mb_per_s(dispatched),
            "speedup": speedup,
        }));
    }

    // A 100-manifest window of one recorded LOR run, as `ledger_health`
    // and `juggler health` read it.
    let config = harness::training_config();
    let report = juggler::doctor(&LogisticRegression, &config).expect("doctor succeeds");
    let base = RunManifest::from_doctor(&report, &config, &LogisticRegression.paper_params());
    let window: Vec<String> = (0..MANIFESTS)
        .map(|k| {
            let mut m = base.clone();
            m.perturb_time_coefficient(0, (k + 1) as f64 * 1e-6);
            m.to_json()
        })
        .collect();
    let window_bytes: usize = window.iter().map(String::len).sum();
    let parse_s = harness::best_of(REPS, || {
        window
            .iter()
            .map(|raw| RunManifest::from_json(raw).expect("manifest verifies"))
            .collect::<Vec<_>>()
    });
    rows.push(vec![
        format!("from_json x{MANIFESTS}"),
        String::new(),
        format!("{:.3} ms", parse_s * 1e3),
        String::new(),
    ]);

    // The speedup floor applies only where the dispatched path is SHA-NI;
    // elsewhere both columns are the portable rounds.
    let gate = sha_ni.then(|| Budget::at_least("SHA-NI speedup at 5.5 KB", manifest_speedup, 3.0));
    if !sha_ni {
        println!("speedup gate (>=3x at 5.5 KB): SKIPPED (no sha_ni)");
    }

    harness::publish(
        "hash_throughput",
        &format!("SHA-256 throughput, MB/s (best of {REPS})"),
        &["input", "portable", "dispatched", "speedup"],
        &rows,
        &serde_json::json!({
            "reps": REPS,
            "sha_ni_detected": sha_ni,
            "digests_identical": true,
            "speedup_gate": {
                "required_at_5_5_kb": 3.0,
                "applicable": sha_ni,
            },
            "series": series,
            "manifest_window": {
                "manifests": MANIFESTS,
                "bytes": window_bytes,
                "from_json_best_seconds": parse_s,
            },
        }),
        gate.as_slice(),
    );
}
