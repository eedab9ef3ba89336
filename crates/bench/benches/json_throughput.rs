//! JSON number text and manifest throughput over a 100-manifest LOR
//! window, as `ledger_health` and `juggler health` read it. Times, best of
//! `REPS` and interleaved, the vendored writer's `f64` and integer text
//! against the `format!` text it replaced, over every number in the
//! window; the kernel's output must equal `format!`'s byte for byte. Also
//! times, per manifest, `canonical_json` (the re-serialization each read
//! hashes), `serde_json::from_str::<RunManifest>` and
//! `RunManifest::from_json` (parse, re-serialize, re-hash, compare).
//! Results land in `results/BENCH_json_throughput.json`; the run fails
//! below a 1.3× `f64` text speedup.

use std::fmt::Write as _;

use bench::harness::{self, Budget};
use juggler::provenance::RunManifest;
use serde_json::Value;
use workloads::{LogisticRegression, Workload};

const REPS: usize = 15;
const MANIFESTS: usize = 100;
/// Passes over the window's numbers per timed measurement.
const PASSES: usize = 20;

/// Every number of `v`: floats, and integers split by sign.
fn collect(v: &Value, floats: &mut Vec<f64>, ints: &mut Vec<i64>, uints: &mut Vec<u64>) {
    match v {
        Value::Float(x) => floats.push(*x),
        Value::Int(n) if *n < 0 => ints.push(*n),
        Value::Int(n) => uints.push(n.unsigned_abs()),
        Value::UInt(n) => uints.push(*n),
        Value::Array(items) => items.iter().for_each(|x| collect(x, floats, ints, uints)),
        Value::Object(entries) => entries
            .iter()
            .for_each(|(_, x)| collect(x, floats, ints, uints)),
        _ => {}
    }
}

/// A JSON array of `items` with each element printed by `text` — the
/// `format!`-based writer this kernel replaced.
fn format_array<T>(items: &[T], mut text: impl FnMut(&mut String, &T)) -> String {
    let mut s = String::from("[");
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        text(&mut s, x);
    }
    s.push(']');
    s
}

fn format_f64(s: &mut String, x: &f64) {
    let start = s.len();
    write!(s, "{x}").expect("writing to a String cannot fail");
    if !s[start..].contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
}

fn format_int(s: &mut String, n: &impl std::fmt::Display) {
    write!(s, "{n}").expect("writing to a String cannot fail");
}

#[derive(Clone, Copy)]
enum Path {
    Format,
    Kernel,
}

/// Best seconds per value of `PASSES` passes of each path over `n` values.
fn race(n: usize, mut run: impl FnMut(Path) -> String) -> [f64; 2] {
    harness::interleaved_best(REPS, [Path::Format, Path::Kernel], |path, _| {
        harness::time(|| {
            for _ in 0..PASSES {
                std::hint::black_box(run(path));
            }
        }) / (PASSES * n) as f64
    })
}

fn main() {
    // A 100-manifest window of one recorded LOR run.
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
    let parsed: Vec<RunManifest> = window
        .iter()
        .map(|raw| RunManifest::from_json(raw).expect("manifest verifies"))
        .collect();

    let (mut floats, mut ints, mut uints) = (Vec::new(), Vec::new(), Vec::new());
    for raw in &window {
        let doc: Value = serde_json::from_str(raw).expect("manifest parses");
        collect(&doc, &mut floats, &mut ints, &mut uints);
    }

    let kernel_f64 = |xs: &[f64]| serde_json::to_string(xs).expect("floats serialize");
    let format_f64s = |xs: &[f64]| format_array(xs, format_f64);
    let kernel_int = || serde_json::to_string(&(&ints, &uints)).expect("integers serialize");
    let format_ints = || {
        let signed = format_array(&ints, format_int);
        let unsigned = format_array(&uints, format_int);
        format!("[{signed},{unsigned}]")
    };
    assert_eq!(
        kernel_f64(&floats),
        format_f64s(&floats),
        "the f64 kernel's text differs from format!"
    );
    assert_eq!(
        kernel_int(),
        format_ints(),
        "the integer text differs from format!"
    );

    let [format_f, kernel_f] = race(floats.len(), |path| match path {
        Path::Format => format_f64s(&floats),
        Path::Kernel => kernel_f64(&floats),
    });
    let int_count = ints.len() + uints.len();
    let [format_i, kernel_i] = race(int_count, |path| match path {
        Path::Format => format_ints(),
        Path::Kernel => kernel_int(),
    });
    let f64_speedup = format_f / kernel_f;
    let int_speedup = format_i / kernel_i;

    let per_manifest = |secs: f64| secs / MANIFESTS as f64;
    let canonical_s = per_manifest(harness::best_of(REPS, || {
        parsed
            .iter()
            .map(|m| m.content.canonical_json())
            .collect::<Vec<_>>()
    }));
    let parse_s = per_manifest(harness::best_of(REPS, || {
        window
            .iter()
            .map(|raw| serde_json::from_str::<RunManifest>(raw).expect("manifest parses"))
            .collect::<Vec<_>>()
    }));
    let from_json_s = per_manifest(harness::best_of(REPS, || {
        window
            .iter()
            .map(|raw| RunManifest::from_json(raw).expect("manifest verifies"))
            .collect::<Vec<_>>()
    }));

    let ns = |secs: f64| format!("{:.1} ns", secs * 1e9);
    let us = |secs: f64| format!("{:.2} us", secs * 1e6);
    let rows = vec![
        vec![
            format!("f64 text x{}", floats.len()),
            ns(format_f),
            ns(kernel_f),
            format!("{f64_speedup:.2}x"),
        ],
        vec![
            format!("integer text x{int_count}"),
            ns(format_i),
            ns(kernel_i),
            format!("{int_speedup:.2}x"),
        ],
        vec![
            "canonical_json".to_owned(),
            String::new(),
            us(canonical_s),
            String::new(),
        ],
        vec![
            "from_str::<RunManifest>".to_owned(),
            String::new(),
            us(parse_s),
            String::new(),
        ],
        vec![
            "RunManifest::from_json".to_owned(),
            String::new(),
            us(from_json_s),
            String::new(),
        ],
    ];
    let window_bytes: usize = window.iter().map(String::len).sum();
    harness::publish(
        "json_throughput",
        &format!(
            "JSON number text and manifest throughput (best of {REPS}), per value / per manifest"
        ),
        &["measure", "format!", "kernel", "speedup"],
        &rows,
        &serde_json::json!({
            "reps": REPS,
            "manifests": MANIFESTS,
            "window_bytes": window_bytes,
            "output_identical": true,
            "f64_text": {
                "values": floats.len(),
                "format_ns": format_f * 1e9,
                "kernel_ns": kernel_f * 1e9,
                "speedup": f64_speedup,
            },
            "int_text": {
                "values": int_count,
                "format_ns": format_i * 1e9,
                "kernel_ns": kernel_i * 1e9,
                "speedup": int_speedup,
            },
            "per_manifest_us": {
                "canonical_json": canonical_s * 1e6,
                "from_str": parse_s * 1e6,
                "from_json": from_json_s * 1e6,
            },
        }),
        &[Budget::at_least(
            "f64 text speedup over format!",
            f64_speedup,
            1.3,
        )],
    );
}
