//! End-to-end and per-layer benchmark of the Juggler reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload train_paper --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. Every workload is a closed loop with one
//! client on one thread. With `--trace 0` the run times untraced ops for
//! `--seconds` and prints the end-to-end metrics, op latencies in units of
//! a memory-bound yardstick kernel timed beside them (see `yardstick.rs`;
//! wall-clock figures are printed too); with `--trace 1` it
//! alternates each untraced op with a traced one, where the benchmark
//! wraps every call it makes into a layer in a span, and prints the
//! per-layer metrics. The last stdout line is the JSON result; the run
//! record, with host facts and (traced) every span, goes to
//! `benchmark/out/`.

mod ledger;
mod metrics;
mod quality;
mod tenants;
mod trace;
mod train;
mod yardstick;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cluster_sim::RunReport;
use serde_json::Value;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use trace::Tracer;
use yardstick::Yardstick;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["train_paper", "tenants_tight", "ledger_health"];

/// Why an op did not succeed.
pub enum OpError {
    /// Wrong or missing output: the op counts as failed.
    Wrong(String),
    /// The benchmark itself no longer measures what it claims (a replay
    /// diverged from the program): the run stops without a result.
    Fatal(String),
}

impl From<String> for OpError {
    fn from(msg: String) -> Self {
        OpError::Wrong(msg)
    }
}

/// One benchmark workload.
pub trait Bench: Sized {
    /// Builds the inputs and, by running every input once, the reference
    /// outputs ops are checked against. Set-up spans go to `t`.
    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String>;
    /// Digest of the references, so that repeated set-ups can be compared.
    fn reference(&self) -> String;
    /// One untraced op through the program's own entry points.
    fn op(&mut self, k: usize) -> Result<(), OpError>;
    /// The same op through the layers' public functions, in spans.
    fn traced_op(&mut self, k: usize, t: &mut Tracer) -> Result<(), OpError>;
    /// Traced reference work for op `k`, outside the op's span.
    fn traced_reference(&mut self, _k: usize, _t: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Checks that need the whole traced run; returns lines to report.
    fn after_trace(&mut self) -> Result<Vec<String>, String> {
        Ok(Vec::new())
    }
    /// Corrupts one reference, so that ops on that input fail their check.
    fn inject_mismatch(&mut self);
}

/// Splitmix64 of `seed` and `salt`: independent per-input seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counts one simulated run's work on the tracer.
pub fn record_run(t: &mut Tracer, report: &RunReport) {
    t.count("cluster_sim.runs", 1.0);
    t.count("cluster_sim.tasks", report.total_tasks as f64);
    let stats = report.cache.per_dataset.values();
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    for s in stats {
        hits += s.hits;
        misses += s.misses;
        evictions += s.evictions;
    }
    t.count("cluster_sim.cache_hits", hits as f64);
    t.count("cluster_sim.cache_misses", misses as f64);
    t.count("cluster_sim.evictions", evictions as f64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set only by `--self-test`: corrupt one reference before timing.
    inject_mismatch: bool,
}

fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        inject_mismatch: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--self-test" => return Ok(None),
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Some(args))
}

/// The result of one run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Name → value, in metric-table order.
    metrics: Vec<(&'static MetricDef, f64)>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
    /// Spans of the traced run.
    tracer: Option<Tracer>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "train_paper" => run_bench::<train::TrainPaper>(args),
        "tenants_tight" => run_bench::<tenants::TenantsTight>(args),
        "ledger_health" => run_bench::<ledger::LedgerHealth>(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn run_bench<B: Bench>(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run_traced::<B>(args)
    } else {
        run_untraced::<B>(args)
    }
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

fn run_untraced<B: Bench>(args: &Args) -> Result<Outcome, String> {
    // Allocated first, so that its table is resident through every peak
    // and `peak_rss_mb` can subtract it exactly.
    let mut yardstick = Yardstick::new();
    // Each set-up is bracketed by yardstick timings and scaled to the
    // yardstick's nominal speed, for the reason op latencies are (see
    // `yardstick.rs`); the raw wall-clock median is printed beside it.
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut bench: Option<B> = None;
    for _ in 0..SETUP_REPS {
        let before = yardstick.ms_median(3);
        let started = Instant::now();
        let fresh = B::setup(args.seed, &mut Tracer::off())?;
        let wall = started.elapsed().as_secs_f64();
        let speed = (before + yardstick.ms_median(3)) / 2.0 / yardstick::NOMINAL_MS;
        setup_wall_s.push(wall);
        setup_s.push(wall / speed);
        match &bench {
            Some(first) if first.reference() != fresh.reference() => {
                return Err("a repeated set-up produced different references".to_owned());
            }
            Some(_) => {}
            None => bench = Some(fresh),
        }
    }
    let mut bench = bench.expect("at least one set-up");
    if args.inject_mismatch {
        bench.inject_mismatch();
    }

    let window = Duration::from_secs_f64(args.seconds);
    let mut latencies_ms = Vec::new();
    let mut in_refs = Vec::new();
    let mut failed = 0u64;
    let mut first_error = None;
    let started = Instant::now();
    while started.elapsed() < window {
        let ref_ms = yardstick.ms();
        let t0 = Instant::now();
        let result = bench.op(latencies_ms.len());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        latencies_ms.push(ms);
        in_refs.push(ms / ref_ms);
        match result {
            Ok(()) => {}
            Err(OpError::Wrong(msg)) => {
                failed += 1;
                first_error.get_or_insert(msg);
            }
            Err(OpError::Fatal(msg)) => return Err(msg),
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let attempted = latencies_ms.len() as u64;
    let completed = attempted - failed;

    let scored = Instant::now();
    let quality = quality::compute(args.seed)?;
    let scoring_s = scored.elapsed().as_secs_f64();
    let rss = peak_rss_mb()? - Yardstick::resident_mb();

    let total_refs: f64 = in_refs.iter().sum();
    in_refs.sort_by(f64::total_cmp);
    let p90 = quantile(&in_refs, 0.9);
    let beyond_p90 = in_refs.iter().filter(|&&x| x > p90).count();
    let values: BTreeMap<&str, f64> = [
        ("op_ref_p50", quantile(&in_refs, 0.5)),
        ("op_ref_p90", p90),
        ("ops_per_kref", completed as f64 / total_refs * 1e3),
        ("setup_s", median(&mut setup_s)),
        ("peak_rss_mb", rss),
        ("train_cost_mm", quality.train_cost_mm),
        ("pred_err_pct", quality.pred_err_pct),
        ("rec_cost_mm", quality.rec_cost_mm),
    ]
    .into_iter()
    .collect();
    latencies_ms.sort_by(f64::total_cmp);
    let mut yard_ms = yardstick.samples().to_vec();
    let mut notes = vec![
        format!(
            "{attempted} ops in {elapsed_s:.3} s, {failed} failed; \
             {beyond_p90} samples lie beyond op_ref_p90"
        ),
        format!(
            "wall clock: op p50 {:.3} ms, p90 {:.3} ms, {:.2} ops/s, set-up {:.4} s; \
             yardstick median {:.4} ms over {} timings",
            quantile(&latencies_ms, 0.5),
            quantile(&latencies_ms, 0.9),
            completed as f64 / elapsed_s,
            median(&mut setup_wall_s),
            median(&mut yard_ms),
            yard_ms.len()
        ),
        format!(
            "quality scored in {scoring_s:.3} s over {} trainings, {} with calibration \
             notes; median regret of the cheapest option over the 1-12 machine sweep: {} %",
            quality.trainings, quality.noted, quality.regret_pct
        ),
    ];
    if let Some(msg) = first_error {
        notes.push(format!("first failure: {msg}"));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: table_values(END_TO_END, &values)?,
        notes,
        tracer: None,
    })
}

fn run_traced<B: Bench>(args: &Args) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    t.set_op(None);
    let mut bench = B::setup(args.seed, &mut t)?;
    if args.inject_mismatch {
        bench.inject_mismatch();
    }

    // Each op runs twice, untraced then traced, so that both sides see the
    // same inputs and the same drift of the host.
    let window = Duration::from_secs_f64(args.seconds);
    let (mut untraced_ns, mut traced_ns) = (0u128, 0u128);
    let (mut ops, mut failed) = (0usize, 0u64);
    let mut first_error = None;
    let started = Instant::now();
    while started.elapsed() < window {
        let t0 = Instant::now();
        let untraced = bench.op(ops);
        untraced_ns += t0.elapsed().as_nanos();

        t.set_op(Some(ops));
        let t1 = Instant::now();
        let span = t.enter("op");
        let traced = bench.traced_op(ops, &mut t);
        t.exit(span);
        traced_ns += t1.elapsed().as_nanos();
        bench.traced_reference(ops, &mut t)?;
        t.set_op(None);

        for result in [untraced, traced] {
            match result {
                Ok(()) => {}
                Err(OpError::Wrong(msg)) => {
                    failed += 1;
                    first_error.get_or_insert(msg);
                }
                Err(OpError::Fatal(msg)) => return Err(msg),
            }
        }
        ops += 1;
    }
    let checked = bench.after_trace()?;

    let n = ops as f64;
    let per_op_ms = |name: &str| t.per_op_ms(name, n);
    let run_ms = per_op_ms("cluster_sim.run")
        + per_op_ms("instrument.run_traced")
        + per_op_ms("cluster_sim.tenant_run");
    let hits = t.counted("cluster_sim.cache_hits");
    let lookups = hits + t.counted("cluster_sim.cache_misses");
    let tenant_ms = per_op_ms("cluster_sim.tenant_run");
    let solo_ms = per_op_ms("cluster_sim.solo_run");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let attempted = 2 * ops as u64;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for def in PER_LAYER {
        let name = def.name;
        let value = match name {
            "cluster_sim.run_ms" => run_ms,
            "cluster_sim.tasks_per_s" => ratio(t.counted("cluster_sim.tasks") / n, run_ms / 1e3),
            "cluster_sim.cache_hit_ratio" => ratio(hits, lookups),
            "cluster_sim.tenant_overhead_pct" => ratio(tenant_ms - solo_ms, solo_ms) * 100.0,
            "workloads.build_calls" => t.per_op_calls("workloads.build", n),
            "unattributed_ms" => t.unattributed_ms() / n,
            "trace_overhead_pct" => {
                ratio(traced_ns as f64 - untraced_ns as f64, untraced_ns as f64) * 100.0
            }
            "error_rate" => failed as f64 / attempted as f64,
            _ => {
                if let Some(span) = name.strip_suffix("_ms") {
                    per_op_ms(span)
                } else if let Some(span) = name.strip_suffix("_us") {
                    per_op_ms(span) * 1e3
                } else {
                    t.counted(name) / n
                }
            }
        };
        values.insert(name, value);
    }
    let mut notes = vec![format!(
        "{ops} op pairs (untraced + traced) in {:.3} s, {failed} failed; {} spans",
        started.elapsed().as_secs_f64(),
        t.spans().len()
    )];
    notes.extend(checked);
    if let Some(msg) = first_error {
        notes.push(format!("first failure: {msg}"));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: table_values(PER_LAYER, &values)?,
        notes,
        tracer: Some(t),
    })
}

fn table_values(
    table: &'static [MetricDef],
    values: &BTreeMap<&str, f64>,
) -> Result<Vec<(&'static MetricDef, f64)>, String> {
    table
        .iter()
        .map(|def| {
            let v = *values
                .get(def.name)
                .ok_or(format!("metric {} was not measured", def.name))?;
            if v.is_finite() {
                Ok((def, v))
            } else {
                Err(format!("metric {} is not finite: {v}", def.name))
            }
        })
        .collect()
}

/// `VmHWM` of this process, megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

// ── host facts ────────────────────────────────────────────────────────

/// Facts that decide whether two results may be compared.
fn host_facts(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", env!("BENCH_RUSTC_VERSION").to_owned()),
        ("git_rev", git_rev()),
        ("source_sha256", source_digest()),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ]
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "none (not a git checkout)".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// SHA-256 over the program's sources (path and content of every file
/// under `crates/` and `compat/`, plus the root manifest and lock file),
/// which identifies the code even where the checkout has no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("compat".as_ref(), &mut files);
    files.sort();
    let mut h = obs::Sha256::new();
    for path in files {
        if let Ok(bytes) = std::fs::read(&path) {
            h.update(path.to_string_lossy().as_bytes());
            h.update(&(bytes.len() as u64).to_be_bytes());
            h.update(&bytes);
        }
    }
    obs::to_hex(&h.finalize())
}

// ── output ────────────────────────────────────────────────────────────

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).expect("strings serialize")
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(def, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(def.name),
                json_str(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Writes the run record (host facts, metrics with what each should
/// move, and every span of a traced run) to `benchmark/out/`.
fn write_record(
    args: &Args,
    host: &[(&'static str, String)],
    o: &Outcome,
) -> Result<String, String> {
    let obj = |pairs: Vec<(String, Value)>| Value::Object(pairs);
    let mut record = vec![
        (
            "host".to_owned(),
            obj(host
                .iter()
                .map(|(k, v)| ((*k).to_owned(), Value::Str(v.clone())))
                .collect()),
        ),
        ("correct".to_owned(), Value::Bool(o.correct)),
        ("attempted".to_owned(), Value::Int(o.attempted as i64)),
        ("failed".to_owned(), Value::Int(o.failed as i64)),
        (
            "metrics".to_owned(),
            Value::Array(
                o.metrics
                    .iter()
                    .map(|(def, v)| {
                        obj(vec![
                            ("name".to_owned(), Value::Str(def.name.to_owned())),
                            ("value".to_owned(), Value::Float(*v)),
                            ("unit".to_owned(), Value::Str(def.unit.to_owned())),
                            ("note".to_owned(), Value::Str(def.note.to_owned())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(t) = &o.tracer {
        // Spans as [name, parent, op, start_ns, end_ns]; -1 for none.
        let opt = |x: Option<usize>| Value::Int(x.map_or(-1, |v| v as i64));
        let spans = t
            .spans()
            .iter()
            .map(|s| {
                Value::Array(vec![
                    Value::Str(s.name.to_owned()),
                    opt(s.parent),
                    opt(s.op),
                    Value::Int(s.start_ns as i64),
                    Value::Int(s.end_ns as i64),
                ])
            })
            .collect();
        record.push(("spans".to_owned(), Value::Array(spans)));
    }
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let text = serde_json::to_string(&Value::Object(record)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

// ── self-test ─────────────────────────────────────────────────────────

/// `(name, unit, better)` of each entry of a `BENCHMARK.json` metric list.
fn declared(doc: &Value, key: &str) -> Result<Vec<(String, String, String)>, String> {
    let field = |m: &Value, k: &str| match m.get(k) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("{key} entry without a string `{k}`")),
    };
    doc.get(key)
        .ok_or(format!("BENCHMARK.json has no `{key}`"))?
        .expect_array(key)
        .map_err(|e| e.0)?
        .iter()
        .map(|m| Ok((field(m, "name")?, field(m, "unit")?, field(m, "better")?)))
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
        .collect()
}

/// Checks that `BENCHMARK.json` declares exactly the metrics and workloads
/// the benchmark prints, and that an injected digest mismatch is counted.
fn self_test() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if declared(&doc, "end_to_end")? != table(END_TO_END) {
        return Err("BENCHMARK.json end_to_end differs from the metric table".to_owned());
    }
    if declared(&doc, "per_layer")? != table(PER_LAYER) {
        return Err("BENCHMARK.json per_layer differs from the metric table".to_owned());
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .ok_or("BENCHMARK.json has no `workloads`")?
        .expect_array("workloads")
        .map_err(|e| e.0)?
        .iter()
        .filter_map(|w| match w.get("name") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect();
    if workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"
        ));
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            for inject_mismatch in [false, true] {
                let args = Args {
                    workload: workload.to_owned(),
                    seed: 7,
                    seconds: 0.5,
                    trace,
                    inject_mismatch,
                };
                let o = run(&args)?;
                let printed: Vec<&str> = o.metrics.iter().map(|(d, _)| d.name).collect();
                let want: Vec<&str> = if trace { PER_LAYER } else { END_TO_END }
                    .iter()
                    .map(|d| d.name)
                    .collect();
                let label = format!("{workload} trace={trace} inject={inject_mismatch}");
                if printed != want {
                    return Err(format!("{label}: printed {printed:?}"));
                }
                if inject_mismatch == (o.failed == 0) || inject_mismatch == o.correct {
                    return Err(format!(
                        "{label}: failed {} of {}, correct {}",
                        o.failed, o.attempted, o.correct
                    ));
                }
                let error_rate = o.failed as f64 / o.attempted as f64;
                let printed_rate = o.metrics.iter().find(|(d, _)| d.name == "error_rate");
                if trace && printed_rate.map(|(_, v)| *v) != Some(error_rate) {
                    return Err(format!("{label}: error_rate does not read {error_rate}"));
                }
                println!(
                    "self-test {label}: {} ops, error_rate {error_rate}",
                    o.attempted
                );
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match self_test() {
                Ok(()) => {
                    println!("self-test ok");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("self-test failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host_facts(&args);
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let record = match write_record(&args, &host, &outcome) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let facts: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# host: {}", facts.join(" "));
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (def, v) in &outcome.metrics {
        println!("# {:<34} {v:>16.6} {}", def.name, def.unit);
    }
    println!("# record: {record}");
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
