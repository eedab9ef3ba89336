//! `juggler` — command-line front end for the Juggler reproduction.
//!
//! ```text
//! juggler list                               # available workloads
//! juggler train LOR --out lor.json           # offline training -> artifact
//! juggler recommend lor.json -e 70000 -f 50000 [--ram-gb 32]
//! juggler schedules SVM                      # Table 2 view for one workload
//! juggler sweep SVM --schedule 1             # cost on 1..12 machines
//! juggler dot LOR > lor.dot                  # Graphviz DAG export
//! juggler trace SVM --machines 4             # Gantt + Chrome trace JSON + stage timings
//! juggler profile LOR --format tree          # hierarchical phase profile -> ledger
//! juggler doctor KMEANS                      # model-quality & decision diagnostics
//! juggler metrics LOR --format prom          # framework metrics export
//! juggler runs record LOR                    # run -> provenance manifest in results/runs/
//! juggler runs diff <a> <b>                  # cross-run drift report
//! juggler health LOR                         # fold run history -> drift verdicts + refit advice
//! juggler watch                              # one-shot health sweep over every workload
//! juggler perf-report                        # gate BENCH_*.json against results/baselines/
//! ```
//!
//! Each command's line in [`USAGE`] is its flag table, and one parser
//! ([`Args::parse`]) reads every command line against it: an unknown
//! flag, a value flag without its value and a repeated flag exit with
//! status 2 and the command's usage line, before any work starts.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use juggler_suite::cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions, TraceConfig};
use juggler_suite::dagflow::to_dot;
use juggler_suite::juggler::pipeline::{OfflineTraining, TrainedJuggler, TrainingConfig};
use juggler_suite::juggler::provenance::{DiffTolerances, ManifestDiff, RunManifest};
use juggler_suite::juggler::watchtower::{ledger_samples, RunSample, Watchtower};
use juggler_suite::obs;
use juggler_suite::obs::health::{SloSpec, Verdict};
use juggler_suite::workloads::{all_workloads, KMeans, MicroBatchStream, SqlStarJoin, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `runs` names its subcommand in a second word.
    let words = 1 + usize::from(first == "runs" && args.len() > 1);
    let command = args[..words].join(" ");
    let usage = usage_of(&command);
    let parsed = usage.as_deref().map_or(Ok(Args::default()), |usage| {
        Args::parse(&args[words..], usage)
    });
    let args = match parsed {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage:\n{}", usage.unwrap_or_default());
            return ExitCode::from(2);
        }
    };
    // Most commands either succeed or error; `runs diff` and
    // `perf-report` additionally signal drift/regression through their
    // exit code, so the dispatch carries an ExitCode.
    let result: Result<ExitCode, String> = match command.as_str() {
        "list" => done(cmd_list()),
        "train" => done(cmd_train(&args)),
        "train-all" => done(cmd_train_all(&args)),
        "recommend" => done(cmd_recommend(&args)),
        "schedules" => done(cmd_schedules(&args)),
        "sweep" => done(cmd_sweep(&args)),
        "dot" => done(cmd_dot(&args)),
        "trace" => done(cmd_trace(&args)),
        "profile" => done(cmd_profile(&args)),
        "doctor" => done(cmd_doctor(&args)),
        "chaos" => done(cmd_chaos(&args)),
        "tenants" => cmd_tenants(&args),
        "metrics" => done(cmd_metrics(&args)),
        "runs record" => done(cmd_runs_record(&args)),
        "runs list" => done(cmd_runs_list(&args)),
        "runs show" => done(cmd_runs_show(&args)),
        "runs diff" => cmd_runs_diff(&args),
        "runs" => Err("runs needs a subcommand: record | list | show | diff".to_owned()),
        "health" => cmd_health(&args),
        "watch" => cmd_watch(&args),
        "perf-report" => cmd_perf_report(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(match other.strip_prefix("runs ") {
            Some(sub) => {
                format!("unknown runs subcommand `{sub}` (expected record | list | show | diff)")
            }
            None => format!("unknown command `{other}`\n{USAGE}"),
        }),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn done(r: Result<(), String>) -> Result<ExitCode, String> {
    r.map(|()| ExitCode::SUCCESS)
}

/// A command line split by the flags its command's usage line declares.
#[derive(Default)]
struct Args {
    positional: Vec<String>,
    /// The given flags and their values (`None` for a switch).
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `tokens` by the flags `usage` declares: `[--flag]` is a
    /// switch, and any other `-` word (`[--out FILE]`, `-e <EXAMPLES>`) is
    /// a value flag, which takes the next token even if it starts with
    /// `-`. An undeclared flag, a value flag with no value and a repeated
    /// flag are errors.
    fn parse(tokens: &[String], usage: &str) -> Result<Args, String> {
        let declared: Vec<&str> = usage
            .split_whitespace()
            .map(|w| w.trim_start_matches('['))
            .filter(|w| w.starts_with('-'))
            .collect();
        let mut args = Args::default();
        let mut tokens = tokens.iter();
        while let Some(token) = tokens.next() {
            if token.len() < 2 || !token.starts_with('-') {
                args.positional.push(token.clone());
                continue;
            }
            let Some(word) = declared.iter().find(|w| w.trim_end_matches(']') == token) else {
                return Err(format!("unknown flag `{token}`"));
            };
            if args.given(token) {
                return Err(format!("`{token}` given twice"));
            }
            let value = if word.ends_with(']') {
                None
            } else {
                tokens.next().cloned()
            };
            if value.is_none() && !word.ends_with(']') {
                return Err(format!("`{token}` needs a value"));
            }
            args.flags.push((token.clone(), value));
        }
        // The flags of one `[A | B]` group exclude each other.
        for group in usage.split('[').filter_map(|g| g.split(']').next()) {
            if !group.contains(" | ") {
                continue;
            }
            let mut given = group
                .split_whitespace()
                .filter(|w| w.starts_with('-') && args.given(w));
            if let (Some(a), Some(b)) = (given.next(), given.next()) {
                return Err(format!("`{a}` and `{b}` cannot be given together"));
            }
        }
        Ok(args)
    }

    /// The value of `flag`, if given.
    fn value(&self, flag: &str) -> Option<&str> {
        let given = self.flags.iter().find(|(f, _)| f == flag);
        given.and_then(|(_, value)| value.as_deref())
    }

    /// Whether `flag` was given.
    fn given(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The positional argument at `index`, or the error `missing`.
    fn positional(&self, index: usize, missing: &str) -> Result<&str, String> {
        self.positional
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| missing.to_owned())
    }

    /// The directory `flag` names, or `default` under the workspace root.
    fn dir(&self, flag: &str, default: &str) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        self.value(flag)
            .map_or_else(|| root.join(default), PathBuf::from)
    }

    /// The 0-based index of `--schedule N`, which counts from 1.
    fn schedule_index(&self) -> Result<Option<usize>, String> {
        let Some(s) = self.value("--schedule") else {
            return Ok(None);
        };
        match parse_num::<usize>(s, "--schedule")? {
            0 => Err("invalid --schedule: `0` (schedules are numbered from 1)".to_owned()),
            n => Ok(Some(n - 1)),
        }
    }

    /// `--threads N` (0, the default, is automatic).
    fn threads(&self) -> Result<usize, String> {
        self.value("--threads")
            .map_or(Ok(0), |t| parse_num(t, "--threads"))
    }

    /// The default training config, on `--threads N` workers.
    fn training_config(&self) -> Result<TrainingConfig, String> {
        let threads = self.threads()?;
        Ok(TrainingConfig {
            threads,
            ..TrainingConfig::default()
        })
    }
}

/// `command`'s usage line in [`USAGE`], with its continuation lines: the
/// command's flag table.
fn usage_of(command: &str) -> Option<String> {
    let head = format!("  juggler {command}");
    let mut lines = USAGE
        .lines()
        .skip_while(|l| *l != head && !l.starts_with(&format!("{head} ")));
    let mut usage = lines.next()?.to_owned();
    for more in lines.take_while(|l| l.starts_with("        ")) {
        usage = usage + "\n" + more;
    }
    Some(usage)
}

const USAGE: &str = "\
juggler — autonomous cost optimization for iterative big-data applications

USAGE:
  juggler list
  juggler train <WORKLOAD> [--out FILE] [--threads N]
  juggler train-all [--out-dir DIR] [--threads N]
  juggler recommend <ARTIFACT.json> -e <EXAMPLES> -f <FEATURES> [--ram-gb N]
  juggler schedules <WORKLOAD>
  juggler sweep <WORKLOAD> [--schedule N | --ops \"p(1) u(1) p(2)\"]
  juggler dot <WORKLOAD> [--schedule N]
  juggler trace <WORKLOAD> [--machines N] [--width N] [--format gantt|collapsed]
                 [--out FILE] [--jsonl FILE] [--no-pipeline] [--threads N]
  juggler profile <WORKLOAD> [--format tree|collapsed|json] [--diff FILE]
                 [--threads N]
  juggler doctor <WORKLOAD> [--threads N] [--timings] [--format text|json]
  juggler chaos <WORKLOAD> [--plan loss|slow|flaky|pressure|combo|drill]
                 [--machines N] [--seed S]
  juggler tenants [SPEC.json]
  juggler metrics <WORKLOAD> [--format prom|json] [--output FILE]
                 [--timings] [--threads N]
  juggler runs record <WORKLOAD> [--threads N] [--store DIR]
  juggler runs list [--store DIR] [--workload W] [--limit N]
  juggler runs show <RUN> [--store DIR]
  juggler runs diff <RUN_A> <RUN_B> [--store DIR] [--tol-coeff X] [--tol-pred X]
  juggler health <WORKLOAD> [--slo FILE] [--format tree|json|prom]
                 [--since RUN] [--limit N] [--store DIR]
  juggler watch [--slo FILE] [--store DIR]
  juggler perf-report [--results DIR] [--baselines DIR] [--write-baselines]

WORKLOAD: KMEANS | LIR | LOR | PCA | RFC | SQLJOIN | STREAM | SVM

`profile` trains the workload with the hierarchical phase profiler
enabled and prints the merged self/total-time call tree (--format tree),
collapsed stacks loadable in inferno/speedscope (--format collapsed), or
the canonical JSON document (--format json). --diff FILE compares the
fresh profile against a saved one (a `profile --format json` document
or a bare profile JSON) and reports per-phase time deltas plus the
largest regressions. The tree structure — phase names, call counts,
counters — is deterministic at any --threads setting; timings are host
wall clock. `trace --format collapsed` folds the simulated task spans
of one run through the same stack folder. Progress chatter on stderr
is off by default; set JUGGLER_LOG=info (or debug) to enable it.

`doctor` trains the workload with a metrics registry of its own, scoped
to the run and its worker threads (there is no global registry and no
on/off switch), validates every Pareto option's predicted time/size
against a simulated run, and prints model-quality (per-model LOO-CV
winner and error) and decision (hotspot accept/reject reasons)
diagnostics. `metrics` runs the same flow and exports that run's
registry (Prometheus text by default); --timings includes host
wall-clock gauges, which makes the output non-deterministic.
`doctor --format json` emits the run's provenance manifest instead of the
human report; `metrics --output FILE` writes the export to a file.

`chaos` runs a fault-injection drill: a fault-free baseline, then the
same run with a named fault plan (executor loss, slow node, flaky tasks,
memory pressure, or combinations) injected at fractions of the measured
baseline, reporting retry/speculation/blacklist activity and whether
lineage restored the cache. Both runs are noise-free, so the report is
deterministic.

`tenants` runs a multi-tenant contention drill: several workloads share
one cluster under FAIR weights and a block-store pool sized so they
evict each other's cached blocks. Without a SPEC.json it runs the
built-in two-tenant drill (LOR incumbent, an SQL star join arriving 5 s
later with double weight). The spec is a JSON object — machines, seed,
ram_bytes, pressure, and a `tenants` array of {workload, weight,
arrival_offset_s} — with drill defaults for every absent field. The
report covers per-tenant wall clock, slot waits, cross-tenant eviction
attribution, residency half-life and the contention-aware (pressured)
hotspot audit; the command exits 1 when any tenancy invariant fails, so
it doubles as a CI gate.

`runs record` performs the doctor flow and files the resulting manifest
(content-addressed by SHA-256) in the run ledger (default store:
results/runs/). `runs diff` compares two manifests' hashed content and
flags model-winner changes, coefficient drift beyond tolerance,
prediction-error regressions, and counter drift; it exits 1 when drift is
found. RUN accepts a run id, an unambiguous id prefix, or a manifest
path. `runs list` prints the verified runs newest-first; --workload and
--limit narrow the listing. A file in the store that fails its content
hash, or is not a run manifest at all, is skipped with a warning by
`runs list`, `health` and `watch` alike.

`health` folds the recorded run history of one workload through the
deterministic drift detectors (CUSUM on model-coefficient deviation,
Page–Hinkley on prediction relative error, EWMA bands on residuals) and
evaluates it against the error-budget SLO (defaults, or a JSON spec via
--slo — see examples/slo.json). The resulting HealthReport, a pure
function of the fold window and the SLO, is printed as a tree (default),
JSON, or Prometheus gauges (--format prom). --since RUN and --limit N
narrow the fold window; exit status is 1 when any model or the error
budget is Drifted, so the command doubles as a CI gate. `watch` is the
one-shot sweep: one verdict line per workload in the run ledger, exit 1
if any is Drifted. The run ledger keeps a cache
of what these commands read from each manifest in its own directory
(`sample_cache`), so a repeat read parses only runs recorded since.

`perf-report` gates the committed/fresh BENCH_*.json artifacts
against the baseline specs in results/baselines/ and exits 1 on any
regression; --write-baselines regenerates the specs (normally done via
scripts/refresh_baselines.sh so baseline churn is an explicit commit).

--threads 0 (the default) auto-sizes the experiment worker pool from the
JUGGLER_THREADS environment variable or the machine's parallelism;
--threads 1 forces sequential runs. Artifacts are bit-identical either
way.

Flags are strict: an unknown flag, a flag that needs a value but has
none, a flag given twice, and both sides of an `[A | B]` choice exit
with status 2 and the command's usage line before any work starts. A
value flag takes the next argument even when it starts with `-` (`-e -5`
is an invalid -e, not a flag). Schedules are numbered from 1, as
`schedules` lists them.";

fn find_workload(name: &str) -> Result<Box<dyn Workload>, String> {
    juggler_suite::juggler::tenants::workload_by_name(name)
        .ok_or_else(|| format!("unknown workload `{name}` (try `juggler list`)"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

fn cmd_list() -> Result<(), String> {
    println!(
        "{:<6} {:>9} {:>9} {:>6} {:>10}",
        "name", "examples", "features", "iters", "input"
    );
    let mut pool = all_workloads();
    pool.push(Box::new(KMeans::default()));
    pool.push(Box::new(SqlStarJoin));
    pool.push(Box::new(MicroBatchStream));
    for w in pool {
        let p = w.paper_params();
        println!(
            "{:<6} {:>9} {:>9} {:>6} {:>9.1}G",
            w.name(),
            p.examples,
            p.features,
            p.iterations,
            p.input_bytes() as f64 / 1e9
        );
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let name = args.positional(0, "train needs a workload name")?;
    let w = find_workload(name)?;
    let config = args.training_config()?;
    obs::log_info!("training Juggler for {} (four offline stages)...", w.name());
    let trained = OfflineTraining::run(w.as_ref(), &config).map_err(|e| e.to_string())?;
    let json = serde_json::to_string_pretty(&trained).map_err(|e| e.to_string())?;
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {path}: {} schedules, memory factor {:.3}, training cost {:.1} machine-min",
                trained.schedules.len(),
                trained.memory_factor.factor,
                trained.costs.total_machine_minutes()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_train_all(args: &Args) -> Result<(), String> {
    let threads = args.threads()?;
    let out_dir = args.value("--out-dir");
    let ws = all_workloads();
    obs::log_info!(
        "training {} workloads on {} worker(s)...",
        ws.len(),
        juggler_suite::juggler::resolve_threads(threads)
    );
    // Whole workloads fan across the pool; each training then runs its
    // own stages sequentially so the pool is not oversubscribed.
    let results =
        juggler_suite::juggler::try_run_indexed::<_, String, _>(ws.len(), threads, |i| {
            let config = TrainingConfig {
                threads: 1,
                ..TrainingConfig::default()
            };
            OfflineTraining::run(ws[i].as_ref(), &config)
                .map_err(|e| format!("{}: {e}", ws[i].name()))
        })?;
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    }
    for trained in &results {
        println!(
            "{:<5} {} schedules, memory factor {:.3}, training cost {:.1} machine-min",
            trained.workload,
            trained.schedules.len(),
            trained.memory_factor.factor,
            trained.costs.total_machine_minutes()
        );
        if let Some(dir) = &out_dir {
            let path =
                std::path::Path::new(dir).join(format!("{}.json", trained.workload.to_lowercase()));
            let json = serde_json::to_string_pretty(trained).map_err(|e| e.to_string())?;
            std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// A finite, strictly positive number for `what`.
fn parse_positive(s: &str, what: &str) -> Result<f64, String> {
    let x: f64 = parse_num(s, what)?;
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!(
            "invalid {what}: `{s}` (must be a positive finite number)"
        ))
    }
}

fn cmd_recommend(args: &Args) -> Result<(), String> {
    let path = args.positional(0, "recommend needs an artifact path")?;
    let e = parse_positive(args.value("-e").ok_or("missing -e <examples>")?, "-e")?;
    let f = parse_positive(args.value("-f").ok_or("missing -f <features>")?, "-f")?;
    let ram_gb = args
        .value("--ram-gb")
        .map(|gb| parse_positive(gb, "--ram-gb"))
        .transpose()?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trained: TrainedJuggler = serde_json::from_str(&json).map_err(|e| e.to_string())?;

    let menu = match ram_gb {
        Some(gb) => {
            let spec = MachineSpec {
                ram_bytes: (gb * 1e9) as u64,
                ..trained.target_spec
            };
            println!("(machine type override: {gb} GB RAM; §6.2 — optimization models reuse)");
            trained.recommend_on(e, f, &spec, None)
        }
        None => trained.recommend(e, f),
    };
    println!("{} at examples={e}, features={f}:", trained.workload);
    for o in &menu.options {
        println!(
            "  {:<26} {:>2} machines  {:>9}  {:>8.1} machine-min  (cache {})",
            o.schedule.notation(),
            o.machines,
            obs::fmt_duration_s(o.predicted_time_s),
            o.predicted_cost_machine_min,
            obs::fmt_bytes(o.predicted_size_bytes)
        );
    }
    for d in &menu.dominated {
        println!(
            "  {:<26} dominated (another option is faster and cheaper)",
            d.schedule.notation()
        );
    }
    for bad in &menu.invalid {
        println!(
            "  {:<26} INVALID (non-finite prediction: time {} s, cost {}) — check the model fit",
            bad.schedule.notation(),
            bad.predicted_time_s,
            bad.predicted_cost_machine_min
        );
    }
    Ok(())
}

fn cmd_schedules(args: &Args) -> Result<(), String> {
    let name = args.positional(0, "schedules needs a workload name")?;
    let w = find_workload(name)?;
    let trained =
        OfflineTraining::run(w.as_ref(), &TrainingConfig::default()).map_err(|e| e.to_string())?;
    println!(
        "HiBench default: {}\n",
        w.build(&w.paper_params()).default_schedule()
    );
    print!("{}", juggler_suite::juggler::model_card(&trained));
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let name = args.positional(0, "sweep needs a workload name")?;
    let w = find_workload(name)?;
    let params = w.paper_params();
    let app = w.build(&params);

    // An explicit --ops "p(1) u(1) p(2)" skips training entirely.
    let (schedule, spec, max_machines, recommended) = if let Some(ops) = args.value("--ops") {
        let schedule = juggler_suite::dagflow::Schedule::parse(ops).map_err(|e| e.to_string())?;
        app.check_schedule(&schedule).map_err(|e| e.to_string())?;
        println!(
            "{} with explicit schedule {}",
            w.name(),
            schedule.notation()
        );
        (schedule, MachineSpec::private_cluster(), 12, None)
    } else {
        let idx = args.schedule_index()?.unwrap_or(0);
        let trained = OfflineTraining::run(w.as_ref(), &TrainingConfig::default())
            .map_err(|e| e.to_string())?;
        let rs = trained
            .schedules
            .get(idx)
            .ok_or_else(|| format!("schedule {} does not exist", idx + 1))?;
        let recommended = trained.machines_for(idx, params.e(), params.f());
        println!(
            "{} schedule #{} = {} (recommended: {} machines)",
            w.name(),
            idx + 1,
            rs.schedule.notation(),
            recommended
        );
        let schedule = rs.schedule.as_ref().clone();
        (
            schedule,
            trained.target_spec,
            trained.max_machines,
            Some(recommended),
        )
    };
    println!("{:>9} {:>10} {:>14}", "machines", "time", "cost (m-min)");
    for machines in 1..=max_machines {
        let mut sim = w.sim_params();
        sim.seed = 0xC11 ^ u64::from(machines);
        let report = Engine::new(&app, ClusterConfig::new(machines, spec), sim)
            .run(
                &schedule,
                RunOptions {
                    collect_traces: false,
                    partition_skew: 0.15,
                    ..RunOptions::default()
                },
            )
            .map_err(|e| e.to_string())?;
        let marker = if Some(machines) == recommended {
            "  <- recommended"
        } else {
            ""
        };
        println!(
            "{machines:>9} {:>10} {:>14.1}{marker}",
            obs::fmt_duration_s(report.total_time_s),
            report.cost_machine_minutes()
        );
    }
    Ok(())
}

fn cmd_dot(args: &Args) -> Result<(), String> {
    let name = args.positional(0, "dot needs a workload name")?;
    let w = find_workload(name)?;
    // Render the sample-scale plan (paper-scale PCA has 1833 nodes).
    let app = w.build(&w.sample_params());
    let schedule = match args.schedule_index()? {
        Some(idx) => {
            let trained = OfflineTraining::run(w.as_ref(), &TrainingConfig::default())
                .map_err(|e| e.to_string())?;
            trained
                .schedules
                .get(idx)
                .ok_or_else(|| format!("schedule {} does not exist", idx + 1))?
                .schedule
                .as_ref()
                .clone()
        }
        None => app.default_schedule().clone(),
    };
    print!("{}", to_dot(&app, &schedule));
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let name = args.positional(0, "trace needs a workload name")?;
    let w = find_workload(name)?;
    let machines: u32 = match args.value("--machines") {
        Some(m) => parse_num(m, "--machines")?,
        None => 2,
    };
    let width: usize = match args.value("--width") {
        Some(v) => parse_num(v, "--width")?,
        None => 100,
    };
    let format = args.value("--format").unwrap_or("gantt");
    if format != "gantt" && format != "collapsed" {
        return Err(format!(
            "unknown --format `{format}` (expected gantt or collapsed)"
        ));
    }
    // Sample scale keeps the trace readable.
    let app = w.build(&w.sample_params());
    let report = Engine::new(
        &app,
        ClusterConfig::new(machines, MachineSpec::private_cluster()),
        w.sim_params(),
    )
    .run(
        &app.default_schedule().clone(),
        RunOptions {
            collect_traces: true,
            partition_skew: 0.15,
            trace: TraceConfig::enabled(),
        },
    )
    .map_err(|e| e.to_string())?;

    // Collapsed-stack export: the simulated task spans folded through the
    // same stack folder the phase profiler uses (`obs::prof::fold_stacks`),
    // so `juggler trace` and `juggler profile` flamegraphs share one
    // exporter. Weights are simulated task microseconds.
    if format == "collapsed" {
        let trace = report.trace.as_ref().expect("trace was enabled");
        let collapsed = trace.to_collapsed();
        match args.value("--out") {
            Some(path) => {
                std::fs::write(path, &collapsed).map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("wrote collapsed stacks to {path} (inferno/speedscope format)");
            }
            None => print!("{collapsed}"),
        }
        return Ok(());
    }

    print!(
        "{}",
        juggler_suite::cluster_sim::render_gantt(&report, width)
    );
    println!(
        "total {} on {machines} machines, {} tasks, {} spilled",
        obs::fmt_duration_s(report.total_time_s),
        report.total_tasks,
        report.spilled_tasks
    );
    let trace = report.trace.as_ref().expect("trace was enabled");
    println!("{}", trace.summary());

    // Chrome trace_event export (chrome://tracing, Perfetto).
    let out = args.value("--out").map_or_else(
        || format!("trace_{}.json", w.name().to_lowercase()),
        str::to_owned,
    );
    let run_name = format!("{} sample run ({machines} machines)", w.name());
    std::fs::write(&out, trace.to_chrome_json(&run_name))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote Chrome trace_event JSON to {out} (open in chrome://tracing or Perfetto)");
    if let Some(path) = args.value("--jsonl") {
        std::fs::write(path, trace.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote JSONL event log to {path}");
    }

    // Per-pipeline-stage wall-clock timings (stage 1 through the stage-5
    // menu construction), skipped with --no-pipeline.
    if !args.given("--no-pipeline") {
        let config = args.training_config()?;
        obs::log_info!("timing the offline pipeline for {}...", w.name());
        let (trained, timings) =
            OfflineTraining::run_traced(w.as_ref(), &config).map_err(|e| e.to_string())?;
        let paper = w.paper_params();
        let clock = std::time::Instant::now();
        let menu = trained.recommend(paper.e(), paper.f());
        let menu_s = clock.elapsed().as_secs_f64();
        println!("pipeline stage timings:");
        print!("{}", timings.summary());
        println!(
            "  stage {:<28} {:>9}  ({} options, {} dominated, {} invalid)",
            "5: menu construction",
            obs::fmt_duration_s(menu_s),
            menu.options.len(),
            menu.dominated.len(),
            menu.invalid.len()
        );
    }
    Ok(())
}

// ───────────────────────── phase profiling ─────────────────────────

/// Loads the profile tree out of a saved `profile --format json`
/// document, or out of a bare profile JSON file.
fn load_profile(path: &str) -> Result<obs::prof::Profile, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc: serde_json::Value = serde_json::from_str(&raw).map_err(|e| format!("{path}: {e}"))?;
    let tree = doc.get("profile").unwrap_or(&doc);
    obs::prof::Profile::from_value(tree).map_err(|e| format!("{path}: {e}"))
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let name = args.positional(0, "profile needs a workload name")?;
    let w = find_workload(name)?;
    let format = args.value("--format").unwrap_or("tree");
    if !matches!(format, "tree" | "collapsed" | "json") {
        return Err(format!(
            "unknown --format `{format}` (expected tree, collapsed, or json)"
        ));
    }
    let config = args.training_config()?;
    obs::log_info!(
        "profile: training {} with the phase profiler enabled...",
        w.name()
    );
    let prof = obs::prof::profiler();
    prof.reset();
    prof.enable();
    let trained = OfflineTraining::run(w.as_ref(), &config).map_err(|e| e.to_string())?;
    // Stage 5 (menu construction) profiles too, so the tree covers the
    // whole paper pipeline, not just offline training.
    let paper = w.paper_params();
    let menu = trained.recommend(paper.e(), paper.f());
    let profile = prof.take_profile();
    prof.set_enabled(false);
    obs::log_info!(
        "profile: {} options on the menu; recorded {} of phase time",
        menu.options.len(),
        obs::fmt_duration_s(profile.total_ns() as f64 / 1e9)
    );

    match format {
        "tree" => print!("{}", profile.render_tree()),
        "collapsed" => print!("{}", profile.to_collapsed()),
        _ => {
            let doc = serde_json::json!({
                "version": 1,
                "workload": w.name(),
                "structure_digest": profile.structure_digest(),
                "profile": profile.to_value(),
            });
            let doc_json = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
            println!("{doc_json}");
        }
    }

    if let Some(path) = args.value("--diff") {
        let base = load_profile(path)?;
        let diff = obs::prof::ProfileDiff::between(&base, &profile);
        println!("\nphase deltas vs {path} (base -> new):");
        print!("{}", diff.render());
        let top = diff.top_regressed(3);
        if !top.is_empty() {
            println!("top regressed phases:");
            for line in &top {
                println!("  {line}");
            }
        }
    }
    Ok(())
}

fn cmd_doctor(args: &Args) -> Result<(), String> {
    let name = args.positional(0, "doctor needs a workload name")?;
    let w = find_workload(name)?;
    let config = args.training_config()?;
    let format = args.value("--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(format!(
            "unknown --format `{format}` (expected text or json)"
        ));
    }
    obs::log_info!(
        "doctor: training {} with a run-scoped metrics registry...",
        w.name()
    );
    let report = juggler_suite::juggler::doctor(w.as_ref(), &config).map_err(|e| e.to_string())?;
    if format == "json" {
        // The machine-readable form is the provenance manifest itself —
        // exactly what `runs record` files in the ledger.
        let manifest = RunManifest::from_doctor(&report, &config, &w.paper_params());
        print!("{}", manifest.to_json());
        return Ok(());
    }
    print!("{}", report.render());
    // Host wall-clock timings are kept out of the deterministic report.
    if args.given("--timings") {
        println!("\nhost stage timings (wall clock, non-deterministic)");
        print!("{}", report.timings.summary());
    }
    Ok(())
}

fn cmd_chaos(args: &Args) -> Result<(), String> {
    let name = args.positional(0, "chaos needs a workload name")?;
    let w = find_workload(name)?;
    let mut cfg = juggler_suite::juggler::ChaosConfig::default();
    if let Some(plan) = args.value("--plan") {
        cfg.kind = juggler_suite::juggler::PlanKind::from_name(plan).ok_or_else(|| {
            format!(
                "unknown plan `{plan}` (expected loss | slow | flaky | pressure | combo | drill)"
            )
        })?;
    }
    if let Some(m) = args.value("--machines") {
        cfg.machines = parse_num(m, "--machines")?;
        if cfg.machines == 0 {
            return Err("--machines must be at least 1".into());
        }
    }
    if let Some(s) = args.value("--seed") {
        cfg.seed = parse_num(s, "--seed")?;
    }
    obs::log_info!(
        "chaos: running {} fault-free, then with plan `{}`...",
        w.name(),
        cfg.kind.name()
    );
    let outcome = juggler_suite::juggler::run_chaos(w.as_ref(), &cfg).map_err(|e| e.to_string())?;
    print!("{}", outcome.render());
    Ok(())
}

fn cmd_tenants(args: &Args) -> Result<ExitCode, String> {
    use juggler_suite::juggler::tenants::{run_tenants, TenantsSpec};
    let spec = match args.positional.first() {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec `{path}`: {e}"))?;
            TenantsSpec::from_json(&text)?
        }
        None => TenantsSpec::drill(),
    };
    obs::log_info!(
        "tenants: running {} tenants on {} machines...",
        spec.tenants.len(),
        spec.machines
    );
    let outcome = run_tenants(&spec)?;
    print!("{}", outcome.render());
    Ok(if outcome.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_metrics(args: &Args) -> Result<(), String> {
    let name = args.positional(0, "metrics needs a workload name")?;
    let w = find_workload(name)?;
    let config = args.training_config()?;
    let format = args.value("--format").unwrap_or("prom");
    if format != "prom" && format != "json" {
        return Err(format!(
            "unknown --format `{format}` (expected prom or json)"
        ));
    }
    obs::log_info!(
        "metrics: training {} with a run-scoped metrics registry...",
        w.name()
    );
    let report = juggler_suite::juggler::doctor(w.as_ref(), &config).map_err(|e| e.to_string())?;
    // --timings re-snapshots the doctor's registry with the wall-clock
    // gauges included; the default export is deterministic metrics only.
    let snapshot = if args.given("--timings") {
        report.registry.snapshot(true)
    } else {
        report.snapshot
    };
    let rendered = match format {
        "prom" => snapshot.to_prometheus(),
        _ => format!("{}\n", snapshot.to_json()),
    };
    match args.value("--output") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} metrics to {path}", snapshot.metrics.len());
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

// ───────────────────────── run ledger commands ─────────────────────────

/// The run ledger, `results/runs/` unless `--store DIR` says otherwise.
fn ledger_store(args: &Args) -> obs::LedgerStore {
    obs::LedgerStore::new(args.dir("--store", "results/runs"))
}

fn cmd_runs_record(args: &Args) -> Result<(), String> {
    let name = args.positional(0, "runs record needs a workload name")?;
    let w = find_workload(name)?;
    let config = args.training_config()?;
    obs::log_info!("runs record: training {} (doctor flow)...", w.name());
    let report = juggler_suite::juggler::doctor(w.as_ref(), &config).map_err(|e| e.to_string())?;
    let manifest = RunManifest::from_doctor(&report, &config, &w.paper_params());
    let store = ledger_store(args);
    let path = store
        .record(&manifest.content_hash, &manifest.to_json())
        .map_err(|e| format!("recording manifest: {e}"))?;
    println!(
        "recorded run {} ({}: {} schedules, mean time err {}%)",
        manifest.id(),
        manifest.content.workload,
        manifest.content.schedules.len(),
        obs::fmt_sig(manifest.content.predictions.mean_time_rel_error * 100.0, 3)
    );
    println!("  {}", path.display());
    Ok(())
}

fn cmd_runs_list(args: &Args) -> Result<(), String> {
    let store = ledger_store(args);
    let mut runs = ledger_samples(&store)?;
    if let Some(workload) = args.value("--workload") {
        runs.retain(|r| r.workload.eq_ignore_ascii_case(workload));
    }
    if let Some(limit) = args.value("--limit") {
        let limit: usize = parse_num(limit, "--limit")?;
        runs.truncate(limit);
    }
    if runs.is_empty() {
        println!("no runs recorded in {}", store.root().display());
        return Ok(());
    }
    println!(
        "{:<16} {:<8} {:>9} {:>9} {:>6} {:>10} {:>14}",
        "id", "workload", "examples", "features", "iters", "schedules", "mean time err"
    );
    for r in &runs {
        println!(
            "{:<16} {:<8} {:>9} {:>9} {:>6} {:>10} {:>14}",
            r.id,
            r.workload,
            r.examples,
            r.features,
            r.iterations,
            r.schedules,
            format!("{}%", obs::fmt_sig(r.mean_time_rel_error * 100.0, 3))
        );
    }
    Ok(())
}

fn load_manifest(store: &obs::LedgerStore, reference: &str) -> Result<RunManifest, String> {
    let (path, raw) = store.load(reference)?;
    RunManifest::from_json(&raw).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_runs_show(args: &Args) -> Result<(), String> {
    let reference = args.positional(0, "runs show needs a run id or path")?;
    let manifest = load_manifest(&ledger_store(args), reference)?;
    print!("{}", render_manifest(&manifest));
    Ok(())
}

fn cmd_runs_diff(args: &Args) -> Result<ExitCode, String> {
    let a_ref = args.positional(0, "runs diff needs two run references")?;
    let b_ref = args.positional(1, "runs diff needs two run references")?;
    let store = ledger_store(args);
    let a = load_manifest(&store, a_ref)?;
    let b = load_manifest(&store, b_ref)?;
    if a.envelope.schema_version != b.envelope.schema_version {
        return Err(format!(
            "cannot diff across manifest schema versions ({} vs {})",
            a.envelope.schema_version, b.envelope.schema_version
        ));
    }
    let mut tol = DiffTolerances::default();
    if let Some(v) = args.value("--tol-coeff") {
        tol.coeff_rel = parse_num(v, "--tol-coeff")?;
    }
    if let Some(v) = args.value("--tol-pred") {
        tol.pred_err_abs = parse_num(v, "--tol-pred")?;
    }
    let diff = ManifestDiff::between(&a, &b, &tol);
    print!("{}", diff.render());
    Ok(if diff.has_drift() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Deterministic `runs show` rendering of a manifest.
fn render_manifest(m: &RunManifest) -> String {
    let mut out = String::new();
    let c = &m.content;
    out.push_str(&format!("run {}\n", m.id()));
    out.push_str(&format!("  content hash {}\n", m.content_hash));
    out.push_str(&format!(
        "  tool {} (schema {}), threads requested {} resolved {}\n",
        m.envelope.tool,
        m.envelope.schema_version,
        m.envelope.threads_requested,
        m.envelope.threads_resolved
    ));
    out.push_str(&format!(
        "  {}  e {}  f {}  i {}  seed {:#x}  max machines {}  memory factor {}\n",
        c.workload,
        c.params.examples,
        c.params.features,
        c.params.iterations,
        c.seed,
        c.max_machines,
        obs::fmt_sig(c.memory_factor, 6)
    ));
    out.push_str("  schedules\n");
    for s in &c.schedules {
        out.push_str(&format!(
            "    [{}] {:<24} digest {}…  benefit {:>8}  budget {:>8}\n",
            s.index,
            s.notation,
            &s.digest[..12.min(s.digest.len())],
            obs::fmt_duration_s(s.benefit_s),
            obs::fmt_bytes(s.budget_bytes)
        ));
    }
    for (label, models) in [
        ("size models", &c.size_models),
        ("time models", &c.time_models),
    ] {
        out.push_str(&format!("  {label}\n"));
        for r in models {
            let coeffs: Vec<String> = r.model.coeffs.iter().map(|&x| obs::fmt_sig(x, 6)).collect();
            out.push_str(&format!(
                "    {:<9} {}  θ [{}]  cv {}%\n",
                r.name,
                r.model.spec,
                coeffs.join(", "),
                obs::fmt_sig(r.model.cv_error * 100.0, 3)
            ));
        }
    }
    out.push_str(&format!(
        "  predictions ({} options)\n",
        c.predictions.entries.len()
    ));
    for p in &c.predictions.entries {
        out.push_str(&format!(
            "    [{}] {} machines  time {} pred / {} sim  size {} / {}  report {}…\n",
            p.schedule_index,
            p.machines,
            obs::fmt_duration_s(p.predicted_time_s),
            obs::fmt_duration_s(p.actual_time_s),
            obs::fmt_bytes(p.predicted_size_bytes),
            obs::fmt_bytes(p.actual_peak_bytes),
            &p.report_digest[..12.min(p.report_digest.len())]
        ));
    }
    out.push_str(&format!(
        "    time error: mean {}%, max {}%   size error: mean {}%\n",
        obs::fmt_sig(c.predictions.mean_time_rel_error * 100.0, 3),
        obs::fmt_sig(c.predictions.max_time_rel_error * 100.0, 3),
        obs::fmt_sig(c.predictions.mean_size_rel_error * 100.0, 3)
    ));
    out.push_str(&format!("  counters ({})\n", c.counters.len()));
    for k in &c.counters {
        out.push_str(&format!("    {:<36} {}\n", k.name, k.value));
    }
    out
}

// ───────────────────────── model-health monitor ─────────────────────────

/// Reads the SLO spec from `--slo FILE`, or falls back to the defaults.
fn slo_spec(args: &Args) -> Result<SloSpec, String> {
    match args.value("--slo") {
        Some(path) => {
            let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            SloSpec::from_json(&raw).map_err(|e| format!("{path}: {e}"))
        }
        None => Ok(SloSpec::default()),
    }
}

fn verdict_exit(v: &Verdict) -> ExitCode {
    if v.level() == 2 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_health(args: &Args) -> Result<ExitCode, String> {
    let name = args
        .positional(0, "health needs a workload name")?
        .to_ascii_uppercase();
    let format = args.value("--format").unwrap_or("tree");
    if !matches!(format, "tree" | "json" | "prom") {
        return Err(format!(
            "unknown --format `{format}` (expected tree, json, or prom)"
        ));
    }
    let slo = slo_spec(args)?;
    let since = args.value("--since");
    let limit = match args.value("--limit") {
        Some(v) => parse_num(v, "--limit")?,
        None => 0usize,
    };
    let store = ledger_store(args);
    let report = Watchtower::new(slo).fold_ledger(&store, &name, since, limit)?;
    if report.window.is_empty() {
        return Err(format!(
            "no runs recorded for {name} in {} (try `juggler runs record {name}`)",
            store.root().display()
        ));
    }
    match format {
        "json" => print!("{}", report.to_json()),
        "prom" => {
            let registry = obs::Registry::new();
            report.register_metrics(&registry);
            print!("{}", registry.snapshot(false).to_prometheus());
        }
        _ => print!("{}", report.render_tree()),
    }
    Ok(verdict_exit(&report.verdict))
}

fn cmd_watch(args: &Args) -> Result<ExitCode, String> {
    let slo = slo_spec(args)?;
    let store = ledger_store(args);
    let mut by_workload: std::collections::BTreeMap<String, Vec<RunSample>> = Default::default();
    for sample in ledger_samples(&store)? {
        by_workload
            .entry(sample.workload.clone())
            .or_default()
            .push(sample);
    }
    if by_workload.is_empty() {
        println!("no runs recorded in {}", store.root().display());
        return Ok(ExitCode::SUCCESS);
    }
    let mut worst = Verdict::Healthy;
    println!("{:<8} {:>5}  verdict", "name", "runs");
    for (name, mut samples) in by_workload {
        samples.reverse();
        let report = Watchtower::new(slo.clone()).fold_samples(&samples, &[]);
        println!(
            "{:<8} {:>5}  {}",
            name,
            samples.len(),
            report.verdict.detail()
        );
        worst = worst.worst(report.verdict.clone());
    }
    Ok(verdict_exit(&worst))
}

// ───────────────────────── perf-regression gate ─────────────────────────

/// Bench artifact name (`overhead`) from a `BENCH_*.json` file
/// name, if it is one.
fn bench_name(file_name: &str) -> Option<&str> {
    file_name.strip_prefix("BENCH_")?.strip_suffix(".json")
}

fn cmd_perf_report(args: &Args) -> Result<ExitCode, String> {
    let results = args.dir("--results", "results");
    let baselines = args
        .value("--baselines")
        .map_or_else(|| results.join("baselines"), PathBuf::from);

    if args.given("--write-baselines") {
        return done(write_baselines(&results, &baselines));
    }

    let mut specs = Vec::new();
    let entries = std::fs::read_dir(&baselines)
        .map_err(|e| format!("reading baselines {}: {e}", baselines.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let raw = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let spec: obs::BaselineSpec = serde_json::from_str(&raw)
            .map_err(|e| format!("{}: baseline spec: {e}", path.display()))?;
        specs.push(spec);
    }
    specs.sort_by(|a, b| a.source.cmp(&b.source));
    if specs.is_empty() {
        return Err(format!(
            "no baseline specs in {} (run scripts/refresh_baselines.sh)",
            baselines.display()
        ));
    }

    let mut report = obs::PerfReport::default();
    // When a throughput (Min) check trips and both the frozen baseline
    // and the fresh artifact embed a phase profile, name the phases that
    // slowed down — the "what regressed" half of the red report.
    let mut attributions: Vec<(String, Vec<String>)> = Vec::new();
    for spec in &specs {
        let fresh_path = results.join(&spec.source);
        let bench = match std::fs::read_to_string(&fresh_path) {
            Ok(raw) => {
                let fresh: serde_json::Value = serde_json::from_str(&raw)
                    .map_err(|e| format!("{}: {e}", fresh_path.display()))?;
                let bench = spec.evaluate(&fresh);
                if let Some(lines) = obs::regression_attribution(spec, &fresh, &bench, 3) {
                    attributions.push((spec.source.clone(), lines));
                }
                bench
            }
            Err(e) => obs::BenchReport {
                source: spec.source.clone(),
                outcomes: vec![obs::CheckOutcome {
                    path: "(artifact)".to_owned(),
                    detail: format!("missing fresh artifact {}: {e}", fresh_path.display()),
                    pass: false,
                }],
            },
        };
        report.benches.push(bench);
    }
    print!("{}", report.render());
    for (source, lines) in &attributions {
        println!("{source}: slowest regressed phases (baseline -> fresh)");
        for line in lines {
            println!("  {line}");
        }
    }
    Ok(if report.has_regressions() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Regenerates every baseline spec from the current `BENCH_*.json`
/// artifacts (the implementation behind `scripts/refresh_baselines.sh`).
fn write_baselines(results: &Path, baselines: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(results)
        .map_err(|e| format!("reading results {}: {e}", results.display()))?;
    let mut wrote = 0usize;
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if bench_name(file_name).is_some() {
            names.push(file_name.to_owned());
        }
    }
    names.sort();
    std::fs::create_dir_all(baselines)
        .map_err(|e| format!("creating {}: {e}", baselines.display()))?;
    for file_name in &names {
        let name = bench_name(file_name).expect("filtered above");
        let Some(checks) = obs::default_checks(name) else {
            obs::log_warn!("skipping {file_name}: no gate policy for `{name}`");
            continue;
        };
        let raw = std::fs::read_to_string(results.join(file_name))
            .map_err(|e| format!("reading {file_name}: {e}"))?;
        let doc: serde_json::Value =
            serde_json::from_str(&raw).map_err(|e| format!("{file_name}: {e}"))?;
        let spec = obs::BaselineSpec::new(file_name, checks, doc);
        let out = baselines.join(file_name);
        let text = serde_json::to_string_pretty(&spec).expect("a spec always serializes");
        std::fs::write(&out, text + "\n").map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!("baseline {} ({} checks)", out.display(), spec.checks.len());
        wrote += 1;
    }
    if wrote == 0 {
        return Err(format!(
            "no gateable BENCH_*.json artifacts found in {}",
            results.display()
        ));
    }
    Ok(())
}
