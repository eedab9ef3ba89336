//! Structured run tracing: span + counter events recorded into a bounded
//! ring buffer during a simulated run, with Chrome `trace_event` and JSONL
//! exporters.
//!
//! The layer exists because aggregate [`crate::RunReport`] numbers cannot
//! answer *which* task, wave or eviction made a run diverge from the
//! paper's figures. With tracing enabled the engine emits
//!
//! * **span events** — one per job, stage, wave and task, with integer
//!   microsecond timestamps;
//! * **counter snapshots** — cumulative cache hits/misses, evictions,
//!   insert failures, unpersists, spills and locality fallbacks, taken at
//!   every stage boundary;
//!
//! into a fixed-capacity ring buffer (oldest events drop first; the drop
//! count is reported). When disabled, recording is a single branch per
//! call site — no allocation, no event construction.
//!
//! **Determinism contract:** timestamps are produced by the deterministic
//! simulator clock and quantized to integer microseconds, so for a fixed
//! `(application, cluster, SimParams::seed)` the event stream — and both
//! serialized exports — are bit-identical on every run, at any worker
//! thread count of the surrounding experiment harness.

use std::fmt::Write as _;

use serde::{Deserialize, JsonWriter, Serialize};

/// Ring-buffer capacity of a recorded trace, events: enough for every
/// event of a training-sized run, and a bound on a long run's memory.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Number of log2 buckets in the task-duration histogram.
const HIST_BUCKETS: usize = 32;

/// Trace knob carried by [`crate::RunOptions`]: whether to record. The
/// ring buffer holds [`DEFAULT_TRACE_CAPACITY`] events; once full, the
/// oldest events are dropped (and counted in [`RunTrace::dropped_events`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Record structured trace events for this run.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing on.
    #[must_use]
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
    }
}

/// Converts simulator seconds to integer trace microseconds. Quantizing
/// keeps every export byte-stable: no float formatting is involved.
#[must_use]
pub fn to_micros(seconds: f64) -> u64 {
    if seconds <= 0.0 {
        return 0;
    }
    (seconds * 1e6).round() as u64
}

/// Cumulative run counters, snapshotted at stage boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCounters {
    /// Cache reads that found the block resident.
    pub cache_hits: u64,
    /// Cache reads that missed (forcing recomputation).
    pub cache_misses: u64,
    /// Blocks evicted under memory pressure.
    pub evictions: u64,
    /// Cache inserts rejected for lack of memory.
    pub insert_failures: u64,
    /// Blocks dropped by unpersist/swap.
    pub unpersisted: u64,
    /// Tasks that could not claim execution memory and spilled.
    pub spills: u64,
    /// Tasks that gave up on their cache-local machine and ran elsewhere.
    pub locality_fallbacks: u64,
    /// Task attempts that failed from an injected fault and were retried.
    pub task_retries: u64,
    /// Speculative straggler copies launched.
    pub speculative_tasks: u64,
    /// Machines blacklisted after repeated task failures.
    pub blacklisted_machines: u64,
}

/// One structured trace event. Timestamps are integer microseconds of
/// simulated time (see [`to_micros`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// One job, start to finish (driver tail included).
    JobSpan {
        /// Job index.
        job: u32,
        /// Span start, µs.
        start_us: u64,
        /// Span end, µs.
        end_us: u64,
    },
    /// One executed stage.
    StageSpan {
        /// Containing job.
        job: u32,
        /// Stage id within the job.
        stage: u32,
        /// Span start, µs.
        start_us: u64,
        /// Span end, µs.
        end_us: u64,
        /// Tasks the stage ran.
        tasks: u32,
    },
    /// One wave of a stage: the tasks dispatched onto the `wave`-th round
    /// of cluster slots (`⌈tasks / total_cores⌉` waves per stage, §3.3).
    WaveSpan {
        /// Containing job.
        job: u32,
        /// Containing stage.
        stage: u32,
        /// Wave index within the stage.
        wave: u32,
        /// Earliest task start in the wave, µs.
        start_us: u64,
        /// Latest task finish in the wave, µs.
        end_us: u64,
        /// Tasks in the wave.
        tasks: u32,
    },
    /// One executed task.
    TaskSpan {
        /// Containing job.
        job: u32,
        /// Containing stage.
        stage: u32,
        /// Task index (= partition index of the stage output).
        task: u32,
        /// Machine the task ran on.
        machine: u32,
        /// Core lane on that machine.
        core: u32,
        /// Task start, µs.
        start_us: u64,
        /// Task end, µs.
        end_us: u64,
        /// The task could not claim its execution memory and spilled.
        spilled: bool,
        /// The task preferred a cache-local machine but ran elsewhere.
        locality_fallback: bool,
    },
    /// Cumulative counters at a stage boundary.
    CounterSnapshot {
        /// Snapshot time, µs.
        at_us: u64,
        /// Cumulative values since run start.
        counters: TraceCounters,
    },
}

/// Fixed-capacity event ring: pushes past capacity drop the oldest event
/// and bump the drop counter, so a trace of a long run keeps its tail
/// (the part that usually holds the divergence being debugged).
#[derive(Debug)]
pub struct TraceBuffer {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// An empty ring of `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            // Grow on demand (amortized O(1)) instead of pre-allocating the
            // full ring: short runs never pay for a capacity they don't use.
            events: std::collections::VecDeque::with_capacity(capacity.min(256)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest one when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the ring into a `Vec`, oldest first.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_iter().collect()
    }
}

/// Histogram of task durations in log2(µs) buckets: bucket `i` counts
/// durations in `[2^i, 2^(i+1))` µs (bucket 0 additionally holds sub-µs
/// tasks; the last bucket is open-ended).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurationHistogram {
    /// Bucket counts; index = `floor(log2(duration_us))`, clamped.
    pub buckets: Vec<u64>,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations, µs.
    pub total_us: u64,
    /// Largest recorded duration, µs.
    pub max_us: u64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }
}

impl DurationHistogram {
    /// Records one duration.
    pub fn record(&mut self, duration_us: u64) {
        self.buckets[obs::log2_bucket(duration_us).min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.total_us = self.total_us.saturating_add(duration_us);
        self.max_us = self.max_us.max(duration_us);
    }

    /// Mean recorded duration, µs.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// The structured trace of one run, attached to
/// [`crate::RunReport::trace`] when [`TraceConfig::enabled`] is set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Events in execution order (oldest first; the ring keeps the tail).
    pub events: Vec<TraceEvent>,
    /// Events lost to the ring-buffer capacity.
    pub dropped_events: u64,
    /// Final cumulative counters.
    pub counters: TraceCounters,
    /// Histogram of task durations.
    pub task_durations: DurationHistogram,
}

impl RunTrace {
    /// Number of events of each span kind `(jobs, stages, waves, tasks,
    /// counter snapshots)`.
    #[must_use]
    pub fn event_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for e in &self.events {
            match e {
                TraceEvent::JobSpan { .. } => c.0 += 1,
                TraceEvent::StageSpan { .. } => c.1 += 1,
                TraceEvent::WaveSpan { .. } => c.2 += 1,
                TraceEvent::TaskSpan { .. } => c.3 += 1,
                TraceEvent::CounterSnapshot { .. } => c.4 += 1,
            }
        }
        c
    }

    /// One-line human summary for report printing. Durations go through
    /// [`obs::fmt_duration_s`] like every other human-facing duration.
    #[must_use]
    pub fn summary(&self) -> String {
        let (jobs, stages, waves, tasks, snaps) = self.event_counts();
        format!(
            "trace: {} events ({jobs} jobs, {stages} stages, {waves} waves, {tasks} tasks, \
             {snaps} counter snapshots), {} dropped; cache {}/{} hit/miss, {} evictions, \
             {} spills, {} locality fallbacks; mean task {}",
            self.events.len(),
            self.dropped_events,
            self.counters.cache_hits,
            self.counters.cache_misses,
            self.counters.evictions,
            self.counters.spills,
            self.counters.locality_fallbacks,
            obs::fmt_duration_s(self.task_durations.mean_us() / 1e6),
        )
    }

    /// Exports the trace in Chrome `trace_event` JSON (the array-of-events
    /// object form), loadable in `chrome://tracing` and Perfetto.
    ///
    /// Layout: pid 0 is the driver (job/stage/wave spans on tid 0/1/2);
    /// each machine `m` is pid `m + 1` with one tid per core. All numbers
    /// are integers, so the output is byte-stable across runs.
    #[must_use]
    pub fn to_chrome_json(&self, run_name: &str) -> String {
        serde::to_json(
            &ChromeTrace {
                trace: self,
                run_name,
            },
            false,
        )
    }

    /// Exports the trace in collapsed-stack format (`job;stage;machine
    /// weight` lines, weights in simulated microseconds of task time) —
    /// loadable by inferno and speedscope. Routed through
    /// [`obs::prof::fold_stacks`], the same folder the phase profiler's
    /// flamegraph export uses, so both artifact families are produced by
    /// one exporter. Timestamps come from the deterministic simulator
    /// clock, so the output is byte-stable for a fixed seed.
    #[must_use]
    pub fn to_collapsed(&self) -> String {
        obs::prof::fold_stacks(self.events.iter().filter_map(|e| match *e {
            TraceEvent::TaskSpan {
                job,
                stage,
                machine,
                start_us,
                end_us,
                ..
            } => Some((
                vec![
                    format!("job {job}"),
                    format!("stage {job}.{stage}"),
                    format!("machine {machine}"),
                ],
                end_us.saturating_sub(start_us),
            )),
            _ => None,
        }))
    }

    /// Exports the trace as JSONL: one serde-serialized event per line,
    /// preceded by no header — grep/jq-friendly.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for e in &self.events {
            // The vendored serde stub never fails on these shapes.
            if let Ok(line) = serde_json::to_string(e) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

/// The document [`RunTrace::to_chrome_json`] prints.
struct ChromeTrace<'a> {
    trace: &'a RunTrace,
    run_name: &'a str,
}

impl Serialize for ChromeTrace<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        // Event names are formatted into one reused buffer.
        let mut name = String::new();
        w.open('{');
        w.field("displayTimeUnit", "ms");
        w.key("traceEvents");
        w.open('[');
        let _ = write!(name, "driver ({})", self.run_name);
        process_name(w, 0, &name);
        // Name the machine processes that actually appear.
        let machines = self.trace.events.iter().filter_map(|e| match e {
            TraceEvent::TaskSpan { machine, .. } => Some(*machine),
            _ => None,
        });
        if let Some(max_machine) = machines.max() {
            for m in 0..=max_machine {
                name.clear();
                let _ = write!(name, "machine {m}");
                process_name(w, m + 1, &name);
            }
        }
        for e in &self.trace.events {
            name.clear();
            match *e {
                TraceEvent::JobSpan {
                    job,
                    start_us,
                    end_us,
                } => {
                    let _ = write!(name, "job {job}");
                    span(w, &name, "job", (0, 0), (start_us, end_us));
                    w.close('}');
                }
                TraceEvent::StageSpan {
                    job,
                    stage,
                    start_us,
                    end_us,
                    tasks,
                } => {
                    let _ = write!(name, "stage {job}.{stage}");
                    span(w, &name, "stage", (0, 1), (start_us, end_us));
                    args(w, &[("tasks", tasks)]);
                }
                TraceEvent::WaveSpan {
                    job,
                    stage,
                    wave,
                    start_us,
                    end_us,
                    tasks,
                } => {
                    let _ = write!(name, "wave {job}.{stage}.{wave}");
                    span(w, &name, "wave", (0, 2), (start_us, end_us));
                    args(w, &[("tasks", tasks)]);
                }
                TraceEvent::TaskSpan {
                    job,
                    stage,
                    task,
                    machine,
                    core,
                    start_us,
                    end_us,
                    spilled,
                    locality_fallback,
                } => {
                    let _ = write!(name, "task {job}.{stage}.{task}");
                    span(w, &name, "task", (machine + 1, core), (start_us, end_us));
                    args(
                        w,
                        &[
                            ("spilled", spilled),
                            ("locality_fallback", locality_fallback),
                        ],
                    );
                }
                TraceEvent::CounterSnapshot { at_us, counters: c } => {
                    let series: [(&str, &[(&str, u64)]); 3] = [
                        (
                            "cache",
                            &[("hits", c.cache_hits), ("misses", c.cache_misses)],
                        ),
                        (
                            "memory",
                            &[
                                ("evictions", c.evictions),
                                ("insert_failures", c.insert_failures),
                                ("unpersisted", c.unpersisted),
                            ],
                        ),
                        (
                            "tasks",
                            &[
                                ("spills", c.spills),
                                ("locality_fallbacks", c.locality_fallbacks),
                            ],
                        ),
                    ];
                    for (series, values) in series {
                        open_event(w, "C", series, None, (0, 0));
                        w.field("ts", &at_us);
                        args(w, values);
                    }
                }
            }
        }
        w.close(']');
        w.close('}');
    }
}

/// Starts one Chrome event: its phase, name, then `cat` (spans only),
/// `pid` and `tid`. The caller writes the rest and closes it.
fn open_event(w: &mut JsonWriter, ph: &str, name: &str, cat: Option<&str>, (pid, tid): (u32, u32)) {
    w.elem();
    w.open('{');
    w.field("ph", ph);
    w.field("name", name);
    if let Some(cat) = cat {
        w.field("cat", cat);
    }
    w.field("pid", &pid);
    w.field("tid", &tid);
}

/// A metadata event naming process `pid`.
fn process_name(w: &mut JsonWriter, pid: u32, name: &str) {
    open_event(w, "M", "process_name", None, (pid, 0));
    args(w, &[("name", name)]);
}

/// A complete (`X`) span event, left open for its `args`.
fn span(
    w: &mut JsonWriter,
    name: &str,
    cat: &str,
    ids: (u32, u32),
    (start_us, end_us): (u64, u64),
) {
    open_event(w, "X", name, Some(cat), ids);
    w.field("ts", &start_us);
    w.field("dur", &end_us.saturating_sub(start_us));
}

/// Writes an event's `args` object and closes the event.
fn args<T: Serialize>(w: &mut JsonWriter, values: &[(&str, T)]) {
    w.key("args");
    w.open('{');
    for (key, value) in values {
        w.field(key, value);
    }
    w.close('}');
    w.close('}');
}

/// Per-run recorder owned by the engine. All recording methods are no-ops
/// when the config has tracing disabled — a single branch, no allocation.
#[derive(Debug)]
pub struct TraceRecorder {
    buf: Option<TraceBuffer>,
    hist: DurationHistogram,
}

impl TraceRecorder {
    /// A recorder honouring `config`.
    #[must_use]
    pub fn new(config: TraceConfig) -> Self {
        TraceRecorder {
            buf: config
                .enabled
                .then(|| TraceBuffer::new(DEFAULT_TRACE_CAPACITY)),
            hist: DurationHistogram::default(),
        }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Records a job span.
    #[inline]
    pub fn job_span(&mut self, job: u32, start_s: f64, end_s: f64) {
        if let Some(buf) = &mut self.buf {
            buf.push(TraceEvent::JobSpan {
                job,
                start_us: to_micros(start_s),
                end_us: to_micros(end_s),
            });
        }
    }

    /// Records a stage span.
    #[inline]
    pub fn stage_span(&mut self, job: u32, stage: u32, start_s: f64, end_s: f64, tasks: u32) {
        if let Some(buf) = &mut self.buf {
            buf.push(TraceEvent::StageSpan {
                job,
                stage,
                start_us: to_micros(start_s),
                end_us: to_micros(end_s),
                tasks,
            });
        }
    }

    /// Records a wave span.
    #[inline]
    pub fn wave_span(
        &mut self,
        job: u32,
        stage: u32,
        wave: u32,
        start_s: f64,
        end_s: f64,
        tasks: u32,
    ) {
        if let Some(buf) = &mut self.buf {
            buf.push(TraceEvent::WaveSpan {
                job,
                stage,
                wave,
                start_us: to_micros(start_s),
                end_us: to_micros(end_s),
                tasks,
            });
        }
    }

    /// Records a task span and its duration histogram sample.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn task_span(
        &mut self,
        job: u32,
        stage: u32,
        task: u32,
        machine: u32,
        core: u32,
        start_s: f64,
        end_s: f64,
        spilled: bool,
        locality_fallback: bool,
    ) {
        if let Some(buf) = &mut self.buf {
            let start_us = to_micros(start_s);
            let end_us = to_micros(end_s);
            self.hist.record(end_us.saturating_sub(start_us));
            buf.push(TraceEvent::TaskSpan {
                job,
                stage,
                task,
                machine,
                core,
                start_us,
                end_us,
                spilled,
                locality_fallback,
            });
        }
    }

    /// Records a cumulative-counter snapshot.
    #[inline]
    pub fn counter_snapshot(&mut self, at_s: f64, counters: TraceCounters) {
        if let Some(buf) = &mut self.buf {
            buf.push(TraceEvent::CounterSnapshot {
                at_us: to_micros(at_s),
                counters,
            });
        }
    }

    /// Finalizes the trace; `None` when recording was disabled.
    #[must_use]
    pub fn finish(self, final_counters: TraceCounters) -> Option<RunTrace> {
        let buf = self.buf?;
        let dropped = buf.dropped();
        Some(RunTrace {
            events: buf.into_events(),
            dropped_events: dropped,
            counters: final_counters,
            task_durations: self.hist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(job: u32, task: u32, start_us: u64, end_us: u64) -> TraceEvent {
        TraceEvent::TaskSpan {
            job,
            stage: 0,
            task,
            machine: 0,
            core: 0,
            start_us,
            end_us,
            spilled: false,
            locality_fallback: false,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut buf = TraceBuffer::new(3);
        for i in 0..5 {
            buf.push(task(0, i, u64::from(i), u64::from(i) + 1));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        let events = buf.into_events();
        // Oldest two (tasks 0, 1) were dropped; the tail survives.
        match events[0] {
            TraceEvent::TaskSpan { task, .. } => assert_eq!(task, 2),
            ref e => panic!("unexpected {e:?}"),
        }
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn disabled_recorder_produces_nothing() {
        let mut r = TraceRecorder::new(TraceConfig::default());
        assert!(!r.enabled());
        r.job_span(0, 0.0, 1.0);
        r.task_span(0, 0, 0, 0, 0, 0.0, 1.0, false, false);
        r.counter_snapshot(1.0, TraceCounters::default());
        assert!(r.finish(TraceCounters::default()).is_none());
    }

    #[test]
    fn micros_quantization_is_monotone_and_clamped() {
        assert_eq!(to_micros(-1.0), 0);
        assert_eq!(to_micros(0.0), 0);
        assert_eq!(to_micros(1.0), 1_000_000);
        assert_eq!(to_micros(0.0000015), 2); // rounds
        assert!(to_micros(2.0) > to_micros(1.999_999));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = DurationHistogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(1024); // bucket 10
        h.record(u64::MAX); // clamped to last bucket
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[31], 1);
        assert_eq!(h.count, 5);
        assert_eq!(h.max_us, u64::MAX);
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_shape() {
        let mut r = TraceRecorder::new(TraceConfig::enabled());
        r.task_span(0, 0, 0, 1, 2, 0.0, 0.5, true, false);
        r.wave_span(0, 0, 0, 0.0, 0.5, 1);
        r.stage_span(0, 0, 0.0, 0.5, 1);
        r.counter_snapshot(
            0.5,
            TraceCounters {
                cache_hits: 3,
                ..Default::default()
            },
        );
        r.job_span(0, 0.0, 0.6);
        let trace = r
            .finish(TraceCounters {
                cache_hits: 3,
                ..Default::default()
            })
            .unwrap();
        let json = trace.to_chrome_json("unit \"test\"");
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .expect("traceEvents key")
            .expect_array("traceEvents")
            .expect("traceEvents array");
        // 1 driver metadata + 2 machine metadata (pids 1, 2) + 5 recorded
        // events, of which the counter snapshot expands to 3 "C" events.
        assert_eq!(events.len(), 3 + 4 + 3);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\\\"test\\\""), "run name escaped");
        let json = trace.to_chrome_json("tab\there");
        assert!(json.contains("\"driver (tab\\there)\""), "{json}");
    }

    #[test]
    fn jsonl_round_trips_events() {
        let mut r = TraceRecorder::new(TraceConfig::enabled());
        r.task_span(1, 2, 3, 0, 1, 0.1, 0.2, false, true);
        r.counter_snapshot(0.2, TraceCounters::default());
        let trace = r.finish(TraceCounters::default()).unwrap();
        let jsonl = trace.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, original) in lines.iter().zip(&trace.events) {
            let back: TraceEvent = serde_json::from_str(line).expect("parses back");
            assert_eq!(&back, original);
        }
    }

    #[test]
    fn collapsed_export_folds_task_spans() {
        let mut r = TraceRecorder::new(TraceConfig::enabled());
        // Two tasks of the same stage on machine 0 fold into one line.
        r.task_span(0, 0, 0, 0, 0, 0.0, 0.001, false, false);
        r.task_span(0, 0, 1, 0, 1, 0.0, 0.002, false, false);
        r.task_span(1, 0, 0, 1, 0, 0.0, 0.004, false, false);
        r.job_span(0, 0.0, 0.002); // non-task events are ignored
        let trace = r.finish(TraceCounters::default()).unwrap();
        let collapsed = trace.to_collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(
            lines,
            vec![
                "job 0;stage 0.0;machine 0 3000",
                "job 1;stage 1.0;machine 1 4000",
            ]
        );
    }

    #[test]
    fn summary_mentions_counts() {
        let mut r = TraceRecorder::new(TraceConfig::enabled());
        r.task_span(0, 0, 0, 0, 0, 0.0, 1.0, false, false);
        let trace = r
            .finish(TraceCounters {
                spills: 7,
                ..Default::default()
            })
            .unwrap();
        let s = trace.summary();
        assert!(s.contains("1 tasks"), "{s}");
        assert!(s.contains("7 spills"), "{s}");
    }
}
