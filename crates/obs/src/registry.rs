//! The metrics registry: named counters, gauges and log2 histograms with
//! atomic recording, plus deterministic Prometheus/JSON exporters.
//!
//! Run scope: a registry belongs to the run that records into it. The run
//! creates an `Arc<Registry>` and installs it on its thread with
//! [`Registry::install`]; instrumented code asks [`Registry::current`]
//! and records only when a registry is in scope. Worker threads reach the
//! caller's registry through [`crate::prof::fork`] and
//! [`crate::prof::ForkCtx::attach`]. There is no process-wide registry and
//! no on/off switch: with nothing installed a call site pays one
//! thread-local read and one branch, and concurrent runs in one process
//! never see each other's counters.
//!
//! Thread safety: handles are `Clone + Send + Sync`; recording uses
//! relaxed atomics (sums are order-independent), registration takes a
//! short mutex. Concurrent increments are exact — no sampling, no lost
//! updates.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of log2 buckets in a registry histogram; bucket `i` counts
/// values in `[2^i, 2^(i+1))` (bucket 0 additionally holds zero), which
/// covers the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// The kind of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-write-wins `f64`.
    Gauge,
    /// log2-bucketed `u64` distribution.
    Histogram,
}

impl MetricKind {
    /// Lowercase label used in exports (matches Prometheus `# TYPE`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCell {
    /// `f64` bit pattern; `0` encodes `+0.0`.
    bits: AtomicU64,
}

#[derive(Debug)]
struct HistogramCell {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// Handle to a registered counter. Cloning shares the underlying cell;
/// the default handle records nothing.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<CounterCell>>);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.value.load(Ordering::Relaxed))
    }
}

/// Handle to a registered gauge (last-write-wins `f64`); the default
/// handle records nothing.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCell>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |cell| {
            f64::from_bits(cell.bits.load(Ordering::Relaxed))
        })
    }
}

/// Handle to a registered log2 histogram; the default handle records
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.record(value);
        }
    }

    /// Number of recorded observations (0 for a no-op handle).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.count.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
enum Cell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

impl Cell {
    fn kind(&self) -> MetricKind {
        match self {
            Cell::Counter(_) => MetricKind::Counter,
            Cell::Gauge(_) => MetricKind::Gauge,
            Cell::Histogram(_) => MetricKind::Histogram,
        }
    }
}

#[derive(Debug)]
struct Entry {
    help: String,
    cell: Cell,
}

/// A thread-safe metrics registry, scoped to the run that records into
/// it (see the module docs). Every registry records.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Entry>>,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Keeps a registry installed on this thread; dropping it restores the
/// registry that was in scope before. See [`Registry::install`].
#[must_use = "the registry stays installed only until the guard drops"]
pub struct InstallGuard {
    prev: Option<Arc<Registry>>,
    /// Tied to the installing thread: the slot it restores is thread-local.
    _thread: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Makes this registry the one in scope on the calling thread until
    /// the guard drops. Installs nest: the guard restores the outer one.
    pub fn install(self: &Arc<Self>) -> InstallGuard {
        let prev = CURRENT.with(|c| c.replace(Some(Arc::clone(self))));
        InstallGuard {
            prev,
            _thread: PhantomData,
        }
    }

    /// The registry in scope on the calling thread, if any. Instrumented
    /// code records only when this returns one.
    #[must_use]
    pub fn current() -> Option<Arc<Registry>> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Registers (or looks up) a deterministic counter. Returns a no-op
    /// handle when `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.cell(name, help, MetricKind::Counter) {
            Some(Cell::Counter(c)) => Counter(Some(c)),
            _ => Counter::default(),
        }
    }

    /// Registers (or looks up) a gauge. Returns a no-op handle when
    /// `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.cell(name, help, MetricKind::Gauge) {
            Some(Cell::Gauge(g)) => Gauge(Some(g)),
            _ => Gauge::default(),
        }
    }

    /// Registers (or looks up) a deterministic log2 histogram. Returns a
    /// no-op handle when `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.cell(name, help, MetricKind::Histogram) {
            Some(Cell::Histogram(h)) => Histogram(Some(h)),
            _ => Histogram::default(),
        }
    }

    fn cell(&self, name: &str, help: &str, kind: MetricKind) -> Option<Cell> {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = metrics.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            cell: match kind {
                MetricKind::Counter => Cell::Counter(Arc::new(CounterCell::default())),
                MetricKind::Gauge => Cell::Gauge(Arc::new(GaugeCell::default())),
                MetricKind::Histogram => Cell::Histogram(Arc::new(HistogramCell::new())),
            },
        });
        if entry.cell.kind() != kind {
            debug_assert!(false, "metric {name} re-registered as a different kind");
            return None;
        }
        Some(match &entry.cell {
            Cell::Counter(c) => Cell::Counter(Arc::clone(c)),
            Cell::Gauge(g) => Cell::Gauge(Arc::clone(g)),
            Cell::Histogram(h) => Cell::Histogram(Arc::clone(h)),
        })
    }

    /// Takes a point-in-time snapshot, sorted by metric name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::with_capacity(metrics.len());
        for (name, entry) in metrics.iter() {
            let value = match &entry.cell {
                Cell::Counter(c) => MetricValue::Counter(c.value.load(Ordering::Relaxed)),
                Cell::Gauge(g) => {
                    MetricValue::Gauge(f64::from_bits(g.bits.load(Ordering::Relaxed)))
                }
                Cell::Histogram(h) => {
                    let buckets: Vec<u64> = h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect();
                    let trim = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                    MetricValue::Histogram {
                        buckets: buckets[..trim].to_vec(),
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        max: h.max.load(Ordering::Relaxed),
                    }
                }
            };
            out.push(Metric {
                name: name.clone(),
                help: entry.help.clone(),
                value,
            });
        }
        Snapshot { metrics: out }
    }
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Registered name (e.g. `sim_cache_hits_total`).
    pub name: String,
    /// Help text supplied at registration.
    pub help: String,
    /// The recorded value.
    pub value: MetricValue,
}

/// The log2 bucket of `value`: `floor(log2(value))`, with zero in bucket
/// 0 beside `[1, 2)`. Every log2 histogram in the workspace buckets by
/// this rule, so [`log2_quantile`] reads any of them.
#[must_use]
pub fn log2_bucket(value: u64) -> usize {
    value.checked_ilog2().map_or(0, |b| b as usize)
}

/// Deterministic quantile estimate over log2 histogram buckets: the
/// *upper bound* of the bucket holding the rank-`ceil(count·q_num/q_den)`
/// observation (1-based, integer arithmetic — no floats, so the result
/// is bit-identical everywhere). Bucket 0 holds `{0} ∪ [1, 2)` so its
/// upper bound is 1; bucket `i > 0` covers `[2^i, 2^(i+1))` with upper
/// bound `2^(i+1) − 1`, saturating to `u64::MAX` for bucket 63.
///
/// `None` when the histogram is empty or `q_num` is zero (an empty
/// distribution has no quantiles; callers decide the fallback).
#[must_use]
pub fn log2_quantile(buckets: &[u64], count: u64, q_num: u64, q_den: u64) -> Option<u64> {
    assert!(q_den > 0, "quantile denominator must be positive");
    assert!(q_num <= q_den, "quantile must be <= 1");
    if count == 0 || q_num == 0 {
        return None;
    }
    // ceil(count * q_num / q_den) in u128 so count near u64::MAX is safe.
    let rank = (u128::from(count) * u128::from(q_num)).div_ceil(u128::from(q_den));
    let mut cumulative = 0u128;
    for (i, &b) in buckets.iter().enumerate() {
        cumulative += u128::from(b);
        if cumulative >= rank {
            return Some(bucket_upper_bound(i));
        }
    }
    // `count` exceeds the bucket total (caller passed inconsistent data);
    // fall back to the highest non-empty bucket.
    buckets
        .iter()
        .rposition(|&b| b != 0)
        .map(bucket_upper_bound)
}

/// Largest value a log2 bucket can hold (see [`log2_quantile`]).
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// The value of one metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state; `buckets` is trimmed after the highest non-zero
    /// bucket (bucket `i` counts values in `[2^i, 2^(i+1))`).
    Histogram {
        /// Per-bucket counts, trimmed.
        buckets: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observed values (wrapping on overflow).
        sum: u64,
        /// Largest observed value.
        max: u64,
    },
}

impl MetricValue {
    /// Upper-bound quantile estimate for a histogram value (see
    /// [`log2_quantile`]); `None` for non-histograms and empty
    /// histograms.
    #[must_use]
    pub fn quantile_upper_bound(&self, q_num: u64, q_den: u64) -> Option<u64> {
        match self {
            MetricValue::Histogram { buckets, count, .. } => {
                log2_quantile(buckets, *count, q_num, q_den)
            }
            _ => None,
        }
    }
}

/// A point-in-time, name-sorted view of a [`Registry`]. Both exporters
/// produce byte-identical output for equal snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Metrics sorted by name.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// Looks up a metric by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Convenience: the value of a counter metric, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Histograms emit cumulative `_bucket{le="..."}` series with power-
    /// of-two upper bounds, then `_sum` and `_count`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(self.metrics.len() * 128);
        for m in &self.metrics {
            let _ = writeln!(out, "# HELP {} {}", m.name, escape_prom_help(&m.help));
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {} counter", m.name);
                    let _ = writeln!(out, "{} {v}", m.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {} gauge", m.name);
                    let _ = writeln!(out, "{} {}", m.name, fmt_prom_float(*v));
                }
                MetricValue::Histogram {
                    buckets,
                    count,
                    sum,
                    ..
                } => {
                    let _ = writeln!(out, "# TYPE {} histogram", m.name);
                    let mut cumulative = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        cumulative += b;
                        // Bucket i covers [2^i, 2^(i+1)); the upper bound is
                        // an exact integer (u128 so 2^64 cannot overflow).
                        let le = 1u128 << (i + 1);
                        let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cumulative}", m.name);
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {count}", m.name);
                    let _ = writeln!(out, "{}_sum {sum}", m.name);
                    let _ = writeln!(out, "{}_count {count}", m.name);
                }
            }
        }
        out
    }

    /// Renders the snapshot as JSON: `{"metrics": [...]}` with one object
    /// per metric. Gauges print as floats, non-finite ones as `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::to_json(self, false)
    }
}

impl serde::Serialize for Snapshot {
    fn write_json(&self, w: &mut serde::JsonWriter) {
        w.open('{');
        w.key("metrics");
        w.open('[');
        for m in &self.metrics {
            w.elem();
            w.open('{');
            w.field("name", m.name.as_str());
            let kind = match &m.value {
                MetricValue::Counter(_) => MetricKind::Counter,
                MetricValue::Gauge(_) => MetricKind::Gauge,
                MetricValue::Histogram { .. } => MetricKind::Histogram,
            };
            w.field("kind", kind.label());
            w.field("help", m.help.as_str());
            match &m.value {
                MetricValue::Counter(v) => w.field("value", v),
                MetricValue::Gauge(v) => w.field("value", v),
                MetricValue::Histogram {
                    buckets,
                    count,
                    sum,
                    max,
                } => {
                    w.field("count", count);
                    w.field("sum", sum);
                    w.field("max", max);
                    for (label, q_num) in [("p50", 50), ("p95", 95), ("p99", 99)] {
                        w.field(label, &log2_quantile(buckets, *count, q_num, 100));
                    }
                    w.field("buckets", buckets);
                }
            }
            w.close('}');
        }
        w.close(']');
        w.close('}');
    }
}

/// Prometheus sample values are floats; counter and histogram series here
/// are integers already, so this only formats gauges.
fn fmt_prom_float(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn escape_prom_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A call site as the instrumented crates write it.
    fn record_site() {
        if let Some(reg) = Registry::current() {
            reg.counter("site_total", "call-site records").inc();
        }
    }

    fn site_count(reg: &Registry) -> Option<u64> {
        reg.snapshot().counter("site_total")
    }

    #[test]
    fn nothing_records_without_a_registry_in_scope() {
        assert!(Registry::current().is_none());
        let reg = Arc::new(Registry::new());
        record_site();
        assert_eq!(site_count(&reg), None, "not installed, nothing registered");
        {
            let _scope = reg.install();
            record_site();
        }
        record_site();
        assert!(Registry::current().is_none(), "guard uninstalled it");
        assert_eq!(site_count(&reg), Some(1));
    }

    #[test]
    fn nested_install_restores_the_outer_registry() {
        let (outer, inner) = (Arc::new(Registry::new()), Arc::new(Registry::new()));
        let _outer = outer.install();
        record_site();
        {
            let _inner = inner.install();
            record_site();
            record_site();
        }
        record_site();
        assert_eq!(site_count(&outer), Some(2));
        assert_eq!(site_count(&inner), Some(2));
        let current = Registry::current().expect("outer still installed");
        assert!(Arc::ptr_eq(&current, &outer));
    }

    #[test]
    fn attached_fork_records_into_the_forking_threads_registry() {
        let reg = Arc::new(Registry::new());
        let other = Arc::new(Registry::new());
        let ctx = {
            let _scope = reg.install();
            crate::prof::fork()
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    record_site();
                    {
                        let _attached = ctx.attach();
                        record_site();
                    }
                    record_site();
                });
            }
            // A worker of an unrelated run keeps its own registry.
            s.spawn(|| {
                let _scope = other.install();
                record_site();
            });
        });
        assert_eq!(site_count(&reg), Some(4), "only attached records count");
        assert_eq!(site_count(&other), Some(1));
    }

    #[test]
    fn counters_accumulate_and_share_cells() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "a counter");
        let b = reg.counter("x_total", "a counter");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot().counter("x_total"), Some(4));
    }

    #[test]
    fn kind_conflict_yields_noop() {
        let reg = Registry::new();
        let _c = reg.counter("x", "first registration wins");
        // Release builds return a no-op handle; debug builds assert, so
        // only exercise the conflict path when debug_assertions are off.
        if !cfg!(debug_assertions) {
            let g = reg.gauge("x", "conflicting kind");
            g.set(1.0);
            assert_eq!(g.get(), 0.0);
        }
    }

    #[test]
    fn gauge_stores_f64() {
        let reg = Registry::new();
        let g = reg.gauge("ratio", "a gauge");
        g.set(0.375);
        assert_eq!(g.get(), 0.375);
    }

    #[test]
    fn histogram_buckets_by_log2_and_trims() {
        let reg = Registry::new();
        let h = reg.histogram("dur_us", "a histogram");
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(1024); // bucket 10
        let snap = reg.snapshot();
        match &snap.get("dur_us").expect("present").value {
            MetricValue::Histogram {
                buckets,
                count,
                sum,
                max,
            } => {
                assert_eq!(buckets.len(), 11, "trimmed after highest non-zero");
                assert_eq!(buckets[0], 2);
                assert_eq!(buckets[1], 1);
                assert_eq!(buckets[10], 1);
                assert_eq!(*count, 4);
                assert_eq!(*sum, 1027);
                assert_eq!(*max, 1024);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_sorts_and_filters_timings() {
        let reg = Registry::new();
        reg.gauge("z_seconds", "a gauge").set(1.25);
        reg.counter("a_total", "a counter").inc();
        let full = reg.snapshot();
        let names: Vec<&str> = full.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a_total", "z_seconds"], "name-sorted");
    }

    #[test]
    fn prometheus_export_shape() {
        let reg = Registry::new();
        reg.counter("hits_total", "cache hits").add(7);
        reg.gauge("err_ratio", "relative error").set(0.5);
        let h = reg.histogram("dur_us", "durations");
        h.record(1);
        h.record(3);
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("# HELP hits_total cache hits\n"), "{prom}");
        assert!(prom.contains("# TYPE hits_total counter\nhits_total 7\n"));
        assert!(prom.contains("# TYPE err_ratio gauge\nerr_ratio 0.5\n"));
        assert!(prom.contains("dur_us_bucket{le=\"2\"} 1\n"));
        assert!(prom.contains("dur_us_bucket{le=\"4\"} 2\n"), "cumulative");
        assert!(prom.contains("dur_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(prom.contains("dur_us_sum 4\n"));
        assert!(prom.contains("dur_us_count 2\n"));
    }

    #[test]
    fn json_export_shape() {
        let reg = Registry::new();
        reg.counter("hits_total", "cache \"hits\"").add(7);
        reg.gauge("bad", "non-finite").set(f64::NAN);
        reg.gauge("whole", "integral").set(2.0);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"metrics\":["), "{json}");
        assert!(json.contains("\"name\":\"hits_total\""));
        assert!(json.contains("\"help\":\"cache \\\"hits\\\"\""), "{json}");
        assert!(json.contains("\"value\":7"));
        assert!(json.contains("\"value\":null"), "NaN gauge → null");
        assert!(
            json.contains("\"value\":2.0"),
            "gauges print as floats: {json}"
        );
        assert!(!json.contains("\"class\""), "no class key: {json}");
    }

    #[test]
    fn equal_snapshots_export_identically() {
        let build = || {
            let reg = Registry::new();
            reg.counter("a_total", "a").add(2);
            reg.histogram("h_us", "h").record(9);
            reg.snapshot()
        };
        let (s1, s2) = (build(), build());
        assert_eq!(s1.to_prometheus(), s2.to_prometheus());
        assert_eq!(s1.to_json(), s2.to_json());
    }

    #[test]
    fn log2_quantile_edge_cases_are_pinned() {
        // Empty histogram: no quantiles.
        assert_eq!(log2_quantile(&[], 0, 95, 100), None);
        assert_eq!(log2_quantile(&[0, 0], 0, 50, 100), None);
        // q = 0 never selects a rank.
        assert_eq!(log2_quantile(&[5], 5, 0, 100), None);
        // Single observation: every quantile is that bucket's bound.
        assert_eq!(log2_quantile(&[1], 1, 50, 100), Some(1));
        assert_eq!(log2_quantile(&[1], 1, 99, 100), Some(1));
        // Bucket 0 holds zero AND one → upper bound 1.
        assert_eq!(log2_quantile(&[4], 4, 100, 100), Some(1));
        // Bucket i > 0 → 2^(i+1) − 1: 10 values in bucket 3 ([8, 16)).
        let mut b = vec![0u64; 4];
        b[3] = 10;
        assert_eq!(log2_quantile(&b, 10, 50, 100), Some(15));
        // Rank arithmetic: 100 values in bucket 0, 1 straggler in bucket
        // 10 — p99 rounds up to rank 100 (still bucket 0), p100 reaches
        // the straggler.
        let mut b = vec![0u64; 11];
        b[0] = 100;
        b[10] = 1;
        assert_eq!(log2_quantile(&b, 101, 99, 100), Some(1));
        assert_eq!(log2_quantile(&b, 101, 100, 100), Some(2047));
        // Bucket 63 saturates to u64::MAX.
        let mut b = vec![0u64; HIST_BUCKETS];
        b[63] = 1;
        assert_eq!(log2_quantile(&b, 1, 50, 100), Some(u64::MAX));
        // Inconsistent count (larger than bucket total) falls back to the
        // highest non-empty bucket instead of panicking.
        assert_eq!(log2_quantile(&[2], 10, 99, 100), Some(1));
    }

    #[test]
    fn quantiles_flow_through_snapshot_and_json_export() {
        let reg = Registry::new();
        let h = reg.histogram("err_micro", "relative error in micro-units");
        for _ in 0..98 {
            h.record(80_000); // bucket 16 ([65536, 131072))
        }
        h.record(700_000); // bucket 19
        h.record(900_000); // bucket 19
        let snap = reg.snapshot();
        let value = &snap.get("err_micro").expect("present").value;
        assert_eq!(value.quantile_upper_bound(50, 100), Some(131_071));
        assert_eq!(value.quantile_upper_bound(95, 100), Some(131_071));
        assert_eq!(value.quantile_upper_bound(99, 100), Some(1_048_575));
        let json = snap.to_json();
        assert!(
            json.contains("\"p50\":131071,\"p95\":131071,\"p99\":1048575"),
            "{json}"
        );
        // Empty histograms export null quantiles.
        let reg = Registry::new();
        let _ = reg.histogram("empty_micro", "no samples");
        let json = reg.snapshot().to_json();
        assert!(
            json.contains("\"p50\":null,\"p95\":null,\"p99\":null"),
            "{json}"
        );
    }
}
