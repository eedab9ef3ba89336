//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span (name,
//! start, end, parent, op). Spans stay in memory and are written out when
//! the run ends. A span whose name contains a `.` (`cluster_sim.run`,
//! `obs.sha256`) belongs to a layer; dot-free names (`op`,
//! `stage2_calibration`) only give the tree its structure. A disabled
//! tracer runs the wrapped closures and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (`None` for set-up work).
    pub op: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn is_layer(&self) -> bool {
        self.name.contains('.')
    }
}

/// Span and count recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: Option<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::with(true)
    }

    /// A tracer that records nothing: the untraced path.
    pub fn off() -> Self {
        Self::with(false)
    }

    fn with(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; close it with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span [`Self::enter`] opened, and any span an early
    /// return left open inside it (those keep zero length).
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
                self.stack.truncate(pos);
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Starts op `op` (or set-up work when `None`): later spans carry its
    /// index, and spans a failed op left open are dropped from the stack.
    pub fn set_op(&mut self, op: Option<usize>) {
        self.op = op;
        self.stack.clear();
    }

    /// Adds `delta` to a work count (runs, tasks, bytes).
    pub fn count(&mut self, name: &'static str, delta: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += delta;
        }
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Milliseconds in spans named `name` per op: op spans are divided
    /// by `ops`, set-up spans count once.
    pub fn per_op_ms(&self, name: &str, ops: f64) -> f64 {
        let (op_ns, setup_ns) = self.split(name, Span::ns);
        (op_ns as f64 / ops + setup_ns as f64) / 1e6
    }

    /// Spans named `name` per op, counted like [`Self::per_op_ms`].
    pub fn per_op_calls(&self, name: &str, ops: f64) -> f64 {
        let (op_calls, setup_calls) = self.split(name, |_| 1);
        op_calls as f64 / ops + setup_calls as f64
    }

    fn split(&self, name: &str, weight: impl Fn(&Span) -> u64) -> (u64, u64) {
        let (mut in_ops, mut in_setup) = (0, 0);
        for s in self.spans.iter().filter(|s| s.name == name) {
            match s.op {
                Some(_) => in_ops += weight(s),
                None => in_setup += weight(s),
            }
        }
        (in_ops, in_setup)
    }

    /// Milliseconds of `op` spans not covered by a layer span: op time
    /// minus every layer span whose nearest layer-or-op ancestor is an op.
    pub fn unattributed_ms(&self) -> f64 {
        let mut op_ns = 0u64;
        let mut layer_ns = 0u64;
        for s in &self.spans {
            if s.name == "op" {
                op_ns += s.ns();
            } else if s.is_layer() {
                let mut parent = s.parent;
                while let Some(p) = parent {
                    let ancestor = &self.spans[p];
                    if ancestor.is_layer() {
                        break;
                    }
                    if ancestor.name == "op" {
                        layer_ns += s.ns();
                        break;
                    }
                    parent = ancestor.parent;
                }
            }
        }
        (op_ns as f64 - layer_ns as f64) / 1e6
    }
}
