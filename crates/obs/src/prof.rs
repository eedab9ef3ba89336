//! Deterministic hierarchical phase profiler.
//!
//! Call sites open scoped spans (`prof::scope("stage4/grid")`); each span
//! pushes path segments onto a per-thread stack and, on drop, charges its
//! elapsed wall time to the innermost node. Thread-local trees merge into
//! one global call tree whenever a thread's stack empties, so the profile
//! survives scoped worker pools. The merged tree carries, per node:
//!
//! * **calls** — how many spans ended at this node;
//! * **total time** — wall time measured at this node (or the sum of its
//!   children for pure intermediate nodes). A node's total is the larger
//!   of its own measurement and its children's sum, so parallel fan-outs
//!   report aggregate worker time rather than clamping at the fan-out's
//!   wall clock;
//! * **self time** — total minus children, the basis for flamegraphs;
//! * **counter deltas** — work counts ([`count`]) attributed to the
//!   innermost active scope (cache hits, NNLS iterations, retries).
//!
//! With the profiler disabled every entry point is a no-op behind one
//! atomic load.
//! Enabled, the tree *structure* — node names, call counts, and counter
//! values — is a pure function of the work performed and therefore
//! bit-identical at any `JUGGLER_THREADS` count, provided fan-out sites
//! propagate their phase context to workers with [`fork`]/[`ForkCtx::attach`].
//! Timings are host wall-clock and excluded from [`Profile::structure_digest`].
//! Outside the benches this is the one reader of the host clock: per-stage
//! training wall-clock is the `training` → `stageN_*` subtree here.
//!
//! Exports: a rendered tree report ([`Profile::render_tree`]), collapsed
//! stacks for inferno/speedscope flamegraphs ([`Profile::to_collapsed`],
//! built on the shared [`fold_stacks`] folder that the sim trace exporter
//! reuses), and canonical JSON ([`Profile::to_json`]) that round-trips
//! through [`Profile::from_value`] for ledger storage and
//! node-by-node diffing ([`ProfileDiff`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::format::{fmt_duration_s, fmt_percent};
use crate::hash::sha256_hex;
use crate::registry::{InstallGuard, Registry};

// ── thread-local span stack ──────────────────────────────────────────

/// One node of a thread-local (pre-merge) call tree. Children are a flat
/// index list searched linearly — phase fan-out is small by construction
/// (phase names, not per-task identifiers).
struct LocalNode {
    name: String,
    children: Vec<u32>,
    calls: u64,
    leaf_ns: u64,
    counters: Vec<(String, u64)>,
}

#[derive(Default)]
struct LocalTree {
    nodes: Vec<LocalNode>,
    roots: Vec<u32>,
    stack: Vec<u32>,
}

impl LocalTree {
    /// Index of `name` under `parent` (or among the roots), creating it
    /// on first use.
    fn child_of(&mut self, parent: Option<u32>, name: &str) -> u32 {
        let siblings = match parent {
            Some(p) => &self.nodes[p as usize].children,
            None => &self.roots,
        };
        if let Some(&id) = siblings
            .iter()
            .find(|&&id| self.nodes[id as usize].name == name)
        {
            return id;
        }
        let id = u32::try_from(self.nodes.len()).expect("fewer than 4G profile nodes");
        self.nodes.push(LocalNode {
            name: name.to_owned(),
            children: Vec::new(),
            calls: 0,
            leaf_ns: 0,
            counters: Vec::new(),
        });
        match parent {
            Some(p) => self.nodes[p as usize].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Pushes every segment onto the stack, returning how many were
    /// pushed.
    fn enter<'a>(&mut self, segments: impl Iterator<Item = &'a str>) -> u16 {
        let mut pushed = 0u16;
        for seg in segments {
            let parent = self.stack.last().copied();
            let id = self.child_of(parent, seg);
            self.stack.push(id);
            pushed += 1;
        }
        pushed
    }

    /// Pops `pushed` segments; when `elapsed_ns` is `Some`, the innermost
    /// node is charged the elapsed time and one call.
    fn exit(&mut self, pushed: u16, elapsed_ns: Option<u64>) {
        if pushed == 0 {
            return;
        }
        if let (Some(ns), Some(&leaf)) = (elapsed_ns, self.stack.last()) {
            let node = &mut self.nodes[leaf as usize];
            node.calls += 1;
            node.leaf_ns += ns;
        }
        for _ in 0..pushed {
            self.stack.pop();
        }
        if self.stack.is_empty() && !self.roots.is_empty() {
            self.flush();
        }
    }

    /// Merges this thread's tree into the global profiler and clears it.
    fn flush(&mut self) {
        let mut merged = profiler().merged.lock().expect("profiler lock");
        let roots = std::mem::take(&mut self.roots);
        for root in roots {
            self.merge_into(&mut merged, root);
        }
        self.nodes.clear();
    }

    fn merge_into(&self, into: &mut BTreeMap<String, MergedNode>, id: u32) {
        let node = &self.nodes[id as usize];
        let entry = into.entry(node.name.clone()).or_default();
        entry.calls += node.calls;
        entry.leaf_ns += node.leaf_ns;
        for (name, delta) in &node.counters {
            *entry.counters.entry(name.clone()).or_insert(0) += delta;
        }
        // `entry` borrows `into`; recurse through a scratch map swap so the
        // borrow checker sees disjoint trees.
        let mut children = std::mem::take(&mut entry.children);
        for &child in &node.children {
            self.merge_into(&mut children, child);
        }
        into.get_mut(&node.name).expect("just inserted").children = children;
    }
}

thread_local! {
    static LOCAL: RefCell<LocalTree> = RefCell::new(LocalTree::default());
}

// ── the global profiler ──────────────────────────────────────────────

/// One node of the merged global tree. Children are name-keyed, which is
/// what makes merge order (and therefore thread count) invisible in the
/// exported structure.
#[derive(Default)]
struct MergedNode {
    calls: u64,
    leaf_ns: u64,
    counters: BTreeMap<String, u64>,
    children: BTreeMap<String, MergedNode>,
}

/// The process-wide profiler: an on/off switch plus the merged call tree.
/// Disabled (the default), [`scope`]/[`count`]/[`fork`] cost one relaxed
/// atomic load and touch no thread-local state.
pub struct Profiler {
    enabled: AtomicBool,
    merged: Mutex<BTreeMap<String, MergedNode>>,
}

impl Profiler {
    fn new() -> Self {
        Profiler {
            enabled: AtomicBool::new(false),
            merged: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Spans opened while disabled stay no-ops
    /// even if recording is enabled before they close.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Enables recording (convenience for [`Profiler::set_enabled`]).
    pub fn enable(&self) {
        self.set_enabled(true);
    }

    /// Discards everything recorded so far. Call between runs with no
    /// spans open on any thread.
    pub fn reset(&self) {
        self.merged.lock().expect("profiler lock").clear();
    }

    /// Takes the merged profile recorded so far, leaving the profiler
    /// empty. The calling thread's local tree is flushed first; other
    /// threads flush when their outermost span closes, so collect only
    /// after joining workers.
    #[must_use]
    pub fn take_profile(&self) -> Profile {
        LOCAL.with(|l| {
            let mut t = l.borrow_mut();
            if t.stack.is_empty() && !t.roots.is_empty() {
                t.flush();
            }
        });
        let merged = std::mem::take(&mut *self.merged.lock().expect("profiler lock"));
        Profile {
            roots: merged.iter().map(|(n, m)| build_node(n, m)).collect(),
        }
    }
}

fn build_node(name: &str, m: &MergedNode) -> ProfileNode {
    let children: Vec<ProfileNode> = m.children.iter().map(|(n, c)| build_node(n, c)).collect();
    let child_sum: u64 = children.iter().map(|c| c.total_ns).sum();
    let total_ns = m.leaf_ns.max(child_sum);
    ProfileNode {
        name: name.to_owned(),
        calls: m.calls,
        total_ns,
        self_ns: total_ns - child_sum,
        counters: m.counters.clone(),
        children,
    }
}

/// The process-wide [`Profiler`], disabled until something calls
/// [`Profiler::enable`] (the `juggler profile` command, the overhead
/// bench, tests).
pub fn profiler() -> &'static Profiler {
    static GLOBAL: OnceLock<Profiler> = OnceLock::new();
    GLOBAL.get_or_init(Profiler::new)
}

// ── span guards ──────────────────────────────────────────────────────

/// RAII guard for one phase span; created by [`scope`]. Dropping it pops
/// the segments it pushed and charges the elapsed wall time to the
/// innermost one.
#[must_use = "a profiling scope measures until dropped"]
pub struct Scope {
    pushed: u16,
    start: Option<Instant>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        if self.pushed == 0 {
            return;
        }
        let elapsed = self
            .start
            .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX));
        LOCAL.with(|l| l.borrow_mut().exit(self.pushed, elapsed));
    }
}

/// Opens a phase span. `path` may carry several `/`-separated segments
/// (`"stage4/grid"`); they nest under whatever scope is already active on
/// this thread, so shared code (the simulator, the NNLS solver) shows up
/// under each phase that calls it. No-op while the profiler is disabled.
pub fn scope(path: &str) -> Scope {
    if !profiler().enabled() {
        return Scope {
            pushed: 0,
            start: None,
        };
    }
    let segments = path.split('/').filter(|s| !s.is_empty());
    let pushed = LOCAL.with(|l| l.borrow_mut().enter(segments));
    Scope {
        pushed,
        start: Some(Instant::now()),
    }
}

/// Attributes `delta` units of a named counter (cache hits, solver
/// iterations, retries) to the innermost active scope on this thread.
/// Dropped silently when the profiler is disabled or no scope is open.
pub fn count(name: &str, delta: u64) {
    if delta == 0 || !profiler().enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut t = l.borrow_mut();
        let Some(&top) = t.stack.last() else { return };
        let node = &mut t.nodes[top as usize];
        match node.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => node.counters.push((name.to_owned(), delta)),
        }
    });
}

/// A captured phase context for handing to worker threads: the caller's
/// phase path and its metrics registry. Workers call [`ForkCtx::attach`]
/// so their spans nest under the phase that spawned them — without this,
/// a stage-4 grid cell profiled on a worker would surface at the tree root
/// on 8 threads but under `stage4` on 1 thread, breaking the
/// structure-determinism contract — and so their counters land in the
/// caller's run.
#[derive(Clone)]
pub struct ForkCtx {
    path: Option<Arc<Vec<String>>>,
    registry: Option<Arc<Registry>>,
}

/// RAII guard re-establishing a forked phase context and registry on a
/// worker thread; see [`ForkCtx::attach`].
#[must_use = "an attached fork context holds until dropped"]
pub struct AttachGuard {
    pushed: u16,
    _registry: Option<InstallGuard>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if self.pushed == 0 {
            return;
        }
        LOCAL.with(|l| l.borrow_mut().exit(self.pushed, None));
    }
}

/// Captures the calling thread's metrics registry and active phase path
/// (cheap `Arc` clones per worker; the path is `None` and free when the
/// profiler is disabled).
pub fn fork() -> ForkCtx {
    let path = profiler().enabled().then(|| {
        LOCAL.with(|l| {
            let t = l.borrow();
            t.stack
                .iter()
                .map(|&id| t.nodes[id as usize].name.clone())
                .collect::<Vec<String>>()
        })
    });
    ForkCtx {
        path: path.filter(|p| !p.is_empty()).map(Arc::new),
        registry: Registry::current(),
    }
}

impl ForkCtx {
    /// Installs the captured registry and re-establishes the captured
    /// path on the current thread. The guard adds no call counts and no
    /// time of its own — it only provides the ancestry for spans the
    /// worker opens beneath it.
    pub fn attach(&self) -> AttachGuard {
        let pushed = self.path.as_ref().map_or(0, |path| {
            LOCAL.with(|l| l.borrow_mut().enter(path.iter().map(String::as_str)))
        });
        AttachGuard {
            pushed,
            _registry: self.registry.as_ref().map(Registry::install),
        }
    }
}

// ── the exported profile ─────────────────────────────────────────────

/// One node of an exported profile: aggregated calls, total/self wall
/// time, counter deltas, and name-sorted children. Its JSON form is the
/// derived one; only `name` is required.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileNode {
    /// Phase name (one path segment).
    pub name: String,
    /// How many spans ended at this node.
    #[serde(default)]
    pub calls: u64,
    /// Wall time, ns: the node's own measurement or its children's sum,
    /// whichever is larger (parallel children can exceed the parent's
    /// wall clock).
    #[serde(default)]
    pub total_ns: u64,
    /// Total minus children — the flamegraph weight.
    #[serde(default)]
    pub self_ns: u64,
    /// Counter deltas attributed to this node.
    #[serde(default)]
    pub counters: BTreeMap<String, u64>,
    /// Child phases, name-sorted.
    #[serde(default)]
    pub children: Vec<ProfileNode>,
}

/// A merged, export-ready call tree taken from the [`Profiler`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Top-level phases, name-sorted.
    pub roots: Vec<ProfileNode>,
}

impl Profile {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Total recorded wall time across all root phases, ns.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Renders the aligned self/total tree report. Timing columns are
    /// host wall-clock; the `self%` column is each node's self time as a
    /// share of the whole profile.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>10}  {:>10}  {:>6}  {:>8}  {}\n",
            "total", "self", "self%", "calls", "phase"
        ));
        let grand = self.total_ns();
        for root in &self.roots {
            render_node(root, 0, grand, &mut out);
        }
        out
    }

    /// Renders the structure-only tree: names, call counts, and counter
    /// deltas, no timings. This is the deterministic surface golden
    /// tests pin — byte-identical across hosts and thread counts.
    #[must_use]
    pub fn render_structure(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:>8}  {}\n", "calls", "phase"));
        for root in &self.roots {
            render_structure_node(root, 0, &mut out);
        }
        out
    }

    /// Collapsed-stack export (one `a;b;c weight` line per stack, weights
    /// in self-time nanoseconds) — the format inferno and speedscope
    /// ingest directly. Shares [`fold_stacks`] with the sim trace
    /// exporter.
    #[must_use]
    pub fn to_collapsed(&self) -> String {
        let mut stacks: Vec<(Vec<String>, u64)> = Vec::new();
        let mut frames: Vec<String> = Vec::new();
        for root in &self.roots {
            collect_stacks(root, &mut frames, &mut stacks);
        }
        fold_stacks(stacks)
    }

    /// Canonical JSON [`Value`] (fixed key order, integer times) — what
    /// `juggler profile --format json` prints and [`Profile::from_value`]
    /// reads back.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".to_owned(), Value::Int(1)),
            (
                "roots".to_owned(),
                serde_json::to_value(&self.roots).expect("profile serializes"),
            ),
        ])
    }

    /// Canonical compact JSON string of [`Profile::to_value`].
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("profile serializes")
    }

    /// Parses a profile from its canonical JSON form.
    ///
    /// # Errors
    /// Returns a message naming the first malformed field.
    pub fn from_value(v: &Value) -> Result<Profile, String> {
        let roots = v.get("roots").ok_or("profile JSON missing `roots`")?;
        let roots = serde_json::from_value(roots.clone()).map_err(|e| format!("roots: {e}"))?;
        Ok(Profile { roots })
    }

    /// Parses a profile from a canonical JSON string.
    ///
    /// # Errors
    /// Returns a message for unparseable JSON or a malformed tree.
    pub fn from_json(s: &str) -> Result<Profile, String> {
        let v: Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        Profile::from_value(&v)
    }

    /// SHA-256 over the structure-only canonical form — names, call
    /// counts, and counters, with every timing field excluded. Two runs
    /// of the same work produce the same digest regardless of host speed
    /// or `JUGGLER_THREADS`.
    #[must_use]
    pub fn structure_digest(&self) -> String {
        let mut canon = String::new();
        for root in &self.roots {
            push_structure(root, &mut canon);
        }
        sha256_hex(canon.as_bytes())
    }
}

fn render_node(node: &ProfileNode, depth: usize, grand: u64, out: &mut String) {
    let share = if grand == 0 {
        0.0
    } else {
        node.self_ns as f64 / grand as f64
    };
    let mut label = format!("{}{}", "  ".repeat(depth), node.name);
    if !node.counters.is_empty() {
        let cs: Vec<String> = node
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        label.push_str(&format!("  [{}]", cs.join(" ")));
    }
    out.push_str(&format!(
        "{:>10}  {:>10}  {:>6}  {:>8}  {}\n",
        fmt_duration_s(node.total_ns as f64 / 1e9),
        fmt_duration_s(node.self_ns as f64 / 1e9),
        fmt_percent(share),
        node.calls,
        label
    ));
    for child in &node.children {
        render_node(child, depth + 1, grand, out);
    }
}

fn render_structure_node(node: &ProfileNode, depth: usize, out: &mut String) {
    let mut label = format!("{}{}", "  ".repeat(depth), node.name);
    if !node.counters.is_empty() {
        let cs: Vec<String> = node
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        label.push_str(&format!("  [{}]", cs.join(" ")));
    }
    out.push_str(&format!("{:>8}  {}\n", node.calls, label));
    for child in &node.children {
        render_structure_node(child, depth + 1, out);
    }
}

fn collect_stacks(node: &ProfileNode, frames: &mut Vec<String>, out: &mut Vec<(Vec<String>, u64)>) {
    frames.push(node.name.clone());
    if node.self_ns > 0 || node.children.is_empty() {
        out.push((frames.clone(), node.self_ns));
    }
    for child in &node.children {
        collect_stacks(child, frames, out);
    }
    frames.pop();
}

fn push_structure(node: &ProfileNode, out: &mut String) {
    out.push_str(&node.name);
    out.push(':');
    out.push_str(&node.calls.to_string());
    for (k, v) in &node.counters {
        out.push(';');
        out.push_str(k);
        out.push('=');
        out.push_str(&v.to_string());
    }
    out.push('(');
    for child in &node.children {
        push_structure(child, out);
    }
    out.push(')');
}

// ── the shared stack folder ──────────────────────────────────────────

/// Folds `(stack frames, weight)` pairs into collapsed-stack text:
/// identical stacks merge (weights summed), lines sort lexicographically,
/// frames join with `;` and the weight follows a space — the input format
/// of `inferno-flamegraph` and speedscope. Both [`Profile::to_collapsed`]
/// and the sim trace exporter route through here so every flamegraph in
/// the workspace is produced by one folder.
#[must_use]
pub fn fold_stacks(stacks: impl IntoIterator<Item = (Vec<String>, u64)>) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (frames, weight) in stacks {
        if frames.is_empty() {
            continue;
        }
        *folded.entry(frames.join(";")).or_insert(0) += weight;
    }
    let mut out = String::new();
    for (stack, weight) in folded {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

// ── node-by-node diffing ─────────────────────────────────────────────

/// One phase's before/after comparison in a [`ProfileDiff`]. `None`
/// totals mark phases present on only one side.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// `/`-joined path of the phase.
    pub path: String,
    /// Total time in the baseline profile, ns (`None` when added).
    pub base_total_ns: Option<u64>,
    /// Total time in the new profile, ns (`None` when removed).
    pub new_total_ns: Option<u64>,
    /// Calls in the baseline profile.
    pub base_calls: u64,
    /// Calls in the new profile.
    pub new_calls: u64,
}

impl PhaseDelta {
    /// Signed time change, ns (absent sides count as zero).
    #[must_use]
    pub fn delta_ns(&self) -> i64 {
        self.new_total_ns.unwrap_or(0) as i64 - self.base_total_ns.unwrap_or(0) as i64
    }

    /// Relative time change (`new/base − 1`); `None` without a baseline.
    #[must_use]
    pub fn rel_change(&self) -> Option<f64> {
        match (self.base_total_ns, self.new_total_ns) {
            (Some(b), Some(n)) if b > 0 => Some(n as f64 / b as f64 - 1.0),
            _ => None,
        }
    }

    /// One human-readable line for reports: path, before → after, delta.
    #[must_use]
    pub fn render(&self) -> String {
        let fmt = |ns: Option<u64>| match ns {
            Some(ns) => fmt_duration_s(ns as f64 / 1e9),
            None => "—".to_owned(),
        };
        let delta = self.delta_ns();
        let sign = if delta >= 0 { "+" } else { "-" };
        let mut line = format!(
            "{}: {} -> {} ({sign}{})",
            self.path,
            fmt(self.base_total_ns),
            fmt(self.new_total_ns),
            fmt_duration_s(delta.unsigned_abs() as f64 / 1e9),
        );
        if let Some(rel) = self.rel_change() {
            line.push_str(&format!(
                ", {}{}",
                if rel >= 0.0 { "+" } else { "-" },
                fmt_percent(rel.abs())
            ));
        }
        line
    }
}

/// A node-by-node comparison of two profiles, flattened to `/`-joined
/// phase paths. Backs `juggler profile --diff` and the perf gate's
/// regression attribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileDiff {
    /// Every phase present in either profile, path-sorted.
    pub phases: Vec<PhaseDelta>,
}

/// `(total_ns, calls)` for one side of a diff, absent if the phase did
/// not appear in that profile.
type SideStats = Option<(u64, u64)>;

impl ProfileDiff {
    /// Compares `base` (earlier) against `new` (later).
    #[must_use]
    pub fn between(base: &Profile, new: &Profile) -> ProfileDiff {
        let mut flat: BTreeMap<String, (SideStats, SideStats)> = BTreeMap::new();
        flatten(&base.roots, &mut Vec::new(), &mut |path, node| {
            flat.entry(path).or_default().0 = Some((node.total_ns, node.calls));
        });
        flatten(&new.roots, &mut Vec::new(), &mut |path, node| {
            flat.entry(path).or_default().1 = Some((node.total_ns, node.calls));
        });
        ProfileDiff {
            phases: flat
                .into_iter()
                .map(|(path, (base, new))| PhaseDelta {
                    path,
                    base_total_ns: base.map(|(t, _)| t),
                    new_total_ns: new.map(|(t, _)| t),
                    base_calls: base.map_or(0, |(_, c)| c),
                    new_calls: new.map_or(0, |(_, c)| c),
                })
                .collect(),
        }
    }

    /// Phases that got slower, largest absolute regression first (ties
    /// break on path, so the ordering is deterministic).
    #[must_use]
    pub fn regressions(&self) -> Vec<&PhaseDelta> {
        let mut out: Vec<&PhaseDelta> = self.phases.iter().filter(|p| p.delta_ns() > 0).collect();
        out.sort_by(|a, b| b.delta_ns().cmp(&a.delta_ns()).then(a.path.cmp(&b.path)));
        out
    }

    /// The `n` largest regressions, rendered one per line — what
    /// `perf-report` prints when a throughput check trips.
    #[must_use]
    pub fn top_regressed(&self, n: usize) -> Vec<String> {
        self.regressions()
            .into_iter()
            .take(n)
            .map(PhaseDelta::render)
            .collect()
    }

    /// Full per-phase report, path-sorted, one line per phase.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            out.push_str(&p.render());
            out.push('\n');
        }
        out
    }
}

fn flatten(
    nodes: &[ProfileNode],
    path: &mut Vec<String>,
    f: &mut impl FnMut(String, &ProfileNode),
) {
    for node in nodes {
        path.push(node.name.clone());
        f(path.join("/"), node);
        flatten(&node.children, path, f);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global profiler is process state; tests that touch it take
    /// this lock and reset on entry so they compose under the parallel
    /// test runner.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_profiler(f: impl FnOnce()) -> Profile {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        profiler().reset();
        profiler().enable();
        f();
        let p = profiler().take_profile();
        profiler().set_enabled(false);
        p
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        profiler().reset();
        profiler().set_enabled(false);
        {
            let _s = scope("a/b");
            count("hits", 3);
        }
        assert!(profiler().take_profile().is_empty());
    }

    #[test]
    fn nested_scopes_build_a_tree_with_self_time() {
        let p = with_profiler(|| {
            let _outer = scope("train");
            for _ in 0..3 {
                let _inner = scope("fit");
                count("iters", 2);
            }
        });
        assert_eq!(p.roots.len(), 1);
        let train = &p.roots[0];
        assert_eq!(train.name, "train");
        assert_eq!(train.calls, 1);
        assert_eq!(train.children.len(), 1);
        let fit = &train.children[0];
        assert_eq!((fit.name.as_str(), fit.calls), ("fit", 3));
        assert_eq!(fit.counters, BTreeMap::from([("iters".to_owned(), 6)]));
        assert!(train.total_ns >= fit.total_ns);
        assert_eq!(train.self_ns, train.total_ns - fit.total_ns);
    }

    #[test]
    fn multi_segment_paths_create_intermediate_nodes() {
        let p = with_profiler(|| {
            let _s = scope("stage4/grid/fit");
        });
        let s4 = &p.roots[0];
        assert_eq!(s4.name, "stage4");
        assert_eq!(s4.calls, 0, "intermediate segments carry no calls");
        let grid = &s4.children[0];
        let fit = &grid.children[0];
        assert_eq!(fit.calls, 1);
        // Intermediates inherit the leaf's time through the child-sum rule.
        assert_eq!(s4.total_ns, fit.total_ns);
        assert_eq!(s4.self_ns, 0);
    }

    #[test]
    fn forked_workers_nest_under_the_spawning_phase() {
        let p = with_profiler(|| {
            let _outer = scope("stage2");
            let ctx = fork();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        let _a = ctx.attach();
                        let _run = scope("sim");
                        count("tasks", 5);
                    });
                }
            });
        });
        let stage2 = &p.roots[0];
        assert_eq!(stage2.name, "stage2");
        assert_eq!(stage2.calls, 1, "attach adds no calls to the parent");
        let sim = &stage2.children[0];
        assert_eq!((sim.name.as_str(), sim.calls), ("sim", 2));
        assert_eq!(sim.counters, BTreeMap::from([("tasks".to_owned(), 10)]));
    }

    #[test]
    fn structure_digest_ignores_timings() {
        let mk = |ns: u64| Profile {
            roots: vec![ProfileNode {
                name: "a".into(),
                calls: 2,
                total_ns: ns,
                self_ns: ns,
                counters: BTreeMap::from([("c".into(), 7)]),
                children: vec![],
            }],
        };
        assert_eq!(mk(10).structure_digest(), mk(99_999).structure_digest());
        // ...but not calls or counters.
        let mut other = mk(10);
        other.roots[0].calls = 3;
        assert_ne!(mk(10).structure_digest(), other.structure_digest());
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let p = with_profiler(|| {
            let _s = scope("a");
            let _t = scope("b/c");
            count("k", 4);
        });
        let back = Profile::from_json(&p.to_json()).expect("roundtrip");
        assert_eq!(p, back);
    }

    /// The profile embedded in a committed bench baseline reads back and
    /// prints to the same pretty bytes.
    #[test]
    fn committed_profile_round_trips_byte_identically() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/baselines/BENCH_sim_throughput.json"
        );
        let raw = std::fs::read_to_string(path).expect("committed baseline");
        let doc: Value = serde_json::from_str(&raw).expect("baseline parses");
        let tree = &doc["baseline"]["profile"];
        let profile = Profile::from_value(tree).expect("profile reads");
        assert!(!profile.is_empty());
        assert_eq!(
            serde_json::to_string_pretty(&profile.to_value()).unwrap(),
            serde_json::to_string_pretty(tree).unwrap()
        );
    }

    #[test]
    fn collapsed_output_folds_and_sorts() {
        let txt = fold_stacks(vec![
            (vec!["a".into(), "b".into()], 5),
            (vec!["a".into()], 2),
            (vec!["a".into(), "b".into()], 3),
            (vec![], 99),
        ]);
        assert_eq!(txt, "a 2\na;b 8\n");
    }

    #[test]
    fn collapsed_profile_lines_carry_self_weights() {
        let p = Profile {
            roots: vec![ProfileNode {
                name: "root".into(),
                calls: 1,
                total_ns: 10,
                self_ns: 4,
                counters: BTreeMap::new(),
                children: vec![ProfileNode {
                    name: "leaf".into(),
                    calls: 1,
                    total_ns: 6,
                    self_ns: 6,
                    counters: BTreeMap::new(),
                    children: vec![],
                }],
            }],
        };
        assert_eq!(p.to_collapsed(), "root 4\nroot;leaf 6\n");
    }

    #[test]
    fn diff_reports_added_removed_and_regressed_phases() {
        let mk = |total: u64, extra: bool| {
            let mut roots = vec![ProfileNode {
                name: "a".into(),
                calls: 1,
                total_ns: total,
                self_ns: total,
                counters: BTreeMap::new(),
                children: vec![],
            }];
            if extra {
                roots.push(ProfileNode {
                    name: "b".into(),
                    calls: 1,
                    total_ns: 1,
                    self_ns: 1,
                    counters: BTreeMap::new(),
                    children: vec![],
                });
            }
            Profile { roots }
        };
        let diff = ProfileDiff::between(&mk(100, false), &mk(250, true));
        assert_eq!(diff.phases.len(), 2);
        let regressed = diff.regressions();
        assert_eq!(regressed[0].path, "a");
        assert_eq!(regressed[0].delta_ns(), 150);
        assert_eq!(regressed[1].path, "b");
        assert_eq!(regressed[1].base_total_ns, None);
        let top = diff.top_regressed(1);
        assert_eq!(top.len(), 1);
        assert!(top[0].starts_with("a:"), "{top:?}");
        assert!(top[0].contains("+150%"), "{top:?}");
    }

    #[test]
    fn scope_opened_disabled_stays_inert_after_enable() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        profiler().reset();
        profiler().set_enabled(false);
        let s = scope("late");
        profiler().enable();
        drop(s);
        let p = profiler().take_profile();
        profiler().set_enabled(false);
        assert!(p.is_empty());
    }
}
