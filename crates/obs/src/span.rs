//! Hierarchical wall-clock span tracing.
//!
//! [`SpanTracer`] records *nested* wall-clock spans:
//! `plan > consolidate > candidate_scan`, `execute > migration`, and so
//! on. Each distinct call path gets one arena node holding cumulative
//! wall time and call count, and a bounded ring of recent span events
//! preserves individual start/duration pairs for chrome://tracing
//! export.
//!
//! The tracer follows the crate's design rule — observe, never steer:
//! wall time never feeds simulation state, and a disabled tracer costs a
//! single branch per [`enter`](SpanTracer::enter)/[`exit`](SpanTracer::exit)
//! with no clock read and no allocation. When enabled, allocation happens
//! only the first time a call path or the event ring is seen (warmup);
//! steady-state ticks allocate nothing.
//!
//! Aggregated results freeze into a [`SpanSummary`] — a depth-annotated
//! table of paths with total and self time — which serializes to JSON
//! for the end-of-run trace record, renders as an attribution table via
//! [`Display`](fmt::Display), and exports as chrome://tracing JSON
//! ([`SpanTracer::to_chrome_json`]) or collapsed-stack flamegraph text
//! ([`SpanTracer::to_collapsed`]).

use std::fmt;
use std::time::{Duration, Instant};

use crate::json::{Json, JsonError};

/// Handle to an interned span name (see [`SpanTracer::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(usize);

/// One node in the call-path arena: a distinct (parent path, name)
/// pair with its accumulated totals.
#[derive(Debug, Clone)]
struct SpanNode {
    /// Index into the tracer's name table (`usize::MAX` for the root).
    name: usize,
    /// Arena indices of children, in first-seen order.
    children: Vec<usize>,
    /// Completed enter/exit pairs.
    calls: u64,
    /// Total wall time across all calls.
    total: Duration,
}

/// One completed span occurrence, kept in the bounded event ring for
/// chrome://tracing export.
#[derive(Debug, Clone, Copy)]
struct SpanEvent {
    /// Index into the name table.
    name: usize,
    /// Nesting depth (1 = top-level span).
    depth: u32,
    /// Start, microseconds since the tracer's epoch.
    start_us: u64,
    /// Duration, microseconds.
    dur_us: u64,
}

/// Default capacity of the recent-event ring.
const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Hierarchical wall-clock span tracer.
///
/// ```
/// let mut t = obs::SpanTracer::enabled();
/// let plan = t.name("plan");
/// let scan = t.name("candidate_scan");
/// t.enter(plan);
/// t.enter(scan);
/// t.exit(scan);
/// t.exit(plan);
/// let summary = t.summary();
/// assert_eq!(summary.span("plan;candidate_scan").unwrap().depth, 2);
/// ```
#[derive(Debug, Clone)]
pub struct SpanTracer {
    enabled: bool,
    /// Interned span names; `SpanName` indexes this table.
    names: Vec<String>,
    /// Call-path arena; node 0 is the synthetic root.
    nodes: Vec<SpanNode>,
    /// Open spans: (arena node, start instant).
    stack: Vec<(usize, Instant)>,
    /// Ring buffer of recent completed events.
    events: Vec<SpanEvent>,
    /// Next write position in the ring.
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// Ring capacity (0 disables event capture, aggregation still runs).
    capacity: usize,
    created: Instant,
}

impl SpanTracer {
    /// A tracer that records nothing until [`enable`](Self::enable)d.
    pub fn new() -> Self {
        SpanTracer {
            enabled: false,
            names: Vec::new(),
            nodes: vec![SpanNode {
                name: usize::MAX,
                children: Vec::new(),
                calls: 0,
                total: Duration::ZERO,
            }],
            stack: Vec::new(),
            events: Vec::new(),
            head: 0,
            dropped: 0,
            capacity: DEFAULT_EVENT_CAPACITY,
            created: Instant::now(),
        }
    }

    /// An enabled tracer.
    pub fn enabled() -> Self {
        let mut t = SpanTracer::new();
        t.enable();
        t
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether the tracer is recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Caps the recent-event ring at `capacity` completed spans
    /// (aggregated totals are unaffected; `0` disables event capture).
    pub fn set_event_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.events.truncate(capacity);
        self.head = if capacity == 0 {
            0
        } else {
            self.head % capacity.max(1)
        };
    }

    /// Interns a span name. Call once at setup and reuse the handle on
    /// the hot path.
    pub fn name(&mut self, name: &str) -> SpanName {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return SpanName(i);
        }
        self.names.push(name.to_string());
        SpanName(self.names.len() - 1)
    }

    /// Opens a span nested under the currently open span (or at the top
    /// level). One branch and no clock read when disabled.
    #[inline]
    pub fn enter(&mut self, name: SpanName) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().map_or(0, |&(node, _)| node);
        let node = self.child_of(parent, name.0);
        self.stack.push((node, Instant::now()));
    }

    /// Closes the innermost open span, accumulating its wall time.
    ///
    /// `name` must match the span opened by the pairing
    /// [`enter`](Self::enter) (checked in debug builds).
    #[inline]
    pub fn exit(&mut self, name: SpanName) {
        if !self.enabled {
            return;
        }
        let (node, t0) = self
            .stack
            .pop()
            .expect("SpanTracer::exit without a matching enter");
        debug_assert_eq!(
            self.nodes[node].name, name.0,
            "SpanTracer::exit name does not match the innermost open span"
        );
        let dur = t0.elapsed();
        let n = &mut self.nodes[node];
        n.calls += 1;
        n.total += dur;
        if self.capacity > 0 {
            let event = SpanEvent {
                name: name.0,
                depth: self.stack.len() as u32 + 1,
                start_us: t0.duration_since(self.created).as_micros() as u64,
                dur_us: dur.as_micros() as u64,
            };
            if self.events.len() < self.capacity {
                self.events.push(event);
            } else {
                self.events[self.head] = event;
                self.dropped += 1;
            }
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Finds or creates the arena node for `name` under `parent`.
    fn child_of(&mut self, parent: usize, name: usize) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let node = self.nodes.len();
        self.nodes.push(SpanNode {
            name,
            children: Vec::new(),
            calls: 0,
            total: Duration::ZERO,
        });
        self.nodes[parent].children.push(node);
        node
    }

    /// Number of arena nodes allocated (1 = just the root). Exposed so
    /// tests can assert the disabled path allocates nothing.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Completed events currently buffered in the ring.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Events overwritten after the ring filled.
    pub fn events_dropped(&self) -> u64 {
        self.dropped
    }

    /// Freezes the call-path arena into a [`SpanSummary`] (depth-first
    /// preorder, children in first-seen order).
    pub fn summary(&self) -> SpanSummary {
        let mut spans = Vec::with_capacity(self.nodes.len().saturating_sub(1));
        self.collect(0, "", 0, &mut spans);
        SpanSummary {
            spans,
            wall_secs: self.created.elapsed().as_secs_f64(),
        }
    }

    fn collect(&self, node: usize, prefix: &str, depth: u32, out: &mut Vec<SpanStat>) {
        for &c in &self.nodes[node].children {
            let n = &self.nodes[c];
            let name = &self.names[n.name];
            let path = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix};{name}")
            };
            let child_secs: f64 = n
                .children
                .iter()
                .map(|&g| self.nodes[g].total.as_secs_f64())
                .sum();
            let total_secs = n.total.as_secs_f64();
            out.push(SpanStat {
                path: path.clone(),
                name: name.clone(),
                depth: depth + 1,
                calls: n.calls,
                total_secs,
                self_secs: (total_secs - child_secs).max(0.0),
            });
            self.collect(c, &path, depth + 1, out);
        }
    }

    /// Renders the buffered recent events as chrome://tracing JSON
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn to_chrome_json(&self) -> Json {
        let len = self.events.len();
        let start = if len < self.capacity.max(1) {
            0
        } else {
            self.head
        };
        let events: Vec<Json> = (0..len)
            .map(|k| {
                let e = &self.events[(start + k) % len.max(1)];
                Json::obj([
                    ("name", Json::Str(self.names[e.name].clone())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Int(e.start_us as i64)),
                    ("dur", Json::Int(e.dur_us as i64)),
                    ("pid", Json::Int(0)),
                    ("tid", Json::Int(e.depth as i64)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }

    /// Renders the aggregated call paths as collapsed-stack flamegraph
    /// text: one `path;to;span <self-microseconds>` line per path, ready
    /// for `flamegraph.pl` or any compatible renderer.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for s in self.summary().spans {
            if s.calls > 0 {
                let micros = (s.self_secs * 1e6).round() as u64;
                out.push_str(&s.path);
                out.push(' ');
                out.push_str(&micros.to_string());
                out.push('\n');
            }
        }
        out
    }
}

impl Default for SpanTracer {
    fn default() -> Self {
        SpanTracer::new()
    }
}

/// One aggregated call path in a [`SpanSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Full call path, `;`-joined (`plan;consolidate;trial`).
    pub path: String,
    /// Leaf span name.
    pub name: String,
    /// Nesting depth (1 = top-level).
    pub depth: u32,
    /// Completed enter/exit pairs.
    pub calls: u64,
    /// Total wall seconds, including children.
    pub total_secs: f64,
    /// Wall seconds not attributed to child spans.
    pub self_secs: f64,
}

/// A tracer's frozen hierarchical output: every observed call path with
/// totals, plus the tracer's own lifetime.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanSummary {
    /// Call paths in depth-first preorder.
    pub spans: Vec<SpanStat>,
    /// Wall-clock seconds since the tracer was created.
    pub wall_secs: f64,
}

impl SpanSummary {
    /// Looks up a span by full path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Direct children of the span at `path` (or top-level spans for
    /// `""`).
    pub fn children_of(&self, path: &str) -> Vec<&SpanStat> {
        self.spans
            .iter()
            .filter(|s| {
                if path.is_empty() {
                    s.depth == 1
                } else {
                    s.path.len() > path.len()
                        && s.path.starts_with(path)
                        && s.path.as_bytes()[path.len()] == b';'
                        && s.depth == self.span(path).map_or(u32::MAX, |p| p.depth + 1)
                }
            })
            .collect()
    }

    /// Fraction of the span's wall time attributed to its direct
    /// children (`None` when the span is missing or never ran).
    pub fn attributed_fraction(&self, path: &str) -> Option<f64> {
        let parent = self.span(path)?;
        if parent.total_secs <= 0.0 {
            return None;
        }
        let child_secs: f64 = self.children_of(path).iter().map(|c| c.total_secs).sum();
        Some(child_secs / parent.total_secs)
    }

    /// JSON rendering (for the end-of-run trace record and bench
    /// artifacts).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("wall_secs", Json::Num(self.wall_secs)),
            (
                "spans",
                Json::Array(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("path", Json::Str(s.path.clone())),
                                ("name", Json::Str(s.name.clone())),
                                ("depth", Json::Int(s.depth as i64)),
                                ("calls", Json::Int(s.calls as i64)),
                                ("total_secs", Json::Num(s.total_secs)),
                                ("self_secs", Json::Num(s.self_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the [`to_json`](Self::to_json) form back.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when required fields are missing or
    /// mistyped.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let missing = |what: &str| JsonError {
            message: format!("span summary: missing {what}"),
            offset: 0,
        };
        let field = |j: &Json, name: &str| {
            j.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| missing(&format!("number `{name}`")))
        };
        let text = |j: &Json, name: &str| {
            j.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| missing(&format!("string `{name}`")))
        };
        let wall_secs = field(json, "wall_secs")?;
        let arr = json
            .get("spans")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("`spans` array"))?;
        let mut spans = Vec::with_capacity(arr.len());
        for j in arr {
            spans.push(SpanStat {
                path: text(j, "path")?,
                name: text(j, "name")?,
                depth: field(j, "depth")? as u32,
                calls: field(j, "calls")? as u64,
                total_secs: field(j, "total_secs")?,
                self_secs: field(j, "self_secs")?,
            });
        }
        Ok(SpanSummary { spans, wall_secs })
    }
}

impl fmt::Display for SpanSummary {
    /// Indented attribution table: total, self, calls, and the share of
    /// the parent span's time each path accounts for.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "wall-clock: {:.3} s", self.wall_secs)?;
        let width = self
            .spans
            .iter()
            .map(|s| s.name.len() + 2 * (s.depth as usize - 1))
            .max()
            .unwrap_or(0)
            .max(4);
        writeln!(
            f,
            "{:<width$}  {:>12} {:>12} {:>10} {:>9}",
            "span", "total s", "self s", "calls", "% parent"
        )?;
        for s in &self.spans {
            let parent_total = match s.path.rfind(';') {
                Some(cut) => self.span(&s.path[..cut]).map(|p| p.total_secs),
                None => Some(self.wall_secs),
            };
            let share = match parent_total {
                Some(p) if p > 0.0 => format!("{:.1}", 100.0 * s.total_secs / p),
                _ => "-".to_string(),
            };
            writeln!(
                f,
                "{:>indent$}{:<rest$}  {:>12.3} {:>12.3} {:>10} {:>9}",
                "",
                s.name,
                s.total_secs,
                s.self_secs,
                s.calls,
                share,
                indent = 2 * (s.depth as usize - 1),
                rest = width - 2 * (s.depth as usize - 1),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert_and_allocation_free() {
        let mut t = SpanTracer::new();
        let a = t.name("plan");
        let b = t.name("scan");
        for _ in 0..1000 {
            t.enter(a);
            t.enter(b);
            t.exit(b);
            t.exit(a);
        }
        // No arena nodes beyond the root, no buffered events: the
        // disabled hot path never allocates.
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.event_count(), 0);
        assert!(t.summary().spans.is_empty());
    }

    #[test]
    fn nested_spans_build_a_path_tree() {
        let mut t = SpanTracer::enabled();
        let plan = t.name("plan");
        let scan = t.name("scan");
        let trial = t.name("trial");
        for _ in 0..3 {
            t.enter(plan);
            t.enter(scan);
            t.exit(scan);
            t.enter(trial);
            t.exit(trial);
            t.exit(plan);
        }
        // The same name under a different parent is a different path.
        t.enter(trial);
        t.exit(trial);
        let s = t.summary();
        assert_eq!(s.span("plan").unwrap().calls, 3);
        assert_eq!(s.span("plan;scan").unwrap().depth, 2);
        assert_eq!(s.span("plan;trial").unwrap().calls, 3);
        assert_eq!(s.span("trial").unwrap().calls, 1);
        let children = s.children_of("plan");
        assert_eq!(children.len(), 2);
        let frac = s.attributed_fraction("plan").unwrap();
        assert!((0.0..=1.0 + 1e-9).contains(&frac), "{frac}");
        // Totals include children; self excludes them.
        let plan_stat = s.span("plan").unwrap();
        assert!(plan_stat.total_secs >= plan_stat.self_secs);
    }

    #[test]
    fn event_ring_is_bounded() {
        let mut t = SpanTracer::enabled();
        t.set_event_capacity(4);
        let a = t.name("x");
        for _ in 0..10 {
            t.enter(a);
            t.exit(a);
        }
        assert_eq!(t.event_count(), 4);
        assert_eq!(t.events_dropped(), 6);
        assert_eq!(t.summary().span("x").unwrap().calls, 10);
        let chrome = t.to_chrome_json();
        let events = chrome.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
    }

    #[test]
    fn exports_serialize_and_round_trip() {
        let mut t = SpanTracer::enabled();
        let plan = t.name("plan");
        let scan = t.name("scan");
        t.enter(plan);
        t.enter(scan);
        t.exit(scan);
        t.exit(plan);
        let summary = t.summary();
        let parsed = SpanSummary::from_json(&summary.to_json()).unwrap();
        assert_eq!(parsed, summary);
        let collapsed = t.to_collapsed();
        assert!(collapsed.contains("plan;scan "), "{collapsed}");
        let table = summary.to_string();
        assert!(table.contains("% parent"), "{table}");
        assert!(table.contains("  scan"), "{table}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not match")]
    fn mismatched_exit_panics_in_debug() {
        let mut t = SpanTracer::enabled();
        let a = t.name("a");
        let b = t.name("b");
        t.enter(a);
        t.exit(b);
    }
}
