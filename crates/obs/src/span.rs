//! Hierarchical wall-clock span tracing.
//!
//! [`SpanTracer`] records *nested* wall-clock spans:
//! `plan > consolidate > candidate_scan`, `execute > migration`, and so
//! on. Each distinct call path gets one arena node holding cumulative
//! wall time and call count.
//!
//! The tracer follows the crate's design rule — observe, never steer:
//! wall time never feeds simulation state, and a disabled tracer costs a
//! single branch per [`enter`](SpanTracer::enter)/[`exit`](SpanTracer::exit)
//! with no clock read and no allocation. When enabled, allocation happens
//! only the first time a call path is seen (warmup); steady-state ticks
//! allocate nothing.
//!
//! Aggregated results freeze into a [`SpanSummary`] — a depth-annotated
//! table of paths with total and self time — which serializes to JSON
//! for the end-of-run trace record and renders as an attribution table
//! via [`Display`](fmt::Display).

use std::fmt::{self, Write as _};
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
        let n = &mut self.nodes[node];
        n.calls += 1;
        n.total += t0.elapsed();
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

    /// Grafts `child`'s call-path tree under the currently open span (or
    /// at the top level): each of its paths adds its calls and wall time
    /// to the same path here, created on first sight in `child`'s
    /// first-seen order, so the summary reads as if `child`'s spans had
    /// been recorded here inline. `child`'s totals are then zeroed; its
    /// arena and names stay, so a tracer absorbed every round allocates
    /// only for paths it has not seen before. A disabled `child` recorded
    /// nothing and adds nothing.
    ///
    /// This lets work that runs on another thread trace into its own
    /// tracer and be folded in afterwards, in a fixed order.
    pub fn absorb(&mut self, child: &mut SpanTracer) {
        debug_assert!(child.stack.is_empty(), "absorbing a tracer with open spans");
        if !self.enabled || !child.enabled {
            return;
        }
        let parent = self.stack.last().map_or(0, |&(node, _)| node);
        self.graft(child, 0, parent);
    }

    /// Adds the subtree of `child`'s node `from` into the subtree of this
    /// tracer's node `into`, depth first, zeroing what it copies.
    fn graft(&mut self, child: &mut SpanTracer, from: usize, into: usize) {
        for k in 0..child.nodes[from].children.len() {
            let c = child.nodes[from].children[k];
            let name = self.name(&child.names[child.nodes[c].name]);
            let node = self.child_of(into, name.0);
            let source = &mut child.nodes[c];
            self.nodes[node].calls += std::mem::take(&mut source.calls);
            self.nodes[node].total += std::mem::take(&mut source.total);
            self.graft(child, c, node);
        }
    }

    /// Number of arena nodes allocated (1 = just the root). Exposed so
    /// tests can assert the disabled path allocates nothing.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
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
    /// mistyped, or when a span's `depth` is not the number of
    /// `;`-separated segments in its `path`.
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
            let path = text(j, "path")?;
            let depth = field(j, "depth")?;
            let segments = path.split(';').count();
            let depth = u32::try_from(segments)
                .ok()
                .filter(|_| depth == segments as f64)
                .ok_or_else(|| JsonError {
                    message: format!(
                        "span summary: `{path}` has {segments} segments but depth {depth}"
                    ),
                    offset: 0,
                })?;
            spans.push(SpanStat {
                path,
                name: text(j, "name")?,
                depth,
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
        // The span column is padded by hand: a `{:width$}` argument
        // panics past `u16::MAX`, which a parsed summary can reach.
        let pad = |f: &mut fmt::Formatter<'_>, n: usize| (0..n).try_for_each(|_| f.write_char(' '));
        let indent = |s: &SpanStat| 2 * (s.depth as usize - 1);
        writeln!(f, "wall-clock: {:.3} s", self.wall_secs)?;
        let width = self
            .spans
            .iter()
            .map(|s| s.name.chars().count() + indent(s))
            .max()
            .unwrap_or(0)
            .max(4);
        f.write_str("span")?;
        pad(f, width - 4)?;
        writeln!(
            f,
            "  {:>12} {:>12} {:>10} {:>9}",
            "total s", "self s", "calls", "% parent"
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
            pad(f, indent(s))?;
            f.write_str(&s.name)?;
            pad(f, width - indent(s) - s.name.chars().count())?;
            writeln!(
                f,
                "  {:>12.3} {:>12.3} {:>10} {:>9}",
                s.total_secs, s.self_secs, s.calls, share,
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
        // No arena nodes beyond the root: the disabled hot path never
        // allocates.
        assert_eq!(t.node_count(), 1);
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

    /// Records `rounds` rounds of a planner-like tree under whatever span
    /// `t` has open.
    fn planner_spans(t: &mut SpanTracer, rounds: usize) {
        let [rescore, consolidate, scan, trial, park] =
            ["rescore", "consolidate", "scan", "trial", "park"].map(|n| t.name(n));
        for r in 0..rounds {
            t.enter(rescore);
            t.exit(rescore);
            t.enter(consolidate);
            // A path first seen in a later round, under an existing one.
            if r > 0 {
                t.enter(trial);
                t.exit(trial);
            }
            t.enter(scan);
            t.exit(scan);
            t.exit(consolidate);
            t.enter(park);
            t.exit(park);
        }
    }

    /// `(path, depth, calls)` of every span, in summary order.
    fn shape(t: &SpanTracer) -> Vec<(String, u32, u64)> {
        let spans = t.summary().spans;
        spans
            .into_iter()
            .map(|s| (s.path, s.depth, s.calls))
            .collect()
    }

    #[test]
    fn absorbing_a_tree_matches_recording_it_inline() {
        let mut inline = SpanTracer::enabled();
        let mut grafted = SpanTracer::enabled();
        let mut children = [SpanTracer::enabled(), SpanTracer::enabled()];
        for round in 0..3 {
            for t in [&mut inline, &mut grafted] {
                let plan = t.name("plan");
                t.enter(plan);
            }
            // Two replicas per round, the second one round behind.
            planner_spans(&mut inline, 1 + round);
            planner_spans(&mut children[0], 1 + round);
            planner_spans(&mut inline, round);
            planner_spans(&mut children[1], round);
            let total = |ts: &[&SpanTracer]| -> Duration {
                ts.iter().flat_map(|t| &t.nodes).map(|n| n.total).sum()
            };
            let before = total(&[&grafted, &children[0], &children[1]]);
            for child in &mut children {
                grafted.absorb(child);
                assert!(child
                    .nodes
                    .iter()
                    .all(|n| n.calls == 0 && n.total.is_zero()));
            }
            // Totals add: the children's time moved here, none was lost.
            assert_eq!(total(&[&grafted]), before);
            for t in [&mut inline, &mut grafted] {
                let plan = t.name("plan");
                t.exit(plan);
            }
            assert_eq!(shape(&grafted), shape(&inline), "round {round}");
        }
        assert_eq!(grafted.node_count(), inline.node_count());
        assert_eq!(shape(&grafted)[0], ("plan".to_string(), 1, 3));
        assert_eq!(shape(&grafted)[3], ("plan;consolidate;scan".into(), 3, 9));
    }

    #[test]
    fn absorbing_a_disabled_tracer_adds_no_node() {
        let mut t = SpanTracer::enabled();
        let plan = t.name("plan");
        let mut child = SpanTracer::new();
        planner_spans(&mut child, 2);
        t.enter(plan);
        t.absorb(&mut child);
        t.exit(plan);
        assert_eq!(t.node_count(), 2);
        // Nor does a disabled tracer take anything in.
        let mut off = SpanTracer::new();
        let mut on = SpanTracer::enabled();
        planner_spans(&mut on, 1);
        off.absorb(&mut on);
        assert_eq!(off.node_count(), 1);
    }

    #[test]
    fn summary_serializes_and_round_trips() {
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
        let table = summary.to_string();
        assert!(table.contains("% parent"), "{table}");
        assert!(table.contains("  scan"), "{table}");
    }

    fn one_span(path: &str, depth: f64) -> Result<SpanSummary, JsonError> {
        SpanSummary::from_json(&Json::parse(&format!(
            r#"{{"wall_secs":1,"spans":[{{"path":"{path}","name":"x","depth":{depth},"calls":1,"total_secs":0.5,"self_secs":0.5}}]}}"#
        ))?)
    }

    #[test]
    fn depth_must_count_the_path_segments() {
        let bad = [
            ("a", 0.0),
            ("a", 2.0),
            ("a;b", 1.0),
            ("a", 1.5),
            ("a", 1e30),
        ];
        for (path, depth) in bad {
            // An accepted depth 0 would underflow the table's indent.
            let err = one_span(path, depth).map(|s| s.to_string()).unwrap_err();
            assert!(
                err.message.contains("segments"),
                "`{path}` at {depth}: {err}"
            );
        }
        let table = one_span("a;b", 2.0).unwrap().to_string();
        assert!(table.contains("\n  x "), "{table}");
    }

    #[test]
    fn deep_spans_render_past_the_format_width_limit() {
        let depth = 40_000;
        let path = vec!["a"; depth].join(";");
        let table = one_span(&path, depth as f64).unwrap().to_string();
        assert!(table.lines().skip(1).all(|l| l.len() > 2 * (depth - 1)));
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
