//! `fap trace`: offline reconstruction of the span streams the tracing
//! plane exports.
//!
//! The daemon (and any solver run with tracing enabled) writes
//! `span_start`/`span_end` events into the same JSONL stream as every
//! other metric. This module parses that stream back with
//! [`fap_obs::jsonl::parse_line`], stitches the spans into one tree per
//! trace, and answers the questions the live gauges cannot:
//!
//! * **self time** — each span's duration minus its direct children's,
//!   so every virtual tick is attributed to the deepest span that spent
//!   it. Within a well-formed trace the self times telescope: they sum
//!   exactly to the root's duration.
//! * **critical path** — the root-to-leaf chain following the longest
//!   child at every level (ties break toward the earlier start, then the
//!   smaller span id, so the path is deterministic).
//! * **slowest traces** — ranked by root duration, ties toward the
//!   smaller trace id, matching the flight recorder's tail sampler.
//! * **folded stacks** ([`render_folded`]) — `a;b;c ticks` lines,
//!   aggregated over all traces, ready for `flamegraph.pl`.
//! * **diffs** ([`render_diff`]) — per-layer self-time deltas between two
//!   exports, for before/after comparisons of the same scripted session.
//!
//! Non-span lines (counters, gauges, faults…) are skipped, so any
//! `--metrics-out` export works as input. Span ends whose start never
//! appeared — and starts that never ended — are counted as orphans rather
//! than guessed at.

use std::fmt::Write as _;

use fap_obs::jsonl::{parse_line, Scalar};
use fap_obs::{SPAN_END, SPAN_START};

/// One reconstructed span inside a [`TraceTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span's name (`layer.operation`).
    pub name: String,
    /// The span's id, unique within the export.
    pub span_id: u64,
    /// The parent span's id (`0` for the root).
    pub parent_id: u64,
    /// Start tick.
    pub start: u64,
    /// Duration in virtual ticks.
    pub dur: u64,
    /// Duration minus the direct children's durations.
    pub self_ticks: u64,
    /// Indices of the direct children in [`TraceTree::spans`], ordered by
    /// start tick then span id.
    pub children: Vec<usize>,
}

/// One request's reconstructed span tree.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id (== the root span's id).
    pub trace_id: u64,
    /// Index of the root span in [`TraceTree::spans`].
    pub root: usize,
    /// Every span reachable from the root.
    pub spans: Vec<SpanNode>,
}

impl TraceTree {
    /// The root span's name.
    pub fn name(&self) -> &str {
        &self.spans[self.root].name
    }

    /// The root span's start tick.
    pub fn start(&self) -> u64 {
        self.spans[self.root].start
    }

    /// The trace's wall duration in virtual ticks (the root span's).
    pub fn dur(&self) -> u64 {
        self.spans[self.root].dur
    }

    /// The sum of every span's self time. In a well-formed trace this
    /// equals [`TraceTree::dur`] — the telescoping identity `fap trace`'s
    /// tests pin.
    pub fn self_total(&self) -> u64 {
        self.spans.iter().map(|s| s.self_ticks).sum()
    }

    /// The critical path: indices from the root down, following the
    /// longest child at each level. Ties break toward the earlier start,
    /// then the smaller span id, so the path is a pure function of the
    /// export.
    pub fn critical_path(&self) -> Vec<usize> {
        let mut path = vec![self.root];
        let mut at = self.root;
        loop {
            let next = self.spans[at].children.iter().copied().max_by(|&a, &b| {
                let (sa, sb) = (&self.spans[a], &self.spans[b]);
                sa.dur
                    .cmp(&sb.dur)
                    .then_with(|| sb.start.cmp(&sa.start))
                    .then_with(|| sb.span_id.cmp(&sa.span_id))
            });
            match next {
                Some(child) => {
                    path.push(child);
                    at = child;
                }
                None => return path,
            }
        }
    }
}

/// Everything [`analyze`] reconstructs from one export.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Completed traces, in the order their roots ended in the file.
    pub traces: Vec<TraceTree>,
    /// Per-layer self time in ticks (layer = span-name prefix before the
    /// first `.`), in first-seen order.
    pub layers: Vec<(String, u64)>,
    /// Total spans attached to completed traces.
    pub spans: usize,
    /// Span events that could not be stitched: ends without a start,
    /// starts without an end, and spans of traces whose root never ended.
    pub orphans: usize,
}

impl TraceReport {
    /// Self time recorded for one layer.
    pub fn layer_self_time(&self, layer: &str) -> u64 {
        self.layers.iter().find(|(l, _)| l == layer).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Trace indices sorted slowest first (ties toward the smaller trace
    /// id, matching the flight recorder's tail sampler).
    pub fn slowest(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.traces.len()).collect();
        order.sort_by(|&a, &b| {
            let (ta, tb) = (&self.traces[a], &self.traces[b]);
            tb.dur().cmp(&ta.dur()).then(ta.trace_id.cmp(&tb.trace_id))
        });
        order
    }
}

/// A finished span waiting to be attached to its trace's tree.
#[derive(Debug)]
struct DoneSpan {
    trace: u64,
    span: u64,
    parent: u64,
    name: String,
    start: u64,
    dur: u64,
}

/// Parses a JSONL export and reconstructs every completed trace.
///
/// # Errors
///
/// Returns `line N: ...` messages for unparseable lines or span events
/// with missing/negative id fields. Unmatched span events are *not*
/// errors — they land in [`TraceReport::orphans`].
pub fn analyze(text: &str) -> Result<TraceReport, String> {
    struct Open {
        trace: u64,
        span: u64,
        parent: u64,
        name: String,
        start: u64,
    }
    let mut open: Vec<Open> = Vec::new();
    let mut done: Vec<DoneSpan> = Vec::new();
    let mut finished_roots: Vec<u64> = Vec::new();
    let mut orphans = 0usize;

    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let pairs = parse_line(line).map_err(|e| format!("line {}, {e}", number + 1))?;
        let field = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(event) = field("event").and_then(Scalar::as_str) else { continue };
        if event != SPAN_START && event != SPAN_END {
            continue;
        }
        let id = |key: &str| {
            field(key)
                .and_then(Scalar::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("line {}: span event needs '{key}'", number + 1))
        };
        let name = field("name")
            .and_then(Scalar::as_str)
            .ok_or_else(|| format!("line {}: span event needs 'name'", number + 1))?;
        let (trace, span) = (id("trace")?, id("span")?);
        if event == SPAN_START {
            open.push(Open {
                trace,
                span,
                parent: id("parent")?,
                name: name.to_string(),
                start: id("t")?,
            });
        } else {
            // Ends usually match the most recent start — scan from the
            // back, like the flight recorder does.
            let Some(pos) =
                open.iter().rposition(|o| o.trace == trace && o.span == span)
            else {
                orphans += 1;
                continue;
            };
            let opened = open.swap_remove(pos);
            if opened.parent == 0 {
                finished_roots.push(trace);
            }
            done.push(DoneSpan {
                trace,
                span,
                parent: opened.parent,
                name: opened.name,
                start: opened.start,
                dur: id("dur")?,
            });
        }
    }
    orphans += open.len();

    let mut traces = Vec::with_capacity(finished_roots.len());
    let mut spans = 0usize;
    let mut layers: Vec<(String, u64)> = Vec::new();
    for trace_id in finished_roots {
        let tree = build_tree(trace_id, &mut done);
        spans += tree.spans.len();
        for span in &tree.spans {
            let layer = span.name.split('.').next().unwrap_or(&span.name);
            match layers.iter_mut().find(|(l, _)| l == layer) {
                Some((_, v)) => *v += span.self_ticks,
                None => layers.push((layer.to_string(), span.self_ticks)),
            }
        }
        traces.push(tree);
    }
    // Whatever is left belongs to traces whose root never ended.
    orphans += done.len();

    Ok(TraceReport { traces, layers, spans, orphans })
}

/// Extracts `trace_id`'s spans from `done` and links them into a tree.
/// Spans whose ancestry does not reach the root stay in `done` and are
/// counted as orphans by the caller.
fn build_tree(trace_id: u64, done: &mut Vec<DoneSpan>) -> TraceTree {
    let mut mine: Vec<DoneSpan> = Vec::new();
    done.retain_mut(|s| {
        if s.trace == trace_id {
            mine.push(DoneSpan { name: std::mem::take(&mut s.name), ..*s });
            false
        } else {
            true
        }
    });
    let mut nodes: Vec<SpanNode> = mine
        .into_iter()
        .map(|s| SpanNode {
            name: s.name,
            span_id: s.span,
            parent_id: s.parent,
            start: s.start,
            dur: s.dur,
            self_ticks: s.dur,
            children: Vec::new(),
        })
        .collect();
    // Link children to parents by span id, then keep only the spans
    // reachable from the root.
    let find = |nodes: &[SpanNode], id: u64| nodes.iter().position(|n| n.span_id == id);
    let root = find(&nodes, trace_id).expect("the root's end put its trace id here");
    for i in 0..nodes.len() {
        if nodes[i].parent_id == 0 {
            continue;
        }
        if let Some(parent) = find(&nodes, nodes[i].parent_id) {
            nodes[parent].children.push(i);
            nodes[parent].self_ticks = nodes[parent].self_ticks.saturating_sub(nodes[i].dur);
        }
    }
    let mut keep = vec![false; nodes.len()];
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        keep[i] = true;
        stack.extend(nodes[i].children.iter().copied());
    }
    // Compact to the kept set, remapping indices.
    let mut remap = vec![usize::MAX; nodes.len()];
    let mut spans: Vec<SpanNode> = Vec::new();
    for (i, node) in nodes.into_iter().enumerate() {
        if keep[i] {
            remap[i] = spans.len();
            spans.push(node);
        }
    }
    for node in &mut spans {
        for child in &mut node.children {
            *child = remap[*child];
        }
    }
    // Sort children by (start, span id); a separate pass because the
    // comparator has to read sibling nodes while mutating the parent.
    let ordered: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.span_id)).collect();
    for node in &mut spans {
        node.children.sort_by_key(|&c| ordered[c]);
    }
    TraceTree { trace_id, root: remap[root], spans }
}

/// Renders the human-readable summary: totals, per-layer self time, and
/// the `top` slowest traces with their critical paths and span trees.
pub fn render(report: &TraceReport, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "traces:");
    let _ = writeln!(out, "  completed {:>10}", report.traces.len());
    let _ = writeln!(out, "  spans     {:>10}", report.spans);
    let _ = writeln!(out, "  orphans   {:>10}", report.orphans);
    let wall: u64 = report.traces.iter().map(TraceTree::dur).sum();
    let _ = writeln!(out, "  wall ticks{:>10}", wall);

    let total: u64 = report.layers.iter().map(|(_, v)| *v).sum();
    if !report.layers.is_empty() {
        out.push_str("\nself ticks by layer:\n");
        for (layer, ticks) in &report.layers {
            let pct =
                if total == 0 { 0.0 } else { 100.0 * *ticks as f64 / total as f64 };
            let _ = writeln!(out, "  {layer:<10} {ticks:>10}  {pct:>5.1}%");
        }
    }

    let order = report.slowest();
    if !order.is_empty() {
        out.push_str("\nslowest traces:\n");
    }
    for (rank, &idx) in order.iter().take(top.max(1)).enumerate() {
        let tree = &report.traces[idx];
        let _ = writeln!(
            out,
            "#{} trace {}  {}  start {}  dur {}",
            rank + 1,
            tree.trace_id,
            tree.name(),
            tree.start(),
            tree.dur()
        );
        let path: Vec<&str> =
            tree.critical_path().iter().map(|&i| tree.spans[i].name.as_str()).collect();
        let _ = writeln!(out, "   critical path: {}", path.join(" > "));
        render_tree(&mut out, tree, tree.root, 3);
    }
    out
}

fn render_tree(out: &mut String, tree: &TraceTree, node: usize, indent: usize) {
    let span = &tree.spans[node];
    let _ = writeln!(
        out,
        "{:indent$}{:<28} dur {:>8}  self {:>8}",
        "",
        span.name,
        span.dur,
        span.self_ticks,
        indent = indent
    );
    for &child in &span.children {
        render_tree(out, tree, child, indent + 2);
    }
}

/// Renders folded stacks — one `root;child;leaf ticks` line per distinct
/// stack with nonzero self time, aggregated over every trace, in
/// first-seen order. The format `flamegraph.pl` (and every compatible
/// renderer) consumes directly.
pub fn render_folded(report: &TraceReport) -> String {
    let mut stacks: Vec<(String, u64)> = Vec::new();
    for tree in &report.traces {
        fold(tree, tree.root, "", &mut stacks);
    }
    let mut out = String::new();
    for (stack, ticks) in stacks {
        let _ = writeln!(out, "{stack} {ticks}");
    }
    out
}

fn fold(tree: &TraceTree, node: usize, prefix: &str, stacks: &mut Vec<(String, u64)>) {
    let span = &tree.spans[node];
    let stack = if prefix.is_empty() {
        span.name.clone()
    } else {
        format!("{prefix};{}", span.name)
    };
    if span.self_ticks > 0 {
        match stacks.iter_mut().find(|(k, _)| *k == stack) {
            Some((_, v)) => *v += span.self_ticks,
            None => stacks.push((stack.clone(), span.self_ticks)),
        }
    }
    for &child in &span.children {
        fold(tree, child, &stack, stacks);
    }
}

/// Renders a per-layer self-time comparison of two exports — the
/// before/after view for "where did the new ticks go".
pub fn render_diff(
    label_a: &str,
    a: &TraceReport,
    label_b: &str,
    b: &TraceReport,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "a: {label_a}");
    let _ = writeln!(out, "b: {label_b}");
    let wall = |r: &TraceReport| r.traces.iter().map(TraceTree::dur).sum::<u64>();
    let _ = writeln!(
        out,
        "traces: {} vs {}   wall ticks: {} vs {}",
        a.traces.len(),
        b.traces.len(),
        wall(a),
        wall(b)
    );
    out.push_str("\nself ticks by layer:\n");
    let _ = writeln!(out, "  {:<10} {:>10} {:>10} {:>10}", "layer", "a", "b", "delta");
    let mut names: Vec<&str> = a.layers.iter().map(|(n, _)| n.as_str()).collect();
    for (name, _) in &b.layers {
        if !names.iter().any(|n| n == name) {
            names.push(name);
        }
    }
    for name in names {
        let (va, vb) = (a.layer_self_time(name), b.layer_self_time(name));
        let delta = vb as i64 - va as i64;
        let _ = writeln!(out, "  {name:<10} {va:>10} {vb:>10} {delta:>+10}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_obs::{Recorder as _, SpanGuard, Telemetry};

    /// A hand-built nested session: root [10,30] wraps solve [12,29]
    /// wraps cache [13,16].
    fn nested_jsonl() -> String {
        let mut tele = Telemetry::manual().with_tracing(true);
        tele.set_time(10);
        let root = SpanGuard::begin("served.request", &mut tele);
        tele.set_time(12);
        let solve = SpanGuard::begin("econ.solve", &mut tele);
        tele.set_time(13);
        let lookup = SpanGuard::begin("cache.lookup", &mut tele);
        tele.set_time(16);
        lookup.end(&mut tele);
        tele.set_time(29);
        solve.end(&mut tele);
        tele.set_time(30);
        root.end(&mut tele);
        tele.to_jsonl()
    }

    #[test]
    fn trees_self_times_and_critical_paths_reconstruct() {
        let report = analyze(&nested_jsonl()).unwrap();
        assert_eq!(report.traces.len(), 1);
        assert_eq!(report.spans, 3);
        assert_eq!(report.orphans, 0);
        let tree = &report.traces[0];
        assert_eq!(tree.name(), "served.request");
        assert_eq!(tree.dur(), 20);
        // Telescoping: self times partition the wall duration.
        assert_eq!(tree.self_total(), tree.dur());
        assert_eq!(report.layer_self_time("served"), 3);
        assert_eq!(report.layer_self_time("econ"), 14);
        assert_eq!(report.layer_self_time("cache"), 3);
        let path: Vec<&str> =
            tree.critical_path().iter().map(|&i| tree.spans[i].name.as_str()).collect();
        assert_eq!(path, vec!["served.request", "econ.solve", "cache.lookup"]);
    }

    #[test]
    fn render_summarizes_and_ranks() {
        let report = analyze(&nested_jsonl()).unwrap();
        let text = render(&report, 3);
        assert!(text.contains("completed          1"));
        assert!(text.contains("critical path: served.request > econ.solve > cache.lookup"));
        assert!(text.contains("econ.solve"));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(text, render(&analyze(&nested_jsonl()).unwrap(), 3));
    }

    #[test]
    fn folded_stacks_sum_to_the_layer_totals() {
        let report = analyze(&nested_jsonl()).unwrap();
        let folded = render_folded(&report);
        assert!(folded.contains("served.request 3\n"));
        assert!(folded.contains("served.request;econ.solve 14\n"));
        assert!(folded.contains("served.request;econ.solve;cache.lookup 3\n"));
        let total: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        let layer_total: u64 = report.layers.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, layer_total);
    }

    #[test]
    fn diff_reports_per_layer_deltas() {
        let a = analyze(&nested_jsonl()).unwrap();
        let b = analyze(&nested_jsonl()).unwrap();
        let text = render_diff("before.jsonl", &a, "after.jsonl", &b);
        assert!(text.contains("traces: 1 vs 1"));
        assert!(text.contains("econ"));
        assert!(text.contains("+0"));
    }

    #[test]
    fn unmatched_span_events_count_as_orphans() {
        let mut text = nested_jsonl();
        // A start that never ends, and an end that never started.
        text.push_str(
            "{\"t\":5,\"event\":\"span_start\",\"name\":\"x.y\",\"trace\":99,\"span\":99,\"parent\":0}\n",
        );
        text.push_str(
            "{\"t\":6,\"event\":\"span_end\",\"name\":\"z.w\",\"trace\":98,\"span\":98,\"parent\":0,\"dur\":1}\n",
        );
        let report = analyze(&text).unwrap();
        assert_eq!(report.traces.len(), 1, "the well-formed trace still reconstructs");
        assert_eq!(report.orphans, 2);
    }

    #[test]
    fn malformed_lines_error_with_a_line_number() {
        let err = analyze("{\"t\":1,\"event\":\"span_start\"}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = analyze("not json\n").unwrap_err();
        assert_eq!(err, "line 1, byte 0: expected '{'");
        let err = analyze("{\"t\":1,\"event\":\"span_start\" \"x\":2}\n").unwrap_err();
        assert_eq!(err, "line 1, byte 28: expected ',' or '}'");
    }

    /// The acceptance criterion: a real traced daemon session
    /// reconstructs into one tree per request whose self times sum to
    /// the trace's virtual wall duration.
    #[test]
    fn daemon_sessions_reconstruct_with_telescoping_self_time() {
        use fap_batch::Parallelism;
        use fap_served::DaemonConfig;

        let specs = serde_json::to_string(&crate::serve::example_specs())
            .expect("spec serialization cannot fail");
        let mut input = String::new();
        for at in [0u64, 100_000, 200_000] {
            input.push_str(&format!("{{\"at\":{at},\"batch\":{specs}}}\n"));
        }
        input.push_str("{\"at\":300000,\"work\":25}\n{\"cmd\":\"shutdown\"}\n");

        let config =
            DaemonConfig { shards: Parallelism::Sequential, ..DaemonConfig::default() };
        let mut tele = Telemetry::manual();
        let mut out = Vec::new();
        crate::run_daemon(input.as_bytes(), &mut out, &config, &mut tele).unwrap();

        let report = analyze(&tele.to_jsonl()).unwrap();
        assert_eq!(report.traces.len(), 4, "one trace per request");
        assert_eq!(report.orphans, 0);
        for tree in &report.traces {
            assert_eq!(tree.name(), "served.request");
            assert_eq!(
                tree.self_total(),
                tree.dur(),
                "self times must partition trace {}'s wall duration",
                tree.trace_id
            );
        }
        // The solver batches put real ticks under the serve layer.
        assert!(report.layer_self_time("serve") > 0);
        assert!(report.layer_self_time("served") > 0);
    }
}
