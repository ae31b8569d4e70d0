//! Causal tracing: deterministic span contexts, RAII-style span guards,
//! and a bounded flight recorder with slowest-k tail sampling.
//!
//! The metric stream answers "how much"; it cannot answer "where did THIS
//! request's time go" once work flows through the batch server's worker
//! pool and the hierarchical solver. This module adds the causal layer:
//!
//! * [`TraceContext`] — `trace_id` / `span_id` / `parent_id` triples.
//!   Ids come from a per-sink counter
//!   ([`Recorder::reserve_span_ids`]), never from entropy, so a seeded
//!   run produces byte-identical span events. A root span's `trace_id`
//!   **is** its `span_id`; `parent_id == 0` marks a root.
//! * [`SpanGuard`] — begins a span (emitting a `span_start` event carrying
//!   the causal ids), installs itself as the recorder's current context so
//!   nested guards become children, and on [`SpanGuard::end`] emits
//!   `span_end` with the span's tick duration and restores the previous
//!   context. When [`Recorder::trace_enabled`] is `false` the guard is
//!   disarmed: no ids are reserved, no events are emitted, and nothing is
//!   allocated — the zero-allocation steady-state contract holds with a
//!   [`NoopRecorder`](crate::NoopRecorder).
//! * [`FlightRecorder`] — an always-on, bounded sink for a long-lived
//!   daemon: it watches the `span_start`/`span_end` stream, keeps a ring
//!   buffer of recently completed traces, *pins the slowest-k traces of
//!   every window of `window` completions* (deterministic tail sampling —
//!   ties break toward the earlier trace id), and accumulates per-layer
//!   **self time** (a span's duration minus its direct children's), keyed
//!   by the span-name prefix before the first `.`.
//!
//! Span events are ordinary [`EventRecord`](crate::EventRecord)s, so they
//! flow through every existing sink — `Telemetry`, `JsonlSink`, `Tee` —
//! and land in the same JSONL exports `fap trace` parses back.

use std::collections::VecDeque;

use crate::event::Value;
use crate::recorder::Recorder;

/// The causal identity of one span: which trace it belongs to, its own id,
/// and its parent's id (`0` for a root span).
///
/// Ids are allocated deterministically from a per-sink counter starting at
/// 1, so `0` is never a real span id and can serve as the "no parent"
/// sentinel. A root's `trace_id` equals its `span_id`, which keeps trace
/// ids unique without a second counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The id of the trace this span belongs to (== the root's span id).
    pub trace_id: u64,
    /// This span's own id, unique within the sink's lifetime.
    pub span_id: u64,
    /// The direct parent's span id, or `0` for a root span.
    pub parent_id: u64,
}

impl TraceContext {
    /// A root context: starts a new trace whose id is the span's own id.
    pub fn root(span_id: u64) -> Self {
        TraceContext { trace_id: span_id, span_id, parent_id: 0 }
    }

    /// A child context under `self`, in the same trace.
    pub fn child(&self, span_id: u64) -> Self {
        TraceContext { trace_id: self.trace_id, span_id, parent_id: self.span_id }
    }
}

/// The span-start event name carried on the wire.
pub const SPAN_START: &str = "span_start";
/// The span-end event name carried on the wire.
pub const SPAN_END: &str = "span_end";

/// An explicit-scope span: [`SpanGuard::begin`] emits `span_start` and
/// installs the context; [`SpanGuard::end`] emits `span_end` with the
/// elapsed ticks and restores the previous context.
///
/// The end is explicit (not `Drop`) because the guard does not hold the
/// `&mut dyn Recorder` — instrumented code keeps using the recorder
/// between begin and end.
#[derive(Debug)]
#[must_use = "a span must be ended to emit its span_end event"]
pub struct SpanGuard {
    ctx: Option<TraceContext>,
    prev: Option<TraceContext>,
    name: &'static str,
    start: u64,
}

impl SpanGuard {
    /// Starts a span named `name`. With tracing disabled on `recorder`
    /// this is a no-op returning a disarmed guard (no reservation, no
    /// event, no allocation).
    pub fn begin(name: &'static str, recorder: &mut dyn Recorder) -> SpanGuard {
        if !recorder.trace_enabled() {
            return SpanGuard { ctx: None, prev: None, name, start: 0 };
        }
        let prev = recorder.current_trace();
        let span_id = recorder.reserve_span_ids(1);
        let ctx = match prev {
            Some(parent) => parent.child(span_id),
            None => TraceContext::root(span_id),
        };
        let start = recorder.now();
        recorder.emit(
            SPAN_START,
            &[
                ("name", Value::Str(name)),
                ("trace", Value::U64(ctx.trace_id)),
                ("span", Value::U64(ctx.span_id)),
                ("parent", Value::U64(ctx.parent_id)),
            ],
        );
        recorder.set_current_trace(Some(ctx));
        SpanGuard { ctx: Some(ctx), prev, name, start }
    }

    /// The context this guard installed, if armed.
    pub fn context(&self) -> Option<TraceContext> {
        self.ctx
    }

    /// Ends the span: emits `span_end` with the tick duration and restores
    /// the context that was current before [`SpanGuard::begin`].
    pub fn end(self, recorder: &mut dyn Recorder) {
        let Some(ctx) = self.ctx else { return };
        let dur = recorder.now().saturating_sub(self.start);
        recorder.emit(
            SPAN_END,
            &[
                ("name", Value::Str(self.name)),
                ("trace", Value::U64(ctx.trace_id)),
                ("span", Value::U64(ctx.span_id)),
                ("parent", Value::U64(ctx.parent_id)),
                ("dur", Value::U64(dur)),
            ],
        );
        recorder.set_current_trace(self.prev);
    }
}

/// Emits just the `span_start` half of a synthesized span at tick `t` —
/// for spans whose children are emitted between the start and the end.
pub fn emit_span_start(
    recorder: &mut dyn Recorder,
    name: &'static str,
    ctx: TraceContext,
    t: u64,
) {
    recorder.emit_at(
        t,
        SPAN_START,
        &[
            ("name", Value::Str(name)),
            ("trace", Value::U64(ctx.trace_id)),
            ("span", Value::U64(ctx.span_id)),
            ("parent", Value::U64(ctx.parent_id)),
        ],
    );
}

/// Emits just the `span_end` half of a synthesized span at tick `t` with
/// an explicit duration. Every child's end must be emitted before its
/// parent's — the order the flight recorder's self-time bookkeeping (and
/// every producer in this workspace) maintains.
pub fn emit_span_end(
    recorder: &mut dyn Recorder,
    name: &'static str,
    ctx: TraceContext,
    t: u64,
    dur: u64,
) {
    recorder.emit_at(
        t,
        SPAN_END,
        &[
            ("name", Value::Str(name)),
            ("trace", Value::U64(ctx.trace_id)),
            ("span", Value::U64(ctx.span_id)),
            ("parent", Value::U64(ctx.parent_id)),
            ("dur", Value::U64(dur)),
        ],
    );
}

/// Emits a fully-formed span (start + end) at explicit ticks — the
/// synthesis primitive for layers that reconstruct a deterministic span
/// timeline after the fact (the serve scheduler emits its task spans
/// post-join so the event stream is shard-count independent).
pub fn emit_span(
    recorder: &mut dyn Recorder,
    name: &'static str,
    ctx: TraceContext,
    start: u64,
    end: u64,
) {
    emit_span_start(recorder, name, ctx, start);
    emit_span_end(recorder, name, ctx, end, end.saturating_sub(start));
}

/// Emits a zero-width span at the recorder's current tick, parented under
/// the installed current trace (a new root when none is installed). This
/// is the cheap "something happened here" marker the substrate layers use
/// for cache hits and misses: zero duration means zero self time, so
/// markers annotate a trace without distorting its time attribution.
///
/// Returns the minted context, or `None` (and does nothing) when tracing
/// is disabled.
pub fn emit_marker_span(
    recorder: &mut dyn Recorder,
    name: &'static str,
) -> Option<TraceContext> {
    if !recorder.trace_enabled() {
        return None;
    }
    let span_id = recorder.reserve_span_ids(1);
    let ctx = match recorder.current_trace() {
        Some(parent) => parent.child(span_id),
        None => TraceContext::root(span_id),
    };
    let t = recorder.now();
    emit_span(recorder, name, ctx, t, t);
    Some(ctx)
}

/// A completed root span, as retained by the [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// The trace id (== the root span's id).
    pub trace_id: u64,
    /// The root span's name.
    pub name: &'static str,
    /// The root span's start tick.
    pub start: u64,
    /// The root span's duration in ticks.
    pub dur: u64,
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    start: u64,
}

/// The layer prefix of a span name: everything before the first `.`
/// (`"serve.task"` → `"serve"`). Subslicing a `&'static str` keeps the
/// `'static` lifetime, so layers never allocate.
pub fn layer_of(name: &'static str) -> &'static str {
    match name.find('.') {
        Some(dot) => &name[..dot],
        None => name,
    }
}

/// How many tail-sampling windows of slowest-k traces the recorder pins
/// before the oldest window's picks are evicted.
pub const KEPT_WINDOWS: usize = 8;

/// An always-on, bounded tracing sink for long-lived processes.
///
/// It is a full [`Recorder`] (tracing enabled, its own deterministic span
/// id counter) that interprets the `span_start`/`span_end` stream:
///
/// * a **ring buffer** of the most recently completed traces (bounded);
/// * deterministic **tail sampling**: for every window of `window`
///   completed traces, the slowest `keep` are pinned (ties break toward
///   the smaller trace id); pins from the oldest windows are evicted once
///   [`KEPT_WINDOWS`] windows accumulate, so memory stays bounded forever;
/// * per-layer **self time**: each ended span adds its duration to its
///   layer and subtracts it from its parent's layer, so the totals
///   attribute every tick to the deepest span that actually spent it.
///
/// Metric calls (counters, gauges, histograms, sketches) are ignored —
/// pair it with a [`MetricsRegistry`](crate::MetricsRegistry) through a
/// [`Tee`](crate::Tee) when both are wanted.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    tick: u64,
    next_span_id: u64,
    current: Option<TraceContext>,
    inflight: Vec<Inflight>,
    recent: VecDeque<TraceSummary>,
    recent_cap: usize,
    window: usize,
    keep: usize,
    window_buf: Vec<TraceSummary>,
    kept: VecDeque<TraceSummary>,
    // Signed: a child's end subtracts from its parent's layer, which may
    // go transiently negative until the parent's own end lands.
    layers: Vec<(&'static str, i64)>,
    completed: u64,
    dropped: u64,
}

/// The most in-flight (started, unended) spans the recorder tracks; spans
/// started past the cap are counted in [`FlightRecorder::dropped_spans`].
const MAX_INFLIGHT: usize = 4096;

impl FlightRecorder {
    /// A recorder keeping a ring of the last `recent` completed traces and
    /// pinning the slowest `keep` per window of `window` completions.
    /// Zeros are clamped to 1.
    pub fn new(recent: usize, window: usize, keep: usize) -> Self {
        FlightRecorder {
            tick: 0,
            next_span_id: 1,
            current: None,
            inflight: Vec::new(),
            recent: VecDeque::new(),
            recent_cap: recent.max(1),
            window: window.max(1),
            keep: keep.max(1),
            window_buf: Vec::new(),
            kept: VecDeque::new(),
            layers: Vec::new(),
            completed: 0,
            dropped: 0,
        }
    }

    /// The most recently completed traces, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &TraceSummary> {
        self.recent.iter()
    }

    /// The tail-sampled slowest traces, oldest window first; within a
    /// window, slowest first.
    pub fn slowest(&self) -> impl Iterator<Item = &TraceSummary> {
        self.kept.iter()
    }

    /// Accumulated per-layer self time in ticks, in first-seen order.
    /// Layers whose spans are still in flight may read transiently low.
    pub fn layer_self_times(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.layers.iter().map(|(l, v)| (*l, (*v).max(0) as u64))
    }

    /// Self time accumulated for one layer.
    pub fn layer_self_time(&self, layer: &str) -> u64 {
        self.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, v)| (*v).max(0) as u64)
            .unwrap_or(0)
    }

    /// Total root spans completed over the recorder's lifetime.
    pub fn completed_traces(&self) -> u64 {
        self.completed
    }

    /// Spans dropped because the in-flight table was full.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped
    }

    /// Adds `delta` ticks to `layer`'s self time, saturating: a span
    /// whose virtual duration nears `u64::MAX` pins the total instead of
    /// wrapping it.
    fn layer_add(&mut self, layer: &'static str, delta: i64) {
        match self.layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, v)) => *v = v.saturating_add(delta),
            None => self.layers.push((layer, delta)),
        }
    }

    fn span_started(&mut self, span: Inflight) {
        if self.inflight.len() >= MAX_INFLIGHT {
            self.dropped += 1;
            return;
        }
        self.inflight.push(span);
    }

    fn span_ended(&mut self, trace: u64, span: u64, dur: u64) {
        // Ends usually match the most recent start — scan from the back.
        let Some(pos) =
            self.inflight.iter().rposition(|s| s.trace == trace && s.span == span)
        else {
            return;
        };
        let ended = self.inflight.swap_remove(pos);
        // Self-time bookkeeping: this span owns its ticks until a deeper
        // span claims them; its parent gives the same ticks up. Children
        // end before their parents, so the parent is still in flight here.
        let ticks = i64::try_from(dur).unwrap_or(i64::MAX);
        self.layer_add(layer_of(ended.name), ticks);
        if ended.parent != 0 {
            if let Some(parent) =
                self.inflight.iter().find(|s| s.trace == trace && s.span == ended.parent)
            {
                let parent_layer = layer_of(parent.name);
                self.layer_add(parent_layer, -ticks);
            }
        }
        if ended.parent == 0 {
            self.trace_completed(TraceSummary {
                trace_id: trace,
                name: ended.name,
                start: ended.start,
                dur,
            });
        }
    }

    fn trace_completed(&mut self, summary: TraceSummary) {
        self.completed += 1;
        if self.recent.len() == self.recent_cap {
            self.recent.pop_front();
        }
        self.recent.push_back(summary);
        self.window_buf.push(summary);
        if self.window_buf.len() >= self.window {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        // Slowest first; ties break toward the earlier (smaller) trace id,
        // so sampling is a pure function of the recorded stream.
        self.window_buf
            .sort_by(|a, b| b.dur.cmp(&a.dur).then(a.trace_id.cmp(&b.trace_id)));
        self.window_buf.truncate(self.keep);
        while self.kept.len() + self.window_buf.len() > self.keep * KEPT_WINDOWS {
            self.kept.pop_front();
        }
        for s in self.window_buf.drain(..) {
            self.kept.push_back(s);
        }
    }

    fn field_u64(fields: &[(&'static str, Value)], key: &str) -> Option<u64> {
        fields.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
            Value::U64(n) => Some(*n),
            _ => None,
        })
    }

    fn field_str(fields: &[(&'static str, Value)], key: &str) -> Option<&'static str> {
        fields.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
            Value::Str(s) => Some(*s),
            _ => None,
        })
    }
}

impl Default for FlightRecorder {
    /// The daemon's defaults: a 64-trace ring, slowest-4 per 32-trace
    /// window.
    fn default() -> Self {
        FlightRecorder::new(64, 32, 4)
    }
}

impl Recorder for FlightRecorder {
    fn set_time(&mut self, tick: u64) {
        if tick > self.tick {
            self.tick = tick;
        }
    }

    fn trace_enabled(&self) -> bool {
        true
    }

    /// Only span events reach the flight recorder's traces.
    fn keeps_events(&self) -> bool {
        false
    }

    fn reserve_span_ids(&mut self, count: u64) -> u64 {
        let first = self.next_span_id;
        self.next_span_id += count;
        first
    }

    fn now(&self) -> u64 {
        self.tick
    }

    fn current_trace(&self) -> Option<TraceContext> {
        self.current
    }

    fn set_current_trace(&mut self, ctx: Option<TraceContext>) {
        self.current = ctx;
    }

    fn emit(&mut self, name: &'static str, fields: &[(&'static str, Value)]) {
        let t = self.tick;
        self.emit_at(t, name, fields);
    }

    fn emit_at(&mut self, t: u64, name: &'static str, fields: &[(&'static str, Value)]) {
        self.set_time(t);
        let (Some(trace), Some(span), Some(span_name)) = (
            Self::field_u64(fields, "trace"),
            Self::field_u64(fields, "span"),
            Self::field_str(fields, "name"),
        ) else {
            return;
        };
        match name {
            SPAN_START => {
                let parent = Self::field_u64(fields, "parent").unwrap_or(0);
                self.span_started(Inflight {
                    trace,
                    span,
                    parent,
                    name: span_name,
                    start: t,
                });
            }
            SPAN_END => {
                let dur = Self::field_u64(fields, "dur").unwrap_or(0);
                self.span_ended(trace, span, dur);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::NoopRecorder;
    use crate::telemetry::Telemetry;

    #[test]
    fn guards_nest_and_carry_causal_ids() {
        let mut tele = Telemetry::manual().with_tracing(true);
        tele.set_time(10);
        let root = SpanGuard::begin("served.request", &mut tele);
        tele.set_time(12);
        let inner = SpanGuard::begin("econ.solve", &mut tele);
        tele.set_time(19);
        inner.end(&mut tele);
        tele.set_time(20);
        root.end(&mut tele);

        let events = tele.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].name(), SPAN_START);
        assert_eq!(events[0].field("trace"), Some(Value::U64(1)));
        assert_eq!(events[0].field("span"), Some(Value::U64(1)));
        assert_eq!(events[0].field("parent"), Some(Value::U64(0)));
        // The inner span is a child of the root, in the same trace.
        assert_eq!(events[1].field("trace"), Some(Value::U64(1)));
        assert_eq!(events[1].field("span"), Some(Value::U64(2)));
        assert_eq!(events[1].field("parent"), Some(Value::U64(1)));
        // Durations are virtual-tick differences.
        assert_eq!(events[2].name(), SPAN_END);
        assert_eq!(events[2].field("dur"), Some(Value::U64(7)));
        assert_eq!(events[3].field("dur"), Some(Value::U64(10)));
        // The context stack unwound completely.
        assert_eq!(tele.current_trace(), None);
    }

    #[test]
    fn sibling_spans_share_the_parent_not_each_other() {
        let mut tele = Telemetry::manual().with_tracing(true);
        let root = SpanGuard::begin("a", &mut tele);
        let first = SpanGuard::begin("b", &mut tele);
        first.end(&mut tele);
        let second = SpanGuard::begin("c", &mut tele);
        second.end(&mut tele);
        root.end(&mut tele);
        let starts: Vec<u64> = tele
            .events()
            .iter()
            .filter(|e| e.name() == SPAN_START)
            .map(|e| match e.field("parent") {
                Some(Value::U64(p)) => p,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(starts, vec![0, 1, 1]);
    }

    #[test]
    fn marker_spans_are_zero_width_children() {
        let mut tele = Telemetry::manual().with_tracing(true);
        tele.set_time(5);
        let root = SpanGuard::begin("served.request", &mut tele);
        let marker = emit_marker_span(&mut tele, "cache.hit").expect("tracing on");
        assert_eq!(marker.parent_id, root.context().unwrap().span_id);
        root.end(&mut tele);
        // start + end at the same tick, zero duration.
        let ends: Vec<_> =
            tele.events().iter().filter(|e| e.name() == SPAN_END).collect();
        assert_eq!(ends[0].field("name"), Some(Value::Str("cache.hit")));
        assert_eq!(ends[0].field("dur"), Some(Value::U64(0)));
        assert_eq!(ends[0].time(), 5);
        // Disabled: no-op, no ids burned.
        let mut off = Telemetry::manual();
        assert_eq!(emit_marker_span(&mut off, "cache.hit"), None);
        assert!(off.events().is_empty());
    }

    #[test]
    fn disabled_tracing_emits_nothing() {
        let mut tele = Telemetry::manual(); // tracing off by default
        let g = SpanGuard::begin("x", &mut tele);
        g.end(&mut tele);
        assert!(tele.events().is_empty());
        let mut noop = NoopRecorder;
        let g = SpanGuard::begin("x", &mut noop);
        assert_eq!(g.context(), None);
        g.end(&mut noop);
    }

    #[test]
    fn identical_runs_allocate_identical_ids() {
        let run = || {
            let mut tele = Telemetry::manual().with_tracing(true);
            let a = SpanGuard::begin("a", &mut tele);
            let b = SpanGuard::begin("b", &mut tele);
            b.end(&mut tele);
            a.end(&mut tele);
            tele.to_jsonl()
        };
        assert_eq!(run(), run());
    }

    fn synth_trace(fr: &mut FlightRecorder, start: u64, dur: u64) -> u64 {
        let root_id = fr.reserve_span_ids(2);
        let root = TraceContext::root(root_id);
        emit_span(fr, "served.request", root, start, start + dur);
        root_id
    }

    #[test]
    fn flight_recorder_rings_and_counts() {
        let mut fr = FlightRecorder::new(3, 100, 1);
        for i in 0..5 {
            synth_trace(&mut fr, i * 10, i + 1);
        }
        assert_eq!(fr.completed_traces(), 5);
        let recent: Vec<u64> = fr.recent().map(|s| s.dur).collect();
        assert_eq!(recent, vec![3, 4, 5], "ring keeps only the newest 3");
    }

    #[test]
    fn tail_sampling_keeps_the_slowest_k_per_window() {
        let mut fr = FlightRecorder::new(4, 4, 2);
        // Window 1: durations 5, 1, 9, 3 → keep 9, 5.
        for d in [5, 1, 9, 3] {
            synth_trace(&mut fr, 0, d);
        }
        // Window 2: durations 2, 2, 8, 2 → keep 8, then the earlier 2.
        let mut ids = Vec::new();
        for d in [2, 2, 8, 2] {
            ids.push(synth_trace(&mut fr, 100, d));
        }
        let kept: Vec<(u64, u64)> = fr.slowest().map(|s| (s.dur, s.trace_id)).collect();
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].0, 9);
        assert_eq!(kept[1].0, 5);
        assert_eq!(kept[2].0, 8);
        // The duration-2 tie resolves to the smallest trace id.
        assert_eq!(kept[3], (2, ids[0]));
    }

    #[test]
    fn self_time_attributes_ticks_to_the_deepest_span() {
        let mut fr = FlightRecorder::default();
        let ids = fr.reserve_span_ids(3);
        let root = TraceContext::root(ids);
        let solve = root.child(ids + 1);
        let cache = solve.child(ids + 2);
        // Root [0,20] wraps solve [5,17] wraps cache [6,9]; ends are
        // emitted children-first, as every producer in this workspace does.
        fr.emit_at(0, SPAN_START, &span_fields("served.request", root, None));
        fr.emit_at(5, SPAN_START, &span_fields("econ.solve", solve, None));
        fr.emit_at(6, SPAN_START, &span_fields("cache.lookup", cache, None));
        fr.emit_at(9, SPAN_END, &span_fields("cache.lookup", cache, Some(3)));
        fr.emit_at(17, SPAN_END, &span_fields("econ.solve", solve, Some(12)));
        fr.emit_at(20, SPAN_END, &span_fields("served.request", root, Some(20)));
        assert_eq!(fr.layer_self_time("cache"), 3);
        assert_eq!(fr.layer_self_time("econ"), 9);
        assert_eq!(fr.layer_self_time("served"), 8);
        // Self times partition the root's duration exactly.
        let total: u64 = fr.layer_self_times().map(|(_, v)| v).sum();
        assert_eq!(total, 20);
    }

    fn span_fields(
        name: &'static str,
        ctx: TraceContext,
        dur: Option<u64>,
    ) -> Vec<(&'static str, Value)> {
        let mut fields = vec![
            ("name", Value::Str(name)),
            ("trace", Value::U64(ctx.trace_id)),
            ("span", Value::U64(ctx.span_id)),
            ("parent", Value::U64(ctx.parent_id)),
        ];
        if let Some(d) = dur {
            fields.push(("dur", Value::U64(d)));
        }
        fields
    }

    #[test]
    fn layer_of_strips_after_the_first_dot() {
        assert_eq!(layer_of("serve.task"), "serve");
        assert_eq!(layer_of("net.landmark.row"), "net");
        assert_eq!(layer_of("flat"), "flat");
    }
}
