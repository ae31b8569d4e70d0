//! The recording handle instrumented code writes through.

use crate::event::Value;
use crate::metrics::Histogram;
use crate::sketch::QuantileSketch;
use crate::trace::TraceContext;

/// The sink interface threaded through the solver, simulator and parallel
/// kernels as `&mut dyn Recorder`.
///
/// Every method has an empty default body, so a sink implements only what
/// it cares about. Hot loops guard *derived* measurements (norms, wall
/// timings) behind [`Recorder::is_enabled`] so that with a
/// [`NoopRecorder`] the instrumented path performs no extra arithmetic and
/// no allocation — the zero-allocation steady-state guarantee is preserved
/// by construction.
pub trait Recorder {
    /// Whether this sink actually records anything. Instrumented code may
    /// skip computing expensive measurements when this is `false`.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Sets the current virtual time in ticks; subsequent events are
    /// stamped with it. Wall-clocked sinks ignore this.
    fn set_time(&mut self, _tick: u64) {}

    /// Adds `delta` to counter `name`.
    fn incr(&mut self, _name: &'static str, _delta: u64) {}

    /// Sets gauge `name` to `value`.
    fn gauge(&mut self, _name: &'static str, _value: f64) {}

    /// Records `value` into histogram `name`.
    fn observe(&mut self, _name: &'static str, _value: f64) {}

    /// Declares histogram `name` with explicit bucket upper bounds, before
    /// its first observation. Sinks without histograms ignore this.
    fn register_histogram(&mut self, _name: &'static str, _bounds: &[f64]) {}

    /// Folds an already-aggregated [`Histogram`] into histogram `name` —
    /// the fan-in primitive used when per-shard registries are merged into
    /// an aggregate sink (see
    /// [`MetricsRegistry::replay_into`](crate::MetricsRegistry::replay_into)).
    /// Sinks without histograms ignore this.
    fn merge_histogram(&mut self, _name: &'static str, _other: &Histogram) {}

    /// Records `value` into quantile sketch `name`. Unlike
    /// [`Recorder::observe`], the sketch keeps bounded *relative* error
    /// over any value range, so it suits long-lived daemon sessions.
    /// Sinks without sketches ignore this.
    fn observe_sketch(&mut self, _name: &'static str, _value: f64) {}

    /// Declares sketch `name` with an explicit relative accuracy, before
    /// its first observation. Sinks without sketches ignore this.
    fn register_sketch(&mut self, _name: &'static str, _relative_accuracy: f64) {}

    /// Folds an already-aggregated [`QuantileSketch`] into sketch `name` —
    /// the fan-in primitive mirroring [`Recorder::merge_histogram`]. Sinks
    /// without sketches ignore this.
    fn merge_sketch(&mut self, _name: &'static str, _other: &QuantileSketch) {}

    /// Whether this sink keeps the events [`Recorder::emit`] hands it
    /// (other than span events, which [`Recorder::trace_enabled`] gates).
    /// Instrumented code may skip building an event's fields when it does
    /// not; counters, gauges and histograms are unaffected.
    fn keeps_events(&self) -> bool {
        self.is_enabled()
    }

    /// Emits a structured event.
    fn emit(&mut self, _name: &'static str, _fields: &[(&'static str, Value)]) {}

    /// Emits a structured event stamped with the explicit tick `t`,
    /// bypassing the monotone current-time clamp. Span synthesis uses this
    /// to write a reconstructed timeline whose events need not be in
    /// chronological file order. The default forwards through
    /// [`Recorder::set_time`] + [`Recorder::emit`], which is correct for
    /// metric-only sinks.
    fn emit_at(&mut self, t: u64, name: &'static str, fields: &[(&'static str, Value)]) {
        self.set_time(t);
        self.emit(name, fields);
    }

    /// Whether this sink wants span events. Tracing instrumentation —
    /// [`SpanGuard`](crate::SpanGuard), span synthesis — checks this
    /// before reserving ids or emitting anything, so sinks that leave the
    /// default `false` pay nothing.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Reserves `count` consecutive span ids and returns the first.
    /// Tracing sinks hand out ids from a deterministic per-sink counter
    /// starting at 1; the default returns 0 (the "no span" sentinel).
    fn reserve_span_ids(&mut self, _count: u64) -> u64 {
        0
    }

    /// The sink's current tick (virtual sinks) or elapsed nanoseconds
    /// (wall sinks). Span guards read this for start/end stamps; the
    /// default of 0 is fine for sinks that never trace.
    fn now(&self) -> u64 {
        0
    }

    /// The span context new spans should treat as their parent, if any.
    /// This is how causality propagates *through* the recorder: callers
    /// install a context, deeper layers inherit it without any signature
    /// changes.
    fn current_trace(&self) -> Option<TraceContext> {
        None
    }

    /// Installs (or clears) the current span context.
    fn set_current_trace(&mut self, _ctx: Option<TraceContext>) {}
}

/// The do-nothing sink: every method is the empty default and
/// [`Recorder::is_enabled`] is `false`. Passing `&mut NoopRecorder` is the
/// uninstrumented fast path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Fans one instrumentation stream out to two sinks.
///
/// The simulator uses this to feed its internal fault-summary registry and
/// a caller-provided sink from the same event stream.
pub struct Tee<'a> {
    a: &'a mut dyn Recorder,
    b: &'a mut dyn Recorder,
}

impl<'a> Tee<'a> {
    /// A recorder forwarding every call to both `a` and `b`.
    pub fn new(a: &'a mut dyn Recorder, b: &'a mut dyn Recorder) -> Self {
        Tee { a, b }
    }
}

impl Recorder for Tee<'_> {
    fn is_enabled(&self) -> bool {
        self.a.is_enabled() || self.b.is_enabled()
    }

    fn set_time(&mut self, tick: u64) {
        self.a.set_time(tick);
        self.b.set_time(tick);
    }

    fn incr(&mut self, name: &'static str, delta: u64) {
        self.a.incr(name, delta);
        self.b.incr(name, delta);
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.a.gauge(name, value);
        self.b.gauge(name, value);
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.a.observe(name, value);
        self.b.observe(name, value);
    }

    fn register_histogram(&mut self, name: &'static str, bounds: &[f64]) {
        self.a.register_histogram(name, bounds);
        self.b.register_histogram(name, bounds);
    }

    fn merge_histogram(&mut self, name: &'static str, other: &Histogram) {
        self.a.merge_histogram(name, other);
        self.b.merge_histogram(name, other);
    }

    fn observe_sketch(&mut self, name: &'static str, value: f64) {
        self.a.observe_sketch(name, value);
        self.b.observe_sketch(name, value);
    }

    fn register_sketch(&mut self, name: &'static str, relative_accuracy: f64) {
        self.a.register_sketch(name, relative_accuracy);
        self.b.register_sketch(name, relative_accuracy);
    }

    fn merge_sketch(&mut self, name: &'static str, other: &QuantileSketch) {
        self.a.merge_sketch(name, other);
        self.b.merge_sketch(name, other);
    }

    fn keeps_events(&self) -> bool {
        self.a.keeps_events() || self.b.keeps_events()
    }

    fn emit(&mut self, name: &'static str, fields: &[(&'static str, Value)]) {
        self.a.emit(name, fields);
        self.b.emit(name, fields);
    }

    fn emit_at(&mut self, t: u64, name: &'static str, fields: &[(&'static str, Value)]) {
        self.a.emit_at(t, name, fields);
        self.b.emit_at(t, name, fields);
    }

    fn trace_enabled(&self) -> bool {
        self.a.trace_enabled() || self.b.trace_enabled()
    }

    fn reserve_span_ids(&mut self, count: u64) -> u64 {
        // Both counters advance; the larger block start wins so an id is
        // never reused on the side that is further along. Sides that only
        // ever reserve through this tee stay in lockstep and agree.
        self.a.reserve_span_ids(count).max(self.b.reserve_span_ids(count))
    }

    fn now(&self) -> u64 {
        self.a.now().max(self.b.now())
    }

    fn current_trace(&self) -> Option<TraceContext> {
        self.a.current_trace().or_else(|| self.b.current_trace())
    }

    fn set_current_trace(&mut self, ctx: Option<TraceContext>) {
        self.a.set_current_trace(ctx);
        self.b.set_current_trace(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn noop_recorder_reports_disabled() {
        let noop = NoopRecorder;
        assert!(!noop.is_enabled());
        // And all calls are accepted silently.
        let r: &mut dyn Recorder = &mut NoopRecorder;
        r.set_time(1);
        r.incr("a", 1);
        r.gauge("b", 1.0);
        r.observe("c", 1.0);
        r.emit("d", &[("k", Value::U64(1))]);
    }

    #[test]
    fn tee_forwards_to_both_sinks() {
        let mut left = MetricsRegistry::new();
        let mut right = MetricsRegistry::new();
        {
            let mut tee = Tee::new(&mut left, &mut right);
            assert!(tee.is_enabled());
            tee.incr("hits", 2);
            tee.observe("lat", 1.0);
            tee.gauge("threads", 4.0);
        }
        for side in [&left, &right] {
            assert_eq!(side.counter("hits"), 2);
            assert_eq!(side.histogram("lat").unwrap().count(), 1);
            assert_eq!(side.gauge_value("threads"), Some(4.0));
        }
    }

    #[test]
    fn tee_forwards_sketches_to_both_sinks() {
        let mut left = MetricsRegistry::new();
        let mut right = MetricsRegistry::new();
        {
            let mut tee = Tee::new(&mut left, &mut right);
            tee.register_sketch("wait", 0.02);
            tee.observe_sketch("wait", 3.0);
            tee.observe_sketch("wait", 9.0);
        }
        for side in [&left, &right] {
            let sketch = side.sketch("wait").unwrap();
            assert_eq!(sketch.count(), 2);
            assert_eq!(sketch.relative_accuracy(), 0.02);
            assert_eq!(sketch.max(), 9.0);
        }
    }

    #[test]
    fn tee_of_noops_is_disabled() {
        let mut a = NoopRecorder;
        let mut b = NoopRecorder;
        let tee = Tee::new(&mut a, &mut b);
        assert!(!tee.is_enabled());
        assert!(!tee.trace_enabled());
    }

    #[test]
    fn tee_trace_state_spans_both_sides() {
        use crate::telemetry::Telemetry;
        let mut traced = Telemetry::manual().with_tracing(true);
        let mut registry = MetricsRegistry::new();
        let mut tee = Tee::new(&mut traced, &mut registry);
        assert!(tee.trace_enabled());
        // The registry side returns 0; the traced side's counter wins.
        assert_eq!(tee.reserve_span_ids(3), 1);
        assert_eq!(tee.reserve_span_ids(1), 4);
        let ctx = crate::trace::TraceContext::root(1);
        tee.set_current_trace(Some(ctx));
        assert_eq!(tee.current_trace(), Some(ctx));
        tee.set_current_trace(None);
        assert_eq!(tee.current_trace(), None);
    }
}
