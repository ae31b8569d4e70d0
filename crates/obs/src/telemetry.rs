//! The in-memory recorder: registry + event stream, for tests and examples.

use crate::clock::{Clock, WallClock};
use crate::event::{EventRecord, Value};
use crate::jsonl;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::recorder::Recorder;
use crate::sketch::QuantileSketch;
use crate::trace::TraceContext;

/// Where event timestamps come from.
#[derive(Debug, Clone)]
enum TimeSource {
    /// Nanoseconds since the sink was created. For benches and live runs.
    Wall(WallClock),
    /// A tick set explicitly via [`Recorder::set_time`] — the deterministic
    /// mode: the simulator and solver stamp events with their round /
    /// iteration counter, so recorded timelines are seed-reproducible.
    Manual(u64),
}

/// A [`Recorder`] that keeps everything: metrics in a
/// [`MetricsRegistry`], events in an in-memory `Vec` sink, rendered to
/// JSONL on demand.
///
/// Memory grows with every event, so no command records through it: the
/// product path is the streaming [`JsonlSink`](crate::JsonlSink), whose
/// bytes match [`Telemetry::to_jsonl`] for the same stream. Tests and
/// examples use this recorder to inspect what was recorded.
///
/// With [`Telemetry::manual`] all timestamps are virtual (driven by
/// [`Recorder::set_time`]) and the JSONL output of two identical seeded
/// runs is byte-identical. Use [`Telemetry::with_event_capacity`] to
/// preallocate the sink so steady-state recording allocates only when the
/// event count outgrows the reservation.
#[derive(Debug, Clone)]
pub struct Telemetry {
    registry: MetricsRegistry,
    events: Vec<EventRecord>,
    time: TimeSource,
    tracing: bool,
    next_span_id: u64,
    current: Option<TraceContext>,
}

impl Telemetry {
    /// A deterministic sink on virtual time starting at tick 0.
    pub fn manual() -> Self {
        Telemetry {
            registry: MetricsRegistry::new(),
            events: Vec::new(),
            time: TimeSource::Manual(0),
            tracing: false,
            next_span_id: 1,
            current: None,
        }
    }

    /// A wall-clocked sink (timestamps in nanoseconds since creation).
    /// [`Recorder::set_time`] calls are ignored.
    pub fn wall() -> Self {
        Telemetry {
            registry: MetricsRegistry::new(),
            events: Vec::new(),
            time: TimeSource::Wall(WallClock::new()),
            tracing: false,
            next_span_id: 1,
            current: None,
        }
    }

    /// Reserves space for `capacity` events up front, so recording up to
    /// that many allocates nothing beyond the initial reservation.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.events.reserve(capacity);
        self
    }

    /// Enables (or disables) tracing: span guards and span synthesis check
    /// [`Recorder::trace_enabled`] and only record through sinks that opt
    /// in, so existing metric-only exports are byte-unchanged by default.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// The current timestamp in ticks.
    pub fn now(&self) -> u64 {
        match &self.time {
            TimeSource::Wall(clock) => clock.now(),
            TimeSource::Manual(tick) => *tick,
        }
    }

    /// The metrics collected so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The events collected so far, in emission order.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// The sink's spare event capacity (reserved but unused slots) —
    /// exposed so allocation tests can assert recording stayed within the
    /// preallocated buffer.
    pub fn spare_event_capacity(&self) -> usize {
        self.events.capacity() - self.events.len()
    }

    /// Renders everything recorded as JSONL: one line per event in
    /// emission order, then one line per metric in registration order.
    /// Deterministic under virtual time — see [`Telemetry::manual`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            jsonl::write_event(&mut out, event);
        }
        jsonl::write_registry(&mut out, &self.registry);
        out
    }

    /// A human-readable end-of-run summary: the registry table plus the
    /// event count.
    pub fn summary(&self) -> String {
        let mut out = self.registry.summary();
        out.push_str(&format!("events   {:<34} {}\n", "(recorded)", self.events.len()));
        out
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::manual()
    }
}

impl Recorder for Telemetry {
    fn is_enabled(&self) -> bool {
        true
    }

    fn set_time(&mut self, tick: u64) {
        if let TimeSource::Manual(now) = &mut self.time {
            if tick > *now {
                *now = tick;
            }
        }
    }

    fn incr(&mut self, name: &'static str, delta: u64) {
        self.registry.incr(name, delta);
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.registry.gauge(name, value);
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.registry.observe(name, value);
    }

    fn register_histogram(&mut self, name: &'static str, bounds: &[f64]) {
        self.registry.register_histogram(name, bounds);
    }

    fn merge_histogram(&mut self, name: &'static str, other: &Histogram) {
        self.registry.merge_histogram(name, other);
    }

    fn observe_sketch(&mut self, name: &'static str, value: f64) {
        self.registry.observe_sketch(name, value);
    }

    fn register_sketch(&mut self, name: &'static str, relative_accuracy: f64) {
        self.registry.register_sketch(name, relative_accuracy);
    }

    fn merge_sketch(&mut self, name: &'static str, other: &QuantileSketch) {
        self.registry.merge_sketch(name, other);
    }

    fn emit(&mut self, name: &'static str, fields: &[(&'static str, Value)]) {
        let t = Telemetry::now(self);
        self.events.push(EventRecord::new(t, name, fields));
    }

    fn emit_at(&mut self, t: u64, name: &'static str, fields: &[(&'static str, Value)]) {
        // The event keeps the explicit stamp even when it lies before the
        // current tick — synthesized timelines are written after the fact.
        self.set_time(t);
        self.events.push(EventRecord::new(t, name, fields));
    }

    fn trace_enabled(&self) -> bool {
        self.tracing
    }

    fn reserve_span_ids(&mut self, count: u64) -> u64 {
        let first = self.next_span_id;
        self.next_span_id += count;
        first
    }

    fn now(&self) -> u64 {
        Telemetry::now(self)
    }

    fn current_trace(&self) -> Option<TraceContext> {
        self.current
    }

    fn set_current_trace(&mut self, ctx: Option<TraceContext>) {
        self.current = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_demo(tele: &mut Telemetry) {
        tele.set_time(3);
        tele.incr("demo.steps", 2);
        tele.observe("demo.latency_rounds", 1.0);
        tele.emit("round", &[("round", Value::U64(3)), ("fresh", Value::Bool(true))]);
    }

    #[test]
    fn manual_time_stamps_events_deterministically() {
        let mut tele = Telemetry::manual();
        record_demo(&mut tele);
        assert_eq!(tele.now(), 3);
        assert_eq!(tele.events().len(), 1);
        assert_eq!(tele.events()[0].time(), 3);
        assert_eq!(tele.registry().counter("demo.steps"), 2);
    }

    #[test]
    fn identical_recordings_render_identical_jsonl() {
        let mut a = Telemetry::manual();
        let mut b = Telemetry::manual();
        record_demo(&mut a);
        record_demo(&mut b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert!(a
            .to_jsonl()
            .contains(r#"{"t":3,"event":"round","round":3,"fresh":true}"#));
    }

    #[test]
    fn manual_time_never_moves_backwards() {
        let mut tele = Telemetry::manual();
        tele.set_time(5);
        tele.set_time(2);
        assert_eq!(tele.now(), 5);
    }

    #[test]
    fn preallocated_sink_does_not_grow_under_capacity() {
        let mut tele = Telemetry::manual().with_event_capacity(16);
        let spare = tele.spare_event_capacity();
        assert!(spare >= 16);
        for i in 0..16 {
            tele.emit("tick", &[("i", Value::U64(i))]);
        }
        assert_eq!(tele.spare_event_capacity(), spare - 16);
    }

    #[test]
    fn summary_mentions_events_and_metrics() {
        let mut tele = Telemetry::manual();
        record_demo(&mut tele);
        let s = tele.summary();
        assert!(s.contains("demo.steps"));
        assert!(s.contains("events"));
    }
}
