//! The JSONL sink: bounded-memory event export, the one product path for
//! telemetry.
//!
//! [`JsonlSink`] renders each event to JSONL as it is emitted, into one
//! reusable `String`, and hands the line straight to the underlying
//! [`io::Write`] (wrap a file in a `BufWriter` to batch the writes; use
//! [`io::sink`] to discard them). Metrics accumulate in a
//! [`MetricsRegistry`] (they are tiny), and [`JsonlSink::finish`] appends
//! the registry snapshot after the last event. Memory stays flat however
//! long the run: once the line buffer has grown to the longest line, a
//! steady stream of events allocates nothing.
//!
//! The layout is exactly what [`Telemetry::to_jsonl`](crate::Telemetry::to_jsonl)
//! renders for the same recorded stream; that in-memory recorder is the
//! test oracle the sink's bytes are pinned against (the tests below and
//! `tests/telemetry.rs`), so seeded runs stay byte-reproducible.

use std::io::{self, Write};

use crate::event::{EventRecord, Value};
use crate::jsonl;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::recorder::Recorder;
use crate::sketch::QuantileSketch;
use crate::trace::TraceContext;

/// A [`Recorder`] that streams events to an [`io::Write`] as JSONL, one
/// line per event as it is emitted, while metrics accumulate in an
/// internal [`MetricsRegistry`].
///
/// Timestamps are virtual ([`Recorder::set_time`]-driven, monotone), the
/// same deterministic mode as [`Telemetry::manual`](crate::Telemetry::manual).
/// I/O errors are deferred: recording never panics; the first error is
/// stored and reported by [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    registry: MetricsRegistry,
    buffer: String,
    tick: u64,
    events: u64,
    error: Option<io::Error>,
    tracing: bool,
    next_span_id: u64,
    current: Option<TraceContext>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            registry: MetricsRegistry::new(),
            buffer: String::new(),
            tick: 0,
            events: 0,
            error: None,
            tracing: false,
            next_span_id: 1,
            current: None,
        }
    }

    /// Enables (or disables) tracing, mirroring
    /// [`Telemetry::with_tracing`](crate::Telemetry::with_tracing): span
    /// instrumentation only records through sinks that opt in.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// The metrics collected so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Total events emitted so far.
    pub fn events_recorded(&self) -> u64 {
        self.events
    }

    /// A human-readable end-of-run summary: the registry table plus the
    /// event count, matching [`Telemetry::summary`](crate::Telemetry::summary).
    pub fn summary(&self) -> String {
        let mut out = self.registry.summary();
        out.push_str(&format!("events   {:<34} {}\n", "(recorded)", self.events));
        out
    }

    /// Hands the rendered buffer to the writer (unless an earlier write
    /// failed) and clears it for reuse.
    fn write_out(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.write_all(self.buffer.as_bytes()) {
                self.error = Some(e);
            }
        }
        self.buffer.clear();
    }

    /// Appends the registry snapshot (one line per metric, the same
    /// trailer [`Telemetry::to_jsonl`](crate::Telemetry::to_jsonl)
    /// renders), flushes the writer and returns it.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered anywhere in the sink's
    /// lifetime (recording itself never fails — errors are deferred here).
    pub fn finish(mut self) -> io::Result<W> {
        jsonl::write_registry(&mut self.buffer, &self.registry);
        self.write_out();
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> Recorder for JsonlSink<W> {
    fn is_enabled(&self) -> bool {
        true
    }

    fn set_time(&mut self, tick: u64) {
        if tick > self.tick {
            self.tick = tick;
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
        let t = self.tick;
        self.emit_at(t, name, fields);
    }

    fn emit_at(&mut self, t: u64, name: &'static str, fields: &[(&'static str, Value)]) {
        self.set_time(t);
        let record = EventRecord::new(t, name, fields);
        jsonl::write_event(&mut self.buffer, &record);
        self.events += 1;
        self.write_out();
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
        self.tick
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
    use crate::telemetry::Telemetry;

    /// Replays the same mixed stream into any recorder.
    fn record_stream(r: &mut dyn Recorder, events: u64) {
        for i in 0..events {
            r.set_time(i);
            r.incr("demo.steps", 1);
            r.observe("demo.latency_rounds", (i % 5) as f64);
            r.emit("round", &[("round", Value::U64(i)), ("ok", Value::Bool(i % 2 == 0))]);
        }
        r.emit("run_end", &[("iterations", Value::U64(events)), ("converged", Value::Bool(true))]);
    }

    #[test]
    fn streamed_bytes_equal_the_in_memory_export() {
        let mut buffered = Telemetry::manual();
        record_stream(&mut buffered, 100);
        let mut sink = JsonlSink::new(Vec::new());
        record_stream(&mut sink, 100);
        let bytes = sink.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), buffered.to_jsonl());
    }

    #[test]
    fn each_event_reaches_the_writer_when_emitted() {
        let mut sink = JsonlSink::new(Vec::new());
        for i in 0..1000u64 {
            sink.set_time(i);
            sink.emit("tick", &[("i", Value::U64(i))]);
            assert!(sink.buffer.is_empty(), "the line buffer drains on every event");
            assert!(sink.writer.ends_with(format!("\"i\":{i}}}\n").as_bytes()));
        }
        assert_eq!(sink.events_recorded(), 1000);
    }

    #[test]
    fn finish_appends_the_registry_snapshot() {
        let mut sink = JsonlSink::new(Vec::new());
        record_stream(&mut sink, 10);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(text.contains("{\"counter\":\"demo.steps\",\"value\":10}"));
        assert!(text.contains("\"hist\":\"demo.latency_rounds\""));
        // The registry trailer comes after the last event line.
        let counter_at = text.find("\"counter\"").unwrap();
        let last_event_at = text.rfind("\"event\"").unwrap();
        assert!(counter_at > last_event_at);
    }

    #[test]
    fn io_errors_are_deferred_to_finish() {
        #[derive(Debug)]
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.emit("tick", &[]);
        sink.emit("tick", &[]); // recording after the error is still safe
        let err = sink.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn summary_matches_the_in_memory_recorder() {
        let mut buffered = Telemetry::manual();
        let mut streamed = JsonlSink::new(Vec::new());
        record_stream(&mut buffered, 20);
        record_stream(&mut streamed, 20);
        assert_eq!(buffered.summary(), streamed.summary());
    }
}
