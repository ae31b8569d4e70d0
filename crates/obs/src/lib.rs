//! # fap-obs — structured telemetry for the file-allocation system
//!
//! The paper's algorithm is iterative and decentralized: its health is
//! visible only through per-iteration signals — utility monotonicity
//! (Theorem 1), the step-size stability margin (Theorem 2), active-set
//! churn from the "set A" projection, and, on an unreliable network, the
//! fault mix the channel injects. This crate is the substrate that makes
//! those signals observable without perturbing the thing being observed:
//!
//! * [`MetricsRegistry`] — counters, gauges, fixed-bucket [`Histogram`]s
//!   and log-bucketed [`QuantileSketch`]es, addressed by `&'static str`
//!   names. Lookup is a linear scan over a small vector, so steady-state
//!   updates allocate nothing. Sketches keep bounded *relative* quantile
//!   error over arbitrary value ranges and merge losslessly, which is what
//!   a long-lived daemon needs to keep p99 resolution across batches.
//! * [`Clock`] / [`WallClock`] / [`VirtualClock`] — pluggable time.
//!   Benches time with the wall clock; the deterministic simulator drives
//!   a virtual clock from its round counter, so recorded timelines are
//!   reproducible bit-for-bit.
//! * [`Timer`] and [`Span`] — lightweight span timing over any clock.
//! * [`Recorder`] — the handle the solver, simulator and parallel kernels
//!   record through. [`NoopRecorder`] compiles to nothing (every default
//!   method is empty and `is_enabled` returns `false`, letting hot paths
//!   skip even the measurement arithmetic); [`Tee`] fans one instrument
//!   stream out to two recorders.
//! * [`EventRecord`] — a structured event with a fixed-capacity inline
//!   field buffer (`Copy`, no per-event heap). [`JsonlSink`] renders each
//!   event to JSONL as it is emitted and hands it to any `io::Write`, with
//!   memory that stays flat however long the run: it is the sink every
//!   `fap` command records through. [`Telemetry`] keeps the events in
//!   memory instead and renders the same bytes with
//!   [`Telemetry::to_jsonl`]; it is the recorder tests inspect. [`jsonl`]
//!   also parses the format back, so `fap report` can replay a recorded
//!   run offline.
//! * [`TraceContext`] / [`SpanGuard`] / [`FlightRecorder`] — the causal
//!   tracing plane: deterministic
//!   `trace/span/parent` id triples from a per-sink counter, span
//!   guards that emit `span_start`/`span_end` events through any
//!   recorder (disarmed to nothing when
//!   [`Recorder::trace_enabled`] is off), and an always-on bounded
//!   flight recorder with slowest-k tail sampling and per-layer
//!   self-time accounting for long-lived daemons. `fap trace` parses
//!   the span stream back out of the same JSONL exports.
//!
//! Determinism contract: with a [`VirtualClock`] (or [`Telemetry::manual`])
//! and a seeded run, two identical runs produce byte-identical JSONL.
//! Everything in this crate is plain `std` — no external dependencies, not
//! even the vendored shims.
//!
//! ```
//! use fap_obs::{Recorder, Telemetry, Value};
//!
//! let mut tele = Telemetry::manual();
//! tele.set_time(3);
//! tele.incr("demo.steps", 2);
//! tele.observe("demo.latency_rounds", 1.0);
//! tele.emit("round", &[("round", Value::U64(3)), ("fresh", Value::Bool(true))]);
//! let jsonl = tele.to_jsonl();
//! assert!(jsonl.contains(r#"{"t":3,"event":"round","round":3,"fresh":true}"#));
//! assert_eq!(tele.registry().counter("demo.steps"), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod event;
pub mod jsonl;
mod metrics;
mod recorder;
mod sketch;
mod stream;
mod telemetry;
mod trace;

pub use clock::{Clock, Span, Timer, VirtualClock, WallClock};
pub use event::{EventRecord, Value, MAX_EVENT_FIELDS};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{NoopRecorder, Recorder, Tee};
pub use sketch::{
    QuantileSketch, DEFAULT_SKETCH_ACCURACY, MAX_SKETCH_ACCURACY, MIN_SKETCH_ACCURACY,
};
pub use stream::JsonlSink;
pub use telemetry::Telemetry;
pub use trace::{
    emit_marker_span, emit_span, emit_span_end, emit_span_start, layer_of, FlightRecorder,
    SpanGuard, TraceContext, TraceSummary, KEPT_WINDOWS, SPAN_END, SPAN_START,
};
