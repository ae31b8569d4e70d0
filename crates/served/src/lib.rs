//! # fap-served — the persistent serving daemon
//!
//! This crate is the one serving path: a [`Daemon`] that accepts
//! newline-delimited JSON envelopes on any line source, keeps the
//! expensive state alive *between* batches, and streams one JSON line per
//! outcome. `fap served` runs it for a whole session; one-shot
//! `fap serve` runs it for a session of one envelope,
//! `{"at":0,"batch":[...]}`, and prints the batch line. Across batches:
//!
//! * the [`SubstrateCache`] persists, so a topology seen in batch 1 is a
//!   `cache.hit` (dense matrix) or `cache.landmark_hit` (landmark oracle)
//!   in every later batch (both kinds bounded together by an optional
//!   byte budget, oldest entries evicted first);
//! * warm-start state persists per [`WarmMode`]: `batch` (the default)
//!   chains within each batch only (what `fap serve --warm-start` runs),
//!   `session` additionally carries each chain's converged allocation
//!   across batches through [`SessionSeeds`], and `off` serves cold;
//! * the [`BatchServer`] (workers sharing one task cursor) is constructed
//!   once and reused.
//!
//! ## The virtual clock and admission control
//!
//! The daemon runs on the same deterministic virtual clock as the chaos
//! simulator — a [`Reactor`] over integer ticks. Every envelope carries an
//! `at` tick (monotone; the reactor clamps the past); batches occupy one
//! of `c` virtual servers for `max(1, total solver iterations)` ticks, and
//! scripted `work` items for exactly their requested ticks. Arrivals drain
//! due completions first, so the whole session — responses, metrics,
//! shedding decisions — is a pure function of the input lines.
//!
//! On top of that clock sits the paper's own §4 queueing theory, turned on
//! the daemon itself: an [`AdmissionController`] fits an M/M/c model to
//! the *measured* inter-arrival and service ticks and predicts the mean
//! queueing wait `W_q = C(c, λ/μ)/(cμ − λ)` an arrival would see. When a
//! configured bound is exceeded the daemon sheds the request with a
//! 429-style line instead of queueing it — the microeconomic answer to
//! overload: refuse service whose price (wait) exceeds its worth.
//!
//! ## Protocol
//!
//! Input, one JSON object per line:
//!
//! ```text
//! {"at": 0, "batch": [ ...serve specs... ]}   submit a batch at tick 0
//! {"at": 7, "work": 12}                        occupy a server for 12 ticks
//! {"cmd": "status"}                            emit a status line
//! {"cmd": "metrics"}                           emit wait quantiles + layer self time
//! {"cmd": "drift", "nodes": 8, "epochs": 24}   run the drift-tracking loop
//! {"cmd": "shutdown"}                          drain and exit
//! ```
//!
//! Output, one JSON object per line (`kind` discriminates):
//!
//! ```text
//! {"id":0,"kind":"batch","arrived":0,"started":0,"completed":412,"wait":0,
//!  "ok":2,"err":0,"responses":[...]}
//! {"id":1,"kind":"work","arrived":7,"started":7,"completed":19,"wait":0}
//! {"id":2,"kind":"shed","status":429,"arrived":9,"predicted_wait":31.5,"bound":8.0}
//! {"kind":"status","now":19,...}
//! {"kind":"drift","scenario":"diurnal","nodes":8,"epochs":24,"tracked_regret":...}
//! {"kind":"error","message":"..."}
//! ```
//!
//! A `drift` command runs the online-reallocation control loop of
//! `fap_runtime::DriftRun` (optional fields `scenario`, `nodes`, `epochs`,
//! `seed`, `hysteresis`, `smoothing`, `migration_bandwidth`) and answers
//! with its regret summary. The run is priced from its fields before
//! anything is built; an oversized or malformed one gets an `error` line.
//! It runs on the calling thread between envelopes, outside the virtual
//! clock and admission control.
//!
//! The *content* of a batch line's `responses` is bit-identical to a
//! [`BatchServer::serve`] call on the same requests with no seed store and
//! the same warm flag: a cached cost matrix is the same bits Dijkstra
//! would recompute, and `batch` warm mode arms no cross-batch seeds.
//!
//! Batch syntax is pluggable through [`BatchParser`], so this crate stays
//! independent of the CLI's scenario format (the CLI supplies a parser
//! that understands its `ServeSpec` list; tests supply their own).
//!
//! ## Tracing
//!
//! Tracing is always on and always bounded: every accepted arrival mints a
//! `served.request` root span at ingestion (so cache hit/miss marker spans
//! attach to the request that caused them), gets a `served.queue` child
//! covering its wait, and either a `served.work` child or the serve
//! layer's synthesized `serve.batch` span tree for the solve. Shed
//! arrivals complete as zero-duration traces with a `served.shed` marker.
//! Span events are teed both to the caller's recorder (so a JSONL metrics
//! export replays offline under `fap trace`) and to an internal
//! [`FlightRecorder`] whose ring buffer and slowest-k tail sampling keep
//! memory bounded forever; `{"cmd":"metrics"}` reports its per-layer self
//! time alongside wait quantiles. Because all span timestamps are virtual
//! ticks derived from solver iteration counts, traced output — including
//! the span stream itself — is bit-identical run to run and identical at
//! every shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drift;

use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::time::Instant;

use serde::{Serialize, Sink, Value};

use fap_batch::Parallelism;
use fap_cache::SubstrateCache;
use fap_obs::{
    emit_span, emit_span_end, emit_span_start, FlightRecorder, MetricsRegistry, Recorder,
    Tee, TraceContext,
};
use fap_queue::{
    AdmissionController, QueueError, DEFAULT_ADMISSION_WARMUP, DEFAULT_ADMISSION_WINDOW,
};
use fap_runtime::Reactor;
use fap_serve::{BatchServer, ServeError, ServeRequest, ServeResponse, SessionSeeds};

/// How warm-start state behaves across the daemon's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmMode {
    /// Serve every batch cold (no chaining at all).
    Off,
    /// Chain within each batch only (`fap serve --warm-start`). The
    /// default.
    #[default]
    Batch,
    /// Chain within batches *and* seed each chain's head from the previous
    /// batch's converged tail ([`SessionSeeds`]).
    Session,
}

impl WarmMode {
    /// Parses `off` / `batch` / `session`.
    ///
    /// # Errors
    ///
    /// Returns the offending string for anything else.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "off" => Ok(WarmMode::Off),
            "batch" => Ok(WarmMode::Batch),
            "session" => Ok(WarmMode::Session),
            other => Err(format!("unknown warm mode '{other}' (expected off|batch|session)")),
        }
    }
}

/// Turns one envelope's `batch` value into solver-level requests. The
/// daemon resolves batch *syntax* through this trait so the wire format
/// stays a caller decision; the cache handed in is the daemon's persistent
/// [`SubstrateCache`] (dense cost matrices and landmark oracles under one
/// byte budget), and hits/misses are recorded into `recorder`.
pub trait BatchParser {
    /// Parses `batch` (the envelope's `batch` field) into requests.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message; the daemon reports it on an
    /// `error` line and drops the envelope without occupying a server.
    fn parse(
        &mut self,
        batch: &Value,
        cache: &mut SubstrateCache,
        recorder: &mut dyn Recorder,
    ) -> Result<Vec<ServeRequest>, String>;
}

impl<F> BatchParser for F
where
    F: FnMut(&Value, &mut SubstrateCache, &mut dyn Recorder) -> Result<Vec<ServeRequest>, String>,
{
    fn parse(
        &mut self,
        batch: &Value,
        cache: &mut SubstrateCache,
        recorder: &mut dyn Recorder,
    ) -> Result<Vec<ServeRequest>, String> {
        self(batch, cache, recorder)
    }
}

/// Static configuration of a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Shard pool handed to the [`BatchServer`].
    pub shards: Parallelism,
    /// Virtual service slots `c` for queueing and the M/M/c model.
    pub servers: u32,
    /// Warm-start behavior across batches.
    pub warm: WarmMode,
    /// Shed arrivals whose predicted mean wait exceeds this bound (ticks).
    /// `None` disables shedding.
    pub admission_bound: Option<f64>,
    /// Samples required before the admission model predicts.
    pub admission_warmup: u64,
    /// Sliding-window length of the admission rate estimators (most
    /// recent samples kept; the model forgets a workload shift after this
    /// many observations).
    pub admission_window: usize,
    /// Byte budget for the whole substrate cache, dense and landmark
    /// together (`None` = unbounded).
    pub cache_bytes: Option<u64>,
    /// Use wall-clock milliseconds instead of scripted `at` ticks.
    pub wall_clock: bool,
    /// Let the substrate cache repair cached landmark oracles across
    /// small topology edits (incremental dirty-frontier update) instead
    /// of rebuilding from scratch. This is what keeps a
    /// [`WarmMode::Session`] cache warm when the served topology drifts
    /// by an edge re-price or a node join/leave between batches.
    pub oracle_update: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            shards: Parallelism::Auto,
            servers: 1,
            warm: WarmMode::Batch,
            admission_bound: None,
            admission_warmup: DEFAULT_ADMISSION_WARMUP,
            admission_window: DEFAULT_ADMISSION_WINDOW,
            cache_bytes: None,
            wall_clock: false,
            oracle_update: false,
        }
    }
}

/// What [`Daemon::handle_line`] tells the caller to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonStatus {
    /// Keep feeding lines.
    Continue,
    /// A `shutdown` command was processed (the daemon already drained);
    /// stop feeding lines.
    Shutdown,
}

/// A job waiting for a free virtual server.
#[derive(Debug)]
struct Pending {
    id: u64,
    arrived: usize,
    kind: PendingKind,
    /// The request's trace root, minted at ingestion (`span_start` already
    /// emitted); [`Daemon::start`] attaches the queue/solve children and
    /// the root's `span_end` at the completion tick.
    trace: TraceContext,
}

#[derive(Debug)]
enum PendingKind {
    Batch(Vec<ServeRequest>),
    Work(usize),
}

/// A scheduled service completion: the fully rendered output line (the
/// completion tick is known at start time) plus the bookkeeping the
/// completion handler feeds back into the admission model.
#[derive(Debug)]
struct Completion {
    line: String,
    duration: usize,
    wait: usize,
}

/// The persistent serving daemon. See the crate docs for the protocol.
#[derive(Debug)]
pub struct Daemon<P> {
    parser: P,
    server: BatchServer,
    warm: WarmMode,
    cache: SubstrateCache,
    seeds: SessionSeeds,
    admission: AdmissionController,
    bound: Option<f64>,
    reactor: Reactor<Completion>,
    /// The input clock: the latest arrival tick seen. The reactor's own
    /// clock only advances when completions pop, so arrivals clamp against
    /// this instead (monotone input, no time travel).
    clock: usize,
    backlog: VecDeque<Pending>,
    busy: u32,
    servers: u32,
    next_id: u64,
    completed: u64,
    shed: u64,
    epoch: Option<Instant>,
    /// The daemon's own session metrics: every line's instrumentation is
    /// teed here as well as to the caller's recorder, so `status` and
    /// `metrics` lines can report counters and wait quantiles without
    /// owning the caller's sink.
    obs: MetricsRegistry,
    /// Always-on bounded tracing: every request becomes a `served.request`
    /// trace here (and, via the tee, in the caller's event stream).
    flight: FlightRecorder,
}

impl<P: BatchParser> Daemon<P> {
    /// Builds a daemon around `parser` with `config`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::InvalidParameter`] for zero servers.
    pub fn new(parser: P, config: &DaemonConfig) -> Result<Self, QueueError> {
        let admission = AdmissionController::new(config.servers)?
            .with_warmup(config.admission_warmup)
            .with_window(config.admission_window);
        let mut cache = SubstrateCache::new();
        cache.set_byte_limit(config.cache_bytes);
        Ok(Daemon {
            parser,
            server: BatchServer::new(config.shards)
                .with_warm_start(config.warm != WarmMode::Off),
            warm: config.warm,
            cache,
            seeds: SessionSeeds::new(),
            admission,
            bound: config.admission_bound,
            reactor: Reactor::new(),
            clock: 0,
            backlog: VecDeque::new(),
            busy: 0,
            servers: config.servers,
            next_id: 0,
            completed: 0,
            shed: 0,
            epoch: config.wall_clock.then(Instant::now),
            obs: MetricsRegistry::new(),
            flight: FlightRecorder::default(),
        })
    }

    /// The current virtual tick (the later of the input clock and the
    /// last completion).
    pub fn now(&self) -> usize {
        self.clock.max(self.reactor.now())
    }

    /// Jobs completed so far (batches and work items, not shed lines).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Arrivals shed by the admission controller so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The persistent cost-substrate cache (for inspection).
    pub fn cache(&self) -> &SubstrateCache {
        &self.cache
    }

    /// The daemon's always-on flight recorder: recently completed request
    /// traces, the tail-sampled slowest traces, and per-layer self time.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The daemon's own session metrics registry (every line's
    /// instrumentation lands here as well as in the caller's recorder).
    pub fn session_metrics(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// Feeds the daemon one input line and writes any output lines due at
    /// or before the line's tick. Blank lines are ignored.
    ///
    /// # Errors
    ///
    /// Only I/O errors from `out` propagate; malformed input is reported
    /// on an `error` output line and the daemon continues.
    pub fn handle_line(
        &mut self,
        line: &str,
        out: &mut dyn Write,
        recorder: &mut dyn Recorder,
    ) -> io::Result<DaemonStatus> {
        // The daemon's own sinks are moved out for the line so they can sit
        // on one side of a `Tee` while `self` methods run on the other —
        // the borrow checker cannot split fields across a `&mut self` call.
        let mut obs = std::mem::take(&mut self.obs);
        let mut flight = std::mem::take(&mut self.flight);
        let result = self.handle_line_inner(line, out, &mut obs, &mut flight, recorder);
        self.obs = obs;
        self.flight = flight;
        result
    }

    fn handle_line_inner(
        &mut self,
        line: &str,
        out: &mut dyn Write,
        obs: &mut MetricsRegistry,
        flight: &mut FlightRecorder,
        recorder: &mut dyn Recorder,
    ) -> io::Result<DaemonStatus> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(DaemonStatus::Continue);
        }
        {
            let mut ext = Tee::new(&mut *obs, &mut *recorder);
            let mut tee = Tee::new(&mut *flight, &mut ext);
            tee.incr("served.lines", 1);
        }
        let value = match serde_json::parse_value(line) {
            Ok(v) => v,
            Err(e) => {
                let mut ext = Tee::new(&mut *obs, &mut *recorder);
                let mut tee = Tee::new(&mut *flight, &mut ext);
                return self.error_line(out, &mut tee, None, &format!("bad JSON: {e}"));
            }
        };
        if let Some(cmd) = value.get("cmd") {
            return match cmd {
                Value::Str(c) if c == "shutdown" => {
                    {
                        let mut ext = Tee::new(&mut *obs, &mut *recorder);
                        let mut tee = Tee::new(&mut *flight, &mut ext);
                        self.drain_completions(out, &mut tee)?;
                    }
                    debug_assert!(self.backlog.is_empty(), "backlog drains as servers free");
                    let line = self.status_line();
                    writeln!(out, "{line}")?;
                    Ok(DaemonStatus::Shutdown)
                }
                Value::Str(c) if c == "status" => {
                    let line = self.status_line();
                    writeln!(out, "{line}")?;
                    Ok(DaemonStatus::Continue)
                }
                Value::Str(c) if c == "metrics" => {
                    let line = self.metrics_line(obs, flight);
                    writeln!(out, "{line}")?;
                    Ok(DaemonStatus::Continue)
                }
                Value::Str(c) if c == "drift" => match drift::respond(&value, recorder) {
                    Ok(line) => {
                        writeln!(out, "{line}")?;
                        Ok(DaemonStatus::Continue)
                    }
                    Err(msg) => {
                        let mut ext = Tee::new(&mut *obs, &mut *recorder);
                        let mut tee = Tee::new(&mut *flight, &mut ext);
                        self.error_line(out, &mut tee, None, &format!("drift: {msg}"))
                    }
                },
                other => {
                    let msg = format!("unknown cmd {}", serde_json::to_string(other).unwrap_or_default());
                    let mut ext = Tee::new(&mut *obs, &mut *recorder);
                    let mut tee = Tee::new(&mut *flight, &mut ext);
                    self.error_line(out, &mut tee, None, &msg)
                }
            };
        }
        let mut ext = Tee::new(&mut *obs, &mut *recorder);
        let mut tee = Tee::new(&mut *flight, &mut ext);
        let recorder: &mut dyn Recorder = &mut tee;
        let at = match self.arrival_tick(&value) {
            Ok(at) => at,
            Err(msg) => return self.error_line(out, recorder, None, &msg),
        };
        self.clock = at;
        self.advance_to(at, out, recorder)?;

        let id = self.next_id;
        self.next_id += 1;
        self.admission.record_arrival(at as u64);
        let predicted = self.admission.predicted_wait();
        if let Some(w) = predicted {
            recorder.gauge("served.predicted_wait", w);
        }
        if let (Some(bound), Some(w)) = (self.bound, predicted) {
            if w > bound {
                self.shed += 1;
                recorder.incr("served.shed", 1);
                // A shed request is still a (zero-duration) trace: the
                // flight recorder and any export see the refusal.
                recorder.set_time(at as u64);
                let first = recorder.reserve_span_ids(2);
                let root = TraceContext::root(first);
                emit_span_start(recorder, "served.request", root, at as u64);
                emit_span(recorder, "served.shed", root.child(first + 1), at as u64, at as u64);
                emit_span_end(recorder, "served.request", root, at as u64, 0);
                let line = render(&[
                    ("id", &id),
                    ("kind", &"shed"),
                    ("status", &429),
                    ("arrived", &at),
                    ("predicted_wait", &finite_or_inf(w)),
                    ("bound", &bound),
                ]);
                writeln!(out, "{line}")?;
                return Ok(DaemonStatus::Continue);
            }
        }

        // Mint the request's trace at ingestion and install it as the
        // current context for the parse, so substrate spans (cache hits
        // and misses) attach as children at the arrival tick.
        recorder.set_time(at as u64);
        let trace = TraceContext::root(recorder.reserve_span_ids(1));
        emit_span_start(recorder, "served.request", trace, at as u64);
        recorder.set_current_trace(Some(trace));
        let kind = if let Some(batch) = value.get("batch") {
            self.parser.parse(batch, &mut self.cache, recorder).map(PendingKind::Batch)
        } else if let Some(work) = value.get("work") {
            as_tick(work)
                .ok_or_else(|| "'work' must be a non-negative integer tick count".to_string())
                .and_then(|t| within_horizon("work", t))
                .map(|t| PendingKind::Work(t.max(1)))
        } else {
            Err("envelope needs 'batch', 'work' or 'cmd'".to_string())
        };
        recorder.set_current_trace(None);
        let kind = match kind {
            Ok(kind) => kind,
            Err(msg) => {
                // Close the trace zero-width so every minted root completes.
                emit_span_end(recorder, "served.request", trace, at as u64, 0);
                return self.error_line(out, recorder, Some(id), &msg);
            }
        };

        self.dispatch(Pending { id, arrived: at, kind, trace }, recorder);
        Ok(DaemonStatus::Continue)
    }

    /// Runs the daemon over a whole line source: every line through
    /// [`Daemon::handle_line`], then a drain at EOF (an explicit
    /// `shutdown` line drains too and stops early).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `input` and `out`.
    pub fn run<R: BufRead>(
        &mut self,
        input: R,
        out: &mut dyn Write,
        recorder: &mut dyn Recorder,
    ) -> io::Result<()> {
        for line in input.lines() {
            if self.handle_line(&line?, out, recorder)? == DaemonStatus::Shutdown {
                return Ok(());
            }
        }
        self.finish(out, recorder)
    }

    /// Drains every queued and in-flight job, emitting their lines, then a
    /// final `status` line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn finish(
        &mut self,
        out: &mut dyn Write,
        recorder: &mut dyn Recorder,
    ) -> io::Result<()> {
        let mut obs = std::mem::take(&mut self.obs);
        let mut flight = std::mem::take(&mut self.flight);
        let drained = {
            let mut ext = Tee::new(&mut obs, recorder);
            let mut tee = Tee::new(&mut flight, &mut ext);
            self.drain_completions(out, &mut tee)
        };
        self.obs = obs;
        self.flight = flight;
        drained?;
        debug_assert!(self.backlog.is_empty(), "backlog drains as servers free");
        let line = self.status_line();
        writeln!(out, "{line}")?;
        Ok(())
    }

    /// Pops every remaining completion, emitting its line.
    fn drain_completions(
        &mut self,
        out: &mut dyn Write,
        recorder: &mut dyn Recorder,
    ) -> io::Result<()> {
        while let Some(completion) = self.reactor.pop_next() {
            let tick = self.reactor.now();
            self.complete(tick, completion, out, recorder)?;
        }
        Ok(())
    }

    /// The arrival tick of an envelope: scripted `at` in virtual mode,
    /// elapsed milliseconds in wall mode. Always clamped monotone.
    fn arrival_tick(&self, value: &Value) -> Result<usize, String> {
        let at = match &self.epoch {
            Some(epoch) => epoch.elapsed().as_millis() as usize,
            None => match value.get("at") {
                Some(v) => as_tick(v)
                    .ok_or_else(|| "'at' must be a non-negative integer tick".to_string())
                    .and_then(|at| within_horizon("at", at))?,
                None => return Err("envelope needs an 'at' tick (virtual clock)".into()),
            },
        };
        Ok(at.max(self.clock))
    }

    /// Pops and handles every completion due at or before `at`.
    fn advance_to(
        &mut self,
        at: usize,
        out: &mut dyn Write,
        recorder: &mut dyn Recorder,
    ) -> io::Result<()> {
        while self.reactor.next_tick().is_some_and(|t| t <= at) {
            let completion = self.reactor.pop_next().expect("next_tick promised an event");
            let tick = self.reactor.now();
            self.complete(tick, completion, out, recorder)?;
        }
        Ok(())
    }

    /// Starts `pending` at its arrival tick if a server is free, else
    /// queues it FIFO. (All completions at or before the arrival were
    /// drained first, so a free server means a zero-wait start.)
    fn dispatch(&mut self, pending: Pending, recorder: &mut dyn Recorder) {
        if self.busy < self.servers {
            let started = pending.arrived;
            self.start(pending, started, recorder);
        } else {
            self.backlog.push_back(pending);
        }
    }

    /// Occupies a server: solves the job, renders its output line (the
    /// completion tick is `started + duration`, known now), and schedules
    /// the completion on the reactor. The completion tick saturates at
    /// `usize::MAX`, so arrived ≤ started ≤ completed however long the
    /// backlog grows.
    fn start(&mut self, pending: Pending, started: usize, recorder: &mut dyn Recorder) {
        self.busy += 1;
        let Pending { id, arrived, kind, trace } = pending;
        let wait = started - arrived;
        // The queue child spans [arrived, started] — zero width on an
        // immediate start, the observed wait otherwise.
        let qid = recorder.reserve_span_ids(1);
        emit_span(recorder, "served.queue", trace.child(qid), arrived as u64, started as u64);
        let (duration, line) = match kind {
            PendingKind::Work(ticks) => {
                recorder.incr("served.work", 1);
                let completed = started.saturating_add(ticks);
                let wid = recorder.reserve_span_ids(1);
                emit_span(
                    recorder,
                    "served.work",
                    trace.child(wid),
                    started as u64,
                    completed as u64,
                );
                let line = render(&[
                    ("id", &id),
                    ("kind", &"work"),
                    ("arrived", &arrived),
                    ("started", &started),
                    ("completed", &completed),
                    ("wait", &wait),
                ]);
                (ticks, line)
            }
            PendingKind::Batch(requests) => {
                recorder.incr("served.batches", 1);
                // The serve layer synthesizes its `serve.batch` span tree
                // as a child of the installed request context, starting at
                // the recorder's current tick.
                recorder.set_time(started as u64);
                recorder.set_current_trace(Some(trace));
                let seeds = (self.warm == WarmMode::Session).then_some(&mut self.seeds);
                let output = self.server.serve(&requests, seeds, recorder);
                recorder.set_current_trace(None);
                let iterations: usize = output
                    .responses
                    .iter()
                    .filter_map(|r| r.as_ref().ok().map(|x| x.iterations()))
                    .sum();
                let duration = iterations.max(1);
                let completed = started.saturating_add(duration);
                let line = render(&[
                    ("id", &id),
                    ("kind", &"batch"),
                    ("arrived", &arrived),
                    ("started", &started),
                    ("completed", &completed),
                    ("wait", &wait),
                    ("ok", &output.ok_count()),
                    ("err", &output.err_count()),
                    ("responses", &Responses(&output.responses)),
                ]);
                (duration, line)
            }
        };
        let completed = started.saturating_add(duration);
        emit_span_end(
            recorder,
            "served.request",
            trace,
            completed as u64,
            (completed - arrived) as u64,
        );
        self.reactor.schedule(completed, Completion { line, duration, wait });
    }

    /// Handles one service completion: frees the server, feeds the
    /// admission model, emits the job's line, and starts the next queued
    /// job (at the completion tick) if any.
    fn complete(
        &mut self,
        tick: usize,
        completion: Completion,
        out: &mut dyn Write,
        recorder: &mut dyn Recorder,
    ) -> io::Result<()> {
        self.busy -= 1;
        self.completed += 1;
        self.admission.record_service(completion.duration as f64);
        recorder.observe("served.wait", completion.wait as f64);
        recorder.observe_sketch("served.wait", completion.wait as f64);
        writeln!(out, "{}", completion.line)?;
        if self.busy < self.servers {
            if let Some(pending) = self.backlog.pop_front() {
                self.start(pending, tick, recorder);
            }
        }
        Ok(())
    }

    /// The `{"cmd":"status"}` line. It renders only state that is a function
    /// of the input alone, never anything that depends on which worker
    /// thread solved what.
    fn status_line(&self) -> String {
        let predicted = match self.admission.predicted_wait() {
            Some(w) => finite_or_inf(w),
            None => Value::Null,
        };
        render(&[
            ("kind", &"status"),
            ("now", &self.now()),
            ("busy", &self.busy),
            ("backlog", &self.backlog.len()),
            ("completed", &self.completed),
            ("shed", &self.shed),
            ("seeds", &self.seeds.len()),
            ("cache_entries", &self.cache.len()),
            ("cache_hits", &self.cache.hits()),
            ("cache_misses", &self.cache.misses()),
            ("cache_bytes", &self.cache.bytes()),
            ("predicted_wait", &predicted),
        ])
    }

    /// The `{"cmd":"metrics"}` line: session wait quantiles from the
    /// daemon's own [`QuantileSketch`](fap_obs::QuantileSketch), per-layer
    /// self-time from the flight recorder, and trace totals.
    fn metrics_line(&self, obs: &MetricsRegistry, flight: &FlightRecorder) -> String {
        let (p50, p90, p99) = match obs.sketch("served.wait") {
            Some(s) if s.count() > 0 => {
                (s.quantile(0.5), s.quantile(0.9), s.quantile(0.99))
            }
            _ => (0.0, 0.0, 0.0),
        };
        let layers: Vec<(String, Value)> = flight
            .layer_self_times()
            .map(|(layer, ticks)| (layer.to_string(), Value::UInt(ticks)))
            .collect();
        render(&[
            ("kind", &"metrics"),
            ("now", &self.now()),
            ("completed", &self.completed),
            ("shed", &self.shed),
            ("wait_p50", &p50),
            ("wait_p90", &p90),
            ("wait_p99", &p99),
            ("self_ticks", &Value::Map(layers)),
            ("traces", &flight.completed_traces()),
            ("spans_dropped", &flight.dropped_spans()),
        ])
    }

    fn error_line(
        &mut self,
        out: &mut dyn Write,
        recorder: &mut dyn Recorder,
        id: Option<u64>,
        message: &str,
    ) -> io::Result<DaemonStatus> {
        recorder.incr("served.errors", 1);
        let mut fields: Vec<(&str, &dyn Serialize)> = vec![("kind", &"error")];
        if let Some(id) = &id {
            fields.push(("id", id));
        }
        fields.push(("message", &message));
        let line = render(&fields);
        writeln!(out, "{line}")?;
        Ok(DaemonStatus::Continue)
    }
}

/// JSON has no infinity literal: an unbounded predicted wait renders as
/// the string `"inf"`.
fn finite_or_inf(w: f64) -> Value {
    if w.is_finite() {
        Value::Float(w)
    } else {
        Value::Str("inf".into())
    }
}

/// The largest `at` tick and `work` length an envelope may name: up to
/// 2⁵³ a tick stays exact as the `f64` service time the admission model
/// reads, and a bounded arrival keeps the clock arithmetic far from
/// `usize::MAX`.
const MAX_TICK: u64 = 1 << 53;

/// Refuses a `field` tick past [`MAX_TICK`].
fn within_horizon(field: &str, tick: usize) -> Result<usize, String> {
    if tick as u64 > MAX_TICK {
        Err(format!("'{field}' {tick} exceeds the virtual-clock horizon {MAX_TICK}"))
    } else {
        Ok(tick)
    }
}

/// Reads a non-negative integer tick out of a JSON value.
fn as_tick(value: &Value) -> Option<usize> {
    match value {
        Value::Int(i) if *i >= 0 => Some(*i as usize),
        Value::UInt(u) => Some(*u as usize),
        _ => None,
    }
}

/// Streams an insertion-ordered field list into one JSON object line.
fn render(fields: &[(&str, &dyn Serialize)]) -> String {
    serde_json::to_string(&Fields(fields)).expect("daemon lines hold only finite floats")
}

/// A field list serialized as one JSON object.
struct Fields<'a>(&'a [(&'a str, &'a dyn Serialize)]);

impl Serialize for Fields<'_> {
    fn serialize(&self, sink: &mut dyn Sink) {
        sink.begin_map();
        for (key, value) in self.0 {
            sink.key(key);
            value.serialize(sink);
        }
        sink.end_map();
    }
}

/// A batch's responses in submission order; a failed request renders as
/// `{"error": message}`.
struct Responses<'a>(&'a [Result<ServeResponse, ServeError>]);

impl Serialize for Responses<'_> {
    fn serialize(&self, sink: &mut dyn Sink) {
        sink.begin_seq();
        for response in self.0 {
            match response {
                Ok(response) => response.serialize(sink),
                Err(e) => {
                    sink.begin_map();
                    sink.key("error");
                    sink.str(e.message());
                    sink.end_map();
                }
            }
        }
        sink.end_seq();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_cache::CostBackend;
    use fap_core::SingleFileProblem;
    use fap_net::{topology, AccessPattern};
    use fap_obs::MetricsRegistry;

    /// A test parser: `batch` is an array of seeds, each becoming one
    /// single-file request over a shared 5-ring (every batch after the
    /// first hits the daemon's cache).
    fn seed_parser(
    ) -> impl FnMut(&Value, &mut SubstrateCache, &mut dyn Recorder) -> Result<Vec<ServeRequest>, String>
    {
        |batch, cache, recorder| {
            let Value::Array(items) = batch else {
                return Err("batch must be an array".into());
            };
            let graph = topology::ring(5, 1.0).map_err(|e| e.to_string())?;
            let costs = cache
                .get_or_build(&graph, CostBackend::Dense, recorder)
                .map_err(|e| e.to_string())?;
            items
                .iter()
                .map(|item| {
                    let seed = as_tick(item).ok_or("seeds must be integers")? as u64;
                    let pattern =
                        AccessPattern::random(5, 0.2..0.6, seed).map_err(|e| e.to_string())?;
                    let problem = SingleFileProblem::mm1_with_provider(costs, &pattern, 4.0, 1.0)
                        .map_err(|e| e.to_string())?;
                    Ok(ServeRequest::SingleFile {
                        problem,
                        initial: vec![0.2; 5],
                        alpha: 0.1,
                        epsilon: 1e-6,
                        max_iterations: 100_000,
                        topology: None,
                    })
                })
                .collect()
        }
    }

    /// A test parser mixing both substrate kinds: every batch is one dense
    /// and one landmark single-file request over the same 16-ring.
    fn mixed_parser(
    ) -> impl FnMut(&Value, &mut SubstrateCache, &mut dyn Recorder) -> Result<Vec<ServeRequest>, String>
    {
        |_batch, cache, recorder| {
            let graph = topology::ring(16, 1.0).map_err(|e| e.to_string())?;
            let pattern = AccessPattern::uniform(16, 0.05).map_err(|e| e.to_string())?;
            [CostBackend::Dense, CostBackend::Landmark { landmarks: 4, seed: 1 }]
                .into_iter()
                .map(|backend| {
                    let costs =
                        cache.get_or_build(&graph, backend, recorder).map_err(|e| e.to_string())?;
                    let problem = SingleFileProblem::mm1_with_provider(costs, &pattern, 4.0, 1.0)
                        .map_err(|e| e.to_string())?;
                    Ok(ServeRequest::SingleFile {
                        problem,
                        initial: vec![1.0 / 16.0; 16],
                        alpha: 0.1,
                        epsilon: 1e-6,
                        max_iterations: 100_000,
                        topology: None,
                    })
                })
                .collect()
        }
    }

    fn daemon(config: &DaemonConfig) -> Daemon<impl BatchParser> {
        Daemon::new(seed_parser(), config).unwrap()
    }

    fn drive(daemon: &mut Daemon<impl BatchParser>, lines: &[&str]) -> (String, MetricsRegistry) {
        let mut out = Vec::new();
        let mut registry = MetricsRegistry::new();
        let input = lines.join("\n");
        daemon.run(input.as_bytes(), &mut out, &mut registry).unwrap();
        (String::from_utf8(out).unwrap(), registry)
    }

    #[test]
    fn a_session_is_deterministic_byte_for_byte() {
        let lines =
            ["{\"at\":0,\"batch\":[1,2]}", "{\"at\":5,\"batch\":[3]}", "{\"cmd\":\"shutdown\"}"];
        let config = DaemonConfig::default();
        let (a, _) = drive(&mut daemon(&config), &lines);
        let (b, _) = drive(&mut daemon(&config), &lines);
        assert_eq!(a, b);
        assert!(a.lines().count() >= 3, "two batch lines and a status line");
    }

    #[test]
    fn cache_hits_rise_after_the_first_batch() {
        let config = DaemonConfig::default();
        let mut d = daemon(&config);
        let (_, registry) = drive(
            &mut d,
            &["{\"at\":0,\"batch\":[1]}", "{\"at\":1000,\"batch\":[2]}", "{\"at\":2000,\"batch\":[3]}"],
        );
        assert_eq!(registry.counter("cache.miss"), 1, "one distinct topology");
        assert_eq!(registry.counter("cache.hit"), 2, "later batches reuse it");
        assert_eq!(registry.counter("served.batches"), 3);
    }

    #[test]
    fn work_items_queue_fifo_on_one_server_and_waits_are_recorded() {
        let mut d = daemon(&DaemonConfig::default());
        let (out, registry) = drive(
            &mut d,
            &[
                "{\"at\":0,\"work\":10}",
                "{\"at\":2,\"work\":5}",
                "{\"cmd\":\"shutdown\"}",
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        // First job: 0..10; second arrives at 2, waits 8, runs 10..15.
        assert!(lines[0].contains("\"id\":0") && lines[0].contains("\"completed\":10"));
        assert!(
            lines[1].contains("\"started\":10")
                && lines[1].contains("\"completed\":15")
                && lines[1].contains("\"wait\":8"),
            "{}",
            lines[1]
        );
        let wait = registry.histogram("served.wait").unwrap();
        assert_eq!(wait.count(), 2);
        let sketch = registry.sketch("served.wait").unwrap();
        assert_eq!(sketch.count(), 2);
        assert_eq!(sketch.max(), 8.0);
    }

    #[test]
    fn two_servers_run_work_concurrently() {
        let config = DaemonConfig { servers: 2, ..DaemonConfig::default() };
        let mut d = daemon(&config);
        let (out, _) = drive(
            &mut d,
            &["{\"at\":0,\"work\":10}", "{\"at\":2,\"work\":5}", "{\"cmd\":\"shutdown\"}"],
        );
        // Second job starts immediately on server 2 and finishes first.
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"id\":1") && lines[0].contains("\"completed\":7"), "{}", lines[0]);
        assert!(lines[1].contains("\"id\":0") && lines[1].contains("\"completed\":10"));
    }

    #[test]
    fn overload_sheds_with_a_429_line_once_warmed_up() {
        let config = DaemonConfig {
            admission_bound: Some(2.0),
            admission_warmup: 2,
            ..DaemonConfig::default()
        };
        let mut d = daemon(&config);
        // Work of 10 ticks arriving every 4 ticks on one server: λ̂ = 0.25,
        // μ̂ = 0.1 — over capacity once two services have completed (at
        // tick 20, i.e. from the sixth arrival on).
        let lines: Vec<String> =
            (0..8u64).map(|k| format!("{{\"at\":{},\"work\":10}}", 4 * k)).collect();
        let mut refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        refs.push("{\"cmd\":\"shutdown\"}");
        let (out, registry) = drive(&mut d, &refs);
        assert!(d.shed() > 0, "the admission bound must engage");
        assert_eq!(registry.counter("served.shed"), d.shed());
        assert!(out.contains("\"status\":429"));
        assert!(out.contains("\"predicted_wait\""));
        // Warmup: the first two arrivals can never shed.
        assert!(!out.lines().next().unwrap().contains("shed"));
    }

    #[test]
    fn drift_commands_answer_with_a_summary_line_and_metrics() {
        let line = "{\"cmd\":\"drift\",\"scenario\":\"diurnal\",\"nodes\":5,\"epochs\":8}";
        let (out, registry) = drive(&mut daemon(&DaemonConfig::default()), &[line]);
        let drift = out.lines().next().unwrap();
        assert!(drift.starts_with("{\"kind\":\"drift\",\"scenario\":\"diurnal\""), "{drift}");
        assert!(drift.contains("\"nodes\":5,\"epochs\":8"), "{drift}");
        assert!(drift.contains("\"regret_ratio\":"), "{drift}");
        assert_eq!(registry.counter("track.epochs"), 8);
        assert_eq!(registry.counter("served.errors"), 0);
        // Identical lines answer byte-identically.
        let (again, _) = drive(&mut daemon(&DaemonConfig::default()), &[line]);
        assert_eq!(out, again);
    }

    #[test]
    fn bad_drift_fields_are_error_lines() {
        let (out, registry) = drive(
            &mut daemon(&DaemonConfig::default()),
            &[
                "{\"cmd\":\"drift\",\"scenario\":\"teleport\"}",
                "{\"cmd\":\"drift\",\"scenario\":3}",
                "{\"cmd\":\"drift\",\"nodes\":\"8\"}",
                "{\"cmd\":\"drift\",\"epochs\":-1}",
                "{\"cmd\":\"drift\",\"seed\":1.5}",
                "{\"cmd\":\"drift\",\"hysteresis\":\"high\"}",
                "{\"cmd\":\"drift\",\"smoothing\":-1}",
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        let expected = [
            "unknown scenario 'teleport'",
            "scenario must be a string label",
            "'nodes' must be a non-negative integer",
            "'epochs' must be a non-negative integer",
            "'seed' must be a non-negative integer",
            "'hysteresis' must be a number",
            "smoothing -1 must be positive and finite",
        ];
        for (line, message) in lines.iter().zip(expected) {
            assert!(line.starts_with("{\"kind\":\"error\",\"message\":\"drift: "), "{line}");
            assert!(line.contains(message), "{line} lacks {message}");
        }
        assert_eq!(registry.counter("served.errors"), expected.len() as u64);
        assert_eq!(registry.counter("track.epochs"), 0);
    }

    #[test]
    fn malformed_lines_produce_error_lines_and_the_daemon_survives() {
        let mut d = daemon(&DaemonConfig::default());
        let (out, registry) = drive(
            &mut d,
            &[
                "not json",
                "{\"at\":0}",
                "{\"batch\":[1]}",
                "{\"at\":0,\"work\":-3}",
                "{\"at\":0,\"batch\":7}",
                "{\"cmd\":\"reboot\"}",
                "{\"at\":3,\"batch\":[1]}",
                "{\"cmd\":\"shutdown\"}",
            ],
        );
        assert_eq!(registry.counter("served.errors"), 6);
        assert_eq!(out.matches("\"kind\":\"error\"").count(), 6);
        // The good batch still served.
        assert_eq!(registry.counter("served.batches"), 1);
        assert!(out.contains("\"kind\":\"batch\""));
    }

    #[test]
    fn a_deeply_nested_line_is_an_error_not_a_stack_overflow() {
        let depth = 200_000;
        let deep = format!("{{\"at\":0,\"batch\":{}{}}}", "[".repeat(depth), "]".repeat(depth));
        let mut d = daemon(&DaemonConfig::default());
        let (out, registry) = drive(&mut d, &[&deep, "{\"cmd\":\"status\"}"]);
        // The error line, the status line, then the end-of-input status.
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(
            lines[0].contains("\"kind\":\"error\"")
                && lines[0].contains("bad JSON: recursion limit exceeded"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"kind\":\"status\""), "{}", lines[1]);
        assert_eq!(registry.counter("served.errors"), 1);
    }

    #[test]
    fn status_lines_report_live_state() {
        let mut d = daemon(&DaemonConfig::default());
        let (out, _) = drive(
            &mut d,
            &[
                "{\"at\":0,\"work\":10}",
                "{\"at\":1,\"work\":3}",
                "{\"cmd\":\"status\"}",
                "{\"cmd\":\"shutdown\"}",
            ],
        );
        let status = out.lines().find(|l| l.contains("\"kind\":\"status\"")).unwrap();
        assert!(status.contains("\"busy\":1") && status.contains("\"backlog\":1"), "{status}");
        // The final (post-drain) status shows everything completed.
        let last = out.lines().last().unwrap();
        assert!(last.contains("\"completed\":2") && last.contains("\"backlog\":0"), "{last}");
    }

    #[test]
    fn session_warm_mode_counts_warm_starts_for_later_batch_heads() {
        // The same workload arriving over and over — once seeded, each
        // later batch re-solves from its own converged optimum.
        let lines = [
            "{\"at\":0,\"batch\":[1]}",
            "{\"at\":100000,\"batch\":[1]}",
            "{\"at\":200000,\"batch\":[1]}",
        ];
        let batch_cfg = DaemonConfig::default();
        let (_, batch_reg) = drive(&mut daemon(&batch_cfg), &lines);
        // Batch mode: three singleton chains, no seeding at all.
        assert_eq!(batch_reg.counter("serve.warm_starts"), 0);
        let session_cfg = DaemonConfig { warm: WarmMode::Session, ..DaemonConfig::default() };
        let (_, session_reg) = drive(&mut daemon(&session_cfg), &lines);
        // Session mode: batches 2 and 3 start from the previous tail.
        assert_eq!(session_reg.counter("serve.warm_starts"), 2);
        assert!(
            session_reg.counter("econ.iterations") < batch_reg.counter("econ.iterations"),
            "session seeding must save iterations"
        );
    }

    #[test]
    fn batch_mode_responses_match_a_one_shot_warm_server() {
        // The daemon's batch line must embed exactly the responses a
        // one-shot warm BatchServer produces for the same requests.
        let mut cache = SubstrateCache::new();
        let requests =
            seed_parser()(&Value::Array(vec![Value::Int(1), Value::Int(2)]), &mut cache, &mut fap_obs::NoopRecorder)
                .unwrap();
        let oneshot = BatchServer::new(Parallelism::Auto)
            .with_warm_start(true)
            .serve(&requests, None, &mut fap_obs::NoopRecorder);
        let expected: Vec<Value> =
            oneshot.responses.iter().map(|r| r.as_ref().unwrap().serialize_value()).collect();
        let expected_json =
            serde_json::to_string(&Value::Array(expected)).unwrap();

        let mut d = daemon(&DaemonConfig::default());
        let (out, _) = drive(&mut d, &["{\"at\":0,\"batch\":[1,2]}", "{\"cmd\":\"shutdown\"}"]);
        let batch_line = out.lines().find(|l| l.contains("\"kind\":\"batch\"")).unwrap();
        let embedded = format!("\"responses\":{expected_json}");
        assert!(
            batch_line.contains(&embedded),
            "daemon responses must be bit-identical to the one-shot warm serve path"
        );
    }

    #[test]
    fn out_of_order_ticks_clamp_monotone() {
        let mut d = daemon(&DaemonConfig::default());
        let (out, _) = drive(
            &mut d,
            &["{\"at\":10,\"work\":2}", "{\"at\":3,\"work\":2}", "{\"cmd\":\"shutdown\"}"],
        );
        // The second arrival's tick clamps to the input clock (10): no
        // time travel, and it starts as soon as job 0's server frees.
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines[1].contains("\"arrived\":10")
                && lines[1].contains("\"started\":12")
                && lines[1].contains("\"wait\":2"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn every_request_completes_a_trace_in_the_flight_recorder() {
        let mut d = daemon(&DaemonConfig::default());
        let (out, _) = drive(
            &mut d,
            &[
                "{\"at\":0,\"batch\":[1,2]}",
                "{\"at\":1,\"work\":5}",
                "{\"cmd\":\"shutdown\"}",
            ],
        );
        let fr = d.flight();
        assert_eq!(fr.completed_traces(), 2, "one trace per accepted arrival");
        assert_eq!(fr.dropped_spans(), 0);
        for summary in fr.recent() {
            assert_eq!(summary.name, "served.request");
        }
        // Self time partitions each trace's wall ticks: summed over layers
        // it equals the summed (completed - arrived) of the output lines.
        let total_wall: u64 = out
            .lines()
            .filter(|l| l.contains("\"kind\":\"batch\"") || l.contains("\"kind\":\"work\""))
            .map(|l| {
                let field = |k: &str| {
                    let tail = &l[l.find(k).unwrap() + k.len()..];
                    tail[..tail.find([',', '}']).unwrap()].parse::<u64>().unwrap()
                };
                field("\"completed\":") - field("\"arrived\":")
            })
            .sum();
        let self_total: u64 = fr.layer_self_times().map(|(_, v)| v).sum();
        assert_eq!(self_total, total_wall);
        // The work item's ticks land on the served layer; the batch's
        // solver iterations land on the serve layer's leaves.
        assert!(fr.layer_self_time("serve") > 0);
        assert!(fr.layer_self_time("served") > 0);
    }

    #[test]
    fn shed_arrivals_complete_as_zero_duration_traces() {
        let config = DaemonConfig {
            admission_bound: Some(2.0),
            admission_warmup: 2,
            ..DaemonConfig::default()
        };
        let mut d = daemon(&config);
        let lines: Vec<String> =
            (0..8u64).map(|k| format!("{{\"at\":{},\"work\":10}}", 4 * k)).collect();
        let mut refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        refs.push("{\"cmd\":\"shutdown\"}");
        drive(&mut d, &refs);
        assert!(d.shed() > 0);
        let fr = d.flight();
        assert_eq!(fr.completed_traces(), 8, "accepted and shed alike");
        let zero_width = fr.recent().filter(|s| s.dur == 0).count() as u64;
        assert_eq!(zero_width, d.shed());
    }

    #[test]
    fn metrics_cmd_reports_quantiles_layers_and_trace_totals() {
        let mut d = daemon(&DaemonConfig::default());
        let (out, _) = drive(
            &mut d,
            &[
                "{\"at\":0,\"work\":10}",
                "{\"at\":2,\"work\":5}",
                "{\"at\":50,\"cmd_pad\":0,\"work\":1}",
                "{\"cmd\":\"metrics\"}",
                "{\"cmd\":\"shutdown\"}",
            ],
        );
        let metrics = out.lines().find(|l| l.contains("\"kind\":\"metrics\"")).unwrap();
        // Two completions by tick 50 with waits {0, 8}: the p90 sees 8.
        assert!(metrics.contains("\"wait_p50\""), "{metrics}");
        assert!(metrics.contains("\"wait_p90\""), "{metrics}");
        assert!(metrics.contains("\"self_ticks\":{\"served\":"), "{metrics}");
        // All three work traces are complete: spans are synthesized at
        // start time, when the completion tick is already known.
        assert!(metrics.contains("\"traces\":3"), "{metrics}");
        assert!(metrics.contains("\"spans_dropped\":0"), "{metrics}");
        // And the session is still deterministic with a metrics probe.
        let mut again = daemon(&DaemonConfig::default());
        let (out2, _) = drive(
            &mut again,
            &[
                "{\"at\":0,\"work\":10}",
                "{\"at\":2,\"work\":5}",
                "{\"at\":50,\"cmd_pad\":0,\"work\":1}",
                "{\"cmd\":\"metrics\"}",
                "{\"cmd\":\"shutdown\"}",
            ],
        );
        assert_eq!(out, out2);
    }

    #[test]
    fn status_lines_carry_cache_bytes_and_nothing_thread_dependent() {
        let mut d = daemon(&DaemonConfig::default());
        let (out, _) =
            drive(&mut d, &["{\"at\":0,\"batch\":[1]}", "{\"cmd\":\"shutdown\"}"]);
        let status = out.lines().find(|l| l.contains("\"kind\":\"status\"")).unwrap();
        // One 5-node dense matrix resident: 5·5·8 bytes.
        assert!(status.contains("\"cache_bytes\":200"), "{status}");
        // Nothing that depends on thread timing is rendered.
        assert!(!status.contains("steals"), "{status}");
        assert!(status.contains("\"shed\":0"), "{status}");
    }

    #[test]
    fn one_cache_budget_bounds_dense_and_landmark_entries_together() {
        // ring(16): the dense matrix is 16·16·8 = 2048 bytes, a K = 4
        // oracle 4·16·8 + 16·12 = 704. A 2500-byte budget fits either
        // alone but not both.
        let config = DaemonConfig { cache_bytes: Some(2500), ..DaemonConfig::default() };
        let mut d = Daemon::new(mixed_parser(), &config).unwrap();
        let (out, registry) =
            drive(&mut d, &["{\"at\":0,\"batch\":[0]}", "{\"cmd\":\"shutdown\"}"]);
        let status = out.lines().find(|l| l.contains("\"kind\":\"status\"")).unwrap();
        let bytes: u64 = status
            .split("\"cache_bytes\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok())
            .unwrap();
        assert!(bytes <= 2500, "cache_bytes {bytes} over the 2500-byte budget: {status}");
        assert!(status.contains("\"cache_entries\":1"), "{status}");
        assert_eq!(registry.counter("cache.evictions"), 1);
    }

    #[test]
    fn warm_mode_parses() {
        assert_eq!(WarmMode::parse("off").unwrap(), WarmMode::Off);
        assert_eq!(WarmMode::parse("batch").unwrap(), WarmMode::Batch);
        assert_eq!(WarmMode::parse("session").unwrap(), WarmMode::Session);
        assert!(WarmMode::parse("warmish").is_err());
    }
}
