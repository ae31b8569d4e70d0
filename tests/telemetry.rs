//! Telemetry determinism, end to end.
//!
//! The observability contract this PR pins down: recording a run must not
//! perturb it, and everything exported for a seeded run must be
//! byte-reproducible. These tests drive the same code paths as
//! `fap run --metrics-out` and `fap sim --metrics-out` (via `fap-cli`) and
//! compare whole JSONL exports as strings.

use std::collections::BTreeMap;

use fap::core::{MultiFileProblem, SingleFileProblem};
use fap::econ::{ResourceDirectedOptimizer, StepSize};
use fap::net::{topology, AccessPattern};
use fap::obs::jsonl::{parse_line, Scalar};
use fap::obs::{
    FlightRecorder, JsonlSink, MetricsRegistry, NoopRecorder, Recorder, Tee, Telemetry, Value,
};
use fap::ring::{RingSolver, VirtualRing};
use fap::runtime::ChaosPlan;
use fap_cli::{chaos_sim, solve, summarize, Scenario};

fn chaos_plan(seed: u64) -> ChaosPlan {
    ChaosPlan::new(seed)
        .with_drop(0.2)
        .with_delay(0.2, 3)
        .with_staleness_bound(2)
        .with_retries(1)
}

fn sim_jsonl(seed: u64) -> String {
    let mut telemetry = Telemetry::manual();
    chaos_sim(&Scenario::example(), chaos_plan(seed), &mut telemetry).unwrap();
    telemetry.to_jsonl()
}

#[test]
fn two_seeded_sim_runs_export_byte_identical_jsonl() {
    let first = sim_jsonl(11);
    let second = sim_jsonl(11);
    assert_eq!(first, second, "same seed must reproduce the export byte for byte");
    assert_ne!(first, sim_jsonl(12), "a different seed must change the fault stream");
}

#[test]
fn two_solver_runs_export_byte_identical_jsonl() {
    let run = || {
        let mut telemetry = Telemetry::manual();
        let output = solve(&Scenario::example(), &mut telemetry).unwrap();
        (output, telemetry.to_jsonl())
    };
    let (output_a, jsonl_a) = run();
    let (output_b, jsonl_b) = run();
    assert_eq!(output_a, output_b);
    assert_eq!(jsonl_a, jsonl_b);
    assert_eq!(
        output_a,
        solve(&Scenario::example(), &mut NoopRecorder).unwrap(),
        "recording must not perturb"
    );
}

#[test]
fn recording_does_not_perturb_the_sim() {
    let plain = chaos_sim(&Scenario::example(), chaos_plan(11), &mut NoopRecorder).unwrap();
    let mut telemetry = Telemetry::manual();
    let observed = chaos_sim(&Scenario::example(), chaos_plan(11), &mut telemetry).unwrap();
    assert_eq!(plain, observed);
    // The derived fault summary and the exported counters are one stream.
    assert_eq!(telemetry.registry().counter("sim.dropped"), observed.faults.dropped);
    assert_eq!(telemetry.registry().counter("sim.retries"), observed.faults.retries);
}

#[test]
fn every_exported_line_parses_and_the_summary_agrees() {
    let mut telemetry = Telemetry::manual();
    let report = chaos_sim(&Scenario::example(), chaos_plan(11), &mut telemetry).unwrap();
    let jsonl = telemetry.to_jsonl();

    let mut event_lines = 0usize;
    for (number, line) in jsonl.lines().enumerate() {
        let fields = parse_line(line)
            .unwrap_or_else(|e| panic!("line {} failed to parse ({e}): {line}", number + 1));
        if fields.iter().any(|(k, _)| k == "event") {
            event_lines += 1;
        }
    }
    assert_eq!(event_lines, telemetry.events().len());

    let summary = summarize(&jsonl).unwrap();
    assert_eq!(summary.iterations, Some(report.rounds as u64));
    assert_eq!(summary.converged, Some(report.converged));
    let dropped = summary
        .fault_counts
        .iter()
        .find(|(name, _)| name == "sim.dropped")
        .map(|(_, value)| *value);
    assert_eq!(dropped, Some(report.faults.dropped));
    assert!(summary.latency_p50.unwrap() <= summary.latency_p99.unwrap());
}

#[test]
fn streaming_export_is_byte_identical_to_the_buffered_one() {
    // The streaming sink is what every command exports through; the
    // in-memory recorder is its oracle — a seeded sim exports the same
    // file either way.
    let buffered = sim_jsonl(11);
    let mut sink = JsonlSink::new(Vec::new());
    chaos_sim(&Scenario::example(), chaos_plan(11), &mut sink).unwrap();
    let streamed = String::from_utf8(sink.finish().unwrap()).unwrap();
    assert_eq!(streamed, buffered);
}

#[test]
fn virtual_time_stamps_events_with_rounds() {
    let mut telemetry = Telemetry::manual();
    chaos_sim(&Scenario::example(), chaos_plan(11), &mut telemetry).unwrap();
    let jsonl = telemetry.to_jsonl();
    // Round events carry their own round number; the virtual timestamp must
    // agree with it — wall time never leaks into a seeded sim export.
    let mut checked = 0usize;
    for line in jsonl.lines() {
        let fields = parse_line(line).unwrap();
        let is_round = matches!(
            fields.iter().find(|(k, _)| k == "event"),
            Some((_, Scalar::Str(name))) if name == "round"
        );
        if is_round {
            let t = fields.iter().find(|(k, _)| k == "t").and_then(|(_, v)| v.as_i64());
            let round =
                fields.iter().find(|(k, _)| k == "round").and_then(|(_, v)| v.as_i64());
            assert_eq!(t, round, "virtual clock must follow the round counter: {line}");
            checked += 1;
        }
    }
    assert!(checked > 0, "the export must contain round events");
}

/// A metrics-only sink that counts the events handed to it, keeping them
/// or not as `keeps` says.
#[derive(Default)]
struct EventTally {
    keeps: bool,
    registry: MetricsRegistry,
    events: BTreeMap<&'static str, usize>,
}

impl Recorder for EventTally {
    fn is_enabled(&self) -> bool {
        true
    }
    fn set_time(&mut self, tick: u64) {
        self.registry.set_time(tick);
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
    fn keeps_events(&self) -> bool {
        self.keeps
    }
    fn emit(&mut self, name: &'static str, _fields: &[(&'static str, Value)]) {
        *self.events.entry(name).or_default() += 1;
    }
}

#[test]
fn only_event_keeping_sinks_ask_for_event_fields() {
    let mut registry = MetricsRegistry::new();
    let mut flight = FlightRecorder::default();
    let mut telemetry = Telemetry::manual();
    assert!(!NoopRecorder.keeps_events());
    assert!(!registry.keeps_events());
    assert!(!flight.keeps_events());
    assert!(telemetry.keeps_events());
    assert!(JsonlSink::new(Vec::new()).keeps_events());
    assert!(!Tee::new(&mut registry, &mut flight).keeps_events());
    assert!(Tee::new(&mut registry, &mut telemetry).keeps_events());

    // The solvers build their per-iteration events only for a sink that
    // keeps them, and record the same metrics either way.
    let single = |rec: &mut dyn Recorder| {
        let graph = topology::ring(5, 1.0).unwrap();
        let pattern = AccessPattern::uniform(5, 1.0).unwrap();
        let p = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
        let start = [1.0, 0.0, 0.0, 0.0, 0.0];
        ResourceDirectedOptimizer::new(StepSize::Fixed(0.05)).run(&p, &start, rec).unwrap();
    };
    let multi = |rec: &mut dyn Recorder| {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 0.5).unwrap();
        let p = MultiFileProblem::mm1(&graph, &[pattern.clone(), pattern], 1.5, 1.0).unwrap();
        let start = [vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 0.5, 0.5, 0.0]];
        p.solve(&start, 0.05, 1e-6, 2_000, rec).unwrap();
    };
    let ring = |rec: &mut dyn Recorder| {
        let ring =
            VirtualRing::new(vec![4.0, 1.0, 1.0, 1.0], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0)
                .unwrap();
        RingSolver::new(0.1).solve(&ring, &[2.0, 0.0, 0.0, 0.0], rec).unwrap();
    };
    check_per_iteration_events("iter", "econ.iterations", &single);
    check_per_iteration_events("core.iter", "core.iterations", &multi);
    check_per_iteration_events("iter", "ring.iterations", &ring);
}

/// Runs `run` into a sink that keeps events and one that does not: the
/// first gets one `event` per `counter` increment, the second none, and
/// both record the same metrics.
fn check_per_iteration_events(event: &str, counter: &str, run: &dyn Fn(&mut dyn Recorder)) {
    let mut kept = EventTally { keeps: true, ..EventTally::default() };
    let mut dropped = EventTally::default();
    run(&mut kept);
    run(&mut dropped);
    let iterations = kept.registry.counter(counter);
    assert!(iterations > 1, "{counter}");
    assert_eq!(kept.events.get(event), Some(&(iterations as usize)), "{event}");
    assert_eq!(dropped.events.get(event), None, "{event} built for a metrics-only sink");
    assert_eq!(format!("{:?}", kept.registry), format!("{:?}", dropped.registry));
}
