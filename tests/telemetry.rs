//! Telemetry determinism, end to end.
//!
//! The observability contract this PR pins down: recording a run must not
//! perturb it, and everything exported for a seeded run must be
//! byte-reproducible. These tests drive the same code paths as
//! `fap run --metrics-out` and `fap sim --metrics-out` (via `fap-cli`) and
//! compare whole JSONL exports as strings.

use fap::obs::jsonl::{parse_line, Scalar};
use fap::obs::{JsonlSink, NoopRecorder, Telemetry};
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
