//! Tier-1 guarantees of the persistent serving daemon (`fap served`):
//! a byte-pinned golden session, warm state demonstrably carried across
//! batches, bit-identity with the one-shot serve path, deterministic load
//! shedding, and validation of the M/M/c admission model against the
//! daemon's own measured waits on the virtual clock.

use fap::batch::Parallelism;
use fap::cache::SubstrateCache;
use fap::obs::{MetricsRegistry, NoopRecorder, Telemetry};
use fap::queue::MmcDelay;
use fap::serve::{BatchServer, ServeRequest};
use fap::served::{DaemonConfig, WarmMode};
use fap_cli::serve::example_specs;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde::Serialize as _;

/// The scripted golden session: three spec batches with a status probe in
/// between, exercising the persistent cache and the response stream.
fn golden_session_input() -> String {
    let specs = serde_json::to_string(&example_specs()).unwrap();
    let mut lines: Vec<String> = [0u64, 100_000, 200_000]
        .iter()
        .map(|at| format!("{{\"at\":{at},\"batch\":{specs}}}"))
        .collect();
    lines.insert(1, "{\"cmd\":\"status\"}".into());
    lines.push("{\"cmd\":\"status\"}".into());
    lines.push("{\"cmd\":\"shutdown\"}".into());
    let mut input = lines.join("\n");
    input.push('\n');
    input
}

/// The golden sessions run sequential shards, so telemetry is a
/// deterministic single stream.
fn golden_config() -> DaemonConfig {
    DaemonConfig { shards: Parallelism::Sequential, ..DaemonConfig::default() }
}

/// The scripted shed session: `work` items of 10 ticks arriving every 4
/// ticks on one server (offered load 2.5) with a 2-tick admission bound —
/// the fitted M/M/1 model goes unstable once warmed, and every later
/// arrival is deterministically rejected with a 429 line.
fn shed_session_input() -> String {
    let mut lines: Vec<String> =
        (0..8u64).map(|k| format!("{{\"at\":{},\"work\":10}}", 4 * k)).collect();
    lines.push("{\"cmd\":\"shutdown\"}".into());
    let mut input = lines.join("\n");
    input.push('\n');
    input
}

fn shed_config() -> DaemonConfig {
    DaemonConfig {
        shards: Parallelism::Sequential,
        admission_bound: Some(2.0),
        admission_warmup: 2,
        ..DaemonConfig::default()
    }
}

fn run_session(input: &str, config: &DaemonConfig) -> (String, Telemetry) {
    let mut out = Vec::new();
    let mut telemetry = Telemetry::manual();
    fap_cli::run_daemon(input.as_bytes(), &mut out, config, &mut telemetry).unwrap();
    (String::from_utf8(out).unwrap(), telemetry)
}

/// The exported telemetry minus wall-clock timing histograms (`*_ns`
/// names, from the parallel kernels): everything measured on the virtual
/// clock — counters, gauges, waits, iteration histograms, sketches — is
/// byte-deterministic; nanosecond timings by nature are not.
fn deterministic_jsonl(telemetry: &Telemetry) -> String {
    telemetry
        .to_jsonl()
        .lines()
        .filter(|line| !line.contains("_ns\""))
        .flat_map(|line| [line, "\n"])
        .collect()
}

fn check_golden(path: &str, produced: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, produced).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("{path} missing; run with UPDATE_GOLDEN=1"));
    assert_eq!(produced, golden, "{path} drifted; regenerate intentionally with UPDATE_GOLDEN=1");
}

/// The whole session — input, response stream and exported telemetry — is
/// pinned byte-exactly under `tests/golden/`. Regenerate all three with
/// `UPDATE_GOLDEN=1 cargo test --test daemon_session` after an intentional
/// change.
#[test]
fn golden_daemon_session_matches() {
    let input = golden_session_input();
    let (out, telemetry) = run_session(&input, &golden_config());

    // Sanity before pinning bytes: the session exercised every line kind.
    assert!(out.contains("\"kind\":\"batch\""));
    assert!(out.contains("\"kind\":\"status\""));
    assert_eq!(out.matches("\"kind\":\"batch\"").count(), 3);
    assert!(telemetry.registry().counter("cache.hit") > 0);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    check_golden(&format!("{dir}/daemon_session.in.jsonl"), &input);
    check_golden(&format!("{dir}/daemon_session.out.jsonl"), &out);
    check_golden(&format!("{dir}/daemon_session.metrics.jsonl"), &deterministic_jsonl(&telemetry));
}

/// The overload session is pinned byte-exactly too: once the fitted model
/// warms up (two arrivals, two services), every further arrival sees an
/// unstable M/M/1 prediction and is shed with a 429 line — the same lines
/// every run.
#[test]
fn golden_shed_session_matches() {
    let input = shed_session_input();
    let (out, telemetry) = run_session(&input, &shed_config());

    assert!(out.contains("\"status\":429"), "the admission bound must engage");
    assert!(out.contains("\"predicted_wait\":\"inf\""), "overload predicts an infinite wait");
    assert!(telemetry.registry().counter("served.shed") > 0);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    check_golden(&format!("{dir}/daemon_shed.in.jsonl"), &input);
    check_golden(&format!("{dir}/daemon_shed.out.jsonl"), &out);
}

/// Two runs of the same scripted session are byte-identical — responses,
/// shed lines and exported metrics alike.
#[test]
fn sessions_are_deterministic_including_shedding() {
    for (input, config) in [
        (golden_session_input(), golden_config()),
        (shed_session_input(), shed_config()),
    ] {
        let (out_a, tel_a) = run_session(&input, &config);
        let (out_b, tel_b) = run_session(&input, &config);
        assert_eq!(out_a, out_b);
        assert_eq!(deterministic_jsonl(&tel_a), deterministic_jsonl(&tel_b));
    }
}

/// The acceptance criterion for warm state: across a multi-batch session,
/// `cache.hit` and `serve.warm_starts` both rise after batch 1.
#[test]
fn warm_state_persists_across_batches() {
    let specs = serde_json::to_string(&example_specs()).unwrap();
    let first = format!("{{\"at\":0,\"batch\":{specs}}}\n");
    let mut rest = String::new();
    for at in [200_000u64, 400_000] {
        rest.push_str(&format!("{{\"at\":{at},\"batch\":{specs}}}\n"));
    }
    let config = DaemonConfig {
        shards: Parallelism::Sequential,
        warm: WarmMode::Session,
        ..DaemonConfig::default()
    };

    let mut registry = MetricsRegistry::new();
    let mut out = Vec::new();
    fap_cli::run_daemon(first.as_bytes(), &mut out, &config, &mut registry).unwrap();
    // One batch alone: the example list's two graph-backed specs share a
    // topology (one miss, one hit), and no cross-batch seeds exist yet.
    let (hits_after_one, warm_after_one) =
        (registry.counter("cache.hit"), registry.counter("serve.warm_starts"));
    assert_eq!(registry.counter("cache.miss"), 1);

    let full = format!("{first}{rest}");
    let mut registry = MetricsRegistry::new();
    let mut out = Vec::new();
    fap_cli::run_daemon(full.as_bytes(), &mut out, &config, &mut registry).unwrap();
    assert_eq!(registry.counter("cache.miss"), 1, "later batches never re-run Dijkstra");
    assert!(
        registry.counter("cache.hit") > hits_after_one,
        "cache hits must rise after batch 1"
    );
    assert!(
        registry.counter("serve.warm_starts") > warm_after_one,
        "later batch heads must be seeded from the previous batch's tails"
    );
}

/// The daemon's batch responses embed exactly what one warm
/// `BatchServer::serve` call with no seed store produces for the same
/// specs, and `fap serve --warm-start` prints that same batch line.
#[test]
fn daemon_responses_are_bit_identical_to_one_shot_serve() {
    let specs = example_specs();
    let mut cache = SubstrateCache::new();
    let requests: Vec<ServeRequest> = specs
        .iter()
        .map(|spec| spec.to_request_cached_with(&mut cache, false, &mut NoopRecorder).unwrap())
        .collect();
    let oneshot = BatchServer::new(Parallelism::Sequential)
        .with_warm_start(true)
        .serve(&requests, None, &mut NoopRecorder);
    let rendered: Vec<serde::Value> =
        oneshot.responses.iter().map(|r| r.as_ref().unwrap().serialize_value()).collect();
    let expected = format!(
        "\"responses\":{}",
        serde_json::to_string(&serde::Value::Array(rendered)).unwrap()
    );

    let input = format!(
        "{{\"at\":0,\"batch\":{}}}\n{{\"cmd\":\"shutdown\"}}\n",
        serde_json::to_string(&specs).unwrap()
    );
    let config = DaemonConfig { shards: Parallelism::Sequential, ..DaemonConfig::default() };
    let (out, _) = run_session(&input, &config);
    let batch_line = out.lines().find(|l| l.contains("\"kind\":\"batch\"")).unwrap();
    assert!(
        batch_line.contains(&expected),
        "daemon responses must be bit-identical to the one-shot serve path"
    );
    let once =
        fap_cli::serve_once(&specs, Parallelism::Sequential, true, false, &mut NoopRecorder)
            .unwrap();
    assert_eq!(once, batch_line);
}

/// Validation of the admission model on the daemon's own virtual clock:
/// seeded exponential arrivals and services flow through as `work` items,
/// and the M/M/c wait predicted from the *measured* rates must agree with
/// the mean wait the daemon actually measured.
#[test]
fn admission_model_prediction_matches_measured_wait() {
    let mut rng = StdRng::seed_from_u64(20_260_809);
    let mean_interarrival = 100.0;
    let mean_service = 40.0;
    let draws = 4_000usize;
    let mut exp = |mean: f64| {
        let u: f64 = rng.random_f64();
        (-mean * (1.0 - u).ln()).round().max(1.0) as u64
    };
    let mut input = String::new();
    let mut at = 0u64;
    for _ in 0..draws {
        at += exp(mean_interarrival);
        let service = exp(mean_service);
        input.push_str(&format!("{{\"at\":{at},\"work\":{service}}}\n"));
    }
    input.push_str("{\"cmd\":\"shutdown\"}\n");

    let config = DaemonConfig { shards: Parallelism::Sequential, ..DaemonConfig::default() };
    let mut telemetry = Telemetry::manual();
    let mut out = Vec::new();
    fap_cli::run_daemon(input.as_bytes(), &mut out, &config, &mut telemetry).unwrap();

    let registry = telemetry.registry();
    let waits = registry.histogram("served.wait").expect("waits are recorded");
    assert_eq!(waits.count(), draws as u64);
    let measured = waits.mean();
    let predicted = registry
        .gauge_value("served.predicted_wait")
        .expect("the model predicts once warmed up");

    // ρ = 0.4 on one server: a long way from both idle and saturation, so
    // the finite-sample mean concentrates well at 4 000 arrivals.
    let closed_form = MmcDelay::new(1, 1.0 / mean_service).unwrap();
    let reference = closed_form.mean_wait(1.0 / mean_interarrival).unwrap();
    assert!(
        (predicted - measured).abs() <= 0.15 * measured,
        "fitted M/M/1 prediction {predicted:.2} vs measured mean wait {measured:.2}"
    );
    assert!(
        (measured - reference).abs() <= 0.2 * reference,
        "measured {measured:.2} vs closed form at the true rates {reference:.2}"
    );
}

fn field(line: &str, name: &str) -> u64 {
    let value = serde_json::parse_value(line).unwrap();
    match value.get(name) {
        Some(serde::Value::Int(i)) => *i as u64,
        Some(serde::Value::UInt(u)) => *u,
        other => panic!("{name} in {line}: {other:?}"),
    }
}

/// An `at` tick or a `work` length past the virtual-clock horizon is an
/// `error` line — not a wrapped clock, nor (with overflow checks on) a
/// panic — and the session goes on to serve the next envelope.
#[test]
fn out_of_horizon_ticks_are_refused_and_the_session_goes_on() {
    let specs = serde_json::to_string(&example_specs()).unwrap();
    let input = format!(
        "{{\"at\":18446744073709551615,\"work\":5}}\n\
         {{\"at\":0,\"work\":18446744073709551615}}\n\
         {{\"at\":10,\"batch\":{specs}}}\n\
         {{\"cmd\":\"shutdown\"}}\n"
    );
    let (out, telemetry) = run_session(&input, &golden_config());
    let lines: Vec<&str> = out.lines().collect();
    for (line, field) in lines[..2].iter().zip(["'at'", "'work'"]) {
        assert!(line.starts_with("{\"kind\":\"error\"") && line.contains(field), "{line}");
        assert!(line.contains("exceeds the virtual-clock horizon"), "{line}");
    }
    assert_eq!(telemetry.registry().counter("served.errors"), 2);
    let batch =
        lines.iter().find(|l| l.contains("\"kind\":\"batch\"")).expect("the batch is served");
    assert_eq!(field(batch, "arrived"), 10);
    assert!(field(batch, "ok") > 0, "{batch}");
    assert!(lines.last().unwrap().contains("\"completed\":1"), "{}", lines.last().unwrap());
}

/// A backlog of horizon-length work items on one server runs the
/// completion tick past `usize::MAX`: it saturates, so every line keeps
/// arrived ≤ started ≤ completed.
#[test]
fn a_backlog_past_the_clock_range_saturates_instead_of_wrapping() {
    let items = 2100;
    let mut input = String::new();
    for _ in 0..items {
        input.push_str("{\"at\":0,\"work\":9007199254740992}\n");
    }
    input.push_str("{\"cmd\":\"shutdown\"}\n");
    let config = DaemonConfig { servers: 1, ..golden_config() };
    let (out, _) = run_session(&input, &config);
    let work: Vec<&str> = out.lines().filter(|l| l.contains("\"kind\":\"work\"")).collect();
    assert_eq!(work.len(), items);
    for line in &work {
        let (arrived, started, completed) =
            (field(line, "arrived"), field(line, "started"), field(line, "completed"));
        assert!(arrived <= started && started <= completed, "{line}");
    }
    assert_eq!(field(work.last().unwrap(), "completed"), u64::MAX);
}

/// A drift line is priced from its fields before anything is built: a
/// zero, tiny, oversized or overflowing `nodes` or `epochs` gets its own
/// `error` line, and the session goes on to serve the next envelope. A
/// `threads` field names nothing the loop has, so it changes no byte of
/// the answer.
#[test]
fn oversized_drift_lines_are_refused_and_the_session_goes_on() {
    let refused = [
        ("nodes", "0", "nodes must be at least 2"),
        ("nodes", "1", "nodes must be at least 2"),
        ("nodes", "8193", "dense budget"),
        ("nodes", "4611686018427387904", "dense budget"),
        ("nodes", "18446744073709551615", "dense budget"),
        ("epochs", "0", "epochs must be positive"),
        ("epochs", "4611686018427387904", "-byte limit"),
    ];
    let specs = serde_json::to_string(&example_specs()).unwrap();
    let small = "{\"cmd\":\"drift\",\"nodes\":5,\"epochs\":4";
    let mut input: String = refused
        .iter()
        .map(|(field, value, _)| format!("{{\"cmd\":\"drift\",\"{field}\":{value}}}\n"))
        .collect();
    input.push_str(&format!("{small},\"threads\":4611686018427387904}}\n{small}}}\n"));
    input.push_str(&format!("{{\"at\":0,\"batch\":{specs}}}\n{{\"cmd\":\"shutdown\"}}\n"));

    let (out, telemetry) = run_session(&input, &golden_config());
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), refused.len() + 4, "{out}");
    for (line, (field, value, reason)) in lines.iter().zip(&refused) {
        assert!(
            line.starts_with("{\"kind\":\"error\",\"message\":\"drift: ") && line.contains(reason),
            "{field} {value}: {line}"
        );
    }
    assert_eq!(telemetry.registry().counter("served.errors"), refused.len() as u64);
    let (with_threads, without) = (lines[refused.len()], lines[refused.len() + 1]);
    assert!(with_threads.starts_with("{\"kind\":\"drift\""), "{with_threads}");
    assert_eq!(with_threads, without);
    let batch = lines[refused.len() + 2];
    assert!(batch.contains("\"kind\":\"batch\"") && field(batch, "ok") > 0, "{batch}");
    assert!(lines.last().unwrap().contains("\"completed\":1"), "{}", lines.last().unwrap());
}

/// A multi-file spec whose finite delay weight overflows the cost gets an
/// `error` response instead of aborting the daemon while its batch line
/// is rendered (JSON has no infinity), and the next envelope is answered.
#[test]
fn a_multi_file_cost_overflow_is_an_error_response_and_the_session_goes_on() {
    let overflowing = concat!(
        r#"{"at":0,"batch":[{"type":"multi_file","topology":{"type":"ring","n":4,"link_cost":1.0},"#,
        r#""lambdas":[[0.25,0.25,0.25,0.25],[0.25,0.25,0.25,0.25]],"mus":[0.6],"k":1e308,"#,
        r#""alpha":0.1,"epsilon":0.000001,"max_iterations":10}]}"#,
    );
    let specs = serde_json::to_string(&example_specs()).unwrap();
    let input = format!(
        "{overflowing}\n{{\"at\":1000000,\"batch\":{specs}}}\n{{\"cmd\":\"shutdown\"}}\n"
    );
    let (out, _) = run_session(&input, &golden_config());
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "{out}");
    assert!(lines[0].contains("\"kind\":\"batch\""), "{}", lines[0]);
    assert_eq!((field(lines[0], "ok"), field(lines[0], "err")), (0, 1), "{}", lines[0]);
    assert!(lines[0].contains("\"responses\":[{\"error\":") && lines[0].contains("not finite"));
    assert!(lines[1].contains("\"kind\":\"batch\"") && field(lines[1], "ok") > 0, "{}", lines[1]);
    assert!(lines[2].contains("\"kind\":\"status\""), "{}", lines[2]);
}

/// A 256-node ring tracks its epochs: the default fixed step would carry
/// a node past its capacity on the first epoch, and the engine halves
/// that step instead of failing the run.
#[test]
fn a_drift_ring_too_wide_for_the_whole_fixed_step_still_tracks() {
    let input = "{\"cmd\":\"drift\",\"scenario\":\"flash-crowd\",\"nodes\":256,\"epochs\":2}\n";
    let (out, telemetry) = run_session(input, &golden_config());
    let line = out.lines().next().unwrap_or_default();
    assert!(line.starts_with("{\"kind\":\"drift\""), "{out}");
    assert!(line.contains("\"nodes\":256,\"epochs\":2"), "{line}");
    assert_eq!(telemetry.registry().counter("served.errors"), 0);
}
