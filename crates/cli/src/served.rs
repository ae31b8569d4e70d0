//! `fap served`: the persistent serving daemon speaking the CLI's spec
//! format.
//!
//! This module binds the wire-format-agnostic [`Daemon`] from `fap-served`
//! to the CLI's scenario-list syntax: each input envelope's `batch` field
//! is a JSON array of [`ServeSpec`]s. The daemon keeps its substrate
//! cache, warm-start seeds and worker pool alive across batches, so a long
//! session amortizes work a one-shot `fap serve` pays per invocation.
//! One-shot `fap serve` is itself a daemon session of one envelope
//! ([`serve_once`]), so both commands serve through the same path.
//!
//! Two transports are offered: stdin/stdout (the default, scriptable), and
//! on Unix a socket (`--socket <path>`), where sequential client
//! connections share one daemon — state persists across connects until a
//! `shutdown` command arrives. Every line, `{"cmd":"drift", ...}`
//! included, goes to the daemon's own `handle_line`.

use std::io::{BufRead, Write};

use serde::{Deserialize, Value};

use fap_batch::Parallelism;
use fap_cache::SubstrateCache;
use fap_obs::Recorder;
use fap_serve::ServeRequest;
use fap_served::{BatchParser, Daemon, DaemonConfig, DaemonStatus, WarmMode};

use crate::serve::ServeSpec;

/// The CLI's batch parser: an envelope's `batch` field is a JSON array of
/// [`ServeSpec`]s, resolved through the daemon's persistent substrate
/// cache (hits and misses land in the session's `cache.*` metrics).
///
/// With `oracle_update` on (`--oracle-update`), landmark substrates
/// resolve through [`SubstrateCache::get_fingerprinted`] with `update`
/// set, so a cached oracle survives a small topology edit between batches
/// as a dirty-frontier repair instead of a cold rebuild.
pub fn spec_parser_with(oracle_update: bool) -> impl BatchParser {
    move |batch: &Value, cache: &mut SubstrateCache, recorder: &mut dyn Recorder| {
        let specs = Vec::<ServeSpec>::deserialize_value(batch)
            .map_err(|e| format!("bad batch: {e}"))?;
        if specs.is_empty() {
            return Err("batch is empty".into());
        }
        specs
            .iter()
            .enumerate()
            .map(|(index, spec)| {
                spec.to_request_cached_with(cache, oracle_update, recorder)
                    .map_err(|e| format!("request {index}: {e}"))
            })
            .collect::<Result<Vec<ServeRequest>, String>>()
    }
}

/// Builds a daemon over the CLI spec format.
///
/// # Errors
///
/// Returns a message for an invalid configuration (zero servers).
pub fn spec_daemon(config: &DaemonConfig) -> Result<Daemon<impl BatchParser>, String> {
    Daemon::new(spec_parser_with(config.oracle_update), config).map_err(|e| e.to_string())
}

/// One-shot serving (`fap serve`): a daemon session of the single
/// envelope `{"at":0,"batch":specs}`, returning the daemon's batch line.
///
/// `warm_start` selects [`WarmMode::Batch`] (chain requests of the same
/// family and shape within the batch) over [`WarmMode::Off`];
/// `oracle_update` lets specs whose topologies differ by a small edit
/// repair a cached landmark oracle in place. Everything the session
/// records — `cache.*`, `serve.*`, `served.*` metrics and the request's
/// span tree — goes to `recorder`.
///
/// # Errors
///
/// Returns the daemon's error message (`request <i>: …` for the first
/// spec that cannot be built) when the envelope is rejected, and a
/// message for configuration or I/O failures.
pub fn serve_once(
    specs: &[ServeSpec],
    shards: Parallelism,
    warm_start: bool,
    oracle_update: bool,
    recorder: &mut dyn Recorder,
) -> Result<String, String> {
    let config = DaemonConfig {
        shards,
        warm: if warm_start { WarmMode::Batch } else { WarmMode::Off },
        oracle_update,
        ..DaemonConfig::default()
    };
    let batch = serde_json::to_string(specs).map_err(|e| e.to_string())?;
    let mut daemon = spec_daemon(&config)?;
    let mut out = Vec::new();
    daemon
        .handle_line(&format!("{{\"at\":0,\"batch\":{batch}}}"), &mut out, recorder)
        .map_err(|e| e.to_string())?;
    daemon.finish(&mut out, recorder).map_err(|e| e.to_string())?;
    // The session's first line is the envelope's outcome (its batch line,
    // or the error line that rejected it); the last is the final status.
    let out = String::from_utf8(out).map_err(|e| e.to_string())?;
    let first = out.lines().next().unwrap_or_default();
    if daemon.session_metrics().counter("served.errors") > 0 {
        let line = serde_json::parse_value(first).ok();
        return Err(match line.as_ref().and_then(|l| l.get("message")) {
            Some(Value::Str(message)) => message.clone(),
            _ => first.to_string(),
        });
    }
    Ok(first.to_string())
}

/// Runs a whole daemon session over any line source and sink (`fap served`
/// with no `--socket`: stdin to stdout). Returns at EOF or after a
/// `shutdown` command, both of which drain in-flight work first.
///
/// # Errors
///
/// Returns a message for configuration or I/O failures.
pub fn run_daemon<R: BufRead>(
    input: R,
    out: &mut dyn Write,
    config: &DaemonConfig,
    recorder: &mut dyn Recorder,
) -> Result<(), String> {
    spec_daemon(config)?.run(input, out, recorder).map_err(|e| e.to_string())
}

/// Serves sequential connections on a Unix socket with ONE persistent
/// daemon: a client can connect, submit batches, disconnect, and a later
/// client sees the warmed cache and seeds. A `shutdown` command (or an
/// unusable listener) ends the process; a dropped connection just ends
/// that client's session.
///
/// # Errors
///
/// Returns a message when the socket cannot be bound or the configuration
/// is invalid.
#[cfg(unix)]
pub fn run_socket(
    path: &std::path::Path,
    config: &DaemonConfig,
    recorder: &mut dyn Recorder,
) -> Result<(), String> {
    use std::io::BufReader;
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener =
        UnixListener::bind(path).map_err(|e| format!("binding {}: {e}", path.display()))?;
    let mut daemon = spec_daemon(config)?;
    'sessions: loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                let _ = std::fs::remove_file(path);
                return Err(format!("accepting on {}: {e}", path.display()));
            }
        };
        let reader = match stream.try_clone() {
            Ok(clone) => BufReader::new(clone),
            Err(_) => continue, // the client is already gone
        };
        let mut writer = stream;
        for line in reader.lines() {
            let Ok(line) = line else { break };
            match daemon.handle_line(&line, &mut writer, recorder) {
                Ok(DaemonStatus::Shutdown) => break 'sessions,
                Ok(DaemonStatus::Continue) => {}
                Err(_) => break, // client hung up mid-write; daemon state survives
            }
        }
        // Client EOF: drain its in-flight work so it gets every line it
        // paid for, then wait for the next connection (state persists).
        let _ = daemon.finish(&mut writer, recorder);
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_obs::{MetricsRegistry, NoopRecorder};
    use fap_serve::BatchServer;
    use serde::Serialize as _;

    fn batch_line(at: usize) -> String {
        let specs = serde_json::to_string(&crate::serve::example_specs())
            .expect("spec serialization cannot fail");
        format!("{{\"at\":{at},\"batch\":{specs}}}")
    }

    fn session(config: &DaemonConfig, lines: &[String]) -> (String, MetricsRegistry) {
        let mut out = Vec::new();
        let mut registry = MetricsRegistry::new();
        let input = lines.join("\n");
        run_daemon(input.as_bytes(), &mut out, config, &mut registry).unwrap();
        (String::from_utf8(out).unwrap(), registry)
    }

    #[test]
    fn a_spec_session_reuses_the_cache_across_batches() {
        let lines =
            vec![batch_line(0), batch_line(100_000), "{\"cmd\":\"shutdown\"}".to_string()];
        let (out, registry) = session(&DaemonConfig::default(), &lines);
        // The example list holds two graph-backed specs on one topology:
        // batch 1 misses once and hits once; batch 2 hits twice.
        assert_eq!(registry.counter("cache.miss"), 1);
        assert_eq!(registry.counter("cache.hit"), 3);
        assert_eq!(registry.counter("served.batches"), 2);
        assert_eq!(out.matches("\"kind\":\"batch\"").count(), 2);
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn daemon_batch_responses_match_one_shot_serve() {
        // `fap served` in the default (batch) warm mode must embed exactly
        // the responses a fresh batch-mode `BatchServer::serve` produces
        // for the same specs.
        let mut cache = SubstrateCache::new();
        let requests: Vec<ServeRequest> = crate::serve::example_specs()
            .iter()
            .map(|spec| spec.to_request_cached_with(&mut cache, false, &mut NoopRecorder).unwrap())
            .collect();
        let oneshot = BatchServer::new(Parallelism::Auto, WarmMode::Batch)
            .serve(&requests, &mut NoopRecorder);
        let rendered: Vec<Value> = oneshot
            .iter()
            .map(|r| r.as_ref().unwrap().serialize_value())
            .collect();
        let expected = format!(
            "\"responses\":{}",
            serde_json::to_string(&Value::Array(rendered)).unwrap()
        );
        let lines = vec![batch_line(0), "{\"cmd\":\"shutdown\"}".to_string()];
        let (out, _) = session(&DaemonConfig::default(), &lines);
        let batch = out.lines().find(|l| l.contains("\"kind\":\"batch\"")).unwrap();
        assert!(batch.contains(&expected), "daemon must match the one-shot serve path");
        // `fap serve --warm-start` is that same session, cut to its batch line.
        let once = serve_once(
            &crate::serve::example_specs(),
            Parallelism::Auto,
            true,
            false,
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(once, batch);
    }

    #[test]
    fn session_warm_mode_seeds_across_spec_batches() {
        let lines = vec![
            batch_line(0),
            batch_line(100_000),
            batch_line(200_000),
            "{\"cmd\":\"shutdown\"}".to_string(),
        ];
        let config = DaemonConfig { warm: WarmMode::Session, ..DaemonConfig::default() };
        let (_, registry) = session(&config, &lines);
        assert!(
            registry.counter("serve.warm_starts") > 0,
            "later batch heads must start from the previous batch's tails"
        );
    }

    #[test]
    fn oracle_update_repairs_the_session_cache_across_a_topology_edit() {
        use crate::scenario::Topology;
        use fap_cache::CostBackend;

        // One landmark-backed ring spec per batch; the second batch
        // re-prices a single physical link. With --oracle-update the
        // session cache repairs its oracle in place instead of paying a
        // second cold build — the point of tentpole (3): WarmMode::Session
        // survives small topology edits.
        let ring_batch = |at: usize, bump: f64| {
            let mut links: Vec<(usize, usize, f64)> =
                (0..8).map(|i| (i, (i + 1) % 8, 1.0)).collect();
            links[3].2 += bump;
            let specs = vec![ServeSpec::Ring {
                link_costs: vec![],
                topology: Some(Topology::Links { n: 8, links }),
                cost_backend: CostBackend::Landmark { landmarks: 3, seed: 1 },
                lambdas: vec![0.25; 8],
                mus: vec![1.5; 8],
                copies: 2.0,
                k: 1.0,
                alpha: 0.1,
                cost_delta_tolerance: 1e-7,
                max_iterations: 3_000,
                initial: None,
            }];
            format!(
                "{{\"at\":{at},\"batch\":{}}}",
                serde_json::to_string(&specs).expect("spec serialization cannot fail")
            )
        };
        let lines = vec![
            ring_batch(0, 0.0),
            ring_batch(100_000, 0.5),
            "{\"cmd\":\"shutdown\"}".to_string(),
        ];
        let config = DaemonConfig {
            warm: WarmMode::Session,
            oracle_update: true,
            ..DaemonConfig::default()
        };
        let (out, registry) = session(&config, &lines);
        assert_eq!(out.matches("\"kind\":\"batch\"").count(), 2);
        assert_eq!(registry.counter("cache.landmark_miss"), 1, "one cold build only");
        assert_eq!(registry.counter("cache.landmark_incremental"), 1, "edit repaired");
        // Without the flag the same session pays a second cold build.
        let cold =
            DaemonConfig { warm: WarmMode::Session, ..DaemonConfig::default() };
        let (_, registry) = session(&cold, &lines);
        assert_eq!(registry.counter("cache.landmark_incremental"), 0);
        assert_eq!(registry.counter("cache.landmark_miss"), 2);
    }

    #[test]
    fn drift_commands_run_inside_a_spec_session() {
        let lines = vec![
            batch_line(0),
            "{\"cmd\":\"drift\",\"scenario\":\"diurnal\",\"nodes\":5,\"epochs\":8}"
                .to_string(),
            "{\"cmd\":\"drift\",\"scenario\":\"teleport\"}".to_string(),
            "{\"cmd\":\"shutdown\"}".to_string(),
        ];
        let (out, registry) = session(&DaemonConfig::default(), &lines);
        // The drift line answers inline; ordinary batches still serve.
        assert_eq!(out.matches("\"kind\":\"batch\"").count(), 1);
        let drift = out.lines().find(|l| l.contains("\"kind\":\"drift\"")).unwrap();
        assert!(drift.contains("\"regret_ratio\":"), "{drift}");
        assert_eq!(registry.counter("track.epochs"), 8);
        // A bad drift envelope errors inline without killing the session.
        assert!(out.contains("unknown scenario"), "{out}");
        assert_eq!(registry.counter("served.batches"), 1);
    }

    #[test]
    fn bad_batches_report_errors_without_killing_the_session() {
        let lines = vec![
            "{\"at\":0,\"batch\":[{\"type\":\"teleport\"}]}".to_string(),
            "{\"at\":0,\"batch\":[]}".to_string(),
            batch_line(5),
            "{\"cmd\":\"shutdown\"}".to_string(),
        ];
        let (out, registry) = session(&DaemonConfig::default(), &lines);
        assert_eq!(registry.counter("served.errors"), 2);
        assert_eq!(registry.counter("served.batches"), 1);
        assert_eq!(out.matches("\"kind\":\"error\"").count(), 2);
    }

    #[test]
    fn an_oversized_topology_is_an_error_line_and_the_session_goes_on() {
        let lines = vec![
            "{\"at\":0,\"batch\":[{\"type\":\"multi_file\",\"topology\":{\"type\":\"full_mesh\",\
             \"n\":200000,\"link_cost\":1.0},\"lambdas\":[[0.1]],\"mus\":[8.0],\"k\":1.0,\
             \"alpha\":0.05,\"epsilon\":1e-6,\"max_iterations\":10}]}"
                .to_string(),
            "{\"cmd\":\"status\"}".to_string(),
        ];
        let (out, registry) = session(&DaemonConfig::default(), &lines);
        // The error line, the status line, then the end-of-input status.
        let replies: Vec<&str> = out.lines().collect();
        assert_eq!(replies.len(), 3, "{out}");
        assert!(replies[0].contains("\"kind\":\"error\""), "{}", replies[0]);
        assert!(replies[0].contains("adjacency bytes"), "{}", replies[0]);
        assert!(replies[1].contains("\"kind\":\"status\""), "{}", replies[1]);
        assert_eq!(registry.counter("served.errors"), 1);
    }

    #[test]
    fn an_oversized_landmark_table_is_an_error_line_and_the_session_goes_on() {
        // K = n = 200000 landmarks: a 320 GB distance table, refused from
        // the spec fields before the ring is built.
        let lines = vec![
            "{\"at\":0,\"batch\":[{\"type\":\"multi_file\",\"topology\":{\"type\":\"ring\",\
             \"n\":200000,\"link_cost\":1.0},\"cost_backend\":{\"kind\":\"landmark\",\
             \"landmarks\":200000,\"seed\":1},\"lambdas\":[[0.1]],\"mus\":[8.0],\"k\":1.0,\
             \"alpha\":0.05,\"epsilon\":1e-6,\"max_iterations\":10}]}"
                .to_string(),
            batch_line(5),
        ];
        let (out, registry) = session(&DaemonConfig::default(), &lines);
        // The error line, the next envelope's batch line, then the
        // end-of-input status.
        let replies: Vec<&str> = out.lines().collect();
        assert_eq!(replies.len(), 3, "{out}");
        assert!(replies[0].contains("\"kind\":\"error\""), "{}", replies[0]);
        assert!(replies[0].contains("landmark table"), "{}", replies[0]);
        assert!(replies[1].contains("\"kind\":\"batch\""), "{}", replies[1]);
        assert!(replies[1].contains("\"ok\":3,\"err\":0"), "{}", replies[1]);
        assert_eq!(registry.counter("served.errors"), 1);
        assert_eq!(registry.counter("served.batches"), 1);
    }

    #[cfg(unix)]
    #[test]
    fn socket_sessions_share_one_daemon() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("fap-served-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.sock");
        let config = DaemonConfig::default();
        let sock = path.clone();
        let server = std::thread::spawn(move || {
            let mut registry = MetricsRegistry::new();
            run_socket(&sock, &config, &mut registry).unwrap();
            registry
        });
        // Wait for the listener to come up.
        let mut tries = 0;
        while !path.exists() && tries < 500 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tries += 1;
        }
        let exchange = |lines: &[String]| -> String {
            let mut stream = UnixStream::connect(&path).unwrap();
            for line in lines {
                writeln!(stream, "{line}").unwrap();
            }
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut out = String::new();
            for line in BufReader::new(stream).lines() {
                out.push_str(&line.unwrap());
                out.push('\n');
            }
            out
        };
        // Client 1 submits a batch and hangs up; client 2 asks for status
        // and must see client 1's completed work and warmed cache.
        let first = exchange(&[batch_line(0)]);
        assert!(first.contains("\"kind\":\"batch\""));
        let second = exchange(&[
            "{\"cmd\":\"status\"}".to_string(),
            "{\"cmd\":\"shutdown\"}".to_string(),
        ]);
        let status = second.lines().next().unwrap();
        assert!(
            status.contains("\"completed\":1") && status.contains("\"cache_misses\":1"),
            "{status}"
        );
        let registry = server.join().unwrap();
        assert_eq!(registry.counter("served.batches"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
