//! The serving determinism contract, end to end: a batch of mixed
//! requests (§4 single-file, §5.2 multi-file, §7 ring) solved through the
//! sharded batcher must return responses bit-identical to a sequential
//! solve for every shard count, the per-shard metric registries must fan
//! in to shard-count-independent counters, and a server reused across
//! batches must answer exactly as a fresh one holding the same seeds. CI
//! runs this suite in release mode (real thread pools, optimized kernels).

use fap::obs::{MetricsRegistry, Telemetry};
use fap::prelude::*;

fn mixed_batch(requests: usize) -> Vec<ServeRequest> {
    (0..requests)
        .map(|i| {
            let seed = 9_000 + i as u64;
            match i % 3 {
                0 => {
                    let graph = topology::ring(6, 1.0).unwrap();
                    let pattern = AccessPattern::random(6, 0.1..0.5, seed).unwrap();
                    let problem = SingleFileProblem::mm1(&graph, &pattern, 5.0, 1.0).unwrap();
                    ServeRequest::SingleFile {
                        problem,
                        initial: vec![1.0 / 6.0; 6],
                        alpha: 0.08,
                        epsilon: 1e-6,
                        max_iterations: 100_000,
                        topology: None,
                    }
                }
                1 => {
                    let graph = topology::full_mesh(5, 1.0).unwrap();
                    let patterns: Vec<AccessPattern> = (0..3)
                        .map(|j| AccessPattern::random(5, 0.05..0.3, seed + 17 * j).unwrap())
                        .collect();
                    let problem = MultiFileProblem::mm1(&graph, &patterns, 7.0, 1.0).unwrap();
                    ServeRequest::MultiFile {
                        problem,
                        initial: vec![vec![0.2; 5]; 3],
                        alpha: 0.08,
                        epsilon: 1e-6,
                        max_iterations: 50_000,
                        topology: None,
                    }
                }
                _ => {
                    let ring =
                        VirtualRing::new(vec![4.0, 1.0, 1.0, 1.0], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0)
                            .unwrap();
                    ServeRequest::Ring {
                        ring,
                        initial: vec![2.0, 0.0, 0.0, 0.0],
                        alpha: 0.1,
                        cost_delta_tolerance: 1e-7,
                        max_iterations: 3_000,
                    }
                }
            }
        })
        .collect()
}

/// Serves `requests` on a fresh server; returns the responses and
/// everything the batch recorded.
fn serve_recorded(
    parallelism: Parallelism,
    warm: WarmMode,
    requests: &[ServeRequest],
) -> (Vec<Result<ServeResponse, fap::serve::ServeError>>, MetricsRegistry) {
    let mut metrics = MetricsRegistry::new();
    let responses = BatchServer::new(parallelism, warm).serve(requests, &mut metrics);
    (responses, metrics)
}

/// Single-file chains on an `n`-ring and multi-file chains of `files`
/// files on an `n`-mesh, interleaved: a batch whose shapes differ from
/// [`mixed_batch`]'s, so reused worker scratch meets larger and smaller
/// problems than it last held.
fn shaped_batch(n: usize, files: usize, seed: u64) -> Vec<ServeRequest> {
    let ring = topology::ring(n, 1.0).unwrap();
    let mesh = topology::full_mesh(n, 1.0).unwrap();
    (0..4u64)
        .map(|i| {
            if i % 2 == 0 {
                let pattern = AccessPattern::random(n, 0.05..0.3, seed + i).unwrap();
                ServeRequest::SingleFile {
                    problem: SingleFileProblem::mm1(&ring, &pattern, 4.0, 1.0).unwrap(),
                    initial: vec![1.0 / n as f64; n],
                    alpha: 0.08,
                    epsilon: 1e-6,
                    max_iterations: 100_000,
                    topology: None,
                }
            } else {
                let patterns: Vec<AccessPattern> = (0..files as u64)
                    .map(|j| AccessPattern::random(n, 0.02..0.2, seed + 31 * i + j).unwrap())
                    .collect();
                ServeRequest::MultiFile {
                    problem: MultiFileProblem::mm1(&mesh, &patterns, 6.0, 1.0).unwrap(),
                    initial: vec![vec![1.0 / n as f64; n]; files],
                    alpha: 0.08,
                    epsilon: 1e-6,
                    max_iterations: 50_000,
                    topology: None,
                }
            }
        })
        .collect()
}

#[test]
fn sharded_serving_is_bit_identical_to_sequential() {
    let requests = mixed_batch(12);
    let (sequential, _) = serve_recorded(Parallelism::Sequential, WarmMode::Off, &requests);
    assert!(sequential.iter().all(Result::is_ok), "the workload must solve cleanly");
    for shards in [1usize, 2, 8] {
        let (sharded, metrics) =
            serve_recorded(Parallelism::Fixed(shards), WarmMode::Off, &requests);
        // The worker count is capped at `shards` and at the task count.
        assert_eq!(metrics.gauge_value("serve.shards"), Some(shards as f64));
        assert_eq!(
            sequential, sharded,
            "{shards} shards must return the sequential responses bit for bit"
        );
    }
}

#[test]
fn aggregate_metrics_are_shard_count_independent() {
    let requests = mixed_batch(12);
    let (_, sequential) = serve_recorded(Parallelism::Sequential, WarmMode::Off, &requests);
    for shards in [2usize, 8] {
        let (_, sharded) = serve_recorded(Parallelism::Fixed(shards), WarmMode::Off, &requests);
        for counter in ["serve.requests", "econ.iterations", "core.iterations", "ring.iterations"]
        {
            assert!(sequential.counter(counter) > 0, "{counter} never recorded");
            assert_eq!(
                sequential.counter(counter),
                sharded.counter(counter),
                "{counter} must not depend on the shard count ({shards} shards)"
            );
        }
        assert_eq!(
            sequential.histogram("serve.request_iterations"),
            sharded.histogram("serve.request_iterations"),
            "the iteration histogram must fold identically ({shards} shards)"
        );
        assert_eq!(sharded.counter("serve.requests"), requests.len() as u64);
    }
}

#[test]
fn warm_started_serving_is_bit_identical_for_every_shard_count() {
    // With warm starts on, same-shaped requests chain and later links are
    // seeded from earlier converged answers. Chains are the scheduling unit
    // the workers take from the shared cursor, so the seed sequence — and
    // therefore every response — must not depend on how many workers run.
    let requests = mixed_batch(12);
    let (warm_sequential, sequential_metrics) =
        serve_recorded(Parallelism::Sequential, WarmMode::Batch, &requests);
    assert!(warm_sequential.iter().all(Result::is_ok), "the workload must solve cleanly");
    // Four single-file links and four multi-file links per chain head: six
    // seeded solves. Ring requests have no warm path and stay singletons.
    assert_eq!(sequential_metrics.counter("serve.warm_starts"), 6);
    for shards in [1usize, 2, 4, 8] {
        let (sharded, metrics) =
            serve_recorded(Parallelism::Fixed(shards), WarmMode::Batch, &requests);
        assert_eq!(
            warm_sequential, sharded,
            "{shards} warm shards must return the sequential responses bit for bit"
        );
        // Warm accounting commutes like every other merged counter.
        for counter in ["serve.warm_starts", "econ.warm_start_iters_saved", "serve.requests"] {
            assert_eq!(
                sequential_metrics.counter(counter),
                metrics.counter(counter),
                "{counter} must not depend on the shard count ({shards} shards)"
            );
        }
    }
}

#[test]
fn caller_telemetry_matches_the_aggregate() {
    let requests = mixed_batch(6);
    let mut telemetry = Telemetry::manual();
    BatchServer::new(Parallelism::Fixed(3), WarmMode::Off).serve(&requests, &mut telemetry);
    let (_, sequential) = serve_recorded(Parallelism::Sequential, WarmMode::Off, &requests);
    assert_eq!(
        telemetry.registry().counter("serve.requests"),
        sequential.counter("serve.requests")
    );
    assert_eq!(
        telemetry.registry().histogram("serve.request_iterations"),
        sequential.histogram("serve.request_iterations")
    );
    assert_eq!(telemetry.registry().gauge_value("serve.shards"), Some(3.0));
}

#[test]
fn a_reused_server_answers_as_a_fresh_one_holding_the_same_seeds() {
    // Mixed families and shapes, some repeated so session seeds are
    // consulted: every slot's scratch has last held some other shape.
    let batches = [
        mixed_batch(12),
        shaped_batch(9, 2, 100),
        mixed_batch(5),
        shaped_batch(3, 4, 200),
        shaped_batch(9, 2, 300),
        mixed_batch(12),
    ];
    for warm in [WarmMode::Batch, WarmMode::Session] {
        for shards in 1..=4 {
            let mut reused = BatchServer::new(Parallelism::Fixed(shards), warm);
            for (b, batch) in batches.iter().enumerate() {
                // A clone holds the same seeds on fresh worker scratch.
                let mut fresh = reused.clone();
                let expected = fresh.serve(batch, &mut NoopRecorder);
                assert!(expected.iter().all(Result::is_ok), "batch {b} must solve cleanly");
                assert_eq!(
                    reused.serve(batch, &mut NoopRecorder),
                    expected,
                    "{warm:?}, {shards} shards, batch {b}: reused scratch changed a response"
                );
                assert_eq!(reused.seed_count(), fresh.seed_count());
            }
            if warm == WarmMode::Session {
                assert_eq!(reused.seed_count(), 6, "one seed per single- and multi-file shape");
            } else {
                assert_eq!(reused.seed_count(), 0);
            }
        }
    }
}
