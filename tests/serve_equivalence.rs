//! The serving determinism contract, end to end: a batch of mixed
//! requests (§4 single-file, §5.2 multi-file, §7 ring) solved through the
//! sharded batcher must return responses bit-identical to a sequential
//! solve for every shard count, and the per-shard metric registries must
//! fan in to one shard-count-independent aggregate. CI runs this suite in
//! release mode (real thread pools, optimized kernels).

use fap::obs::Telemetry;
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

#[test]
fn sharded_serving_is_bit_identical_to_sequential() {
    let requests = mixed_batch(12);
    let sequential =
        BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut NoopRecorder);
    assert_eq!(sequential.err_count(), 0, "the workload must solve cleanly");
    for shards in [1usize, 2, 8] {
        let sharded =
            BatchServer::new(Parallelism::Fixed(shards)).serve(&requests, None, &mut NoopRecorder);
        // Contiguous chunking caps the worker count at `shards` (it may use
        // fewer when the batch doesn't split evenly).
        assert!((1..=shards).contains(&sharded.shard_metrics.len()));
        assert_eq!(
            sequential.responses, sharded.responses,
            "{shards} shards must return the sequential responses bit for bit"
        );
    }
}

#[test]
fn aggregate_metrics_are_shard_count_independent() {
    let requests = mixed_batch(12);
    let sequential =
        BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut NoopRecorder);
    for shards in [2usize, 8] {
        let sharded =
            BatchServer::new(Parallelism::Fixed(shards)).serve(&requests, None, &mut NoopRecorder);
        for counter in ["serve.requests", "econ.iterations", "core.iterations", "ring.iterations"]
        {
            assert!(sequential.aggregate.counter(counter) > 0, "{counter} never recorded");
            assert_eq!(
                sequential.aggregate.counter(counter),
                sharded.aggregate.counter(counter),
                "{counter} must not depend on the shard count ({shards} shards)"
            );
        }
        assert_eq!(
            sequential.aggregate.histogram("serve.request_iterations"),
            sharded.aggregate.histogram("serve.request_iterations"),
            "the iteration histogram must fold identically ({shards} shards)"
        );
        // The aggregate is exactly the sum of the per-shard registries.
        let shard_sum: u64 =
            sharded.shard_metrics.iter().map(|r| r.counter("serve.requests")).sum();
        assert_eq!(sharded.aggregate.counter("serve.requests"), shard_sum);
    }
}

#[test]
fn warm_started_serving_is_bit_identical_for_every_shard_count() {
    // With warm starts on, same-shaped requests chain and later links are
    // seeded from earlier converged answers. Chains are the scheduling unit
    // of the work-stealing scheduler, so the seed sequence — and therefore
    // every response — must not depend on how many workers steal the tasks.
    let requests = mixed_batch(12);
    let warm_sequential = BatchServer::new(Parallelism::Sequential)
        .with_warm_start(true)
        .serve(&requests, None, &mut NoopRecorder);
    assert_eq!(warm_sequential.err_count(), 0, "the workload must solve cleanly");
    // Four single-file links and four multi-file links per chain head: six
    // seeded solves. Ring requests have no warm path and stay singletons.
    assert_eq!(warm_sequential.aggregate.counter("serve.warm_starts"), 6);
    for shards in [1usize, 2, 4, 8] {
        let sharded = BatchServer::new(Parallelism::Fixed(shards))
            .with_warm_start(true)
            .serve(&requests, None, &mut NoopRecorder);
        assert_eq!(
            warm_sequential.responses, sharded.responses,
            "{shards} warm shards must return the sequential responses bit for bit"
        );
        // Warm accounting commutes like every other aggregate counter;
        // only `serve.steals` is scheduling-dependent and unasserted.
        for counter in ["serve.warm_starts", "econ.warm_start_iters_saved", "serve.requests"] {
            assert_eq!(
                warm_sequential.aggregate.counter(counter),
                sharded.aggregate.counter(counter),
                "{counter} must not depend on the shard count ({shards} shards)"
            );
        }
    }
}

#[test]
fn caller_telemetry_matches_the_aggregate() {
    let requests = mixed_batch(6);
    let mut telemetry = Telemetry::manual();
    let output = BatchServer::new(Parallelism::Fixed(3)).serve(&requests, None, &mut telemetry);
    assert_eq!(
        telemetry.registry().counter("serve.requests"),
        output.aggregate.counter("serve.requests")
    );
    assert_eq!(
        telemetry.registry().histogram("serve.request_iterations"),
        output.aggregate.histogram("serve.request_iterations")
    );
    assert_eq!(telemetry.registry().gauge_value("serve.shards"), Some(3.0));
}
