//! Warm-path equivalence, end to end: the topology-keyed cost-matrix
//! cache must hand back bit-identical matrices, and warm-started solves
//! must land on the same fixed point the cold solver finds — on random
//! topologies and workloads, not fixtures. CI runs this suite in release
//! mode alongside `serve_equivalence`.

use fap::econ::OptimizerScratch;
use fap::prelude::*;
use proptest::prelude::*;

/// Builds a random solvable problem from a seed.
fn random_problem(seed: u64, n: usize) -> (Graph, SingleFileProblem) {
    let graph = topology::random_connected(n, 0.5, 1.0..4.0, seed).unwrap();
    let pattern = AccessPattern::random(n, 0.1..0.5, seed + 1).unwrap();
    let problem =
        SingleFileProblem::mm1(&graph, &pattern, pattern.total_rate() * 1.8, 1.0).unwrap();
    (graph, problem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cache hit returns the same bits a fresh all-pairs Dijkstra
    /// produces, for any random connected topology — the property the
    /// whole warm path rests on.
    #[test]
    fn cached_cost_matrices_are_bit_identical_to_fresh_ones(
        seed in 0u64..500,
        n in 3usize..12,
    ) {
        let graph = topology::random_connected(n, 0.4, 0.5..5.0, seed).unwrap();
        let fresh = graph.shortest_path_matrix().unwrap();
        let mut cache = SubstrateCache::new();
        // Miss, then hit: both lookups must return the fresh bits.
        for _ in 0..2 {
            let cached = cache.get_or_build(&graph, CostBackend::Dense, &mut NoopRecorder).unwrap();
            for u in graph.nodes() {
                for v in graph.nodes() {
                    prop_assert_eq!(cached.cost(u, v).to_bits(), fresh.cost(u, v).to_bits());
                }
            }
        }
        prop_assert_eq!(cache.hits(), 1);
        prop_assert_eq!(cache.misses(), 1);
    }

    /// Distinct topologies get distinct fingerprints in practice, and a
    /// re-serialized copy of the same topology fingerprints identically.
    #[test]
    fn fingerprints_separate_topologies_and_respect_equality(
        seed in 0u64..500,
        n in 3usize..10,
    ) {
        let a = topology::random_connected(n, 0.4, 0.5..5.0, seed).unwrap();
        let same = topology::random_connected(n, 0.4, 0.5..5.0, seed).unwrap();
        let other = topology::random_connected(n, 0.4, 0.5..5.0, seed + 1).unwrap();
        prop_assert_eq!(topology_fingerprint(&a), topology_fingerprint(&same));
        if a != other {
            prop_assert_ne!(topology_fingerprint(&a), topology_fingerprint(&other));
        }
    }

    /// A warm-started solve reaches the cold fixed point: same active set,
    /// utility within 1e-12, under a tight tolerance — seeding changes the
    /// path, never the destination (§5.1: the start "will in no way effect
    /// the optimality of the final allocation").
    #[test]
    fn warm_starts_reach_the_cold_fixed_point(seed in 0u64..200, n in 3usize..9) {
        let (_, problem) = random_problem(seed, n);
        let optimizer = ResourceDirectedOptimizer::new(StepSize::Fixed(0.03))
            .with_epsilon(1e-9)
            .with_max_iterations(300_000);
        let initial = vec![1.0 / n as f64; n];
        let mut scratch = OptimizerScratch::new();
        let cold = optimizer
            .run_with_scratch(&problem, &initial, &mut scratch, &mut NoopRecorder)
            .unwrap();
        prop_assert!(cold.converged);

        // Seed from the converged answer of a *perturbed* neighbour, the
        // serving scenario: drift every coordinate and let the projection
        // restore feasibility.
        let mut drifted = cold.allocation.clone();
        for (i, v) in drifted.iter_mut().enumerate() {
            *v = (*v + 0.01 * ((seed + i as u64) % 5) as f64).max(0.0);
        }
        scratch.start_from(&drifted);
        let warm = optimizer
            .run_with_scratch(&problem, &initial, &mut scratch, &mut NoopRecorder)
            .unwrap();
        prop_assert!(warm.converged);
        prop_assert!(
            (warm.final_utility - cold.final_utility).abs() <= 1e-12,
            "warm utility {} vs cold {}", warm.final_utility, cold.final_utility
        );
        // Same active set: a node holds a fragment in one solution iff it
        // does in the other (tolerance well below any real fragment).
        for (w, c) in warm.allocation.iter().zip(&cold.allocation) {
            prop_assert!((*w > 1e-7) == (*c > 1e-7), "active sets diverged");
            prop_assert!((w - c).abs() < 1e-5);
        }
    }
}

/// The cross-layer composition: serving a mixed batch through the
/// cache-backed CLI spec layer with warm starts on, sharded, equals the
/// warm sequential solve — and the cold path is untouched by the cache.
#[test]
fn cached_warm_sharded_serving_matches_sequential() {
    let requests: Vec<ServeRequest> = (0..10)
        .map(|i| {
            let (_, problem) = random_problem(40 + (i % 3) as u64, 6);
            ServeRequest::SingleFile {
                problem,
                initial: vec![1.0 / 6.0; 6],
                alpha: 0.05,
                epsilon: 1e-8,
                max_iterations: 200_000,
                topology: None,
            }
        })
        .collect();
    let mut metrics = MetricsRegistry::new();
    let warm_sequential =
        BatchServer::new(Parallelism::Sequential, WarmMode::Batch).serve(&requests, &mut metrics);
    assert!(warm_sequential.iter().all(Result::is_ok));
    assert!(metrics.counter("serve.warm_starts") > 0);
    for shards in [1usize, 2, 4, 8] {
        let sharded = BatchServer::new(Parallelism::Fixed(shards), WarmMode::Batch)
            .serve(&requests, &mut NoopRecorder);
        assert_eq!(
            warm_sequential, sharded,
            "{shards} warm shards must match warm sequential bit for bit"
        );
    }
}
