//! The dense-provider bit-identity contract of the sparse cost substrate:
//! making the solvers generic over [`CostProvider`] must not move a single
//! bit on the exact path. A dense [`CostMatrix`] fed through the
//! provider-generic constructors, the [`SubstrateCache`]'s dense backend,
//! and the CLI's `cost_backend: dense` scenarios all have to reproduce the
//! legacy matrix pipeline exactly — that is what keeps the existing
//! `parallel_equivalence`/`serve_equivalence` checksums valid.

use fap::prelude::*;

fn workload(n: usize, seed: u64) -> (Graph, AccessPattern, f64) {
    let graph = topology::random_connected(n, 0.3, 1.0..4.0, seed).unwrap();
    let pattern = AccessPattern::random(n, 0.1..0.5, seed + 1).unwrap();
    let mu = 2.0 * pattern.total_rate() / n as f64 * 5.0;
    (graph, pattern, mu)
}

#[test]
fn dense_provider_single_file_is_bit_identical_to_the_matrix_path() {
    for seed in [3, 17, 99] {
        let (graph, pattern, mu) = workload(24, seed);
        let legacy = SingleFileProblem::mm1(&graph, &pattern, mu, 1.0).unwrap();
        let matrix = graph.shortest_path_matrix().unwrap();
        let generic =
            SingleFileProblem::mm1_with_provider(&matrix, &pattern, mu, 1.0).unwrap();
        for (a, b) in legacy.access_costs().iter().zip(generic.access_costs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let start = vec![1.0 / 24.0; 24];
        let solver = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_epsilon(1e-8)
            .with_max_iterations(200_000);
        let x = solver.run(&legacy, &start, &mut NoopRecorder).unwrap();
        let y = solver.run(&generic, &start, &mut NoopRecorder).unwrap();
        for (a, b) in x.allocation.iter().zip(&y.allocation) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn dense_provider_multi_file_solves_are_bit_identical() {
    let (graph, _, _) = workload(18, 7);
    let patterns: Vec<AccessPattern> =
        (0..4).map(|j| AccessPattern::random(18, 0.1..0.4, 50 + j).unwrap()).collect();
    let offered: f64 = patterns.iter().map(AccessPattern::total_rate).sum();
    let mu = 10.0 * offered / 18.0;
    let legacy = MultiFileProblem::mm1(&graph, &patterns, mu, 1.0).unwrap();
    let matrix = graph.shortest_path_matrix().unwrap();
    let generic = MultiFileProblem::mm1_heterogeneous_with_provider(
        &matrix,
        &patterns,
        &[mu; 18],
        1.0,
    )
    .unwrap();
    let initial = vec![vec![1.0 / 18.0; 18]; 4];
    let a = legacy.solve(&initial, 0.002, 1e-9, 500, &mut NoopRecorder).unwrap();
    let b = generic.solve(&initial, 0.002, 1e-9, 500, &mut NoopRecorder).unwrap();
    assert_eq!(a, b, "provider-generic multi-file solve must match the matrix path");
}

#[test]
fn substrate_cache_dense_backend_returns_the_exact_matrix() {
    let (graph, pattern, _) = workload(16, 23);
    let mut cache = SubstrateCache::new();
    let matrix = graph.shortest_path_matrix().unwrap();
    let provider = cache
        .get_or_build(&graph, CostBackend::Dense, &mut NoopRecorder)
        .unwrap();
    assert_eq!(provider.node_count(), 16);
    let mut row = vec![0.0; 16];
    for u in 0..16 {
        provider.row_into(NodeId::new(u), &mut row);
        for (v, &got) in row.iter().enumerate() {
            let exact = matrix.cost(NodeId::new(u), NodeId::new(v));
            assert_eq!(got.to_bits(), exact.to_bits());
            assert_eq!(
                provider.cost(NodeId::new(u), NodeId::new(v)).to_bits(),
                exact.to_bits()
            );
        }
    }
    let est = provider.systemwide_access_costs(&pattern);
    let exact = matrix.systemwide_access_costs(&pattern);
    for (a, b) in est.iter().zip(&exact) {
        assert_eq!(a.to_bits(), b.to_bits(), "dense backend must estimate nothing");
    }
}

#[test]
fn cli_dense_backend_scenarios_match_the_legacy_solve() {
    // `{"kind": "dense"}` is the serde default: a scenario that never
    // mentions cost_backend and one that names dense explicitly must both
    // produce the byte-for-byte legacy solution.
    let mut explicit = fap_cli::Scenario::example();
    explicit.cost_backend = CostBackend::Dense;
    let implicit: fap_cli::Scenario =
        serde_json::from_str(&fap_cli::Scenario::example().to_json()).unwrap();
    let a = fap_cli::solve(&fap_cli::Scenario::example(), &mut NoopRecorder).unwrap();
    let b = fap_cli::solve(&explicit, &mut NoopRecorder).unwrap();
    let c = fap_cli::solve(&implicit, &mut NoopRecorder).unwrap();
    for ((x, y), z) in a.allocation.iter().zip(&b.allocation).zip(&c.allocation) {
        assert_eq!(x.to_bits(), y.to_bits());
        assert_eq!(x.to_bits(), z.to_bits());
    }
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
}

#[test]
fn oracle_with_every_node_a_landmark_matches_dense_access_costs() {
    // With K = N the hub decomposition loses its approximation terms
    // (home distance 0, empty intra-cluster remainders), so the oracle's
    // systemwide access costs collapse to the exact definition.
    let (graph, pattern, _) = workload(12, 41);
    let oracle = LandmarkOracle::build(&graph, 12, 5).unwrap();
    let matrix = graph.shortest_path_matrix().unwrap();
    let est = oracle.systemwide_access_costs(&pattern);
    let exact = matrix.systemwide_access_costs(&pattern);
    for (i, (a, b)) in est.iter().zip(&exact).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "node {i}: estimated {a} vs exact {b}"
        );
    }
}
