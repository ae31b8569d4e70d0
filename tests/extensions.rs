//! Integration tests for the extension features: M/M/c nodes, storage
//! costs, noisy marginals, copy-count sweeps, routing tables, and serde
//! round-trips of the public data structures.

use fap::econ::NoisyProblem;
use fap::net::routing::{path_metrics, RoutingTable};
use fap::prelude::*;
use fap::queue::MmcDelay;
use fap::ring::sweep_copies;

/// The FAP objective over multi-server (M/M/c) nodes: a node with many
/// slow disks competes against a node with one fast disk of the same total
/// capacity — and loses share, because Erlang-C response times are worse at
/// equal capacity.
#[test]
fn mmc_nodes_plug_into_the_allocation_problem() {
    let costs: Vec<f64> = vec![1.0, 1.0];
    let delays = vec![
        MmcDelay::new(4, 0.5).unwrap(), // 4 slow disks, capacity 2.0
        MmcDelay::new(1, 2.0).unwrap(), // 1 fast disk, capacity 2.0
    ];
    let problem =
        fap::core::SingleFileProblem::from_parts(costs, 1.5, delays, 1.0).unwrap();
    let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
        .with_epsilon(1e-8)
        .with_max_iterations(100_000)
        .run(&problem, &[0.5, 0.5], &mut NoopRecorder)
        .unwrap();
    assert!(s.converged);
    assert!(
        s.allocation[1] > s.allocation[0],
        "the pooled-fast node should hold more: {:?}",
        s.allocation
    );
    // Marginal costs equalize.
    let mut g = vec![0.0; 2];
    problem.marginal_utilities(&s.allocation, &mut g).unwrap();
    assert!((g[0] - g[1]).abs() < 1e-6);
}

/// Storage costs (Casey's formulation) shift the optimum and compose with
/// the water-filling reference.
#[test]
fn storage_costs_change_the_waterfilling_optimum() {
    let graph = topology::ring(4, 1.0).unwrap();
    let pattern = AccessPattern::uniform(4, 1.0).unwrap();
    let base = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
    let priced = base.clone().with_storage_costs(&[2.0, 0.0, 0.0, 0.0]).unwrap();

    let r_base = reference::solve(&base).unwrap();
    let r_priced = reference::solve(&priced).unwrap();
    assert!(r_priced.allocation[0] < r_base.allocation[0]);

    // The decentralized algorithm agrees with the priced optimum too.
    let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
        .with_epsilon(1e-8)
        .with_max_iterations(100_000)
        .run(&priced, &[0.25; 4], &mut NoopRecorder)
        .unwrap();
    for (a, b) in s.allocation.iter().zip(&r_priced.allocation) {
        assert!((a - b).abs() < 1e-3);
    }
}

/// Noisy marginal estimates (the §8 deployment concern) still land the FAP
/// iteration near the optimum.
#[test]
fn fap_tolerates_noisy_marginal_estimates() {
    let graph = topology::ring(5, 1.0).unwrap();
    let pattern = AccessPattern::zipf(5, 1.0, 0.5).unwrap();
    let exact = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
    let optimum = reference::solve(&exact).unwrap();

    let noisy = NoisyProblem::new(&exact, 0.05, 3).unwrap();
    let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
        .with_max_iterations(3_000)
        .run(&noisy, &[0.2; 5], &mut NoopRecorder)
        .unwrap();
    let gap = (exact.cost_of(&s.allocation).unwrap() - optimum.cost) / optimum.cost;
    assert!(gap >= -1e-9);
    assert!(gap < 0.01, "5% marginal noise left a {gap:.4} relative cost gap");
}

/// The copy-count sweep (§8.2 future work) through the public API.
#[test]
fn copy_sweep_trades_access_against_storage() {
    let solver = RingSolver::new(0.05).with_max_iterations(1_000);
    let cheap_storage = sweep_copies(
        &[4.0; 6],
        &[0.2; 6],
        &[2.0; 6],
        1.0,
        0.1,
        &[1.0, 2.0, 3.0],
        &solver,
    )
    .unwrap();
    let dear_storage = sweep_copies(
        &[4.0; 6],
        &[0.2; 6],
        &[2.0; 6],
        1.0,
        20.0,
        &[1.0, 2.0, 3.0],
        &solver,
    )
    .unwrap();
    assert!(cheap_storage.best_point().copies > dear_storage.best_point().copies);
}

/// Routing tables agree with the cost matrix the optimizer consumes, so the
/// simulated store-and-forward paths really carry the modeled costs.
#[test]
fn routes_carry_exactly_the_modeled_costs() {
    let graph = topology::torus(3, 3, 2.0).unwrap();
    let costs = graph.shortest_path_matrix().unwrap();
    let table = RoutingTable::build(&graph).unwrap();
    for i in graph.nodes() {
        for j in graph.nodes() {
            let walked: f64 = table
                .path(i, j)
                .windows(2)
                .map(|w| graph.direct_cost(w[0], w[1]).unwrap())
                .sum();
            assert!((walked - costs.cost(i, j)).abs() < 1e-12);
        }
    }
    let metrics = path_metrics(&graph).unwrap();
    assert_eq!(metrics.diameter, 4.0); // two wrap steps on a 3×3 torus
}

/// Public result types serialize and deserialize losslessly (C-SERDE).
#[test]
fn results_round_trip_through_serde() {
    let graph = topology::ring(4, 1.0).unwrap();
    let pattern = AccessPattern::uniform(4, 1.0).unwrap();
    let problem = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
    let solution = ResourceDirectedOptimizer::new(StepSize::Fixed(0.19))
        .run(&problem, &[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
        .unwrap();

    let graph2: Graph = serde_json::from_str(&serde_json::to_string(&graph).unwrap()).unwrap();
    assert_eq!(graph, graph2);

    let pattern2: AccessPattern =
        serde_json::from_str(&serde_json::to_string(&pattern).unwrap()).unwrap();
    assert_eq!(pattern, pattern2);

    let problem2: SingleFileProblem =
        serde_json::from_str(&serde_json::to_string(&problem).unwrap()).unwrap();
    assert_eq!(problem, problem2);

    let solution2: Solution =
        serde_json::from_str(&serde_json::to_string(&solution).unwrap()).unwrap();
    assert_eq!(solution, solution2);

    let ring = VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).unwrap();
    let ring2: VirtualRing = serde_json::from_str(&serde_json::to_string(&ring).unwrap()).unwrap();
    assert_eq!(ring, ring2);
}
