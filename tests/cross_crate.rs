//! Integration tests spanning crates: the decentralized protocol, the
//! centralized optimizer, the closed-form solver, the market equilibrium
//! and the discrete-event simulator must all agree about the same problem.

use fap::prelude::*;

fn asymmetric_problem(seed: u64) -> SingleFileProblem {
    let graph = topology::random_connected(6, 0.5, 1.0..3.0, seed).unwrap();
    let pattern = AccessPattern::random(6, 0.1..0.4, seed + 100).unwrap();
    SingleFileProblem::mm1(&graph, &pattern, pattern.total_rate() * 1.7, 1.0).unwrap()
}

/// Five independent routes to the same optimum.
#[test]
fn all_solvers_agree_on_the_optimum() {
    let p = asymmetric_problem(5);
    let x0 = vec![1.0 / 6.0; 6];

    let exact = reference::solve(&p).unwrap();

    let centralized = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
        .with_epsilon(1e-8)
        .with_max_iterations(200_000)
        .run(&p, &x0, &mut NoopRecorder)
        .unwrap();
    assert!(centralized.converged);

    let second_order = SecondOrderOptimizer::new(StepSize::Fixed(0.5))
        .with_epsilon(1e-8)
        .with_max_iterations(200_000)
        .run(&p, &x0, &mut NoopRecorder)
        .unwrap();
    assert!(second_order.converged);

    let distributed = SimRun::new(&p, ExchangeScheme::Broadcast, 0.05)
        .with_epsilon(1e-8)
        .with_max_rounds(200_000)
        .with_chaos(ChaosPlan::new(0))
        .run(&x0, &mut NoopRecorder)
        .unwrap();
    assert!(distributed.converged);

    let market = HostingMarket::new(&p).unwrap();
    let price = PriceDirectedOptimizer::new(0.3).with_tolerance(1e-9).run(&market).unwrap();
    assert!(price.converged);

    for i in 0..6 {
        let reference_x = exact.allocation[i];
        assert!((centralized.allocation[i] - reference_x).abs() < 1e-3, "centralized node {i}");
        assert!((second_order.allocation[i] - reference_x).abs() < 1e-3, "second-order node {i}");
        assert!((distributed.allocation[i] - reference_x).abs() < 1e-3, "distributed node {i}");
        assert!((price.allocation[i] - reference_x).abs() < 1e-3, "price node {i}");
    }
}

/// The gossip (neighbors-only) variant reaches the same optimum as global
/// averaging on a connected topology.
#[test]
fn gossip_agrees_with_global_averaging() {
    let graph = topology::ring(5, 1.0).unwrap();
    let pattern = AccessPattern::zipf(5, 1.0, 0.8).unwrap();
    let p = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
    let x0 = vec![0.2; 5];

    let global = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
        .with_epsilon(1e-8)
        .with_max_iterations(200_000)
        .run(&p, &x0, &mut NoopRecorder)
        .unwrap();
    let gossip = GossipOptimizer::new(Neighborhood::ring(5).unwrap(), 0.02)
        .with_epsilon(1e-8)
        .with_max_iterations(500_000)
        .run(&p, &x0, &mut NoopRecorder)
        .unwrap();
    assert!(global.converged && gossip.converged);
    for (a, b) in global.allocation.iter().zip(&gossip.allocation) {
        assert!((a - b).abs() < 1e-4);
    }
    assert!(gossip.iterations > global.iterations, "gossip diffuses more slowly");
}

/// Optimizing the analytic objective actually helps the simulated system:
/// the DES measures a lower cost for the optimized allocation than for the
/// integral baseline, and the measured values track the analytic ones.
#[test]
fn optimized_allocation_wins_in_simulation() {
    let graph = topology::ring(4, 1.0).unwrap();
    let costs = graph.shortest_path_matrix().unwrap();
    let pattern = AccessPattern::uniform(4, 1.0).unwrap();
    let p = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
    let optimum = reference::solve(&p).unwrap();
    let service = ServiceDistribution::exponential(1.5).unwrap();

    let simulate = |x: Vec<f64>| {
        NetworkSimulation::new(x, pattern.clone(), costs.clone(), service)
            .unwrap()
            .with_duration(150_000.0)
            .with_seed(3)
            .run()
            .unwrap()
            .mean_total_cost(1.0)
    };
    let measured_optimal = simulate(optimum.allocation.clone());
    let measured_integral = simulate(vec![1.0, 0.0, 0.0, 0.0]);
    assert!(measured_optimal < measured_integral);
    assert!((measured_optimal - optimum.cost).abs() / optimum.cost < 0.03);
    assert!((measured_integral - 3.0).abs() / 3.0 < 0.03);
}

/// The M/G/1 extension (§5.4) changes the optimum in the expected
/// direction: burstier service (higher SCV) penalizes concentration, so
/// the allocation spreads at least as evenly.
#[test]
fn mg1_scv_spreads_the_allocation() {
    let graph = topology::star(4, 1.0).unwrap();
    let pattern = AccessPattern::uniform(4, 1.0).unwrap();
    let solve_spread = |scv: f64| {
        let p = SingleFileProblem::mg1(&graph, &pattern, 1.5, scv, 1.0).unwrap();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_epsilon(1e-8)
            .with_max_iterations(200_000)
            .run(&p, &[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        let max = s.allocation.iter().copied().fold(f64::MIN, f64::max);
        let min = s.allocation.iter().copied().fold(f64::MAX, f64::min);
        max - min
    };
    // Hub advantage shrinks as service gets burstier.
    assert!(solve_spread(4.0) < solve_spread(0.0));
}

/// Multi-file contention (§5.4): two files optimized jointly balance node
/// loads; optimizing each alone would stack them on the same cheap nodes.
#[test]
fn multi_file_balances_shared_queues() {
    let graph = topology::full_mesh(4, 0.05).unwrap();
    let pattern = AccessPattern::uniform(4, 0.7).unwrap();
    let m = MultiFileProblem::mm1(&graph, &[pattern.clone(), pattern], 1.0, 5.0).unwrap();
    let initial = vec![vec![0.7, 0.3, 0.0, 0.0], vec![0.6, 0.0, 0.4, 0.0]];
    let s = m
        .solve(&initial, 0.02, 1e-6, 100_000, &mut NoopRecorder)
        .unwrap();
    assert!(s.converged);
    let loads = m.node_loads(&s.allocations).unwrap();
    let avg: f64 = loads.iter().sum::<f64>() / 4.0;
    for l in &loads {
        assert!((l - avg).abs() < 1e-3, "{loads:?}");
    }
}

/// Record rounding (§8.1) composes with the full pipeline and stays
/// deployable in the simulator.
#[test]
fn rounded_allocation_remains_near_optimal() {
    let p = asymmetric_problem(21);
    let optimum = reference::solve(&p).unwrap();
    let rounded = fap::core::rounding::round_to_records(&optimum.allocation, 1_000).unwrap();
    let penalty =
        fap::core::rounding::rounding_penalty(&p, &optimum.allocation, 1_000).unwrap();
    assert!(penalty >= -1e-12);
    assert!(penalty < 1e-3, "penalty {penalty}");
    assert_eq!(rounded.records.iter().sum::<usize>(), 1_000);
}
