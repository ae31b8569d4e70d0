//! Edge-case and composition tests that cut across crates.

use fap::net::estimate::{AccessEvent, estimate_rates};
use fap::prelude::*;
use fap::queue::DelayModel;
use fap::runtime::{best_coordinator, estimate_round_timing};

/// Deterministic (M/D/1) service beats exponential (M/M/1) service at every
/// allocation, and the optimizer exploits the difference consistently.
#[test]
fn deterministic_service_lowers_cost_at_equal_capacity() {
    let graph = topology::ring(4, 1.0).unwrap();
    let pattern = AccessPattern::uniform(4, 1.0).unwrap();
    let mm1 = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
    let md1 = SingleFileProblem::mg1(&graph, &pattern, 1.5, 0.0, 1.0).unwrap();
    for x in [[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]] {
        assert!(md1.cost_of(&x).unwrap() < mm1.cost_of(&x).unwrap(), "{x:?}");
    }
    // And the optimized costs preserve the ordering.
    let solve = |p: &SingleFileProblem<Mg1Delay>| {
        ResourceDirectedOptimizer::new(StepSize::Fixed(0.1))
            .with_epsilon(1e-7)
            .run(p, &[0.25; 4], &mut NoopRecorder)
            .unwrap()
            .final_cost()
    };
    let mm1_as_mg1 = SingleFileProblem::mg1(&graph, &pattern, 1.5, 1.0, 1.0).unwrap();
    assert!(solve(&md1) < solve(&mm1_as_mg1));
}

/// The coordinator the timing model picks actually minimizes the measured
/// round time, and the protocol run at that coordinator matches the
/// broadcast result.
#[test]
fn timing_guided_coordinator_placement() {
    let graph = topology::line(6, 1.0).unwrap();
    let delays = graph.shortest_path_matrix().unwrap();
    let best = best_coordinator(&delays).unwrap();
    // The middle of a 6-line is node 2 or 3; both have eccentricity 3.
    assert!(best == 2 || best == 3);
    let best_time =
        estimate_round_timing(&delays, ExchangeScheme::Central { coordinator: best }, 1)
            .unwrap()
            .per_round;
    for c in 0..6 {
        let t = estimate_round_timing(&delays, ExchangeScheme::Central { coordinator: c }, 1)
            .unwrap()
            .per_round;
        assert!(best_time <= t);
    }

    let pattern = AccessPattern::uniform(6, 1.0).unwrap();
    let problem = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
    let x0 = vec![1.0 / 6.0; 6];
    let run = |scheme| {
        SimRun::new(&problem, scheme, 0.1)
            .with_epsilon(1e-6)
            .with_chaos(ChaosPlan::new(0))
            .run(&x0, &mut NoopRecorder)
            .unwrap()
    };
    let central = run(ExchangeScheme::Central { coordinator: best });
    let broadcast = run(ExchangeScheme::Broadcast);
    assert_eq!(central.allocation, broadcast.allocation);
}

/// Rates estimated from a synthetic trace produce nearly the same optimum
/// as the true rates — the quantitative version of the §8 estimation story.
#[test]
fn estimated_rates_recover_the_true_optimum() {
    let graph = topology::star(5, 1.0).unwrap();
    let truth = AccessPattern::new(vec![0.5, 0.2, 0.1, 0.1, 0.1]).unwrap();

    // A deterministic "trace": evenly spaced events at each node's rate
    // (the ML estimator only counts, so spacing is irrelevant).
    let horizon = 10_000.0;
    let mut events = Vec::new();
    for i in 0..5 {
        let rate = truth.rate(NodeId::new(i));
        let count = (rate * horizon) as usize;
        for k in 0..count {
            events.push(AccessEvent {
                source: NodeId::new(i),
                time: k as f64 * horizon / count as f64,
            });
        }
    }
    let estimated = estimate_rates(5, &events, 0.0, horizon).unwrap();

    let solve = |pattern: &AccessPattern| {
        let problem = SingleFileProblem::mm1(&graph, pattern, 1.5, 1.0).unwrap();
        reference::solve(&problem).unwrap().allocation
    };
    let true_x = solve(&truth);
    let est_x = solve(&estimated);
    for (a, b) in true_x.iter().zip(&est_x) {
        assert!((a - b).abs() < 1e-3, "{true_x:?} vs {est_x:?}");
    }
}

/// Heterogeneous service rates on the multi-copy ring: slow nodes end up
/// holding less of the copies.
#[test]
fn slow_ring_nodes_hold_less() {
    let ring = VirtualRing::new(
        vec![1.0; 4],
        vec![0.25; 4],
        vec![3.0, 0.8, 3.0, 0.8], // nodes 1 and 3 are slow
        2.0,
        2.0,
    )
    .unwrap();
    let s = RingSolver::new(0.03)
        .with_max_iterations(5_000)
        .solve(&ring, &[0.5; 4], &mut NoopRecorder)
        .unwrap();
    let x = &s.best_allocation;
    assert!(x[0] > x[1], "{x:?}");
    assert!(x[2] > x[3], "{x:?}");
}

/// Two files with disjoint hotspots separate onto their own hot regions.
#[test]
fn multi_file_files_follow_their_own_traffic() {
    let graph = topology::line(4, 2.0).unwrap();
    let file_a = AccessPattern::hotspot(4, 0.5, NodeId::new(0), 0.85).unwrap();
    let file_b = AccessPattern::hotspot(4, 0.5, NodeId::new(3), 0.85).unwrap();
    let m = MultiFileProblem::mm1(&graph, &[file_a, file_b], 1.5, 0.3).unwrap();
    let s = m
        .solve(&[vec![0.25; 4], vec![0.25; 4]], 0.02, 1e-6, 100_000, &mut NoopRecorder)
        .unwrap();
    assert!(s.converged);
    // File A concentrates at the left end, file B at the right.
    assert!(s.allocations[0][0] > s.allocations[0][3], "{:?}", s.allocations);
    assert!(s.allocations[1][3] > s.allocations[1][0], "{:?}", s.allocations);
}

/// The Mg1 curvature information drives the second-order optimizer on a
/// non-M/M/1 objective just as well.
#[test]
fn second_order_works_on_mg1_objectives() {
    let graph = topology::ring(5, 1.0).unwrap();
    let pattern = AccessPattern::zipf(5, 1.0, 0.7).unwrap();
    let p = SingleFileProblem::mg1(&graph, &pattern, 1.5, 2.0, 1.0).unwrap();
    let second = SecondOrderOptimizer::new(StepSize::Fixed(0.8))
        .with_epsilon(1e-8)
        .with_max_iterations(50_000)
        .run(&p, &[0.2; 5], &mut NoopRecorder)
        .unwrap();
    let first = ResourceDirectedOptimizer::new(StepSize::Fixed(0.03))
        .with_epsilon(1e-8)
        .with_max_iterations(200_000)
        .run(&p, &[0.2; 5], &mut NoopRecorder)
        .unwrap();
    assert!(second.converged && first.converged);
    for (a, b) in second.allocation.iter().zip(&first.allocation) {
        assert!((a - b).abs() < 1e-4);
    }
    assert!(second.iterations < first.iterations);
}

/// Capacity accounting: MmcDelay's capacity is servers × rate, and the
/// problem constructor enforces the joint-capacity check through it.
#[test]
fn mmc_capacity_feeds_the_stability_check() {
    use fap::queue::MmcDelay;
    let delays = vec![MmcDelay::new(2, 0.3).unwrap(); 2]; // joint capacity 1.2
    assert!((delays[0].capacity() - 0.6).abs() < 1e-12);
    // λ = 1.5 exceeds 1.2: rejected up front.
    assert!(fap::core::SingleFileProblem::from_parts(vec![0.0; 2], 1.5, delays.clone(), 1.0)
        .is_err());
    assert!(fap::core::SingleFileProblem::from_parts(vec![0.0; 2], 1.0, delays, 1.0).is_ok());
}
