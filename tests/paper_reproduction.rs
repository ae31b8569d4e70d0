//! End-to-end reproduction of the paper's §6 claims through the public API.

use fap::prelude::*;

fn paper_problem() -> SingleFileProblem {
    let graph = topology::ring(4, 1.0).unwrap();
    let pattern = AccessPattern::uniform(4, 1.0).unwrap();
    SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap()
}

/// Figure 3: the four step sizes converge in (about) the reported numbers
/// of iterations — 4, 10, 20, 51 — and every profile is monotone.
#[test]
fn figure3_iteration_counts() {
    let expected = [(0.67, 4usize), (0.3, 10), (0.19, 20), (0.08, 51)];
    let mut measured = Vec::new();
    for (alpha, paper_iterations) in expected {
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(alpha))
            .with_boundary(BoundaryRule::Unconstrained)
            .with_epsilon(1e-3)
            .run(&paper_problem(), &[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged, "alpha={alpha}");
        assert!(s.trace.is_cost_monotone_decreasing(1e-12), "alpha={alpha}");
        assert!(
            s.iterations.abs_diff(paper_iterations) <= paper_iterations / 3 + 1,
            "alpha={alpha}: measured {} vs paper {paper_iterations}",
            s.iterations
        );
        for x in &s.allocation {
            assert!((x - 0.25).abs() < 5e-3);
        }
        measured.push(s.iterations);
    }
    // The Figure-3 ordering: smaller alpha, more iterations.
    assert!(measured.windows(2).all(|w| w[0] <= w[1]), "{measured:?}");
}

/// Figure 4: fragmenting the file beats the optimal integral placement by
/// a large margin (3.0 → 1.8, a 40% reduction; the paper says 25%).
#[test]
fn figure4_fragmentation_reduction() {
    let p = paper_problem();
    let integral = baseline::best_single_node(&p).unwrap();
    assert!((integral.cost - 3.0).abs() < 1e-12);

    let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.3))
        .with_boundary(BoundaryRule::Unconstrained)
        .with_epsilon(1e-4)
        .run(&p, &[0.0, 0.0, 0.0, 1.0], &mut NoopRecorder)
        .unwrap();
    assert!(s.converged);
    assert!((s.final_cost() - 1.8).abs() < 1e-3);
    let reduction = (integral.cost - s.final_cost()) / integral.cost;
    assert!(reduction > 0.25, "reduction {reduction}");
}

/// §5.3 feasibility + monotonicity let the algorithm stop early with a
/// usable allocation strictly better than the start.
#[test]
fn early_termination_yields_feasible_improvement() {
    let p = paper_problem();
    let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
        .with_max_iterations(3)
        .with_recorded_allocations()
        .run(&p, &[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
        .unwrap();
    assert!(!s.converged);
    let first = s.trace.records().first().unwrap();
    assert!(s.final_utility > first.utility);
    let sum: f64 = s.allocation.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    assert!(s.allocation.iter().all(|x| *x >= 0.0));
}

/// The paper's ε means "partial derivatives within 0.025 percent of each
/// other" at convergence: check the marginal spread honestly.
#[test]
fn epsilon_controls_marginal_spread() {
    let p = paper_problem();
    let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.19))
        .with_boundary(BoundaryRule::Unconstrained)
        .with_epsilon(1e-3)
        .run(&p, &[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
        .unwrap();
    let mut g = vec![0.0; 4];
    p.marginal_utilities(&s.allocation, &mut g).unwrap();
    let spread = g.iter().copied().fold(f64::MIN, f64::max)
        - g.iter().copied().fold(f64::MAX, f64::min);
    assert!(spread < 1e-3, "spread {spread}");
}

/// §7.3, Figures 8 and 9, through the public ring API.
#[test]
fn ring_oscillation_claims() {
    let comm_ring =
        VirtualRing::new(vec![4.0, 1.0, 1.0, 1.0], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).unwrap();
    let delay_ring =
        VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).unwrap();
    let start = [2.0, 0.0, 0.0, 0.0];
    let solve = |ring: &VirtualRing, alpha: f64| {
        RingSolver::new(alpha)
            .without_adaptation()
            .with_max_iterations(150)
            .solve(ring, &start, &mut NoopRecorder)
            .unwrap()
    };
    // Figure 8: communication dominance oscillates more.
    assert!(
        solve(&comm_ring, 0.1).oscillation_amplitude()
            > solve(&delay_ring, 0.1).oscillation_amplitude()
    );
    // Figure 9: smaller alpha oscillates less.
    assert!(
        solve(&comm_ring, 0.05).oscillation_amplitude()
            < solve(&comm_ring, 0.1).oscillation_amplitude()
    );
}

/// Theorem 2's bound is valid (monotone convergence when respected) but
/// wildly conservative, as §8.2 concedes.
#[test]
fn theorem2_bound_valid_but_conservative() {
    let p = paper_problem();
    let bound = fap::core::bound::alpha_bound_exact(&p, 0.05).unwrap();
    let s = ResourceDirectedOptimizer::new(StepSize::Fixed(bound))
        .with_epsilon(0.05)
        .with_max_iterations(5_000_000)
        .run(&p, &[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
        .unwrap();
    assert!(s.converged);
    assert!(s.trace.is_cost_monotone_decreasing(1e-15));
    // Conservative: Figure 3 converges at α = 0.67, orders of magnitude up.
    assert!(bound < 1e-4);
}
