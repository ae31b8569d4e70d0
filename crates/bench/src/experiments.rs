//! The per-figure experiment implementations.
//!
//! Figures 3–6 use the paper's §6 parameters (see [`crate::paper`]);
//! Figures 8–9 use the §7.3 four-node virtual rings. All boundary handling
//! for the §6 figures is [`BoundaryRule::Unconstrained`], which is what the
//! paper's own simulation evidently used (see `DESIGN.md`: with α = 0.67
//! the first step leaves the positive orthant transiently, yet the paper
//! reports 4-iteration convergence).

use serde::{Deserialize, Serialize};

use fap_core::{baseline, bound, reference, HostingMarket, SingleFileProblem};
use fap_econ::{
    BoundaryRule, GossipOptimizer, Neighborhood, PriceDirectedOptimizer,
    ResourceDirectedOptimizer, SecondOrderOptimizer, StepSize,
};
use fap_net::{topology, AccessPattern};
use fap_obs::NoopRecorder;
use fap_queue::{NetworkSimulation, ServiceDistribution};
use fap_ring::{RingSolver, VirtualRing};
use fap_runtime::{ChaosPlan, ExchangeScheme, MessageCounting, SimRun};

use crate::paper;
use crate::series::Series;

/// One Figure-3 convergence profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Curve {
    /// Step size α.
    pub alpha: f64,
    /// Iterations the paper reports for this α.
    pub paper_iterations: usize,
    /// Iterations we measure.
    pub iterations: usize,
    /// Whether the ε-criterion fired.
    pub converged: bool,
    /// Whether the cost decreased strictly monotonically.
    pub monotone: bool,
    /// Cost per iteration.
    pub profile: Series,
    /// Final allocation.
    pub allocation: Vec<f64>,
}

/// Figure 3: convergence profiles on the §6 ring for the paper's four α.
///
/// # Panics
///
/// Panics only if the fixed paper parameters fail to evaluate (a bug).
pub fn fig3() -> Vec<Fig3Curve> {
    paper::FIG3_ALPHAS
        .iter()
        .map(|&(alpha, paper_iterations)| {
            let problem = paper::ring_problem();
            let s = ResourceDirectedOptimizer::new(StepSize::Fixed(alpha))
                .with_boundary(BoundaryRule::Unconstrained)
                .with_epsilon(paper::EPSILON)
                .run(&problem, &paper::START, &mut NoopRecorder)
                .expect("paper parameters evaluate");
            Fig3Curve {
                alpha,
                paper_iterations,
                iterations: s.iterations,
                converged: s.converged,
                monotone: s.trace.is_cost_monotone_decreasing(1e-12),
                profile: Series::from_values(format!("alpha={alpha}"), &s.trace.cost_series()),
                allocation: s.allocation,
            }
        })
        .collect()
}

/// Figure 4: starting with the entire file at one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Cost of the best integral (whole-file) placement.
    pub integral_cost: f64,
    /// Cost of the fractional optimum.
    pub optimal_cost: f64,
    /// Relative reduction `(integral − optimal) / integral`, in percent
    /// (the paper reports "significant (25%)"; the §6 parameters actually
    /// give 40%).
    pub reduction_percent: f64,
    /// Cost per iteration starting from `(0, 0, 0, 1)`.
    pub profile: Series,
    /// Final allocation.
    pub allocation: Vec<f64>,
}

/// Figure 4: the argument for fragmenting the file.
///
/// # Panics
///
/// Panics only if the fixed paper parameters fail to evaluate (a bug).
pub fn fig4() -> Fig4Result {
    let problem = paper::ring_problem();
    let integral = baseline::best_single_node(&problem).expect("integral placement exists");
    let optimum = reference::solve(&problem).expect("waterfilling solves");
    let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.3))
        .with_boundary(BoundaryRule::Unconstrained)
        .with_epsilon(paper::EPSILON)
        .run(&problem, &[0.0, 0.0, 0.0, 1.0], &mut NoopRecorder)
        .expect("paper parameters evaluate");
    Fig4Result {
        integral_cost: integral.cost,
        optimal_cost: optimum.cost,
        reduction_percent: 100.0 * (integral.cost - optimum.cost) / integral.cost,
        profile: Series::from_values("from integral placement", &s.trace.cost_series()),
        allocation: s.allocation,
    }
}

/// Figure 5: iterations to convergence as a function of α.
///
/// Returns `(alpha, iterations)` pairs; `None` iterations means the run
/// failed to converge within `cap` (diverged or oscillated).
pub fn fig5(alphas: &[f64], cap: usize) -> Vec<(f64, Option<usize>)> {
    alphas
        .iter()
        .map(|&alpha| {
            let problem = paper::ring_problem();
            let result = ResourceDirectedOptimizer::new(StepSize::Fixed(alpha))
                .with_boundary(BoundaryRule::Unconstrained)
                .with_epsilon(paper::EPSILON)
                .with_max_iterations(cap)
                .run(&problem, &paper::START, &mut NoopRecorder);
            let iterations = match result {
                Ok(s) if s.converged => Some(s.iterations),
                _ => None, // diverged (model error) or hit the cap
            };
            (alpha, iterations)
        })
        .collect()
}

/// The default Figure-5 α grid.
pub fn fig5_default_grid() -> Vec<f64> {
    let mut grid = Vec::new();
    let mut a = 0.02;
    while a < 1.0 {
        grid.push(a);
        a += 0.02;
    }
    grid
}

/// One Figure-6 data point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Point {
    /// Network size `N`.
    pub n: usize,
    /// The best α found on the search grid.
    pub best_alpha: f64,
    /// Iterations at the best α.
    pub iterations: usize,
    /// Largest deviation of the final allocation from the expected `1/N`.
    pub deviation_from_even: f64,
}

/// Figure 6: iterations (at the best α) for fully connected networks of
/// `4 ≤ N ≤ 20` nodes — the paper's range. Any `ns` are accepted; for the
/// large-N regime (hundreds of nodes) expect the grid's best α to sit at its
/// low end and the iteration count to grow roughly linearly in `N`, and
/// prefer `--release`: each point runs the optimizer 30 times over the α
/// grid (with one reused scratch, so the sweep itself does not allocate).
///
/// # Panics
///
/// Panics if no α on the grid converges for some `N` (does not happen for
/// the paper's parameter range).
pub fn fig6(ns: impl IntoIterator<Item = usize>) -> Vec<Fig6Point> {
    let grid: Vec<f64> = (1..=30).map(|i| i as f64 * 0.04).collect();
    let mut scratch = fap_econ::OptimizerScratch::new();
    ns.into_iter()
        .map(|n| {
            let problem = paper::full_mesh_problem(n);
            let start = paper::spread_start(n);
            let mut best: Option<(f64, usize, Vec<f64>)> = None;
            for &alpha in &grid {
                let result = ResourceDirectedOptimizer::new(StepSize::Fixed(alpha))
                    .with_boundary(BoundaryRule::Unconstrained)
                    .with_epsilon(paper::EPSILON)
                    .with_max_iterations(5_000)
                    .run_with_scratch(&problem, &start, &mut scratch, &mut NoopRecorder);
                if let Ok(s) = result {
                    if s.converged
                        && best.as_ref().is_none_or(|&(_, it, _)| s.iterations < it)
                    {
                        best = Some((alpha, s.iterations, s.allocation));
                    }
                }
            }
            let (best_alpha, iterations, allocation) =
                best.expect("some alpha converges for every N in the paper's range");
            let even = 1.0 / n as f64;
            let deviation_from_even = allocation
                .iter()
                .map(|x| (x - even).abs())
                .fold(0.0, f64::max);
            Fig6Point { n, best_alpha, iterations, deviation_from_even }
        })
        .collect()
}

/// A Figure-8/9 virtual-ring profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingProfile {
    /// Curve label.
    pub label: String,
    /// Step size used.
    pub alpha: f64,
    /// Cost per iteration.
    pub profile: Series,
    /// Largest single-iteration cost increase (oscillation amplitude).
    pub amplitude: f64,
    /// Best cost observed.
    pub best_cost: f64,
}

/// The §7.3 four-node virtual ring with the given link costs:
/// λ_i = 0.25, μ = 1.5, k = 1, m = 2 copies.
///
/// # Panics
///
/// Panics only on invalid fixed parameters (a bug).
pub fn fig8_ring(link_costs: Vec<f64>) -> VirtualRing {
    VirtualRing::new(link_costs, vec![0.25; 4], vec![paper::MU; 4], 2.0, paper::K)
        .expect("valid ring")
}

fn ring_profile(label: &str, ring: &VirtualRing, alpha: f64, iterations: usize) -> RingProfile {
    let s = RingSolver::new(alpha)
        .without_adaptation()
        .with_max_iterations(iterations)
        .solve(ring, &[2.0, 0.0, 0.0, 0.0], &mut NoopRecorder)
        .expect("ring parameters evaluate");
    RingProfile {
        label: label.to_string(),
        alpha,
        profile: Series::from_values(label, &s.cost_series),
        amplitude: s.oscillation_amplitude(),
        best_cost: s.best_cost,
    }
}

/// Figure 8: convergence profiles for the communication-dominated ring
/// (link costs `(4,1,1,1)`) versus the delay-dominated unit-cost ring.
pub fn fig8() -> (RingProfile, RingProfile) {
    let comm = ring_profile("link costs (4,1,1,1)", &fig8_ring(vec![4.0, 1.0, 1.0, 1.0]), 0.1, 120);
    let delay = ring_profile("unit link costs", &fig8_ring(vec![1.0; 4]), 0.1, 120);
    (comm, delay)
}

/// Figure 9: the same ring at α = 0.1 versus α = 0.05 — decreasing the
/// step size shrinks the oscillations.
pub fn fig9() -> (RingProfile, RingProfile) {
    let ring = fig8_ring(vec![4.0, 1.0, 1.0, 1.0]);
    let big = ring_profile("alpha=0.1", &ring, 0.1, 160);
    let small = ring_profile("alpha=0.05", &ring, 0.05, 160);
    (big, small)
}

/// Ablation A1: the Theorem-2 bound versus step sizes that work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A1Result {
    /// The bound as printed in the paper.
    pub paper_bound: f64,
    /// The bound the appendix algebra yields.
    pub exact_bound: f64,
    /// The largest α (to 3 significant digits) that still converges within
    /// 2 000 iterations, found by bisection.
    pub empirical_max_alpha: f64,
    /// `empirical_max_alpha / paper_bound` — how conservative the theory is.
    pub conservatism_factor: f64,
}

/// Ablation A1 on the §6 ring.
///
/// # Panics
///
/// Panics only on invalid fixed parameters (a bug).
pub fn a1_alpha_bound() -> A1Result {
    let problem = paper::ring_problem();
    let paper_bound = bound::alpha_bound_paper(&problem, paper::EPSILON).expect("bound valid");
    let exact_bound = bound::alpha_bound_exact(&problem, paper::EPSILON).expect("bound valid");

    let converges = |alpha: f64| -> bool {
        ResourceDirectedOptimizer::new(StepSize::Fixed(alpha))
            .with_boundary(BoundaryRule::Unconstrained)
            .with_epsilon(paper::EPSILON)
            .with_max_iterations(2_000)
            .run(&problem, &paper::START, &mut NoopRecorder)
            .map(|s| s.converged)
            .unwrap_or(false)
    };
    let mut lo = 0.01;
    let mut hi = 16.0;
    assert!(converges(lo), "base step must converge");
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if converges(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    A1Result {
        paper_bound,
        exact_bound,
        empirical_max_alpha: lo,
        conservatism_factor: lo / paper_bound,
    }
}

/// Ablation A2: scale resilience of the second-derivative algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A2Result {
    /// Cost-scale factor applied (all link costs and k multiplied).
    pub scale: f64,
    /// First-order iterations on the base problem.
    pub first_base: Option<usize>,
    /// First-order iterations on the scaled problem (same α).
    pub first_scaled: Option<usize>,
    /// Second-order iterations on the base problem.
    pub second_base: Option<usize>,
    /// Second-order iterations on the scaled problem (same α).
    pub second_scaled: Option<usize>,
}

/// Ablation A2 (§8.2): multiply the whole cost scale by `scale` and compare
/// iteration counts at fixed α for the first- and second-derivative
/// algorithms. The asymmetric workload makes the problem non-trivial.
///
/// # Panics
///
/// Panics only on invalid fixed parameters (a bug).
pub fn a2_second_derivative(scale: f64) -> A2Result {
    let graph = topology::ring(4, 1.0).expect("valid ring");
    let pattern =
        AccessPattern::new(vec![0.4, 0.3, 0.2, 0.1]).expect("valid pattern");
    let base = SingleFileProblem::mm1(&graph, &pattern, paper::MU, paper::K).expect("valid");
    let scaled_graph = topology::ring(4, scale).expect("valid ring");
    let scaled = SingleFileProblem::mm1(&scaled_graph, &pattern, paper::MU, paper::K * scale)
        .expect("valid");

    let first = |p: &SingleFileProblem| {
        ResourceDirectedOptimizer::new(StepSize::Fixed(0.15))
            .with_epsilon(1e-5)
            .with_max_iterations(20_000)
            .run(p, &[0.25; 4], &mut NoopRecorder)
            .ok()
            .filter(|s| s.converged)
            .map(|s| s.iterations)
    };
    let second = |p: &SingleFileProblem| {
        SecondOrderOptimizer::new(StepSize::Fixed(0.5))
            .with_epsilon(1e-5)
            .with_max_iterations(20_000)
            .run(p, &[0.25; 4], &mut NoopRecorder)
            .ok()
            .filter(|s| s.converged)
            .map(|s| s.iterations)
    };
    A2Result {
        scale,
        first_base: first(&base),
        first_scaled: first(&scaled),
        second_base: second(&base),
        second_scaled: second(&scaled),
    }
}

/// Ablation A3: price-directed versus resource-directed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A3Result {
    /// Resource-directed iterations.
    pub resource_iterations: usize,
    /// Price-directed iterations.
    pub price_iterations: usize,
    /// Worst intermediate `|Σx − 1|` of the resource-directed run (zero by
    /// Theorem 1).
    pub resource_max_infeasibility: f64,
    /// Worst intermediate `|D(p) − 1|` of the tâtonnement.
    pub price_max_infeasibility: f64,
    /// Max per-node difference between the two final allocations.
    pub optimum_gap: f64,
}

/// Ablation A3 (§2) on an asymmetric 5-node network.
///
/// # Panics
///
/// Panics only on invalid fixed parameters (a bug).
pub fn a3_price_vs_resource() -> A3Result {
    let graph = topology::random_connected(5, 0.5, 1.0..3.0, 7).expect("valid graph");
    let pattern = AccessPattern::random(5, 0.1..0.4, 7).expect("valid pattern");
    let problem = SingleFileProblem::mm1(&graph, &pattern, pattern.total_rate() * 1.8, paper::K)
        .expect("valid problem");

    let resource = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
        .with_epsilon(1e-7)
        .with_recorded_allocations()
        .with_max_iterations(100_000)
        .run(&problem, &[0.2; 5], &mut NoopRecorder)
        .expect("resource run");
    let resource_max_infeasibility = resource
        .trace
        .recorded_allocations()
        .map(|x| (x.iter().sum::<f64>() - 1.0).abs())
        .fold(0.0, f64::max);

    let market = HostingMarket::new(&problem).expect("market");
    let price = PriceDirectedOptimizer::new(0.3)
        .with_tolerance(1e-7)
        .run(&market)
        .expect("price run");

    let optimum_gap = resource
        .allocation
        .iter()
        .zip(&price.allocation)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    A3Result {
        resource_iterations: resource.iterations,
        price_iterations: price.iterations,
        resource_max_infeasibility,
        price_max_infeasibility: price.max_infeasibility(),
        optimum_gap,
    }
}

/// One row of the A4 message-complexity comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A4Row {
    /// Exchange scheme label.
    pub scheme: String,
    /// Iterations to convergence.
    pub iterations: usize,
    /// Messages per iteration.
    pub messages_per_round: u64,
    /// Total messages to convergence.
    pub total_messages: u64,
}

/// Ablation A4 (§5.1, §8.2): message bills of central, broadcast (point to
/// point and LAN) and neighbors-only gossip on an `n`-node ring network.
///
/// # Panics
///
/// Panics only on invalid fixed parameters (a bug).
pub fn a4_messages(n: usize) -> Vec<A4Row> {
    let graph = topology::ring(n, 1.0).expect("valid ring");
    let pattern = AccessPattern::uniform(n, 1.0).expect("valid pattern");
    let problem = SingleFileProblem::mm1(&graph, &pattern, paper::MU, paper::K).expect("valid");
    let mut start = vec![0.0; n];
    start[0] = 1.0;
    let epsilon = 1e-4;

    let mut rows = Vec::new();
    for (label, scheme, counting) in [
        ("central (p2p)", ExchangeScheme::Central { coordinator: 0 }, MessageCounting::PointToPoint),
        ("broadcast (p2p)", ExchangeScheme::Broadcast, MessageCounting::PointToPoint),
        ("broadcast (LAN)", ExchangeScheme::Broadcast, MessageCounting::BroadcastMedium),
    ] {
        let r = SimRun::new(&problem, scheme, 0.1)
            .with_epsilon(epsilon)
            .with_counting(counting)
            .with_max_rounds(200_000)
            .with_chaos(ChaosPlan::new(0))
            .run(&start, &mut NoopRecorder)
            .expect("distributed run");
        assert!(r.converged, "{label} failed to converge");
        rows.push(A4Row {
            scheme: label.to_string(),
            iterations: r.rounds,
            messages_per_round: r.messages.per_round,
            total_messages: r.messages.total,
        });
    }

    let neighborhood = Neighborhood::ring(n).expect("ring neighborhood");
    let per_round = neighborhood.messages_per_iteration() as u64;
    let gossip = GossipOptimizer::new(neighborhood, 0.05)
        .with_epsilon(epsilon)
        .with_max_iterations(500_000)
        .run(&problem, &start, &mut NoopRecorder)
        .expect("gossip run");
    assert!(gossip.converged, "gossip failed to converge");
    rows.push(A4Row {
        scheme: "gossip (ring)".to_string(),
        iterations: gossip.iterations,
        messages_per_round: per_round,
        total_messages: per_round * (gossip.iterations as u64 + 1),
    });
    rows
}

/// Ablation A6: the optimal-copy-count sweep (§8.2 future work).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A6Result {
    /// Per-copy storage cost charged.
    pub per_copy_cost: f64,
    /// `(m, access cost, total cost)` per candidate.
    pub points: Vec<(f64, f64, f64)>,
    /// The winning copy count.
    pub best_copies: f64,
}

/// Ablation A6: sweep m = 1…5 copies on an 8-node expensive-link ring at
/// the given per-copy storage cost.
///
/// # Panics
///
/// Panics only on invalid fixed parameters (a bug).
pub fn a6_copy_count(per_copy_cost: f64) -> A6Result {
    let solver = RingSolver::new(0.05).with_max_iterations(2_000);
    let sweep = fap_ring::sweep_copies(
        &[6.0; 8],
        &[0.2; 8],
        &[2.0; 8],
        paper::K,
        per_copy_cost,
        &[1.0, 2.0, 3.0, 4.0, 5.0],
        &solver,
    )
    .expect("sweep parameters are valid");
    A6Result {
        per_copy_cost,
        points: sweep.points.iter().map(|p| (p.copies, p.access_cost, p.total_cost)).collect(),
        best_copies: sweep.best_point().copies,
    }
}

/// Ablation A5: analytic model versus discrete-event measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A5Result {
    /// Analytic cost of the fractional optimum.
    pub analytic_optimal: f64,
    /// Empirical (simulated) cost of the fractional optimum.
    pub empirical_optimal: f64,
    /// Analytic cost of the best integral placement.
    pub analytic_integral: f64,
    /// Empirical cost of the best integral placement.
    pub empirical_integral: f64,
}

/// Ablation A5: simulate the §6 ring with real Poisson arrivals and FIFO
/// queues and confirm the analytic ranking (fractional < integral) holds in
/// measurement.
///
/// # Panics
///
/// Panics only on invalid fixed parameters (a bug).
pub fn a5_des_validation(duration: f64, seed: u64) -> A5Result {
    let graph = topology::ring(4, 1.0).expect("valid ring");
    let costs = graph.shortest_path_matrix().expect("connected");
    let pattern = AccessPattern::uniform(4, paper::LAMBDA).expect("valid pattern");
    let problem = paper::ring_problem();
    let optimum = reference::solve(&problem).expect("waterfilling");
    let integral = baseline::best_single_node(&problem).expect("integral");
    let mut integral_x = vec![0.0; 4];
    integral_x[integral.node] = 1.0;
    let service = ServiceDistribution::exponential(paper::MU).expect("valid service");

    let simulate = |x: Vec<f64>| {
        NetworkSimulation::new(x, pattern.clone(), costs.clone(), service)
            .expect("valid simulation")
            .with_duration(duration)
            .with_seed(seed)
            .run()
            .expect("simulation runs")
            .mean_total_cost(paper::K)
    };
    A5Result {
        analytic_optimal: optimum.cost,
        empirical_optimal: simulate(optimum.allocation.clone()),
        analytic_integral: integral.cost,
        empirical_integral: simulate(integral_x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shapes_match_the_paper() {
        let curves = fig3();
        assert_eq!(curves.len(), 4);
        for c in &curves {
            assert!(c.converged, "alpha={} did not converge", c.alpha);
            // The optimum is the even split.
            for x in &c.allocation {
                assert!((x - 0.25).abs() < 5e-3, "alpha={}: {:?}", c.alpha, c.allocation);
            }
            // Iteration counts in the same band the paper reports (within
            // a factor of two — the 1986 plot values are read off a graph).
            assert!(
                c.iterations <= 2 * c.paper_iterations + 2
                    && 2 * c.iterations + 2 >= c.paper_iterations,
                "alpha={}: {} iterations vs paper's {}",
                c.alpha,
                c.iterations,
                c.paper_iterations
            );
        }
        // Smaller α ⇒ more iterations (the Figure-3 ordering).
        for pair in curves.windows(2) {
            assert!(pair[0].iterations <= pair[1].iterations);
        }
    }

    #[test]
    fn fig4_shows_a_large_reduction() {
        let r = fig4();
        assert!((r.integral_cost - 3.0).abs() < 1e-9);
        assert!((r.optimal_cost - 1.8).abs() < 1e-6);
        assert!(r.reduction_percent > 25.0);
        for x in &r.allocation {
            assert!((x - 0.25).abs() < 5e-3);
        }
    }

    #[test]
    fn fig5_iterations_blow_up_for_tiny_alpha_with_a_wide_plateau() {
        let points = fig5(&[0.02, 0.1, 0.3, 0.5, 0.7], 100_000);
        let tiny = points[0].1.expect("tiny alpha converges slowly");
        let mid = points[2].1.expect("mid alpha converges");
        assert!(tiny > 5 * mid, "tiny {tiny} vs mid {mid}");
        // Plateau: a broad range of α converges in few iterations.
        for &(alpha, it) in &points[1..] {
            let it = it.unwrap_or(usize::MAX);
            assert!(it < 200, "alpha={alpha} took {it}");
        }
    }

    #[test]
    fn fig6_iterations_stay_flat_with_network_size() {
        let points = fig6([4usize, 8, 12]);
        for p in &points {
            assert!(p.deviation_from_even < 5e-3, "N={}: {:?}", p.n, p);
        }
        let first = points.first().unwrap().iterations as f64;
        let last = points.last().unwrap().iterations as f64;
        assert!(last <= 3.0 * first.max(4.0), "iterations grew: {points:?}");
    }

    #[test]
    fn fig8_comm_dominated_ring_oscillates_more() {
        let (comm, delay) = fig8();
        assert!(comm.amplitude > delay.amplitude);
    }

    #[test]
    fn fig9_smaller_alpha_oscillates_less() {
        let (big, small) = fig9();
        assert!(small.amplitude < big.amplitude);
    }

    #[test]
    fn a1_bound_is_orders_of_magnitude_conservative() {
        let r = a1_alpha_bound();
        assert!(r.paper_bound < 1e-7);
        assert!(r.exact_bound < r.paper_bound);
        assert!(r.empirical_max_alpha > 0.5);
        assert!(r.conservatism_factor > 1e5);
    }

    #[test]
    fn a3_price_is_infeasible_in_the_interim_resource_is_not() {
        let r = a3_price_vs_resource();
        assert!(r.resource_max_infeasibility < 1e-9);
        assert!(r.price_max_infeasibility > 0.01);
        assert!(r.optimum_gap < 1e-3);
    }

    #[test]
    fn a6_storage_cost_moves_the_optimal_copy_count() {
        assert!(a6_copy_count(0.5).best_copies > a6_copy_count(25.0).best_copies);
        assert_eq!(a6_copy_count(25.0).best_copies, 1.0);
    }

    #[test]
    fn a4_gossip_trades_rounds_for_messages() {
        let rows = a4_messages(6);
        let broadcast = rows.iter().find(|r| r.scheme == "broadcast (p2p)").unwrap();
        let central = rows.iter().find(|r| r.scheme == "central (p2p)").unwrap();
        let gossip = rows.iter().find(|r| r.scheme == "gossip (ring)").unwrap();
        assert!(central.messages_per_round < broadcast.messages_per_round);
        assert!(gossip.messages_per_round < broadcast.messages_per_round);
        assert!(gossip.iterations > broadcast.iterations);

        // The published n = 8 table (EXPERIMENTS.md, A4), exactly.
        let rows = a4_messages(8);
        let table: Vec<_> = rows
            .iter()
            .map(|r| (r.scheme.as_str(), r.iterations, r.messages_per_round, r.total_messages))
            .collect();
        assert_eq!(
            table,
            [
                ("central (p2p)", 68, 14, 966),
                ("broadcast (p2p)", 68, 56, 3864),
                ("broadcast (LAN)", 68, 8, 552),
                ("gossip (ring)", 247, 16, 3968),
            ]
        );
    }
}
