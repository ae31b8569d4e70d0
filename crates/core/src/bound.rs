//! The Theorem-2 step-size bound.
//!
//! The paper's appendix derives an `α` below which every iteration strictly
//! increases utility, guaranteeing convergence:
//!
//! ```text
//! α < ε² (μ−λ)⁴ / ( 2 n k λ ( (C_max − C_min)·μ·(μ−λ) + λk(2μ−λ) )² )
//! ```
//!
//! Re-deriving the appendix algebra from its own stated numerator and
//! denominator bounds yields a slightly different power of `(μ−λ)`:
//!
//! ```text
//! α < ε² μ (μ−λ)⁵ / ( 2 n k λ ( … )² )
//! ```
//!
//! (the two differ by a factor `μ(μ−λ)`, about 0.75 at the paper's §6
//! parameters). Both are exposed here, and both are — as the paper itself
//! concedes in §8.2 — "too small to be of any real significance" compared
//! with the step sizes that work in practice; ablation A1 measures the gap.

use fap_queue::Mm1Delay;

use crate::error::CoreError;
use crate::single::SingleFileProblem;

/// Inputs shared by both bound formulas, extracted from a uniform-μ M/M/1
/// problem.
fn bound_parts(
    problem: &SingleFileProblem<Mm1Delay>,
    epsilon: f64,
) -> Result<(f64, f64, f64, f64, f64, f64), CoreError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(CoreError::InvalidParameter(format!("epsilon {epsilon}")));
    }
    let mus: Vec<f64> = problem.delays().iter().map(Mm1Delay::service_rate).collect();
    let mu = mus[0];
    if mus.iter().any(|m| (m - mu).abs() > 1e-12) {
        return Err(CoreError::InvalidParameter(
            "the Theorem-2 bound assumes a uniform service rate".into(),
        ));
    }
    let lambda = problem.total_rate();
    if mu <= lambda {
        return Err(CoreError::InvalidParameter(format!(
            "the Theorem-2 bound requires mu > lambda (got mu = {mu}, lambda = {lambda})"
        )));
    }
    let k = problem.k();
    if k <= 0.0 {
        return Err(CoreError::InvalidParameter("the Theorem-2 bound requires k > 0".into()));
    }
    let n = problem.node_count() as f64;
    let cmax = problem.access_costs().iter().copied().fold(f64::MIN, f64::max);
    let cmin = problem.access_costs().iter().copied().fold(f64::MAX, f64::min);
    Ok((epsilon, mu, lambda, k, n, cmax - cmin))
}

/// The common squared term `((C_max − C_min)·μ·(μ−λ) + λk(2μ−λ))²`.
fn squared_term(mu: f64, lambda: f64, k: f64, cspread: f64) -> f64 {
    let p = cspread * mu * (mu - lambda) + lambda * k * (2.0 * mu - lambda);
    p * p
}

/// The bound exactly as printed in the paper's appendix.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for non-uniform service rates,
/// `μ ≤ λ`, `k ≤ 0`, or a non-positive ε.
pub fn alpha_bound_paper(
    problem: &SingleFileProblem<Mm1Delay>,
    epsilon: f64,
) -> Result<f64, CoreError> {
    let (eps, mu, lambda, k, n, cspread) = bound_parts(problem, epsilon)?;
    let d = mu - lambda;
    Ok(eps * eps * d.powi(4) / (2.0 * n * k * lambda * squared_term(mu, lambda, k, cspread)))
}

/// The bound the appendix algebra actually yields
/// (`2·(ε²/2)` over the stated denominator upper bound).
///
/// # Errors
///
/// Same conditions as [`alpha_bound_paper`].
pub fn alpha_bound_exact(
    problem: &SingleFileProblem<Mm1Delay>,
    epsilon: f64,
) -> Result<f64, CoreError> {
    let (eps, mu, lambda, k, n, cspread) = bound_parts(problem, epsilon)?;
    let d = mu - lambda;
    Ok(eps * eps * mu * d.powi(5) / (2.0 * n * k * lambda * squared_term(mu, lambda, k, cspread)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_econ::{ResourceDirectedOptimizer, StepSize};
    use fap_net::{topology, AccessPattern};
    use fap_obs::NoopRecorder;

    fn paper_problem() -> SingleFileProblem<Mm1Delay> {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap()
    }

    #[test]
    fn paper_bound_matches_hand_calculation() {
        // μ = 1.5, λ = 1, k = 1, n = 4, C_max = C_min = 1, ε = 0.001:
        // paper bound = ε²(0.5)⁴ / (2·4·1·1·(1·(2·1.5−1))²) = ε²·0.0625/32.
        let p = paper_problem();
        let b = alpha_bound_paper(&p, 0.001).unwrap();
        let expected = 1e-6 * 0.0625 / 32.0;
        assert!((b - expected).abs() < 1e-15, "{b} vs {expected}");
    }

    #[test]
    fn exact_bound_differs_by_mu_times_gap() {
        let p = paper_problem();
        let paper = alpha_bound_paper(&p, 0.001).unwrap();
        let exact = alpha_bound_exact(&p, 0.001).unwrap();
        // exact / paper = μ(μ−λ) = 1.5·0.5 = 0.75.
        assert!((exact / paper - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bounds_scale_with_epsilon_squared() {
        let p = paper_problem();
        let b1 = alpha_bound_paper(&p, 0.001).unwrap();
        let b2 = alpha_bound_paper(&p, 0.002).unwrap();
        assert!((b2 / b1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bound_guarantees_monotone_convergence() {
        // Running at the (tiny) guaranteed α must preserve monotonicity.
        // With ε = 0.1 the bound is large enough to finish in reasonable
        // iterations.
        let p = paper_problem();
        let alpha = alpha_bound_exact(&p, 0.1).unwrap();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(alpha))
            .with_epsilon(0.1)
            .with_max_iterations(2_000_000)
            .run(&p, &[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged, "bound α = {alpha} did not converge");
        assert!(s.trace.is_cost_monotone_decreasing(1e-12));
    }

    #[test]
    fn bound_is_far_below_practical_step_sizes() {
        // §8.2: "In practice this value of α is too small to be of any real
        // significance" — Figure 3 converges at α = 0.67.
        let p = paper_problem();
        let b = alpha_bound_paper(&p, 0.001).unwrap();
        assert!(b < 0.67 * 1e-6, "bound {b} is unexpectedly large");
    }

    #[test]
    fn rejects_invalid_inputs() {
        let p = paper_problem();
        assert!(alpha_bound_paper(&p, 0.0).is_err());
        assert!(alpha_bound_paper(&p, f64::NAN).is_err());

        // Non-uniform μ.
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        let het = SingleFileProblem::mm1_heterogeneous(
            &graph,
            &pattern,
            &[1.5, 1.5, 1.5, 2.0],
            1.0,
        )
        .unwrap();
        assert!(alpha_bound_paper(&het, 0.001).is_err());

        // μ ≤ λ (still constructible: joint capacity suffices).
        let tight = SingleFileProblem::mm1(&graph, &pattern, 0.9, 1.0).unwrap();
        assert!(alpha_bound_paper(&tight, 0.001).is_err());

        // k = 0.
        let nok = SingleFileProblem::mm1(&graph, &pattern, 1.5, 0.0).unwrap();
        assert!(alpha_bound_paper(&nok, 0.001).is_err());
    }
}
