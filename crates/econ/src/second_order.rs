//! The second-derivative algorithm (paper §8.2, future work).
//!
//! The paper reports a pilot study of an algorithm that scales each agent's
//! step by its curvature: "knowledge about the manner in which these
//! derivatives are changing contributes towards a more effective algorithm
//! … resilient to changes in the scale of the problem … [and with increased]
//! tolerance … towards the selection of the stepsize parameter."
//!
//! This module implements that variant in the center-free form of
//! Ho–Servi–Suri: the step weights become `w_i = 1/|∂²U/∂x_i²|` so that
//!
//! ```text
//! Δx_i = α · (g_i − avg_w) / |h_i|,
//! avg_w = Σ (g_j/|h_j|) / Σ (1/|h_j|)
//! ```
//!
//! which still sums to zero over the active set (feasibility, Theorem 1
//! carries over) and reduces, for quadratic utilities with `α = 1`, to an
//! exact Newton step onto the equal-marginal manifold.

use fap_obs::Recorder;

use crate::error::EconError;
use crate::problem::AllocationProblem;
use crate::projection::BoundaryRule;
use crate::resource_directed::{Engine, OptimizerScratch, Solution, WeightMode};
use crate::step_size::StepSize;

/// The curvature-scaled decentralized optimizer.
///
/// Configuration mirrors
/// [`ResourceDirectedOptimizer`](crate::ResourceDirectedOptimizer); the only
/// difference is the curvature weighting of each step.
///
/// # Example
///
/// For a quadratic utility, one unit step (`α = 1`) lands exactly on the
/// constrained optimum:
///
/// ```
/// use fap_econ::{problems::SeparableQuadratic, SecondOrderOptimizer, StepSize};
/// use fap_obs::NoopRecorder;
///
/// let p = SeparableQuadratic::new(vec![1.0, 2.0, 4.0], vec![0.5, 0.4, 0.3], 1.0)?;
/// let s = SecondOrderOptimizer::new(StepSize::Fixed(1.0))
///     .with_epsilon(1e-10)
///     .run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder)?;
/// assert!(s.converged);
/// assert!(s.iterations <= 2);
/// # Ok::<(), fap_econ::EconError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SecondOrderOptimizer {
    engine: Engine,
}

impl SecondOrderOptimizer {
    /// Creates the optimizer with the same defaults as the first-order
    /// variant (ε = 10⁻³, clamp-to-zero boundary rule, 10 000-iteration
    /// cap).
    pub fn new(step: StepSize) -> Self {
        SecondOrderOptimizer {
            engine: Engine {
                step,
                boundary: BoundaryRule::ClampToZero,
                epsilon: 1e-3,
                max_iterations: 10_000,
                record_allocations: false,
                oscillation: None,
                cost_delta_halt: None,
                weight_mode: WeightMode::InverseCurvature,
            },
        }
    }

    /// Sets the convergence tolerance ε on the marginal-utility spread.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.engine.epsilon = epsilon;
        self
    }

    /// Sets the boundary rule.
    #[must_use]
    pub fn with_boundary(mut self, boundary: BoundaryRule) -> Self {
        self.engine.boundary = boundary;
        self
    }

    /// Sets the iteration cap.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.engine.max_iterations = max_iterations;
        self
    }

    /// Records the allocation at every iteration in the trace.
    #[must_use]
    pub fn with_recorded_allocations(mut self) -> Self {
        self.engine.record_allocations = true;
        self
    }

    /// Runs the optimizer from the feasible `initial` allocation, recording
    /// per-iteration telemetry into `recorder` — the same metric names and
    /// event shapes as
    /// [`ResourceDirectedOptimizer::run`](crate::ResourceDirectedOptimizer::run).
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`ResourceDirectedOptimizer::run`](crate::ResourceDirectedOptimizer::run).
    pub fn run<P: AllocationProblem + ?Sized>(
        &self,
        problem: &P,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<Solution, EconError> {
        let mut scratch = OptimizerScratch::new();
        self.engine.run_recorded(problem, initial, &mut scratch, recorder)
    }

    /// Like [`SecondOrderOptimizer::run`], reusing the caller's
    /// [`OptimizerScratch`] across runs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SecondOrderOptimizer::run`].
    pub fn run_with_scratch<P: AllocationProblem + ?Sized>(
        &self,
        problem: &P,
        initial: &[f64],
        scratch: &mut OptimizerScratch,
        recorder: &mut dyn Recorder,
    ) -> Result<Solution, EconError> {
        self.engine.run_recorded(problem, initial, scratch, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{SeparableQuadratic, ShiftedLog};
    use crate::resource_directed::ResourceDirectedOptimizer;
    use fap_obs::NoopRecorder;

    #[test]
    fn newton_step_is_exact_on_quadratics() {
        let p = SeparableQuadratic::new(vec![1.0, 3.0, 5.0], vec![0.2, 0.4, 0.6], 1.0).unwrap();
        let s = SecondOrderOptimizer::new(StepSize::Fixed(1.0))
            .with_epsilon(1e-12)
            .run(&p, &[0.0, 0.0, 1.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        assert!(s.iterations <= 2, "took {} iterations", s.iterations);
        for (xi, ei) in s.allocation.iter().zip(p.analytic_optimum()) {
            assert!((xi - ei).abs() < 1e-9);
        }
    }

    #[test]
    fn scale_invariance_unlike_first_order() {
        // Multiply the whole utility by 100 (e.g. all link costs ×100).
        // The second-order iteration count is unchanged; the first-order
        // algorithm with the same α slows down or destabilizes — the §8.2
        // resilience claim.
        let base = SeparableQuadratic::new(vec![1.0, 2.0], vec![0.7, 0.1], 1.0).unwrap();
        let scaled =
            SeparableQuadratic::new(vec![100.0, 200.0], vec![0.7, 0.1], 1.0).unwrap();
        let x0 = [0.0, 1.0];

        let second = SecondOrderOptimizer::new(StepSize::Fixed(0.5)).with_epsilon(1e-9);
        let s_base = second.run(&base, &x0, &mut NoopRecorder).unwrap();
        let s_scaled = second.run(&scaled, &x0, &mut NoopRecorder).unwrap();
        assert!(s_base.converged && s_scaled.converged);
        // The iterate trajectory is identical under rescaling; only the
        // absolute ε-threshold on (100× larger) marginals costs a few extra
        // iterations.
        assert!(
            s_scaled.iterations <= s_base.iterations + 25,
            "{} vs {}",
            s_base.iterations,
            s_scaled.iterations
        );

        let first = ResourceDirectedOptimizer::new(StepSize::Fixed(0.2))
            .with_epsilon(1e-9)
            .with_max_iterations(2_000);
        let f_base = first.run(&base, &x0, &mut NoopRecorder).unwrap();
        let f_scaled = first.run(&scaled, &x0, &mut NoopRecorder).unwrap();
        assert!(f_base.converged);
        // With curvature 100× larger, a fixed α = 0.2 step diverges or fails
        // to converge within the cap.
        assert!(
            !f_scaled.converged || f_scaled.iterations > 10 * f_base.iterations,
            "first-order unexpectedly unaffected by scaling"
        );
    }

    #[test]
    fn alpha_tolerance_is_wider_than_first_order() {
        // §8.2: "using second derivatives increases the tolerance of the
        // algorithm … towards the selection of the stepsize parameter".
        // α = 1.5 diverges for the first-order method on this problem but
        // converges for the curvature-scaled method.
        let p = SeparableQuadratic::new(vec![4.0, 4.0], vec![0.6, 0.2], 1.0).unwrap();
        let x0 = [1.0, 0.0];
        let second = SecondOrderOptimizer::new(StepSize::Fixed(1.5))
            .with_epsilon(1e-9)
            .with_max_iterations(500)
            .run(&p, &x0, &mut NoopRecorder)
            .unwrap();
        assert!(second.converged);

        let first = ResourceDirectedOptimizer::new(StepSize::Fixed(1.5))
            .with_epsilon(1e-9)
            .with_max_iterations(500)
            .run(&p, &x0, &mut NoopRecorder)
            .unwrap();
        assert!(!first.converged, "first-order should oscillate at α = 1.5 here");
    }

    #[test]
    fn preserves_feasibility_and_monotonicity_on_log_problem() {
        let p = ShiftedLog::new(vec![2.0, 1.0, 1.0], 0.3, 1.0).unwrap();
        let s = SecondOrderOptimizer::new(StepSize::Fixed(0.5))
            .with_epsilon(1e-9)
            .with_recorded_allocations()
            .run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        assert!(s.trace.is_cost_monotone_decreasing(1e-9));
        for x in s.trace.recorded_allocations() {
            assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(x.iter().all(|v| *v >= -1e-9));
        }
        for (xi, ei) in s.allocation.iter().zip(p.analytic_optimum()) {
            assert!((xi - ei).abs() < 1e-5);
        }
    }

    #[test]
    fn agrees_with_first_order_optimum() {
        let p = SeparableQuadratic::new(vec![1.0, 2.0, 3.0, 4.0], vec![0.4, 0.3, 0.2, 0.1], 1.0)
            .unwrap();
        let x0 = [0.25; 4];
        let a = SecondOrderOptimizer::new(StepSize::Fixed(0.8))
            .with_epsilon(1e-10)
            .run(&p, &x0, &mut NoopRecorder)
            .unwrap();
        let b = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_epsilon(1e-10)
            .run(&p, &x0, &mut NoopRecorder)
            .unwrap();
        for (ai, bi) in a.allocation.iter().zip(&b.allocation) {
            assert!((ai - bi).abs() < 1e-6);
        }
    }
}
