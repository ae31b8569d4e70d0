//! The decentralized resource-directed optimizer (paper §5).
//!
//! Each iteration performs exactly the paper's §5.2 steps: every agent
//! evaluates its marginal utility at the current allocation, the marginal
//! utilities are averaged (in a real deployment this is the broadcast /
//! central-agent exchange; the `fap-runtime` crate simulates that message
//! flow), and the allocation shifts toward agents whose marginal utility
//! exceeds the average. Iteration stops when all active marginal utilities
//! agree to within ε — the first-order optimality condition of the
//! underlying convex program (§5.3).

use fap_obs::{Recorder, Value};
use serde::{Deserialize, Serialize};

use crate::convergence::{marginal_spread, OscillationDetector};
use crate::error::EconError;
use crate::problem::AllocationProblem;
use crate::projection::{compute_step_into, BoundaryRule, StepWorkspace};
use crate::step_size::{StepSize, StepSizeState};
use crate::trace::{IterationRecord, Trace};

/// Reusable buffers for the optimizer's per-iteration state.
///
/// Holding one of these and calling
/// [`ResourceDirectedOptimizer::run_with_scratch`] (or the second-order
/// equivalent) across many runs of same-dimension problems — e.g. an α-sweep
/// or a per-file decomposition — avoids re-allocating the iterate, gradient,
/// curvature, weight and step buffers on every run.
#[derive(Debug, Clone, Default)]
pub struct OptimizerScratch {
    x: Vec<f64>,
    g: Vec<f64>,
    h: Vec<f64>,
    weights: Vec<f64>,
    all_active: Vec<bool>,
    candidate: Vec<f64>,
    step: StepWorkspace,
    seed: Vec<f64>,
    has_seed: bool,
}

impl OptimizerScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        OptimizerScratch::default()
    }

    /// Arms a warm start: the next run seeds its iterate from `allocation`
    /// instead of the run's `initial` argument.
    ///
    /// The seed is consumed by exactly one run (subsequent runs start cold
    /// again) and is re-projected onto the feasible simplex through
    /// [`crate::projection::project_onto_simplex`] before use — clamping
    /// boundary drift and rescaling the mass — so Theorem 1's feasibility
    /// invariant holds from the first iterate exactly as for a cold start.
    /// A seed whose dimension does not match the next problem is ignored
    /// (the run falls back to `initial`); the `initial` argument is still
    /// validated either way, so warm and cold runs accept the same inputs.
    ///
    /// Allocation-free once the scratch capacity covers `allocation.len()`.
    pub fn start_from(&mut self, allocation: &[f64]) {
        self.seed.clear();
        self.seed.extend_from_slice(allocation);
        self.has_seed = true;
    }

    /// Whether a warm-start seed is armed for the next run.
    pub fn has_warm_start(&self) -> bool {
        self.has_seed
    }

    /// Disarms a pending warm-start seed; the next run starts cold.
    pub fn clear_warm_start(&mut self) {
        self.has_seed = false;
    }

    /// Resizes every buffer for an `n`-agent problem. Allocation-free once
    /// capacity covers `n`.
    fn ensure(&mut self, n: usize) {
        self.x.clear();
        self.x.resize(n, 0.0);
        self.g.clear();
        self.g.resize(n, 0.0);
        self.h.clear();
        self.h.resize(n, 0.0);
        self.weights.clear();
        self.weights.resize(n, 1.0);
        self.all_active.clear();
        self.all_active.resize(n, true);
        self.candidate.clear();
        self.candidate.resize(n, 0.0);
    }
}

/// Why a run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Termination {
    /// All active marginal utilities agree within ε (the paper's criterion);
    /// excluded agents satisfy the complementary-slackness side condition.
    MarginalSpread,
    /// The cost change between consecutive iterations fell below the
    /// configured tolerance (the §7.3 halting rule for oscillatory
    /// objectives).
    CostDelta,
    /// The iteration limit was reached first.
    MaxIterations,
    /// The dynamic-step safeguard could not find any improving step along
    /// the (boundary-clamped) reallocation direction — the iterate is
    /// direction-stationary but the ε-criterion did not certify optimality.
    Stalled,
}

impl Termination {
    /// A stable lowercase label for telemetry and event output.
    pub fn label(self) -> &'static str {
        match self {
            Termination::MarginalSpread => "marginal_spread",
            Termination::CostDelta => "cost_delta",
            Termination::MaxIterations => "max_iterations",
            Termination::Stalled => "stalled",
        }
    }
}

/// The result of an optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// The final allocation.
    pub allocation: Vec<f64>,
    /// Number of reallocation steps applied.
    pub iterations: usize,
    /// Why the run stopped.
    pub termination: Termination,
    /// Whether a convergence criterion (not the iteration cap) stopped the
    /// run.
    pub converged: bool,
    /// Utility of the final allocation.
    pub final_utility: f64,
    /// Per-iteration history.
    pub trace: Trace,
}

impl Solution {
    /// Cost (`−U`) of the final allocation.
    pub fn final_cost(&self) -> f64 {
        -self.final_utility
    }
}

/// Which per-agent step weights the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WeightMode {
    /// `w_i = 1`: the paper's first-derivative algorithm.
    Uniform,
    /// `w_i = 1 / |∂²U/∂x_i²|`: the §8.2 second-derivative algorithm.
    InverseCurvature,
}

/// Shared configuration and loop for both derivative orders.
#[derive(Debug, Clone)]
pub(crate) struct Engine {
    pub step: StepSize,
    pub boundary: BoundaryRule,
    pub epsilon: f64,
    pub max_iterations: usize,
    pub record_allocations: bool,
    /// `(window, threshold)` enabling oscillation-triggered step decay.
    pub oscillation: Option<(usize, usize)>,
    /// Cost-delta halting tolerance (§7.3), if enabled.
    pub cost_delta_halt: Option<f64>,
    pub weight_mode: WeightMode,
}

/// Emits the engine's end-of-run event (every return path reports one, so
/// recorded streams always close with the outcome).
pub(crate) fn emit_run_end(
    recorder: &mut dyn Recorder,
    iterations: usize,
    termination: Termination,
    converged: bool,
    utility: f64,
    spread: f64,
) {
    recorder.emit(
        "run_end",
        &[
            ("iterations", Value::U64(iterations as u64)),
            ("termination", Value::Str(termination.label())),
            ("converged", Value::Bool(converged)),
            ("final_utility", Value::F64(utility)),
            ("spread", Value::F64(spread)),
        ],
    );
}

/// L2 norm, computed only on instrumented paths.
fn l2_norm(values: &[f64]) -> f64 {
    values.iter().map(|v| v * v).sum::<f64>().sqrt()
}

impl Engine {
    /// Runs the engine, wrapping the whole solve in an `econ.solve` span
    /// when the sink traces — the iteration loop's `set_time` calls drive
    /// the virtual clock, so the span's duration is the iteration count.
    /// With tracing off (every registry-backed serving path, and every
    /// `NoopRecorder` caller) this adds one boolean check.
    pub(crate) fn run_recorded<P: AllocationProblem + ?Sized>(
        &self,
        problem: &P,
        initial: &[f64],
        scratch: &mut OptimizerScratch,
        recorder: &mut dyn Recorder,
    ) -> Result<Solution, EconError> {
        if !recorder.trace_enabled() {
            return self.run_recorded_inner(problem, initial, scratch, recorder);
        }
        let span = fap_obs::SpanGuard::begin("econ.solve", recorder);
        let result = self.run_recorded_inner(problem, initial, scratch, recorder);
        span.end(recorder);
        result
    }

    fn run_recorded_inner<P: AllocationProblem + ?Sized>(
        &self,
        problem: &P,
        initial: &[f64],
        scratch: &mut OptimizerScratch,
        recorder: &mut dyn Recorder,
    ) -> Result<Solution, EconError> {
        self.step.validate()?;
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(EconError::InvalidParameter(format!(
                "epsilon {} must be positive",
                self.epsilon
            )));
        }
        let require_nonneg = self.boundary != BoundaryRule::Unconstrained;
        problem.check_feasible(
            initial,
            crate::problem::feasibility_tolerance(problem.dimension()),
            require_nonneg,
        )?;

        let n = problem.dimension();
        scratch.ensure(n);
        let OptimizerScratch { x, g, h, weights, all_active, candidate, step, seed, has_seed } =
            scratch;
        x.copy_from_slice(initial);
        if *has_seed {
            // One-shot seed: consumed (or discarded on dimension mismatch)
            // by this run either way.
            *has_seed = false;
            let total: f64 = initial.iter().sum();
            if seed.len() == n && total.is_finite() && total > 0.0 {
                x.copy_from_slice(seed);
                crate::projection::project_onto_simplex(x, total);
                recorder.incr("econ.warm_starts", 1);
            }
        }
        let mut step_state = StepSizeState::new(self.step.clone());
        let mut detector = self
            .oscillation
            .map(|(window, threshold)| OscillationDetector::new(window, threshold));
        let needs_curvature =
            matches!(self.step, StepSize::Dynamic { .. }) || self.weight_mode == WeightMode::InverseCurvature;

        let mut trace = Trace::new();
        let mut previous_cost: Option<f64> = None;
        let mut iterations = 0usize;

        loop {
            let utility = problem.utility(x)?;
            problem.marginal_utilities(x, g)?;
            if needs_curvature {
                problem.curvatures(x, h)?;
            }
            if self.weight_mode == WeightMode::InverseCurvature {
                for (w, hi) in weights.iter_mut().zip(&*h) {
                    // Concave utilities have h ≤ 0; floor |h| to keep the
                    // step finite where curvature vanishes.
                    *w = 1.0 / hi.abs().max(1e-9);
                }
            }

            let alpha = step_state.alpha(g, h, weights, all_active);
            compute_step_into(x, g, weights, alpha, self.boundary, step);
            let spread = marginal_spread(g, step.active());

            trace.push(IterationRecord {
                iteration: iterations,
                utility,
                spread,
                alpha,
                active_count: step.active_count(),
            });
            if self.record_allocations {
                trace.record_allocation(x);
            }

            // Telemetry. Iteration/virtual time is the iteration counter;
            // derived measurements (norms) are computed only when a real
            // sink is attached, so the NoopRecorder path does no extra work.
            recorder.set_time(iterations as u64);
            if recorder.is_enabled() {
                let active_count = step.active_count();
                recorder.incr("econ.iterations", 1);
                let clipped = n - active_count;
                if clipped > 0 {
                    recorder.incr("econ.projection_clips", clipped as u64);
                }
                recorder.observe("econ.active_set_size", active_count as f64);
                recorder.gauge("econ.alpha", alpha);
                recorder.emit(
                    "iter",
                    &[
                        ("iteration", Value::U64(iterations as u64)),
                        ("utility", Value::F64(utility)),
                        ("spread", Value::F64(spread)),
                        ("alpha", Value::F64(alpha)),
                        ("grad_norm", Value::F64(l2_norm(g))),
                        ("step_norm", Value::F64(l2_norm(step.deltas()))),
                        ("active", Value::U64(active_count as u64)),
                    ],
                );
            }

            // Termination: the paper's ε-criterion on active marginals, plus
            // complementary slackness for excluded (boundary) agents.
            if spread < self.epsilon && self.kkt_satisfied(x, g, weights, step.active()) {
                emit_run_end(recorder, iterations, Termination::MarginalSpread, true, utility, spread);
                return Ok(Solution {
                    allocation: x.clone(),
                    iterations,
                    termination: Termination::MarginalSpread,
                    converged: true,
                    final_utility: utility,
                    trace,
                });
            }

            // §7.3 cost-delta halting for oscillatory objectives.
            let cost = -utility;
            if let (Some(tolerance), Some(prev)) = (self.cost_delta_halt, previous_cost) {
                if (cost - prev).abs() < tolerance {
                    emit_run_end(recorder, iterations, Termination::CostDelta, true, utility, spread);
                    return Ok(Solution {
                        allocation: x.clone(),
                        iterations,
                        termination: Termination::CostDelta,
                        converged: true,
                        final_utility: utility,
                        trace,
                    });
                }
            }
            previous_cost = Some(cost);

            if let Some(detector) = detector.as_mut() {
                if detector.observe(cost) {
                    step_state.on_oscillation();
                    recorder.incr("econ.alpha_adaptations", 1);
                    detector.reset();
                }
            }

            if iterations >= self.max_iterations {
                emit_run_end(recorder, iterations, Termination::MaxIterations, false, utility, spread);
                return Ok(Solution {
                    allocation: x.clone(),
                    iterations,
                    termination: Termination::MaxIterations,
                    converged: false,
                    final_utility: utility,
                    trace,
                });
            }

            // Apply the step. The dynamic policy's per-iteration bound is
            // derived for the *unclamped* step; when boundary clamping
            // redirects it, the bound can overshoot and cycle, so safeguard
            // with utility backtracking (halve until the step improves).
            if matches!(self.step, StepSize::Dynamic { .. }) {
                let mut scale = 1.0f64;
                loop {
                    candidate.clear();
                    candidate
                        .extend(x.iter().zip(step.deltas()).map(|(xi, d)| xi + d * scale));
                    match problem.utility(candidate) {
                        Ok(u) if u >= utility => {
                            std::mem::swap(x, candidate);
                            break;
                        }
                        _ if scale > 1e-9 => scale *= 0.5,
                        _ => {
                            emit_run_end(
                                recorder,
                                iterations,
                                Termination::Stalled,
                                false,
                                utility,
                                spread,
                            );
                            return Ok(Solution {
                                allocation: x.clone(),
                                iterations,
                                termination: Termination::Stalled,
                                converged: false,
                                final_utility: utility,
                                trace,
                            });
                        }
                    }
                }
            } else {
                for (xi, d) in x.iter_mut().zip(step.deltas()) {
                    *xi += d;
                }
            }
            iterations += 1;
        }
    }

    /// Complementary slackness for agents outside the active set: an
    /// excluded agent must (a) actually sit at the boundary — an agent
    /// frozen mid-range by a step overshoot is *not* at a stationary point —
    /// and (b) not have above-average marginal utility (more resource there
    /// would improve utility).
    fn kkt_satisfied(&self, x: &[f64], g: &[f64], weights: &[f64], active: &[bool]) -> bool {
        if active.iter().all(|a| *a) {
            return true;
        }
        let boundary_tol = 1e-6;
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..g.len() {
            if active[i] {
                num += weights[i] * g[i];
                den += weights[i];
            }
        }
        if den == 0.0 {
            return true;
        }
        let avg = num / den;
        (0..g.len()).all(|i| active[i] || (x[i] <= boundary_tol && g[i] <= avg + self.epsilon))
    }
}

/// The paper's first-derivative decentralized optimizer.
///
/// # Example
///
/// Run the paper's update on a concave toy problem and observe the three
/// §5.3 properties — feasibility at every iterate, monotone cost decrease,
/// convergence to equal marginal utilities:
///
/// ```
/// use fap_econ::{problems::ShiftedLog, AllocationProblem,
///                ResourceDirectedOptimizer, StepSize};
/// use fap_obs::NoopRecorder;
///
/// let problem = ShiftedLog::new(vec![2.0, 3.0, 4.0], 0.5, 1.0)?;
/// let solution = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1))
///     .with_epsilon(1e-6)
///     .run(&problem, &[1.0, 0.0, 0.0], &mut NoopRecorder)?;
/// assert!(solution.converged);
/// assert!(solution.trace.is_cost_monotone_decreasing(1e-12));
/// let expected = problem.analytic_optimum();
/// for (xi, ei) in solution.allocation.iter().zip(&expected) {
///     assert!((xi - ei).abs() < 1e-4);
/// }
/// # Ok::<(), fap_econ::EconError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ResourceDirectedOptimizer {
    engine: Engine,
}

impl ResourceDirectedOptimizer {
    /// Creates an optimizer with the given step-size policy and defaults:
    /// ε = 10⁻³ (the paper's §6 value), the safeguarded clamp-to-zero
    /// boundary rule (see [`BoundaryRule`] for the paper's literal §5.2
    /// freeze procedure), and a 10 000-iteration cap.
    pub fn new(step: StepSize) -> Self {
        ResourceDirectedOptimizer {
            engine: Engine {
                step,
                boundary: BoundaryRule::ClampToZero,
                epsilon: 1e-3,
                max_iterations: 10_000,
                record_allocations: false,
                oscillation: None,
                cost_delta_halt: None,
                weight_mode: WeightMode::Uniform,
            },
        }
    }

    /// Sets the convergence tolerance ε on the marginal-utility spread.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.engine.epsilon = epsilon;
        self
    }

    /// Sets the boundary rule (default: [`BoundaryRule::ClampToZero`]).
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

    /// Records the full allocation vector at every iteration in the trace.
    #[must_use]
    pub fn with_recorded_allocations(mut self) -> Self {
        self.engine.record_allocations = true;
        self
    }

    /// Enables oscillation detection over a sliding `window` of cost deltas
    /// with the given alternation `threshold`; when triggered, the step-size
    /// policy is notified (meaningful with [`StepSize::AdaptiveDecay`]).
    #[must_use]
    pub fn with_oscillation_detection(mut self, window: usize, threshold: usize) -> Self {
        self.engine.oscillation = Some((window, threshold));
        self
    }

    /// Additionally halts when the cost change between consecutive
    /// iterations falls below `tolerance` (§7.3's halting rule).
    #[must_use]
    pub fn with_cost_delta_halt(mut self, tolerance: f64) -> Self {
        self.engine.cost_delta_halt = Some(tolerance);
        self
    }

    /// Runs the optimizer from the feasible `initial` allocation, recording
    /// per-iteration telemetry into `recorder`: the `econ.iterations`,
    /// `econ.projection_clips` and `econ.alpha_adaptations` counters, the
    /// `econ.active_set_size` histogram, the `econ.alpha` gauge, one `iter`
    /// event per iteration (utility, spread, α, gradient and step L2 norms,
    /// active-set size) and a closing `run_end` event. Virtual time is the
    /// iteration counter, so recordings are deterministic. Pass
    /// [`NoopRecorder`](fap_obs::NoopRecorder) for an unobserved run.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::Infeasible`] for an infeasible starting point,
    /// [`EconError::InvalidParameter`] for bad configuration, and any
    /// [`EconError::Model`] raised by the problem during evaluation.
    pub fn run<P: AllocationProblem + ?Sized>(
        &self,
        problem: &P,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<Solution, EconError> {
        let mut scratch = OptimizerScratch::new();
        self.engine.run_recorded(problem, initial, &mut scratch, recorder)
    }

    /// Like [`ResourceDirectedOptimizer::run`], reusing the caller's
    /// [`OptimizerScratch`] so repeated runs (parameter sweeps, per-file
    /// subproblems) perform no per-run buffer allocations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResourceDirectedOptimizer::run`].
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
    use fap_obs::{NoopRecorder, Telemetry};
    use proptest::prelude::*;

    fn quad() -> SeparableQuadratic {
        SeparableQuadratic::new(vec![1.0, 2.0, 4.0], vec![0.5, 0.4, 0.3], 1.0).unwrap()
    }

    #[test]
    fn converges_to_analytic_optimum() {
        let p = quad();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1))
            .with_epsilon(1e-8)
            .run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        assert_eq!(s.termination, Termination::MarginalSpread);
        for (xi, ei) in s.allocation.iter().zip(p.analytic_optimum()) {
            assert!((xi - ei).abs() < 1e-6, "{:?}", s.allocation);
        }
    }

    #[test]
    fn every_iterate_is_feasible() {
        let p = quad();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_recorded_allocations()
            .with_epsilon(1e-8)
            .run(&p, &[0.2, 0.5, 0.3], &mut NoopRecorder)
            .unwrap();
        assert_eq!(s.trace.allocations().unwrap().rows(), s.trace.len());
        for (i, r) in s.trace.records().iter().enumerate() {
            let x = s.trace.allocation(i).unwrap();
            let sum: f64 = x.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "iteration {}: sum {sum}", r.iteration);
            assert!(x.iter().all(|v| *v >= -1e-9));
        }
    }

    #[test]
    fn cost_decreases_monotonically_for_small_alpha() {
        let p = quad();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.02))
            .with_epsilon(1e-8)
            .run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.trace.is_cost_monotone_decreasing(1e-12));
    }

    #[test]
    fn dynamic_step_converges_quickly_and_monotonically() {
        let p = quad();
        let s = ResourceDirectedOptimizer::new(StepSize::Dynamic { safety: 0.9, max: 10.0 })
            .with_epsilon(1e-8)
            .run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        assert!(s.trace.is_cost_monotone_decreasing(1e-10));
        let fixed = ResourceDirectedOptimizer::new(StepSize::Fixed(0.01))
            .with_epsilon(1e-8)
            .run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.iterations < fixed.iterations, "{} vs {}", s.iterations, fixed.iterations);
    }

    #[test]
    fn initial_allocation_does_not_change_the_optimum() {
        // Paper §5.1: "this initial file allocation will in no way effect
        // the optimality of the final (computed) file allocation".
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05)).with_epsilon(1e-9);
        let a = opt.run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder).unwrap();
        let b = opt.run(&p, &[0.0, 0.0, 1.0], &mut NoopRecorder).unwrap();
        let c = opt.run(&p, &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], &mut NoopRecorder).unwrap();
        for i in 0..3 {
            assert!((a.allocation[i] - b.allocation[i]).abs() < 1e-5);
            assert!((a.allocation[i] - c.allocation[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn boundary_optimum_is_found_with_clamp_rule() {
        // Targets force agent 2's optimum to the boundary x = 0: with a
        // negative target, the unconstrained optimum would give it a
        // negative share.
        let p = SeparableQuadratic::new(
            vec![10.0, 10.0, 0.1],
            vec![0.5, 0.5, -1.0],
            1.0,
        )
        .unwrap();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_epsilon(1e-7)
            .with_max_iterations(200_000)
            .run(&p, &[0.4, 0.3, 0.3], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged, "termination {:?}", s.termination);
        assert!(s.allocation[2].abs() < 1e-9, "{:?}", s.allocation);
        assert!((s.allocation[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn freeze_rule_stalls_near_boundary_and_reports_honestly() {
        // The paper's literal §5.2 procedure freezes an agent whose step
        // overshoots zero; near a boundary optimum the agent hovers at a
        // small positive allocation and the run must NOT claim convergence.
        let p = SeparableQuadratic::new(
            vec![10.0, 10.0, 0.1],
            vec![0.5, 0.5, -1.0],
            1.0,
        )
        .unwrap();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_boundary(BoundaryRule::FreezeActiveSet)
            .with_epsilon(1e-7)
            .with_max_iterations(5_000)
            .run(&p, &[0.4, 0.3, 0.3], &mut NoopRecorder)
            .unwrap();
        assert!(!s.converged);
        // …but it still drove the boundary agent close to zero.
        assert!(s.allocation[2] < 0.05, "{:?}", s.allocation);
    }

    #[test]
    fn scale_step_rule_also_respects_boundary() {
        let p = quad();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.3))
            .with_boundary(BoundaryRule::ScaleStep)
            .with_recorded_allocations()
            .run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        for x in s.trace.recorded_allocations() {
            assert!(x.iter().all(|v| *v >= -1e-9));
        }
        assert_eq!(s.trace.allocations().unwrap().rows(), s.trace.len());
        assert!(s.converged);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1)).with_epsilon(1e-8);
        let fresh = opt.run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder).unwrap();
        let mut scratch = OptimizerScratch::new();
        // Warm the scratch on a different run, then repeat the original.
        opt.run_with_scratch(&p, &[0.0, 1.0, 0.0], &mut scratch, &mut NoopRecorder).unwrap();
        let reused = opt
            .run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert_eq!(fresh, reused);
    }

    #[test]
    fn warm_start_reaches_the_same_fixed_point_almost_instantly() {
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1)).with_epsilon(1e-8);
        let mut scratch = OptimizerScratch::new();
        let cold = opt
            .run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert!(cold.iterations > 5, "need a non-trivial cold run");
        scratch.start_from(&cold.allocation);
        let warm = opt
            .run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert!(warm.converged);
        assert!(warm.iterations <= 1, "seeded at the optimum: {} iterations", warm.iterations);
        assert!((warm.final_utility - cold.final_utility).abs() < 1e-12);
        for (w, c) in warm.allocation.iter().zip(&cold.allocation) {
            assert!((w - c).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_seed_is_one_shot_and_dimension_checked() {
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1)).with_epsilon(1e-8);
        let mut scratch = OptimizerScratch::new();
        let cold = opt
            .run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder)
            .unwrap();

        // Mismatched seed: consumed but ignored — the run is bit-identical
        // to the cold reference.
        scratch.start_from(&[0.5, 0.5]);
        assert!(scratch.has_warm_start());
        let fallback = opt
            .run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert!(!scratch.has_warm_start(), "seed must be consumed");
        assert_eq!(cold, fallback);

        // Matching seed: consumed by one run; the next starts cold again.
        scratch.start_from(&cold.allocation);
        opt.run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder).unwrap();
        let second = opt
            .run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert_eq!(cold, second);

        // Disarming works without running.
        scratch.start_from(&cold.allocation);
        scratch.clear_warm_start();
        let third = opt
            .run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert_eq!(cold, third);
    }

    #[test]
    fn warm_start_projects_drifted_seeds_back_to_feasibility() {
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1)).with_epsilon(1e-8);
        let mut scratch = OptimizerScratch::new();
        let cold = opt
            .run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder)
            .unwrap();
        // Drift the seed off the simplex; the run must still accept it and
        // converge to the same optimum from the projected point.
        let drifted: Vec<f64> =
            cold.allocation.iter().map(|v| v * 1.0001 - 1e-13).collect();
        scratch.start_from(&drifted);
        let warm = opt
            .run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert!(warm.converged);
        for (w, c) in warm.allocation.iter().zip(&cold.allocation) {
            assert!((w - c).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_start_is_counted_in_telemetry() {
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1)).with_epsilon(1e-8);
        let mut scratch = OptimizerScratch::new();
        let cold = opt
            .run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut NoopRecorder)
            .unwrap();
        let mut tele = Telemetry::manual();
        scratch.start_from(&cold.allocation);
        opt.run_with_scratch(&p, &[1.0, 0.0, 0.0], &mut scratch, &mut tele).unwrap();
        assert_eq!(tele.registry().counter("econ.warm_starts"), 1);
    }

    #[test]
    fn observed_run_is_bit_identical_and_records_every_iteration() {
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1)).with_epsilon(1e-8);
        let plain = opt.run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder).unwrap();

        let mut tele = Telemetry::manual();
        let observed = opt.run(&p, &[1.0, 0.0, 0.0], &mut tele).unwrap();
        assert_eq!(plain, observed);

        let registry = tele.registry();
        assert_eq!(registry.counter("econ.iterations"), observed.iterations as u64 + 1);
        assert_eq!(
            registry.histogram("econ.active_set_size").unwrap().count(),
            observed.iterations as u64 + 1
        );
        // One `iter` event per iteration plus the closing `run_end`.
        assert_eq!(tele.events().len(), observed.iterations + 2);
        let last = tele.events().last().unwrap();
        assert_eq!(last.name(), "run_end");
        assert_eq!(last.field("converged"), Some(fap_obs::Value::Bool(true)));
        assert_eq!(
            last.field("termination"),
            Some(fap_obs::Value::Str("marginal_spread"))
        );
    }

    #[test]
    fn two_observed_runs_emit_identical_jsonl() {
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1)).with_epsilon(1e-8);
        let mut a = Telemetry::manual();
        let mut b = Telemetry::manual();
        opt.run(&p, &[1.0, 0.0, 0.0], &mut a).unwrap();
        opt.run(&p, &[1.0, 0.0, 0.0], &mut b).unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert!(!a.to_jsonl().is_empty());
    }

    #[test]
    fn oscillation_decay_is_counted() {
        // Deliberately unstable α with adaptive decay: the detector must
        // fire at least once, and each firing increments the counter.
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::AdaptiveDecay {
            initial: 1.8,
            factor: 0.5,
            floor: 1e-4,
        })
        .with_oscillation_detection(6, 3)
        .with_epsilon(1e-8)
        .with_max_iterations(50_000);
        let mut tele = Telemetry::manual();
        let s = opt.run(&p, &[1.0, 0.0, 0.0], &mut tele).unwrap();
        assert!(s.converged);
        assert!(tele.registry().counter("econ.alpha_adaptations") >= 1);
    }

    #[test]
    fn max_iterations_reported_honestly() {
        let p = quad();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(1e-5))
            .with_epsilon(1e-10)
            .with_max_iterations(10)
            .run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(!s.converged);
        assert_eq!(s.termination, Termination::MaxIterations);
        assert_eq!(s.iterations, 10);
    }

    #[test]
    fn rejects_infeasible_start() {
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1));
        assert!(matches!(
            opt.run(&p, &[0.7, 0.7, 0.0], &mut NoopRecorder),
            Err(EconError::Infeasible(_))
        ));
        assert!(matches!(
            opt.run(&p, &[1.5, -0.5, 0.0], &mut NoopRecorder),
            Err(EconError::Infeasible(_))
        ));
        assert!(matches!(
            opt.run(&p, &[1.0, 0.0], &mut NoopRecorder),
            Err(EconError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn unconstrained_rule_accepts_negative_start() {
        let p = quad();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_boundary(BoundaryRule::Unconstrained)
            .run(&p, &[1.5, -0.5, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
    }

    #[test]
    fn rejects_bad_epsilon() {
        let p = quad();
        let opt = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1)).with_epsilon(0.0);
        assert!(matches!(
            opt.run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder),
            Err(EconError::InvalidParameter(_))
        ));
    }

    #[test]
    fn trace_records_iterations_in_order() {
        let p = quad();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.1))
            .run(&p, &[1.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        for (i, r) in s.trace.records().iter().enumerate() {
            assert_eq!(r.iteration, i);
        }
        assert_eq!(s.trace.len(), s.iterations + 1);
    }

    #[test]
    fn log_problem_with_steep_boundary_converges() {
        let p = ShiftedLog::new(vec![3.0, 1.0, 1.0, 1.0], 0.2, 1.0).unwrap();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_epsilon(1e-7)
            .run(&p, &[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        for (xi, ei) in s.allocation.iter().zip(p.analytic_optimum()) {
            assert!((xi - ei).abs() < 1e-4);
        }
    }

    proptest! {
        /// On random quadratic problems with interior optima, the optimizer
        /// preserves feasibility, decreases cost monotonically (small α),
        /// and lands near the analytic optimum.
        #[test]
        fn random_quadratics_converge(
            seedless_weights in proptest::collection::vec(0.5f64..4.0, 2..8),
            start_index in 0usize..8,
        ) {
            let n = seedless_weights.len();
            let targets: Vec<f64> = (0..n).map(|i| 0.5 + 0.1 * i as f64).collect();
            let p = SeparableQuadratic::new(seedless_weights, targets, 1.0).unwrap();
            let mut x0 = vec![0.0; n];
            x0[start_index % n] = 1.0;
            let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.02))
                .with_epsilon(1e-7)
                .with_max_iterations(100_000)
                .run(&p, &x0, &mut NoopRecorder)
                .unwrap();
            prop_assert!(s.converged);
            prop_assert!(s.trace.is_cost_monotone_decreasing(1e-9));
            let sum: f64 = s.allocation.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-7);
            // Interior optimum check only when analytic optimum is feasible.
            let opt = p.analytic_optimum();
            if opt.iter().all(|v| *v > 1e-3) {
                for (xi, ei) in s.allocation.iter().zip(&opt) {
                    prop_assert!((xi - ei).abs() < 1e-3);
                }
            }
        }
    }
}
