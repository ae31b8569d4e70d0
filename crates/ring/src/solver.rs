//! The oscillation-aware multi-copy solver (paper §7.3).
//!
//! On the piecewise ring objective the plain equal-marginal iteration
//! oscillates near the optimum — "the abrupt changes in marginal utilities
//! in successive iterations cause oscillations and hence there is no
//! convergence". The paper's remedies, all implemented here:
//!
//! * **step decay** — "when oscillations are observed the value of the
//!   stepsize parameter α is decreased by a fixed amount";
//! * **cost-delta halting** — "when the difference in cost measured at two
//!   successive iterations is judged to be small enough the algorithm
//!   halts";
//! * **best-observed fallback** — for pathologically communication-dominated
//!   rings, "observing the oscillations over a period of time and halting
//!   when the cost is at the lowest observed point".

use serde::{Deserialize, Serialize};

use fap_econ::projection::{clamp_step_into, StepWorkspace};
use fap_econ::OscillationDetector;
use fap_obs::{Recorder, Value};

use crate::cost::total_cost_into;
use crate::error::RingError;
use crate::gradient::{marginal_costs_into, GradientScratch, DEFAULT_STEP};
use crate::layout::VirtualRing;

/// The outcome of a multi-copy solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingSolution {
    /// The allocation at the final iteration.
    pub final_allocation: Vec<f64>,
    /// The lowest-cost allocation observed anywhere in the run (the §7.3
    /// fallback halting point).
    pub best_allocation: Vec<f64>,
    /// Cost of [`RingSolution::best_allocation`].
    pub best_cost: f64,
    /// Cost of [`RingSolution::final_allocation`].
    pub final_cost: f64,
    /// Cost after each iteration — the Figure 8/9 convergence profiles.
    pub cost_series: Vec<f64>,
    /// The step size in force at each iteration (decays on oscillation).
    pub alpha_series: Vec<f64>,
    /// Number of reallocation steps applied.
    pub iterations: usize,
    /// Whether the cost-delta criterion halted the run (as opposed to the
    /// iteration cap).
    pub converged: bool,
}

impl RingSolution {
    /// The largest single-iteration cost increase — the oscillation
    /// amplitude Figure 9 compares across step sizes.
    pub fn oscillation_amplitude(&self) -> f64 {
        self.cost_series.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max)
    }
}

/// The §7.3 solver.
#[derive(Debug, Clone)]
pub struct RingSolver {
    alpha: f64,
    decay_factor: f64,
    min_alpha: f64,
    cost_delta_tolerance: f64,
    max_iterations: usize,
    oscillation_window: usize,
    oscillation_threshold: usize,
    fd_step: f64,
    adapt: bool,
}

impl RingSolver {
    /// Creates a solver with initial step size `alpha` and the defaults:
    /// oscillation-triggered decay ×0.5 (floor `alpha/100`) over a window of
    /// 8 cost deltas with 4 alternations, cost-delta halting at `1e-7`, a
    /// 20 000-iteration cap, and finite-difference step `1e-6`.
    pub fn new(alpha: f64) -> Self {
        RingSolver {
            alpha,
            decay_factor: 0.5,
            min_alpha: alpha / 100.0,
            cost_delta_tolerance: 1e-7,
            max_iterations: 20_000,
            oscillation_window: 8,
            oscillation_threshold: 4,
            fd_step: DEFAULT_STEP,
            adapt: true,
        }
    }

    /// Disables step-size decay (the plain fixed-α iteration of Figure 8,
    /// which oscillates indefinitely on communication-dominated rings).
    #[must_use]
    pub fn without_adaptation(mut self) -> Self {
        self.adapt = false;
        self
    }

    /// Sets the multiplicative decay applied on detected oscillation.
    #[must_use]
    pub fn with_decay(mut self, factor: f64, floor: f64) -> Self {
        self.decay_factor = factor;
        self.min_alpha = floor;
        self
    }

    /// Sets the cost-delta halting tolerance.
    #[must_use]
    pub fn with_cost_delta_tolerance(mut self, tolerance: f64) -> Self {
        self.cost_delta_tolerance = tolerance;
        self
    }

    /// Sets the iteration cap.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the oscillation-detection window and alternation threshold.
    #[must_use]
    pub fn with_oscillation_detection(mut self, window: usize, threshold: usize) -> Self {
        self.oscillation_window = window;
        self.oscillation_threshold = threshold;
        self
    }

    /// Runs the solver from the feasible `initial` allocation
    /// (`Σ x_i = copies`, `x_i ≥ 0`), recording per-iteration `iter`
    /// events (cost, step size), `ring.iterations` / `ring.alpha_decays`
    /// counters, a `ring.alpha` gauge, and a `run_end` event carrying the
    /// iteration count and final/best costs into `recorder`, so
    /// `fap report` reads ring runs. Virtual time is the iteration counter.
    /// Pass [`NoopRecorder`](fap_obs::NoopRecorder) for an unobserved run.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::InvalidParameter`] for invalid configuration and
    /// [`RingError::Model`] for an infeasible start or an unevaluable
    /// iterate.
    pub fn solve(
        &self,
        ring: &VirtualRing,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<RingSolution, RingError> {
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(RingError::InvalidParameter(format!("alpha {}", self.alpha)));
        }
        if !self.cost_delta_tolerance.is_finite() || self.cost_delta_tolerance <= 0.0 {
            return Err(RingError::InvalidParameter(format!(
                "cost-delta tolerance {}",
                self.cost_delta_tolerance
            )));
        }
        if !(0.0..1.0).contains(&self.decay_factor) || self.decay_factor == 0.0 {
            return Err(RingError::InvalidParameter(format!(
                "decay factor {}",
                self.decay_factor
            )));
        }
        ring.check_allocation(initial)?;

        let n = ring.node_count();
        let mut x = initial.to_vec();
        let mut alpha = self.alpha;
        let mut detector =
            OscillationDetector::new(self.oscillation_window, self.oscillation_threshold);
        let mut cost_series = Vec::new();
        let mut alpha_series = Vec::new();
        let mut best_cost = f64::INFINITY;
        let mut best_allocation = x.clone();
        let mut previous: Option<f64> = None;
        let mut iterations = 0usize;
        // Per-iteration buffers: the loop allocates nothing but the growth
        // of the cost and step-size series.
        let mut gradient = GradientScratch::default();
        let mut g_util = Vec::with_capacity(n);
        let mut step = StepWorkspace::new();

        loop {
            let cost = total_cost_into(ring, &x, &mut gradient.cost)?;
            cost_series.push(cost);
            alpha_series.push(alpha);
            if cost < best_cost {
                best_cost = cost;
                best_allocation.clone_from(&x);
            }

            // Telemetry on iteration/virtual time; gated behind
            // `is_enabled` so the NoopRecorder path does no extra work, and
            // the `iter` event is built only for a sink that keeps it.
            recorder.set_time(iterations as u64);
            if recorder.is_enabled() {
                recorder.incr("ring.iterations", 1);
                recorder.gauge("ring.alpha", alpha);
                if recorder.keeps_events() {
                    recorder.emit(
                        "iter",
                        &[
                            ("iteration", Value::U64(iterations as u64)),
                            ("cost", Value::F64(cost)),
                            ("alpha", Value::F64(alpha)),
                            ("best_cost", Value::F64(best_cost)),
                        ],
                    );
                }
            }

            let halted = previous.is_some_and(|p| (cost - p).abs() < self.cost_delta_tolerance);
            if halted || iterations >= self.max_iterations {
                recorder.emit(
                    "run_end",
                    &[
                        ("iterations", Value::U64(iterations as u64)),
                        ("converged", Value::Bool(halted)),
                        ("final_cost", Value::F64(cost)),
                        ("best_cost", Value::F64(best_cost)),
                    ],
                );
                return Ok(RingSolution {
                    final_cost: cost,
                    final_allocation: x,
                    best_allocation,
                    best_cost,
                    cost_series,
                    alpha_series,
                    iterations,
                    converged: halted,
                });
            }
            previous = Some(cost);

            if self.adapt && detector.observe(cost) {
                alpha = (alpha * self.decay_factor).max(self.min_alpha);
                detector.reset();
                recorder.incr("ring.alpha_decays", 1);
            }

            marginal_costs_into(ring, &x, self.fd_step, &mut gradient)?;
            g_util.clear();
            g_util.extend(gradient.grad.iter().map(|g| -g));
            clamp_step_into(&x, &g_util, 1.0, alpha, &mut step);
            for (xi, d) in x.iter_mut().zip(step.deltas()) {
                *xi += d;
            }
            iterations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;
    use fap_obs::NoopRecorder;

    /// The §7.3 four-node ring family: λ_i = 0.25, μ = 1.5, k = 1, m = 2.
    fn ring(link_costs: Vec<f64>) -> VirtualRing {
        VirtualRing::new(link_costs, vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).unwrap()
    }

    #[test]
    fn symmetric_ring_spreads_two_copies_evenly() {
        let r = ring(vec![1.0; 4]);
        let s = RingSolver::new(0.05).solve(&r, &[2.0, 0.0, 0.0, 0.0], &mut NoopRecorder).unwrap();
        assert!(s.converged);
        for v in &s.best_allocation {
            assert!((v - 0.5).abs() < 0.05, "{:?}", s.best_allocation);
        }
        let even = cost::total_cost(&r, &[0.5; 4]).unwrap();
        assert!(s.best_cost <= even + 5e-3, "best {} vs even {even}", s.best_cost);
    }

    #[test]
    fn cost_dominated_ring_oscillates_more_than_delay_dominated() {
        // Figure 8: "a dominant communication cost is likely to result in
        // greater oscillation". Fixed α, no adaptation, same start.
        let start = [2.0, 0.0, 0.0, 0.0];
        let solver = RingSolver::new(0.1).without_adaptation().with_max_iterations(150);
        let comm = solver
            .solve(&ring(vec![4.0, 1.0, 1.0, 1.0]), &start, &mut NoopRecorder)
            .unwrap();
        let delay = solver.solve(&ring(vec![1.0; 4]), &start, &mut NoopRecorder).unwrap();
        assert!(
            comm.oscillation_amplitude() > delay.oscillation_amplitude(),
            "comm {} vs delay {}",
            comm.oscillation_amplitude(),
            delay.oscillation_amplitude()
        );
    }

    #[test]
    fn smaller_alpha_gives_smaller_oscillations() {
        // Figure 9: α = 0.05 oscillates less than α = 0.1 on the same ring.
        let r = ring(vec![4.0, 1.0, 1.0, 1.0]);
        let start = [2.0, 0.0, 0.0, 0.0];
        let big = RingSolver::new(0.1)
            .without_adaptation()
            .with_max_iterations(200)
            .solve(&r, &start, &mut NoopRecorder)
            .unwrap();
        let small = RingSolver::new(0.05)
            .without_adaptation()
            .with_max_iterations(200)
            .solve(&r, &start, &mut NoopRecorder)
            .unwrap();
        assert!(
            small.oscillation_amplitude() < big.oscillation_amplitude(),
            "small {} vs big {}",
            small.oscillation_amplitude(),
            big.oscillation_amplitude()
        );
    }

    #[test]
    fn adaptation_converges_where_fixed_step_keeps_oscillating() {
        let r = ring(vec![4.0, 1.0, 1.0, 1.0]);
        let start = [2.0, 0.0, 0.0, 0.0];
        let adaptive = RingSolver::new(0.1)
            .with_max_iterations(3_000)
            .solve(&r, &start, &mut NoopRecorder)
            .unwrap();
        assert!(adaptive.converged, "adaptive run should halt on cost delta");
        // The step size actually decayed along the way.
        let first = adaptive.alpha_series.first().copied().unwrap();
        let last = adaptive.alpha_series.last().copied().unwrap();
        assert!(last < first, "alpha did not decay: {first} -> {last}");
    }

    #[test]
    fn best_observed_is_no_worse_than_start_and_final() {
        let r = ring(vec![4.0, 1.0, 1.0, 1.0]);
        let start = [1.0, 1.0, 0.0, 0.0];
        let s = RingSolver::new(0.1)
            .without_adaptation()
            .with_max_iterations(100)
            .solve(&r, &start, &mut NoopRecorder)
            .unwrap();
        let start_cost = cost::total_cost(&r, &start).unwrap();
        assert!(s.best_cost <= start_cost + 1e-12);
        assert!(s.best_cost <= s.final_cost + 1e-12);
        assert!((cost::total_cost(&r, &s.best_allocation).unwrap() - s.best_cost).abs() < 1e-9);
    }

    #[test]
    fn every_iterate_keeps_the_copy_total() {
        let r = ring(vec![1.0; 4]);
        let s = RingSolver::new(0.08)
            .with_max_iterations(500)
            .solve(&r, &[0.9, 0.7, 0.4, 0.0], &mut NoopRecorder)
            .unwrap();
        let total: f64 = s.final_allocation.iter().sum();
        assert!((total - 2.0).abs() < 1e-6, "total {total}");
        assert!(s.final_allocation.iter().all(|v| *v >= -1e-9));
    }

    #[test]
    fn rapid_initial_phase_then_gradual_phase() {
        // §7.3: "we observe the same initial rapid phase and the later
        // gradual phase". Most of the total improvement happens in the
        // first few iterations.
        let r = ring(vec![1.0; 4]);
        let s = RingSolver::new(0.05).solve(&r, &[2.0, 0.0, 0.0, 0.0], &mut NoopRecorder).unwrap();
        let c0 = s.cost_series[0];
        let c10 = s.cost_series[10.min(s.cost_series.len() - 1)];
        let improvement_total = c0 - s.best_cost;
        let improvement_first10 = c0 - c10;
        assert!(
            improvement_first10 > 0.5 * improvement_total,
            "first-10 improvement {improvement_first10} of total {improvement_total}"
        );
    }

    #[test]
    fn solver_validates_configuration() {
        let r = ring(vec![1.0; 4]);
        assert!(RingSolver::new(0.0).solve(&r, &[0.5; 4], &mut NoopRecorder).is_err());
        assert!(RingSolver::new(0.1)
            .with_cost_delta_tolerance(0.0)
            .solve(&r, &[0.5; 4], &mut NoopRecorder)
            .is_err());
        assert!(RingSolver::new(0.1)
            .with_decay(1.0, 0.001)
            .solve(&r, &[0.5; 4], &mut NoopRecorder)
            .is_err());
        assert!(RingSolver::new(0.1)
            .solve(&r, &[0.25; 4], &mut NoopRecorder)
            .is_err()); // wrong total
    }

    #[test]
    fn observed_solve_is_bit_identical_to_plain_solve() {
        let r = ring(vec![4.0, 1.0, 1.0, 1.0]);
        let solver = RingSolver::new(0.1).with_max_iterations(3_000);
        let plain = solver.solve(&r, &[2.0, 0.0, 0.0, 0.0], &mut NoopRecorder).unwrap();
        let mut tele = fap_obs::Telemetry::manual();
        let observed = solver.solve(&r, &[2.0, 0.0, 0.0, 0.0], &mut tele).unwrap();
        assert_eq!(plain, observed);
    }

    #[test]
    fn telemetry_records_iterations_decays_and_run_end() {
        let r = ring(vec![4.0, 1.0, 1.0, 1.0]);
        let solver = RingSolver::new(0.1).with_max_iterations(3_000);
        let mut tele = fap_obs::Telemetry::manual();
        let s = solver.solve(&r, &[2.0, 0.0, 0.0, 0.0], &mut tele).unwrap();
        assert!(s.converged);
        // One counted pass per cost evaluation: `iterations` applied steps
        // plus the final halting pass.
        assert_eq!(tele.registry().counter("ring.iterations"), s.iterations as u64 + 1);
        // This run demonstrably decayed alpha (see
        // adaptation_converges_where_fixed_step_keeps_oscillating).
        assert!(tele.registry().counter("ring.alpha_decays") > 0);
        let run_end = tele.events().iter().find(|e| e.name() == "run_end").unwrap();
        assert!(run_end
            .fields()
            .iter()
            .any(|(k, v)| *k == "iterations" && *v == Value::U64(s.iterations as u64)));
        assert!(run_end.fields().iter().any(|(k, v)| *k == "converged" && *v == Value::Bool(true)));
    }

    #[test]
    fn iteration_cap_reports_not_converged() {
        let r = ring(vec![4.0, 1.0, 1.0, 1.0]);
        let s = RingSolver::new(0.1)
            .without_adaptation()
            .with_max_iterations(5)
            .solve(&r, &[2.0, 0.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(!s.converged);
        assert_eq!(s.iterations, 5);
    }
}
