//! Numeric marginal costs for the piecewise ring objective.
//!
//! The multi-copy objective is continuous but only piecewise smooth: "the
//! objective function has discontinuities and the first partial derivatives
//! at these discontinuities are different depending on the direction of
//! approach" (§7.2). We therefore estimate `∂C/∂x_i` by central finite
//! differences; at breakpoints the estimate averages the one-sided slopes,
//! which is exactly the abrupt-jump behavior that makes the §7.3 iteration
//! oscillate — the solver is designed around it rather than hiding it.

use crate::cost::{cost_into, CostScratch};
use crate::coverage::PROBE_SHORTFALL;
use crate::error::RingError;
use crate::layout::VirtualRing;

/// Default finite-difference step.
pub const DEFAULT_STEP: f64 = 1e-6;

/// Central-difference marginal costs `∂C/∂x_i` at allocation `x`.
///
/// The perturbed points move mass between node `i` and the ring as a whole
/// would violate feasibility, so each probe perturbs only `x_i` and
/// evaluates the (still well-defined) cost; the projection inside the
/// optimization step restores feasibility, mirroring how the single-file
/// model treats its gradient.
///
/// # Errors
///
/// Returns [`RingError::Model`] if the allocation or a probe point cannot
/// be evaluated, and [`RingError::InvalidParameter`] for a non-positive
/// step.
pub fn marginal_costs(ring: &VirtualRing, x: &[f64], step: f64) -> Result<Vec<f64>, RingError> {
    let mut scratch = GradientScratch::default();
    marginal_costs_into(ring, x, step, &mut scratch)?;
    Ok(scratch.grad)
}

/// Buffers for [`marginal_costs_into`]: the gradient, the probe point and
/// the cost evaluation's.
#[derive(Debug, Clone, Default)]
pub(crate) struct GradientScratch {
    pub(crate) grad: Vec<f64>,
    probe: Vec<f64>,
    pub(crate) cost: CostScratch,
}

/// [`marginal_costs`] into `scratch.grad`, allocation-free once `scratch`
/// covers the ring. The same probes in the same order, so the gradient is
/// bit-identical.
pub(crate) fn marginal_costs_into(
    ring: &VirtualRing,
    x: &[f64],
    step: f64,
    scratch: &mut GradientScratch,
) -> Result<(), RingError> {
    if !step.is_finite() || step <= 0.0 {
        return Err(RingError::InvalidParameter(format!("finite-difference step {step}")));
    }
    let n = ring.node_count();
    let GradientScratch { grad, probe, cost } = scratch;
    grad.clear();
    grad.resize(n, 0.0);
    probe.clear();
    probe.extend_from_slice(x);
    for i in 0..n {
        let orig = probe[i];
        // Keep probes non-negative: fall back to a one-sided difference at
        // the boundary.
        let (lo, hi) = if orig >= step { (orig - step, orig + step) } else { (orig, orig + step) };
        probe[i] = hi;
        let (comm, delay) = cost_into(ring, probe, PROBE_SHORTFALL, cost)?;
        let chi = comm + delay;
        probe[i] = lo;
        let (comm, delay) = cost_into(ring, probe, PROBE_SHORTFALL, cost)?;
        let clo = comm + delay;
        probe[i] = orig;
        grad[i] = (chi - clo) / (hi - lo);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_is_positive_where_adding_file_adds_load() {
        // Symmetric ring at the even optimum: every marginal cost is equal
        // and positive (more file ⇒ more accesses served here remotely
        // become local but delay rises; net marginal must match by
        // symmetry).
        let ring =
            VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).unwrap();
        let g = marginal_costs(&ring, &[0.5; 4], DEFAULT_STEP).unwrap();
        for gi in &g {
            assert!((gi - g[0]).abs() < 1e-6, "symmetric marginals: {g:?}");
        }
    }

    #[test]
    fn asymmetric_allocation_has_unequal_marginals() {
        let ring =
            VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).unwrap();
        let g = marginal_costs(&ring, &[1.4, 0.2, 0.2, 0.2], DEFAULT_STEP).unwrap();
        let spread = g.iter().copied().fold(f64::MIN, f64::max)
            - g.iter().copied().fold(f64::MAX, f64::min);
        assert!(spread > 1e-3, "expected unequal marginals, got {g:?}");
    }

    #[test]
    fn rejects_bad_step() {
        let ring =
            VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).unwrap();
        assert!(marginal_costs(&ring, &[0.5; 4], 0.0).is_err());
        assert!(marginal_costs(&ring, &[0.5; 4], f64::NAN).is_err());
    }

    #[test]
    fn boundary_nodes_use_one_sided_differences() {
        let ring =
            VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).unwrap();
        // Node 3 at zero: probe must not go negative.
        let g = marginal_costs(&ring, &[1.0, 0.6, 0.4, 0.0], DEFAULT_STEP).unwrap();
        assert!(g.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn matches_coarse_secant_away_from_breakpoints() {
        let ring =
            VirtualRing::new(vec![2.0, 1.0, 1.0, 1.0], vec![0.25; 4], vec![2.0; 4], 2.0, 1.0)
                .unwrap();
        let x = [0.7, 0.45, 0.45, 0.4];
        let g = marginal_costs(&ring, &x, 1e-7).unwrap();
        let coarse = marginal_costs(&ring, &x, 1e-4).unwrap();
        for (a, b) in g.iter().zip(&coarse) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }
}
