//! The virtual-ring cost function (paper §7.2).
//!
//! `C = Σ_j C_j` where `C_j`, "the cost to the system for accesses directed
//! to node j", combines the link costs of the forward paths carrying those
//! accesses and the M/M/1 delay at the node:
//!
//! ```text
//! C_j = Σ_i λ_i · d(i → j) · f_ij  +  k · Λ_j / (μ_j − Λ_j)
//! ```
//!
//! with `d(i → j)` the forward-path cost, `f_ij` the coverage fraction, and
//! `Λ_j = Σ_i λ_i f_ij`. The delay term is `k · Λ_j · T(Λ_j)` — arrival
//! rate times mean response time, the expected number of accesses in
//! service/queue weighted by `k` — matching the paper's use of the "same
//! M/M/1 formulation" with the aggregate arrival rate.

use crate::coverage::{check_entries, cover_row, FEASIBLE_SHORTFALL, PROBE_SHORTFALL};
use crate::error::RingError;
use crate::layout::VirtualRing;

/// A cost breakdown for one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// Total communication cost.
    pub communication: f64,
    /// Total delay cost.
    pub delay: f64,
    /// Per-node arrival rates `Λ_j`.
    pub arrivals: Vec<f64>,
}

impl CostBreakdown {
    /// Total cost `communication + delay`.
    pub fn total(&self) -> f64 {
        self.communication + self.delay
    }
}

/// Evaluates the cost of allocation `x`.
///
/// # Errors
///
/// Returns [`RingError::Model`] if the allocation is infeasible, lacks a
/// full copy, or drives some node at or beyond its service capacity.
pub fn evaluate(ring: &VirtualRing, x: &[f64]) -> Result<CostBreakdown, RingError> {
    ring.check_allocation(x)?;
    evaluate_with_shortfall(ring, x, FEASIBLE_SHORTFALL)
}

/// Like [`evaluate`] but without the copy-total feasibility check, for the
/// finite-difference gradient's probe points.
///
/// # Errors
///
/// Same conditions as [`evaluate`] except the `Σ x_i = copies` check.
pub fn evaluate_relaxed(ring: &VirtualRing, x: &[f64]) -> Result<CostBreakdown, RingError> {
    evaluate_with_shortfall(ring, x, PROBE_SHORTFALL)
}

fn evaluate_with_shortfall(
    ring: &VirtualRing,
    x: &[f64],
    shortfall_tol: f64,
) -> Result<CostBreakdown, RingError> {
    let mut scratch = CostScratch::default();
    let (communication, delay) = cost_into(ring, x, shortfall_tol, &mut scratch)?;
    Ok(CostBreakdown { communication, delay, arrivals: scratch.arrivals })
}

/// Buffers for [`cost_into`]: one coverage row and the per-node arrivals.
#[derive(Debug, Clone, Default)]
pub(crate) struct CostScratch {
    row: Vec<f64>,
    arrivals: Vec<f64>,
}

/// The communication and delay cost of `x` (coverage shortfall up to
/// `shortfall_tol` tolerated), walking one coverage row at a time in place
/// of the `n × n` coverage matrix; allocation-free once `scratch` covers
/// the ring. Each sum runs over the nonzero `f_ij` in the matrix's order,
/// `i` then `j` ascending, so the result is bit-identical to summing over
/// [`coverage_fractions_relaxed`]'s matrix.
///
/// [`coverage_fractions_relaxed`]: crate::coverage::coverage_fractions_relaxed
pub(crate) fn cost_into(
    ring: &VirtualRing,
    x: &[f64],
    shortfall_tol: f64,
    scratch: &mut CostScratch,
) -> Result<(f64, f64), RingError> {
    check_entries(ring, x)?;
    let n = ring.node_count();
    let lambdas = ring.lambdas();
    let mus = ring.mus();
    let k = ring.k();
    let CostScratch { row, arrivals } = scratch;
    row.resize(n, 0.0);
    arrivals.clear();
    arrivals.resize(n, 0.0);

    let mut communication = 0.0;
    for (i, &lambda) in lambdas.iter().enumerate() {
        let visited = cover_row(x, i, shortfall_tol, row)?;
        // The visited stretch i, i + 1, … wraps past node n − 1 to 0.
        let wrapped = (i + visited).saturating_sub(n);
        for j in (0..wrapped).chain(i..(i + visited).min(n)) {
            if row[j] > 0.0 {
                communication += lambda * ring.forward_cost(i, j) * row[j];
                arrivals[j] += lambda * row[j];
            }
        }
    }
    let mut delay = 0.0;
    for j in 0..n {
        if arrivals[j] >= mus[j] {
            return Err(RingError::Model(format!(
                "node {j} receives {} ≥ capacity {}",
                arrivals[j], mus[j]
            )));
        }
        delay += k * arrivals[j] / (mus[j] - arrivals[j]);
    }
    Ok((communication, delay))
}

/// The total cost of allocation `x` (communication + delay).
///
/// # Errors
///
/// Same conditions as [`evaluate`].
pub fn total_cost(ring: &VirtualRing, x: &[f64]) -> Result<f64, RingError> {
    total_cost_into(ring, x, &mut CostScratch::default())
}

/// [`total_cost`] with caller-owned buffers.
pub(crate) fn total_cost_into(
    ring: &VirtualRing,
    x: &[f64],
    scratch: &mut CostScratch,
) -> Result<f64, RingError> {
    ring.check_allocation(x)?;
    let (communication, delay) = cost_into(ring, x, FEASIBLE_SHORTFALL, scratch)?;
    Ok(communication + delay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::{coverage_fractions, coverage_fractions_relaxed};
    use proptest::prelude::*;

    /// The cost summed over the whole coverage matrix, as it was before the
    /// row walk: the oracle for [`cost_into`].
    #[allow(clippy::needless_range_loop)]
    fn matrix_cost(ring: &VirtualRing, x: &[f64]) -> Result<(f64, f64, Vec<f64>), RingError> {
        let f = coverage_fractions_relaxed(ring, x)?;
        let n = ring.node_count();
        let (mut communication, mut arrivals) = (0.0, vec![0.0; n]);
        for i in 0..n {
            for j in 0..n {
                if f[i][j] > 0.0 {
                    communication += ring.lambdas()[i] * ring.forward_cost(i, j) * f[i][j];
                    arrivals[j] += ring.lambdas()[i] * f[i][j];
                }
            }
        }
        let mut delay = 0.0;
        for j in 0..n {
            if arrivals[j] >= ring.mus()[j] {
                return Err(RingError::Model(format!(
                    "node {j} receives {} ≥ capacity {}",
                    arrivals[j],
                    ring.mus()[j]
                )));
            }
            delay += ring.k() * arrivals[j] / (ring.mus()[j] - arrivals[j]);
        }
        Ok((communication, delay, arrivals))
    }

    proptest! {
        /// The row walk gives the matrix sums bit for bit, errors included,
        /// on allocations with empty nodes, wrapping walks and shortfalls,
        /// with a scratch reused from another allocation.
        #[test]
        fn row_walk_matches_the_coverage_matrix(
            n in 3usize..14,
            links in proptest::collection::vec(0.1f64..5.0, 14),
            lambdas in proptest::collection::vec(0.01f64..0.5, 14),
            raw in proptest::collection::vec(0.0f64..1.0, 14),
            zero_frac in 0.0f64..0.8,
            copies in 0.9f64..3.0,
            mu in 0.3f64..4.0,
        ) {
            let ring = VirtualRing::new(links[..n].to_vec(), lambdas[..n].to_vec(), vec![mu; n], copies.max(1.0), 1.0).unwrap();
            let x: Vec<f64> = raw[..n].iter().map(|v| if *v < zero_frac { 0.0 } else { *v }).collect();
            let sum: f64 = x.iter().sum();
            prop_assume!(sum > 0.0);
            let x: Vec<f64> = x.iter().map(|v| v * copies / sum).collect();
            // A scratch left dirty by another allocation.
            let mut scratch = CostScratch::default();
            let reversed: Vec<f64> = x.iter().rev().copied().collect();
            cost_into(&ring, &reversed, PROBE_SHORTFALL, &mut scratch).ok();
            let walked = cost_into(&ring, &x, PROBE_SHORTFALL, &mut scratch);
            match (matrix_cost(&ring, &x), walked) {
                (Ok((c, d, arrivals)), Ok((wc, wd))) => {
                    prop_assert_eq!(c.to_bits(), wc.to_bits());
                    prop_assert_eq!(d.to_bits(), wd.to_bits());
                    let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&arrivals), bits(&scratch.arrivals));
                }
                (Err(e), Err(we)) => {
                    prop_assert_eq!(e.to_string(), we.to_string());
                }
                (m, w) => {
                    prop_assert!(false, "matrix {m:?}, walk {w:?}");
                }
            }
        }
    }

    fn paper_ring() -> (VirtualRing, Vec<f64>) {
        let ring = VirtualRing::new(
            vec![2.0, 3.0, 2.0, 1.0, 1.0, 1.0, 4.0],
            vec![1.0; 7],
            vec![4.0; 7],
            2.0,
            1.0,
        )
        .unwrap();
        (ring, vec![0.4, 0.1, 0.2, 0.8, 0.2, 0.1, 0.2])
    }

    #[test]
    fn paper_example_communication_cost_of_node_4() {
        // §7.2: "the communication cost would be 11·0.1 + 7·0.3 + 5·0.7 +
        // 2·0.8 + 0·0.8 = 8.3". Recompute just node 4's (index 3) share.
        let (ring, x) = paper_ring();
        let f = coverage_fractions(&ring, &x).unwrap();
        let node4_comm: f64 =
            (0..7).map(|i| ring.lambdas()[i] * ring.forward_cost(i, 3) * f[i][3]).sum();
        assert!((node4_comm - 8.3).abs() < 1e-9, "{node4_comm}");
    }

    #[test]
    fn paper_example_delay_term_of_node_4() {
        let (ring, x) = paper_ring();
        let b = evaluate(&ring, &x).unwrap();
        // Λ_4 = 2.7; with μ = 4 the node-4 delay cost is 2.7/(4 − 2.7).
        assert!((b.arrivals[3] - 2.7).abs() < 1e-9);
        assert!(b.delay >= 2.7 / 1.3);
    }

    #[test]
    fn overloaded_node_is_an_error() {
        let ring = VirtualRing::new(
            vec![1.0; 4],
            vec![1.0; 4], // λ = 4 total
            vec![1.5; 4],
            1.0,
            1.0,
        )
        .unwrap();
        // Whole file at node 0: Λ_0 = 4 > μ = 1.5.
        assert!(matches!(
            total_cost(&ring, &[1.0, 0.0, 0.0, 0.0]),
            Err(RingError::Model(_))
        ));
    }

    #[test]
    fn symmetric_even_split_is_cheaper_than_concentration() {
        let ring =
            VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).unwrap();
        let even = total_cost(&ring, &[0.5; 4]).unwrap();
        let concentrated = total_cost(&ring, &[2.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(even < concentrated, "{even} vs {concentrated}");
    }

    #[test]
    fn extra_copies_reduce_communication() {
        // More copies shorten every node's walk, so the communication term
        // cannot grow.
        let one = VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 1.0, 1.0).unwrap();
        let two = VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0).unwrap();
        let c1 = evaluate(&one, &[0.25; 4]).unwrap();
        let c2 = evaluate(&two, &[0.5; 4]).unwrap();
        assert!(c2.communication < c1.communication);
    }

    #[test]
    fn communication_slope_jumps_at_coverage_breakpoints() {
        // The §7.2 discontinuity: "the marginal utilities will … change in
        // jumps, the jumps being whole link costs". Slide mass between
        // nodes 0 and 1 through the breakpoint t = 0, where several nodes'
        // walks switch which links they cross, and compare the one-sided
        // slopes of the cost.
        let ring =
            VirtualRing::new(vec![5.0, 1.0, 1.0, 1.0], vec![0.25; 4], vec![2.0; 4], 2.0, 1.0)
                .unwrap();
        let f = |t: f64| total_cost(&ring, &[0.5 + t, 0.5 - t, 0.5, 0.5]).unwrap();
        let h = 1e-6;
        let slope_right = (f(h) - f(0.0)) / h;
        let slope_left = (f(0.0) - f(-h)) / h;
        assert!(
            (slope_right - slope_left).abs() > 0.5,
            "one-sided slopes {slope_left} vs {slope_right} should differ by link costs"
        );
    }
}
