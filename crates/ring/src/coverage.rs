//! Coverage: which fraction each node fetches from which node.
//!
//! With copies laid end to end around the ring, "the file is contiguous at
//! any node … node 1 sees the file starting at itself and extending up to
//! node 4" (§7.2). Node `i` therefore satisfies its accesses by walking
//! forward from itself, taking each node's fragment until it has
//! accumulated one full copy; the last node visited contributes only the
//! residual.

use crate::error::RingError;
use crate::layout::VirtualRing;

/// The coverage matrix `f[i][j]`: the fraction of the file node `i` fetches
/// from node `j`. Each row sums to exactly 1.
///
/// # Errors
///
/// Returns [`RingError::Model`] if the allocation is infeasible or does not
/// contain a full copy.
pub fn coverage_fractions(ring: &VirtualRing, x: &[f64]) -> Result<Vec<Vec<f64>>, RingError> {
    ring.check_allocation(x)?;
    coverage_with_shortfall(ring, x, FEASIBLE_SHORTFALL)
}

/// Coverage shortfall tolerated for a feasible allocation.
pub(crate) const FEASIBLE_SHORTFALL: f64 = 1e-9;
/// Coverage shortfall tolerated at a finite-difference probe point.
pub(crate) const PROBE_SHORTFALL: f64 = 1e-4;

/// Like [`coverage_fractions`] but without the `Σ x_i = copies` feasibility
/// check — used by the finite-difference gradient, whose probe points
/// perturb the copy total by the probe step (so at `m = 1` a downward probe
/// legitimately leaves the system a probe-step short of a full copy; a
/// shortfall up to `10⁻⁴` is tolerated here). Non-negativity and length are
/// still enforced.
///
/// # Errors
///
/// Returns [`RingError::Model`] for wrong length, negative entries, or an
/// allocation materially short of a full copy.
pub fn coverage_fractions_relaxed(
    ring: &VirtualRing,
    x: &[f64],
) -> Result<Vec<Vec<f64>>, RingError> {
    coverage_with_shortfall(ring, x, PROBE_SHORTFALL)
}

/// Shared walker with a configurable coverage-shortfall tolerance.
fn coverage_with_shortfall(
    ring: &VirtualRing,
    x: &[f64],
    shortfall_tol: f64,
) -> Result<Vec<Vec<f64>>, RingError> {
    check_entries(ring, x)?;
    let n = ring.node_count();
    let mut f = vec![vec![0.0; n]; n];
    for (i, fi) in f.iter_mut().enumerate() {
        cover_row(x, i, shortfall_tol, fi)?;
    }
    Ok(f)
}

/// Checks that `x` has one finite, non-negative entry per node.
pub(crate) fn check_entries(ring: &VirtualRing, x: &[f64]) -> Result<(), RingError> {
    let n = ring.node_count();
    if x.len() != n {
        return Err(RingError::Model(format!("allocation has {} entries for {n} nodes", x.len())));
    }
    if x.iter().any(|v| !v.is_finite() || *v < -1e-9) {
        return Err(RingError::Model("allocation entries must be non-negative".into()));
    }
    Ok(())
}

/// Walks forward from node `i`, writing the fraction `f_ij` it takes from
/// each node `j` it visits into `row[j]`, until it holds one full copy;
/// returns how many nodes it visited (`i`, `i + 1`, … mod n). Entries of
/// `row` outside the visited stretch are left as they were.
pub(crate) fn cover_row(
    x: &[f64],
    i: usize,
    shortfall_tol: f64,
    row: &mut [f64],
) -> Result<usize, RingError> {
    let n = x.len();
    let mut remaining = 1.0f64;
    let mut visited = n;
    for step in 0..n {
        let j = (i + step) % n;
        let take = x[j].max(0.0).min(remaining);
        row[j] = take;
        remaining -= take;
        if remaining <= 1e-12 {
            remaining = 0.0;
            visited = step + 1;
            break;
        }
    }
    if remaining > shortfall_tol {
        return Err(RingError::Model(format!(
            "allocation leaves node {i} short of a full copy by {remaining}"
        )));
    }
    Ok(visited)
}

/// The arrival rate `Λ_j = Σ_i λ_i f_ij` directed at each node.
///
/// # Errors
///
/// Same conditions as [`coverage_fractions`].
pub fn arrival_rates(ring: &VirtualRing, x: &[f64]) -> Result<Vec<f64>, RingError> {
    let f = coverage_fractions(ring, x)?;
    let n = ring.node_count();
    let lambdas = ring.lambdas();
    let mut rates = vec![0.0; n];
    for (i, row) in f.iter().enumerate() {
        for (j, fij) in row.iter().enumerate() {
            rates[j] += lambdas[i] * fij;
        }
    }
    Ok(rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The paper's §7.2 worked example (nodes renumbered 1…7 → 0…6): link
    /// costs chosen so the forward distances to node 4 (index 3) are
    /// 2, 5, 7 and 11 from nodes 3, 2, 1 and 7 respectively, and the
    /// allocation reconstructed from the example's cost terms.
    fn paper_ring() -> (VirtualRing, Vec<f64>) {
        let link_costs = vec![2.0, 3.0, 2.0, 1.0, 1.0, 1.0, 4.0];
        let lambdas = vec![1.0; 7];
        let mus = vec![4.0; 7];
        let ring = VirtualRing::new(link_costs, lambdas, mus, 2.0, 1.0).unwrap();
        // x_1..x_7 = (0.4, 0.1, 0.2, 0.8, 0.2, 0.1, 0.2): sums to 2 copies.
        let x = vec![0.4, 0.1, 0.2, 0.8, 0.2, 0.1, 0.2];
        (ring, x)
    }

    #[test]
    fn paper_example_coverage_of_node_4() {
        let (ring, x) = paper_ring();
        let f = coverage_fractions(&ring, &x).unwrap();
        // Fractions fetched from node 4 (index 3), per the paper's terms
        // 11·0.1 + 7·0.3 + 5·0.7 + 2·0.8 + 0·0.8:
        assert!((f[6][3] - 0.1).abs() < 1e-12, "node 7 fetches 0.1");
        assert!((f[0][3] - 0.3).abs() < 1e-12, "node 1 fetches 0.3");
        assert!((f[1][3] - 0.7).abs() < 1e-12, "node 2 fetches 0.7");
        assert!((f[2][3] - 0.8).abs() < 1e-12, "node 3 fetches 0.8");
        assert!((f[3][3] - 0.8).abs() < 1e-12, "node 4 serves itself 0.8");
        // And the forward distances match the paper's link-cost multipliers.
        assert_eq!(ring.forward_cost(6, 3), 11.0);
        assert_eq!(ring.forward_cost(0, 3), 7.0);
        assert_eq!(ring.forward_cost(1, 3), 5.0);
        assert_eq!(ring.forward_cost(2, 3), 2.0);
    }

    #[test]
    fn paper_example_arrival_rate_at_node_4() {
        let (ring, x) = paper_ring();
        let rates = arrival_rates(&ring, &x).unwrap();
        // §7.2: "the arrival rate λ = 0.1 + 0.3 + 0.7 + 0.8 + 0.8 = 2.7".
        assert!((rates[3] - 2.7).abs() < 1e-12, "Λ_4 = {}", rates[3]);
    }

    #[test]
    fn rows_sum_to_one_and_respect_holdings() {
        let (ring, x) = paper_ring();
        let f = coverage_fractions(&ring, &x).unwrap();
        for (i, row) in f.iter().enumerate() {
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "row {i} sums to {total}");
            for (j, fij) in row.iter().enumerate() {
                assert!(*fij <= x[j] + 1e-12, "f[{i}][{j}] exceeds holding");
                assert!(*fij >= 0.0);
            }
        }
    }

    #[test]
    fn node_with_full_copy_serves_itself_entirely() {
        let ring =
            VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![2.0; 4], 2.0, 1.0).unwrap();
        let x = vec![1.2, 0.3, 0.3, 0.2];
        let f = coverage_fractions(&ring, &x).unwrap();
        assert!((f[0][0] - 1.0).abs() < 1e-12, "node 0 holds ≥ a full copy");
        assert_eq!(f[0][1], 0.0);
    }

    #[test]
    fn total_arrivals_equal_total_access_rate() {
        let (ring, x) = paper_ring();
        let rates = arrival_rates(&ring, &x).unwrap();
        let lambda: f64 = ring.lambdas().iter().sum();
        assert!((rates.iter().sum::<f64>() - lambda).abs() < 1e-9);
    }

    #[test]
    fn infeasible_allocations_are_rejected() {
        let ring =
            VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![2.0; 4], 2.0, 1.0).unwrap();
        assert!(coverage_fractions(&ring, &[0.25; 4]).is_err()); // wrong total
        assert!(coverage_fractions(&ring, &[2.5, -0.5, 0.0, 0.0]).is_err());
    }

    proptest! {
        /// Coverage rows always sum to one and arrivals conserve the total
        /// access rate on random feasible allocations.
        #[test]
        fn coverage_conservation(
            raw in proptest::collection::vec(0.0f64..1.0, 4..10),
            copies in 1.0f64..3.0,
        ) {
            let n = raw.len();
            let sum: f64 = raw.iter().sum();
            prop_assume!(sum > 1e-6);
            let x: Vec<f64> = raw.iter().map(|v| v * copies / sum).collect();
            let ring = VirtualRing::new(
                vec![1.0; n],
                vec![0.5; n],
                vec![10.0; n],
                copies,
                1.0,
            ).unwrap();
            let f = coverage_fractions(&ring, &x).unwrap();
            for row in &f {
                prop_assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
            let rates = arrival_rates(&ring, &x).unwrap();
            prop_assert!((rates.iter().sum::<f64>() - 0.5 * n as f64).abs() < 1e-9);
        }
    }
}
