//! The allocation-problem abstraction.

use crate::error::EconError;

/// A resource-allocation problem over `N` agents sharing a fixed amount of a
/// divisible resource.
///
/// The feasible set is the scaled simplex `Σ x_i = total_resource()`,
/// `x_i ≥ 0`. Implementations supply the system-wide utility `U(x)` to be
/// *maximized* and its per-agent marginal utilities `∂U/∂x_i` — exactly the
/// quantities the paper's decentralized agents compute and exchange. For the
/// file-allocation problem, `U = −C` with `C` the cost of equation 1 and
/// `total_resource = 1` (or `m` for `m` copies, §7.2).
///
/// Curvatures (`∂²U/∂x_i²`) default to a central finite difference of the
/// marginals; problems with closed forms should override
/// [`AllocationProblem::curvatures`] (the file-allocation problem does).
///
/// The optimizers read a problem through two fused entry points,
/// [`AllocationProblem::evaluate`] and [`AllocationProblem::utility_along`].
/// Their defaults are built from the three methods above; a problem whose
/// passes redo the same per-agent work (the file-allocation problem's
/// M/M/1 divisions) overrides them with single sweeps.
pub trait AllocationProblem {
    /// Number of agents `N`.
    fn dimension(&self) -> usize;

    /// Total amount of resource to distribute (the right-hand side of
    /// `Σ x_i = total`).
    fn total_resource(&self) -> f64 {
        1.0
    }

    /// The system-wide utility `U(x)` to maximize.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::DimensionMismatch`] for a wrong-length vector or
    /// [`EconError::Model`] when the utility is undefined at `x`.
    fn utility(&self, x: &[f64]) -> Result<f64, EconError>;

    /// Writes the marginal utilities `∂U/∂x_i` evaluated at `x` into `out`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationProblem::utility`].
    fn marginal_utilities(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError>;

    /// Writes the pure second derivatives `∂²U/∂x_i²` at `x` into `out`.
    ///
    /// The default implementation uses a central finite difference of the
    /// marginal utilities with step `1e-6`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationProblem::utility`].
    fn curvatures(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError> {
        let n = self.dimension();
        check_dimension(n, x)?;
        check_dimension(n, out)?;
        let h = 1e-6;
        let mut xp = x.to_vec();
        let mut gp = vec![0.0; n];
        let mut gm = vec![0.0; n];
        for i in 0..n {
            let orig = xp[i];
            xp[i] = orig + h;
            self.marginal_utilities(&xp, &mut gp)?;
            xp[i] = orig - h;
            self.marginal_utilities(&xp, &mut gm)?;
            xp[i] = orig;
            out[i] = (gp[i] - gm[i]) / (2.0 * h);
        }
        Ok(())
    }

    /// Returns `U(x)` and writes `∂U/∂x_i` into `g` and, when `h` is given,
    /// `∂²U/∂x_i²` into it: everything one iterate of the resource-directed
    /// engine reads.
    ///
    /// The default makes the three separate calls in the order `utility`,
    /// `marginal_utilities`, `curvatures`. Problems whose three passes share
    /// per-agent work should override it with one sweep that returns the
    /// same bits and the same error.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationProblem::utility`].
    fn evaluate(&self, x: &[f64], g: &mut [f64], h: Option<&mut [f64]>) -> Result<f64, EconError> {
        let utility = self.utility(x)?;
        self.marginal_utilities(x, g)?;
        if let Some(h) = h {
            self.curvatures(x, h)?;
        }
        Ok(utility)
    }

    /// Writes the candidate `x + scale·d` into `cand` and returns its
    /// utility: one trial of the engine's backtracking line search.
    ///
    /// The default fills `cand` and then calls [`AllocationProblem::utility`].
    /// An override may fold the fill into its utility sweep; it must return
    /// the same bits and the same error, and `cand` holds the whole candidate
    /// whenever the call succeeds.
    ///
    /// # Errors
    ///
    /// [`EconError::DimensionMismatch`] when `d` or `cand` differs in length
    /// from `x`, otherwise the conditions of [`AllocationProblem::utility`]
    /// at the candidate.
    fn utility_along(
        &self,
        x: &[f64],
        d: &[f64],
        scale: f64,
        cand: &mut [f64],
    ) -> Result<f64, EconError> {
        check_dimension(x.len(), d)?;
        check_dimension(x.len(), cand)?;
        for ((c, xi), di) in cand.iter_mut().zip(x).zip(d) {
            *c = xi + di * scale;
        }
        self.utility(cand)
    }

    /// The cost `−U(x)`, for problems naturally phrased as minimization
    /// (the paper plots cost, equation 1).
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationProblem::utility`].
    fn cost(&self, x: &[f64]) -> Result<f64, EconError> {
        Ok(-self.utility(x)?)
    }

    /// Validates that `x` lies on the problem's simplex: correct dimension,
    /// finite entries, `Σ x_i = total` within `tolerance`, and (when
    /// `require_nonnegative`) `x_i ≥ −tolerance`.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::DimensionMismatch`] or [`EconError::Infeasible`].
    fn check_feasible(
        &self,
        x: &[f64],
        tolerance: f64,
        require_nonnegative: bool,
    ) -> Result<(), EconError> {
        check_dimension(self.dimension(), x)?;
        let mut sum = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            if !xi.is_finite() {
                return Err(EconError::Infeasible(format!("non-finite allocation at agent {i}")));
            }
            if require_nonnegative && xi < -tolerance {
                return Err(EconError::Infeasible(format!("negative allocation {xi} at agent {i}")));
            }
            sum += xi;
        }
        if (sum - self.total_resource()).abs() > tolerance {
            return Err(EconError::Infeasible(format!(
                "allocation sums to {sum}, expected {}",
                self.total_resource()
            )));
        }
        Ok(())
    }
}

/// Entry-feasibility tolerance for an `n`-dimensional simplex: a sum of
/// `n` rounded terms accumulates `O(√n · ε)` of error under random
/// rounding, so a fixed `1e-9` that is generous at `n = 64` starts
/// rejecting honestly-constructed warm starts (e.g. `μ_i / Σμ`) once `n`
/// reaches the hundreds of thousands. Scaling by `√n` keeps the guard
/// tight on small problems and tolerant of nothing but float noise on
/// million-node ones.
pub fn feasibility_tolerance(n: usize) -> f64 {
    1e-9 * (n as f64).sqrt().max(1.0)
}

/// Checks that a slice has the problem's dimension.
///
/// # Errors
///
/// Returns [`EconError::DimensionMismatch`] on length mismatch.
pub fn check_dimension(expected: usize, x: &[f64]) -> Result<(), EconError> {
    if x.len() != expected {
        Err(EconError::DimensionMismatch { expected, got: x.len() })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::SeparableQuadratic;

    #[test]
    fn default_curvature_matches_closed_form() {
        // U = −Σ a_i (x_i − t_i)² has ∂²U/∂x_i² = −2 a_i.
        let p = SeparableQuadratic::new(vec![1.0, 2.0, 3.0], vec![0.2, 0.3, 0.5], 1.0).unwrap();
        let x = [0.3, 0.3, 0.4];
        let mut closed = vec![0.0; 3];
        p.curvatures(&x, &mut closed).unwrap();

        // Re-derive through the trait's default implementation.
        struct NoCurv(SeparableQuadratic);
        impl AllocationProblem for NoCurv {
            fn dimension(&self) -> usize {
                self.0.dimension()
            }
            fn utility(&self, x: &[f64]) -> Result<f64, EconError> {
                self.0.utility(x)
            }
            fn marginal_utilities(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError> {
                self.0.marginal_utilities(x, out)
            }
        }
        let q = NoCurv(p);
        let mut numeric = vec![0.0; 3];
        q.curvatures(&x, &mut numeric).unwrap();
        for (c, n) in closed.iter().zip(&numeric) {
            assert!((c - n).abs() < 1e-4, "closed {c} vs numeric {n}");
        }
    }

    #[test]
    fn check_feasible_catches_violations() {
        let p = SeparableQuadratic::new(vec![1.0, 1.0], vec![0.5, 0.5], 1.0).unwrap();
        assert!(p.check_feasible(&[0.5, 0.5], 1e-9, true).is_ok());
        assert!(matches!(
            p.check_feasible(&[0.5], 1e-9, true),
            Err(EconError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            p.check_feasible(&[0.7, 0.7], 1e-9, true),
            Err(EconError::Infeasible(_))
        ));
        assert!(matches!(
            p.check_feasible(&[1.5, -0.5], 1e-9, true),
            Err(EconError::Infeasible(_))
        ));
        // Negative entries allowed when not required non-negative.
        assert!(p.check_feasible(&[1.5, -0.5], 1e-9, false).is_ok());
        assert!(matches!(
            p.check_feasible(&[f64::NAN, 1.0], 1e-9, false),
            Err(EconError::Infeasible(_))
        ));
    }

    #[test]
    fn feasibility_tolerance_scales_with_dimension() {
        // Tight (the classic 1e-9) at small n, √n-scaled beyond: a
        // million-node warm start built as μ_i/Σμ carries ~1e-9 of
        // accumulated rounding and must pass the entry check.
        assert_eq!(feasibility_tolerance(1), 1e-9);
        assert_eq!(feasibility_tolerance(0), 1e-9);
        assert!(feasibility_tolerance(1_048_576) >= 1e-6);
        let p = SeparableQuadratic::new(vec![1.0, 1.0], vec![0.5, 0.5], 1.0).unwrap();
        let nearly = 0.999_999_999; // off by 1e-9 — accepted at any n ≥ 1
        assert!(p.check_feasible(&[nearly / 2.0, nearly / 2.0], feasibility_tolerance(2), true).is_ok());
    }

    #[test]
    fn cost_is_negated_utility() {
        let p = SeparableQuadratic::new(vec![1.0, 1.0], vec![0.0, 0.0], 1.0).unwrap();
        let x = [0.4, 0.6];
        assert_eq!(p.cost(&x).unwrap(), -p.utility(&x).unwrap());
    }
}
