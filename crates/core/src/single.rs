//! The single-file fractional allocation model (paper §4).
//!
//! One copy of one divisible file is spread over `N` nodes; `x_i` is the
//! fraction stored at node `i` and, under uniform record access, also the
//! probability that an access is served by node `i`. The system-wide cost
//! of an allocation combines communication and queueing delay:
//!
//! ```text
//! C(x) = Σ_i ( C_i + k · T_i(λ x_i) ) · x_i          (equation 1)
//! ```
//!
//! with `C_i = Σ_j (λ_j/λ) c_ji` the workload-weighted cost of reaching
//! node `i` and `T_i` the node's mean response time at arrival rate
//! `λ x_i` — `1/(μ − λ x_i)` for the paper's M/M/1 nodes, or any other
//! [`DelayModel`] per §5.4. The utility maximized by the decentralized
//! algorithm is `U = −C` (equation 2).

use serde::{Deserialize, Serialize};

use fap_econ::problem::check_dimension;
use fap_econ::{AllocationProblem, EconError};
use fap_net::{AccessPattern, CostMatrix, CostProvider, Graph};
use fap_queue::{DelayModel, Mg1Delay, Mm1Delay};

use crate::error::CoreError;

/// The paper's single-file allocation problem, generic over the per-node
/// delay model (`Mm1Delay` reproduces equation 1 exactly).
///
/// Implements [`AllocationProblem`] with closed-form gradients and
/// curvatures:
///
/// ```text
/// ∂C/∂x_i  = C_i + k·T_i(λx_i) + k·λ·x_i·T_i′(λx_i)
/// ∂²C/∂x_i² = 2kλ·T_i′(λx_i) + kλ²·x_i·T_i″(λx_i)
/// ```
///
/// which for M/M/1 reduce to the paper's `C_i + kμ/(μ−λx_i)²` and
/// `2kμλ/(μ−λx_i)³`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SingleFileProblem<D = Mm1Delay> {
    access_costs: Vec<f64>,
    total_rate: f64,
    delays: Vec<D>,
    k: f64,
}

impl SingleFileProblem<Mm1Delay> {
    /// Builds the paper's model on `graph`: cheapest-path routing, M/M/1
    /// nodes with common service rate `mu`, delay weight `k`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] if the graph is disconnected,
    /// [`CoreError::InvalidParameter`] for invalid `mu`/`k`, and
    /// [`CoreError::InsufficientCapacity`] when `Σ μ_i ≤ λ`.
    pub fn mm1(
        graph: &Graph,
        pattern: &AccessPattern,
        mu: f64,
        k: f64,
    ) -> Result<Self, CoreError> {
        let costs = graph.shortest_path_matrix()?;
        Self::mm1_with_costs(&costs, pattern, mu, k)
    }

    /// Builds the paper's model from a pre-computed cost matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SingleFileProblem::mm1`].
    pub fn mm1_with_costs(
        costs: &CostMatrix,
        pattern: &AccessPattern,
        mu: f64,
        k: f64,
    ) -> Result<Self, CoreError> {
        Self::mm1_with_provider(costs, pattern, mu, k)
    }

    /// Builds the paper's model from any [`CostProvider`] — the dense
    /// matrix, the landmark oracle, or anything else implementing the
    /// sparse cost substrate. For a dense [`CostMatrix`] this is
    /// bit-identical to [`SingleFileProblem::mm1_with_costs`]; for a sparse
    /// provider the access costs `C_i` are the provider's estimates.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SingleFileProblem::mm1`].
    pub fn mm1_with_provider(
        provider: &(impl CostProvider + ?Sized),
        pattern: &AccessPattern,
        mu: f64,
        k: f64,
    ) -> Result<Self, CoreError> {
        let n = provider.node_count();
        let delay = Mm1Delay::new(mu)?;
        Self::from_parts(
            provider.systemwide_access_costs(pattern),
            pattern.total_rate(),
            vec![delay; n],
            k,
        )
    }

    /// Builds the model with heterogeneous M/M/1 service rates `mus`
    /// (the §5.4 relaxation "replacing the μ in equation 2 by the
    /// individual μ_i's").
    ///
    /// # Errors
    ///
    /// Same conditions as [`SingleFileProblem::mm1`], plus a length check on
    /// `mus`.
    pub fn mm1_heterogeneous(
        graph: &Graph,
        pattern: &AccessPattern,
        mus: &[f64],
        k: f64,
    ) -> Result<Self, CoreError> {
        let costs = graph.shortest_path_matrix()?;
        Self::mm1_heterogeneous_with_provider(&costs, pattern, mus, k)
    }

    /// [`SingleFileProblem::mm1_heterogeneous`] over any pre-computed
    /// [`CostProvider`], so callers holding a [`CostMatrix`] — e.g. one
    /// served out of a topology-keyed cache — skip the all-pairs
    /// shortest-path run entirely. Bit-identical to the graph-based
    /// constructor for the matrix that graph produces.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SingleFileProblem::mm1_heterogeneous`], minus
    /// the connectivity check (a valid provider is always complete).
    pub fn mm1_heterogeneous_with_provider(
        provider: &(impl CostProvider + ?Sized),
        pattern: &AccessPattern,
        mus: &[f64],
        k: f64,
    ) -> Result<Self, CoreError> {
        let delays = mus.iter().map(|&mu| Mm1Delay::new(mu)).collect::<Result<Vec<_>, _>>()?;
        Self::from_parts(
            provider.systemwide_access_costs(pattern),
            pattern.total_rate(),
            delays,
            k,
        )
    }
}

impl SingleFileProblem<Mg1Delay> {
    /// Builds the §5.4 M/G/1 variant: common service rate `mu` and
    /// service-time squared coefficient of variation `scv` at every node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SingleFileProblem::mm1`].
    pub fn mg1(
        graph: &Graph,
        pattern: &AccessPattern,
        mu: f64,
        scv: f64,
        k: f64,
    ) -> Result<Self, CoreError> {
        let costs = graph.shortest_path_matrix()?;
        let delay = Mg1Delay::new(mu, scv)?;
        Self::from_parts(
            costs.systemwide_access_costs(pattern),
            pattern.total_rate(),
            vec![delay; costs.node_count()],
            k,
        )
    }
}

impl<D: DelayModel> SingleFileProblem<D> {
    /// Builds the model from raw parts: per-node system-wide access costs
    /// `C_i`, total access rate `λ`, per-node delay models, and the delay
    /// weight `k`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for empty/mismatched inputs,
    /// negative costs, non-positive `λ` or negative `k`, and
    /// [`CoreError::InsufficientCapacity`] when the combined service
    /// capacity cannot carry `λ`.
    pub fn from_parts(
        access_costs: Vec<f64>,
        total_rate: f64,
        delays: Vec<D>,
        k: f64,
    ) -> Result<Self, CoreError> {
        if access_costs.is_empty() || access_costs.len() != delays.len() {
            return Err(CoreError::InvalidParameter(format!(
                "{} access costs for {} delay models",
                access_costs.len(),
                delays.len()
            )));
        }
        if access_costs.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(CoreError::InvalidParameter("access costs must be non-negative".into()));
        }
        if !total_rate.is_finite() || total_rate <= 0.0 {
            return Err(CoreError::InvalidParameter(format!("total rate {total_rate}")));
        }
        if !k.is_finite() || k < 0.0 {
            return Err(CoreError::InvalidParameter(format!("delay weight k = {k}")));
        }
        let total_capacity: f64 = delays.iter().map(DelayModel::capacity).sum();
        if total_capacity <= total_rate {
            return Err(CoreError::InsufficientCapacity {
                total_capacity,
                offered_load: total_rate,
            });
        }
        Ok(SingleFileProblem { access_costs, total_rate, delays, k })
    }

    /// Adds per-unit-of-file storage costs `s_i` (Casey's formulation,
    /// paper §3 survey: "the file allocation problem with storage costs").
    ///
    /// Storage enters the objective as `Σ_i s_i x_i`, which has exactly the
    /// same form as the communication term, so it folds into the per-node
    /// constants: holding file at a storage-expensive node now carries a
    /// standing cost alongside the access costs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a wrong-length slice or
    /// negative/non-finite entries.
    pub fn with_storage_costs(mut self, storage_costs: &[f64]) -> Result<Self, CoreError> {
        if storage_costs.len() != self.access_costs.len() {
            return Err(CoreError::InvalidParameter(format!(
                "{} storage costs for {} nodes",
                storage_costs.len(),
                self.access_costs.len()
            )));
        }
        if storage_costs.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(CoreError::InvalidParameter(
                "storage costs must be non-negative".into(),
            ));
        }
        for (c, s) in self.access_costs.iter_mut().zip(storage_costs) {
            *c += s;
        }
        Ok(self)
    }

    /// The system-wide access costs `C_i` (including any folded-in storage
    /// costs).
    pub fn access_costs(&self) -> &[f64] {
        &self.access_costs
    }

    /// The network-wide access rate `λ`.
    pub fn total_rate(&self) -> f64 {
        self.total_rate
    }

    /// The delay weight `k` of equation 1.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The per-node delay models.
    pub fn delays(&self) -> &[D] {
        &self.delays
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.access_costs.len()
    }

    /// The arrival rate `λ x_i` directed at node `i` under allocation `x`,
    /// with a stability check.
    fn arrival(&self, i: usize, xi: f64) -> Result<f64, EconError> {
        let a = self.total_rate * xi;
        if !a.is_finite() || a >= self.delays[i].capacity() {
            return Err(EconError::Model(format!(
                "allocation {xi} at node {i} offers load {a} at or above capacity {}",
                self.delays[i].capacity()
            )));
        }
        Ok(a)
    }

    /// The cost `C(x)` of equation 1.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::Model`] when some node is driven at or beyond
    /// its service capacity.
    pub fn cost_of(&self, x: &[f64]) -> Result<f64, EconError> {
        Ok(-self.utility(x)?)
    }
}

impl<D: DelayModel> AllocationProblem for SingleFileProblem<D> {
    fn dimension(&self) -> usize {
        self.access_costs.len()
    }

    fn total_resource(&self) -> f64 {
        1.0
    }

    fn utility(&self, x: &[f64]) -> Result<f64, EconError> {
        check_dimension(self.dimension(), x)?;
        let mut cost = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            let a = self.arrival(i, xi)?;
            // The unchecked form stays valid for transiently negative x
            // (arrival < 0) that the unconstrained update may visit.
            let t = self.delays[i].response_time_unchecked(a);
            cost += (self.access_costs[i] + self.k * t) * xi;
        }
        Ok(-cost)
    }

    fn marginal_utilities(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError> {
        check_dimension(self.dimension(), x)?;
        check_dimension(self.dimension(), out)?;
        for (i, &xi) in x.iter().enumerate() {
            let a = self.arrival(i, xi)?;
            let t = self.delays[i].response_time_unchecked(a);
            let dt = self.delays[i].d_response_time_unchecked(a);
            // ∂C/∂x_i = C_i + k·T + k·λ·x·T′
            let dc = self.access_costs[i] + self.k * t + self.k * self.total_rate * xi * dt;
            out[i] = -dc;
        }
        Ok(())
    }

    fn curvatures(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError> {
        check_dimension(self.dimension(), x)?;
        check_dimension(self.dimension(), out)?;
        let l = self.total_rate;
        for (i, &xi) in x.iter().enumerate() {
            let a = self.arrival(i, xi)?;
            let dt = self.delays[i].d_response_time_unchecked(a);
            let d2t = self.delays[i].d2_response_time_unchecked(a);
            // ∂²C/∂x_i² = 2kλT′ + kλ²xT″
            let d2c = 2.0 * self.k * l * dt + self.k * l * l * xi * d2t;
            out[i] = -d2c;
        }
        Ok(())
    }

    /// One sweep: each node's arrival and its `T`, `T′` (and `T″`) are
    /// computed once, with the expressions and summation order of
    /// `utility`, `marginal_utilities` and `curvatures`, so the results
    /// are the same bits. On an error `g` and `h` are unspecified.
    fn evaluate(&self, x: &[f64], g: &mut [f64], h: Option<&mut [f64]>) -> Result<f64, EconError> {
        let n = self.dimension();
        check_dimension(n, x)?;
        let got = if g.len() != n { g.len() } else { h.as_deref().map_or(n, <[f64]>::len) };
        if got != n {
            // A wrong-length output fails after the utility pass, as it
            // does through the separate calls.
            self.utility(x)?;
            return Err(EconError::DimensionMismatch { expected: n, got });
        }
        match h {
            Some(h) => self.evaluate_blocks::<true>(x, g, h),
            None => self.evaluate_blocks::<false>(x, g, &mut []),
        }
    }

    /// The candidate fill and the utility sum in one sweep. On an error
    /// `cand` is unspecified.
    fn utility_along(
        &self,
        x: &[f64],
        d: &[f64],
        scale: f64,
        cand: &mut [f64],
    ) -> Result<f64, EconError> {
        check_dimension(x.len(), d)?;
        check_dimension(x.len(), cand)?;
        check_dimension(self.dimension(), cand)?;
        let (l, k) = (self.total_rate, self.k);
        let mut cost = 0.0;
        let mut terms = [0.0; BLOCK];
        for start in (0..x.len()).step_by(BLOCK) {
            let end = (start + BLOCK).min(x.len());
            let (xs, ds, cs) = (&x[start..end], &d[start..end], &mut cand[start..end]);
            let (costs, delays) = (&self.access_costs[start..end], &self.delays[start..end]);
            let terms = &mut terms[..xs.len()];
            let mut stable = true;
            for j in 0..xs.len() {
                let ci = xs[j] + ds[j] * scale;
                cs[j] = ci;
                let a = l * ci;
                stable &= a.is_finite() & (a < delays[j].capacity());
                terms[j] = (costs[j] + k * delays[j].response_time_unchecked(a)) * ci;
            }
            if !stable {
                self.check_arrivals(start, cs)?;
            }
            for &term in terms.iter() {
                cost += term;
            }
        }
        Ok(-cost)
    }
}

/// Nodes per block of the fused sweeps. A block's per-node terms are
/// computed without branches into a stack buffer, so the divisions can
/// run in vector lanes, and then added to the running sum in index order.
/// A block flagged unstable is walked again through
/// [`SingleFileProblem::arrival`], whose first error is the answer; the
/// flag only has to be raised for every node `arrival` refuses.
const BLOCK: usize = 64;

impl<D: DelayModel> SingleFileProblem<D> {
    /// The blocks of [`AllocationProblem::evaluate`], with `h` written only
    /// when `CURVATURE` (it is empty otherwise).
    fn evaluate_blocks<const CURVATURE: bool>(
        &self,
        x: &[f64],
        g: &mut [f64],
        h: &mut [f64],
    ) -> Result<f64, EconError> {
        let (l, k) = (self.total_rate, self.k);
        let mut cost = 0.0;
        let mut terms = [0.0; BLOCK];
        for start in (0..x.len()).step_by(BLOCK) {
            let end = (start + BLOCK).min(x.len());
            let (xs, gs) = (&x[start..end], &mut g[start..end]);
            let hs = if CURVATURE { &mut h[start..end] } else { &mut [] };
            let (costs, delays) = (&self.access_costs[start..end], &self.delays[start..end]);
            let terms = &mut terms[..xs.len()];
            let mut stable = true;
            for j in 0..xs.len() {
                let xi = xs[j];
                let a = l * xi;
                stable &= a.is_finite() & (a < delays[j].capacity());
                let t = delays[j].response_time_unchecked(a);
                let dt = delays[j].d_response_time_unchecked(a);
                terms[j] = (costs[j] + k * t) * xi;
                let dc = costs[j] + k * t + k * l * xi * dt;
                gs[j] = -dc;
                if CURVATURE {
                    let d2t = delays[j].d2_response_time_unchecked(a);
                    let d2c = 2.0 * k * l * dt + k * l * l * xi * d2t;
                    hs[j] = -d2c;
                }
            }
            if !stable {
                self.check_arrivals(start, xs)?;
            }
            for &term in terms.iter() {
                cost += term;
            }
        }
        Ok(-cost)
    }

    /// [`SingleFileProblem::arrival`]'s check on the nodes from `offset`
    /// on: the error of the first unstable one.
    fn check_arrivals(&self, offset: usize, xs: &[f64]) -> Result<(), EconError> {
        for (j, &xi) in xs.iter().enumerate() {
            self.arrival(offset + j, xi)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_econ::{ResourceDirectedOptimizer, StepSize};
    use fap_net::topology;
    use proptest::prelude::*;
    use fap_obs::NoopRecorder;

    /// The paper's §6 network: 4-node ring, unit link costs, uniform λ = 1,
    /// μ = 1.5, k = 1.
    fn paper_problem() -> SingleFileProblem {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap()
    }

    #[test]
    fn paper_access_costs_are_uniform_one() {
        let p = paper_problem();
        for c in p.access_costs() {
            assert!((c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cost_matches_hand_computation() {
        let p = paper_problem();
        // Whole file at one node: C = (1 + 1/(1.5−1))·1 = 3.
        assert!((p.cost_of(&[0.0, 0.0, 0.0, 1.0]).unwrap() - 3.0).abs() < 1e-12);
        // Even split: C = (1 + 1/1.25)·1 = 1.8.
        assert!((p.cost_of(&[0.25; 4]).unwrap() - 1.8).abs() < 1e-12);
        // Paper's starting allocation (0.8, 0.1, 0.1, 0.0).
        let c0 = p.cost_of(&[0.8, 0.1, 0.1, 0.0]).unwrap();
        let by_hand = (1.0 + 1.0 / 0.7) * 0.8 + 2.0 * (1.0 + 1.0 / 1.4) * 0.1;
        assert!((c0 - by_hand).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_paper_closed_form() {
        let p = paper_problem();
        let x = [0.8, 0.1, 0.1, 0.0];
        let mut g = vec![0.0; 4];
        p.marginal_utilities(&x, &mut g).unwrap();
        for (i, &xi) in x.iter().enumerate() {
            let d = 1.5 - xi; // μ − λx_i with λ = 1
            let expected = -(1.0 + 1.5 / (d * d)); // −(C_i + kμ/(μ−λx)²)
            assert!((g[i] - expected).abs() < 1e-12, "node {i}: {} vs {expected}", g[i]);
        }
    }

    #[test]
    fn curvature_matches_paper_closed_form() {
        let p = paper_problem();
        let x = [0.4, 0.3, 0.2, 0.1];
        let mut h = vec![0.0; 4];
        p.curvatures(&x, &mut h).unwrap();
        for (i, &xi) in x.iter().enumerate() {
            let d = 1.5 - xi;
            let expected = -(2.0 * 1.5 / (d * d * d)); // −2kμλ/(μ−λx)³
            assert!((h[i] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_matches_finite_differences_for_mg1() {
        let graph = topology::ring(5, 2.0).unwrap();
        let pattern = AccessPattern::zipf(5, 1.2, 1.0).unwrap();
        let p = SingleFileProblem::mg1(&graph, &pattern, 2.0, 2.5, 0.7).unwrap();
        let x = [0.3, 0.25, 0.2, 0.15, 0.1];
        let mut g = vec![0.0; 5];
        p.marginal_utilities(&x, &mut g).unwrap();
        let h = 1e-7;
        for i in 0..5 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (p.utility(&xp).unwrap() - p.utility(&xm).unwrap()) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-5, "node {i}: {} vs {fd}", g[i]);
        }
    }

    #[test]
    fn rejects_invalid_construction() {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        assert!(matches!(
            SingleFileProblem::mm1(&graph, &pattern, 1.5, -1.0),
            Err(CoreError::InvalidParameter(_))
        ));
        assert!(SingleFileProblem::mm1(&graph, &pattern, 0.0, 1.0).is_err());
        // Σμ = 0.2·4 = 0.8 < λ = 1: no allocation can be stable.
        assert!(matches!(
            SingleFileProblem::mm1(&graph, &pattern, 0.2, 1.0),
            Err(CoreError::InsufficientCapacity { .. })
        ));
        assert!(matches!(
            SingleFileProblem::from_parts(vec![1.0], 1.0, vec![Mm1Delay::new(2.0).unwrap(); 2], 1.0),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn evaluation_rejects_overloaded_node() {
        // μ = 1.2 per node, λ = 1: whole file at one node is stable, but
        // λ·x = 1.3 (possible transiently under the unconstrained rule with
        // x > 1) is not.
        let p = SingleFileProblem::from_parts(
            vec![0.0, 0.0],
            1.0,
            vec![Mm1Delay::new(1.2).unwrap(); 2],
            1.0,
        )
        .unwrap();
        assert!(p.utility(&[1.3, -0.3]).is_err());
        assert!(p.utility(&[0.9, 0.1]).is_ok());
    }

    #[test]
    fn utility_defined_for_transient_negative_allocations() {
        let p = paper_problem();
        // The Figure-3 first iterate at α = 0.67 (see fap-econ projection
        // docs): node 1 transiently negative.
        let x = [-0.3702, 0.4680, 0.4680, 0.4341];
        let u = p.utility(&x).unwrap();
        assert!(u.is_finite());
    }

    #[test]
    fn symmetric_ring_optimum_is_even_split() {
        let p = paper_problem();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.19))
            .with_epsilon(1e-6)
            .run(&p, &[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        for x in &s.allocation {
            assert!((x - 0.25).abs() < 1e-4, "{:?}", s.allocation);
        }
        assert!((s.final_cost() - 1.8).abs() < 1e-6);
        assert!(s.trace.is_cost_monotone_decreasing(1e-10));
    }

    #[test]
    fn storage_costs_push_file_off_expensive_nodes() {
        let graph = topology::full_mesh(3, 1.0).unwrap();
        let pattern = AccessPattern::uniform(3, 1.0).unwrap();
        let base = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
        let with_storage = base.clone().with_storage_costs(&[5.0, 0.0, 0.0]).unwrap();
        let r_base = crate::reference::solve(&base).unwrap();
        let r_storage = crate::reference::solve(&with_storage).unwrap();
        assert!(
            r_storage.allocation[0] < r_base.allocation[0],
            "{:?} vs {:?}",
            r_storage.allocation,
            r_base.allocation
        );
        // Free-storage nodes pick up the slack.
        assert!(r_storage.allocation[1] > r_base.allocation[1]);
    }

    #[test]
    fn storage_costs_validate() {
        let graph = topology::full_mesh(3, 1.0).unwrap();
        let pattern = AccessPattern::uniform(3, 1.0).unwrap();
        let p = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
        assert!(p.clone().with_storage_costs(&[1.0, 1.0]).is_err());
        assert!(p.clone().with_storage_costs(&[1.0, -1.0, 0.0]).is_err());
        assert!(p.with_storage_costs(&[f64::NAN, 0.0, 0.0]).is_err());
    }

    #[test]
    fn heterogeneous_rates_shift_file_to_fast_node() {
        let graph = topology::full_mesh(3, 1.0).unwrap();
        let pattern = AccessPattern::uniform(3, 1.0).unwrap();
        let p =
            SingleFileProblem::mm1_heterogeneous(&graph, &pattern, &[5.0, 1.2, 1.2], 1.0).unwrap();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_epsilon(1e-7)
            .run(&p, &[1.0 / 3.0; 3], &mut NoopRecorder)
            .unwrap();
        assert!(s.converged);
        assert!(
            s.allocation[0] > s.allocation[1] && s.allocation[0] > s.allocation[2],
            "{:?}",
            s.allocation
        );
    }

    #[test]
    fn zero_k_concentrates_file_at_cheapest_node() {
        // Pure communication cost: the optimal strategy is to put the whole
        // file at the node where C_i is minimal (paper §4).
        let graph = topology::star(4, 1.0).unwrap(); // hub node 0 is cheapest
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        let p = SingleFileProblem::mm1(&graph, &pattern, 2.0, 0.0).unwrap();
        let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
            .with_epsilon(1e-7)
            .with_max_iterations(100_000)
            .run(&p, &[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(s.allocation[0] > 0.99, "{:?}", s.allocation);
    }

    #[test]
    fn larger_k_spreads_the_file_more_evenly() {
        // Delay dominance pushes toward even fragmentation (paper §4's
        // "diametrically opposed" strategies).
        let graph = topology::star(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        let spread_for = |k: f64| {
            let p = SingleFileProblem::mm1(&graph, &pattern, 2.0, k).unwrap();
            let s = ResourceDirectedOptimizer::new(StepSize::Fixed(0.02))
                .with_epsilon(1e-8)
                .with_max_iterations(100_000)
                .run(&p, &[0.25; 4], &mut NoopRecorder)
                .unwrap();
            let max = s.allocation.iter().copied().fold(f64::MIN, f64::max);
            let min = s.allocation.iter().copied().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread_for(10.0) < spread_for(0.5));
    }

    proptest! {
        /// Analytic gradients agree with finite differences at random
        /// feasible interior points on random networks.
        #[test]
        fn gradients_match_finite_differences(
            seed in 0u64..50,
            n in 3usize..8,
            k in 0.1f64..3.0,
        ) {
            let graph = topology::random_connected(n, 0.5, 1.0..3.0, seed).unwrap();
            let pattern = AccessPattern::random(n, 0.1..0.5, seed).unwrap();
            let p = SingleFileProblem::mm1(&graph, &pattern, pattern.total_rate() * 1.7, k).unwrap();
            let x = vec![1.0 / n as f64; n];
            let mut g = vec![0.0; n];
            p.marginal_utilities(&x, &mut g).unwrap();
            let h = 1e-7;
            for i in 0..n {
                let mut xp = x.clone();
                xp[i] += h;
                let mut xm = x.clone();
                xm[i] -= h;
                let fd = (p.utility(&xp).unwrap() - p.utility(&xm).unwrap()) / (2.0 * h);
                prop_assert!((g[i] - fd).abs() < 1e-4);
            }
        }

        /// The fused sweeps return the separate passes' bits, or the same
        /// error for the same node: on M/M/1 and M/G/1 problems of one to
        /// three sweep blocks, at points with transiently negative entries
        /// and with overloaded nodes.
        #[test]
        fn fused_sweeps_match_the_separate_passes(seed in 0u64..4096, n in 1usize..200) {
            let (mm1, mg1, x, d, scale) = fused_case(seed, n);
            check_fused(&mm1, &x, &d, scale)?;
            check_fused(&mg1, &x, &d, scale)?;
        }
    }

    /// The trait's default `evaluate` and `utility_along`: the path every
    /// problem without fused sweeps takes.
    struct Separate<'a, P>(&'a P);

    impl<P: AllocationProblem> AllocationProblem for Separate<'_, P> {
        fn dimension(&self) -> usize {
            self.0.dimension()
        }
        fn utility(&self, x: &[f64]) -> Result<f64, EconError> {
            self.0.utility(x)
        }
        fn marginal_utilities(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError> {
            self.0.marginal_utilities(x, out)
        }
        fn curvatures(&self, x: &[f64], out: &mut [f64]) -> Result<(), EconError> {
            self.0.curvatures(x, out)
        }
    }

    /// A seeded problem pair (same costs and rates, M/M/1 and M/G/1), a
    /// point, a direction and a scale. Entries run from −0.3 to 1.3 of the
    /// load that saturates a node, so some seeds overload a node and some
    /// cross zero.
    fn fused_case(
        seed: u64,
        n: usize,
    ) -> (SingleFileProblem, SingleFileProblem<Mg1Delay>, Vec<f64>, Vec<f64>, f64) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let costs: Vec<f64> = (0..n).map(|_| 4.0 * unit()).collect();
        let lambda = 0.5 + 2.0 * unit();
        let mus: Vec<f64> = (0..n).map(|_| lambda * (0.2 + unit())).collect();
        let total_mu: f64 = mus.iter().sum();
        let lambda = lambda.min(0.9 * total_mu);
        let k = 2.0 * unit();
        let mm1 = SingleFileProblem::from_parts(
            costs.clone(),
            lambda,
            mus.iter().map(|&mu| Mm1Delay::new(mu).unwrap()).collect(),
            k,
        )
        .unwrap();
        let mg1 = SingleFileProblem::from_parts(
            costs,
            lambda,
            mus.iter().map(|&mu| Mg1Delay::new(mu, 3.0 * unit()).unwrap()).collect(),
            k,
        )
        .unwrap();
        // Most points stay stable; a quarter reach past capacity somewhere.
        let reach = if unit() < 0.25 { 1.3 } else { 0.95 };
        let x: Vec<f64> =
            mus.iter().map(|mu| mu / lambda * (reach * unit() - 0.3 * unit())).collect();
        let d: Vec<f64> = (0..n).map(|_| unit() - 0.5).collect();
        (mm1, mg1, x, d, 2.0 * unit())
    }

    fn check_fused<D: DelayModel>(
        p: &SingleFileProblem<D>,
        x: &[f64],
        d: &[f64],
        scale: f64,
    ) -> Result<(), TestCaseError> {
        let n = x.len();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let same = |a: Result<f64, EconError>, b: Result<f64, EconError>| match (a, b) {
            (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        for curvature in [false, true] {
            let (mut g, mut h) = (vec![0.0; n], vec![0.0; n]);
            let (mut g0, mut h0) = (vec![0.0; n], vec![0.0; n]);
            let fused = p.evaluate(x, &mut g, curvature.then_some(&mut h[..]));
            let separate = Separate(p).evaluate(x, &mut g0, curvature.then_some(&mut h0[..]));
            let ok = fused.is_ok();
            prop_assert!(same(fused, separate), "evaluate (curvature {curvature})");
            if ok {
                prop_assert_eq!(bits(&g), bits(&g0));
                prop_assert_eq!(bits(&h), bits(&h0));
            }
        }
        let (mut cand, mut cand0) = (vec![0.0; n], vec![0.0; n]);
        let fused = p.utility_along(x, d, scale, &mut cand);
        let separate = Separate(p).utility_along(x, d, scale, &mut cand0);
        let ok = fused.is_ok();
        prop_assert!(same(fused, separate), "utility_along");
        if ok {
            prop_assert_eq!(bits(&cand), bits(&cand0));
        }
        // Wrong-length outputs fail as the separate calls do.
        let mut short = vec![0.0; n + 1];
        let mut g = vec![0.0; n];
        prop_assert!(same(
            p.evaluate(x, &mut short, None),
            Separate(p).evaluate(x, &mut short.clone(), None)
        ));
        prop_assert!(same(
            p.evaluate(x, &mut g, Some(&mut short)),
            Separate(p).evaluate(x, &mut g.clone(), Some(&mut short.clone()))
        ));
        prop_assert!(same(
            p.utility_along(x, d, scale, &mut short),
            Separate(p).utility_along(x, d, scale, &mut short.clone())
        ));
        Ok(())
    }

    #[test]
    fn fused_and_default_paths_solve_bit_identically() {
        let graph = topology::random_connected(150, 0.05, 1.0..4.0, 3).unwrap();
        let pattern = AccessPattern::random(150, 0.05..0.3, 3).unwrap();
        let p = SingleFileProblem::mm1(&graph, &pattern, pattern.total_rate() / 30.0, 1.5).unwrap();
        let x0: Vec<f64> = (0..150).map(|i| ((i % 7) + 1) as f64).collect();
        let total: f64 = x0.iter().sum();
        let x0: Vec<f64> = x0.iter().map(|v| v / total).collect();
        for step in [StepSize::Fixed(0.002), StepSize::Dynamic { safety: 0.9, max: 1.0 }] {
            let solver = ResourceDirectedOptimizer::new(step).with_epsilon(1e-9);
            let fused = solver.run(&p, &x0, &mut NoopRecorder).unwrap();
            let separate = solver.run(&Separate(&p), &x0, &mut NoopRecorder).unwrap();
            assert!(fused.iterations > 10, "{} iterations", fused.iterations);
            assert_eq!(fused.final_utility.to_bits(), separate.final_utility.to_bits());
            assert_eq!(
                fused.allocation.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                separate.allocation.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(fused, separate);
        }
    }
}
