//! The per-agent (local) view of an allocation problem.
//!
//! The decentralization of the paper's algorithm rests on one structural
//! fact: for the file-allocation objective, `∂U/∂x_i` depends only on node
//! `i`'s own fragment `x_i` and static constants (`C_i`, `λ`, `μ_i`, `k`)
//! — no node needs to see another node's allocation to compute its
//! marginal. [`LocalObjective`] captures exactly that interface, so the
//! executor in this crate can only access state a real node would have.

use fap_core::SingleFileProblem;
use fap_queue::DelayModel;

use crate::error::RuntimeError;

/// An objective whose marginal utility at each agent is a function of that
/// agent's own allocation alone.
pub trait LocalObjective {
    /// Number of agents.
    fn agent_count(&self) -> usize;

    /// Agent `agent`'s marginal utility `∂U/∂x_i` at its own allocation
    /// `x_i` — computable with purely local information.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Objective`] when the local model is
    /// undefined at `x_i` (e.g. queueing instability).
    fn local_marginal(&self, agent: usize, x_i: f64) -> Result<f64, RuntimeError>;

    /// Agent `agent`'s contribution to the system-wide utility at `x_i`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LocalObjective::local_marginal`].
    fn local_utility(&self, agent: usize, x_i: f64) -> Result<f64, RuntimeError>;
}

impl<D: DelayModel> LocalObjective for SingleFileProblem<D> {
    fn agent_count(&self) -> usize {
        self.node_count()
    }

    fn local_marginal(&self, agent: usize, x_i: f64) -> Result<f64, RuntimeError> {
        let a = self.total_rate() * x_i;
        let delay = &self.delays()[agent];
        if !a.is_finite() || a >= delay.capacity() {
            return Err(RuntimeError::Objective {
                agent,
                reason: format!("load {a} at or above capacity {}", delay.capacity()),
            });
        }
        let t = delay.response_time_unchecked(a);
        let dt = delay.d_response_time_unchecked(a);
        let dc = self.access_costs()[agent]
            + self.k() * t
            + self.k() * self.total_rate() * x_i * dt;
        Ok(-dc)
    }

    fn local_utility(&self, agent: usize, x_i: f64) -> Result<f64, RuntimeError> {
        let a = self.total_rate() * x_i;
        let delay = &self.delays()[agent];
        if !a.is_finite() || a >= delay.capacity() {
            return Err(RuntimeError::Objective {
                agent,
                reason: format!("load {a} at or above capacity {}", delay.capacity()),
            });
        }
        let t = delay.response_time_unchecked(a);
        Ok(-(self.access_costs()[agent] + self.k() * t) * x_i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_econ::AllocationProblem;
    use fap_net::{topology, AccessPattern};

    fn paper_problem() -> SingleFileProblem {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap()
    }

    #[test]
    fn local_marginals_match_the_global_gradient() {
        let p = paper_problem();
        let x = [0.8, 0.1, 0.1, 0.0];
        let mut global = vec![0.0; 4];
        p.marginal_utilities(&x, &mut global).unwrap();
        for i in 0..4 {
            let local = p.local_marginal(i, x[i]).unwrap();
            assert!((local - global[i]).abs() < 1e-15, "agent {i}");
        }
    }

    #[test]
    fn local_utilities_sum_to_global_utility() {
        let p = paper_problem();
        let x = [0.4, 0.3, 0.2, 0.1];
        let total: f64 = (0..4).map(|i| p.local_utility(i, x[i]).unwrap()).sum();
        assert!((total - p.utility(&x).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn local_overload_is_reported_with_the_agent() {
        let p = paper_problem();
        let err = p.local_marginal(2, 2.0).unwrap_err();
        assert!(matches!(err, RuntimeError::Objective { agent: 2, .. }));
    }
}
