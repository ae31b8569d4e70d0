//! The multi-file extension (paper §5.4).
//!
//! With `M` distinct files (one copy each), `x_i^j` is the fraction of file
//! `j` at node `i` and the cost couples the files through each node's shared
//! queue:
//!
//! ```text
//! C = Σ_i Σ_j ( C_i^j + k · T_i(Λ_i) ) · x_i^j,    Λ_i = Σ_j λ^j x_i^j
//! ```
//!
//! — "the 'cost' incurred due to time delay includes the effects of
//! simultaneous accesses to different files stored at the same location, a
//! real-world resource contention phenomenon which is typically not
//! considered in most FAP formulations". The feasible set is the product of
//! `M` simplices (`Σ_i x_i^j = 1` per file), so the decentralized iteration
//! applies the §5.2 step to each file's allocation with the coupled
//! gradients.

use fap_batch::Matrix;
use serde::{Deserialize, Serialize};

use fap_econ::projection::{clamp_step_into, StepWorkspace};
use fap_econ::EconError;
use fap_net::{AccessPattern, Graph};
use fap_obs::{Recorder, Value};

use crate::error::CoreError;

/// The §5.4 multi-file allocation problem over M/M/1 nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFileProblem {
    /// Row `j` holds `C_i^j`, the workload-weighted cost of reaching node
    /// `i` for accesses to file `j` (an `M × N` flat matrix).
    access_costs: Matrix,
    /// Per-file network-wide access rates `λ^j`.
    rates: Vec<f64>,
    /// Per-node service rates `μ_i`.
    mus: Vec<f64>,
    k: f64,
}

/// Reusable buffers for [`MultiFileProblem::solve_with_scratch`].
///
/// Holds the iterate, its gradient, per-node cost partials and one step
/// workspace per file, so each file's clamp step carries its own active
/// set from iteration to iteration; once warmed to the problem's `M × N`
/// shape, every solver iteration runs without heap allocation.
#[derive(Debug, Clone, Default)]
pub struct MultiFileScratch {
    x: Matrix,
    /// The coupled gradient `−∂C/∂x_i^j`, one row per file.
    grad: Matrix,
    node_cost: Vec<f64>,
    cost_series: Vec<f64>,
    /// One step workspace per file; its deltas are the file's step.
    steps: Vec<StepWorkspace>,
    seed: Matrix,
    has_seed: bool,
}

impl MultiFileScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MultiFileScratch::default()
    }

    /// Arms a warm start: the next solve seeds its iterate from
    /// `allocations` (`allocations[j][i]` = fraction of file `j` at node
    /// `i`) instead of the solve's `initial` argument.
    ///
    /// The seed is consumed by exactly one solve and each file's row is
    /// re-projected onto its simplex (`Σ_i x_i^j = 1, x_i^j ≥ 0`) through
    /// [`fap_econ::projection::project_onto_simplex`] before use, so the
    /// per-file feasibility invariant holds from the first iterate. A seed
    /// whose `M × N` shape does not match the next problem is ignored and
    /// the solve falls back to `initial`, which is validated either way.
    ///
    /// Allocation-free once the scratch capacity covers the shape.
    ///
    /// # Panics
    ///
    /// Panics if the rows of `allocations` have unequal lengths.
    pub fn start_from(&mut self, allocations: &[Vec<f64>]) {
        let n = allocations.first().map_or(0, Vec::len);
        assert!(
            allocations.iter().all(|row| row.len() == n),
            "warm-start seed rows must have equal lengths"
        );
        self.seed.reset(allocations.len(), n);
        for (j, row) in allocations.iter().enumerate() {
            self.seed.row_mut(j).copy_from_slice(row);
        }
        self.has_seed = true;
    }

    /// Whether a warm-start seed is armed for the next solve.
    pub fn has_warm_start(&self) -> bool {
        self.has_seed
    }

    /// Disarms a pending warm-start seed; the next solve starts cold.
    pub fn clear_warm_start(&mut self) {
        self.has_seed = false;
    }

    /// Resizes every buffer for an `M × N` problem. Allocation-free once
    /// capacities cover the shape.
    fn ensure(&mut self, m: usize, n: usize, max_iterations: usize) {
        self.x.reset(m, n);
        self.grad.reset(m, n);
        self.node_cost.clear();
        self.node_cost.resize(n, 0.0);
        self.cost_series.clear();
        // One entry per iteration plus the final evaluation.
        self.cost_series.reserve(max_iterations + 2);
        // Never shrunk, so a smaller problem keeps the larger one's
        // workspaces warm; the solve uses the first `m`.
        if self.steps.len() < m {
            self.steps.resize_with(m, StepWorkspace::default);
        }
    }
}

/// The result of the multi-file decentralized iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFileSolution {
    /// `allocations[j][i]` = final fraction of file `j` at node `i`.
    pub allocations: Vec<Vec<f64>>,
    /// Number of reallocation steps applied.
    pub iterations: usize,
    /// Whether every file's marginal spread fell below ε.
    pub converged: bool,
    /// Final total cost.
    pub final_cost: f64,
    /// Total cost after each iteration (a convergence profile).
    pub cost_series: Vec<f64>,
}

impl MultiFileProblem {
    /// Builds the model on `graph` with one access pattern per file and a
    /// common service rate `mu`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] for a disconnected graph,
    /// [`CoreError::InvalidParameter`] for empty/mismatched inputs or bad
    /// `mu`/`k`, and [`CoreError::InsufficientCapacity`] when
    /// `Σ_i μ_i ≤ Σ_j λ^j`.
    pub fn mm1(
        graph: &Graph,
        patterns: &[AccessPattern],
        mu: f64,
        k: f64,
    ) -> Result<Self, CoreError> {
        let n = graph.node_count();
        Self::mm1_heterogeneous(graph, patterns, &vec![mu; n], k)
    }

    /// Builds the model with per-node service rates.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiFileProblem::mm1`].
    pub fn mm1_heterogeneous(
        graph: &Graph,
        patterns: &[AccessPattern],
        mus: &[f64],
        k: f64,
    ) -> Result<Self, CoreError> {
        let costs = graph.shortest_path_matrix()?;
        Self::mm1_heterogeneous_with_provider(&costs, patterns, mus, k)
    }

    /// [`MultiFileProblem::mm1_heterogeneous`] over any pre-computed
    /// [`fap_net::CostProvider`], skipping the all-pairs shortest-path run:
    /// a dense matrix (e.g. one served out of a topology-keyed cache) gives
    /// bit-identical results to the graph-based constructor, a sparse
    /// provider like the landmark oracle estimated access costs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiFileProblem::mm1_heterogeneous`], minus the
    /// connectivity check (a valid provider is always complete).
    pub fn mm1_heterogeneous_with_provider(
        costs: &(impl fap_net::CostProvider + ?Sized),
        patterns: &[AccessPattern],
        mus: &[f64],
        k: f64,
    ) -> Result<Self, CoreError> {
        if patterns.is_empty() {
            return Err(CoreError::InvalidParameter("no files".into()));
        }
        let n = costs.node_count();
        if mus.len() != n {
            return Err(CoreError::InvalidParameter(format!(
                "{} service rates for {n} nodes",
                mus.len()
            )));
        }
        if mus.iter().any(|m| !m.is_finite() || *m <= 0.0) {
            return Err(CoreError::InvalidParameter("service rates must be positive".into()));
        }
        if !k.is_finite() || k < 0.0 {
            return Err(CoreError::InvalidParameter(format!("delay weight k = {k}")));
        }
        let mut access_costs = Matrix::with_cols(n);
        let mut rates = Vec::with_capacity(patterns.len());
        for pattern in patterns {
            if pattern.node_count() != n {
                return Err(CoreError::InvalidParameter(format!(
                    "pattern covers {} nodes, graph has {n}",
                    pattern.node_count()
                )));
            }
            access_costs.push_row(&costs.systemwide_access_costs(pattern));
            rates.push(pattern.total_rate());
        }
        let offered: f64 = rates.iter().sum();
        let capacity: f64 = mus.iter().sum();
        if capacity <= offered {
            return Err(CoreError::InsufficientCapacity {
                total_capacity: capacity,
                offered_load: offered,
            });
        }
        Ok(MultiFileProblem { access_costs, rates, mus: mus.to_vec(), k })
    }

    /// Number of files `M`.
    pub fn file_count(&self) -> usize {
        self.rates.len()
    }

    /// Number of nodes `N`.
    pub fn node_count(&self) -> usize {
        self.mus.len()
    }

    /// Per-file access rates `λ^j`.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The `M × N` matrix of per-file system-wide access costs `C_i^j`
    /// (row `j` = file `j`).
    pub fn access_costs(&self) -> &Matrix {
        &self.access_costs
    }

    /// The aggregate arrival rate `Λ_i` at each node under allocation `x`
    /// (`x[j][i]` = fraction of file `j` at node `i`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on shape mismatch.
    pub fn node_loads(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, CoreError> {
        self.check_shape(x)?;
        let n = self.node_count();
        let mut loads = vec![0.0; n];
        for (j, xj) in x.iter().enumerate() {
            for (i, &v) in xj.iter().enumerate() {
                loads[i] += self.rates[j] * v;
            }
        }
        Ok(loads)
    }

    /// Total cost of allocation `x`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on shape mismatch and
    /// [`CoreError::Econ`] when some node is loaded at or beyond capacity.
    pub fn cost(&self, x: &[Vec<f64>]) -> Result<f64, CoreError> {
        let loads = self.node_loads(x)?;
        let n = self.node_count();
        let mut total = 0.0;
        for i in 0..n {
            if loads[i] >= self.mus[i] {
                return Err(CoreError::Econ(EconError::Model(format!(
                    "node {i} loaded at {} ≥ capacity {}",
                    loads[i], self.mus[i]
                ))));
            }
            let t = 1.0 / (self.mus[i] - loads[i]);
            for (j, xj) in x.iter().enumerate() {
                total += (self.access_costs.get(j, i) + self.k * t) * xj[i];
            }
        }
        Ok(total)
    }

    /// The marginal cost `∂C/∂x_i^j` for every file and node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiFileProblem::cost`].
    pub fn marginal_costs(&self, x: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
        let loads = self.node_loads(x)?;
        let n = self.node_count();
        // Node totals S_i = Σ_j x_i^j weighted by λ^j are the loads; the
        // delay-coupling term needs Σ_m x_i^m λ^m = loads as well.
        let mut out = vec![vec![0.0; n]; self.file_count()];
        for i in 0..n {
            if loads[i] >= self.mus[i] {
                return Err(CoreError::Econ(EconError::Model(format!(
                    "node {i} loaded at {} ≥ capacity {}",
                    loads[i], self.mus[i]
                ))));
            }
            let d = self.mus[i] - loads[i];
            let t = 1.0 / d;
            let dt = 1.0 / (d * d);
            // k·T′(Λ_i)·Σ_m x_i^m — the queue-coupling term.
            let coupling: f64 = x.iter().map(|xj| xj[i]).sum::<f64>() * self.k * dt;
            for (j, row) in out.iter_mut().enumerate() {
                row[i] = self.access_costs.get(j, i) + self.k * t + self.rates[j] * coupling;
            }
        }
        Ok(out)
    }

    /// Runs the decentralized iteration: each iteration applies the §5.2
    /// step (with the clamp-to-zero boundary rule) to every file's
    /// allocation using the coupled gradients, until every file's marginal
    /// spread is below `epsilon`.
    ///
    /// The iteration runs on the calling thread: a multi-file solve is one
    /// request's work, and concurrency lives across requests (the batch
    /// server) and across shortest-path rows, where the grain is coarse.
    /// An over-capacity error names the lowest-indexed overloaded node.
    ///
    /// Telemetry goes into `recorder`: the `core.iterations` counter, one
    /// `core.iter` event per iteration (cost and marginal spread) and a
    /// final `core.run_end` event. Virtual time is set to the iteration
    /// count. Nothing is recorded unless `recorder.is_enabled()`, and the
    /// per-iteration events are only built for a sink that keeps them
    /// (`recorder.keeps_events()`), so a
    /// [`NoopRecorder`](fap_obs::NoopRecorder) costs nothing, and the
    /// solution is bit-identical with any recorder.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for bad `alpha`/`epsilon` or
    /// an infeasible start, and [`CoreError::Econ`] if an iterate becomes
    /// unstable or its cost is not finite (a delay weight so large that
    /// the cost overflows).
    pub fn solve(
        &self,
        initial: &[Vec<f64>],
        alpha: f64,
        epsilon: f64,
        max_iterations: usize,
        recorder: &mut dyn Recorder,
    ) -> Result<MultiFileSolution, CoreError> {
        let mut scratch = MultiFileScratch::new();
        self.solve_with_scratch(initial, alpha, epsilon, max_iterations, &mut scratch, recorder)
    }

    /// [`MultiFileProblem::solve`] with a caller-owned [`MultiFileScratch`]
    /// reused across calls, so steady-state iterations (and, with a warm
    /// scratch, whole repeat solves) perform no heap allocations beyond the
    /// returned solution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiFileProblem::solve`].
    pub fn solve_with_scratch(
        &self,
        initial: &[Vec<f64>],
        alpha: f64,
        epsilon: f64,
        max_iterations: usize,
        scratch: &mut MultiFileScratch,
        recorder: &mut dyn Recorder,
    ) -> Result<MultiFileSolution, CoreError> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(CoreError::InvalidParameter(format!("alpha {alpha}")));
        }
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(CoreError::InvalidParameter(format!("epsilon {epsilon}")));
        }
        self.check_shape(initial)?;
        for (j, xj) in initial.iter().enumerate() {
            let sum: f64 = xj.iter().sum();
            if (sum - 1.0).abs() > 1e-9 || xj.iter().any(|v| *v < 0.0) {
                return Err(CoreError::InvalidParameter(format!(
                    "initial allocation of file {j} is not on the simplex"
                )));
            }
        }

        let m = self.file_count();
        let n = self.node_count();
        scratch.ensure(m, n, max_iterations);
        let MultiFileScratch { x, grad, node_cost, cost_series, steps, seed, has_seed } = scratch;
        let steps = &mut steps[..m];
        for (j, xj) in initial.iter().enumerate() {
            x.row_mut(j).copy_from_slice(xj);
        }
        if *has_seed {
            // One-shot seed: consumed (or discarded on shape mismatch) by
            // this solve either way.
            *has_seed = false;
            if seed.rows() == m && seed.cols() == n {
                x.as_mut_slice().copy_from_slice(seed.as_slice());
                for j in 0..m {
                    fap_econ::projection::project_onto_simplex(x.row_mut(j), 1.0);
                }
                recorder.incr("core.warm_starts", 1);
            }
        }
        let mut iterations = 0usize;
        let enabled = recorder.is_enabled();

        loop {
            recorder.set_time(iterations as u64);
            // Node pass: loads, the cost and every file's gradient row.
            let cost = self.node_pass(x, grad, node_cost)?;
            if !cost.is_finite() {
                return Err(CoreError::Econ(EconError::Model(format!(
                    "cost {cost} at iteration {iterations} is not finite"
                ))));
            }
            cost_series.push(cost);

            // File pass: each file's §5.2 step, whose sweeps also fold in
            // the free marginals' spread and mean. A file has settled when
            // its active marginals agree within ε *and* every excluded node
            // sits at the boundary with no incentive to rejoin (the same
            // condition the single-file engine checks). The slackness
            // sweep runs only while every spread so far is below ε, since
            // a wider one decides the iteration alone.
            let mut spread = 0.0f64;
            let mut kkt_ok = true;
            for (j, ws) in steps.iter_mut().enumerate() {
                let (xj, gj) = (x.row(j), grad.row(j));
                let free = clamp_step_into(xj, gj, 1.0, alpha, ws);
                spread = spread.max(free.spread);
                if kkt_ok && spread < epsilon && free.count > 0 {
                    let bound = free.mean + epsilon;
                    kkt_ok = (0..n).all(|i| ws.active()[i] || !(xj[i] > 1e-6 || gj[i] > bound));
                }
            }
            if enabled {
                recorder.incr("core.iterations", 1);
                if recorder.keeps_events() {
                    recorder.emit(
                        "core.iter",
                        &[
                            ("iteration", Value::U64(iterations as u64)),
                            ("cost", Value::F64(cost)),
                            ("spread", Value::F64(spread)),
                        ],
                    );
                }
            }

            let converged = spread < epsilon && kkt_ok;
            if converged || iterations >= max_iterations {
                if enabled {
                    recorder.emit(
                        "core.run_end",
                        &[
                            ("iterations", Value::U64(iterations as u64)),
                            ("converged", Value::Bool(converged)),
                            ("final_cost", Value::F64(cost)),
                        ],
                    );
                }
                return Ok(MultiFileSolution {
                    allocations: x.to_nested(),
                    iterations,
                    converged,
                    final_cost: cost,
                    cost_series: cost_series.clone(),
                });
            }
            for (j, step) in steps.iter().enumerate() {
                for (xi, d) in x.row_mut(j).iter_mut().zip(step.deltas()) {
                    *xi += d;
                }
            }
            iterations += 1;
        }
    }

    /// Computes, for every node `i`, the load `Λ_i`, the delay term
    /// `k·T_i` and the queue-coupling factor `(Σ_m x_i^m)·k·T_i′`, and from
    /// them the node's cost partial `Σ_j (C_i^j + k·T_i)·x_i^j` (into
    /// `node_cost`) and every file's gradient entry
    /// `−(C_i^j + k·T_i + λ^j·(Σ_m x_i^m)·k·T_i′)`, accumulating over files
    /// in file-index order. Returns the cost, the node partials summed in
    /// index order. Stops at the first node at or over capacity.
    fn node_pass(
        &self,
        x: &Matrix,
        grad: &mut Matrix,
        node_cost: &mut [f64],
    ) -> Result<f64, CoreError> {
        let (m, n) = (self.file_count(), self.node_count());
        // `M × N` row-major: file `j`'s entry for node `i` sits at `j·N + i`.
        let x = &x.as_slice()[..m * n];
        let costs = &self.access_costs.as_slice()[..m * n];
        let grad = &mut grad.as_mut_slice()[..m * n];
        for i in 0..n {
            let mut load = 0.0;
            let mut colsum = 0.0;
            for j in 0..m {
                let v = x[j * n + i];
                load += self.rates[j] * v;
                colsum += v;
            }
            if load >= self.mus[i] {
                return Err(CoreError::Econ(EconError::Model(format!(
                    "node {i} loaded at {load} ≥ capacity {}",
                    self.mus[i]
                ))));
            }
            let d = self.mus[i] - load;
            let t = 1.0 / d;
            let dt = 1.0 / (d * d);
            let delay = self.k * t;
            let coup = colsum * self.k * dt;
            let mut partial = 0.0;
            for j in 0..m {
                let c = costs[j * n + i];
                partial += (c + delay) * x[j * n + i];
                grad[j * n + i] = -(c + delay + self.rates[j] * coup);
            }
            node_cost[i] = partial;
        }
        Ok(node_cost.iter().sum())
    }

    fn check_shape(&self, x: &[Vec<f64>]) -> Result<(), CoreError> {
        if x.len() != self.file_count() || x.iter().any(|xj| xj.len() != self.node_count()) {
            return Err(CoreError::InvalidParameter(format!(
                "allocation shape {:?} does not match {} files × {} nodes",
                x.iter().map(Vec::len).collect::<Vec<_>>(),
                self.file_count(),
                self.node_count()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleFileProblem;
    use fap_econ::projection::{compute_step_into, BoundaryRule};
    use fap_econ::AllocationProblem;
    use fap_net::topology;
    use fap_obs::NoopRecorder;
    use proptest::prelude::*;

    fn ring4() -> Graph {
        topology::ring(4, 1.0).unwrap()
    }

    #[test]
    fn single_file_case_matches_single_file_problem() {
        let graph = ring4();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        let multi =
            MultiFileProblem::mm1(&graph, std::slice::from_ref(&pattern), 1.5, 1.0).unwrap();
        let single = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap();
        let x = vec![0.4, 0.3, 0.2, 0.1];
        assert!(
            (multi.cost(std::slice::from_ref(&x)).unwrap() - single.cost_of(&x).unwrap()).abs() < 1e-12
        );
        let mg = multi.marginal_costs(std::slice::from_ref(&x)).unwrap();
        let mut sg = vec![0.0; 4];
        single.marginal_utilities(&x, &mut sg).unwrap();
        for i in 0..4 {
            assert!((mg[0][i] + sg[i]).abs() < 1e-12, "marginal mismatch at {i}");
        }
    }

    #[test]
    fn validates_construction() {
        let graph = ring4();
        let p = AccessPattern::uniform(4, 1.0).unwrap();
        assert!(MultiFileProblem::mm1(&graph, &[], 1.5, 1.0).is_err());
        assert!(MultiFileProblem::mm1(&graph, std::slice::from_ref(&p), 1.5, -1.0).is_err());
        let p3 = AccessPattern::uniform(3, 1.0).unwrap();
        assert!(MultiFileProblem::mm1(&graph, &[p3], 1.5, 1.0).is_err());
        // Two files of rate 1 each need Σμ > 2; μ = 0.4 · 4 = 1.6 fails.
        assert!(matches!(
            MultiFileProblem::mm1(&graph, &[p.clone(), p.clone()], 0.4, 1.0),
            Err(CoreError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn marginals_match_finite_differences() {
        let graph = ring4();
        let pa = AccessPattern::uniform(4, 0.8).unwrap();
        let pb = AccessPattern::hotspot(4, 0.5, fap_net::NodeId::new(2), 0.7).unwrap();
        let m = MultiFileProblem::mm1(&graph, &[pa, pb], 2.0, 0.9).unwrap();
        let x = vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.1, 0.2, 0.3, 0.4]];
        let g = m.marginal_costs(&x).unwrap();
        let h = 1e-7;
        for j in 0..2 {
            for i in 0..4 {
                let mut xp = x.clone();
                xp[j][i] += h;
                let mut xm = x.clone();
                xm[j][i] -= h;
                let fd = (m.cost(&xp).unwrap() - m.cost(&xm).unwrap()) / (2.0 * h);
                assert!((g[j][i] - fd).abs() < 1e-5, "file {j} node {i}: {} vs {fd}", g[j][i]);
            }
        }
    }

    #[test]
    fn symmetric_two_files_balance_node_loads() {
        // The optimum is non-unique in the individual x_i^j (only the node
        // loads matter on a symmetric network), so assert the invariants:
        // equal loads, and cost equal to the fully even split.
        let graph = ring4();
        let p = AccessPattern::uniform(4, 0.6).unwrap();
        let m = MultiFileProblem::mm1(&graph, &[p.clone(), p], 1.5, 1.0).unwrap();
        let initial = vec![vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 0.0, 0.0, 1.0]];
        let s = m.solve(&initial, 0.1, 1e-6, 50_000, &mut NoopRecorder).unwrap();
        assert!(s.converged);
        let loads = m.node_loads(&s.allocations).unwrap();
        for l in &loads {
            assert!((l - 0.3).abs() < 1e-3, "loads {loads:?}");
        }
        let even_cost = m.cost(&[vec![0.25; 4], vec![0.25; 4]]).unwrap();
        assert!((s.final_cost - even_cost).abs() < 1e-5);
    }

    #[test]
    fn queue_contention_pushes_files_apart() {
        // Two files, high delay weight, tiny homogeneous communication
        // costs: the optimum loads all nodes equally, so the files must
        // split complementarily rather than stack on the same nodes.
        let graph = topology::full_mesh(4, 0.01).unwrap();
        let p = AccessPattern::uniform(4, 0.7).unwrap();
        let m = MultiFileProblem::mm1(&graph, &[p.clone(), p], 1.0, 5.0).unwrap();
        let initial = vec![vec![0.7, 0.3, 0.0, 0.0], vec![0.6, 0.0, 0.4, 0.0]];
        let s = m.solve(&initial, 0.02, 1e-6, 100_000, &mut NoopRecorder).unwrap();
        assert!(s.converged);
        let loads = m.node_loads(&s.allocations).unwrap();
        let avg: f64 = loads.iter().sum::<f64>() / 4.0;
        for l in &loads {
            assert!((l - avg).abs() < 1e-3, "loads {loads:?}");
        }
    }

    #[test]
    fn cost_decreases_monotonically_with_small_alpha() {
        let graph = ring4();
        let pa = AccessPattern::uniform(4, 0.5).unwrap();
        let pb = AccessPattern::hotspot(4, 0.4, fap_net::NodeId::new(1), 0.6).unwrap();
        let m = MultiFileProblem::mm1(&graph, &[pa, pb], 1.5, 1.0).unwrap();
        let initial = vec![vec![1.0, 0.0, 0.0, 0.0], vec![1.0, 0.0, 0.0, 0.0]];
        let s = m.solve(&initial, 0.02, 1e-6, 100_000, &mut NoopRecorder).unwrap();
        assert!(s.converged);
        for w in s.cost_series.windows(2) {
            assert!(w[1] <= w[0] + 1e-10, "cost rose: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn feasibility_per_file_is_preserved() {
        let graph = ring4();
        let p = AccessPattern::uniform(4, 0.5).unwrap();
        let m = MultiFileProblem::mm1(&graph, &[p.clone(), p], 1.5, 1.0).unwrap();
        let initial = vec![vec![0.5, 0.5, 0.0, 0.0], vec![0.0, 0.0, 0.5, 0.5]];
        let s = m.solve(&initial, 0.1, 1e-5, 10_000, &mut NoopRecorder).unwrap();
        for xj in &s.allocations {
            assert!((xj.iter().sum::<f64>() - 1.0).abs() < 1e-7);
            assert!(xj.iter().all(|v| *v >= -1e-9));
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let graph = ring4();
        let p = AccessPattern::uniform(4, 0.5).unwrap();
        let m = MultiFileProblem::mm1(&graph, &[p.clone(), p], 1.5, 1.0).unwrap();
        let initial = vec![vec![0.5, 0.5, 0.0, 0.0], vec![0.0, 0.0, 0.5, 0.5]];
        let fresh = m.solve(&initial, 0.1, 1e-5, 10_000, &mut NoopRecorder).unwrap();
        let mut scratch = MultiFileScratch::new();
        // Warm the scratch on a different start, then repeat the original.
        let other = vec![vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 1.0, 0.0, 0.0]];
        m.solve_with_scratch(&other, 0.1, 1e-5, 10_000, &mut scratch, &mut NoopRecorder).unwrap();
        let reused = m
            .solve_with_scratch(&initial, 0.1, 1e-5, 10_000, &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert_eq!(fresh, reused);
    }

    #[test]
    fn constructor_with_costs_is_bit_identical_to_graph_constructor() {
        let graph = ring4();
        let costs = graph.shortest_path_matrix().unwrap();
        let pa = AccessPattern::uniform(4, 0.5).unwrap();
        let pb = AccessPattern::hotspot(4, 0.4, fap_net::NodeId::new(1), 0.6).unwrap();
        let patterns = [pa, pb];
        let mus = [1.5; 4];
        let from_graph = MultiFileProblem::mm1_heterogeneous(&graph, &patterns, &mus, 1.0).unwrap();
        let from_costs =
            MultiFileProblem::mm1_heterogeneous_with_provider(&costs, &patterns, &mus, 1.0)
                .unwrap();
        assert_eq!(from_graph, from_costs);
    }

    #[test]
    fn warm_start_reaches_the_same_fixed_point_almost_instantly() {
        let graph = ring4();
        let pa = AccessPattern::uniform(4, 0.5).unwrap();
        let pb = AccessPattern::hotspot(4, 0.4, fap_net::NodeId::new(1), 0.6).unwrap();
        let m = MultiFileProblem::mm1(&graph, &[pa, pb], 1.5, 1.0).unwrap();
        let initial = vec![vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 0.5, 0.5, 0.0]];
        let mut scratch = MultiFileScratch::new();
        let cold = m
            .solve_with_scratch(&initial, 0.05, 1e-6, 50_000, &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert!(cold.converged && cold.iterations > 5);
        scratch.start_from(&cold.allocations);
        let warm = m
            .solve_with_scratch(&initial, 0.05, 1e-6, 50_000, &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert!(warm.converged);
        assert!(warm.iterations <= 1, "seeded at the optimum: {}", warm.iterations);
        assert!((warm.final_cost - cold.final_cost).abs() < 1e-9);
        assert!(!scratch.has_warm_start(), "seed must be consumed");
    }

    #[test]
    fn mismatched_warm_seed_falls_back_to_cold_start() {
        let graph = ring4();
        let p = AccessPattern::uniform(4, 0.5).unwrap();
        let m = MultiFileProblem::mm1(&graph, &[p.clone(), p], 1.5, 1.0).unwrap();
        let initial = vec![vec![0.5, 0.5, 0.0, 0.0], vec![0.0, 0.0, 0.5, 0.5]];
        let mut scratch = MultiFileScratch::new();
        let cold = m
            .solve_with_scratch(&initial, 0.1, 1e-5, 10_000, &mut scratch, &mut NoopRecorder)
            .unwrap();
        // Wrong shape (3 nodes): ignored, bit-identical to the cold solve.
        scratch.start_from(&[vec![0.5, 0.3, 0.2], vec![0.2, 0.3, 0.5]]);
        let fallback = m
            .solve_with_scratch(&initial, 0.1, 1e-5, 10_000, &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert_eq!(cold, fallback);
        assert!(!scratch.has_warm_start());
    }

    #[test]
    fn observed_solve_is_bit_identical_and_records_every_iteration() {
        let graph = ring4();
        let pa = AccessPattern::uniform(4, 0.5).unwrap();
        let pb = AccessPattern::hotspot(4, 0.4, fap_net::NodeId::new(1), 0.6).unwrap();
        let m = MultiFileProblem::mm1(&graph, &[pa, pb], 1.5, 1.0).unwrap();
        let initial = vec![vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 0.5, 0.5, 0.0]];
        let plain = m.solve(&initial, 0.05, 1e-6, 2_000, &mut NoopRecorder).unwrap();

        let mut tele = fap_obs::Telemetry::manual();
        let mut scratch = MultiFileScratch::new();
        let observed =
            m.solve_with_scratch(&initial, 0.05, 1e-6, 2_000, &mut scratch, &mut tele).unwrap();
        assert_eq!(plain, observed, "recording must not perturb the solve");

        // One loop pass per applied step plus the final converged pass.
        let passes = (observed.iterations + 1) as u64;
        assert_eq!(tele.registry().counter("core.iterations"), passes);
        assert_eq!(tele.events().len(), passes as usize + 1);
        let last = tele.events().last().unwrap();
        assert_eq!(last.name(), "core.run_end");
    }

    #[test]
    fn solve_validates_inputs() {
        let graph = ring4();
        let p = AccessPattern::uniform(4, 0.5).unwrap();
        let m = MultiFileProblem::mm1(&graph, &[p], 1.5, 1.0).unwrap();
        let good = vec![vec![0.25; 4]];
        let solve = |initial: &[Vec<f64>], alpha: f64, epsilon: f64| {
            m.solve(initial, alpha, epsilon, 100, &mut NoopRecorder)
        };
        assert!(solve(&good, 0.0, 1e-6).is_err());
        assert!(solve(&good, 0.1, 0.0).is_err());
        assert!(solve(&[vec![0.5; 4]], 0.1, 1e-6).is_err()); // sums to 2
        assert!(solve(&[vec![0.25; 3]], 0.1, 1e-6).is_err()); // wrong shape
    }

    /// Kept and dropped carried active sets over an oracle solve's steps.
    #[derive(Debug, Default)]
    struct CarryTally {
        kept: usize,
        dropped: usize,
    }

    /// The iteration as separate passes, the oracle for the fused one: a
    /// node pass writes the delay terms, coupling factors and cost
    /// partials, then [`file_pass`] sweeps each file's gradient, steps it
    /// through `compute_step_into` with a buffer of unit weights, and sweeps
    /// the free set's spread and sum and then the slackness condition.
    fn solve_two_pass(
        p: &MultiFileProblem,
        initial: &[Vec<f64>],
        seed: Option<&[Vec<f64>]>,
        alpha: f64,
        epsilon: f64,
        max_iterations: usize,
        tally: &mut CarryTally,
    ) -> Result<MultiFileSolution, CoreError> {
        let (m, n) = (p.file_count(), p.node_count());
        let mut x = Matrix::from_rows(initial);
        if let Some(seed) = seed.filter(|s| s.len() == m && s.iter().all(|r| r.len() == n)) {
            x = Matrix::from_rows(seed);
            for j in 0..m {
                fap_econ::projection::project_onto_simplex(x.row_mut(j), 1.0);
            }
        }
        let (mut delay, mut coup, mut node_cost) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let weights = vec![1.0; n];
        let mut g = Vec::new();
        let mut steps = vec![StepWorkspace::new(); m];
        let mut cost_series = Vec::new();
        let mut iterations = 0;
        loop {
            for i in 0..n {
                let (mut load, mut colsum) = (0.0, 0.0);
                for j in 0..m {
                    load += p.rates[j] * x.get(j, i);
                    colsum += x.get(j, i);
                }
                if load >= p.mus[i] {
                    return Err(CoreError::Econ(EconError::Model(format!(
                        "node {i} loaded at {load} ≥ capacity {}",
                        p.mus[i]
                    ))));
                }
                let d = p.mus[i] - load;
                let (t, dt) = (1.0 / d, 1.0 / (d * d));
                delay[i] = p.k * t;
                coup[i] = colsum * p.k * dt;
                let mut partial = 0.0;
                for j in 0..m {
                    partial += (p.access_costs.get(j, i) + p.k * t) * x.get(j, i);
                }
                node_cost[i] = partial;
            }
            let cost: f64 = node_cost.iter().sum();
            if !cost.is_finite() {
                return Err(CoreError::Econ(EconError::Model(format!(
                    "cost {cost} at iteration {iterations} is not finite"
                ))));
            }
            cost_series.push(cost);
            let carried: Vec<bool> = steps
                .iter()
                .map(|ws| ws.active().len() == n && (1..n).contains(&ws.active_count()))
                .collect();
            let (spread, kkt_ok) =
                file_pass(p, &x, &delay, &coup, &weights, alpha, epsilon, &mut steps, &mut g);
            for (ws, carried) in steps.iter().zip(carried) {
                if carried {
                    if ws.passes() == 1 {
                        tally.kept += 1;
                    } else {
                        tally.dropped += 1;
                    }
                }
            }
            let converged = spread < epsilon && kkt_ok;
            if converged || iterations >= max_iterations {
                return Ok(MultiFileSolution {
                    allocations: x.to_nested(),
                    iterations,
                    converged,
                    final_cost: cost,
                    cost_series,
                });
            }
            for (j, step) in steps.iter().enumerate() {
                for (xi, d) in x.row_mut(j).iter_mut().zip(step.deltas()) {
                    *xi += d;
                }
            }
            iterations += 1;
        }
    }

    /// Computes, for every file `j`, the coupled gradient (into `g`) and
    /// the §5.2 clamp-to-zero step (into the file's workspace `steps[j]`).
    /// Returns the largest active marginal spread over the files and
    /// whether every file meets complementary slackness, both folded in
    /// file-index order.
    #[allow(clippy::too_many_arguments)]
    fn file_pass(
        p: &MultiFileProblem,
        x: &Matrix,
        delay: &[f64],
        coup: &[f64],
        weights: &[f64],
        alpha: f64,
        epsilon: f64,
        steps: &mut [StepWorkspace],
        g: &mut Vec<f64>,
    ) -> (f64, bool) {
        let n = p.node_count();
        let mut max_spread = 0.0f64;
        let mut all_kkt = true;
        for (j, ws) in steps.iter_mut().enumerate() {
            let rate = p.rates[j];
            let xj = x.row(j);
            g.clear();
            g.extend((0..n).map(|i| -(p.access_costs.get(j, i) + delay[i] + rate * coup[i])));
            compute_step_into(xj, g, weights, alpha, BoundaryRule::ClampToZero, ws);

            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut sum = 0.0;
            let mut count = 0usize;
            for (gi, is_active) in g.iter().zip(ws.active()) {
                if *is_active {
                    lo = lo.min(*gi);
                    hi = hi.max(*gi);
                    sum += *gi;
                    count += 1;
                }
            }
            max_spread = max_spread.max(if hi > lo { hi - lo } else { 0.0 });
            let mut kkt = true;
            if count > 0 {
                let avg = sum / count as f64;
                for ((&xi, &gi), &is_active) in xj.iter().zip(g.iter()).zip(ws.active()) {
                    if !is_active && (xi > 1e-6 || gi > avg + epsilon) {
                        kkt = false;
                    }
                }
            }
            all_kkt &= kkt;
        }
        (max_spread, all_kkt)
    }

    /// One seeded solve: a problem of `m` files on `n` nodes, a start, an
    /// optional warm seed and the solve's parameters. Files favour a few
    /// cheap nodes strongly enough that their optima pin others to zero;
    /// some starts put a file on one node whose capacity it overloads, a
    /// few delay weights are so large that the cost overflows, and some
    /// seeds are of the wrong shape or off the simplex.
    struct MultiCase {
        problem: MultiFileProblem,
        initial: Vec<Vec<f64>>,
        seed: Option<Vec<Vec<f64>>>,
        alpha: f64,
        epsilon: f64,
        max_iterations: usize,
    }

    fn multi_case(seed: u64, m: usize, n: usize) -> MultiCase {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut access_costs = Matrix::with_cols(n);
        for _ in 0..m {
            let spread = 1.0 + 8.0 * unit();
            let row: Vec<f64> = (0..n).map(|_| spread * unit() * unit()).collect();
            access_costs.push_row(&row);
        }
        let rates: Vec<f64> = (0..m).map(|_| 0.05 + 0.5 * unit()).collect();
        let offered: f64 = rates.iter().sum();
        let raw: Vec<f64> = (0..n).map(|_| 0.2 + unit()).collect();
        let raw_sum: f64 = raw.iter().sum();
        let headroom = 1.5 + 3.0 * unit();
        let mus: Vec<f64> = raw.iter().map(|r| r / raw_sum * offered * headroom).collect();
        let k = if unit() < 0.05 { 1e308 } else { 0.05 + 2.0 * unit() };
        // A row on one node, or a blend of the capacity-proportional row
        // (which overloads no node) with a sparse random one.
        let total_mu: f64 = mus.iter().sum();
        let simplex_row = |unit: &mut dyn FnMut() -> f64, concentrated: bool| {
            if concentrated {
                let at = (unit() * n as f64) as usize % n;
                return (0..n).map(|i| if i == at { 1.0 } else { 0.0 }).collect();
            }
            let mut row: Vec<f64> = (0..n).map(|_| (2.0 * unit() - 0.6).max(0.0)).collect();
            let sum: f64 = row.iter().sum();
            let blend = if sum > 0.0 { 0.4 * unit() } else { 0.0 };
            for (v, mu) in row.iter_mut().zip(&mus) {
                *v = (1.0 - blend) * mu / total_mu + if sum > 0.0 { blend * *v / sum } else { 0.0 };
            }
            let sum: f64 = row.iter().sum();
            row.iter_mut().for_each(|v| *v /= sum);
            row
        };
        let concentrated = unit() < 0.1;
        let initial: Vec<Vec<f64>> = (0..m).map(|_| simplex_row(&mut unit, concentrated)).collect();
        let seed = match unit() {
            u if u < 0.3 => {
                let rows: Vec<Vec<f64>> = (0..m).map(|_| simplex_row(&mut unit, false)).collect();
                // Off the simplex by drift, and by negative entries.
                Some(rows.into_iter().map(|r| r.iter().map(|v| v * 1.01 - 1e-3).collect()).collect())
            }
            u if u < 0.4 => Some(vec![vec![1.0 / (n + 1) as f64; n + 1]; m]),
            _ => None,
        };
        MultiCase {
            problem: MultiFileProblem { access_costs, rates, mus, k },
            initial,
            seed,
            alpha: 0.001 + 0.04 * unit() * unit(),
            epsilon: 10f64.powf(-3.0 - 4.0 * unit()),
            max_iterations: 50 + (unit() * 2000.0) as usize,
        }
    }

    /// Runs `case` through the fused product solve and the two-pass oracle.
    fn run_case(
        case: &MultiCase,
        tally: &mut CarryTally,
    ) -> (Result<MultiFileSolution, CoreError>, Result<MultiFileSolution, CoreError>) {
        let MultiCase { problem, initial, seed, alpha, epsilon, max_iterations } = case;
        let mut scratch = MultiFileScratch::new();
        if let Some(seed) = seed {
            scratch.start_from(seed);
        }
        let fused = problem.solve_with_scratch(
            initial,
            *alpha,
            *epsilon,
            *max_iterations,
            &mut scratch,
            &mut NoopRecorder,
        );
        let oracle = solve_two_pass(
            problem,
            initial,
            seed.as_deref(),
            *alpha,
            *epsilon,
            *max_iterations,
            tally,
        );
        (fused, oracle)
    }

    #[test]
    fn seeded_cases_keep_and_drop_carried_sets_and_reach_every_outcome() {
        let mut tally = CarryTally::default();
        let (mut converged, mut capped, mut overloaded, mut overflowed) = (0, 0, 0, 0);
        for seed in 0..200 {
            let case = multi_case(seed, 1 + seed as usize % 6, 2 + seed as usize % 39);
            let (fused, oracle) = run_case(&case, &mut tally);
            assert_eq!(format!("{fused:?}"), format!("{oracle:?}"), "seed {seed}");
            match fused {
                Ok(s) if s.converged => converged += 1,
                Ok(_) => capped += 1,
                Err(e) if e.to_string().contains("capacity") => overloaded += 1,
                Err(_) => overflowed += 1,
            }
        }
        let outcomes = [converged, capped, overloaded, overflowed];
        assert!(outcomes.iter().all(|c| *c > 0), "{outcomes:?} {tally:?}");
        assert!(tally.kept > tally.dropped && tally.dropped > 0, "{tally:?}");
    }

    proptest! {
        /// The fused pass returns the two-pass oracle's whole solution bit
        /// for bit (the `Debug` text of every float is exact and tells
        /// `-0.0` from `0.0`), or the same error: cold and warm starts,
        /// wrong-shape seeds, overloaded starts and overflowing costs.
        #[test]
        fn fused_file_pass_matches_the_two_pass_oracle(
            seed in 0u64..1 << 40,
            m in 1usize..7,
            n in 2usize..41,
        ) {
            let case = multi_case(seed, m, n);
            let (fused, oracle) = run_case(&case, &mut CarryTally::default());
            prop_assert_eq!(format!("{fused:?}"), format!("{oracle:?}"));
        }
    }
}
