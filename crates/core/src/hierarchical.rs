//! Hierarchical cluster-solve-refine: the file-allocation problem at node
//! counts where the exact solver no longer fits.
//!
//! The dense pipeline solves one `N`-dimensional problem over exact costs.
//! At `N = 10⁵` the cost matrix alone is a dead end, so this module solves
//! the problem in three stages on top of a [`LandmarkOracle`]:
//!
//! 1. **Aggregate** — collapse the network to its `K` landmark clusters:
//!    pooled service capacity `μ_a = Σ_{i∈a} μ_i`, hub-estimated access
//!    cost of each cluster's landmark, and solve the `K`-dimensional FAP
//!    for cluster shares `y_a` (`Σ_a y_a = 1`).
//! 2. **Per-cluster** — split each share among its members. Substituting
//!    `x_i = y_a·z_i` turns the restriction of equation 1 to cluster `a`
//!    into another [`SingleFileProblem`] with total rate `λ·y_a`, so the
//!    existing solver applies unchanged.
//! 3. **Refine** — resource-directed rounds *across* cluster boundaries:
//!    compute member marginals of the full estimated problem, step the
//!    cluster shares toward the high-marginal clusters, project back onto
//!    the simplex (capacity-capped), and re-solve the inner problems
//!    **warm-started** from their previous optima via
//!    [`OptimizerScratch::start_from`] — the PR-5 warm-path engine as the
//!    refinement engine. Rounds stop when the cluster-marginal spread
//!    falls below ε; each round increments the `hier.refine_rounds`
//!    counter.
//!
//! Everything is sequential and deterministic: the same oracle, workload
//! and config produce a bit-identical allocation, which is what lets the
//! scale bench pin checksums on the hierarchical path.
//!
//! # Multi-level trees
//!
//! At `N = 10⁶` under the substrate byte ceiling, `K` is forced down to
//! ~10² and a "cluster" grows to ~10⁴ members — too large for one flat
//! inner solve. [`solve_hierarchical`] therefore splits any
//! oversized cluster into a deterministic **cluster-of-clusters tree**:
//! members sort by `(home distance, index)`, split into near-even
//! contiguous chunks with the branching factor chosen so leaves stay
//! around 128–256 nodes, and each internal node repeats the
//! aggregate-solve / per-chunk-solve / share-refine pass of the flat
//! pipeline on its own members — warm-started from the shares and splits
//! of the previous visit. Depth 1 *is* the flat pipeline (delegated
//! verbatim, bit for bit — pinned by `tests/hier_multilevel.rs`).

use serde::{Deserialize, Serialize};

use fap_econ::{
    project_onto_simplex, AllocationProblem, OptimizerScratch, ResourceDirectedOptimizer,
    StepSize,
};
use fap_net::{AccessPattern, CostProvider, LandmarkOracle, NodeId};
use fap_obs::{
    emit_span, emit_span_end, emit_span_start, NoopRecorder, Recorder, TraceContext,
};
use fap_queue::Mm1Delay;

use crate::error::CoreError;
use crate::single::SingleFileProblem;

/// Leaf ceiling of the multi-level member tree: a cluster (or chunk) at
/// most this large is solved flat; anything larger is partitioned when
/// the solve has levels to spend.
const LEAF_MAX: usize = 256;

/// Tuning knobs for [`solve_hierarchical`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalConfig {
    /// Upper clamp on the dynamic step of the aggregate and per-cluster
    /// solves (they use [`StepSize::Dynamic`], whose utility backtracking
    /// keeps heavily-loaded inner subproblems clear of their capacity
    /// poles).
    pub alpha: f64,
    /// Marginal-spread convergence threshold, shared by every stage.
    pub epsilon: f64,
    /// Iteration cap per aggregate/inner solve.
    pub max_inner_iterations: usize,
    /// Cap on cross-cluster refinement rounds.
    pub max_refine_rounds: usize,
    /// Step size of the refinement updates on the cluster shares.
    pub refine_step: f64,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        HierarchicalConfig {
            alpha: 1.0,
            epsilon: 1e-6,
            max_inner_iterations: 200_000,
            max_refine_rounds: 8,
            refine_step: 0.05,
        }
    }
}

/// The result of a hierarchical solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalSolution {
    /// The global allocation `x` over all `N` nodes (`Σ x_i = 1`).
    pub allocation: Vec<f64>,
    /// Final cluster shares `y_a`.
    pub cluster_shares: Vec<f64>,
    /// Number of clusters `K`.
    pub clusters: usize,
    /// Iterations spent by the aggregate solve.
    pub aggregate_iterations: usize,
    /// Iterations spent by all per-cluster solves, over all rounds.
    pub inner_iterations: usize,
    /// Cross-cluster refinement rounds executed.
    pub refine_rounds: usize,
    /// Whether refinement converged (cluster-marginal spread below ε).
    pub converged: bool,
    /// Cost of the returned allocation under the oracle's estimated
    /// access costs (equation 1 with estimated `C_i`).
    pub estimated_cost: f64,
    /// Depth of the cluster tree the solve used (1 = flat
    /// cluster-solve-refine, the pre-multilevel pipeline).
    #[serde(default = "default_levels")]
    pub levels: usize,
}

fn default_levels() -> usize {
    1
}

/// Solves the single-file problem hierarchically on `oracle`, recording the
/// `hier.refine_rounds` counter (one increment per refinement round) and
/// the oracle's row-cache counters into `recorder`.
///
/// `levels` bounds the depth of the cluster tree: `1` is the flat
/// cluster-solve-refine pipeline, while deeper settings let any cluster
/// larger than ~256 members split recursively into near-even chunks of its
/// `(home distance, index)`-sorted members, each chunk solved through the
/// same aggregate/inner/refine pass. Use more levels when the substrate
/// byte ceiling forces `K` far below `N / 256` — at `N = 10⁶` with
/// `K ≈ 10²`, `levels = 3` keeps every inner solve a few hundred variables
/// wide.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for mismatched dimensions,
/// invalid config values or `levels == 0`,
/// [`CoreError::InsufficientCapacity`] when `Σ μ_i ≤ λ`, and any solver
/// error from the aggregate or per-cluster stages.
pub fn solve_hierarchical(
    oracle: &LandmarkOracle,
    pattern: &AccessPattern,
    mus: &[f64],
    k: f64,
    config: &HierarchicalConfig,
    levels: usize,
    recorder: &mut dyn Recorder,
) -> Result<HierarchicalSolution, CoreError> {
    if levels == 0 {
        return Err(CoreError::InvalidParameter("hierarchy depth must be at least 1 level".into()));
    }
    solve_hierarchical_impl(oracle, pattern, mus, k, config, levels, recorder)
}

/// [`solve_hierarchical`] under the name `perfbench/src/adapter.rs`
/// binds; delete it once the adapter calls [`solve_hierarchical`].
///
/// # Errors
///
/// Same conditions as [`solve_hierarchical`].
#[doc(hidden)]
pub fn solve_hierarchical_multilevel_observed(
    oracle: &LandmarkOracle,
    pattern: &AccessPattern,
    mus: &[f64],
    k: f64,
    config: &HierarchicalConfig,
    levels: usize,
    recorder: &mut dyn Recorder,
) -> Result<HierarchicalSolution, CoreError> {
    solve_hierarchical(oracle, pattern, mus, k, config, levels, recorder)
}

fn solve_hierarchical_impl(
    oracle: &LandmarkOracle,
    pattern: &AccessPattern,
    mus: &[f64],
    k: f64,
    config: &HierarchicalConfig,
    levels: usize,
    recorder: &mut dyn Recorder,
) -> Result<HierarchicalSolution, CoreError> {
    let n = oracle.node_count();
    if pattern.node_count() != n || mus.len() != n {
        return Err(CoreError::InvalidParameter(format!(
            "oracle covers {n} nodes, pattern {} and mus {}",
            pattern.node_count(),
            mus.len()
        )));
    }
    if !(config.alpha.is_finite()
        && config.alpha > 0.0
        && config.refine_step.is_finite()
        && config.refine_step > 0.0
        && config.epsilon.is_finite()
        && config.epsilon > 0.0)
    {
        return Err(CoreError::InvalidParameter(format!(
            "hierarchical config: alpha {}, refine_step {}, epsilon {}",
            config.alpha, config.refine_step, config.epsilon
        )));
    }
    let lambda = pattern.total_rate();

    // Tracing: the solve's phases land on a virtual iteration timeline —
    // each stage's width is the iterations it ran — nested under one
    // `hier.solve` span (a child of whatever context the caller installed).
    // The timeline is derived from solved iteration counts only, so a
    // traced run records the same spans every time.
    let mut tick = recorder.now();
    let base = tick;
    let prev_trace = recorder.current_trace();
    let root_ctx = if recorder.trace_enabled() {
        let id = recorder.reserve_span_ids(1);
        let ctx = match prev_trace {
            Some(parent) => parent.child(id),
            None => TraceContext::root(id),
        };
        emit_span_start(recorder, "hier.solve", ctx, base);
        // Install the solve as the current context so substrate markers
        // (cache hits, landmark-row drains) parent under it rather than
        // starting traces of their own.
        recorder.set_current_trace(Some(ctx));
        Some(ctx)
    } else {
        None
    };

    // The full problem under the oracle's estimated access costs: the
    // refinement marginals and the reported cost are evaluated on it.
    let est_costs = oracle.systemwide_access_costs(pattern);
    if let Some(root) = root_ctx {
        // The substrate pass takes no solver iterations: a zero-width span
        // marks where the hub-decomposed access costs were materialized.
        let id = recorder.reserve_span_ids(1);
        emit_span(recorder, "net.access_costs", root.child(id), tick, tick);
    }
    let full = SingleFileProblem::from_parts(
        est_costs.clone(),
        lambda,
        mus.iter().map(|&mu| Mm1Delay::new(mu)).collect::<Result<Vec<_>, _>>()?,
        k,
    )?;

    let clusters = oracle.cluster_members();
    let kk = clusters.len();
    let pooled_mu: Vec<f64> = clusters
        .iter()
        .map(|members| members.iter().map(|&i| mus[i.index()]).sum())
        .collect();
    // Share ceiling per cluster: the margin keeps every inner subproblem
    // strictly inside its pooled capacity (Σ caps > 1 whenever Σ μ > λ).
    let rho = lambda / pooled_mu.iter().sum::<f64>();
    let margin = (0.5 * (1.0 - rho)).min(1e-3);
    let caps: Vec<f64> = pooled_mu.iter().map(|&mu_a| mu_a / lambda * (1.0 - margin)).collect();

    let solver = ResourceDirectedOptimizer::new(StepSize::Dynamic {
        safety: 0.9,
        max: config.alpha,
    })
        .with_epsilon(config.epsilon)
        .with_max_iterations(config.max_inner_iterations);
    let mut scratch = OptimizerScratch::new();

    // Stage 1: aggregate K-cluster solve from a capacity-proportional
    // (hence feasible) start.
    let aggregate = SingleFileProblem::from_parts(
        (0..kk).map(|a| est_costs[oracle.landmarks()[a].index()]).collect(),
        lambda,
        pooled_mu.iter().map(|&mu_a| Mm1Delay::new(mu_a)).collect::<Result<Vec<_>, _>>()?,
        k,
    )?;
    let total_mu: f64 = pooled_mu.iter().sum();
    let y0: Vec<f64> = pooled_mu.iter().map(|&mu_a| mu_a / total_mu).collect();
    let agg_solution = solver.run_with_scratch(&aggregate, &y0, &mut scratch, &mut NoopRecorder)?;
    let aggregate_iterations = agg_solution.iterations;
    if let Some(root) = root_ctx {
        let id = recorder.reserve_span_ids(1);
        let end = tick + aggregate_iterations as u64;
        emit_span(recorder, "hier.aggregate", root.child(id), tick, end);
    }
    tick += aggregate_iterations as u64;
    let mut shares = agg_solution.allocation;
    clamp_to_caps(&mut shares, &caps);

    // Stage 2 state: per-cluster member splits z (x_i = y_a · z_i).
    let mut splits: Vec<Vec<f64>> = clusters
        .iter()
        .enumerate()
        .map(|(a, members)| {
            members.iter().map(|&i| mus[i.index()] / pooled_mu[a]).collect()
        })
        .collect();
    let mut inner_iterations = 0usize;
    solve_clusters(
        oracle, config, levels, &clusters, &shares, &est_costs, mus, lambda, k, margin,
        &solver, &mut scratch, &mut splits, &mut inner_iterations, false, recorder,
        &mut tick, root_ctx,
    )?;

    let mut x = compose(n, &clusters, &shares, &splits);
    let mut best_x = x.clone();
    let mut best_cost = full.cost_of(&best_x)?;
    let mut best_shares = shares.clone();

    // Stage 3: cross-cluster refinement with warm-started inner re-solves.
    let mut marginals = vec![0.0; n];
    let mut refine_rounds = 0usize;
    let mut converged = false;
    for _ in 0..config.max_refine_rounds {
        full.marginal_utilities(&x, &mut marginals)?;
        // Cluster marginal: allocation-weighted member marginal for active
        // clusters, best entrant marginal for empty ones.
        let cluster_marginals: Vec<f64> = clusters
            .iter()
            .enumerate()
            .map(|(a, members)| {
                if shares[a] > 0.0 {
                    members
                        .iter()
                        .zip(&splits[a])
                        .map(|(&i, &z)| z * marginals[i.index()])
                        .sum()
                } else {
                    members
                        .iter()
                        .map(|&i| marginals[i.index()])
                        .fold(f64::NEG_INFINITY, f64::max)
                }
            })
            .collect();
        let spread = cluster_marginals.iter().fold(f64::NEG_INFINITY, |m, &g| m.max(g))
            - cluster_marginals.iter().fold(f64::INFINITY, |m, &g| m.min(g));
        if spread < config.epsilon {
            converged = true;
            break;
        }
        refine_rounds += 1;
        recorder.incr("hier.refine_rounds", 1);
        let round_ctx = root_ctx.map(|root| {
            let id = recorder.reserve_span_ids(1);
            let ctx = root.child(id);
            emit_span_start(recorder, "hier.refine", ctx, tick);
            ctx
        });
        let round_start = tick;

        // Resource-directed step on the shares: move resource toward the
        // clusters whose members report higher marginal utility.
        let mean: f64 = shares.iter().zip(&cluster_marginals).map(|(&y, &g)| y * g).sum();
        for (y, &g) in shares.iter_mut().zip(&cluster_marginals) {
            *y += config.refine_step * (g - mean);
        }
        project_onto_simplex(&mut shares, 1.0);
        clamp_to_caps(&mut shares, &caps);

        solve_clusters(
            oracle, config, levels, &clusters, &shares, &est_costs, mus, lambda, k, margin,
            &solver, &mut scratch, &mut splits, &mut inner_iterations, true, recorder,
            &mut tick, round_ctx,
        )?;
        if let Some(ctx) = round_ctx {
            emit_span_end(recorder, "hier.refine", ctx, tick, tick - round_start);
        }
        x = compose(n, &clusters, &shares, &splits);
        let cost = full.cost_of(&x)?;
        if cost < best_cost {
            best_cost = cost;
            best_x.copy_from_slice(&x);
            best_shares.copy_from_slice(&shares);
        }
    }
    oracle.publish_metrics(recorder);
    if let Some(ctx) = root_ctx {
        emit_span_end(recorder, "hier.solve", ctx, tick, tick - base);
        recorder.set_current_trace(prev_trace);
    }

    Ok(HierarchicalSolution {
        allocation: best_x,
        cluster_shares: best_shares,
        clusters: kk,
        aggregate_iterations,
        inner_iterations,
        refine_rounds,
        converged,
        estimated_cost: best_cost,
        levels,
    })
}

/// Solves every active cluster's inner problem, updating `splits` in place
/// and adding iteration counts to `inner_iterations`. With `warm` set, each
/// solve is seeded from the cluster's previous split. When `parent` is set
/// (tracing), each inner solve emits a `hier.cluster_solve` child span of
/// its iteration width, advancing `tick` so the pass tiles the timeline.
#[allow(clippy::too_many_arguments)]
fn solve_clusters(
    oracle: &LandmarkOracle,
    config: &HierarchicalConfig,
    levels: usize,
    clusters: &[Vec<NodeId>],
    shares: &[f64],
    est_costs: &[f64],
    mus: &[f64],
    lambda: f64,
    k: f64,
    margin: f64,
    solver: &ResourceDirectedOptimizer,
    scratch: &mut OptimizerScratch,
    splits: &mut [Vec<f64>],
    inner_iterations: &mut usize,
    warm: bool,
    recorder: &mut dyn Recorder,
    tick: &mut u64,
    parent: Option<TraceContext>,
) -> Result<(), CoreError> {
    for (a, members) in clusters.iter().enumerate() {
        if shares[a] <= 0.0 || members.len() < 2 {
            // A zero-share or singleton cluster needs no inner solve; its
            // split stays at the previous (or capacity-proportional) value.
            continue;
        }
        if levels > 1 && members.len() > LEAF_MAX {
            // Oversized cluster with levels to spend: recurse into the
            // member tree instead of one huge flat inner solve.
            let mut z = std::mem::take(&mut splits[a]);
            solve_member_tree(
                oracle, members, est_costs, mus, lambda * shares[a], k, config, solver,
                scratch, levels - 1, &mut z, warm, inner_iterations, recorder, tick, parent,
            )?;
            splits[a] = z;
            continue;
        }
        let inner_rate = lambda * shares[a];
        let inner = SingleFileProblem::from_parts(
            members.iter().map(|&i| est_costs[i.index()]).collect(),
            inner_rate,
            members
                .iter()
                .map(|&i| Mm1Delay::new(mus[i.index()]))
                .collect::<Result<Vec<_>, _>>()?,
            k,
        )?;
        // A seed carried over from a smaller share can overload a member
        // once the share grows; clamp it back inside the member capacities
        // (the half-margin leaves the caps summing above one, so the clamp
        // always lands feasible).
        let member_caps: Vec<f64> = members
            .iter()
            .map(|&i| mus[i.index()] * (1.0 - 0.5 * margin) / inner_rate)
            .collect();
        clamp_to_caps(&mut splits[a], &member_caps);
        if warm {
            scratch.start_from(&splits[a]);
        }
        let solution =
            solver.run_with_scratch(&inner, &splits[a].clone(), scratch, &mut NoopRecorder)?;
        *inner_iterations += solution.iterations;
        if let Some(ctx) = parent {
            let id = recorder.reserve_span_ids(1);
            let end = *tick + solution.iterations as u64;
            emit_span(recorder, "hier.cluster_solve", ctx.child(id), *tick, end);
        }
        *tick += solution.iterations as u64;
        splits[a] = solution.allocation;
    }
    Ok(())
}

/// Solves one node of the multi-level member tree: the split `z` of
/// `rate` units of traffic over `members` (`Σ z = 1`).
///
/// A leaf (`members` within [`LEAF_MAX`], no levels left, or too small to
/// split) runs one flat inner solve. An internal node partitions the
/// `(home distance, index)`-sorted members into near-even contiguous
/// chunks, solves chunk shares on a pooled sub-aggregate, recurses into
/// each chunk, and runs a bounded share-refinement pass — the flat
/// three-stage pipeline replayed at every level, warm-started from the
/// incoming `z`. Every solver run lands a `hier.cluster_solve` span and
/// adds to `inner_iterations`, so the traced timeline partition stays
/// exact at any depth.
#[allow(clippy::too_many_arguments)]
fn solve_member_tree(
    oracle: &LandmarkOracle,
    members: &[NodeId],
    est_costs: &[f64],
    mus: &[f64],
    rate: f64,
    k: f64,
    config: &HierarchicalConfig,
    solver: &ResourceDirectedOptimizer,
    scratch: &mut OptimizerScratch,
    levels_below: usize,
    z: &mut Vec<f64>,
    warm: bool,
    inner_iterations: &mut usize,
    recorder: &mut dyn Recorder,
    tick: &mut u64,
    parent: Option<TraceContext>,
) -> Result<(), CoreError> {
    let m = members.len();
    if m < 2 {
        return Ok(());
    }
    let pooled: f64 = members.iter().map(|&i| mus[i.index()]).sum();
    let rho = rate / pooled;
    let margin = (0.5 * (1.0 - rho)).min(1e-3);

    if levels_below == 0 || m <= LEAF_MAX {
        // Leaf: one flat inner solve over the members, mirroring the
        // flat path's per-cluster stage.
        let inner = SingleFileProblem::from_parts(
            members.iter().map(|&i| est_costs[i.index()]).collect(),
            rate,
            members
                .iter()
                .map(|&i| Mm1Delay::new(mus[i.index()]))
                .collect::<Result<Vec<_>, _>>()?,
            k,
        )?;
        let member_caps: Vec<f64> = members
            .iter()
            .map(|&i| mus[i.index()] * (1.0 - 0.5 * margin) / rate)
            .collect();
        clamp_to_caps(z, &member_caps);
        if warm {
            scratch.start_from(z);
        }
        let solution = solver.run_with_scratch(&inner, &z.clone(), scratch, &mut NoopRecorder)?;
        *inner_iterations += solution.iterations;
        if let Some(ctx) = parent {
            let id = recorder.reserve_span_ids(1);
            let end = *tick + solution.iterations as u64;
            emit_span(recorder, "hier.cluster_solve", ctx.child(id), *tick, end);
        }
        *tick += solution.iterations as u64;
        *z = solution.allocation;
        return Ok(());
    }

    // Internal node: deterministic partition into near-even contiguous
    // chunks of the sorted member list. Sorting by distance to the home
    // landmark groups members of similar network position, so a chunk's
    // closest member is a fair access-cost representative for the chunk.
    let order = sorted_by_home_distance(oracle, members);
    let b = branching_factor(m, levels_below);
    let bounds: Vec<(usize, usize)> = (0..b).map(|c| (c * m / b, (c + 1) * m / b)).collect();
    let chunk_mu: Vec<f64> = bounds
        .iter()
        .map(|&(lo, hi)| order[lo..hi].iter().map(|&p| mus[members[p].index()]).sum())
        .collect();
    let chunk_cost: Vec<f64> = bounds
        .iter()
        .map(|&(lo, _)| est_costs[members[order[lo]].index()])
        .collect();
    let caps: Vec<f64> = chunk_mu.iter().map(|&mu_c| mu_c / rate * (1.0 - margin)).collect();

    // Chunk shares seeded from the incoming split's chunk sums (they sum
    // to 1 whenever z does), then solved on the pooled sub-aggregate.
    let aggregate = SingleFileProblem::from_parts(
        chunk_cost,
        rate,
        chunk_mu.iter().map(|&mu_c| Mm1Delay::new(mu_c)).collect::<Result<Vec<_>, _>>()?,
        k,
    )?;
    let mut shares: Vec<f64> = bounds
        .iter()
        .map(|&(lo, hi)| order[lo..hi].iter().map(|&p| z[p]).sum())
        .collect();
    if shares.iter().sum::<f64>() <= 0.5 {
        // Unusable incoming split (e.g. a cluster that held zero share
        // all along): fall back to the capacity-proportional start.
        for (y, &mu_c) in shares.iter_mut().zip(&chunk_mu) {
            *y = mu_c / pooled;
        }
    }
    clamp_to_caps(&mut shares, &caps);
    if warm {
        scratch.start_from(&shares);
    }
    let agg = solver.run_with_scratch(&aggregate, &shares.clone(), scratch, &mut NoopRecorder)?;
    *inner_iterations += agg.iterations;
    if let Some(ctx) = parent {
        let id = recorder.reserve_span_ids(1);
        let end = *tick + agg.iterations as u64;
        emit_span(recorder, "hier.cluster_solve", ctx.child(id), *tick, end);
    }
    *tick += agg.iterations as u64;
    shares = agg.allocation;
    clamp_to_caps(&mut shares, &caps);

    // Per-chunk sub-splits w (z_p = share_c · w_p), seeded from the
    // incoming z where it carries mass, capacity-proportional otherwise.
    let chunk_members: Vec<Vec<NodeId>> = bounds
        .iter()
        .map(|&(lo, hi)| order[lo..hi].iter().map(|&p| members[p]).collect())
        .collect();
    let mut subsplits: Vec<Vec<f64>> = bounds
        .iter()
        .enumerate()
        .map(|(c, &(lo, hi))| {
            let total: f64 = order[lo..hi].iter().map(|&p| z[p]).sum();
            if total > 0.0 {
                order[lo..hi].iter().map(|&p| z[p] / total).collect()
            } else {
                order[lo..hi]
                    .iter()
                    .map(|&p| mus[members[p].index()] / chunk_mu[c])
                    .collect()
            }
        })
        .collect();
    for (c, chunk) in chunk_members.iter().enumerate() {
        if shares[c] <= 0.0 || chunk.len() < 2 {
            continue;
        }
        solve_member_tree(
            oracle, chunk, est_costs, mus, rate * shares[c], k, config, solver, scratch,
            levels_below - 1, &mut subsplits[c], warm, inner_iterations, recorder, tick,
            parent,
        )?;
    }

    // Bounded share refinement across the chunks. The root's refine loop
    // already re-visits this whole subtree warm each round, so a couple
    // of local rounds are enough to even out chunk marginals.
    let member_problem = SingleFileProblem::from_parts(
        members.iter().map(|&i| est_costs[i.index()]).collect(),
        rate,
        members
            .iter()
            .map(|&i| Mm1Delay::new(mus[i.index()]))
            .collect::<Result<Vec<_>, _>>()?,
        k,
    )?;
    let mut zc = compose_members(m, &bounds, &order, &shares, &subsplits);
    let mut best_z = zc.clone();
    let mut best_cost = member_problem.cost_of(&zc)?;
    let mut marginals = vec![0.0; m];
    for _ in 0..config.max_refine_rounds.min(2) {
        member_problem.marginal_utilities(&zc, &mut marginals)?;
        let chunk_marginals: Vec<f64> = bounds
            .iter()
            .enumerate()
            .map(|(c, &(lo, hi))| {
                if shares[c] > 0.0 {
                    order[lo..hi]
                        .iter()
                        .zip(&subsplits[c])
                        .map(|(&p, &w)| w * marginals[p])
                        .sum()
                } else {
                    order[lo..hi]
                        .iter()
                        .map(|&p| marginals[p])
                        .fold(f64::NEG_INFINITY, f64::max)
                }
            })
            .collect();
        let spread = chunk_marginals.iter().fold(f64::NEG_INFINITY, |s, &g| s.max(g))
            - chunk_marginals.iter().fold(f64::INFINITY, |s, &g| s.min(g));
        if spread < config.epsilon {
            break;
        }
        let mean: f64 = shares.iter().zip(&chunk_marginals).map(|(&y, &g)| y * g).sum();
        for (y, &g) in shares.iter_mut().zip(&chunk_marginals) {
            *y += config.refine_step * (g - mean);
        }
        project_onto_simplex(&mut shares, 1.0);
        clamp_to_caps(&mut shares, &caps);
        for (c, chunk) in chunk_members.iter().enumerate() {
            if shares[c] <= 0.0 || chunk.len() < 2 {
                continue;
            }
            solve_member_tree(
                oracle, chunk, est_costs, mus, rate * shares[c], k, config, solver,
                scratch, levels_below - 1, &mut subsplits[c], true, inner_iterations,
                recorder, tick, parent,
            )?;
        }
        zc = compose_members(m, &bounds, &order, &shares, &subsplits);
        let cost = member_problem.cost_of(&zc)?;
        if cost < best_cost {
            best_cost = cost;
            best_z.copy_from_slice(&zc);
        }
    }
    *z = best_z;
    Ok(())
}

/// Indices into `members` sorted by `(distance to home landmark, node
/// index)` — a deterministic, machine-independent order (`total_cmp`
/// breaks no ties differently across platforms, and the node index
/// settles exact-distance ties).
fn sorted_by_home_distance(oracle: &LandmarkOracle, members: &[NodeId]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_by(|&p, &q| {
        oracle
            .home_distance(members[p])
            .total_cmp(&oracle.home_distance(members[q]))
            .then(members[p].cmp(&members[q]))
    });
    order
}

/// Smallest branching factor `B ≥ 2` whose `levels_below`-deep tree of
/// [`LEAF_MAX`]-sized leaves covers `m` members (`B^levels_below ·
/// LEAF_MAX ≥ m`), capped at `m` so no chunk is empty. Integer
/// arithmetic only: the result feeds committed checksums, so it must not
/// depend on platform `powf` rounding.
fn branching_factor(m: usize, levels_below: usize) -> usize {
    let mut b = 2usize;
    loop {
        let mut capacity = LEAF_MAX;
        let mut saturated = false;
        for _ in 0..levels_below {
            match capacity.checked_mul(b) {
                Some(c) => capacity = c,
                None => {
                    saturated = true;
                    break;
                }
            }
        }
        if saturated || capacity >= m {
            return b.min(m);
        }
        b += 1;
    }
}

/// Assembles a member split `z_p = share_c · w_p` from chunk shares and
/// per-chunk sub-splits, back in the original `members` order.
fn compose_members(
    m: usize,
    bounds: &[(usize, usize)],
    order: &[usize],
    shares: &[f64],
    subsplits: &[Vec<f64>],
) -> Vec<f64> {
    let mut z = vec![0.0; m];
    for (c, &(lo, hi)) in bounds.iter().enumerate() {
        if shares[c] <= 0.0 {
            continue;
        }
        for (&p, &w) in order[lo..hi].iter().zip(&subsplits[c]) {
            z[p] = shares[c] * w;
        }
    }
    z
}

/// Assembles the global allocation `x_i = y_{home(i)} · z_i`.
fn compose(n: usize, clusters: &[Vec<NodeId>], shares: &[f64], splits: &[Vec<f64>]) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for (a, members) in clusters.iter().enumerate() {
        if shares[a] <= 0.0 {
            continue;
        }
        for (&i, &z) in members.iter().zip(&splits[a]) {
            x[i.index()] = shares[a] * z;
        }
    }
    x
}

/// Caps each share at its cluster's capacity ceiling, redistributing the
/// excess to clusters with remaining headroom (preserves `Σ y = 1`;
/// `Σ caps > 1` guarantees termination with every cap respected).
fn clamp_to_caps(shares: &mut [f64], caps: &[f64]) {
    for _ in 0..shares.len() {
        let mut excess = 0.0;
        for (y, &cap) in shares.iter_mut().zip(caps) {
            if *y > cap {
                excess += *y - cap;
                *y = cap;
            }
        }
        if excess <= 0.0 {
            return;
        }
        let slack: f64 =
            shares.iter().zip(caps).map(|(&y, &cap)| (cap - y).max(0.0)).sum();
        if slack <= 0.0 {
            return;
        }
        for (y, &cap) in shares.iter_mut().zip(caps) {
            let head = cap - *y;
            if head > 0.0 {
                *y += excess * head / slack;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use fap_net::{topology, LandmarkOracle};

    fn mesh_setup(n: usize, seed: u64) -> (LandmarkOracle, AccessPattern, Vec<f64>) {
        let g = topology::random_connected(n, 0.15, 1.0..4.0, seed).unwrap();
        let oracle = LandmarkOracle::build(&g, (n / 6).max(2), 11).unwrap();
        let pattern = AccessPattern::random(n, 0.2..2.0, seed + 1).unwrap();
        let mu = 4.0 * pattern.total_rate() / n as f64;
        (oracle, pattern, vec![mu; n])
    }

    #[test]
    fn allocation_is_feasible_and_deterministic() {
        let (oracle, pattern, mus) = mesh_setup(36, 5);
        let cfg = HierarchicalConfig::default();
        let a =
            solve_hierarchical(&oracle, &pattern, &mus, 1.0, &cfg, 1, &mut NoopRecorder).unwrap();
        let total: f64 = a.allocation.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sums to {total}");
        assert!(a.allocation.iter().all(|&x| x >= 0.0));
        let b =
            solve_hierarchical(&oracle, &pattern, &mus, 1.0, &cfg, 1, &mut NoopRecorder).unwrap();
        for (p, q) in a.allocation.iter().zip(&b.allocation) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn refinement_never_worsens_the_estimated_cost() {
        let (oracle, pattern, mus) = mesh_setup(30, 9);
        let no_refine =
            HierarchicalConfig { max_refine_rounds: 0, ..HierarchicalConfig::default() };
        let base = solve_hierarchical(
            &oracle,
            &pattern,
            &mus,
            1.0,
            &no_refine,
            1,
            &mut NoopRecorder,
        )
        .unwrap();
        let refined = solve_hierarchical(
            &oracle,
            &pattern,
            &mus,
            1.0,
            &HierarchicalConfig::default(),
            1,
            &mut NoopRecorder,
        )
        .unwrap();
        assert!(refined.estimated_cost <= base.estimated_cost + 1e-12);
    }

    #[test]
    fn close_to_exact_on_a_small_mesh() {
        let (oracle, pattern, mus) = mesh_setup(24, 3);
        let refined = solve_hierarchical(
            &oracle,
            &pattern,
            &mus,
            1.0,
            &HierarchicalConfig::default(),
            1,
            &mut NoopRecorder,
        )
        .unwrap();
        // Exact optimum of the *estimated* problem bounds what the
        // hierarchical pipeline can achieve on it.
        let est = SingleFileProblem::from_parts(
            oracle.systemwide_access_costs(&pattern),
            pattern.total_rate(),
            mus.iter().map(|&m| Mm1Delay::new(m).unwrap()).collect(),
            1.0,
        )
        .unwrap();
        let exact = reference::solve(&est).unwrap();
        let exact_cost = est.cost_of(&exact.allocation).unwrap();
        assert!(
            refined.estimated_cost <= exact_cost * 1.05 + 1e-9,
            "hierarchical {} vs exact {exact_cost}",
            refined.estimated_cost
        );
    }

    #[test]
    fn records_refine_rounds() {
        let (oracle, pattern, mus) = mesh_setup(30, 7);
        let mut registry = fap_obs::MetricsRegistry::new();
        let cfg = HierarchicalConfig { epsilon: 1e-12, ..HierarchicalConfig::default() };
        let sol = solve_hierarchical(
            &oracle, &pattern, &mus, 1.0, &cfg, 1, &mut registry,
        )
        .unwrap();
        assert_eq!(registry.counter("hier.refine_rounds"), sol.refine_rounds as u64);
        assert!(sol.refine_rounds > 0, "tight epsilon should force refinement");
    }

    #[test]
    fn traced_solve_attributes_every_iteration_to_a_phase() {
        let (oracle, pattern, mus) = mesh_setup(30, 7);
        let cfg = HierarchicalConfig { epsilon: 1e-12, ..HierarchicalConfig::default() };
        let mut fr = fap_obs::FlightRecorder::default();
        let sol =
            solve_hierarchical(&oracle, &pattern, &mus, 1.0, &cfg, 1, &mut fr)
                .unwrap();
        assert_eq!(fr.completed_traces(), 1);
        let root = *fr.recent().next().unwrap();
        assert_eq!(root.name, "hier.solve");
        assert_eq!(
            root.dur,
            (sol.aggregate_iterations + sol.inner_iterations) as u64,
            "the root span covers exactly the iterations the stages ran"
        );
        // Self time partitions the root: leaves (aggregate + cluster
        // solves) own every tick, containers (refine rounds, the root) own
        // none — so `hier` holds it all and the partition is exact.
        let self_total: u64 = fr.layer_self_times().map(|(_, v)| v).sum();
        assert_eq!(self_total, root.dur);
        assert_eq!(fr.layer_self_time("hier"), root.dur);
        assert_eq!(fr.layer_self_time("net"), 0, "access costs are zero-width");
        assert_eq!(fr.dropped_spans(), 0);
        // Tracing never perturbs the solution.
        let untraced =
            solve_hierarchical(&oracle, &pattern, &mus, 1.0, &cfg, 1, &mut NoopRecorder).unwrap();
        assert_eq!(sol, untraced);
    }

    #[test]
    fn multilevel_rejects_zero_levels() {
        let (oracle, pattern, mus) = mesh_setup(20, 2);
        assert!(matches!(
            solve_hierarchical(
                &oracle,
                &pattern,
                &mus,
                1.0,
                &HierarchicalConfig::default(),
                0,
                &mut NoopRecorder,
            ),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn multilevel_tree_is_feasible_deterministic_and_competitive() {
        // Two landmarks over 600 nodes force ~300-member clusters, past
        // the 256-node leaf ceiling, so a 3-level solve actually splits.
        let n = 600;
        let g = topology::random_connected(n, 0.02, 1.0..4.0, 17).unwrap();
        let oracle = LandmarkOracle::build(&g, 2, 11).unwrap();
        let pattern = AccessPattern::random(n, 0.2..2.0, 18).unwrap();
        let mu = 4.0 * pattern.total_rate() / n as f64;
        let mus = vec![mu; n];
        // Scale-relative epsilon and a modest iteration cap: the default
        // absolute 1e-6 is needlessly tight at a 600-node problem scale
        // and would make this a minutes-long test.
        let cfg = HierarchicalConfig {
            epsilon: 1e-4 * pattern.total_rate(),
            max_inner_iterations: 20_000,
            max_refine_rounds: 2,
            ..HierarchicalConfig::default()
        };
        let deep =
            solve_hierarchical(&oracle, &pattern, &mus, 1.0, &cfg, 3, &mut NoopRecorder).unwrap();
        assert_eq!(deep.levels, 3);
        let total: f64 = deep.allocation.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sums to {total}");
        assert!(deep.allocation.iter().all(|&x| x >= 0.0));
        let again =
            solve_hierarchical(&oracle, &pattern, &mus, 1.0, &cfg, 3, &mut NoopRecorder).unwrap();
        for (p, q) in deep.allocation.iter().zip(&again.allocation) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // The tree is an approximation of the flat solve, not a free
        // lunch — but it must stay in the same cost neighbourhood.
        let flat =
            solve_hierarchical(&oracle, &pattern, &mus, 1.0, &cfg, 1, &mut NoopRecorder).unwrap();
        assert!(
            deep.estimated_cost <= flat.estimated_cost * 1.25 + 1e-9,
            "tree {} vs flat {}",
            deep.estimated_cost,
            flat.estimated_cost
        );
    }

    #[test]
    fn branching_factor_is_minimal_and_covers() {
        for &(m, levels) in
            &[(300usize, 1usize), (300, 2), (1024, 1), (5000, 2), (1_000_000, 3), (513, 1)]
        {
            let b = branching_factor(m, levels);
            assert!(b >= 2);
            assert!(b.pow(levels as u32) * LEAF_MAX >= m, "b={b} m={m} t={levels}");
            if b > 2 {
                let smaller = b - 1;
                assert!(
                    smaller.pow(levels as u32) * LEAF_MAX < m,
                    "b={b} not minimal for m={m} t={levels}"
                );
            }
        }
        // Tiny member lists never get more chunks than members.
        assert!(branching_factor(3, 5) <= 3);
    }

    #[test]
    fn member_sort_orders_by_home_distance_then_index() {
        let (oracle, _pattern, _mus) = mesh_setup(30, 4);
        let members: Vec<NodeId> = (0..30).map(NodeId::new).collect();
        let order = sorted_by_home_distance(&oracle, &members);
        for w in order.windows(2) {
            let (p, q) = (members[w[0]], members[w[1]]);
            let (dp, dq) = (oracle.home_distance(p), oracle.home_distance(q));
            assert!(dp < dq || (dp == dq && p < q));
        }
    }

    #[test]
    fn rejects_mismatched_dimensions() {
        let (oracle, _pattern, mus) = mesh_setup(20, 2);
        let short = AccessPattern::uniform(10, 1.0).unwrap();
        assert!(matches!(
            solve_hierarchical(
                &oracle,
                &short,
                &mus,
                1.0,
                &HierarchicalConfig::default(),
                1,
                &mut NoopRecorder,
            ),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn clamp_preserves_total_and_caps() {
        let mut y = vec![0.7, 0.2, 0.1];
        let caps = vec![0.4, 0.5, 0.6];
        clamp_to_caps(&mut y, &caps);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (v, c) in y.iter().zip(&caps) {
            assert!(v <= &(c + 1e-12));
        }
    }
}
