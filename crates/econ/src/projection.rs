//! Reallocation steps and the paper's "set A" boundary procedure.
//!
//! One iteration of the resource-directed algorithm moves the allocation by
//!
//! ```text
//! Δx_i = α · w_i · ( g_i − avg_w )        over the active set A
//! avg_w = Σ_{j∈A} w_j g_j / Σ_{j∈A} w_j
//! ```
//!
//! where `g_i = ∂U/∂x_i` and the weights `w_i` are all 1 for the first-order
//! algorithm (recovering the paper's §5.2 step exactly) or `1/|∂²U/∂x_i²|`
//! for the second-derivative variant of §8.2. In either case
//! `Σ_{i∈A} Δx_i = 0` identically, which is what makes every iteration
//! feasibility-preserving (paper Theorem 1).
//!
//! Non-negativity is handled by a [`BoundaryRule`]:
//!
//! * [`BoundaryRule::FreezeActiveSet`] — the paper's §5.2 procedure: agents
//!   whose update would drive them negative are excluded from `A` (their
//!   allocation freezes this iteration), then excluded agents with
//!   above-average marginal utility are re-admitted in decreasing marginal
//!   order (steps (i)–(v) of the paper).
//! * [`BoundaryRule::ClampToZero`] — violators land exactly on `x = 0` and
//!   release their mass to the free agents (the default). Under uniform
//!   weights Michelot's threshold rounds predict the whole pinned set
//!   without a sort, so a step costs O(n) per round (a handful of rounds in
//!   practice, O(n log n) at worst) however many agents it pins.
//! * [`BoundaryRule::ScaleStep`] — shrink the whole step uniformly until no
//!   agent goes negative (preserves the step direction).
//! * [`BoundaryRule::Unconstrained`] — no boundary handling; allocations may
//!   transiently go negative. This is what the paper's own Figure 3
//!   simulation evidently does: with `α = 0.67` from start `(0.8, 0.1, 0.1,
//!   0.0)` the first step drives node 1 to `x < 0`, yet the paper reports
//!   4-iteration convergence, which only the unconstrained update achieves.

use serde::{Deserialize, Serialize};

/// How an iteration treats agents that a raw step would drive below zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum BoundaryRule {
    /// The paper's §5.2 set-A procedure (freeze violators, re-admit
    /// high-marginal agents). Note the known limitation the paper does not
    /// address: an agent whose step *overshoots* zero from a clearly
    /// positive allocation freezes in place and can stall short of (or far
    /// from) the boundary; use [`BoundaryRule::ClampToZero`] when the
    /// optimum is expected to have agents exactly at zero.
    FreezeActiveSet,
    /// Violators move exactly onto the boundary (`x = 0`) and release their
    /// whole allocation to the remaining agents. A safeguarded variant of
    /// the paper's rule that converges cleanly to boundary optima and never
    /// deadlocks on step overshoot; the default.
    ///
    /// Pinning cascades: each pin raises the free agents' shares. Under
    /// uniform weights the whole pinned set is predicted from the keys
    /// `x_i + α·w·g_i` by Michelot's threshold rounds: each round drops
    /// every free key below the threshold of the free set, until a round
    /// drops no one. After 32 rounds the survivors are sorted and a prefix
    /// sweep finishes the set. The one-pin-per-pass loop then only checks
    /// the prediction and settles fp near-ties, each pass in two O(n)
    /// sweeps, so a step costs a few O(n) sweeps (O(n log n) at worst)
    /// rather than one O(n) pass per pinned agent. The result is
    /// bit-identical to the loop alone.
    ///
    /// Near convergence the pinned set stops changing, so a
    /// [`StepWorkspace`] carries its last step's final active set forward
    /// and the next uniform-weight step of the same length first tries that
    /// set in a single pass; it keeps the result only when every free agent
    /// and every carried pinned agent clears the step's threshold by the
    /// prediction's margin, which makes it the same step bit for bit.
    #[default]
    ClampToZero,
    /// Uniformly scale the step back until all allocations stay
    /// non-negative.
    ScaleStep,
    /// Apply the raw step; allocations may transiently go negative.
    Unconstrained,
}

/// The outcome of computing one reallocation step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Per-agent changes `Δx_i`; zero for agents outside the active set.
    pub deltas: Vec<f64>,
    /// Membership of the active set `A`.
    pub active: Vec<bool>,
    /// Factor the step was scaled by (1.0 except under
    /// [`BoundaryRule::ScaleStep`]).
    pub scale: f64,
}

impl StepOutcome {
    /// Number of agents in the active set.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }
}

/// Threshold rounds a clamp-to-zero prediction runs before it sorts the
/// agents still free (see [`pin_predicted`]).
const MAX_ROUNDS: usize = 32;

/// Reusable buffers for [`compute_step_into`]: the hot-loop variant of
/// [`compute_step`] that allocates nothing once the workspace has been
/// warmed to the problem dimension.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepWorkspace {
    deltas: Vec<f64>,
    active: Vec<bool>,
    scale: f64,
    /// Clamp keys `x_i + α·w·g_i` of the clamp-to-zero prediction.
    keys: Vec<f64>,
    /// The prediction's free list: agents still free in front, agents
    /// dropped by a threshold round behind them.
    order: Vec<usize>,
    passes: usize,
    /// Whether `active` holds the final active set of a clamp-to-zero step
    /// that pinned some agents but not all, for the next step to try.
    carry: bool,
    /// Threshold rounds the last step's prediction ran.
    #[cfg(test)]
    rounds: usize,
    /// Whether the last step tried a carried active set and dropped it.
    #[cfg(test)]
    carry_rejected: bool,
}

impl StepWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        StepWorkspace::default()
    }

    /// Per-agent changes `Δx_i` of the last computed step; zero for agents
    /// outside the active set.
    pub fn deltas(&self) -> &[f64] {
        &self.deltas
    }

    /// Membership of the active set `A` of the last computed step.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Factor the last step was scaled by (1.0 except under
    /// [`BoundaryRule::ScaleStep`]).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Number of agents in the active set of the last computed step.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Cascade passes the last step took under
    /// [`BoundaryRule::ClampToZero`] (each pass recomputes every delta, and
    /// trying the previous step's active set counts as one); 0 under the
    /// other rules.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Copies the workspace out into an owned [`StepOutcome`].
    pub fn to_outcome(&self) -> StepOutcome {
        StepOutcome { deltas: self.deltas.clone(), active: self.active.clone(), scale: self.scale }
    }

    /// Resizes the buffers for `n` agents: all agents active (unless
    /// `keep_active` keeps the carried set), scale 1, no passes, nothing
    /// carried. Allocation-free once capacity covers `n`;
    /// the key and free-list buffers grow on the first step that predicts a
    /// clamp cascade.
    fn reset(&mut self, n: usize, keep_active: bool) {
        // Every rule writes every delta, so only the length is reset.
        self.deltas.resize(n, 0.0);
        if !keep_active {
            self.active.clear();
            self.active.resize(n, true);
        }
        self.scale = 1.0;
        self.passes = 0;
        self.carry = false;
        #[cfg(test)]
        {
            self.rounds = 0;
            self.carry_rejected = false;
        }
    }
}

/// Re-projects an allocation onto the simplex `Σ x_i = total, x_i ≥ 0`.
///
/// This is the warm-start companion of the set-A procedure: a previously
/// converged allocation reused as a seed may carry tiny feasibility drift
/// (accumulated rounding, or boundary agents at `−1e-17` from a clamped
/// step), and the optimizer's Theorem-1 argument needs every *starting*
/// iterate exactly feasible. The projection
///
/// 1. clamps negative (and NaN) entries to the boundary `x_i = 0` — exactly
///    what the set-A rules do to violators, so the seed's active set is
///    preserved;
/// 2. rescales the remaining mass to `Σ x_i = total` (zeros stay zero);
/// 3. absorbs the final rounding residue into the largest coordinate, so the
///    budget constraint holds exactly rather than to within an ulp;
/// 4. falls back to the uniform allocation if the seed carried no positive
///    mass at all.
///
/// # Panics
///
/// Panics if `total` is not positive and finite.
pub fn project_onto_simplex(x: &mut [f64], total: f64) {
    assert!(total.is_finite() && total > 0.0, "simplex total must be positive and finite");
    if x.is_empty() {
        return;
    }
    let mut sum = 0.0;
    for v in x.iter_mut() {
        if v.is_nan() || *v <= 0.0 {
            *v = 0.0;
        }
        sum += *v;
    }
    if sum > 0.0 {
        let scale = total / sum;
        for v in x.iter_mut() {
            *v *= scale;
        }
        let imax = (0..x.len())
            .max_by(|&a, &b| x[a].total_cmp(&x[b]))
            .expect("non-empty slice");
        let others: f64 = x.iter().enumerate().filter(|(i, _)| *i != imax).map(|(_, v)| v).sum();
        x[imax] = (total - others).max(0.0);
    } else {
        x.fill(total / x.len() as f64);
    }
}

/// Computes one reallocation step.
///
/// `weights` are the per-agent step weights (`w_i` above); pass all-ones for
/// the paper's first-order algorithm. All slices must have equal length, the
/// step size `alpha` must be positive and finite, and weights must be
/// positive; violations are programming errors.
///
/// This is a thin wrapper over [`compute_step_into`] with a fresh
/// [`StepWorkspace`]; hot loops should hold a workspace and call the `_into`
/// variant directly.
///
/// # Panics
///
/// Panics if slice lengths differ, `alpha` is not positive and finite, or
/// any weight is not positive and finite.
pub fn compute_step(
    x: &[f64],
    marginals: &[f64],
    weights: &[f64],
    alpha: f64,
    rule: BoundaryRule,
) -> StepOutcome {
    let mut ws = StepWorkspace::new();
    compute_step_into(x, marginals, weights, alpha, rule, &mut ws);
    StepOutcome { deltas: ws.deltas, active: ws.active, scale: ws.scale }
}

/// Computes one reallocation step into a reusable [`StepWorkspace`].
///
/// Semantics are identical to [`compute_step`] (bit-for-bit: the same
/// arithmetic in the same order); the only difference is that results land
/// in the workspace's buffers, so steady-state iterations perform zero heap
/// allocations.
///
/// # Panics
///
/// Same conditions as [`compute_step`].
pub fn compute_step_into(
    x: &[f64],
    marginals: &[f64],
    weights: &[f64],
    alpha: f64,
    rule: BoundaryRule,
    workspace: &mut StepWorkspace,
) {
    let n = x.len();
    assert_eq!(marginals.len(), n, "marginals length mismatch");
    assert_eq!(weights.len(), n, "weights length mismatch");
    assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive and finite");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "weights must be positive and finite"
    );

    if rule == BoundaryRule::ClampToZero {
        match weights.first().filter(|&&w0| weights.iter().all(|w| *w == w0)) {
            Some(&w) => clamp_into(x, marginals, w, alpha, workspace),
            None => clamp_into(x, marginals, Unequal(weights), alpha, workspace),
        };
        return;
    }
    workspace.reset(n, false);
    let StepWorkspace { deltas, active, scale, .. } = workspace;
    match rule {
        BoundaryRule::Unconstrained => {
            raw_deltas_into(marginals, weights, active, alpha, deltas);
        }
        BoundaryRule::ScaleStep => {
            raw_deltas_into(marginals, weights, active, alpha, deltas);
            // Largest s in (0, 1] with x_i + s·Δ_i ≥ 0 for all i.
            let mut s = 1.0f64;
            for i in 0..n {
                if deltas[i] < 0.0 {
                    let limit = -x[i] / deltas[i]; // ≥ 0 since x_i ≥ 0
                    s = s.min(limit);
                }
            }
            s = s.clamp(0.0, 1.0);
            for d in deltas.iter_mut() {
                *d *= s;
            }
            *scale = s;
        }
        BoundaryRule::FreezeActiveSet => {
            freeze_active_set_into(x, marginals, weights, alpha, deltas, active);
        }
        BoundaryRule::ClampToZero => unreachable!("clamp steps return above"),
    }
}

/// The final free set `A` of a clamp-to-zero step, summarized by the sweep
/// that computed the step's average (see [`clamp_step_into`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeSet {
    /// Number of free agents `|A|`.
    pub count: usize,
    /// The step's average marginal `Σ_A w·g_i / Σ_A w`, summed in index
    /// order: bit for bit the plain mean `Σ_A g_i / |A|` when `w = 1`, and
    /// 0 when `A` is empty.
    pub mean: f64,
    /// `max_A g_i − min_A g_i`, or 0 when that is not positive.
    pub spread: f64,
}

impl FreeSet {
    fn new(count: usize, mean: f64, lo: f64, hi: f64) -> Self {
        FreeSet { count, mean, spread: if hi > lo { hi - lo } else { 0.0 } }
    }
}

/// The [`BoundaryRule::ClampToZero`] step under the uniform weight
/// `weight`, into a reusable [`StepWorkspace`]: [`compute_step_into`] with
/// every weight equal to `weight` runs exactly this. Returns the step's
/// final free set, folded into the sweep that computed its average, so a
/// caller that needs the free agents' marginal spread or mean reads them
/// without another pass.
///
/// # Panics
///
/// Panics if the slice lengths differ or `alpha` or `weight` is not
/// positive and finite.
pub fn clamp_step_into(
    x: &[f64],
    marginals: &[f64],
    weight: f64,
    alpha: f64,
    workspace: &mut StepWorkspace,
) -> FreeSet {
    assert_eq!(marginals.len(), x.len(), "marginals length mismatch");
    assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive and finite");
    assert!(weight.is_finite() && weight > 0.0, "weights must be positive and finite");
    clamp_into(x, marginals, weight, alpha, workspace)
}

/// Step weights as the clamp loop reads them: one weight shared by every
/// agent (`f64`), or per-agent weights that are not all equal.
trait Weights: Copy {
    fn at(self, i: usize) -> f64;
    /// The shared weight, when there is one.
    fn uniform(self) -> Option<f64>;
}

impl Weights for f64 {
    #[inline]
    fn at(self, _: usize) -> f64 {
        self
    }

    fn uniform(self) -> Option<f64> {
        Some(self)
    }
}

/// Per-agent weights that [`compute_step_into`] found unequal.
#[derive(Clone, Copy)]
struct Unequal<'a>(&'a [f64]);

impl Weights for Unequal<'_> {
    #[inline]
    fn at(self, i: usize) -> f64 {
        self.0[i]
    }

    fn uniform(self) -> Option<f64> {
        None
    }
}

/// The clamp-to-zero step into `workspace`. A uniform-weight step of the
/// same length as the last one, which pinned some agents but not all,
/// first tries that step's final active set ([`try_carried_set`]); the
/// cascade from all-active ([`clamp_to_zero_into`]) settles every other
/// step.
fn clamp_into<W: Weights>(
    x: &[f64],
    marginals: &[f64],
    weights: W,
    alpha: f64,
    workspace: &mut StepWorkspace,
) -> FreeSet {
    let n = x.len();
    let uniform = weights.uniform();
    let carried = uniform.is_some() && workspace.carry && workspace.active.len() == n;
    workspace.reset(n, carried);
    let StepWorkspace { deltas, active, keys, order, passes, carry, .. } = workspace;
    let held = match uniform {
        Some(w) if carried => try_carried_set(x, marginals, w, alpha, deltas, active),
        _ => None,
    };
    let (free, _rounds) = match held {
        Some(free) => {
            *passes = 1;
            (free, 0)
        }
        None => {
            if carried {
                active.fill(true);
            }
            let (clamp_passes, rounds, free) =
                clamp_to_zero_into(x, marginals, weights, alpha, deltas, active, keys, order);
            // A dropped carried set cost one pass.
            *passes = clamp_passes + usize::from(carried);
            (free, rounds)
        }
    };
    *carry = 0 < free.count && free.count < n;
    #[cfg(test)]
    {
        workspace.rounds = _rounds;
        workspace.carry_rejected = carried && held.is_none();
    }
    free
}

/// Violators are pinned exactly to zero (`Δx_v = −x_v`), releasing their
/// mass; the free agents share the released mass equally on top of their
/// zero-sum raw step. `active` enters all-true and tracks the not-yet-pinned
/// set; the return value is the number of passes, the number of threshold
/// rounds the prediction ran (0 without one) and the final free set, whose
/// spread the first sweep folds in beside its sums.
///
/// Each pass pins one violator (the lowest marginal, the first of equals)
/// and recomputes every delta in two sweeps: one accumulates the free
/// count, `Σ w·g` and `Σ w` over the free set and the released `Σ x` over
/// the pinned set, the other writes the deltas and finds the violators. On
/// its own the loop takes `p + 1` O(n) passes for a step that pins `p`
/// agents. With uniform weights (every first-order solve) the final pinned
/// set is known up front: with `c = α·w` and key `k_i = x_i + c·g_i`,
/// agent `i` violates over active set `A` exactly when
/// `k_i < θ_A = (c·Σ_A g − Σ_{j∉A} x_j)/|A|`, and each pin raises `θ_A`.
/// Violators therefore stay violators until pinned: the step is the
/// Euclidean projection of the keys onto the simplex, and the final pinned
/// set is `{i : k_i < θ}` at its final threshold, whatever the pin order.
///
/// The first pass that shows the cascade pins more than one agent (it finds
/// two violators, or a violator after a pin) hands over to
/// [`pin_predicted`], which pins every agent whose key is clearly below the
/// final threshold in O(n) per threshold round. The loop then runs
/// unchanged from that set: its next pass checks the prediction, pins any
/// near-tie agent left over one per pass, and writes the deltas. Since the
/// deltas are a function of the final active set alone (each sum keeps its
/// index order and start value), the step is bit-identical to the loop's
/// own. With unequal weights, where the keys do not order the pins, the
/// loop does all the pinning.
#[allow(clippy::too_many_arguments)]
fn clamp_to_zero_into<W: Weights>(
    x: &[f64],
    marginals: &[f64],
    weights: W,
    alpha: f64,
    deltas: &mut [f64],
    active: &mut [bool],
    keys: &mut Vec<f64>,
    order: &mut Vec<usize>,
) -> (usize, usize, FreeSet) {
    let n = x.len();
    let (mut passes, mut rounds, mut predicted) = (0, 0, false);
    loop {
        passes += 1;
        // `-0.0` is where `Iterator::sum::<f64>` starts.
        let (mut free_count, mut num, mut den, mut released) = (0usize, 0.0, 0.0, -0.0);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..n {
            if active[i] {
                free_count += 1;
                num += weights.at(i) * marginals[i];
                den += weights.at(i);
                lo = lo.min(marginals[i]);
                hi = hi.max(marginals[i]);
            } else {
                released += x[i];
            }
        }
        if free_count == 0 {
            deltas.fill(0.0);
            return (passes, rounds, FreeSet::new(0, 0.0, lo, hi));
        }
        let avg = if den == 0.0 { 0.0 } else { num / den };
        let share = released / free_count as f64;
        let (mut violators, mut violator) = (0, None::<usize>);
        for i in 0..n {
            if active[i] {
                deltas[i] = alpha * weights.at(i) * (marginals[i] - avg) + share;
                if x[i] + deltas[i] < 0.0 {
                    violators += 1;
                    if violator.is_none_or(|v| marginals[i].total_cmp(&marginals[v]).is_lt()) {
                        violator = Some(i);
                    }
                }
            } else {
                deltas[i] = -x[i];
            }
        }
        let Some(v) = violator else {
            return (passes, rounds, FreeSet::new(free_count, avg, lo, hi));
        };
        active[v] = false;
        // The prediction pays off once the cascade is known to pin a
        // second agent; a single pin is settled by the next pass.
        if !predicted && (violators > 1 || passes > 1) {
            predicted = true;
            if let Some(w) = weights.uniform() {
                rounds = pin_predicted(x, marginals, alpha * w, active, keys, order, MAX_ROUNDS);
            }
        }
    }
}

/// Tries the previous step's final active set `F` (in `active`) as the
/// active set of this step, whose weights are all `w`: one pass of
/// [`clamp_to_zero_into`]'s loop over `F`, kept only when every free
/// agent's `x_i + Δ_i` and every pinned agent's `θ_F − k_i` exceed the
/// prediction's margin `1e-9·(Σ|x| + c·max|g|)` (see [`pin_predicted`]),
/// where `c = α·w` and `θ_F = c·avg − share` is `F`'s threshold. Returns
/// `F` summarized when kept; `None` leaves `deltas` to be rewritten.
///
/// A kept set gives the loop's own step. Write `k_i = x_i + c·g_i` and
/// `S = Σ x`, so that `θ_A = (Σ_{i∈A} k_i − S)/|A|` for any nonempty free
/// set `A`, and let `θ*` be the threshold of the projection, the root of
/// `Σ_i max(k_i − θ, 0) = S`:
///
/// * `θ_A ≤ θ*` for every nonempty `A`, since `Σ_i max(k_i − θ_A, 0) ≥
///   Σ_{i∈A} (k_i − θ_A) = S`.
/// * A kept `F` has no violators and its pinned agents lie below `θ_F`, so
///   `Σ_i max(k_i − θ_F, 0) = S`: `θ_F` is the projection threshold `θ*`,
///   `F` is exactly `{i : k_i > θ*}`, and every pinned agent is a clear
///   violator.
/// * Every strict superset `A` of `F` has a violator: `θ_A < θ*` and
///   `Σ_{i∈A∖F} (k_i − θ_A) = −|F|·(θ* − θ_A) < 0`. No agent of `F`
///   violates over `A` (its key clears `θ* ≥ θ_A` by the margin), and the
///   prediction pins only keys below its own threshold, itself `≤ θ*`. So
///   the cascade from all-active pins agents outside `F` alone, passes
///   through supersets of `F` only, and ends at `F`.
/// * Its last pass then runs over `F` with the same index-ordered sums as
///   this one, so the deltas are bit-identical.
// The negated comparisons drop the set on a NaN, which the path from
// all-active spreads to every free agent.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn try_carried_set(
    x: &[f64],
    marginals: &[f64],
    w: f64,
    alpha: f64,
    deltas: &mut [f64],
    active: &[bool],
) -> Option<FreeSet> {
    let c = alpha * w;
    // The loop's first sweep, plus the margin's sums.
    let (mut free_count, mut num, mut den, mut released) = (0usize, 0.0, 0.0, -0.0);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut abs_x, mut g_max) = (0.0, 0.0f64);
    for ((&xi, &gi), &free) in x.iter().zip(marginals).zip(active) {
        if free {
            free_count += 1;
            num += w * gi;
            den += w;
            lo = lo.min(gi);
            hi = hi.max(gi);
        } else {
            released += xi;
        }
        abs_x += xi.abs();
        g_max = g_max.max(gi.abs());
    }
    let avg = if den == 0.0 { 0.0 } else { num / den };
    let share = released / free_count as f64;
    let margin = 1e-9 * (abs_x + c * g_max);
    let theta = c * avg - share;
    for (((&xi, &gi), &free), delta) in x.iter().zip(marginals).zip(active).zip(deltas) {
        if free {
            *delta = alpha * w * (gi - avg) + share;
            if !(xi + *delta >= margin) {
                return None;
            }
        } else {
            *delta = -xi;
            if !(xi + c * gi < theta - margin) {
                return None;
            }
        }
    }
    Some(FreeSet::new(free_count, avg, lo, hi))
}

/// Pins the agents whose key `x_i + c·g_i` lies clearly below the final
/// clamp threshold of a uniform-weight step (see [`clamp_to_zero_into`]),
/// and returns the threshold rounds it ran.
///
/// Michelot's rounds (J. Optim. Theory Appl. 50, 1986) find the pinned set
/// without sorting: starting with every agent free, each round computes the
/// threshold `θ = (c·Σ_free g − Σ_pinned x)/|free|` and drops every free
/// agent whose key is below it, until a round drops no one. `θ` only rises
/// from round to round, so every dropped agent is a true violator. `order`
/// is the shrinking free list and each round one sweep over it. After
/// `max_rounds` rounds that still drop agents, the survivors are sorted by
/// key and a prefix sweep pins the lowest key while it violates the
/// threshold of the keys above it, so the worst case stays O(n log n).
///
/// The threshold of the final free set is then recomputed from direct
/// sums, and only keys below it by a relative margin far above the loop's
/// rounding error are pinned, so fp near-ties are left to the loop and the
/// prediction never pins an agent the loop would keep. The highest key is
/// never pinned either.
fn pin_predicted(
    x: &[f64],
    marginals: &[f64],
    c: f64,
    active: &mut [bool],
    keys: &mut Vec<f64>,
    order: &mut Vec<usize>,
    max_rounds: usize,
) -> usize {
    let n = x.len();
    keys.clear();
    order.clear();
    order.extend(0..n);
    let (mut free_g, mut abs_x, mut g_max) = (0.0, 0.0, 0.0f64);
    for (xi, gi) in x.iter().zip(marginals) {
        keys.push(xi + c * gi);
        free_g += gi;
        abs_x += xi.abs();
        g_max = g_max.max(gi.abs());
    }

    let (mut free, mut pinned_x, mut rounds) = (n, 0.0, 0);
    let mut settled = false;
    while rounds < max_rounds && !settled {
        rounds += 1;
        let theta = (c * free_g - pinned_x) / free as f64;
        let (mut kept, mut kept_g) = (0, 0.0);
        for j in 0..free {
            let i = order[j];
            if keys[i] < theta {
                pinned_x += x[i];
            } else {
                kept_g += marginals[i];
                order.swap(kept, j);
                kept += 1;
            }
        }
        settled = kept == free;
        if kept == 0 {
            // Every key fell below the threshold (a non-positive total):
            // keep the highest one free.
            let top = (0..free).max_by(|&a, &b| keys[order[a]].total_cmp(&keys[order[b]]));
            order.swap(0, top.expect("a round starts with a free agent"));
            kept = 1;
            settled = true;
        }
        (free, free_g) = (kept, kept_g);
    }
    if !settled {
        let survivors = &mut order[..free];
        survivors.sort_unstable_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
        let mut m = 0;
        while m + 1 < free && keys[survivors[m]] < (c * free_g - pinned_x) / (free - m) as f64 {
            free_g -= marginals[survivors[m]];
            pinned_x += x[survivors[m]];
            m += 1;
        }
        survivors.rotate_left(m);
        free -= m;
    }

    let (free_set, pinned) = order.split_at(free);
    let free_g: f64 = free_set.iter().map(|&i| marginals[i]).sum();
    let pinned_x: f64 = pinned.iter().map(|&i| x[i]).sum();
    let theta = (c * free_g - pinned_x) / free as f64;
    let margin = 1e-9 * (abs_x + c * g_max);
    for &i in pinned {
        if keys[i] < theta - margin {
            active[i] = false;
        }
    }
    rounds
}

/// Raw step over the given active set: `Δx_i = α w_i (g_i − avg_w)` for
/// active `i`, zero otherwise.
fn raw_deltas_into(
    marginals: &[f64],
    weights: &[f64],
    active: &[bool],
    alpha: f64,
    out: &mut [f64],
) {
    let avg = weighted_average(marginals, weights, active);
    for i in 0..marginals.len() {
        out[i] = if active[i] { alpha * weights[i] * (marginals[i] - avg) } else { 0.0 };
    }
}

/// Weighted average marginal utility over the active set.
fn weighted_average(marginals: &[f64], weights: &[f64], active: &[bool]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..marginals.len() {
        if active[i] {
            num += weights[i] * marginals[i];
            den += weights[i];
        }
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The paper's §5.2 procedure for computing the set `A`, generalized to
/// weighted steps:
///
/// 1. `A = { i | x_i + Δx_i > 0 }` with `Δx` computed over all agents;
/// 2. repeatedly re-admit the excluded agent with the highest marginal
///    utility while it exceeds the active-set average;
/// 3. recompute `Δx` over the final `A` (with a safeguarded re-removal pass
///    in case the recomputed average creates new violations — the paper's
///    statement overlooks this corner).
///
/// `active` enters all-true; `deltas` is used for the tentative full step
/// first and holds the final deltas on return.
fn freeze_active_set_into(
    x: &[f64],
    marginals: &[f64],
    weights: &[f64],
    alpha: f64,
    deltas: &mut [f64],
    active: &mut [bool],
) {
    let n = x.len();

    // Step (i): tentative full step, drop agents driven non-positive.
    raw_deltas_into(marginals, weights, active, alpha, deltas);
    for i in 0..n {
        if x[i] + deltas[i] <= 0.0 {
            active[i] = false;
        }
    }
    // Degenerate: everything excluded (only possible when total ≈ 0).
    if active.iter().all(|a| !a) {
        deltas.fill(0.0);
        return;
    }

    // Steps (ii)–(v): re-admit excluded agents with above-average marginal
    // utility, highest first.
    loop {
        let avg = weighted_average(marginals, weights, active);
        let best = (0..n)
            .filter(|&j| !active[j])
            .max_by(|&a, &b| marginals[a].total_cmp(&marginals[b]));
        match best {
            Some(j) if marginals[j] > avg => active[j] = true,
            _ => break,
        }
    }

    // Final deltas, with a safeguard: recomputing the average over A can
    // push further agents negative; remove them (most-below-average first)
    // until stable. Each pass removes at least one agent, so this
    // terminates.
    loop {
        raw_deltas_into(marginals, weights, active, alpha, deltas);
        let violator = (0..n)
            .filter(|&i| active[i] && x[i] + deltas[i] < 0.0)
            .min_by(|&a, &b| marginals[a].total_cmp(&marginals[b]));
        match violator {
            Some(i) => active[i] = false,
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ONES: [f64; 4] = [1.0; 4];

    #[test]
    fn equal_marginals_give_zero_step() {
        let x = [0.25, 0.25, 0.25, 0.25];
        let g = [2.0, 2.0, 2.0, 2.0];
        for rule in [BoundaryRule::Unconstrained, BoundaryRule::ScaleStep, BoundaryRule::FreezeActiveSet] {
            let out = compute_step(&x, &g, &ONES, 0.5, rule);
            assert!(out.deltas.iter().all(|d| d.abs() < 1e-15), "{rule:?}: {:?}", out.deltas);
        }
    }

    #[test]
    fn step_moves_toward_high_marginal_agents() {
        let x = [0.5, 0.5, 0.0, 0.0];
        let g = [-1.0, -1.0, 1.0, 1.0];
        let out = compute_step(&x, &g, &ONES, 0.1, BoundaryRule::FreezeActiveSet);
        assert!(out.deltas[0] < 0.0 && out.deltas[1] < 0.0);
        assert!(out.deltas[2] > 0.0 && out.deltas[3] > 0.0);
    }

    #[test]
    fn deltas_sum_to_zero_for_all_rules() {
        let x = [0.7, 0.2, 0.1, 0.0];
        let g = [-3.0, 0.5, 1.0, 2.0];
        let w = [1.0, 2.0, 0.5, 1.5];
        for rule in [BoundaryRule::Unconstrained, BoundaryRule::ScaleStep, BoundaryRule::FreezeActiveSet] {
            let out = compute_step(&x, &g, &w, 0.05, rule);
            let sum: f64 = out.deltas.iter().sum();
            assert!(sum.abs() < 1e-12, "{rule:?}: sum {sum}");
        }
    }

    #[test]
    fn unconstrained_can_go_negative() {
        let x = [0.8, 0.1, 0.1, 0.0];
        // Strongly below-average marginal at agent 0.
        let g = [-4.0, -1.7, -1.7, -1.6];
        let out = compute_step(&x, &g, &ONES, 0.67, BoundaryRule::Unconstrained);
        assert!(x[0] + out.deltas[0] < 0.0, "expected transient negativity");
        assert_eq!(out.scale, 1.0);
    }

    #[test]
    fn scale_step_stops_exactly_at_zero() {
        let x = [0.8, 0.1, 0.1, 0.0];
        let g = [-4.0, -1.7, -1.7, -1.6];
        let out = compute_step(&x, &g, &ONES, 0.67, BoundaryRule::ScaleStep);
        assert!(out.scale < 1.0);
        let new: Vec<f64> = x.iter().zip(&out.deltas).map(|(a, d)| a + d).collect();
        assert!(new.iter().all(|v| *v >= -1e-12), "{new:?}");
        // The binding agent lands exactly on zero.
        assert!(new.iter().any(|v| v.abs() < 1e-12));
    }

    #[test]
    fn freeze_excludes_violator_and_keeps_others_moving() {
        let x = [0.8, 0.1, 0.1, 0.0];
        let g = [-4.0, -1.7, -1.7, -1.6];
        let out = compute_step(&x, &g, &ONES, 0.67, BoundaryRule::FreezeActiveSet);
        assert!(!out.active[0], "agent 0 should be frozen");
        assert_eq!(out.deltas[0], 0.0);
        assert_eq!(out.active_count(), 3);
        let new: Vec<f64> = x.iter().zip(&out.deltas).map(|(a, d)| a + d).collect();
        assert!(new.iter().all(|v| *v >= -1e-12));
        let sum: f64 = out.deltas.iter().sum();
        assert!(sum.abs() < 1e-12);
    }

    #[test]
    fn freeze_readmits_high_marginal_agent_at_zero() {
        // Agent 3 sits at zero with the *highest* marginal utility: the
        // tentative step gives it a positive delta, so it stays active and
        // receives resource.
        let x = [0.5, 0.3, 0.2, 0.0];
        let g = [0.0, 0.0, 0.0, 5.0];
        let out = compute_step(&x, &g, &ONES, 0.01, BoundaryRule::FreezeActiveSet);
        assert!(out.active[3]);
        assert!(out.deltas[3] > 0.0);
    }

    #[test]
    fn freeze_keeps_zero_agent_with_low_marginal_frozen() {
        let x = [0.5, 0.3, 0.2, 0.0];
        let g = [1.0, 1.0, 1.0, -5.0];
        let out = compute_step(&x, &g, &ONES, 0.1, BoundaryRule::FreezeActiveSet);
        assert!(!out.active[3]);
        assert_eq!(out.deltas[3], 0.0);
        let new: Vec<f64> = x.iter().zip(&out.deltas).map(|(a, d)| a + d).collect();
        assert!(new[3].abs() < 1e-15);
    }

    #[test]
    fn clamp_pins_violator_exactly_to_zero_and_rebalances() {
        let x = [0.8, 0.1, 0.1, 0.0];
        let g = [-4.0, -1.7, -1.7, -1.6];
        let out = compute_step(&x, &g, &ONES, 0.67, BoundaryRule::ClampToZero);
        assert!(!out.active[0]);
        assert!((out.deltas[0] + 0.8).abs() < 1e-12, "agent 0 releases everything");
        let new: Vec<f64> = x.iter().zip(&out.deltas).map(|(a, d)| a + d).collect();
        assert!(new[0].abs() < 1e-12);
        assert!(new.iter().all(|v| *v >= -1e-12));
        assert!((new.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_without_violators_equals_raw_step() {
        let x = [0.25; 4];
        let g = [1.0, 2.0, 3.0, 4.0];
        let a = compute_step(&x, &g, &ONES, 0.01, BoundaryRule::ClampToZero);
        let b = compute_step(&x, &g, &ONES, 0.01, BoundaryRule::Unconstrained);
        for (da, db) in a.deltas.iter().zip(&b.deltas) {
            assert!((da - db).abs() < 1e-15);
        }
    }

    /// The clamp loop as six separate sweeps per pass: count the free
    /// agents, the weighted average, the raw deltas, the released sum, the
    /// share and the violator search. Given key and order buffers, it hands
    /// a cascade to the prediction with no threshold rounds, so the sorted
    /// prefix sweep runs over every agent.
    fn clamp_loop(
        x: &[f64],
        marginals: &[f64],
        weights: &[f64],
        alpha: f64,
        deltas: &mut [f64],
        active: &mut [bool],
        mut sorted: Option<(&mut Vec<f64>, &mut Vec<usize>)>,
    ) -> usize {
        let n = x.len();
        let mut passes = 0;
        loop {
            passes += 1;
            let free_count = active.iter().filter(|a| **a).count();
            if free_count == 0 {
                deltas.fill(0.0);
                return passes;
            }
            raw_deltas_into(marginals, weights, active, alpha, deltas);
            let released: f64 = (0..n).filter(|&i| !active[i]).map(|i| x[i]).sum();
            let share = released / free_count as f64;
            for i in 0..n {
                if active[i] {
                    deltas[i] += share;
                } else {
                    deltas[i] = -x[i];
                }
            }
            let mut violators = 0;
            let violator = (0..n)
                .filter(|&i| active[i] && x[i] + deltas[i] < 0.0)
                .inspect(|_| violators += 1)
                .min_by(|&a, &b| marginals[a].total_cmp(&marginals[b]));
            match violator {
                Some(v) => {
                    active[v] = false;
                    let cascading = violators > 1 || passes > 1;
                    if let Some((keys, order)) = sorted.take_if(|_| cascading) {
                        if weights.iter().all(|w| *w == weights[0]) {
                            pin_predicted(x, marginals, alpha * weights[0], active, keys, order, 0);
                        }
                    }
                }
                None => return passes,
            }
        }
    }

    /// The clamp loop alone from all-active: the oracle for the predicted
    /// step. Returns its deltas, active set and pass count.
    fn clamp_oracle(x: &[f64], g: &[f64], w: &[f64], alpha: f64) -> (Vec<f64>, Vec<bool>, usize) {
        let mut deltas = vec![0.0; x.len()];
        let mut active = vec![true; x.len()];
        let passes = clamp_loop(x, g, w, alpha, &mut deltas, &mut active, None);
        (deltas, active, passes)
    }

    /// Checks the product step bit-for-bit against the oracle, both through
    /// `compute_step` and through the reused workspace `ws`.
    fn check_against_oracle(
        x: &[f64],
        g: &[f64],
        w: &[f64],
        alpha: f64,
        ws: &mut StepWorkspace,
    ) -> Result<(), String> {
        let (deltas, active, passes) = clamp_oracle(x, g, w, alpha);
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let fresh = compute_step(x, g, w, alpha, BoundaryRule::ClampToZero);
        let mut uniform = ws.clone();
        compute_step_into(x, g, w, alpha, BoundaryRule::ClampToZero, ws);
        if w.iter().all(|wi| *wi == w[0]) && !x.is_empty() {
            // The uniform-weight entry takes the same step from the same
            // carried state, and its summary is the final free set's own.
            let free = clamp_step_into(x, g, w[0], alpha, &mut uniform);
            let same = bits(uniform.deltas()) == bits(ws.deltas())
                && uniform.active() == ws.active()
                && (uniform.passes, uniform.carry) == (ws.passes, ws.carry);
            if !same {
                return Err("the uniform-weight entry differs from compute_step_into".into());
            }
            let expected = free_set_of(g, w[0], &active);
            if free.count != expected.count
                || free.mean.to_bits() != expected.mean.to_bits()
                || free.spread.to_bits() != expected.spread.to_bits()
            {
                return Err(format!("free set {free:?}, expected {expected:?}"));
            }
        }
        let runs = [
            ("compute_step", &fresh.deltas[..], &fresh.active[..]),
            ("workspace", ws.deltas(), ws.active()),
        ];
        for (label, d, a) in runs {
            if bits(d) != bits(&deltas) || a != &active[..] {
                return Err(format!("{label} differs from the loop alone (n = {})", x.len()));
            }
        }
        // A dropped carried set costs the one pass that tried it.
        if ws.passes() > passes + usize::from(ws.carry_rejected) {
            return Err(format!("{} passes with the prediction, {passes} without", ws.passes()));
        }
        Ok(())
    }

    /// The free set `active` summarized from separate sweeps: its size,
    /// its average marginal under the uniform weight `w`, and its spread.
    fn free_set_of(g: &[f64], w: f64, active: &[bool]) -> FreeSet {
        let free: Vec<f64> = (0..g.len()).filter(|&i| active[i]).map(|i| g[i]).collect();
        let num = free.iter().fold(0.0, |sum, gi| sum + w * gi);
        let den = free.iter().fold(0.0, |sum, _| sum + w);
        let lo = free.iter().fold(f64::INFINITY, |m, gi| m.min(*gi));
        let hi = free.iter().fold(f64::NEG_INFINITY, |m, gi| m.max(*gi));
        FreeSet::new(free.len(), if den == 0.0 { 0.0 } else { num / den }, lo, hi)
    }

    #[test]
    fn clamp_prediction_pins_in_two_passes_where_the_loop_takes_one_per_pin() {
        // 56 agents with a high marginal, 200 clearly below the average.
        let n = 256;
        let x = vec![1.0 / n as f64; n];
        let g: Vec<f64> = (0..n).map(|i| if i < 56 { 1.0 } else { -1.0 - 0.001 * i as f64 }).collect();
        let w = vec![1.0; n];
        let mut ws = StepWorkspace::new();
        compute_step_into(&x, &g, &w, 1.0, BoundaryRule::ClampToZero, &mut ws);
        assert!(ws.active_count() <= n - 200, "{} agents still active", ws.active_count());
        assert!(ws.passes() <= 2, "{} passes", ws.passes());
        let (_, _, oracle_passes) = clamp_oracle(&x, &g, &w, 1.0);
        assert!(oracle_passes > 200, "the loop alone takes {oracle_passes} passes");
        check_against_oracle(&x, &g, &w, 1.0, &mut ws).unwrap();
    }

    #[test]
    fn threshold_rounds_pin_a_wide_cascade_in_two_passes() {
        // 100 000 agents with marginals on a grid of 2001 levels: about
        // 68 % end up pinned, and no key sits near the final threshold.
        let n = 100_000;
        let x = vec![1.0 / n as f64; n];
        let g: Vec<f64> = (0..n as u64)
            .map(|i| {
                let u = (i * 2_654_435_761 % (1 << 32)) as f64 / (1u64 << 32) as f64;
                ((2.0 * u - 1.0) * 1000.0).round() / 1000.0
            })
            .collect();
        let w = vec![1.0; n];
        let alpha = 1e-4;
        let mut ws = StepWorkspace::new();
        compute_step_into(&x, &g, &w, alpha, BoundaryRule::ClampToZero, &mut ws);
        let pinned = n - ws.active_count();
        assert!((65_000..72_000).contains(&pinned), "{pinned} agents pinned");
        assert!(ws.rounds <= 8, "{} rounds", ws.rounds);
        assert!(ws.passes() <= 2, "{} passes", ws.passes());
        // The loop alone would take one pass per pin: compare with the loop
        // whose prediction sorts every key instead.
        let (mut deltas, mut active) = (vec![0.0; n], vec![true; n]);
        let (mut keys, mut order) = (Vec::new(), Vec::new());
        clamp_loop(&x, &g, &w, alpha, &mut deltas, &mut active, Some((&mut keys, &mut order)));
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(ws.deltas()) == bits(&deltas), "deltas differ from the sorted prediction");
        assert!(ws.active() == &active[..], "active set differs from the sorted prediction");
    }

    #[test]
    fn threshold_rounds_fall_back_to_the_sorted_sweep_at_the_cap() {
        // Agent 0 holds the whole budget at key 1 (c = 1, so the other
        // keys are their marginals). Each key below is placed under the
        // threshold of the keys above it, and low enough that the
        // threshold with it included stays at or under the next key up, so
        // every round drops the lowest free key alone.
        let low = MAX_ROUNDS + 2;
        let mut g = vec![0.0];
        let (mut sum, mut min) = (1.0, 1.0);
        for s in 1..=low {
            let theta = (sum - 1.0) / s as f64;
            let highest = (s + 1) as f64 * min - sum + 1.0;
            let bound = theta.min(highest);
            min = bound - 0.5 * (bound.abs() + 1.0);
            sum += min;
            g.push(min);
        }
        let n = g.len();
        let mut x = vec![0.0; n];
        x[0] = 1.0;
        let w = vec![1.0; n];
        let mut ws = StepWorkspace::new();
        check_against_oracle(&x, &g, &w, 1.0, &mut ws).unwrap();
        assert_eq!(ws.rounds, MAX_ROUNDS);
        let (_, active, oracle_passes) = clamp_oracle(&x, &g, &w, 1.0);
        assert_eq!(active.iter().filter(|a| !**a).count(), low);
        assert!(ws.passes() < oracle_passes, "{} passes, {oracle_passes} without", ws.passes());
    }

    #[test]
    fn clamp_prediction_matches_the_loop_on_ties_and_full_pinning() {
        let mut ws = StepWorkspace::new();
        // Tied keys x_i + α·g_i from different (x, g) pairs, and tied
        // marginals at zero.
        let x = [0.5, 0.0, 0.25, 0.25, 0.0, 0.0];
        let g = [0.0, 0.5, -2.0, -2.0, -2.0, 0.5];
        check_against_oracle(&x, &g, &[1.0; 6], 1.0, &mut ws).unwrap();
        // Negative drift everywhere: every agent ends up pinned.
        let x = [-0.1, -0.2, -0.3, -1e-17];
        let g = [0.0, 1.0, 0.0, -1.0];
        check_against_oracle(&x, &g, &[0.5; 4], 0.3, &mut ws).unwrap();
        assert_eq!(ws.active_count(), 0);
        assert!(ws.deltas().iter().all(|d| *d == 0.0));
        // A step without violators takes one pass; other rules report none.
        check_against_oracle(&[1.0], &[3.0], &[1.0], 0.5, &mut ws).unwrap();
        assert_eq!(ws.passes(), 1);
        compute_step_into(&[0.0; 3], &[1.0; 3], &[1.0; 3], 0.5, BoundaryRule::FreezeActiveSet, &mut ws);
        assert_eq!(ws.passes(), 0);
    }

    /// The threshold `θ_F` and margin the carried pass checks the active
    /// set `active` against, for uniform weights `w`.
    fn carried_threshold(x: &[f64], g: &[f64], w: f64, alpha: f64, active: &[bool]) -> (f64, f64) {
        let c = alpha * w;
        let free = active.iter().filter(|a| **a).count() as f64;
        let avg = (0..x.len()).filter(|&i| active[i]).map(|i| g[i]).sum::<f64>() / free;
        let released: f64 = (0..x.len()).filter(|&i| !active[i]).map(|i| x[i]).sum();
        let abs_x: f64 = x.iter().map(|v| v.abs()).sum();
        let g_max = g.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        (c * avg - released / free, 1e-9 * (abs_x + c * g_max))
    }

    #[test]
    fn carried_set_settles_a_converged_step_in_one_pass() {
        // Concave marginals g_i = a_i − n·x_i with half the agents too poor
        // to hold any mass at the optimum.
        let n = 40;
        let a: Vec<f64> =
            (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 - 0.01 * i as f64 }).collect();
        let (mut x, mut g, w) = (vec![1.0 / n as f64; n], vec![0.0; n], vec![1.0; n]);
        let alpha = 0.5 / n as f64;
        let mut ws = StepWorkspace::new();
        let mut carried_steps = 0;
        for _ in 0..400 {
            for i in 0..n {
                g[i] = a[i] - n as f64 * x[i];
            }
            let carry_before = ws.carry;
            check_against_oracle(&x, &g, &w, alpha, &mut ws).unwrap();
            if carry_before && !ws.carry_rejected {
                assert_eq!(ws.passes(), 1);
                carried_steps += 1;
            }
            for (xi, d) in x.iter_mut().zip(ws.deltas()) {
                *xi += d;
            }
        }
        assert_eq!(ws.active_count(), n / 2);
        assert!(carried_steps > 300, "{carried_steps} of 400 steps kept the carried set");
    }

    #[test]
    fn carried_set_is_dropped_for_other_rules_lengths_and_full_sets() {
        let mut ws = StepWorkspace::new();
        let (x, g) = ([0.5, 0.5, 0.0], [1.0, 1.0, -5.0]);
        compute_step_into(&x, &g, &[1.0; 3], 0.1, BoundaryRule::ClampToZero, &mut ws);
        assert!(ws.carry && ws.active_count() == 2);
        // Another rule resets the workspace and carries nothing.
        compute_step_into(&x, &g, &[1.0; 3], 0.1, BoundaryRule::FreezeActiveSet, &mut ws);
        assert!(!ws.carry);
        compute_step_into(&x, &g, &[1.0; 3], 0.1, BoundaryRule::ClampToZero, &mut ws);
        // A different length starts from all-active without trying it.
        check_against_oracle(&[0.5, 0.5], &[1.0, 1.0], &[1.0; 2], 0.1, &mut ws).unwrap();
        assert!(!ws.carry_rejected && !ws.carry, "nobody pinned: nothing to carry");
        // A step that pins nobody carries nothing either.
        check_against_oracle(&x, &[1.0; 3], &[1.0; 3], 0.1, &mut ws).unwrap();
        assert!(!ws.carry);
        // A NaN marginal on a carried pinned agent drops the set: from
        // all-active it reaches every free agent's delta.
        check_against_oracle(&x, &g, &[1.0; 3], 0.1, &mut ws).unwrap();
        assert!(ws.carry);
        check_against_oracle(&x, &[1.0, 1.0, f64::NAN], &[1.0; 3], 0.1, &mut ws).unwrap();
        assert!(ws.carry_rejected && ws.deltas()[0].is_nan());
    }

    #[test]
    fn weighted_step_scales_with_weights() {
        let x = [0.5, 0.5];
        let g = [1.0, -1.0];
        let w = [2.0, 1.0];
        let out = compute_step(&x, &g, &w, 0.1, BoundaryRule::Unconstrained);
        // avg_w = (2·1 + 1·(−1)) / 3 = 1/3.
        // Δ_0 = 0.1·2·(1 − 1/3) = 0.1333…; Δ_1 = 0.1·1·(−4/3) = −0.1333…
        assert!((out.deltas[0] - 0.4 / 3.0).abs() < 1e-12);
        assert!((out.deltas[1] + 0.4 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_non_positive_alpha() {
        compute_step(&[1.0], &[0.0], &[1.0], 0.0, BoundaryRule::Unconstrained);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn rejects_non_positive_weight() {
        compute_step(&[1.0, 0.0], &[0.0, 0.0], &[1.0, 0.0], 0.1, BoundaryRule::Unconstrained);
    }

    #[test]
    fn simplex_projection_fixes_drifted_seed() {
        let mut x = [0.5000000001, 0.3, 0.2, -1e-15];
        project_onto_simplex(&mut x, 1.0);
        assert_eq!(x[3], 0.0, "boundary agent stays on the boundary");
        assert!(x.iter().all(|v| *v >= 0.0));
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-15, "{x:?}");
    }

    #[test]
    fn simplex_projection_preserves_the_active_set() {
        let mut x = [0.7, 0.0, 0.3, -0.2];
        project_onto_simplex(&mut x, 1.0);
        assert_eq!(x[1], 0.0);
        assert_eq!(x[3], 0.0);
        assert!(x[0] > 0.0 && x[2] > 0.0);
        // Relative proportions of the positive mass are preserved.
        assert!((x[0] / x[2] - 0.7 / 0.3).abs() < 1e-12);
    }

    #[test]
    fn simplex_projection_scales_to_arbitrary_totals() {
        let mut x = [1.0, 3.0];
        project_onto_simplex(&mut x, 2.0);
        assert!((x.iter().sum::<f64>() - 2.0).abs() < 1e-15);
        assert!((x[0] - 0.5).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn simplex_projection_falls_back_to_uniform() {
        let mut x = [0.0, -0.5, f64::NAN];
        project_onto_simplex(&mut x, 1.0);
        for v in x {
            assert!((v - 1.0 / 3.0).abs() < 1e-15);
        }
        let mut empty: [f64; 0] = [];
        project_onto_simplex(&mut empty, 1.0); // no-op, no panic
    }

    #[test]
    #[should_panic(expected = "simplex total must be positive")]
    fn simplex_projection_rejects_bad_total() {
        project_onto_simplex(&mut [0.5, 0.5], 0.0);
    }

    proptest! {
        /// Projection postconditions on arbitrary (even wildly infeasible)
        /// seeds: non-negative, exact budget, idempotent on the result.
        #[test]
        fn simplex_projection_invariants(
            raw in proptest::collection::vec(-2.0f64..2.0, 1..12),
            total in 0.1f64..4.0,
        ) {
            let mut x = raw.clone();
            project_onto_simplex(&mut x, total);
            prop_assert!(x.iter().all(|v| *v >= 0.0));
            prop_assert!((x.iter().sum::<f64>() - total).abs() < 1e-12 * total.max(1.0));
            for (xi, ri) in x.iter().zip(&raw) {
                if *ri <= 0.0 {
                    // Clamped coordinates stay clamped unless the uniform
                    // fallback engaged (no positive mass anywhere).
                    if raw.iter().any(|v| *v > 0.0) {
                        prop_assert_eq!(*xi, 0.0);
                    }
                }
            }
        }
    }

    proptest! {
        /// For every rule: deltas sum to zero (feasibility, Theorem 1) and,
        /// for the boundary-respecting rules, the updated allocation stays
        /// non-negative.
        #[test]
        fn step_invariants(
            raw_x in proptest::collection::vec(0.0f64..1.0, 2..10),
            g in proptest::collection::vec(-5.0f64..5.0, 10),
            w in proptest::collection::vec(0.1f64..3.0, 10),
            alpha in 0.001f64..1.0,
        ) {
            let n = raw_x.len();
            let sum: f64 = raw_x.iter().sum();
            prop_assume!(sum > 1e-6);
            let x: Vec<f64> = raw_x.iter().map(|v| v / sum).collect();
            let g = &g[..n];
            let w = &w[..n];
            for rule in [BoundaryRule::FreezeActiveSet, BoundaryRule::ClampToZero, BoundaryRule::ScaleStep, BoundaryRule::Unconstrained] {
                let out = compute_step(&x, g, w, alpha, rule);
                let dsum: f64 = out.deltas.iter().sum();
                prop_assert!(dsum.abs() < 1e-9, "{rule:?} dsum {dsum}");
                if rule != BoundaryRule::Unconstrained {
                    for (xi, d) in x.iter().zip(&out.deltas) {
                        prop_assert!(xi + d >= -1e-9, "{rule:?} went negative");
                    }
                }
            }
        }
    }

    proptest! {
        /// The predicted clamp step is bit-identical to the loop alone over
        /// n = 1..300: unit, uniform and non-uniform weights, agents at
        /// exactly zero, tied (quantized) marginals and keys, and shifted
        /// all-negative iterates that pin every agent.
        #[test]
        fn clamp_prediction_is_bit_identical_to_the_loop(
            n in 1usize..301,
            raw in proptest::collection::vec(0.0f64..1.0, 300),
            gr in proptest::collection::vec(-1.0f64..1.0, 300),
            wr in proptest::collection::vec(0.1f64..3.0, 300),
            zero_frac in 0.0f64..1.0,
            levels in 0u32..6,
            weight_mode in 0u8..3,
            negative in 0u8..8,
            alpha in 0.001f64..2.0,
        ) {
            let mut x: Vec<f64> =
                raw[..n].iter().map(|v| if *v < zero_frac { 0.0 } else { v - zero_frac }).collect();
            let sum: f64 = x.iter().sum();
            if sum > 0.0 {
                x.iter_mut().for_each(|v| *v /= sum);
            }
            if negative == 0 {
                x.iter_mut().for_each(|v| *v -= 1.0);
            }
            let g: Vec<f64> = gr[..n]
                .iter()
                .map(|v| if levels == 0 { *v } else { (v * levels as f64).round() / levels as f64 })
                .collect();
            let w: Vec<f64> = match weight_mode {
                0 => vec![1.0; n],
                1 => vec![wr[0]; n],
                _ => wr[..n].to_vec(),
            };
            // A workspace left dirty by a larger step.
            let mut ws = StepWorkspace::new();
            compute_step_into(&raw, &gr, &wr, 0.5, BoundaryRule::ClampToZero, &mut ws);
            let checked = check_against_oracle(&x, &g, &w, alpha, &mut ws);
            prop_assert!(checked.is_ok(), "{checked:?}");
        }
    }

    proptest! {
        /// Keys placed within 1e-17 … 1e-5 (relative) of the final clamp
        /// threshold, on either side: the near-ties the prediction must
        /// leave to the loop.
        #[test]
        fn clamp_prediction_leaves_near_ties_to_the_loop(
            n in 3usize..301,
            raw in proptest::collection::vec(0.0f64..1.0, 300),
            gr in proptest::collection::vec(-1.0f64..1.0, 300),
            exponents in proptest::collection::vec(5.0f64..17.0, 300),
            weight in 0.25f64..2.0,
            alpha in 0.01f64..2.0,
        ) {
            // Half the agents at zero, so some of them end up pinned.
            let x: Vec<f64> = raw[..n].iter().map(|v| if *v < 0.5 { 0.0 } else { 2.0 * v - 1.0 }).collect();
            let sum: f64 = x.iter().sum();
            prop_assume!(sum > 0.0);
            let x: Vec<f64> = x.iter().map(|v| v / sum).collect();
            let mut g = gr[..n].to_vec();
            let w = vec![weight; n];
            let c = alpha * weight;
            let (_, active, _) = clamp_oracle(&x, &g, &w, alpha);
            // Pinned zero agents enter neither sum, so moving their keys
            // leaves the final threshold where it is.
            let free = active.iter().filter(|a| **a).count() as f64;
            let free_g: f64 = (0..n).filter(|&i| active[i]).map(|i| g[i]).sum();
            let pinned_x: f64 = (0..n).filter(|&i| !active[i]).map(|i| x[i]).sum();
            let theta = (c * free_g - pinned_x) / free;
            let g_max = g.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            let scale = 1.0 + c * g_max;
            let ties: Vec<usize> = (0..n).filter(|&i| !active[i] && x[i] == 0.0).take(4).collect();
            prop_assume!(!ties.is_empty());
            for (t, &i) in ties.iter().enumerate() {
                let side = if t % 2 == 0 { 1.0 } else { -1.0 };
                // The last two ties sit within rounding reach, 1e-14 … 1e-17.
                let exponent = if t < 2 { exponents[i] } else { 14.0 + (exponents[i] - 5.0) / 4.0 };
                g[i] = (theta + side * scale * 10f64.powf(-exponent)) / c;
            }
            let mut ws = StepWorkspace::new();
            let checked = check_against_oracle(&x, &g, &w, alpha, &mut ws);
            prop_assert!(checked.is_ok(), "{checked:?}");
        }
    }

    proptest! {
        /// One workspace over a sequence of steps, each checked bit for bit
        /// against the loop alone: the carried set kept as is, a pinned
        /// agent that must be freed, a free agent that must be pinned, a
        /// pinned key within 1e-17 of the margin, a length change, unequal
        /// weights, and a set carried over from an unrelated problem.
        #[test]
        fn carried_set_steps_match_the_loop(
            n in 3usize..120,
            raw in proptest::collection::vec(0.0f64..1.0, 240),
            gr in proptest::collection::vec(-1.0f64..1.0, 240),
            wr in proptest::collection::vec(0.1f64..3.0, 240),
            kinds in proptest::collection::vec(0u8..7, 16),
            picks in proptest::collection::vec(0usize..10_000, 16),
            ulps in proptest::collection::vec(-4i32..=4, 16),
            alpha in 0.01f64..1.0,
        ) {
            let problem = |n: usize, offset: usize| {
                let x: Vec<f64> = raw[offset..offset + n]
                    .iter()
                    .map(|v| if *v < 0.5 { 0.0 } else { 2.0 * v - 1.0 })
                    .collect();
                let sum: f64 = x.iter().sum();
                let x = if sum > 0.0 { x.iter().map(|v| v / sum).collect() } else { vec![1.0 / n as f64; n] };
                (x, gr[offset..offset + n].to_vec())
            };
            let (mut x, mut g) = problem(n, 0);
            let mut w = vec![1.0; n];
            let mut ws = StepWorkspace::new();
            let checked = check_against_oracle(&x, &g, &w, alpha, &mut ws);
            prop_assert!(checked.is_ok(), "{checked:?}");
            for ((&kind, &pick), &ulp) in kinds.iter().zip(&picks).zip(&ulps) {
                let n = x.len();
                let free: Vec<usize> = (0..n).filter(|&i| ws.active()[i]).collect();
                let pinned: Vec<usize> = (0..n).filter(|&i| !ws.active()[i]).collect();
                let g_max = g.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                w.iter_mut().for_each(|wi| *wi = 1.0);
                match kind {
                    // Apply the step; the set usually stays.
                    0 => {
                        for (xi, d) in x.iter_mut().zip(ws.deltas()) {
                            *xi += d;
                        }
                    }
                    1 if !pinned.is_empty() => g[pinned[pick % pinned.len()]] = g_max + 1.0,
                    2 if free.len() > 1 => {
                        let i = free[pick % free.len()];
                        g[i] = -(g_max + 1.0) - (x[i] + 1.0) / alpha;
                    }
                    3 if !pinned.is_empty() && !free.is_empty() => {
                        let (theta, margin) = carried_threshold(&x, &g, 1.0, alpha, ws.active());
                        let i = pinned[pick % pinned.len()];
                        let edge = theta - margin;
                        let key = edge + f64::from(ulp) * 1e-17 * (edge.abs() + margin);
                        g[i] = (key - x[i]) / alpha;
                    }
                    4 => {
                        let m = if pick % 2 == 0 && n > 3 { n - 1 } else { n + 1 };
                        (x, g) = problem(m, 0);
                        w = vec![1.0; m];
                    }
                    5 => w.copy_from_slice(&wr[..n]),
                    6 => (x, g) = problem(n, 120),
                    _ => {}
                }
                let checked = check_against_oracle(&x, &g, &w, alpha, &mut ws);
                prop_assert!(checked.is_ok(), "step kind {kind}: {checked:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Near-boundary iterates: every step of a run converging to an
        /// optimum with most agents at zero (concave marginals
        /// `g_i = a_i − b_i·n·x_i`) matches the loop alone bit-for-bit.
        #[test]
        fn clamp_prediction_matches_the_loop_along_a_converging_run(
            n in 2usize..301,
            a in proptest::collection::vec(-1.0f64..1.0, 300),
            b in proptest::collection::vec(0.5f64..2.0, 300),
            weight in 0.25f64..1.0,
        ) {
            let mut x = vec![1.0 / n as f64; n];
            let mut g = vec![0.0; n];
            let w = vec![weight; n];
            let alpha = 0.5 / n as f64;
            let mut ws = StepWorkspace::new();
            for _ in 0..200 {
                for i in 0..n {
                    g[i] = a[i] - b[i] * n as f64 * x[i];
                }
                let checked = check_against_oracle(&x, &g, &w, alpha, &mut ws);
                prop_assert!(checked.is_ok(), "{checked:?}");
                for (xi, d) in x.iter_mut().zip(ws.deltas()) {
                    *xi += d;
                }
            }
        }
    }
}
