//! The protocol executor.
//!
//! [`SimRun`] executes the §5.2 round structure — local marginals, exchange
//! per [`ExchangeScheme`], the identical reallocation step at every node —
//! with every report crossing the [`LossyChannel`] and the membership
//! evolving under the [`ChaosPlan`]'s crash/rejoin schedule. The executor
//! models:
//!
//! * **timeout + bounded retry** — a receiver that does not get a report on
//!   time requests retransmission up to the plan's retry budget;
//! * **stale-marginal reuse** — a report that still fails to arrive is
//!   served from the last known marginal, if that is no older than the
//!   plan's staleness bound;
//! * **exclusion** — an agent with no usable report is left out of the
//!   round's reallocation entirely; the transfers among the included agents
//!   still sum to zero, so feasibility `Σx = 1` survives every fault;
//! * **crash/rejoin** — a crashed agent's fragment is re-fetched from a
//!   backing store and spread equally over the survivors, who re-optimize
//!   among themselves (the §4(a) graceful-degradation scenario); a
//!   rejoining agent re-enters with an empty fragment.
//!
//! One deliberate abstraction keeps the state canonical: the simulator
//! maintains a single global view of fragments and of the stale-report
//! table (virtual synchrony). Under the broadcast scheme a report "counts"
//! for a round only once it has reached *every* live peer; until then the
//! sender is served stale or excluded, identically at all nodes. This is
//! what real broadcast protocols enforce with view-synchronous delivery,
//! and it is the property that lets every node apply the identical step —
//! the paper's §5.2 requirement — even over an unreliable network.
//!
//! Under a zero-fault plan the executor performs bit-for-bit the arithmetic
//! of the centralized [`fap_econ::ResourceDirectedOptimizer`]: same
//! marginal evaluation order, same step, same trace.
//!
//! [`SimRun::run`] drives the *event-driven* engine (`event_driven.rs`):
//! agents react to `BeginRound`/`Arrival`/`Wake`/`Deadline` events on a
//! virtual-clock [`Reactor`](crate::Reactor) — the same reactor that runs
//! the `fap served` daemon loop. The original lock-step `loop`
//! (`lock_step.rs`) survives only as the test oracle it is pinned against.

use fap_econ::projection::BoundaryRule;
use fap_obs::{Recorder, Value};

use super::chaos::ChaosPlan;
use super::channel::{Fate, LossyChannel};
use super::report::{FaultTally, SimCounter, SimReport};
use crate::error::RuntimeError;
use crate::local::LocalObjective;
use crate::scheme::{ExchangeScheme, MessageCounting};

/// Marker marginal for crashed agents: bad enough that no step
/// computation will ever allocate toward them.
pub(super) const DEAD_MARGINAL: f64 = -1e30;

/// One entry of the stale-report table.
#[derive(Debug, Clone, Copy)]
pub(super) struct StaleEntry {
    pub(super) round: usize,
    pub(super) marginal: f64,
}

/// Complementary slackness for agents outside the active set: every frozen
/// agent must sit at the boundary (`x_i ≈ 0`) with a marginal no better than
/// the active average — the centralized engine's convergence test.
pub(super) fn boundary_consistent(x: &[f64], g: &[f64], active: &[bool], epsilon: f64) -> bool {
    if active.iter().all(|a| *a) {
        return true;
    }
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..g.len() {
        if active[i] {
            sum += g[i];
            count += 1;
        }
    }
    if count == 0 {
        return true;
    }
    let avg = sum / count as f64;
    (0..g.len()).all(|i| active[i] || (x[i] <= 1e-6 && g[i] <= avg + epsilon))
}

/// A configurable fault-injected run of the protocol.
///
/// # Example
///
/// Run the paper's §6 experiment over a channel that drops a quarter of all
/// messages, with one retry and a two-round staleness bound:
///
/// ```
/// use fap_core::SingleFileProblem;
/// use fap_net::{topology, AccessPattern};
/// use fap_runtime::{ChaosPlan, ExchangeScheme, SimRun};
/// use fap_obs::NoopRecorder;
///
/// let graph = topology::ring(4, 1.0)?;
/// let pattern = AccessPattern::uniform(4, 1.0)?;
/// let problem = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0)?;
/// let plan = ChaosPlan::new(42).with_drop(0.25).with_retries(1).with_staleness_bound(2);
/// let report = SimRun::new(&problem, ExchangeScheme::Broadcast, 0.19)
///     .with_epsilon(1e-3)
///     .with_chaos(plan)
///     .run(&[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)?;
/// assert!(report.converged);
/// let total: f64 = report.allocation.iter().sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimRun<'a, O> {
    pub(super) objective: &'a O,
    pub(super) scheme: ExchangeScheme,
    pub(super) counting: MessageCounting,
    pub(super) alpha: f64,
    pub(super) epsilon: f64,
    pub(super) boundary: BoundaryRule,
    pub(super) max_rounds: usize,
    pub(super) total_resource: f64,
    pub(super) plan: ChaosPlan,
}

impl<'a, O: LocalObjective> SimRun<'a, O> {
    /// Creates a simulated run of `objective` under `scheme` with step size
    /// `alpha` and a fault-free plan. Defaults: ε = 10⁻³, clamp-to-zero
    /// boundary, 10 000-round cap, point-to-point counting.
    pub fn new(objective: &'a O, scheme: ExchangeScheme, alpha: f64) -> Self {
        SimRun {
            objective,
            scheme,
            counting: MessageCounting::PointToPoint,
            alpha,
            epsilon: 1e-3,
            boundary: BoundaryRule::ClampToZero,
            max_rounds: 10_000,
            total_resource: 1.0,
            plan: ChaosPlan::default(),
        }
    }

    /// Sets the termination tolerance ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the boundary rule.
    #[must_use]
    pub fn with_boundary(mut self, boundary: BoundaryRule) -> Self {
        self.boundary = boundary;
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets how messages are counted.
    #[must_use]
    pub fn with_counting(mut self, counting: MessageCounting) -> Self {
        self.counting = counting;
        self
    }

    /// Installs the fault-injection plan.
    #[must_use]
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Runs the simulated protocol from the feasible `initial` fragments,
    /// recording the run into `recorder`: the `sim.*` fault counters, the
    /// `sim.report_latency_rounds` histogram on virtual (round) time, one
    /// `round` event per round, `fault`/`delivery` events from the channel,
    /// `crash`/`rejoin`/`stale`/`excluded` events from the executor, and a
    /// closing `run_end` event. Virtual time is the round counter —
    /// [`Recorder::set_time`] is driven once per round — so two runs with
    /// the same seed record byte-identical telemetry.
    ///
    /// The report's [`FaultCounters`](crate::FaultCounters) come from the
    /// run's typed fault tally, the single source of `sim.*` counts: each
    /// count adds to the tally and records the same `incr(name, 1)` into
    /// `recorder`, so the summary and the telemetry can never disagree. A
    /// recorder that records nothing ([`Recorder::is_enabled`] is `false`,
    /// as for `NoopRecorder`) is not called per message.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] for bad configuration, an
    /// infeasible start, or an invalid chaos plan (including a plan that
    /// crashes a central coordinator), and propagates objective failures.
    pub fn run(
        &self,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<SimReport, RuntimeError> {
        self.run_event_driven(initial, recorder)
    }

    /// [`SimRun::run`] under the name `perfbench/src/adapter.rs` binds;
    /// delete it once the adapter calls [`SimRun::run`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimRun::run`].
    #[doc(hidden)]
    pub fn run_observed(
        &self,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<SimReport, RuntimeError> {
        self.run(initial, recorder)
    }

    /// Who needs live agent `i`'s report, given the round's `live` agents
    /// in ascending order: every other live agent (broadcast) or the
    /// coordinator (central); empty when nobody does. A broadcast hands
    /// over all of `live` — the channel skips the sender — so a wake
    /// builds no list.
    pub(super) fn report_targets<'s>(&'s self, i: usize, live: &'s [usize]) -> &'s [usize] {
        match &self.scheme {
            ExchangeScheme::Broadcast if live.len() > 1 => live,
            ExchangeScheme::Central { coordinator } if *coordinator != i => {
                std::slice::from_ref(coordinator)
            }
            _ => &[],
        }
    }

    /// Accounts for the coordinator's step-assignment downlink: every live
    /// non-coordinator gets its Δx over the same lossy channel, retried
    /// until delivered (the control plane is made reliable by ARQ; only the
    /// transmission bill varies with the fault plan).
    pub(super) fn account_assignments(
        &self,
        round: usize,
        coordinator: usize,
        alive: &[bool],
        channel: &LossyChannel<'_>,
        tally: &mut FaultTally,
        recorder: &mut dyn Recorder,
    ) {
        let fates = channel.report_fates(round, coordinator);
        for (to, &is_alive) in alive.iter().enumerate() {
            if to == coordinator || !is_alive {
                continue;
            }
            let mut attempt = 0u32;
            loop {
                if attempt > 0 {
                    tally.bump(SimCounter::Retries, recorder);
                }
                tally.bump(SimCounter::Sent, recorder);
                match fates.fate(to, attempt) {
                    Fate::Delivered { delay: 0, duplicated } => {
                        tally.bump(SimCounter::Delivered, recorder);
                        if duplicated {
                            tally.bump(SimCounter::Duplicated, recorder);
                            tally.bump(SimCounter::Delivered, recorder);
                        }
                        break;
                    }
                    Fate::Delivered { duplicated, .. } => {
                        tally.bump(SimCounter::Delivered, recorder);
                        tally.bump(SimCounter::Delayed, recorder);
                        if duplicated {
                            tally.bump(SimCounter::Duplicated, recorder);
                            tally.bump(SimCounter::Delivered, recorder);
                        }
                    }
                    Fate::Dropped => tally.bump(SimCounter::Dropped, recorder),
                }
                if attempt >= self.plan.max_retries {
                    // Out of budget: the assignment is pushed through the
                    // reliable fallback path so the round still commits.
                    tally.bump(SimCounter::ForcedAssignments, recorder);
                    recorder.emit(
                        "forced_assignment",
                        &[
                            ("round", Value::U64(round as u64)),
                            ("to", Value::U64(to as u64)),
                        ],
                    );
                    break;
                }
                attempt += 1;
            }
        }
    }

    pub(super) fn validate(&self, initial: &[f64], n: usize) -> Result<(), RuntimeError> {
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(RuntimeError::InvalidParameter(format!("alpha {}", self.alpha)));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(RuntimeError::InvalidParameter(format!("epsilon {}", self.epsilon)));
        }
        if initial.len() != n {
            return Err(RuntimeError::InvalidParameter(format!(
                "{} fragments for {n} agents",
                initial.len()
            )));
        }
        let sum: f64 = initial.iter().sum();
        if (sum - self.total_resource).abs() > 1e-9
            || initial.iter().any(|v| !v.is_finite() || *v < 0.0)
        {
            return Err(RuntimeError::InvalidParameter(format!(
                "initial fragments must be non-negative and sum to {}, got {sum}",
                self.total_resource
            )));
        }
        if let ExchangeScheme::Central { coordinator } = self.scheme {
            if coordinator >= n {
                return Err(RuntimeError::InvalidParameter(format!(
                    "coordinator {coordinator} out of range for {n} agents"
                )));
            }
            if self.plan.crashes.iter().any(|&(_, a)| a == coordinator) {
                return Err(RuntimeError::InvalidParameter(format!(
                    "chaos plan crashes the central coordinator {coordinator}; \
                     use the broadcast scheme to study coordinator loss"
                )));
            }
        }
        self.plan.validate(n)
    }
}

#[cfg(test)]
mod tests {
    use super::super::report::recorded_counters;
    use super::*;
    use fap_core::SingleFileProblem;
    use fap_econ::{ResourceDirectedOptimizer, StepSize};
    use fap_net::{topology, AccessPattern};
    use fap_obs::NoopRecorder;

    fn paper_problem() -> SingleFileProblem {
        let graph = topology::ring(4, 1.0).unwrap();
        let pattern = AccessPattern::uniform(4, 1.0).unwrap();
        SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap()
    }

    #[test]
    fn zero_fault_run_is_bit_identical_to_centralized_optimizer() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let centralized = ResourceDirectedOptimizer::new(StepSize::Fixed(0.19))
            .with_epsilon(1e-6)
            .run(&p, &x0, &mut NoopRecorder)
            .unwrap();
        assert!(centralized.converged);
        // Per-round bills on the §6 ring (n = 4): broadcast costs n(n−1)
        // point-to-point messages, the central scheme 2(n−1), and both
        // cost n transmissions on a broadcast medium (the §5.1 LAN remark).
        for (scheme, counting, per_round) in [
            (ExchangeScheme::Broadcast, MessageCounting::PointToPoint, 12),
            (ExchangeScheme::Central { coordinator: 1 }, MessageCounting::PointToPoint, 6),
            (ExchangeScheme::Broadcast, MessageCounting::BroadcastMedium, 4),
            (ExchangeScheme::Central { coordinator: 1 }, MessageCounting::BroadcastMedium, 4),
        ] {
            let sim = SimRun::new(&p, scheme, 0.19)
                .with_epsilon(1e-6)
                .with_counting(counting)
                .with_chaos(ChaosPlan::new(1234))
                .run(&x0, &mut NoopRecorder)
                .unwrap();
            assert!(sim.converged);
            assert_eq!(sim.allocation, centralized.allocation);
            assert_eq!(sim.rounds, centralized.iterations);
            assert_eq!(sim.trace, centralized.trace);
            assert_eq!(sim.messages.per_round, per_round, "{scheme:?} / {counting:?}");
            assert_eq!(sim.messages.rounds as usize, sim.rounds + 1);
            assert_eq!(sim.messages.total, per_round * sim.messages.rounds);
            assert_eq!(sim.faults.dropped, 0);
            assert_eq!(sim.faults.retries, 0);
        }
    }

    #[test]
    fn two_runs_into_one_registry_accumulate_the_latency_histogram() {
        let p = paper_problem();
        let sim = SimRun::new(&p, ExchangeScheme::Broadcast, 0.19)
            .with_epsilon(1e-6)
            .with_chaos(ChaosPlan::new(7).with_drop(0.2).with_retries(3));
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let mut once = fap_obs::MetricsRegistry::new();
        sim.run(&x0, &mut once).unwrap();
        let mut twice = fap_obs::MetricsRegistry::new();
        sim.run(&x0, &mut twice).unwrap();
        sim.run(&x0, &mut twice).unwrap();
        let latency = |r: &fap_obs::MetricsRegistry| {
            r.histogram("sim.report_latency_rounds").expect("registered").count()
        };
        assert!(latency(&once) > 0);
        assert_eq!(twice.counter("sim.sent"), 2 * once.counter("sim.sent"));
        assert_eq!(latency(&twice), 2 * latency(&once), "the second run wiped the first");
    }

    #[test]
    fn small_steps_improve_utility_monotonically_and_the_cap_is_honest() {
        let p = paper_problem();
        let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.05)
            .with_epsilon(1e-7)
            .run(&[1.0, 0.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(r.converged);
        assert!(r.trace.is_cost_monotone_decreasing(1e-10));
        let capped = SimRun::new(&p, ExchangeScheme::Broadcast, 1e-6)
            .with_epsilon(1e-9)
            .with_max_rounds(5)
            .run(&[1.0, 0.0, 0.0, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(!capped.converged);
        assert_eq!(capped.rounds, 5);
    }

    #[test]
    fn same_seed_runs_are_identical_different_seeds_diverge() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let run = |seed: u64| {
            SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
                .with_epsilon(1e-6)
                .with_max_rounds(50_000)
                .with_chaos(
                    ChaosPlan::new(seed).with_drop(0.2).with_retries(1).with_staleness_bound(2),
                )
                .run(&x0, &mut NoopRecorder)
                .unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must give byte-identical reports");
        let c = run(8);
        assert_ne!(a, c, "different seeds must explore different fault paths");
    }

    #[test]
    fn feasibility_survives_drops_delays_and_duplication() {
        let p = paper_problem();
        let plan = ChaosPlan::new(21)
            .with_drop(0.3)
            .with_duplication(0.2)
            .with_delay(0.3, 3)
            .with_retries(2)
            .with_staleness_bound(3);
        let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_epsilon(1e-6)
            .with_max_rounds(100_000)
            .with_chaos(plan)
            .run(&[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
            .unwrap();
        assert!(r.converged, "heavy but recoverable chaos still converges");
        for it in &r.iterates {
            let sum: f64 = it.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "iterate sum {sum}");
            assert!(it.iter().all(|v| *v >= -1e-9));
        }
        assert!(r.faults.dropped > 0);
        assert!(r.faults.delayed > 0);
        assert!(r.faults.duplicated > 0);
    }

    #[test]
    fn stale_reuse_and_exclusion_are_counted() {
        let p = paper_problem();
        // Heavy drop, no retries: with a staleness bound reports get
        // reused; without one agents get excluded.
        let with_stale = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_max_rounds(5_000)
            .with_chaos(ChaosPlan::new(3).with_drop(0.4).with_staleness_bound(4))
            .run(&[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(with_stale.faults.stale_reuses > 0);
        let without_stale = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_max_rounds(5_000)
            .with_chaos(ChaosPlan::new(3).with_drop(0.4))
            .run(&[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(without_stale.faults.excluded_agent_rounds > 0);
    }

    #[test]
    fn crash_and_rejoin_change_membership() {
        let p = paper_problem();
        let plan = ChaosPlan::new(0).crash(3, 2).rejoin(10, 2);
        let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.05)
            .with_epsilon(1e-7)
            .with_max_rounds(100_000)
            .with_chaos(plan)
            .run(&[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)
            .unwrap();
        assert_eq!(r.faults.crashes, 1);
        assert_eq!(r.faults.rejoins, 1);
        assert!(r.converged);
        // The rejoined agent wins back a share of the file.
        assert!(r.allocation[2] > 0.01, "{:?}", r.allocation);
        let sum: f64 = r.allocation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for it in &r.iterates {
            let s: f64 = it.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn crash_without_rejoin_converges_among_survivors() {
        let p = paper_problem();
        // One crash, then two in the same round: the symmetric ring's
        // survivors re-optimize to their own even split.
        for (plan, dead) in [
            (ChaosPlan::new(0).crash(0, 1), &[1][..]),
            (ChaosPlan::new(0).crash(0, 0).crash(0, 2), &[0, 2][..]),
        ] {
            let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.05)
                .with_epsilon(1e-7)
                .with_max_rounds(100_000)
                .with_chaos(plan)
                .run(&[0.25; 4], &mut NoopRecorder)
                .unwrap();
            assert!(r.converged);
            assert_eq!(r.faults.crashes, dead.len() as u64);
            let share = 1.0 / (4 - dead.len()) as f64;
            for (i, v) in r.allocation.iter().enumerate() {
                if dead.contains(&i) {
                    assert_eq!(*v, 0.0);
                } else {
                    assert!((v - share).abs() < 1e-2, "{:?}", r.allocation);
                }
            }
            let total: f64 = r.allocation.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    /// §4(a): a crash in round `r` makes `iterates[r][agent]` of the file
    /// unreachable. Fragmentation keeps three quarters of it available; the
    /// integral placement loses everything with its one node.
    #[test]
    fn crash_availability_favours_fragmented_allocations() {
        let p = paper_problem();
        let availability = |start: &[f64], agent: usize| {
            let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
                .with_epsilon(1e-6)
                .with_max_rounds(5_000)
                .with_chaos(ChaosPlan::new(0).crash(0, agent))
                .run(start, &mut NoopRecorder)
                .unwrap();
            assert!(r.converged);
            assert_eq!(r.allocation[agent], 0.0);
            1.0 - r.iterates[0][agent]
        };
        assert!((availability(&[0.25; 4], 3) - 0.75).abs() < 1e-12);
        assert_eq!(availability(&[1.0, 0.0, 0.0, 0.0], 0), 0.0);
    }

    #[test]
    fn central_scheme_bills_retries_on_the_downlink() {
        let p = paper_problem();
        let plan = ChaosPlan::new(5).with_drop(0.3).with_retries(2).with_staleness_bound(2);
        let r = SimRun::new(&p, ExchangeScheme::Central { coordinator: 0 }, 0.1)
            .with_max_rounds(50_000)
            .with_chaos(plan)
            .run(&[0.25; 4], &mut NoopRecorder)
            .unwrap();
        assert!(r.faults.retries > 0);
        assert!(r.faults.sent > r.messages.total, "physical transmissions exceed nominal bill");
    }

    #[test]
    fn rejects_central_coordinator_crash_and_bad_plans() {
        let p = paper_problem();
        let crash_coord = SimRun::new(&p, ExchangeScheme::Central { coordinator: 2 }, 0.1)
            .with_chaos(ChaosPlan::new(0).crash(1, 2));
        assert!(crash_coord.run(&[0.25; 4], &mut NoopRecorder).is_err());
        let bad_drop = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
            .with_chaos(ChaosPlan::new(0).with_drop(2.0));
        assert!(bad_drop.run(&[0.25; 4], &mut NoopRecorder).is_err());
        for plan in [
            ChaosPlan::new(0).crash(0, 9),
            ChaosPlan::new(0).crash(0, 0).crash(0, 1).crash(0, 2).crash(0, 3),
        ] {
            let run = SimRun::new(&p, ExchangeScheme::Broadcast, 0.1).with_chaos(plan);
            assert!(
                run.run(&[0.25; 4], &mut NoopRecorder).is_err(),
                "unknown agents and kill-all plans"
            );
        }
        let broadcast = |alpha| SimRun::new(&p, ExchangeScheme::Broadcast, alpha);
        assert!(broadcast(0.0).run(&[0.25; 4], &mut NoopRecorder).is_err());
        assert!(broadcast(f64::NAN).run(&[0.25; 4], &mut NoopRecorder).is_err());
        assert!(broadcast(0.1).with_epsilon(0.0).run(&[0.25; 4], &mut NoopRecorder).is_err());
        assert!(broadcast(0.1).run(&[0.5; 4], &mut NoopRecorder).is_err());
        assert!(broadcast(0.1).run(&[0.5; 2], &mut NoopRecorder).is_err());
        let far_coordinator = SimRun::new(&p, ExchangeScheme::Central { coordinator: 9 }, 0.1);
        assert!(far_coordinator.run(&[0.25; 4], &mut NoopRecorder).is_err());
    }

    #[test]
    fn observed_run_is_identical_and_telemetry_matches_the_summary() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let plan = ChaosPlan::new(7).with_drop(0.2).with_retries(1).with_staleness_bound(2);
        let count = |tele: &fap_obs::Telemetry, name: &str, kind: Option<&'static str>| {
            tele.events()
                .iter()
                .filter(|e| {
                    e.name() == name && kind.is_none_or(|k| e.field("kind") == Some(Value::Str(k)))
                })
                .count() as u64
        };
        for scheme in [ExchangeScheme::Broadcast, ExchangeScheme::Central { coordinator: 1 }] {
            let sim = SimRun::new(&p, scheme, 0.1)
                .with_epsilon(1e-6)
                .with_max_rounds(50_000)
                .with_chaos(plan.clone());
            for (name, lock_step) in [("event-driven", false), ("lock-step", true)] {
                let engine = |recorder: &mut dyn Recorder| {
                    if lock_step {
                        sim.run_round_synchronous(&x0, recorder).unwrap()
                    } else {
                        sim.run(&x0, recorder).unwrap()
                    }
                };
                let plain = engine(&mut NoopRecorder);
                let mut tele = fap_obs::Telemetry::manual();
                let observed = engine(&mut tele);
                assert_eq!(plain, observed, "{name} {scheme:?}: recording must not perturb");

                // The external sink counted what the summary counted.
                assert_eq!(recorded_counters(tele.registry()), observed.faults, "{name}");
                assert!(observed.faults.dropped > 0 && observed.faults.retries > 0);
                let drops = count(&tele, "fault", Some("drop"));
                match scheme {
                    ExchangeScheme::Broadcast => assert_eq!(drops, observed.faults.dropped),
                    // The downlink's assignment drops are counted but emit
                    // no `fault` event.
                    ExchangeScheme::Central { .. } => assert!(drops < observed.faults.dropped),
                }
                assert_eq!(
                    count(&tele, "forced_assignment", None),
                    observed.faults.forced_assignments
                );
                assert_eq!(count(&tele, "stale", None), observed.faults.stale_reuses);
                assert_eq!(count(&tele, "excluded", None), observed.faults.excluded_agent_rounds);
                assert_eq!(count(&tele, "round", None), observed.rounds as u64 + 1);
                assert_eq!(tele.events().last().unwrap().name(), "run_end");
                // Latency histogram lives on virtual (round) time.
                let latency = tele.registry().histogram("sim.report_latency_rounds").unwrap();
                assert!(latency.count() > 0);
            }
        }
    }

    #[test]
    fn same_seed_telemetry_is_byte_identical() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let record = |seed: u64| {
            let mut tele = fap_obs::Telemetry::manual();
            SimRun::new(&p, ExchangeScheme::Broadcast, 0.1)
                .with_epsilon(1e-6)
                .with_max_rounds(50_000)
                .with_chaos(
                    ChaosPlan::new(seed).with_drop(0.2).with_retries(1).with_staleness_bound(2),
                )
                .run(&x0, &mut tele)
                .unwrap();
            tele.to_jsonl()
        };
        assert_eq!(record(7), record(7), "same seed must record identical JSONL");
        assert_ne!(record(7), record(8), "different seeds must record different JSONL");
    }

    #[test]
    fn iterates_start_at_initial_and_end_at_allocation() {
        let p = paper_problem();
        let x0 = [0.8, 0.1, 0.1, 0.0];
        let r = SimRun::new(&p, ExchangeScheme::Broadcast, 0.19)
            .with_epsilon(1e-6)
            .run(&x0, &mut NoopRecorder)
            .unwrap();
        assert_eq!(r.iterates[0], x0.to_vec());
        assert_eq!(r.iterates.last().unwrap(), &r.allocation);
        assert_eq!(r.iterates.len(), r.rounds + 1);
        assert_eq!(r.fresh_rounds.len(), r.rounds + 1);
        assert_eq!(r.membership_rounds.len(), r.rounds + 1);
        assert!(r.fresh_rounds.iter().all(|f| *f), "zero-fault run is all fresh");
        assert!(r.membership_rounds.iter().all(|m| !*m));
    }
}
