//! The lock-step reference engine: one `loop` iteration per round, exactly
//! as §5.2 writes it. Test-only — it is the oracle the event-driven engine
//! behind [`SimRun::run`] is pinned against, bit for bit, under every
//! chaos plan (see the tests in `event_driven.rs`). It exists because it
//! is the one reference that covers fault plans; production code never
//! runs it. It keeps the allocating `compute_step`, so the engines' tests
//! also pin the event-driven engine's reused step workspace.

use fap_econ::projection::{compute_step, StepOutcome};
use fap_econ::trace::IterationRecord;
use fap_econ::{marginal_spread, Trace};
use fap_obs::{Recorder, Value};

use super::channel::LossyChannel;
use super::executor::{boundary_consistent, SimRun, StaleEntry, DEAD_MARGINAL};
use super::report::{FaultTally, SimCounter, SimReport};
use crate::error::RuntimeError;
use crate::local::LocalObjective;
use crate::message::MessageStats;
use crate::scheme::ExchangeScheme;

impl<O: LocalObjective> SimRun<'_, O> {
    /// Runs the protocol on the lock-step engine, recording into
    /// `recorder` exactly as [`SimRun::run`] does.
    pub(crate) fn run_round_synchronous(
        &self,
        initial: &[f64],
        recorder: &mut dyn Recorder,
    ) -> Result<SimReport, RuntimeError> {
        let n = self.objective.agent_count();
        self.validate(initial, n)?;
        recorder.register_histogram(
            "sim.report_latency_rounds",
            &[0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0],
        );

        let mut x = initial.to_vec();
        let weights = vec![1.0; n];
        let mut alive = vec![true; n];
        let mut stale: Vec<Option<StaleEntry>> = vec![None; n];
        let mut channel = LossyChannel::new(&self.plan);
        let mut tally = FaultTally::new(recorder);
        let mut messages = MessageStats::default();
        let mut trace = Trace::new();
        let mut iterates = vec![x.clone()];
        let mut fresh_rounds = Vec::new();
        let mut membership_rounds = Vec::new();
        let mut rounds = 0usize;

        loop {
            recorder.set_time(rounds as u64);
            let mut membership_changed = false;
            // Membership events fire at the start of the round: crashes
            // first, then rejoins (as the plan validation replays them).
            for &(when, agent) in &self.plan.crashes {
                if when == rounds && alive[agent] {
                    membership_changed = true;
                    alive[agent] = false;
                    stale[agent] = None;
                    tally.bump(SimCounter::Crashes, recorder);
                    recorder.emit(
                        "crash",
                        &[("round", Value::U64(rounds as u64)), ("agent", Value::U64(agent as u64))],
                    );
                    let lost = x[agent];
                    x[agent] = 0.0;
                    let survivors = alive.iter().filter(|a| **a).count();
                    let share = lost / survivors as f64;
                    for i in 0..n {
                        if alive[i] {
                            x[i] += share;
                        }
                    }
                }
            }
            for &(when, agent) in &self.plan.rejoins {
                if when == rounds && !alive[agent] {
                    membership_changed = true;
                    alive[agent] = true;
                    stale[agent] = None;
                    tally.bump(SimCounter::Rejoins, recorder);
                    recorder.emit(
                        "rejoin",
                        &[("round", Value::U64(rounds as u64)), ("agent", Value::U64(agent as u64))],
                    );
                    x[agent] = 0.0;
                }
            }
            let alive_count = alive.iter().filter(|a| **a).count();

            // Delayed reports completing this round refresh the stale table
            // — deterministically ordered by the event queue.
            for late in channel.arrivals(rounds) {
                if alive[late.from]
                    && stale[late.from].is_none_or(|e| e.round < late.sent_round)
                {
                    stale[late.from] =
                        Some(StaleEntry { round: late.sent_round, marginal: late.marginal });
                }
            }

            // §5.2 step (a): live agents evaluate marginals locally, in
            // 0..n order.
            let mut g = vec![0.0; n];
            let mut utility = 0.0;
            for i in 0..n {
                if alive[i] {
                    g[i] = self.objective.local_marginal(i, x[i])?;
                    utility += self.objective.local_utility(i, x[i])?;
                }
            }
            messages.record_round(self.scheme.messages_per_round(alive_count, self.counting));

            // Dissemination over the lossy channel. `fresh[i]` means agent
            // i's round-`rounds` report reached everyone who needed it in
            // time (after retries).
            let mut fresh = vec![false; n];
            for i in 0..n {
                if !alive[i] {
                    continue;
                }
                // Every other live agent, or the coordinator: listed per
                // agent here, unlike the event-driven engine.
                let targets: Vec<usize> = match self.scheme {
                    ExchangeScheme::Broadcast => (0..n).filter(|&j| j != i && alive[j]).collect(),
                    ExchangeScheme::Central { coordinator } if coordinator != i => {
                        vec![coordinator]
                    }
                    ExchangeScheme::Central { .. } => Vec::new(),
                };
                if targets.is_empty() {
                    // Nothing to transmit (sole survivor, or the central
                    // coordinator itself): trivially heard.
                    fresh[i] = true;
                    stale[i] = Some(StaleEntry { round: rounds, marginal: g[i] });
                    continue;
                }
                match channel.broadcast_report(
                    rounds,
                    i,
                    &targets,
                    g[i],
                    x[i],
                    &mut tally,
                    recorder,
                ) {
                    Some(done) if done == rounds => {
                        fresh[i] = true;
                        stale[i] = Some(StaleEntry { round: rounds, marginal: g[i] });
                    }
                    // Late or lost: the stale table is refreshed by
                    // `arrivals` when (and if) the report completes.
                    _ => {}
                }
            }
            let all_fresh = (0..n).all(|i| !alive[i] || fresh[i]);
            fresh_rounds.push(all_fresh);
            membership_rounds.push(membership_changed);

            // Effective marginals: fresh where heard, stale within the
            // bound, otherwise the agent is excluded from the step.
            let mut g_eff = vec![0.0; n];
            let mut included = vec![false; n];
            for i in 0..n {
                if !alive[i] {
                    g_eff[i] = DEAD_MARGINAL;
                } else if fresh[i] {
                    g_eff[i] = g[i];
                    included[i] = true;
                } else {
                    match stale[i] {
                        Some(entry)
                            if rounds - entry.round <= self.plan.staleness_bound as usize =>
                        {
                            g_eff[i] = entry.marginal;
                            included[i] = true;
                            tally.bump(SimCounter::StaleReuses, recorder);
                            recorder.emit(
                                "stale",
                                &[
                                    ("round", Value::U64(rounds as u64)),
                                    ("agent", Value::U64(i as u64)),
                                    ("age", Value::U64((rounds - entry.round) as u64)),
                                ],
                            );
                        }
                        _ => {
                            g_eff[i] = g[i];
                            tally.bump(SimCounter::ExcludedAgentRounds, recorder);
                            recorder.emit(
                                "excluded",
                                &[
                                    ("round", Value::U64(rounds as u64)),
                                    ("agent", Value::U64(i as u64)),
                                ],
                            );
                        }
                    }
                }
            }

            // §5.2 step (b): the identical reallocation over the included
            // agents — the full-width path whenever every agent was heard
            // fresh, bit-identical to the centralized optimizer.
            let outcome = if all_fresh && alive_count == n {
                compute_step(&x, &g_eff, &weights, self.alpha, self.boundary)
            } else {
                let idx: Vec<usize> = (0..n).filter(|&i| included[i]).collect();
                let sub_x: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
                let sub_g: Vec<f64> = idx.iter().map(|&i| g_eff[i]).collect();
                let sub_w = vec![1.0; idx.len()];
                let sub = compute_step(&sub_x, &sub_g, &sub_w, self.alpha, self.boundary);
                let mut deltas = vec![0.0; n];
                let mut active = vec![false; n];
                for (slot, &i) in idx.iter().enumerate() {
                    deltas[i] = sub.deltas[slot];
                    active[i] = sub.active[slot];
                }
                StepOutcome { deltas, active, scale: sub.scale }
            };
            let spread = marginal_spread(&g_eff, &outcome.active);
            trace.push(IterationRecord {
                iteration: rounds,
                utility,
                spread,
                alpha: self.alpha,
                active_count: outcome.active_count(),
            });
            recorder.emit(
                "round",
                &[
                    ("round", Value::U64(rounds as u64)),
                    ("utility", Value::F64(utility)),
                    ("spread", Value::F64(spread)),
                    ("active", Value::U64(outcome.active_count() as u64)),
                    ("fresh", Value::Bool(all_fresh)),
                    ("membership", Value::Bool(membership_changed)),
                ],
            );

            // The coordinator distributes the step over the same lossy
            // channel; assignments are acknowledged-and-retried until
            // applied, so the round commits atomically (counted, not
            // fate-altering).
            if let ExchangeScheme::Central { coordinator } = self.scheme {
                self.account_assignments(
                    rounds,
                    coordinator,
                    &alive,
                    &channel,
                    &mut tally,
                    recorder,
                );
            }

            let converged = all_fresh
                && spread < self.epsilon
                && boundary_consistent(&x, &g_eff, &outcome.active, self.epsilon);
            if converged || rounds >= self.max_rounds {
                recorder.emit(
                    "run_end",
                    &[
                        ("rounds", Value::U64(rounds as u64)),
                        ("converged", Value::Bool(converged)),
                        ("final_utility", Value::F64(utility)),
                    ],
                );
                return Ok(SimReport {
                    allocation: x,
                    rounds,
                    converged,
                    final_utility: utility,
                    messages,
                    trace,
                    faults: tally.counters(),
                    iterates,
                    fresh_rounds,
                    membership_rounds,
                });
            }

            // §5.2 step (c): each agent applies its own Δx_i.
            for (xi, d) in x.iter_mut().zip(&outcome.deltas) {
                *xi += d;
            }
            iterates.push(x.clone());
            rounds += 1;
        }
    }
}
