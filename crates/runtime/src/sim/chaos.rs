//! Fault-injection plans for the chaos simulator.
//!
//! A [`ChaosPlan`] is a complete, seeded description of everything that can
//! go wrong during a run: message drops, duplications, per-link delivery
//! delays, bounded reuse of stale marginals, bounded retransmission, and
//! node crash/rejoin schedules. Two runs under the same plan (same seed)
//! experience byte-identical fault sequences.

use serde::{Deserialize, Serialize};

use crate::error::RuntimeError;

/// Delay behaviour of a channel link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDelay {
    /// Probability that a delivered message is late at all.
    pub delay_prob: f64,
    /// Maximum lateness in whole rounds; actual lateness is drawn uniformly
    /// from `1..=max_delay_rounds`.
    pub max_delay_rounds: u32,
}

impl LinkDelay {
    /// No delay ever.
    pub const NONE: LinkDelay = LinkDelay { delay_prob: 0.0, max_delay_rounds: 0 };

    fn validate(&self, what: &str) -> Result<(), RuntimeError> {
        if !(0.0..1.0).contains(&self.delay_prob) {
            return Err(RuntimeError::InvalidParameter(format!(
                "{what} delay probability {} outside [0, 1)",
                self.delay_prob
            )));
        }
        if self.delay_prob > 0.0 && self.max_delay_rounds == 0 {
            return Err(RuntimeError::InvalidParameter(format!(
                "{what} has delay probability {} but zero max delay",
                self.delay_prob
            )));
        }
        Ok(())
    }

    fn is_zero(&self) -> bool {
        self.delay_prob == 0.0
    }
}

/// A seeded, deterministic fault-injection schedule.
///
/// The default plan (any seed, everything else zero) injects no faults at
/// all; the simulator is then bit-identical to the centralized optimizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed for every probabilistic fault draw.
    pub seed: u64,
    /// Probability that any single transmission is lost.
    pub drop_prob: f64,
    /// Probability that a delivered transmission arrives twice.
    pub duplicate_prob: f64,
    /// Default delay behaviour for every link.
    pub delay: LinkDelay,
    /// Per-link `(from, to, delay)` overrides of the default delay.
    pub link_delays: Vec<(usize, usize, LinkDelay)>,
    /// How many rounds a stale marginal may stand in for a missing report
    /// before the agent is excluded from the reallocation step.
    pub staleness_bound: u32,
    /// Retransmissions requested after a timed-out report, per agent-round.
    pub max_retries: u32,
    /// `(round, agent)` crash schedule; the agent's fragment is
    /// redistributed equally over the survivors.
    pub crashes: Vec<(usize, usize)>,
    /// `(round, agent)` rejoin schedule; the agent comes back with an empty
    /// fragment and re-enters the optimization.
    pub rejoins: Vec<(usize, usize)>,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::new(0)
    }
}

impl ChaosPlan {
    /// A fault-free plan with the given seed.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay: LinkDelay::NONE,
            link_delays: Vec::new(),
            staleness_bound: 0,
            max_retries: 0,
            crashes: Vec::new(),
            rejoins: Vec::new(),
        }
    }

    /// Sets the per-transmission drop probability.
    #[must_use]
    pub fn with_drop(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Sets the per-transmission duplication probability.
    #[must_use]
    pub fn with_duplication(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// Sets the default link-delay distribution.
    #[must_use]
    pub fn with_delay(mut self, prob: f64, max_rounds: u32) -> Self {
        self.delay = LinkDelay { delay_prob: prob, max_delay_rounds: max_rounds };
        self
    }

    /// Overrides the delay distribution of one directed link.
    #[must_use]
    pub fn with_link_delay(mut self, from: usize, to: usize, prob: f64, max_rounds: u32) -> Self {
        self.link_delays.push((from, to, LinkDelay { delay_prob: prob, max_delay_rounds: max_rounds }));
        self
    }

    /// Allows a missing report to be served from a stale marginal for up to
    /// `rounds` rounds.
    #[must_use]
    pub fn with_staleness_bound(mut self, rounds: u32) -> Self {
        self.staleness_bound = rounds;
        self
    }

    /// Sets the retransmission budget per timed-out report.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Schedules `agent` to crash at the start of `round`.
    #[must_use]
    pub fn crash(mut self, round: usize, agent: usize) -> Self {
        self.crashes.push((round, agent));
        self
    }

    /// Schedules `agent` to rejoin at the start of `round`.
    #[must_use]
    pub fn rejoin(mut self, round: usize, agent: usize) -> Self {
        self.rejoins.push((round, agent));
        self
    }

    /// The delay distribution effective on the directed link `from → to`.
    pub fn link_delay(&self, from: usize, to: usize) -> LinkDelay {
        self.link_delays
            .iter()
            .rev()
            .find(|(f, t, _)| *f == from && *t == to)
            .map(|(_, _, d)| *d)
            .unwrap_or(self.delay)
    }

    /// Whether the plan injects no faults at all — the simulator is then
    /// required to reproduce the centralized optimizer exactly.
    pub fn is_zero_fault(&self) -> bool {
        self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.delay.is_zero()
            && self.link_delays.iter().all(|(_, _, d)| d.is_zero())
            && self.crashes.is_empty()
            && self.rejoins.is_empty()
    }

    /// Checks the plan against an `n`-agent problem.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidParameter`] for probabilities outside
    /// `[0, 1)`, schedules naming unknown agents, a rejoin without a prior
    /// crash, or a crash schedule that could leave no agent alive.
    pub fn validate(&self, n: usize) -> Result<(), RuntimeError> {
        for (prob, what) in [(self.drop_prob, "drop"), (self.duplicate_prob, "duplication")] {
            if !(0.0..1.0).contains(&prob) {
                return Err(RuntimeError::InvalidParameter(format!(
                    "{what} probability {prob} outside [0, 1)"
                )));
            }
        }
        self.delay.validate("default link")?;
        for (from, to, delay) in &self.link_delays {
            if *from >= n || *to >= n || from == to {
                return Err(RuntimeError::InvalidParameter(format!(
                    "link delay override names invalid link {from} → {to} for {n} agents"
                )));
            }
            delay.validate("link override")?;
        }
        for &(_, agent) in self.crashes.iter().chain(&self.rejoins) {
            if agent >= n {
                return Err(RuntimeError::InvalidParameter(format!(
                    "chaos schedule names agent {agent}, only {n} exist"
                )));
            }
        }
        // Replay the membership schedule: every rejoin must revive a dead
        // agent, and at least one agent must stay alive throughout.
        let mut changes: Vec<(usize, usize, bool)> = self
            .crashes
            .iter()
            .map(|&(r, a)| (r, a, false))
            .chain(self.rejoins.iter().map(|&(r, a)| (r, a, true)))
            .collect();
        // Within a round, crashes fire before rejoins (matching the
        // executor), so order `false < true` at equal rounds.
        changes.sort_by_key(|&(r, a, alive)| (r, alive, a));
        let mut alive = vec![true; n];
        for (round, agent, comes_alive) in changes {
            if comes_alive && alive[agent] {
                return Err(RuntimeError::InvalidParameter(format!(
                    "agent {agent} scheduled to rejoin at round {round} but is alive"
                )));
            }
            alive[agent] = comes_alive;
            if alive.iter().all(|a| !*a) {
                return Err(RuntimeError::InvalidParameter(format!(
                    "crash schedule leaves no agent alive at round {round}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_zero_fault() {
        assert!(ChaosPlan::new(7).is_zero_fault());
        assert!(ChaosPlan::new(7).validate(4).is_ok());
    }

    #[test]
    fn builders_set_fields_and_flip_zero_fault() {
        let plan = ChaosPlan::new(1)
            .with_drop(0.1)
            .with_duplication(0.05)
            .with_delay(0.2, 3)
            .with_staleness_bound(2)
            .with_retries(1);
        assert!(!plan.is_zero_fault());
        assert!(plan.validate(4).is_ok());
        assert_eq!(plan.link_delay(0, 1).max_delay_rounds, 3);
    }

    #[test]
    fn link_override_wins_over_default() {
        let plan = ChaosPlan::new(1).with_delay(0.1, 2).with_link_delay(2, 0, 0.9, 5);
        assert_eq!(plan.link_delay(2, 0).max_delay_rounds, 5);
        assert_eq!(plan.link_delay(0, 2).max_delay_rounds, 2);
        assert!(!plan.is_zero_fault());
    }

    #[test]
    fn validation_rejects_bad_probabilities() {
        assert!(ChaosPlan::new(0).with_drop(1.0).validate(4).is_err());
        assert!(ChaosPlan::new(0).with_duplication(-0.1).validate(4).is_err());
        assert!(ChaosPlan::new(0).with_delay(0.5, 0).validate(4).is_err());
        assert!(ChaosPlan::new(0).with_link_delay(0, 0, 0.1, 1).validate(4).is_err());
        assert!(ChaosPlan::new(0).with_link_delay(0, 9, 0.1, 1).validate(4).is_err());
    }

    #[test]
    fn validation_replays_membership() {
        // Rejoin of a live agent is rejected.
        assert!(ChaosPlan::new(0).rejoin(3, 1).validate(4).is_err());
        // Crash then rejoin is fine.
        assert!(ChaosPlan::new(0).crash(1, 1).rejoin(3, 1).validate(4).is_ok());
        // Killing everyone — even transiently — is rejected.
        let wipeout = ChaosPlan::new(0).crash(0, 0).crash(0, 1).crash(1, 2).rejoin(2, 0);
        assert!(wipeout.validate(3).is_err());
        // Staggered crashes with rejoins in between keep someone alive.
        let churn = ChaosPlan::new(0).crash(0, 0).rejoin(2, 0).crash(3, 1).rejoin(5, 1);
        assert!(churn.validate(2).is_ok());
        assert!(ChaosPlan::new(0).crash(0, 9).validate(4).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let plan = ChaosPlan::new(42)
            .with_drop(0.25)
            .with_delay(0.1, 2)
            .with_link_delay(1, 0, 0.3, 4)
            .with_staleness_bound(3)
            .with_retries(2)
            .crash(5, 1)
            .rejoin(9, 1);
        let json = serde_json::to_string(&plan).unwrap();
        let back: ChaosPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
