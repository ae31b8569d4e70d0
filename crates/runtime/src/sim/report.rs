//! Results of a chaos-simulation run.
//!
//! The fault summary is no longer tallied by hand along the executor's code
//! paths: the channel and executor record everything through a
//! [`Recorder`](fap_obs::Recorder), and [`FaultCounters::from_registry`]
//! reads the final counts back out of the run's
//! [`MetricsRegistry`](fap_obs::MetricsRegistry). One instrumentation
//! stream feeds both the structured telemetry and this summary.

use fap_obs::MetricsRegistry;
use serde::{Deserialize, Serialize};

use fap_econ::Trace;

use crate::message::MessageStats;

/// Everything the channel and the fault schedule did to one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Physical transmissions attempted (including retries and the copies
    /// the channel duplicated on its own).
    pub sent: u64,
    /// Copies that arrived (on time or late; duplicates count twice).
    pub delivered: u64,
    /// Copies lost by the channel.
    pub dropped: u64,
    /// Copies the channel duplicated.
    pub duplicated: u64,
    /// Copies that arrived at least one round late.
    pub delayed: u64,
    /// Retransmissions requested after a receiver timeout.
    pub retries: u64,
    /// Step assignments that exhausted their retry budget and were pushed
    /// through the reliable fallback path (central scheme downlink).
    pub forced_assignments: u64,
    /// Rounds in which an agent's missing report was served from a stale
    /// marginal within the staleness bound.
    pub stale_reuses: u64,
    /// Rounds in which an agent was excluded from the reallocation step
    /// because no usable report existed.
    pub excluded_agent_rounds: u64,
    /// Crash events that fired.
    pub crashes: u64,
    /// Rejoin events that fired.
    pub rejoins: u64,
}

impl FaultCounters {
    /// Builds the summary from the `sim.*` counters a simulated run
    /// recorded — the single source of fault accounting.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        FaultCounters {
            sent: registry.counter("sim.sent"),
            delivered: registry.counter("sim.delivered"),
            dropped: registry.counter("sim.dropped"),
            duplicated: registry.counter("sim.duplicated"),
            delayed: registry.counter("sim.delayed"),
            retries: registry.counter("sim.retries"),
            forced_assignments: registry.counter("sim.forced_assignments"),
            stale_reuses: registry.counter("sim.stale_reuses"),
            excluded_agent_rounds: registry.counter("sim.excluded_agent_rounds"),
            crashes: registry.counter("sim.crashes"),
            rejoins: registry.counter("sim.rejoins"),
        }
    }
}

/// The outcome of a simulated run under a [`ChaosPlan`](super::ChaosPlan).
///
/// Under a zero-fault plan, `allocation`, `rounds` and `trace` are
/// bit-identical to the [`fap_econ::Solution`] the centralized
/// [`fap_econ::ResourceDirectedOptimizer`] produces for the same step size
/// and ε (`rounds` is its `iterations`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// The final allocation (agent `i`'s fragment at index `i`; crashed
    /// agents hold exactly 0).
    pub allocation: Vec<f64>,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the ε-criterion terminated the run.
    pub converged: bool,
    /// System-wide utility over the live agents at the final allocation.
    pub final_utility: f64,
    /// Nominal protocol message accounting (per-round dissemination cost;
    /// physical transmissions including retries are in `faults.sent`).
    pub messages: MessageStats,
    /// Per-round history (utility, spread, active set size).
    pub trace: Trace,
    /// Fault accounting for the whole run.
    pub faults: FaultCounters,
    /// Every allocation the run visited: `iterates[0]` is the initial
    /// allocation, `iterates[k]` the allocation after round `k−1`'s step.
    /// A crash or rejoin at the start of round `k` redistributes
    /// `iterates[k]`; the redistribution first shows in `iterates[k + 1]`.
    pub iterates: Vec<Vec<f64>>,
    /// Per round (length `rounds + 1`): whether every live agent's report
    /// arrived fresh — i.e. the round's step used no stale or missing data.
    pub fresh_rounds: Vec<bool>,
    /// Per round (length `rounds + 1`): whether a crash or rejoin fired at
    /// the start of the round.
    pub membership_rounds: Vec<bool>,
}

impl SimReport {
    /// Final cost `−U`.
    pub fn final_cost(&self) -> f64 {
        -self.final_utility
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_serde_round_trip() {
        let c = FaultCounters {
            sent: 120,
            delivered: 100,
            dropped: 20,
            duplicated: 3,
            delayed: 7,
            retries: 15,
            forced_assignments: 2,
            stale_reuses: 4,
            excluded_agent_rounds: 2,
            crashes: 1,
            rejoins: 1,
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: FaultCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn counters_read_back_from_the_registry() {
        let mut registry = MetricsRegistry::new();
        registry.incr("sim.sent", 10);
        registry.incr("sim.delivered", 8);
        registry.incr("sim.dropped", 2);
        registry.incr("sim.stale_reuses", 1);
        let c = FaultCounters::from_registry(&registry);
        assert_eq!(c.sent, 10);
        assert_eq!(c.delivered, 8);
        assert_eq!(c.dropped, 2);
        assert_eq!(c.stale_reuses, 1);
        // Counters never recorded stay zero.
        assert_eq!(c.duplicated, 0);
        assert_eq!(c.crashes, 0);
    }

    #[test]
    fn report_serde_round_trip_preserves_floats_exactly() {
        let report = SimReport {
            allocation: vec![0.1 + 0.2, 0.7 - 0.000_000_1],
            rounds: 3,
            converged: true,
            final_utility: -1.234_567_890_123_456_7,
            messages: MessageStats { total: 36, per_round: 12, rounds: 3 },
            trace: Trace::new(),
            faults: FaultCounters::default(),
            iterates: vec![vec![0.5, 0.5]],
            fresh_rounds: vec![true, true, false, true],
            membership_rounds: vec![false, true, false, false],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert_eq!(report.final_cost(), -report.final_utility);
    }
}
