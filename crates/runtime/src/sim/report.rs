//! Results of a chaos-simulation run.
//!
//! The fault summary has one source: the run's [`FaultTally`]. Every
//! `sim.*` counter is named once, in [`SimCounter`], and every count goes
//! through [`FaultTally::bump`], which adds to the tally and forwards the
//! same `incr(name, 1)` to the caller's [`Recorder`] (unless that recorder
//! records nothing, see [`FaultTally::recording`]). The report's
//! [`FaultCounters`] are the tally at the end of the run, so the summary
//! and the recorded telemetry count the same events and can never
//! disagree.

use fap_obs::Recorder;
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

/// The `sim.*` counters, each named once. The variants are in
/// [`FaultCounters`] field order; a variant's discriminant is its slot in
/// a [`FaultTally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SimCounter {
    Sent,
    Delivered,
    Dropped,
    Duplicated,
    Delayed,
    Retries,
    ForcedAssignments,
    StaleReuses,
    ExcludedAgentRounds,
    Crashes,
    Rejoins,
}

impl SimCounter {
    /// Every counter, in discriminant order.
    pub(super) const ALL: [SimCounter; 11] = [
        SimCounter::Sent,
        SimCounter::Delivered,
        SimCounter::Dropped,
        SimCounter::Duplicated,
        SimCounter::Delayed,
        SimCounter::Retries,
        SimCounter::ForcedAssignments,
        SimCounter::StaleReuses,
        SimCounter::ExcludedAgentRounds,
        SimCounter::Crashes,
        SimCounter::Rejoins,
    ];

    /// The metric name the counter is recorded under.
    pub(super) const fn name(self) -> &'static str {
        match self {
            SimCounter::Sent => "sim.sent",
            SimCounter::Delivered => "sim.delivered",
            SimCounter::Dropped => "sim.dropped",
            SimCounter::Duplicated => "sim.duplicated",
            SimCounter::Delayed => "sim.delayed",
            SimCounter::Retries => "sim.retries",
            SimCounter::ForcedAssignments => "sim.forced_assignments",
            SimCounter::StaleReuses => "sim.stale_reuses",
            SimCounter::ExcludedAgentRounds => "sim.excluded_agent_rounds",
            SimCounter::Crashes => "sim.crashes",
            SimCounter::Rejoins => "sim.rejoins",
        }
    }
}

/// One run's fault counts, one slot per [`SimCounter`], and whether the
/// run's recorder records anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct FaultTally {
    counts: [u64; SimCounter::ALL.len()],
    recording: bool,
}

impl FaultTally {
    /// An empty tally for a run recording into `recorder`.
    pub(super) fn new(recorder: &dyn Recorder) -> Self {
        FaultTally { counts: [0; SimCounter::ALL.len()], recording: recorder.is_enabled() }
    }

    /// Whether the run's recorder records anything
    /// ([`Recorder::is_enabled`]). When it does not, the per-transmission
    /// path skips its calls: a sink that records nothing is not called
    /// once per message.
    pub(super) fn recording(&self) -> bool {
        self.recording
    }

    /// Counts one `counter` event and records it into `recorder` as
    /// `incr(name, 1)`.
    #[inline]
    pub(super) fn bump(&mut self, counter: SimCounter, recorder: &mut dyn Recorder) {
        self.counts[counter as usize] += 1;
        if self.recording {
            recorder.incr(counter.name(), 1);
        }
    }

    /// The counts as the report's summary.
    pub(super) fn counters(&self) -> FaultCounters {
        let [
            sent,
            delivered,
            dropped,
            duplicated,
            delayed,
            retries,
            forced_assignments,
            stale_reuses,
            excluded_agent_rounds,
            crashes,
            rejoins,
        ] = self.counts;
        FaultCounters {
            sent,
            delivered,
            dropped,
            duplicated,
            delayed,
            retries,
            forced_assignments,
            stale_reuses,
            excluded_agent_rounds,
            crashes,
            rejoins,
        }
    }
}

/// The `sim.*` counts a registry holds, as a summary — what a recorder
/// saw, for comparison with a report's [`FaultCounters`].
#[cfg(test)]
pub(super) fn recorded_counters(registry: &fap_obs::MetricsRegistry) -> FaultCounters {
    let counts = SimCounter::ALL.map(|c| registry.counter(c.name()));
    FaultTally { counts, recording: true }.counters()
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
    fn tally_counts_what_it_records() {
        let mut registry = fap_obs::MetricsRegistry::new();
        let mut tally = FaultTally::new(&registry);
        for counter in SimCounter::ALL {
            assert_eq!(SimCounter::ALL[counter as usize], counter);
            for _ in 0..=counter as usize {
                tally.bump(counter, &mut registry);
            }
        }
        let c = tally.counters();
        assert_eq!(c, recorded_counters(&registry));
        assert_eq!((c.sent, c.delivered, c.dropped, c.duplicated), (1, 2, 3, 4));
        assert_eq!((c.delayed, c.retries, c.forced_assignments), (5, 6, 7));
        assert_eq!((c.stale_reuses, c.excluded_agent_rounds, c.crashes, c.rejoins), (8, 9, 10, 11));
        assert_eq!(registry.counter("sim.excluded_agent_rounds"), 9);
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
