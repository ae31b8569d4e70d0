//! The unreliable channel: seeded per-transmission fault draws and the
//! in-flight queue of delayed report copies.
//!
//! Fates are drawn by hashing `(seed, round, from, to, attempt, salt)`
//! through SplitMix64 — stateless, so a transmission's fate depends only on
//! its coordinates, never on how many other transmissions happened first.
//! This is what makes whole-run determinism trivial to reason about: the
//! same [`ChaosPlan`] produces the same fault sequence regardless of code
//! path.
//!
//! The hash runs four SplitMix rounds, over `round`, `from`, `to` and
//! `attempt`. The first two are the same for every transmission of one
//! report, so the simulator computes that prefix once per report and salt
//! ([`ReportFates`]) and finishes each draw with the last two;
//! [`LossyChannel::fate`] draws every coordinate from scratch and is the
//! reference the prefixed draws are tested against.

use fap_obs::{Recorder, Value};

use super::chaos::ChaosPlan;
use super::event::EventQueue;
use super::report::{FaultTally, SimCounter};

/// The fate of one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Lost; nothing ever arrives.
    Dropped,
    /// Arrives `delay` rounds late (0 = on time), possibly twice.
    Delivered {
        /// Lateness in rounds.
        delay: u32,
        /// Whether the channel duplicated the copy.
        duplicated: bool,
    },
}

/// A report in flight: agent `from`'s round-`sent_round` marginal, due to
/// complete at some later round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LateReport {
    /// Reporting agent.
    pub from: usize,
    /// Round the report describes.
    pub sent_round: usize,
    /// The reported marginal utility.
    pub marginal: f64,
    /// The reported fragment.
    pub fragment: f64,
}

/// The seeded lossy channel shared by all links.
#[derive(Debug)]
pub struct LossyChannel<'p> {
    plan: &'p ChaosPlan,
    /// Whether any link has a delay probability, so that delay draws can
    /// happen at all.
    delays: bool,
    in_flight: EventQueue<LateReport>,
}

/// Salts of the four draws of a transmission: drop, delay, lateness and
/// duplication.
const DROP: u64 = 1;
const DELAY: u64 = 2;
const LATENESS: u64 = 3;
const DUPLICATE: u64 = 4;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first two hash rounds of a draw: everything but `to` and
/// `attempt`.
fn prefix(seed: u64, salt: u64, round: usize, from: usize) -> u64 {
    let h = seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let h = splitmix(h ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix(h ^ (from as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// Finishes a draw from its [`prefix`]: uniform in `[0, 1)`.
fn finish(prefix: u64, to: usize, attempt: u32) -> f64 {
    let h = splitmix(prefix ^ (to as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    let h = splitmix(h ^ u64::from(attempt));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The fates of one report's transmissions — `fate(round, from, to,
/// attempt)` for a fixed `(round, from)` — with each salt's hash prefix
/// computed once. Delay and duplication prefixes exist only when the plan
/// can delay or duplicate at all.
#[derive(Debug, Clone, Copy)]
pub(super) struct ReportFates<'p> {
    plan: &'p ChaosPlan,
    from: usize,
    drop: u64,
    /// Delay and lateness prefixes.
    delay: Option<(u64, u64)>,
    duplicate: Option<u64>,
}

impl ReportFates<'_> {
    /// The fate of attempt `attempt` on the link to `to`.
    pub(super) fn fate(&self, to: usize, attempt: u32) -> Fate {
        let plan = self.plan;
        if finish(self.drop, to, attempt) < plan.drop_prob {
            return Fate::Dropped;
        }
        let delay = match self.delay {
            Some((on, lateness)) => {
                let link = if plan.link_delays.is_empty() {
                    plan.delay
                } else {
                    plan.link_delay(self.from, to)
                };
                if link.delay_prob > 0.0 && finish(on, to, attempt) < link.delay_prob {
                    1 + (finish(lateness, to, attempt) * f64::from(link.max_delay_rounds)) as u32
                } else {
                    0
                }
            }
            None => 0,
        };
        let duplicated =
            self.duplicate.is_some_and(|p| finish(p, to, attempt) < plan.duplicate_prob);
        Fate::Delivered { delay, duplicated }
    }
}

impl<'p> LossyChannel<'p> {
    /// A channel driven by `plan`.
    pub fn new(plan: &'p ChaosPlan) -> Self {
        let delays = plan.delay.delay_prob > 0.0
            || plan.link_delays.iter().any(|(_, _, d)| d.delay_prob > 0.0);
        LossyChannel { plan, delays, in_flight: EventQueue::new() }
    }

    /// Uniform draw in `[0, 1)` for one `(round, from, to, attempt, salt)`
    /// coordinate.
    fn unit(&self, round: usize, from: usize, to: usize, attempt: u32, salt: u64) -> f64 {
        let mut h = self.plan.seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h = splitmix(h ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = splitmix(h ^ (from as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        h = splitmix(h ^ (to as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
        h = splitmix(h ^ u64::from(attempt));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The fate of attempt `attempt` of `from`'s round-`round` report on the
    /// link to `to`, drawn from scratch: the reference the simulator's
    /// per-report prefixed draws are tested against.
    pub fn fate(&self, round: usize, from: usize, to: usize, attempt: u32) -> Fate {
        if self.unit(round, from, to, attempt, DROP) < self.plan.drop_prob {
            return Fate::Dropped;
        }
        let link = self.plan.link_delay(from, to);
        let delay = if link.delay_prob > 0.0
            && self.unit(round, from, to, attempt, DELAY) < link.delay_prob
        {
            let u = self.unit(round, from, to, attempt, LATENESS);
            1 + (u * f64::from(link.max_delay_rounds)) as u32
        } else {
            0
        };
        let duplicated = self.plan.duplicate_prob > 0.0
            && self.unit(round, from, to, attempt, DUPLICATE) < self.plan.duplicate_prob;
        Fate::Delivered { delay, duplicated }
    }

    /// The fates of `from`'s round-`round` report.
    pub(super) fn report_fates(&self, round: usize, from: usize) -> ReportFates<'p> {
        let plan = self.plan;
        let salted = |salt| prefix(plan.seed, salt, round, from);
        ReportFates {
            plan,
            from,
            drop: salted(DROP),
            delay: self.delays.then(|| (salted(DELAY), salted(LATENESS))),
            duplicate: (plan.duplicate_prob > 0.0).then(|| salted(DUPLICATE)),
        }
    }

    /// Transmits `from`'s round-`round` report to every agent in `targets`
    /// other than `from` itself, retrying each timed-out link up to the plan's retry budget. Every
    /// transmission outcome is counted in `tally` and recorded into
    /// `recorder`: the `sim.*` fault counters, one `fault` event per
    /// injected drop/delay/duplicate, and —
    /// once the report completes — the `sim.report_latency_rounds`
    /// histogram plus a `delivery` event with the latency in rounds.
    ///
    /// Returns the round at which the report has reached *all* targets
    /// (`round` itself means it was heard fresh), or `None` if some target
    /// never receives a copy. Copies completing late are queued and appear
    /// in [`LossyChannel::arrivals`] at their completion round.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn broadcast_report(
        &mut self,
        round: usize,
        from: usize,
        targets: &[usize],
        marginal: f64,
        fragment: f64,
        tally: &mut FaultTally,
        recorder: &mut dyn Recorder,
    ) -> Option<usize> {
        let recording = tally.recording();
        let fault = |recorder: &mut dyn Recorder, kind: &'static str, to: usize, attempt: u32| {
            if recording {
                recorder.emit(
                    "fault",
                    &[
                        ("kind", Value::Str(kind)),
                        ("round", Value::U64(round as u64)),
                        ("from", Value::U64(from as u64)),
                        ("to", Value::U64(to as u64)),
                        ("attempt", Value::U64(u64::from(attempt))),
                    ],
                );
            }
        };
        let fates = self.report_fates(round, from);
        let mut completion = round;
        for &to in targets {
            if to == from {
                continue;
            }
            let mut best_arrival: Option<usize> = None;
            for attempt in 0..=self.plan.max_retries {
                if attempt > 0 {
                    tally.bump(SimCounter::Retries, recorder);
                }
                tally.bump(SimCounter::Sent, recorder);
                match fates.fate(to, attempt) {
                    Fate::Dropped => {
                        tally.bump(SimCounter::Dropped, recorder);
                        fault(recorder, "drop", to, attempt);
                        continue;
                    }
                    Fate::Delivered { delay, duplicated } => {
                        tally.bump(SimCounter::Delivered, recorder);
                        if delay > 0 {
                            tally.bump(SimCounter::Delayed, recorder);
                            fault(recorder, "delay", to, attempt);
                        }
                        if duplicated {
                            tally.bump(SimCounter::Duplicated, recorder);
                            tally.bump(SimCounter::Delivered, recorder);
                            fault(recorder, "duplicate", to, attempt);
                        }
                        let arrival = round + delay as usize;
                        best_arrival =
                            Some(best_arrival.map_or(arrival, |b: usize| b.min(arrival)));
                        if delay == 0 {
                            // On time: the receiver stops asking.
                            break;
                        }
                        // Late copy: the receiver times out and (budget
                        // permitting) requests a retransmission.
                    }
                }
            }
            match best_arrival {
                None => return None,
                Some(arrival) => completion = completion.max(arrival),
            }
        }
        if completion > round {
            self.in_flight.push(
                completion,
                LateReport { from, sent_round: round, marginal, fragment },
            );
        }
        if recording {
            let latency = (completion - round) as u64;
            recorder.observe("sim.report_latency_rounds", latency as f64);
            recorder.emit(
                "delivery",
                &[
                    ("round", Value::U64(round as u64)),
                    ("from", Value::U64(from as u64)),
                    ("latency", Value::U64(latency)),
                ],
            );
        }
        Some(completion)
    }

    /// Late reports completing at `round`, in deterministic order.
    pub fn arrivals(&mut self, round: usize) -> Vec<LateReport> {
        self.in_flight.pop_due(round)
    }

    /// Reports still in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_are_deterministic_per_coordinates() {
        let plan = ChaosPlan::new(11).with_drop(0.3).with_delay(0.3, 4).with_duplication(0.2);
        let a = LossyChannel::new(&plan);
        let b = LossyChannel::new(&plan);
        for round in 0..50 {
            for from in 0..4 {
                for to in 0..4 {
                    assert_eq!(a.fate(round, from, to, 0), b.fate(round, from, to, 0));
                    assert_eq!(a.fate(round, from, to, 1), b.fate(round, from, to, 1));
                }
            }
        }
    }

    /// The prefixed per-report draws equal the from-scratch reference on
    /// every point of a coordinate grid, for plans that exercise each salt
    /// and the per-link delay overrides.
    #[test]
    fn report_fates_equal_the_reference_fate() {
        let plans = [
            ChaosPlan::new(0),
            ChaosPlan::new(1).with_drop(0.3),
            ChaosPlan::new(2).with_delay(0.4, 3),
            ChaosPlan::new(3).with_duplication(0.25),
            ChaosPlan::new(4).with_drop(0.2).with_delay(0.3, 2).with_duplication(0.1),
            // Overrides only: the default link never delays.
            ChaosPlan::new(5)
                .with_drop(0.1)
                .with_link_delay(0, 1, 0.6, 4)
                .with_link_delay(3, 2, 0.9, 1),
            // Overrides on top of a default delay, one of them switching a
            // link's delay off and one overridden twice (the last wins).
            ChaosPlan::new(u64::MAX)
                .with_drop(0.15)
                .with_duplication(0.2)
                .with_delay(0.3, 5)
                .with_link_delay(1, 0, 0.0, 0)
                .with_link_delay(2, 3, 0.5, 2)
                .with_link_delay(2, 3, 0.8, 7),
        ];
        let mut fates_seen = [0usize; 4];
        for plan in &plans {
            let ch = LossyChannel::new(plan);
            for round in [0, 1, 2, 7, 63, 1 << 20, usize::MAX] {
                for from in 0..5 {
                    let fates = ch.report_fates(round, from);
                    for to in 0..5 {
                        for attempt in [0, 1, 2, 5, u32::MAX] {
                            let fate = fates.fate(to, attempt);
                            assert_eq!(
                                fate,
                                ch.fate(round, from, to, attempt),
                                "{plan:?} at ({round}, {from}, {to}, {attempt})"
                            );
                            fates_seen[match fate {
                                Fate::Dropped => 0,
                                Fate::Delivered { delay: 0, duplicated: false } => 1,
                                Fate::Delivered { duplicated: false, .. } => 2,
                                Fate::Delivered { duplicated: true, .. } => 3,
                            }] += 1;
                        }
                    }
                }
            }
        }
        assert!(fates_seen.iter().all(|&n| n > 100), "every kind of fate: {fates_seen:?}");
    }

    #[test]
    fn different_seeds_give_different_fault_streams() {
        let p1 = ChaosPlan::new(1).with_drop(0.5);
        let p2 = ChaosPlan::new(2).with_drop(0.5);
        let a = LossyChannel::new(&p1);
        let b = LossyChannel::new(&p2);
        let differing: usize = (0..200)
            .filter(|&r| a.fate(r, 0, 1, 0) != b.fate(r, 0, 1, 0))
            .count();
        assert!(differing > 0);
    }

    #[test]
    fn zero_fault_plan_always_delivers_on_time() {
        let plan = ChaosPlan::new(99);
        let mut ch = LossyChannel::new(&plan);
        let mut registry = fap_obs::MetricsRegistry::new();
        let mut tally = FaultTally::new(&registry);
        for round in 0..20 {
            // The sender in its own target list is skipped.
            let done =
                ch.broadcast_report(round, 0, &[0, 1, 2, 3], -1.0, 0.25, &mut tally, &mut registry);
            assert_eq!(done, Some(round));
        }
        assert_eq!(tally.counters(), super::super::report::recorded_counters(&registry));
        assert_eq!(registry.counter("sim.dropped"), 0);
        assert_eq!(registry.counter("sim.delayed"), 0);
        assert_eq!(registry.counter("sim.retries"), 0);
        assert_eq!(registry.counter("sim.sent"), 60);
        assert_eq!(registry.counter("sim.delivered"), 60);
        // Every report completed with zero latency.
        let latency = registry.histogram("sim.report_latency_rounds").unwrap();
        assert_eq!(latency.count(), 20);
        assert_eq!(latency.sum(), 0.0);
        assert_eq!(ch.in_flight_len(), 0);
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let plan = ChaosPlan::new(5).with_drop(0.25);
        let ch = LossyChannel::new(&plan);
        let drops = (0..10_000)
            .filter(|&r| ch.fate(r, 1, 2, 0) == Fate::Dropped)
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn late_reports_complete_at_the_right_round() {
        // Always delayed, never dropped: completion must be in the future
        // and the report must come out of `arrivals` exactly then.
        let plan = ChaosPlan::new(3).with_delay(0.999, 3);
        let mut ch = LossyChannel::new(&plan);
        let mut recorder = fap_obs::NoopRecorder;
        let mut tally = FaultTally::new(&recorder);
        let completion = ch.broadcast_report(0, 2, &[0, 1], -4.0, 0.5, &mut tally, &mut recorder);
        let completion = completion.expect("nothing is dropped under this plan");
        assert!((1..=3).contains(&completion), "completion {completion}");
        for r in 0..completion {
            assert!(ch.arrivals(r).is_empty(), "nothing before completion");
        }
        let late = ch.arrivals(completion);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].from, 2);
        assert_eq!(late[0].sent_round, 0);
        assert_eq!(late[0].marginal, -4.0);
    }

    #[test]
    fn retries_rescue_dropped_reports() {
        let drop_heavy = ChaosPlan::new(17).with_drop(0.6);
        let without = {
            let mut ch = LossyChannel::new(&drop_heavy);
            let mut c = fap_obs::MetricsRegistry::new();
            let mut tally = FaultTally::new(&c);
            (0..200)
                .filter(|&r| {
                    ch.broadcast_report(r, 0, &[1], -1.0, 0.1, &mut tally, &mut c) == Some(r)
                })
                .count()
        };
        let with_retries = drop_heavy.clone().with_retries(3);
        let with = {
            let mut ch = LossyChannel::new(&with_retries);
            let mut c = fap_obs::MetricsRegistry::new();
            let mut tally = FaultTally::new(&c);
            let fresh = (0..200)
                .filter(|&r| {
                    ch.broadcast_report(r, 0, &[1], -1.0, 0.1, &mut tally, &mut c) == Some(r)
                })
                .count();
            assert!(c.counter("sim.retries") > 0, "retries must actually fire");
            assert_eq!(tally.counters().retries, c.counter("sim.retries"));
            fresh
        };
        assert!(with > without, "retries must rescue reports: {with} vs {without}");
    }
}
