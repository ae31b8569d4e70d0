//! Seeded discrete-event simulation of the §5.1 exchange schemes over an
//! unreliable network.
//!
//! The one protocol executor. On a reliable network it reproduces the
//! centralized optimizer's arithmetic exactly; its purpose is to ask what
//! happens to the protocol on a network that drops, delays, duplicates and
//! reorders messages while nodes crash and rejoin. The pieces:
//!
//! * [`ChaosPlan`] — a complete, seeded fault schedule (drop/duplication
//!   probabilities, per-link delay distributions, staleness bound, retry
//!   budget, crash/rejoin schedule). Same plan ⇒ byte-identical run.
//! * [`LossyChannel`] — stateless seeded fault draws per transmission plus
//!   the in-flight queue of delayed reports, built on [`EventQueue`].
//! * [`SimRun`] — the executor: timeout + bounded retry, stale-marginal
//!   reuse within the staleness bound, exclusion beyond it, and
//!   crash/rejoin redistribution. Feasibility `Σx = 1` holds at every
//!   iterate no matter what the channel does.
//! * [`SimReport`] / [`FaultCounters`] — the outcome: allocation, rounds,
//!   trace and message bill, plus per-run fault accounting and the full
//!   iterate history.
//!
//! Under a zero-fault plan ([`ChaosPlan::is_zero_fault`]) the simulator is
//! bit-identical to [`fap_econ::ResourceDirectedOptimizer`] — tested here
//! and property-tested on random problems in the workspace suite.

mod channel;
mod chaos;
mod event;
mod event_driven;
mod executor;
#[cfg(test)]
mod lock_step;
mod report;

pub use channel::{Fate, LateReport, LossyChannel};
pub use chaos::{ChaosPlan, LinkDelay};
pub use event::EventQueue;
pub use executor::SimRun;
pub use report::{FaultCounters, SimReport};
