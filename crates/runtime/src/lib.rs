//! Decentralized execution of the file-allocation protocol.
//!
//! The other crates in this workspace compute *what* the decentralized
//! algorithm converges to; this crate simulates *how* it actually runs as a
//! distributed protocol — the §5.1–5.2 message flow:
//!
//! 1. each node locally evaluates its marginal utility `∂U/∂x_i` (which for
//!    the file-allocation objective depends only on the node's own fragment
//!    `x_i` and static constants — that locality is what makes the
//!    algorithm decentralized);
//! 2. the marginals (and fragments) are exchanged, either through a
//!    designated **central agent** or by **full broadcast** — the paper
//!    notes that on a broadcast medium such as a LAN the two cost about the
//!    same number of transmissions;
//! 3. every node applies the same reallocation step; the allocation stays
//!    feasible without any global coordinator enforcing it.
//!
//! Provided here:
//!
//! * [`LocalObjective`] — the per-agent view of an allocation problem
//!   (implemented for `fap_core::SingleFileProblem`);
//! * [`sim`] — the one protocol executor, [`SimRun`]: agents react to
//!   events on a virtual clock, their reports cross a seeded unreliable
//!   channel (drops, delays, duplication, crash/rejoin per a
//!   [`ChaosPlan`]) with stale-marginal reuse and bounded retransmission,
//!   and every round is billed per [`ExchangeScheme`] and
//!   [`MessageCounting`]. Under a zero-fault plan (`ChaosPlan::new(seed)`)
//!   it is bit-identical to the centralized
//!   [`fap_econ::ResourceDirectedOptimizer`]; a crash schedule measures the
//!   §4(a) graceful-degradation property and the survivors' recovery;
//! * [`Reactor`] — the deterministic virtual-clock event loop the
//!   executor runs on, shared with the `fap served` daemon;
//! * [`drift`] — seeded λ-trajectories (diurnal, flash crowd, step, node
//!   churn) and the online reallocation control loop: a
//!   [`fap_econ::TrackingOptimizer`] re-solves each epoch incrementally,
//!   migrations are planned under a bandwidth bound, and regret is scored
//!   against the per-epoch clairvoyant optimum and the static epoch-0
//!   allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod drift;
pub mod error;
pub mod local;
pub mod message;
pub mod reactor;
pub mod scheme;
pub mod sim;
pub mod timing;

pub use drift::{DriftConfig, DriftReport, DriftRun, DriftScenario, EpochRecord};
pub use error::RuntimeError;
pub use local::LocalObjective;
pub use message::MessageStats;
pub use reactor::Reactor;
pub use scheme::{ExchangeScheme, MessageCounting};
pub use sim::{ChaosPlan, FaultCounters, LinkDelay, SimReport, SimRun};
pub use timing::{best_coordinator, estimate_round_timing, RoundTiming};
