//! Multi-copy file allocation on virtual rings (paper §7).
//!
//! With `m` copies of the file laid out *contiguously* around a
//! unidirectional virtual ring, each node sees the file "starting at itself"
//! and satisfies its accesses from the nearest nodes downstream: walking
//! forward from itself it takes each node's fragment until it has covered
//! one full copy. The resulting objective has a piecewise (discontinuous-
//! gradient) communication term — "the marginal utilities will therefore
//! change in jumps, the jumps being whole link costs" — which makes the
//! plain gradient iteration oscillate (§7.3, Figures 8–9). The
//! [`solver::RingSolver`] implements the paper's remedies: oscillation
//! detection with step-size decay, cost-delta halting, and
//! lowest-observed-cost fallback.
//!
//! The module structure:
//!
//! * [`layout`] — the [`VirtualRing`] model (link costs, access rates,
//!   service rates, copy count);
//! * [`coverage`] — which fraction each node fetches from which node;
//! * [`cost`] — communication + M/M/1 delay cost of an allocation;
//! * [`gradient`] — numeric marginal costs across the discontinuities;
//! * [`solver`] — the oscillation-aware decentralized iteration.
//!
//! # Example
//!
//! Two copies on a symmetric four-node ring spread out evenly:
//!
//! ```
//! use fap_ring::{solver::RingSolver, VirtualRing};
//! use fap_obs::NoopRecorder;
//!
//! let ring = VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0)?;
//! let solution = RingSolver::new(0.05).solve(&ring, &[2.0, 0.0, 0.0, 0.0], &mut NoopRecorder)?;
//! for x in &solution.best_allocation {
//!     assert!((x - 0.5).abs() < 0.05);
//! }
//! # Ok::<(), fap_ring::RingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod copies;
pub mod cost;
pub mod coverage;
pub mod error;
pub mod gradient;
pub mod layout;
pub mod solver;

pub use copies::{sweep_copies, CopySweep};
pub use error::RingError;
pub use layout::VirtualRing;
pub use solver::{RingSolution, RingSolver};
