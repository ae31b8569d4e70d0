//! The file-allocation problem of Kurose & Simha (ICDCS 1986).
//!
//! This crate assembles the network substrate (`fap-net`), the queueing
//! substrate (`fap-queue`) and the microeconomic optimization machinery
//! (`fap-econ`) into the paper's models:
//!
//! * [`SingleFileProblem`] — the §4 objective: one copy of one divisible
//!   file over `N` nodes, cost
//!   `C(x) = Σ_i (C_i + k·T_i(λ x_i)) x_i` with exact gradients and
//!   curvatures, generic over the per-node delay model (M/M/1 as in the
//!   paper, or the §5.4 M/G/1 extension) and supporting heterogeneous
//!   service rates;
//! * [`reference`](mod@reference) — a centralized closed-form solver (KKT water-filling)
//!   used as ground truth for the decentralized algorithm;
//! * [`baseline`] — the integral (whole-file) allocations of the classical
//!   FAP literature, against which Figure 4 argues for fragmentation;
//! * [`bound`] — the Theorem-2 step-size bound, in both the form printed in
//!   the paper and the form the appendix algebra actually yields;
//! * [`multi_file`] — the §5.4 multi-file extension with shared-queue
//!   contention and its per-file decentralized optimizer;
//! * [`query_update`] — the §5.4 query/update cost split;
//! * [`rounding`] — §8.1 record-boundary rounding of fractional allocations;
//! * [`records`] — §4's relaxation of the uniform-record-access assumption:
//!   skewed record popularity, with record-to-node assignment realizing the
//!   optimizer's access shares;
//! * [`adaptive`] — §8's adaptive "run the algorithm at night" reallocation
//!   under drifting access statistics;
//! * [`tuning`] — §8.2's "rationale for choosing the value of k": sweeps
//!   and delay-budget inversion of the communication/delay trade-off;
//! * [`market`] — the §2 price-directed view of the same problem (each node
//!   a selfish agent, a price equilibrating hosting supply), used by the
//!   price-vs-resource ablation.
//!
//! # Example
//!
//! Reproduce the headline of the paper's §6: on the symmetric 4-node ring
//! with μ = 1.5, k = 1, λ = 1, the decentralized algorithm spreads the file
//! evenly, at cost 1.8:
//!
//! ```
//! use fap_core::SingleFileProblem;
//! use fap_econ::{AllocationProblem, ResourceDirectedOptimizer, StepSize};
//! use fap_net::{topology, AccessPattern};
//! use fap_obs::NoopRecorder;
//!
//! let graph = topology::ring(4, 1.0)?;
//! let pattern = AccessPattern::uniform(4, 1.0)?;
//! let problem = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0)?;
//! let solution = ResourceDirectedOptimizer::new(StepSize::Fixed(0.3))
//!     .run(&problem, &[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)?;
//! assert!(solution.converged);
//! for x in &solution.allocation {
//!     assert!((x - 0.25).abs() < 1e-3);
//! }
//! assert!((solution.final_cost() - 1.8).abs() < 1e-3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod baseline;
pub mod bound;
pub mod error;
pub mod hierarchical;
pub mod market;
pub mod multi_file;
pub mod query_update;
pub mod records;
pub mod reference;
pub mod rounding;
pub mod single;
pub mod tuning;

pub use adaptive::AdaptiveAllocator;
pub use error::CoreError;
pub use hierarchical::{
    solve_hierarchical, solve_hierarchical_multilevel_observed, HierarchicalConfig,
    HierarchicalSolution,
};
pub use market::HostingMarket;
pub use multi_file::{MultiFileProblem, MultiFileScratch, MultiFileSolution};
pub use reference::ReferenceSolution;
pub use single::SingleFileProblem;
