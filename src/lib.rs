//! # fap — microeconomic file allocation
//!
//! A complete implementation of Kurose & Simha, *A Microeconomic Approach
//! to Optimal File Allocation* (ICDCS 1986): a decentralized,
//! resource-directed algorithm that optimally fragments a file across the
//! nodes of a network, trading communication cost against M/M/1 queueing
//! delay.
//!
//! The workspace is layered; this crate re-exports everything:
//!
//! * [`batch`] — the flat row-major [`Matrix`](fap_batch::Matrix) storage
//!   and the [`Parallelism`](fap_batch::Parallelism) setting shared by the
//!   batch solver engine;
//! * [`net`] — network graphs, topologies, shortest-path routing, access
//!   workloads, and the [`CostProvider`](fap_net::CostProvider) substrate:
//!   the exact dense matrix or the sparse
//!   [`LandmarkOracle`](fap_net::LandmarkOracle);
//! * [`cache`] — the content-addressed warm-path cache: FNV-1a topology
//!   fingerprints and the [`SubstrateCache`](fap_cache::SubstrateCache)
//!   that builds each distinct dense matrix or landmark oracle once, keyed
//!   by fingerprint and [`CostBackend`](fap_cache::CostBackend);
//! * [`queue`] — analytic M/M/1 and M/G/1 delay models and a discrete-event
//!   simulator for empirical validation;
//! * [`econ`] — the resource-directed (Heal) optimizer with the paper's
//!   set-A procedure, second-derivative and gossip variants, and a
//!   price-directed tâtonnement baseline;
//! * [`core`] — the file-allocation problem itself: single-file and
//!   multi-file models, closed-form reference solver, integer baselines,
//!   record rounding, adaptive reallocation, and the hierarchical
//!   cluster-solve-refine pipeline
//!   ([`solve_hierarchical`](fap_core::hierarchical::solve_hierarchical))
//!   that rides the landmark oracle past dense-matrix scale;
//! * [`ring`] — the §7 multi-copy virtual-ring extension with its
//!   oscillation-aware solver;
//! * [`runtime`] — the protocol as a message-passing distributed system:
//!   one event-driven executor with message accounting, running the
//!   exchange schemes over a seeded unreliable network with crash/rejoin
//!   injection, and the online-reallocation control loop
//!   ([`DriftRun`](fap_runtime::DriftRun)) tracking seeded workload-drift
//!   trajectories with hysteresis and bounded-bandwidth migration;
//! * [`obs`] — zero-dependency structured telemetry: a metrics registry
//!   (counters, gauges, histograms), span timing on wall or virtual
//!   clocks, and streaming ([`JsonlSink`](fap_obs::JsonlSink)) JSONL event
//!   export with an in-memory twin ([`Telemetry`](fap_obs::Telemetry))
//!   for tests, wired through
//!   the solvers, the chaos simulator and the parallel kernels via the
//!   [`Recorder`](fap_obs::Recorder) trait (the no-op recorder preserves
//!   the zero-allocation and bit-identity guarantees);
//! * [`serve`] — the sharded batch-serving layer: one
//!   [`BatchServer`](fap_serve::BatchServer) per session solves batch after
//!   batch of independent scenarios on a scoped-thread worker pool that
//!   takes tasks from one shared cursor. The server owns everything that
//!   lives across batches — its worker slots' solver scratch, its
//!   [`WarmMode`](fap_serve::WarmMode) and the session's warm-start seeds
//!   — and returns submission-order results bit-identical to sequential
//!   solves, with per-shard metric registries replayed into the caller's
//!   recorder;
//! * [`served`] — the persistent serving daemon: a newline-delimited JSON
//!   protocol over a deterministic virtual clock, M/M/c admission control
//!   fitted from measured rates with 429-style load shedding, and warm
//!   state (substrate cache, batch server) kept alive across batches.
//!
//! # Quickstart
//!
//! Reproduce the paper's headline experiment — the symmetric four-node
//! ring of §6 — in a dozen lines:
//!
//! ```
//! use fap::prelude::*;
//!
//! let graph = fap::net::topology::ring(4, 1.0)?;
//! let pattern = AccessPattern::uniform(4, 1.0)?;
//! let problem = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0)?;
//!
//! let solution = ResourceDirectedOptimizer::new(StepSize::Fixed(0.3))
//!     .run(&problem, &[0.8, 0.1, 0.1, 0.0], &mut NoopRecorder)?;
//!
//! assert!(solution.converged);
//! assert!((solution.final_cost() - 1.8).abs() < 1e-3); // optimal cost
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fap_batch as batch;
pub use fap_cache as cache;
pub use fap_core as core;
pub use fap_econ as econ;
pub use fap_net as net;
pub use fap_obs as obs;
pub use fap_queue as queue;
pub use fap_ring as ring;
pub use fap_runtime as runtime;
pub use fap_serve as serve;
pub use fap_served as served;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use fap_batch::{Matrix, Parallelism};
    pub use fap_cache::{topology_fingerprint, CostBackend, SubstrateCache};
    pub use fap_core::{
        baseline, reference, AdaptiveAllocator, HierarchicalConfig, HierarchicalSolution,
        HostingMarket, MultiFileProblem, MultiFileScratch, SingleFileProblem,
    };
    pub use fap_econ::{
        AllocationProblem, BoundaryRule, GossipOptimizer, MigrationPlanner, Neighborhood,
        PriceDirectedOptimizer, ResourceDirectedOptimizer, SecondOrderOptimizer, Solution,
        StepSize, TrackingOptimizer,
    };
    pub use fap_net::{topology, AccessPattern, CostProvider, Graph, LandmarkOracle, NodeId};
    pub use fap_obs::{JsonlSink, MetricsRegistry, NoopRecorder, Recorder, Telemetry};
    pub use fap_queue::{DelayModel, Mg1Delay, Mm1Delay, NetworkSimulation, ServiceDistribution};
    pub use fap_ring::{RingSolver, VirtualRing};
    pub use fap_runtime::{
        ChaosPlan, DriftConfig, DriftReport, DriftRun, DriftScenario, ExchangeScheme,
        MessageCounting, SimReport, SimRun,
    };
    pub use fap_serve::{BatchServer, ServeRequest, ServeResponse, WarmMode};
    pub use fap_served::{Daemon, DaemonConfig, DaemonStatus};
}
