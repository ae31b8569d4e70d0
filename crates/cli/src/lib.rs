//! Scenario-driven command-line interface for the file-allocation system.
//!
//! A *scenario* is a JSON description of a network, a workload and the
//! model parameters; this crate loads scenarios, solves them with the
//! decentralized algorithm, cross-checks against the closed-form reference,
//! measures them with the discrete-event simulator, and sweeps the delay
//! weight `k`. The `fap` binary is a thin shell over these functions:
//!
//! ```text
//! fap solve scenario.json            # optimal allocation + cost
//! fap simulate scenario.json        # measure the optimum empirically
//! fap sim scenario.json chaos.json  # run the protocol under injected faults
//! fap serve requests.json --shards 4 # batch-solve a scenario list, sharded
//! fap served                         # persistent daemon (JSONL on stdin)
//! fap track --drift-scenario diurnal # online reallocation under drift
//! fap bench-drift                    # the regret/determinism benchmark
//! fap serve-example                  # print a template scenario list
//! fap report metrics.jsonl          # summarize an exported telemetry file
//! fap trace metrics.jsonl           # reconstruct span trees + self time
//! fap sweep-k scenario.json 0.1,1,10  # the §8.2 k trade-off
//! fap example                        # print a template scenario
//! fap chaos-example                  # print a template fault plan
//! ```
//!
//! `solve`/`run` and `sim` take `--metrics-out <path.jsonl>` and
//! `--metrics-summary` to export structured telemetry (see `fap-obs`); the
//! export runs on virtual time, so seeded runs reproduce byte-for-byte.
//!
//! `serde_json` is a dependency of this crate only (justification in
//! DESIGN.md: the CLI needs a concrete config format; the libraries stay
//! format-agnostic behind serde).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod run;
pub mod scenario;
pub mod serve;
pub mod served;
pub mod trace;
pub mod track;

pub use report::{render, render_diff, render_json, summarize, ReportSummary};
pub use run::{chaos_sim, chaos_sim_observed, simulate, solve, solve_observed, sweep_k, SolveOutput};
pub use scenario::{Scenario, ScenarioError, Topology};
pub use serve::{load_specs, serve_specs, ServeSpec};
pub use served::{run_daemon, spec_daemon, spec_parser_with};
pub use trace::{analyze as analyze_trace, TraceReport, TraceTree};
pub use track::{parse_track_args, render_track, run_track, TrackOptions};
