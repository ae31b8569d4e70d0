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
//! fap serve requests.json --shards 4 # one daemon batch: a scenario list, sharded
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
//! `fap serve` is a [`served`] daemon session of one envelope
//! ([`serve_once`]), so both serving commands run one path and print the
//! same JSON batch line.
//!
//! `solve`/`run`, `sim`, `serve`, `served` and `track` take
//! `--metrics-out <path.jsonl>` and `--metrics-summary` to export
//! structured telemetry (see `fap-obs`): every command records through one
//! streaming `JsonlSink`, so memory stays flat on long sessions. The
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
pub use run::{chaos_sim, simulate, solve, sweep_k, SolveOutput};
pub use scenario::{Scenario, ScenarioError, Topology};
pub use serve::{load_specs, ServeSpec};
pub use served::{run_daemon, serve_once, spec_daemon, spec_parser_with};
pub use trace::{analyze as analyze_trace, TraceReport, TraceTree};
pub use track::{parse_track_args, render_track, run_track, TrackOptions};
