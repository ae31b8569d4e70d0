//! Reproduction harness for every figure of the paper's evaluation
//! (§6 Figures 3–6, §7.3 Figures 8–9) and the ablation experiments listed
//! in `DESIGN.md`.
//!
//! Each experiment is a pure function returning structured series so that
//! the `repro` binary, the criterion benches, and the integration tests all
//! share one implementation. Run everything with:
//!
//! ```text
//! cargo run --release -p fap-bench --bin repro
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod experiments;
pub mod scale;
pub mod serve;
pub mod series;

pub use series::Series;

/// Runs behind every [`median_ms`] timing.
const TIMING_RUNS: usize = 5;

/// Times `f` as the median wall clock of [`TIMING_RUNS`] runs, in
/// milliseconds, returning the last run's value with it, so one noise
/// spike on a shared host does not set a committed timing.
fn median_ms<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = [0.0; TIMING_RUNS];
    let mut value = None;
    for time in &mut times {
        let start = std::time::Instant::now();
        value = Some(f());
        *time = start.elapsed().as_secs_f64() * 1e3;
    }
    times.sort_by(f64::total_cmp);
    (times[TIMING_RUNS / 2], value.expect("TIMING_RUNS is positive"))
}

/// The paper's §6 experimental parameters: μ = 1.5, k = 1, λ = 1,
/// ε = 0.001, four-node ring with unit link costs, start
/// `(0.8, 0.1, 0.1, 0.0)`.
pub mod paper {
    use fap_core::SingleFileProblem;
    use fap_net::{topology, AccessPattern};

    /// Service rate μ.
    pub const MU: f64 = 1.5;
    /// Delay weight k.
    pub const K: f64 = 1.0;
    /// Network-wide access rate λ.
    pub const LAMBDA: f64 = 1.0;
    /// Convergence tolerance ε.
    pub const EPSILON: f64 = 1e-3;
    /// The §6 starting allocation.
    pub const START: [f64; 4] = [0.8, 0.1, 0.1, 0.0];
    /// The Figure 3 step sizes with the paper's reported iteration counts.
    pub const FIG3_ALPHAS: [(f64, usize); 4] =
        [(0.67, 4), (0.3, 10), (0.19, 20), (0.08, 51)];

    /// The §6 four-node ring problem.
    ///
    /// # Panics
    ///
    /// Panics only on programming errors (the fixed parameters are valid).
    pub fn ring_problem() -> SingleFileProblem {
        let graph = topology::ring(4, 1.0).expect("valid ring");
        let pattern = AccessPattern::uniform(4, LAMBDA).expect("valid pattern");
        SingleFileProblem::mm1(&graph, &pattern, MU, K).expect("valid problem")
    }

    /// The Figure 6 fully connected problem on `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics only on programming errors.
    pub fn full_mesh_problem(n: usize) -> SingleFileProblem {
        let graph = topology::full_mesh(n, 1.0).expect("valid mesh");
        let pattern = AccessPattern::uniform(n, LAMBDA).expect("valid pattern");
        SingleFileProblem::mm1(&graph, &pattern, MU, K).expect("valid problem")
    }

    /// The Figure 6 starting allocation on `n` nodes:
    /// `(0.8, 0.1, 0.1, 0, 0, …)`.
    pub fn spread_start(n: usize) -> Vec<f64> {
        let mut x = vec![0.0; n];
        x[0] = 0.8;
        x[1] = 0.1;
        x[2] = 0.1;
        x
    }
}
