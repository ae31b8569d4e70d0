//! The drift benchmark: the online-reallocation control loop over every
//! scenario preset, hard-gated on its two contracts.
//!
//! For each scenario [`bench_drift`] runs the seeded [`DriftRun`], timed
//! as the fastest of five runs, and asserts the regret gate on the diurnal
//! point: tracked regret at most 10% of the static-allocation regret.
//! Results serialize to the `BENCH_drift.json` schema committed at the
//! repo root; regenerate with `fap bench-drift` (prefer `--release`).
//! `--check` re-runs the committed grid: regret bits, virtual counts and
//! the regret gate are hard failures, wall-clock drift only an advisory.

use fap_obs::NoopRecorder;
use fap_runtime::{DriftConfig, DriftReport, DriftRun, DriftScenario};
use serde::{Deserialize, Serialize};

pub use crate::scale::CheckOutcome;
use crate::scale::TIMING_TOLERANCE;

/// The regret gate: tracked regret must stay within this fraction of the
/// static-allocation regret on the diurnal scenario.
pub const REGRET_GATE: f64 = 0.1;

/// One scenario's measured run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftPoint {
    /// Scenario label ([`DriftScenario::label`]).
    pub scenario: String,
    /// `Σ_t max(0, u*_t − u_tracked_t)` over the run.
    pub tracked_regret: f64,
    /// `Σ_t max(0, u*_t − u_static_t)` over the run.
    pub static_regret: f64,
    /// `tracked_regret / static_regret`.
    pub regret_ratio: f64,
    /// Total fragment mass the tracker moved.
    pub total_movement: f64,
    /// Total copy steps the migration planner scheduled.
    pub total_copies: usize,
    /// Total bandwidth-bounded migration rounds scheduled.
    pub total_rounds: usize,
    /// Total re-solve iterations across all epochs (virtual count).
    pub iterations: u64,
    /// Epochs that re-solved warm (all but the first).
    pub warm_epochs: usize,
    /// A content checksum over the report (regrets, movement, final
    /// allocation and per-epoch utilities).
    pub checksum: f64,
    /// Wall clock of one run, milliseconds: the fastest of five runs.
    /// Machine-dependent — advisory.
    pub run_ms: f64,
}

/// The full drift benchmark report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftBenchReport {
    /// Logical CPUs of the recording host
    /// (the standard library's available parallelism).
    #[serde(default)]
    pub host_threads: usize,
    /// Ring size the scenarios run on.
    pub nodes: usize,
    /// Epochs per scenario.
    pub epochs: usize,
    /// Trajectory seed.
    pub seed: u64,
    /// The scenario labels, in run order.
    pub scenarios: Vec<String>,
    /// One point per scenario.
    pub points: Vec<DriftPoint>,
}

/// The benchmark's [`DriftConfig`] for a scenario preset: the library
/// defaults with the grid's ring size, epoch count and seed, and an
/// iteration cap sized for the small ring.
///
/// # Panics
///
/// Panics on an unknown scenario label (the grids are fixed).
pub fn drift_config(label: &str, nodes: usize, epochs: usize, seed: u64) -> DriftConfig {
    let scenario = DriftScenario::preset(label, epochs)
        .unwrap_or_else(|| panic!("unknown drift scenario '{label}'"));
    DriftConfig {
        scenario,
        nodes,
        epochs,
        seed,
        max_iterations: 60_000,
        ..DriftConfig::default()
    }
}

fn checksum_report(report: &DriftReport) -> f64 {
    report.tracked_regret
        + report.static_regret
        + report.total_movement
        + report.final_allocation.iter().sum::<f64>()
        + report.epochs.iter().map(|e| e.tracked_utility + e.movement).sum::<f64>()
}

/// Runs the sweep: each scenario's run, timed as the fastest of five.
///
/// # Panics
///
/// Panics if a run fails or if the diurnal point misses the
/// [`REGRET_GATE`].
pub fn bench_drift(scenarios: &[String], nodes: usize, epochs: usize, seed: u64) -> DriftBenchReport {
    let mut points = Vec::with_capacity(scenarios.len());
    for label in scenarios {
        let run = DriftRun::new(drift_config(label, nodes, epochs, seed))
            .expect("valid drift config");
        let (run_ms, sequential) = crate::fastest_ms(|| run.run(&mut NoopRecorder));
        let sequential = sequential.expect("the benchmark trajectory must solve cleanly");
        let point = DriftPoint {
            scenario: label.clone(),
            tracked_regret: sequential.tracked_regret,
            static_regret: sequential.static_regret,
            regret_ratio: sequential.regret_ratio(),
            total_movement: sequential.total_movement,
            total_copies: sequential.total_copies,
            total_rounds: sequential.total_rounds,
            iterations: sequential.epochs.iter().map(|e| e.iterations as u64).sum(),
            warm_epochs: sequential.epochs.iter().filter(|e| e.warm).count(),
            checksum: checksum_report(&sequential),
            run_ms,
        };
        if label == "diurnal" {
            assert!(
                point.regret_ratio <= REGRET_GATE,
                "diurnal regret ratio {} exceeds the {REGRET_GATE} gate \
                 (tracked {} vs static {})",
                point.regret_ratio,
                point.tracked_regret,
                point.static_regret
            );
        }
        points.push(point);
    }
    DriftBenchReport {
        host_threads: crate::scale::host_threads(),
        nodes,
        epochs,
        seed,
        scenarios: scenarios.to_vec(),
        points,
    }
}

/// Compares a `fresh` run against the `committed` report
/// (`fap bench-drift --check`).
///
/// Grid identity, regret/checksum bits (via [`f64::to_bits`]), the virtual
/// counts (iterations, copies, rounds, warm epochs) and the diurnal
/// [`REGRET_GATE`] are hard gates — the control loop is deterministic on
/// any machine. Host CPU count and wall-clock timings only produce
/// advisories.
pub fn check_against(committed: &DriftBenchReport, fresh: &DriftBenchReport) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    if committed.nodes != fresh.nodes
        || committed.epochs != fresh.epochs
        || committed.seed != fresh.seed
        || committed.scenarios != fresh.scenarios
    {
        outcome.hard_failures.push(format!(
            "grid mismatch: committed {} nodes × {} epochs seed {} {:?}, \
             fresh {} nodes × {} epochs seed {} {:?}",
            committed.nodes,
            committed.epochs,
            committed.seed,
            committed.scenarios,
            fresh.nodes,
            fresh.epochs,
            fresh.seed,
            fresh.scenarios
        ));
    }
    if committed.points.len() != fresh.points.len() {
        outcome.hard_failures.push(format!(
            "point count mismatch: committed {}, fresh {}",
            committed.points.len(),
            fresh.points.len()
        ));
        return outcome;
    }
    if committed.host_threads != fresh.host_threads {
        outcome.advisories.push(format!(
            "host CPU count differs: committed {}, fresh {} (machine-dependent)",
            committed.host_threads, fresh.host_threads
        ));
    }
    for (old, new) in committed.points.iter().zip(&fresh.points) {
        let label = format!("scenario={}", old.scenario);
        if old.scenario != new.scenario {
            outcome.hard_failures.push(format!(
                "point identity mismatch: committed {label}, fresh scenario={}",
                new.scenario
            ));
            continue;
        }
        for (what, was, now) in [
            ("tracked regret", old.tracked_regret, new.tracked_regret),
            ("static regret", old.static_regret, new.static_regret),
            ("checksum", old.checksum, new.checksum),
        ] {
            if was.to_bits() != now.to_bits() {
                outcome.hard_failures.push(format!(
                    "{what} diverged at {label}: committed {was:?} ({:#018x}), \
                     fresh {now:?} ({:#018x})",
                    was.to_bits(),
                    now.to_bits()
                ));
            }
        }
        if old.iterations != new.iterations
            || old.total_copies != new.total_copies
            || old.total_rounds != new.total_rounds
            || old.warm_epochs != new.warm_epochs
        {
            outcome.hard_failures.push(format!(
                "{label}: virtual counts diverged: committed {} iters {} copies {} rounds \
                 {} warm, fresh {} iters {} copies {} rounds {} warm",
                old.iterations,
                old.total_copies,
                old.total_rounds,
                old.warm_epochs,
                new.iterations,
                new.total_copies,
                new.total_rounds,
                new.warm_epochs
            ));
        }
        if new.scenario == "diurnal" && new.regret_ratio > REGRET_GATE {
            outcome.hard_failures.push(format!(
                "{label}: regret ratio {} exceeds the {REGRET_GATE} gate",
                new.regret_ratio
            ));
        }
        if new.run_ms > old.run_ms * TIMING_TOLERANCE {
            outcome.advisories.push(format!(
                "{label}: run timing {:.2} ms exceeds {TIMING_TOLERANCE}× committed {:.2} ms",
                new.run_ms, old.run_ms
            ));
        }
    }
    outcome
}

/// The labels of the committed grid, in run order.
pub fn default_scenarios() -> Vec<String> {
    ["diurnal", "flash-crowd", "step", "node-churn"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> DriftBenchReport {
        bench_drift(&default_scenarios(), 6, 12, 7)
    }

    #[test]
    fn the_sweep_covers_every_preset_and_gates_diurnal() {
        let report = small_grid();
        assert_eq!(report.points.len(), 4);
        let diurnal = &report.points[0];
        assert_eq!(diurnal.scenario, "diurnal");
        assert!(diurnal.regret_ratio <= REGRET_GATE);
        for p in &report.points {
            assert!(p.checksum.is_finite());
            assert!(p.iterations > 0);
            assert_eq!(p.warm_epochs, report.epochs - 1, "all but epoch 0 run warm");
        }
    }

    #[test]
    fn check_passes_on_a_rerun_and_ignores_timing() {
        let committed = small_grid();
        let mut fresh = small_grid();
        fresh.points[0].run_ms = committed.points[0].run_ms * 100.0 + 1.0;
        let outcome = check_against(&committed, &fresh);
        assert!(outcome.is_pass(), "failures: {:?}", outcome.hard_failures);
        assert!(outcome.advisories.iter().any(|a| a.contains("run timing")));
    }

    #[test]
    fn check_hard_gates_regret_bits_counts_and_the_gate() {
        let committed = small_grid();

        let mut fresh = committed.clone();
        fresh.points[1].tracked_regret += 1e-9;
        let outcome = check_against(&committed, &fresh);
        assert!(!outcome.is_pass());
        assert!(outcome.hard_failures.iter().any(|f| f.contains("tracked regret diverged")));

        let mut fresh = committed.clone();
        fresh.points[2].total_copies += 1;
        let outcome = check_against(&committed, &fresh);
        assert!(outcome.hard_failures.iter().any(|f| f.contains("virtual counts diverged")));

        let mut fresh = committed.clone();
        fresh.points[0].regret_ratio = REGRET_GATE * 2.0;
        let outcome = check_against(&committed, &fresh);
        assert!(outcome.hard_failures.iter().any(|f| f.contains("exceeds the")));

        let mut regridded = committed.clone();
        regridded.epochs += 1;
        let outcome = check_against(&committed, &regridded);
        assert!(outcome.hard_failures.iter().any(|f| f.contains("grid mismatch")));
    }
}
