//! Executing scenarios: solve, simulate, sweep.

use serde::{Deserialize, Serialize};

use fap_core::{reference, tuning, SingleFileProblem};
use fap_econ::{ResourceDirectedOptimizer, StepSize};
use fap_obs::{NoopRecorder, Recorder};
use fap_queue::{NetworkSimulation, ServiceDistribution, SimReport};
use fap_runtime::{ChaosPlan, ExchangeScheme, SimReport as ChaosReport, SimRun};

use crate::scenario::{Scenario, ScenarioError};

/// The result of `fap solve`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOutput {
    /// The allocation the decentralized algorithm found.
    pub allocation: Vec<f64>,
    /// Its cost.
    pub cost: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the ε-criterion fired.
    pub converged: bool,
    /// The closed-form reference cost (sanity check).
    pub reference_cost: f64,
    /// `|cost − reference_cost|`.
    pub reference_gap: f64,
}

/// Maps a net-layer error into a scenario error, pointing oversized dense
/// builds at the sparse backend the CLI offers.
pub(crate) fn net_error(e: fap_net::NetError) -> ScenarioError {
    if matches!(e, fap_net::NetError::TooLarge { .. }) {
        ScenarioError::Invalid(format!("{e} (hint: retry with --cost-backend landmark)"))
    } else {
        ScenarioError::Invalid(e.to_string())
    }
}

/// Builds the single-file problem a scenario describes, through the
/// scenario's configured cost backend (dense matrix or landmark oracle),
/// resolved by a one-shot [`SubstrateCache`](fap_cache::SubstrateCache).
pub(crate) fn problem_of(scenario: &Scenario) -> Result<SingleFileProblem, ScenarioError> {
    let graph = scenario.topology.build(scenario.cost_backend)?;
    let mut cache = fap_cache::SubstrateCache::new();
    let costs = cache
        .get_or_build(&graph, scenario.cost_backend, &mut NoopRecorder)
        .map_err(net_error)?;
    problem_of_with_costs(scenario, costs)
}

/// Builds the single-file problem a scenario describes from an
/// already-built cost provider.
pub(crate) fn problem_of_with_costs(
    scenario: &Scenario,
    costs: &dyn fap_net::CostProvider,
) -> Result<SingleFileProblem, ScenarioError> {
    let pattern = scenario.pattern()?;
    SingleFileProblem::mm1_heterogeneous_with_provider(
        costs,
        &pattern,
        &scenario.service_rates(),
        scenario.k,
    )
    .map_err(|e| ScenarioError::Invalid(e.to_string()))
}

/// Solves a scenario with the decentralized algorithm and cross-checks the
/// closed-form reference, recording the optimizer's per-iteration
/// telemetry (`econ.*` counters, gauges and `iter`/`run_end` events) into
/// `recorder`. Virtual time is the iteration counter, so with a
/// manual-clock [`fap_obs::Telemetry`] the emitted stream is deterministic.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] if the scenario cannot be built or
/// the solve fails.
pub fn solve(
    scenario: &Scenario,
    recorder: &mut dyn Recorder,
) -> Result<SolveOutput, ScenarioError> {
    let problem = problem_of(scenario)?;
    let n = scenario.topology.node_count();
    let initial = scenario.initial.clone().unwrap_or_else(|| vec![1.0 / n as f64; n]);
    let solution = ResourceDirectedOptimizer::new(StepSize::Fixed(scenario.alpha))
        .with_epsilon(scenario.epsilon)
        .with_max_iterations(1_000_000)
        .run(&problem, &initial, recorder)
        .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
    let exact = reference::solve(&problem).map_err(|e| ScenarioError::Invalid(e.to_string()))?;
    Ok(SolveOutput {
        cost: solution.final_cost(),
        iterations: solution.iterations,
        converged: solution.converged,
        reference_cost: exact.cost,
        reference_gap: (solution.final_cost() - exact.cost).abs(),
        allocation: solution.allocation,
    })
}

/// Solves a scenario and measures the resulting allocation with the
/// discrete-event simulator.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] if the scenario cannot be built or
/// simulated.
pub fn simulate(scenario: &Scenario) -> Result<(SolveOutput, SimReport), ScenarioError> {
    let output = solve(scenario, &mut NoopRecorder)?;
    let graph = scenario.topology.build(fap_cache::CostBackend::Dense)?;
    let costs = graph.shortest_path_matrix().map_err(net_error)?;
    let services: Vec<ServiceDistribution> = scenario
        .service_rates()
        .iter()
        .map(|&mu| ServiceDistribution::exponential(mu))
        .collect::<Result<_, _>>()
        .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
    let report = NetworkSimulation::with_service_per_node(
        output.allocation.clone(),
        scenario.pattern()?,
        costs,
        services,
    )
    .map_err(|e| ScenarioError::Invalid(e.to_string()))?
    .with_duration(scenario.sim_duration)
    .with_seed(scenario.sim_seed)
    .run()
    .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
    Ok((output, report))
}

/// Runs the decentralized protocol for a scenario under a seeded
/// fault-injection plan (`fap sim`), recording the run's telemetry (`sim.*`
/// fault counters, the round-latency histogram and the per-round event
/// stream) into `recorder`. A default [`ChaosPlan`] is fault-free, in which
/// case the result is bit-identical to the centralized resource-directed
/// optimizer. All measurements are on virtual (round) time, so for a fixed
/// scenario and plan the stream is byte-reproducible: two runs with the
/// same seed serialize to identical JSONL.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] if the scenario or the plan cannot
/// be built, or the run gets stuck.
pub fn chaos_sim(
    scenario: &Scenario,
    plan: ChaosPlan,
    recorder: &mut dyn Recorder,
) -> Result<ChaosReport, ScenarioError> {
    let problem = problem_of(scenario)?;
    let n = scenario.topology.node_count();
    let initial = scenario.initial.clone().unwrap_or_else(|| vec![1.0 / n as f64; n]);
    SimRun::new(&problem, ExchangeScheme::Broadcast, scenario.alpha)
        .with_epsilon(scenario.epsilon)
        .with_max_rounds(1_000_000)
        .with_chaos(plan)
        .run(&initial, recorder)
        .map_err(|e| ScenarioError::Invalid(e.to_string()))
}

/// Sweeps the delay weight `k` over `candidates` (the §8.2 trade-off),
/// using the scenario's network and workload. Requires a uniform service
/// rate.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] for heterogeneous service rates or a
/// bad candidate list.
pub fn sweep_k(
    scenario: &Scenario,
    candidates: &[f64],
) -> Result<Vec<tuning::KSweepPoint>, ScenarioError> {
    let rates = scenario.service_rates();
    let mu = rates[0];
    if rates.iter().any(|m| (m - mu).abs() > 1e-12) {
        return Err(ScenarioError::Invalid(
            "sweep-k requires a uniform service rate".into(),
        ));
    }
    let graph = scenario.topology.build(fap_cache::CostBackend::Dense)?;
    let costs = graph.shortest_path_matrix().map_err(net_error)?;
    tuning::k_sweep(&costs, &scenario.pattern()?, mu, candidates)
        .map_err(|e| ScenarioError::Invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solving_the_example_reproduces_the_paper() {
        let output = solve(&Scenario::example(), &mut NoopRecorder).unwrap();
        assert!(output.converged);
        assert!((output.cost - 1.8).abs() < 1e-4);
        assert!(output.reference_gap < 1e-4);
        for x in &output.allocation {
            assert!((x - 0.25).abs() < 1e-3);
        }
    }

    #[test]
    fn simulation_tracks_the_model() {
        let mut scenario = Scenario::example();
        scenario.sim_duration = 50_000.0;
        let (output, report) = simulate(&scenario).unwrap();
        let measured = report.mean_total_cost(scenario.k);
        assert!((measured - output.cost).abs() / output.cost < 0.05);
    }

    #[test]
    fn sweep_k_runs_on_uniform_rates_only() {
        let scenario = Scenario::example();
        let sweep = sweep_k(&scenario, &[0.5, 2.0]).unwrap();
        assert_eq!(sweep.len(), 2);
        assert!(sweep[1].mean_delay <= sweep[0].mean_delay + 1e-9);

        let mut het = Scenario::example();
        het.mus = vec![1.5, 1.5, 1.5, 2.0];
        assert!(sweep_k(&het, &[1.0]).is_err());
    }

    #[test]
    fn chaos_sim_without_faults_matches_solve() {
        let scenario = Scenario::example();
        let report = chaos_sim(&scenario, ChaosPlan::new(0), &mut NoopRecorder).unwrap();
        assert!(report.converged);
        let ideal = solve(&scenario, &mut NoopRecorder).unwrap();
        assert!((report.final_cost() - ideal.cost).abs() < 1e-9);
        assert_eq!(report.faults.dropped, 0);
    }

    #[test]
    fn chaos_sim_with_faults_still_converges_on_the_example() {
        let scenario = Scenario::example();
        let plan = ChaosPlan::new(11)
            .with_drop(0.2)
            .with_staleness_bound(2)
            .with_retries(1);
        let report = chaos_sim(&scenario, plan, &mut NoopRecorder).unwrap();
        assert!(report.converged);
        assert!(report.faults.dropped > 0);
    }

    #[test]
    fn observed_solve_matches_and_records_iterations() {
        let scenario = Scenario::example();
        let plain = solve(&scenario, &mut NoopRecorder).unwrap();
        let mut telemetry = fap_obs::Telemetry::manual();
        let observed = solve(&scenario, &mut telemetry).unwrap();
        assert_eq!(plain, observed, "recording must not perturb the solve");
        assert_eq!(
            telemetry.registry().counter("econ.iterations"),
            (observed.iterations + 1) as u64
        );
        assert_eq!(telemetry.events().last().unwrap().name(), "run_end");
    }

    #[test]
    fn observed_chaos_sim_exports_reproducible_jsonl() {
        let scenario = Scenario::example();
        let plan = ChaosPlan::new(11).with_drop(0.2).with_staleness_bound(2).with_retries(1);
        let record = |plan: ChaosPlan| {
            let mut telemetry = fap_obs::Telemetry::manual();
            let report = chaos_sim(&scenario, plan, &mut telemetry).unwrap();
            (report, telemetry.to_jsonl())
        };
        let (report_a, jsonl_a) = record(plan.clone());
        let (report_b, jsonl_b) = record(plan);
        assert_eq!(report_a, report_b);
        assert_eq!(jsonl_a, jsonl_b, "seeded sim telemetry must be byte-identical");
        assert!(jsonl_a.contains("\"counter\":\"sim.dropped\""));
        // The plain path is the observed path with a no-op recorder.
        let plain = chaos_sim(
            &scenario,
            ChaosPlan::new(11).with_drop(0.2).with_staleness_bound(2).with_retries(1),
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(plain, report_a);
    }

    #[test]
    fn landmark_backend_allocation_is_near_optimal_on_the_true_costs() {
        // The sparse solve optimizes hub-estimated access costs, so its
        // *reported* cost is not comparable to the dense one; the quality
        // metric is the sparse allocation evaluated on the exact dense
        // objective, which on a symmetric 16-ring lands within a few
        // percent of the dense optimum.
        let n = 16;
        let base = Scenario {
            topology: crate::scenario::Topology::Ring { n, link_cost: 1.0 },
            lambdas: vec![1.0 / n as f64; n],
            mus: vec![1.5],
            k: 1.0,
            alpha: 0.1,
            epsilon: 1e-6,
            initial: None,
            sim_duration: 1.0,
            sim_seed: 0,
            cost_backend: fap_cache::CostBackend::Dense,
        };
        let mut scenario = base.clone();
        scenario.cost_backend =
            fap_cache::CostBackend::Landmark { landmarks: 4, seed: 1 };
        let sparse = solve(&scenario, &mut NoopRecorder).unwrap();
        assert!(sparse.converged);
        let dense = solve(&base, &mut NoopRecorder).unwrap();
        let dense_problem = problem_of(&base).unwrap();
        let sparse_on_true = dense_problem.cost_of(&sparse.allocation).unwrap();
        assert!(
            (sparse_on_true - dense.cost) / dense.cost < 0.05,
            "sparse allocation costs {sparse_on_true} on the true objective vs optimal {}",
            dense.cost
        );
    }

    #[test]
    fn oversized_dense_builds_hint_at_the_sparse_backend() {
        // 8200² elements exceed the default dense budget (2²⁶); the guard
        // fires before any allocation, so this is fast, and the CLI error
        // names the escape hatch.
        let n = 8200;
        let scenario = Scenario {
            topology: crate::scenario::Topology::Ring { n, link_cost: 1.0 },
            lambdas: vec![1.0 / n as f64; n],
            mus: vec![1.5],
            k: 1.0,
            alpha: 0.1,
            epsilon: 1e-6,
            initial: None,
            sim_duration: 1.0,
            sim_seed: 0,
            cost_backend: fap_cache::CostBackend::Dense,
        };
        let err = solve(&scenario, &mut NoopRecorder).unwrap_err().to_string();
        assert!(err.contains("--cost-backend landmark"), "{err}");
    }

    #[test]
    fn heterogeneous_scenarios_solve() {
        let json = r#"{
            "topology": {"type": "star", "n": 4, "link_cost": 1.0},
            "lambdas": [0.4, 0.2, 0.2, 0.2],
            "mus": [3.0, 1.2, 1.2, 1.2],
            "k": 1.0,
            "alpha": 0.05
        }"#;
        let scenario = Scenario::from_json(json).unwrap();
        let output = solve(&scenario, &mut NoopRecorder).unwrap();
        assert!(output.converged);
        assert!(output.allocation[0] > output.allocation[1], "fast hub should hold more");
    }
}
