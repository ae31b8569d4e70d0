//! `fap serve` request lists: the CLI's batch syntax for both serving
//! commands.
//!
//! The input is a *scenario list*: a JSON array of tagged specs, one per
//! request. Three kinds are supported — `single_file` (wrapping the same
//! scenario format `fap solve` takes), `multi_file`, and `ring`. Each spec
//! is converted to a [`ServeRequest`] through a [`SubstrateCache`]; the
//! daemon in [`crate::served`] serves the requests, for a whole
//! `fap served` session or for the one envelope of `fap serve`.

use serde::{Deserialize, Serialize};

use fap_cache::{CostBackend, SubstrateCache};
use fap_core::MultiFileProblem;
use fap_net::AccessPattern;
use fap_obs::Recorder;
use fap_ring::VirtualRing;
use fap_serve::ServeRequest;

use crate::run::problem_of_with_costs;
use crate::scenario::{Scenario, ScenarioError, Topology};

fn default_alpha() -> f64 {
    0.1
}

fn default_epsilon() -> f64 {
    1e-6
}

fn default_ring_tolerance() -> f64 {
    1e-7
}

fn default_max_iterations() -> usize {
    1_000_000
}

/// One request in a `fap serve` scenario list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
#[non_exhaustive]
pub enum ServeSpec {
    /// A §4 single-file problem, in the same format `fap solve` reads.
    SingleFile {
        /// The scenario (topology, workload, model parameters).
        scenario: Scenario,
    },
    /// A §5.2 multi-file problem: one access-rate vector per file.
    MultiFile {
        /// The network.
        topology: Topology,
        /// Cost substrate (default: exact dense matrix, not serialized
        /// at its default so pre-PR-7 spec files round-trip bytewise).
        #[serde(default, skip_serializing_if = "CostBackend::is_exact")]
        cost_backend: CostBackend,
        /// `lambdas[j][i]` = file `j`'s access rate at node `i`.
        lambdas: Vec<Vec<f64>>,
        /// Per-node service rates (a single entry is broadcast to all).
        mus: Vec<f64>,
        /// The delay weight `k`.
        k: f64,
        /// Step size (default 0.1).
        #[serde(default = "default_alpha")]
        alpha: f64,
        /// Convergence tolerance (default 1e-6).
        #[serde(default = "default_epsilon")]
        epsilon: f64,
        /// Iteration cap (default 1 000 000).
        #[serde(default = "default_max_iterations")]
        max_iterations: usize,
    },
    /// A §7 multi-copy virtual-ring problem.
    Ring {
        /// Per-link communication costs (ring order, ≥ 3 links). Leave
        /// empty when `topology` is set.
        #[serde(default)]
        link_costs: Vec<f64>,
        /// Derive the ring from a network's cost substrate instead of
        /// explicit link costs — §7.2's imposed-ordering construction:
        /// virtual link `i → i+1 (mod N)` is priced at the substrate's
        /// cheapest-path cost between those nodes. Lets ring specs run
        /// on the sparse landmark backend at node counts where listing
        /// links (or the dense matrix) is impractical.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        topology: Option<Topology>,
        /// Cost substrate for a `topology`-derived ring (ignored for
        /// explicit link costs; default: exact dense matrix).
        #[serde(default, skip_serializing_if = "CostBackend::is_exact")]
        cost_backend: CostBackend,
        /// Per-node access rates.
        lambdas: Vec<f64>,
        /// Per-node service rates.
        mus: Vec<f64>,
        /// Number of copies `m` spread over the ring.
        copies: f64,
        /// The delay weight `k`.
        k: f64,
        /// Initial step size (default 0.1, decays on oscillation).
        #[serde(default = "default_alpha")]
        alpha: f64,
        /// Cost-delta halting tolerance (default 1e-7).
        #[serde(default = "default_ring_tolerance")]
        cost_delta_tolerance: f64,
        /// Iteration cap (default 1 000 000).
        #[serde(default = "default_max_iterations")]
        max_iterations: usize,
        /// Starting allocation (default: copies split evenly).
        #[serde(default)]
        initial: Option<Vec<f64>>,
    },
}

impl ServeSpec {
    /// The spec's cost backend (`None` for specs that need no substrate —
    /// explicit-link ring specs; topology-derived rings report theirs).
    pub fn cost_backend(&self) -> Option<CostBackend> {
        match self {
            ServeSpec::SingleFile { scenario } => Some(scenario.cost_backend),
            ServeSpec::MultiFile { cost_backend, .. } => Some(*cost_backend),
            ServeSpec::Ring { topology: Some(_), cost_backend, .. } => Some(*cost_backend),
            ServeSpec::Ring { .. } => None,
        }
    }

    /// Overrides the spec's cost backend (`fap serve --cost-backend`); a
    /// no-op for specs that need no substrate.
    pub fn set_cost_backend(&mut self, backend: CostBackend) {
        match self {
            ServeSpec::SingleFile { scenario } => scenario.cost_backend = backend,
            ServeSpec::MultiFile { cost_backend, .. } => *cost_backend = backend,
            ServeSpec::Ring { topology: Some(_), cost_backend, .. } => *cost_backend = backend,
            ServeSpec::Ring { .. } => {}
        }
    }

    /// Builds the solver-level request this spec describes, resolving its
    /// cost substrate through `cache`: specs sharing a topology fingerprint
    /// (and, for landmark backends, a `(K, seed)` pair) build their
    /// substrate once per distinct key (hits and misses are recorded as
    /// `cache.*` metrics in `recorder`). A cached substrate is the same
    /// bits a rebuild would produce, so the request does not depend on
    /// what the cache held.
    ///
    /// With `oracle_update` on (`--oracle-update`), landmark substrates go
    /// through [`SubstrateCache::get_fingerprinted`] with `update` set, so
    /// a cached oracle survives a small topology edit (edge re-price, node
    /// join/leave) as a dirty-frontier repair instead of a cold rebuild —
    /// which is what keeps a `WarmMode::Session` daemon warm across drift.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] when the spec is not a valid
    /// system.
    pub fn to_request_cached_with(
        &self,
        cache: &mut SubstrateCache,
        oracle_update: bool,
        recorder: &mut dyn Recorder,
    ) -> Result<ServeRequest, ScenarioError> {
        let (topology, backend) = match self {
            ServeSpec::SingleFile { scenario } => (&scenario.topology, scenario.cost_backend),
            ServeSpec::MultiFile { topology, cost_backend, .. } => (topology, *cost_backend),
            ServeSpec::Ring { topology: Some(topology), cost_backend, .. } => {
                (topology, *cost_backend)
            }
            ServeSpec::Ring { .. } => return self.ring_request(),
        };
        let graph = topology.build(backend)?;
        // Warm-start keys come off the built graph, so structurally
        // identical topologies written differently (a `ring` shape vs the
        // same ring as a link list) share chains, and a changed topology
        // rotates the keys, invalidating session seeds from the old network.
        // The cache keys its entries by the same fingerprint.
        let fingerprint = fap_cache::topology_fingerprint(&graph);
        let costs = cache
            .get_fingerprinted(&graph, fingerprint, backend, oracle_update, recorder)
            .map_err(crate::run::net_error)?;
        match self {
            ServeSpec::SingleFile { scenario } => {
                let problem = problem_of_with_costs(scenario, costs)?;
                let n = scenario.topology.node_count();
                let initial =
                    scenario.initial.clone().unwrap_or_else(|| vec![1.0 / n as f64; n]);
                Ok(ServeRequest::SingleFile {
                    problem,
                    initial,
                    alpha: scenario.alpha,
                    epsilon: scenario.epsilon,
                    max_iterations: 1_000_000,
                    topology: Some(fingerprint),
                })
            }
            ServeSpec::MultiFile { .. } => self.multi_file_request(costs, fingerprint),
            ServeSpec::Ring { .. } => self.ring_request_from(costs),
        }
    }

    fn multi_file_request(
        &self,
        costs: &dyn fap_net::CostProvider,
        fingerprint: u64,
    ) -> Result<ServeRequest, ScenarioError> {
        let ServeSpec::MultiFile {
            topology, lambdas, mus, k, alpha, epsilon, max_iterations, ..
        } = self
        else {
            unreachable!("multi_file_request called on a non-multi-file spec");
        };
        let n = topology.node_count();
        let patterns: Vec<AccessPattern> = lambdas
            .iter()
            .map(|rates| AccessPattern::new(rates.clone()))
            .collect::<Result<_, _>>()
            .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        let rates = if mus.len() == 1 { vec![mus[0]; n] } else { mus.clone() };
        let problem =
            MultiFileProblem::mm1_heterogeneous_with_provider(costs, &patterns, &rates, *k)
                .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        let initial = vec![vec![1.0 / n as f64; n]; lambdas.len()];
        Ok(ServeRequest::MultiFile {
            problem,
            initial,
            alpha: *alpha,
            epsilon: *epsilon,
            max_iterations: *max_iterations,
            topology: Some(fingerprint),
        })
    }

    fn ring_request(&self) -> Result<ServeRequest, ScenarioError> {
        let ServeSpec::Ring { link_costs, lambdas, mus, copies, k, .. } = self else {
            unreachable!("ring_request called on a non-ring spec");
        };
        let ring =
            VirtualRing::new(link_costs.clone(), lambdas.clone(), mus.clone(), *copies, *k)
                .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        self.ring_request_of(ring)
    }

    /// A topology-derived ring: virtual link costs come from the cost
    /// substrate (`VirtualRing::from_provider`), so the spec runs on
    /// whichever backend — dense or landmark — resolved `costs`.
    fn ring_request_from(
        &self,
        costs: &dyn fap_net::CostProvider,
    ) -> Result<ServeRequest, ScenarioError> {
        let ServeSpec::Ring { link_costs, lambdas, mus, copies, k, .. } = self else {
            unreachable!("ring_request_from called on a non-ring spec");
        };
        if !link_costs.is_empty() {
            return Err(ScenarioError::Invalid(
                "ring spec sets both explicit link_costs and a topology; pick one".into(),
            ));
        }
        let ring =
            VirtualRing::from_provider(costs, lambdas.clone(), mus.clone(), *copies, *k)
                .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        self.ring_request_of(ring)
    }

    fn ring_request_of(&self, ring: VirtualRing) -> Result<ServeRequest, ScenarioError> {
        let ServeSpec::Ring {
            lambdas, copies, alpha, cost_delta_tolerance, max_iterations, initial, ..
        } = self
        else {
            unreachable!("ring_request_of called on a non-ring spec");
        };
        let n = lambdas.len();
        let initial = initial.clone().unwrap_or_else(|| vec![copies / n as f64; n]);
        Ok(ServeRequest::Ring {
            ring,
            initial,
            alpha: *alpha,
            cost_delta_tolerance: *cost_delta_tolerance,
            max_iterations: *max_iterations,
        })
    }
}

/// Parses a scenario list (a JSON array of [`ServeSpec`]s).
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] for bad JSON and
/// [`ScenarioError::Invalid`] for an empty list.
pub fn specs_from_json(text: &str) -> Result<Vec<ServeSpec>, ScenarioError> {
    let specs: Vec<ServeSpec> = serde_json::from_str(text)?;
    if specs.is_empty() {
        return Err(ScenarioError::Invalid("scenario list is empty".into()));
    }
    Ok(specs)
}

/// Loads a scenario list from a file.
///
/// # Errors
///
/// Returns [`ScenarioError::Io`] when the file cannot be read, plus the
/// conditions of [`specs_from_json`].
pub fn load_specs(path: &std::path::Path) -> Result<Vec<ServeSpec>, ScenarioError> {
    specs_from_json(&std::fs::read_to_string(path)?)
}

/// A ready-to-edit template scenario list: one request of each kind.
pub fn example_specs() -> Vec<ServeSpec> {
    vec![
        ServeSpec::SingleFile { scenario: Scenario::example() },
        ServeSpec::MultiFile {
            topology: Topology::Ring { n: 4, link_cost: 1.0 },
            cost_backend: CostBackend::Dense,
            lambdas: vec![vec![0.25; 4], vec![0.1, 0.2, 0.3, 0.4]],
            mus: vec![2.5],
            k: 1.0,
            alpha: 0.1,
            epsilon: 1e-6,
            max_iterations: 1_000_000,
        },
        ServeSpec::Ring {
            link_costs: vec![4.0, 1.0, 1.0, 1.0],
            topology: None,
            cost_backend: CostBackend::Dense,
            lambdas: vec![0.25; 4],
            mus: vec![1.5; 4],
            copies: 2.0,
            k: 1.0,
            alpha: 0.1,
            cost_delta_tolerance: 1e-7,
            max_iterations: 3_000,
            initial: Some(vec![2.0, 0.0, 0.0, 0.0]),
        },
    ]
}

/// The template list rendered to pretty JSON (`fap serve-example`).
pub fn example_specs_json() -> String {
    serde_json::to_string_pretty(&example_specs()).expect("spec serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_batch::Parallelism;
    use fap_obs::{NoopRecorder, Telemetry};
    use fap_serve::{BatchServer, ServeError, ServeResponse, WarmMode};

    use crate::served::serve_once;

    /// The request a spec resolves to through a cache of its own, so
    /// every lookup is a miss.
    fn fresh_request(spec: &ServeSpec) -> Result<ServeRequest, ScenarioError> {
        spec.to_request_cached_with(&mut SubstrateCache::new(), false, &mut NoopRecorder)
    }

    /// The reference both serving commands are pinned to: every spec
    /// built through one cache and served by a fresh [`BatchServer`].
    fn reference(specs: &[ServeSpec], warm: WarmMode) -> Vec<Result<ServeResponse, ServeError>> {
        let mut cache = SubstrateCache::new();
        let requests: Vec<ServeRequest> = specs
            .iter()
            .map(|spec| spec.to_request_cached_with(&mut cache, false, &mut NoopRecorder).unwrap())
            .collect();
        BatchServer::new(Parallelism::Sequential, warm).serve(&requests, &mut NoopRecorder)
    }

    /// The `"responses":[...]` fragment a batch line embeds for `responses`.
    fn responses_fragment(responses: &[Result<ServeResponse, ServeError>]) -> String {
        let rendered: Vec<serde::Value> =
            responses.iter().map(|r| r.as_ref().unwrap().serialize_value()).collect();
        format!("\"responses\":{}", serde_json::to_string(&serde::Value::Array(rendered)).unwrap())
    }

    /// `fap serve`'s batch line for `specs`, with everything the session
    /// recorded.
    fn serve_line(
        specs: &[ServeSpec],
        shards: Parallelism,
        warm_start: bool,
    ) -> (String, Telemetry) {
        let mut telemetry = Telemetry::manual();
        let line = serve_once(specs, shards, warm_start, false, &mut telemetry).unwrap();
        (line, telemetry)
    }

    #[test]
    fn example_list_round_trips_and_serves() {
        let json = example_specs_json();
        let specs = specs_from_json(&json).unwrap();
        assert_eq!(specs, example_specs());
        let (line, telemetry) = serve_line(&specs, Parallelism::Fixed(2), false);
        assert!(line.starts_with("{\"id\":0,\"kind\":\"batch\""), "{line}");
        assert!(line.contains("\"ok\":3,\"err\":0"), "{line}");
        assert!(line.contains(&responses_fragment(&reference(&specs, WarmMode::Off))), "{line}");
        assert_eq!(telemetry.registry().counter("serve.requests"), 3);
        assert_eq!(telemetry.registry().counter("served.batches"), 1);
    }

    #[test]
    fn sharded_serving_matches_sequential_through_the_spec_layer() {
        let mut specs = example_specs();
        specs.extend(example_specs());
        let (sequential, _) = serve_line(&specs, Parallelism::Sequential, false);
        for shards in [2, 8] {
            let (sharded, _) = serve_line(&specs, Parallelism::Fixed(shards), false);
            assert_eq!(sequential, sharded);
        }
    }

    #[test]
    fn single_file_spec_matches_fap_solve() {
        let scenario = Scenario::example();
        let solve = crate::run::solve(&scenario, &mut NoopRecorder).unwrap();
        let output = reference(&[ServeSpec::SingleFile { scenario }], WarmMode::Off);
        match output[0].as_ref().unwrap() {
            fap_serve::ServeResponse::SingleFile(s) => {
                assert_eq!(s.allocation, solve.allocation);
                assert_eq!(s.iterations, solve.iterations);
            }
            other => panic!("expected a single-file response, got {other:?}"),
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_their_index() {
        let mut specs = example_specs();
        if let ServeSpec::Ring { link_costs, .. } = &mut specs[2] {
            link_costs.truncate(2); // a ring needs ≥ 3 links
        }
        let err = serve_once(&specs, Parallelism::Sequential, false, false, &mut NoopRecorder)
            .unwrap_err();
        assert!(err.starts_with("request 2: "), "{err}");
    }

    #[test]
    fn empty_lists_are_invalid() {
        assert!(matches!(specs_from_json("[]"), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn repeated_topologies_hit_the_substrate_cache() {
        // Three copies of the example list: 6 graph-backed specs (the ring
        // spec needs no matrix), but the single- and multi-file examples
        // share one topology — Dijkstra runs once for the whole batch.
        let mut specs = example_specs();
        specs.extend(example_specs());
        specs.extend(example_specs());
        let (line, telemetry) = serve_line(&specs, Parallelism::Sequential, false);
        assert!(line.contains("\"ok\":9,\"err\":0"), "{line}");
        let registry = telemetry.registry();
        assert_eq!(registry.counter("cache.miss"), 1, "one distinct topology");
        assert_eq!(registry.counter("cache.hit"), 5, "repeats are hits");
        assert!(registry.gauge_value("cache.bytes").unwrap() > 0.0);
    }

    #[test]
    fn cached_serving_is_bit_identical_to_uncached_requests() {
        let mut specs = example_specs();
        specs.extend(example_specs());
        let direct: Vec<ServeRequest> = specs.iter().map(|s| fresh_request(s).unwrap()).collect();
        let uncached = BatchServer::new(Parallelism::Sequential, WarmMode::Off)
            .serve(&direct, &mut NoopRecorder);
        let (cached, _) = serve_line(&specs, Parallelism::Sequential, false);
        assert!(cached.contains(&responses_fragment(&uncached)), "{cached}");
    }

    #[test]
    fn landmark_specs_serve_through_the_oracle_cache() {
        let mut sparse_scenario = Scenario::example();
        sparse_scenario.cost_backend = CostBackend::Landmark { landmarks: 2, seed: 1 };
        let specs = vec![
            ServeSpec::SingleFile { scenario: sparse_scenario.clone() },
            ServeSpec::SingleFile { scenario: sparse_scenario },
            ServeSpec::SingleFile { scenario: Scenario::example() },
        ];
        let (line, telemetry) = serve_line(&specs, Parallelism::Sequential, false);
        assert!(line.contains("\"ok\":3,\"err\":0"), "{line}");
        let registry = telemetry.registry();
        assert_eq!(registry.counter("cache.landmark_miss"), 1, "one oracle build");
        assert_eq!(registry.counter("cache.landmark_hit"), 1, "repeat spec hits");
        assert_eq!(registry.counter("cache.miss"), 1, "dense spec uses the dense side");
        // A round-trip through JSON preserves the backend choice.
        let json = serde_json::to_string(&specs).unwrap();
        assert_eq!(specs_from_json(&json).unwrap(), specs);
    }

    #[test]
    fn topology_derived_ring_specs_run_on_either_backend() {
        let base = ServeSpec::Ring {
            link_costs: vec![],
            topology: Some(Topology::Ring { n: 6, link_cost: 2.0 }),
            cost_backend: CostBackend::Dense,
            lambdas: vec![0.25; 6],
            mus: vec![1.5; 6],
            copies: 2.0,
            k: 1.0,
            alpha: 0.1,
            cost_delta_tolerance: 1e-7,
            max_iterations: 3_000,
            initial: None,
        };
        let mut sparse = base.clone();
        sparse.set_cost_backend(CostBackend::Landmark { landmarks: 3, seed: 1 });
        assert_eq!(
            sparse.cost_backend(),
            Some(CostBackend::Landmark { landmarks: 3, seed: 1 }),
            "topology-derived rings expose and accept a backend"
        );
        let specs = vec![base.clone(), sparse];
        let (line, telemetry) = serve_line(&specs, Parallelism::Sequential, false);
        assert!(line.contains("\"ok\":2,\"err\":0"), "{line}");
        assert_eq!(telemetry.registry().counter("cache.miss"), 1, "dense ring substrate");
        assert_eq!(telemetry.registry().counter("cache.landmark_miss"), 1, "sparse one");
        // A cache hit and a fresh build agree bit for bit.
        let direct = fresh_request(&base).unwrap();
        let mut cache = SubstrateCache::new();
        let mut noop = NoopRecorder;
        base.to_request_cached_with(&mut cache, false, &mut noop).unwrap();
        let cached = base.to_request_cached_with(&mut cache, false, &mut noop).unwrap();
        assert_eq!(cache.hits(), 1, "the second lookup is a hit");
        match (&direct, &cached) {
            (ServeRequest::Ring { ring: a, .. }, ServeRequest::Ring { ring: b, .. }) => {
                assert_eq!(a, b);
                // A physical 6-ring with cost-2 links prices every
                // virtual forward link at exactly one hop.
                assert_eq!(a.link_costs(), &[2.0; 6]);
            }
            other => panic!("expected ring requests, got {other:?}"),
        }
        // JSON round-trip keeps the topology form; explicit specs that
        // also name a topology are rejected.
        let json = serde_json::to_string(&specs).unwrap();
        assert_eq!(specs_from_json(&json).unwrap(), specs);
        let mut both = base;
        if let ServeSpec::Ring { link_costs, .. } = &mut both {
            *link_costs = vec![1.0; 6];
        }
        assert!(fresh_request(&both).unwrap_err().to_string().contains("pick one"));
    }

    #[test]
    fn backend_override_rewrites_every_spec() {
        let mut specs = example_specs();
        let backend = CostBackend::Landmark { landmarks: 3, seed: 9 };
        for spec in &mut specs {
            spec.set_cost_backend(backend);
        }
        assert_eq!(specs[0].cost_backend(), Some(backend));
        assert_eq!(specs[1].cost_backend(), Some(backend));
        assert_eq!(specs[2].cost_backend(), None, "ring specs need no substrate");
    }

    #[test]
    fn warm_serving_reaches_the_same_optima_with_fewer_iterations() {
        // Identical single-file scenarios: the warm chain re-solves a
        // converged problem, so every seeded run is nearly free.
        let specs: Vec<ServeSpec> = (0..4)
            .map(|_| ServeSpec::SingleFile { scenario: Scenario::example() })
            .collect();
        let (cold, cold_telemetry) = serve_line(&specs, Parallelism::Sequential, false);
        let (warm, warm_telemetry) = serve_line(&specs, Parallelism::Sequential, true);
        assert!(warm.contains("\"ok\":4,\"err\":0"), "{warm}");
        let (cold_registry, warm_registry) =
            (cold_telemetry.registry(), warm_telemetry.registry());
        assert_eq!(warm_registry.counter("serve.warm_starts"), 3);
        assert!(
            warm_registry.counter("econ.iterations") < cold_registry.counter("econ.iterations")
        );
        // The lines embed the reference responses of each warm setting.
        let (cold_output, warm_output) =
            (reference(&specs, WarmMode::Off), reference(&specs, WarmMode::Batch));
        assert!(cold.contains(&responses_fragment(&cold_output)), "{cold}");
        assert!(warm.contains(&responses_fragment(&warm_output)), "{warm}");
        for (w, c) in warm_output.iter().zip(&cold_output) {
            let (w, c) = (w.as_ref().unwrap(), c.as_ref().unwrap());
            assert!(w.converged());
            assert!(w.iterations() <= c.iterations());
        }
        // And warm sharded serving still matches warm sequential.
        let (warm_sharded, _) = serve_line(&specs, Parallelism::Fixed(4), true);
        assert_eq!(warm, warm_sharded);
    }
}
