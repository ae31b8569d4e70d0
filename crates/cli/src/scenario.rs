//! Scenario files: the JSON surface of the system.

use std::fmt;

use serde::{Deserialize, Serialize};

use fap_cache::CostBackend;
use fap_net::shortest_path::{DEFAULT_DENSE_ELEMENT_BUDGET, SUBSTRATE_BYTE_LIMIT};
use fap_net::{topology, AccessPattern, Graph, NetError, NodeId};

use crate::run::net_error;

/// Errors while loading or validating a scenario.
#[derive(Debug)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The JSON did not parse.
    Parse(serde_json::Error),
    /// The scenario parsed but is not a valid system.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io(e) => write!(f, "cannot read scenario: {e}"),
            ScenarioError::Parse(e) => write!(f, "cannot parse scenario: {e}"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Io(e) => Some(e),
            ScenarioError::Parse(e) => Some(e),
            ScenarioError::Invalid(_) => None,
        }
    }
}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

impl From<serde_json::Error> for ScenarioError {
    fn from(e: serde_json::Error) -> Self {
        ScenarioError::Parse(e)
    }
}

/// The network shape of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
#[non_exhaustive]
pub enum Topology {
    /// A ring of `n` nodes with uniform link cost.
    Ring {
        /// Node count (≥ 3).
        n: usize,
        /// Cost of each link.
        link_cost: f64,
    },
    /// A complete graph of `n` nodes with uniform link cost.
    FullMesh {
        /// Node count (≥ 2).
        n: usize,
        /// Cost of each link.
        link_cost: f64,
    },
    /// A star: node 0 the hub, `n − 1` leaves.
    Star {
        /// Node count (≥ 2).
        n: usize,
        /// Cost of each spoke.
        link_cost: f64,
    },
    /// An explicit undirected link list.
    Links {
        /// Node count.
        n: usize,
        /// `(from, to, cost)` triples.
        links: Vec<(usize, usize, f64)>,
    },
}

impl Topology {
    /// Builds the graph a solve on `backend` runs over, after pricing both
    /// the graph and the cost substrate `backend` will build on it from
    /// the spec fields alone: the adjacency lists against 1 GiB, then the
    /// dense matrix's `n²` elements against [`DEFAULT_DENSE_ELEMENT_BUDGET`]
    /// or the landmark oracle's `min(max(K, 1), n) × n` table of `f64`
    /// against 1 GiB. Every scenario and serve spec builds through here.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] for malformed shapes, and for a
    /// graph or substrate over its limit (refused before anything is
    /// allocated).
    pub fn build(&self, backend: CostBackend) -> Result<Graph, ScenarioError> {
        within_byte_limit(self.graph_bytes(), "adjacency bytes", || {
            format!("a topology of {} nodes", self.node_count())
        })?;
        let n = self.node_count();
        match backend {
            CostBackend::Dense => {
                let elements = (n as u128) * (n as u128);
                if elements > u128::from(DEFAULT_DENSE_ELEMENT_BUDGET) {
                    let budget = DEFAULT_DENSE_ELEMENT_BUDGET;
                    return Err(net_error(NetError::TooLarge { nodes: n, elements, budget }));
                }
            }
            CostBackend::Landmark { landmarks, .. } => {
                let rows = landmarks.max(1).min(n);
                let bytes =
                    rows.checked_mul(n).and_then(|e| e.checked_mul(std::mem::size_of::<f64>()));
                within_byte_limit(bytes, "bytes", || {
                    format!("a landmark table of {rows} x {n} distances")
                })?;
            }
        }
        let graph = match self {
            Topology::Ring { n, link_cost } => topology::ring(*n, *link_cost),
            Topology::FullMesh { n, link_cost } => topology::full_mesh(*n, *link_cost),
            Topology::Star { n, link_cost } => topology::star(*n, *link_cost),
            Topology::Links { n, links } => {
                let mut g = Graph::new(*n);
                for &(a, b, cost) in links {
                    g.add_link(NodeId::new(a), NodeId::new(b), cost)
                        .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
                }
                return Ok(g);
            }
        };
        graph.map_err(|e| ScenarioError::Invalid(e.to_string()))
    }

    /// Bytes the built graph's adjacency lists hold, from the spec fields
    /// alone: one `(NodeId, f64)` entry per directed link and one list per
    /// node. `None` when the count overflows `usize`.
    fn graph_bytes(&self) -> Option<usize> {
        let (n, entries) = match self {
            Topology::Ring { n, .. } => (*n, n.checked_mul(2)?),
            Topology::FullMesh { n, .. } => (*n, n.checked_mul(n.saturating_sub(1))?),
            Topology::Star { n, .. } => (*n, n.saturating_sub(1).checked_mul(2)?),
            Topology::Links { n, links } => (*n, links.len().checked_mul(2)?),
        };
        let lists = n.checked_mul(std::mem::size_of::<Vec<(NodeId, f64)>>())?;
        entries.checked_mul(std::mem::size_of::<(NodeId, f64)>())?.checked_add(lists)
    }

    /// Number of nodes this topology describes.
    pub fn node_count(&self) -> usize {
        match self {
            Topology::Ring { n, .. }
            | Topology::FullMesh { n, .. }
            | Topology::Star { n, .. }
            | Topology::Links { n, .. } => *n,
        }
    }
}

/// Refuses `bytes` (`None` when the count overflowed) over
/// [`SUBSTRATE_BYTE_LIMIT`], naming what needs them.
fn within_byte_limit(
    bytes: Option<usize>,
    unit: &str,
    subject: impl FnOnce() -> String,
) -> Result<(), ScenarioError> {
    match bytes {
        Some(b) if b <= SUBSTRATE_BYTE_LIMIT => Ok(()),
        _ => {
            let need = bytes.map_or_else(|| "an overflowing number of".into(), |b| b.to_string());
            Err(ScenarioError::Invalid(format!(
                "{} needs {need} {unit}, over the {SUBSTRATE_BYTE_LIMIT}-byte limit",
                subject()
            )))
        }
    }
}

/// A complete scenario: network + workload + model parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The network.
    pub topology: Topology,
    /// Per-node access rates `λ_i`.
    pub lambdas: Vec<f64>,
    /// Per-node service rates `μ_i` (a single entry is broadcast to all).
    pub mus: Vec<f64>,
    /// The delay weight `k`.
    pub k: f64,
    /// Step size for the decentralized solve (default 0.1).
    #[serde(default = "default_alpha")]
    pub alpha: f64,
    /// Convergence tolerance (default 1e-6).
    #[serde(default = "default_epsilon")]
    pub epsilon: f64,
    /// Starting allocation (default: even split).
    #[serde(default)]
    pub initial: Option<Vec<f64>>,
    /// Simulation horizon for `fap simulate` (default 100 000 time units).
    #[serde(default = "default_duration")]
    pub sim_duration: f64,
    /// Simulation seed (default 0).
    #[serde(default)]
    pub sim_seed: u64,
    /// Cost substrate: the exact dense matrix (default) or the sparse
    /// landmark oracle (`{"kind": "landmark", "landmarks": K, "seed": S}`).
    /// The default is not serialized, so pre-PR-7 scenario files stay
    /// byte-identical through a parse/serialize round trip (the daemon's
    /// golden sessions pin this).
    #[serde(default, skip_serializing_if = "CostBackend::is_exact")]
    pub cost_backend: CostBackend,
}

fn default_alpha() -> f64 {
    0.1
}

fn default_epsilon() -> f64 {
    1e-6
}

fn default_duration() -> f64 {
    100_000.0
}

impl Scenario {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] for bad JSON and
    /// [`ScenarioError::Invalid`] for a scenario that fails validation.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let scenario: Scenario = serde_json::from_str(text)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Loads a scenario from a file.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] when the file cannot be read, plus the
    /// conditions of [`Scenario::from_json`].
    pub fn load(path: &std::path::Path) -> Result<Self, ScenarioError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// The scenario rendered back to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialization cannot fail")
    }

    /// A ready-to-edit template: the paper's §6 system.
    pub fn example() -> Self {
        Scenario {
            topology: Topology::Ring { n: 4, link_cost: 1.0 },
            lambdas: vec![0.25; 4],
            mus: vec![1.5],
            k: 1.0,
            alpha: 0.19,
            epsilon: 1e-6,
            initial: Some(vec![0.8, 0.1, 0.1, 0.0]),
            sim_duration: 100_000.0,
            sim_seed: 0,
            cost_backend: CostBackend::Dense,
        }
    }

    /// The per-node service rates, broadcasting a single entry.
    pub fn service_rates(&self) -> Vec<f64> {
        let n = self.topology.node_count();
        if self.mus.len() == 1 {
            vec![self.mus[0]; n]
        } else {
            self.mus.clone()
        }
    }

    /// The workload this scenario describes.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] for invalid rates.
    pub fn pattern(&self) -> Result<AccessPattern, ScenarioError> {
        AccessPattern::new(self.lambdas.clone())
            .map_err(|e| ScenarioError::Invalid(e.to_string()))
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        let n = self.topology.node_count();
        if self.lambdas.len() != n {
            return Err(ScenarioError::Invalid(format!(
                "{} lambdas for {n} nodes",
                self.lambdas.len()
            )));
        }
        if self.mus.len() != 1 && self.mus.len() != n {
            return Err(ScenarioError::Invalid(format!(
                "mus must have 1 or {n} entries, got {}",
                self.mus.len()
            )));
        }
        if let Some(initial) = &self.initial {
            if initial.len() != n {
                return Err(ScenarioError::Invalid(format!(
                    "initial allocation has {} entries for {n} nodes",
                    initial.len()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_round_trips() {
        let example = Scenario::example();
        let parsed = Scenario::from_json(&example.to_json()).unwrap();
        assert_eq!(example, parsed);
    }

    #[test]
    fn oversized_topologies_are_refused_before_building() {
        // 200000·199999 directed links of 16 bytes plus 200000 lists of 24.
        let mesh = Topology::FullMesh { n: 200_000, link_cost: 1.0 };
        let err = mesh.build(CostBackend::Dense).unwrap_err().to_string();
        assert!(err.contains("needs 640001600000 adjacency bytes"), "{err}");
        for huge in [
            Topology::Ring { n: usize::MAX, link_cost: 1.0 },
            Topology::FullMesh { n: 1 << 40, link_cost: 1.0 },
            Topology::Links { n: usize::MAX / 8, links: vec![] },
        ] {
            let err = huge.build(CostBackend::Dense).unwrap_err().to_string();
            assert!(err.contains("an overflowing number of adjacency bytes"), "{err}");
        }
        assert!(Topology::Star { n: 1000, link_cost: 1.0 }.build(CostBackend::Dense).is_ok());
    }

    #[test]
    fn oversized_substrates_are_refused_before_building() {
        let ring = Topology::Ring { n: 200_000, link_cost: 1.0 };
        let landmarks = |k| CostBackend::Landmark { landmarks: k, seed: 1 };
        let err = ring.build(landmarks(200_000)).unwrap_err().to_string();
        assert!(
            err.contains("a landmark table of 200000 x 200000 distances needs 320000000000 bytes"),
            "{err}"
        );
        // K = 0 prices one row, and K beyond n prices n rows.
        assert!(ring.build(landmarks(0)).is_ok());
        let small = Topology::Ring { n: 1000, link_cost: 1.0 };
        assert!(small.build(landmarks(usize::MAX)).is_ok());
        // The dense matrix keeps its element budget and its hint.
        let err = ring.build(CostBackend::Dense).unwrap_err().to_string();
        assert!(err.contains("200000x200000") && err.contains("--cost-backend landmark"), "{err}");
        assert!(Topology::Ring { n: 8192, link_cost: 1.0 }.build(CostBackend::Dense).is_ok());
    }

    #[test]
    fn topology_tags_parse() {
        let json = r#"{
            "topology": {"type": "full_mesh", "n": 5, "link_cost": 2.0},
            "lambdas": [0.2, 0.2, 0.2, 0.2, 0.2],
            "mus": [1.5],
            "k": 1.0
        }"#;
        let s = Scenario::from_json(json).unwrap();
        assert_eq!(s.topology.node_count(), 5);
        assert_eq!(s.alpha, 0.1, "default alpha");
        assert_eq!(s.service_rates(), vec![1.5; 5]);
        assert!(s.topology.build(CostBackend::Dense).is_ok());
    }

    #[test]
    fn explicit_link_lists_build() {
        let json = r#"{
            "topology": {"type": "links", "n": 3,
                         "links": [[0, 1, 1.0], [1, 2, 2.0], [0, 2, 2.5]]},
            "lambdas": [0.3, 0.3, 0.4],
            "mus": [2.0, 2.0, 2.0],
            "k": 0.5
        }"#;
        let s = Scenario::from_json(json).unwrap();
        let g = s.topology.build(CostBackend::Dense).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.direct_cost(NodeId::new(1), NodeId::new(2)), Some(2.0));
    }

    #[test]
    fn validation_catches_shape_mismatches() {
        let json = r#"{
            "topology": {"type": "ring", "n": 4, "link_cost": 1.0},
            "lambdas": [0.25, 0.25],
            "mus": [1.5],
            "k": 1.0
        }"#;
        assert!(matches!(Scenario::from_json(json), Err(ScenarioError::Invalid(_))));

        let json = r#"{
            "topology": {"type": "ring", "n": 4, "link_cost": 1.0},
            "lambdas": [0.25, 0.25, 0.25, 0.25],
            "mus": [1.5, 1.5],
            "k": 1.0
        }"#;
        assert!(matches!(Scenario::from_json(json), Err(ScenarioError::Invalid(_))));

        let json = r#"{
            "topology": {"type": "ring", "n": 4, "link_cost": 1.0},
            "lambdas": [0.25, 0.25, 0.25, 0.25],
            "mus": [1.5],
            "k": 1.0,
            "initial": [1.0]
        }"#;
        assert!(matches!(Scenario::from_json(json), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn bad_json_is_a_parse_error() {
        assert!(matches!(Scenario::from_json("{nope"), Err(ScenarioError::Parse(_))));
    }

    #[test]
    fn errors_display_their_cause() {
        let e = Scenario::from_json("{").unwrap_err();
        assert!(e.to_string().contains("cannot parse"));
        let e = ScenarioError::Invalid("x".into());
        assert!(e.to_string().contains("invalid scenario"));
    }
}
