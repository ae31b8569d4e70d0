//! Content-addressed cost-substrate cache for the file-allocation system.
//!
//! Every solve starts from the access costs `c_ij` of the paper's §4, and
//! this workspace gets them from one of two substrates: the exact dense
//! [`CostMatrix`](fap_net::CostMatrix) (`n²` floats, all-pairs Dijkstra) or
//! the sparse [`LandmarkOracle`](fap_net::LandmarkOracle) (`K·n` floats,
//! `K` Dijkstra runs). Serving traffic mostly repeats a handful of
//! topologies, so building either per request is wasted work. This crate
//! provides:
//!
//! * [`fnv`] — a hand-rolled FNV-1a 64-bit hasher, in the spirit of the rest
//!   of the vendored zero-dependency stack;
//! * [`topology_fingerprint`] — a canonical 64-bit fingerprint of a graph's
//!   exact structure (node count, adjacency order, and the bit pattern of
//!   every link cost);
//! * [`CostBackend`] — the serializable substrate choice serve specs and
//!   scenarios carry;
//! * [`SubstrateCache`] — the one cache, keyed by `(fingerprint, backend)`,
//!   that builds each distinct substrate once and holds dense matrices and
//!   landmark oracles under a single optional byte budget.
//!
//! # Fingerprint canonicality and the collision guard
//!
//! Two graphs receive the same fingerprint iff they hash the same byte
//! stream: the node count, then for each node its adjacency length followed
//! by every `(neighbor index, cost bits)` pair in insertion order. Costs are
//! hashed via [`f64::to_bits`], so the fingerprint distinguishes `0.0` from
//! `-0.0` and is exact for every representable cost — there is no epsilon
//! anywhere. Adjacency *order* matters: the same logical topology built by
//! inserting links in a different order fingerprints differently. That is
//! deliberate — a false split only costs one redundant build, whereas
//! treating distinct graphs as equal would serve wrong answers.
//!
//! A 64-bit fingerprint can still collide in principle. The cache keeps the
//! full source [`Graph`] alongside each entry (the oracle repair path diffs
//! it), and debug builds compare it structurally on every hit, panicking
//! loudly if a collision is ever observed.
//!
//! # Example
//!
//! ```
//! use fap_cache::{CostBackend, SubstrateCache};
//! use fap_net::{topology, CostProvider, NodeId};
//! use fap_obs::NoopRecorder;
//!
//! let ring = topology::ring(8, 1.0)?;
//! let mut cache = SubstrateCache::new();
//! let first = cache.get_or_build(&ring, CostBackend::Dense, &mut NoopRecorder)?;
//! let far = first.cost(NodeId::new(0), NodeId::new(4));
//! // Second lookup is a pure hash-map hit: no Dijkstra, no allocation.
//! let second = cache.get_or_build(&ring, CostBackend::Dense, &mut NoopRecorder)?;
//! assert_eq!(second.cost(NodeId::new(0), NodeId::new(4)), far);
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! # Ok::<(), fap_net::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use fap_net::Graph;

pub mod fnv;
mod substrate;

pub use fnv::{Fnv64, FnvBuildHasher};
pub use substrate::{CostBackend, SubstrateCache, DEFAULT_LANDMARKS, DEFAULT_LANDMARK_SEED};

/// Computes the canonical 64-bit FNV-1a fingerprint of a graph's structure.
///
/// The fingerprint covers the node count and, per node, the adjacency list in
/// insertion order with each cost hashed by bit pattern ([`f64::to_bits`]).
/// Equal graphs (same [`PartialEq`] structure) always fingerprint equally;
/// distinct graphs collide only with the usual 64-bit hash probability, and
/// [`SubstrateCache`] guards against that in debug builds.
pub fn topology_fingerprint(graph: &Graph) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(graph.node_count());
    for node in graph.nodes() {
        let adjacency = graph.neighbors(node);
        h.write_usize(adjacency.len());
        for &(neighbor, cost) in adjacency {
            h.write_usize(neighbor.index());
            h.write_u64(cost.to_bits());
        }
    }
    h.finish64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_net::topology;

    #[test]
    fn equal_graphs_fingerprint_equally() {
        let a = topology::ring(6, 1.5).unwrap();
        let b = topology::ring(6, 1.5).unwrap();
        assert_eq!(topology_fingerprint(&a), topology_fingerprint(&b));
    }

    #[test]
    fn cost_change_changes_the_fingerprint() {
        let a = topology::ring(6, 1.5).unwrap();
        let b = topology::ring(6, 1.5000000001).unwrap();
        assert_ne!(topology_fingerprint(&a), topology_fingerprint(&b));
    }

    #[test]
    fn shape_change_changes_the_fingerprint() {
        let ring = topology::ring(5, 1.0).unwrap();
        let star = topology::star(5, 1.0).unwrap();
        assert_ne!(topology_fingerprint(&ring), topology_fingerprint(&star));
    }

    #[test]
    fn empty_graphs_of_different_sizes_differ() {
        assert_ne!(
            topology_fingerprint(&Graph::new(3)),
            topology_fingerprint(&Graph::new(4))
        );
    }
}
