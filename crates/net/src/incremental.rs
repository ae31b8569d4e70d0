//! Incremental landmark-oracle updates on topology deltas.
//!
//! A fresh [`LandmarkOracle`] build costs `K` single-source Dijkstra runs
//! — exactly `K·N` node settles on a connected graph. A small topology
//! edit (one link re-priced, one node joining or leaving) rarely moves
//! more than a sliver of the `K × N` distance table, so this module
//! repairs the table in place instead:
//!
//! * **weight decrease** — relax the cheaper link at both endpoints and
//!   propagate improvements outward with a partial Dijkstra seeded from
//!   whichever endpoint got closer (Ramalingam–Reps, the easy direction);
//! * **weight increase** — per landmark, check whether the link was even
//!   *tight* (on a shortest-path tree); if it was, try the
//!   alternative-predecessor short-circuit (the far endpoint keeps its
//!   distance through a certified-stable neighbor), and only then run the
//!   two-phase repair: mark the tight-edge descendants as the affected
//!   superset, reset them, and re-run Dijkstra seeded from the stable
//!   boundary;
//! * **node join / leave** — grow or shrink the table by one column, seed
//!   the new node from its links (join) or treat the departure as an
//!   increase on every incident link (leave).
//!
//! Every repair settles through the same kernel as a full build
//! (`shortest_path`'s one `Frontier::settle` loop), seeded from its own
//! frontier instead of a single source.
//!
//! **Bit-identity.** That kernel's final distances satisfy
//! `d[v] = min_u (d[u] + w(u,v))` *exactly in `f64`* (every settled node
//! relaxes its neighbors at its final value, and each final value is the
//! minimum of the candidates), and with non-negative
//! weights that min-plus fixed point is unique. Every repair above
//! re-establishes the same fixed point on the new topology, so the updated
//! table is bit-identical to a fresh
//! [`LandmarkOracle::with_landmarks`] build on the final graph — the
//! property `tests/oracle_incremental.rs` pins per seed and thread count.
//!
//! The repairs assume the symmetric (undirected) topologies the oracle's
//! ALT bounds are admissible on: [`Graph::set_link_cost`] re-prices both
//! directions and [`GraphDelta::NodeJoin`] adds undirected links.
//!
//! Work is metered in [`UpdateStats`] as machine-independent *virtual
//! work* — node settles plus frontier visits — so benches can hard-gate
//! "incremental ≤ 10 % of a rebuild" without trusting wall clocks: a
//! repair's settles and a rebuild's `K·N` count the same unit.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::graph::{Graph, NodeId};
use crate::landmark::LandmarkOracle;
use crate::shortest_path::Frontier;

/// One topology edit, applied to the graph and the oracle in lock step by
/// [`LandmarkOracle::apply_deltas`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GraphDelta {
    /// Re-price every existing link between two nodes (both directions) to
    /// `cost`.
    EdgeWeight {
        /// One endpoint of the link.
        from: NodeId,
        /// The other endpoint.
        to: NodeId,
        /// The new non-negative cost.
        cost: f64,
    },
    /// A new node joins with the given undirected links to existing nodes.
    /// The node always takes the next index (`node_count` before the join).
    NodeJoin {
        /// `(neighbor, cost)` links of the joining node; must connect it,
        /// or the delta fails with [`NetError::Disconnected`].
        edges: Vec<(NodeId, f64)>,
    },
    /// The highest-index node leaves, along with every incident link.
    /// Landmark nodes cannot leave incrementally (the oracle would lose a
    /// distance row) — that returns [`NetError::InvalidWorkload`].
    NodeLeave,
}

/// Machine-independent accounting of one [`LandmarkOracle::apply_deltas`]
/// call.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Deltas applied (all of them, on success).
    pub deltas_applied: usize,
    /// Landmark rows that needed any repair work beyond the O(1) tightness
    /// check.
    pub landmarks_repaired: usize,
    /// Nodes settled by the partial Dijkstra repairs, summed over
    /// landmarks. The settles are counted by the same kernel loop a fresh
    /// build runs, which settles exactly `K·N` of them on a connected
    /// graph.
    pub heap_pops: u64,
    /// Nodes visited while marking affected supersets (phase 1).
    pub frontier_visits: u64,
    /// Nodes whose distance to at least one landmark changed (or that were
    /// conservatively marked).
    pub dirty_nodes: usize,
    /// LRU rows evicted because their source node went dirty.
    pub rows_evicted: usize,
    /// LRU rows patched in place at the dirty columns.
    pub rows_patched: usize,
}

impl UpdateStats {
    /// Total virtual work of the update: node settles plus frontier
    /// visits. Compare against [`LandmarkOracle::full_rebuild_work`],
    /// which counts a rebuild's settles in the same unit.
    pub fn virtual_work(&self) -> u64 {
        self.heap_pops + self.frontier_visits
    }

    /// Accumulates another update's counters into this one.
    pub fn absorb(&mut self, other: &UpdateStats) {
        self.deltas_applied += other.deltas_applied;
        self.landmarks_repaired += other.landmarks_repaired;
        self.heap_pops += other.heap_pops;
        self.frontier_visits += other.frontier_visits;
        self.dirty_nodes += other.dirty_nodes;
        self.rows_evicted += other.rows_evicted;
        self.rows_patched += other.rows_patched;
    }
}

impl LandmarkOracle {
    /// Virtual work of a fresh build with this oracle's dimensions: `K`
    /// single-source runs settling `N` nodes each — exactly what a build
    /// on a connected graph settles, since the kernel settles each node
    /// once per run (pinned by a unit test in `shortest_path`).
    pub fn full_rebuild_work(&self) -> u64 {
        (self.landmarks.len() as u64) * (self.n as u64)
    }

    /// Applies `deltas` to `graph` **and** to this oracle in lock step,
    /// repairing only the affected slices of the distance table, the home
    /// assignment at dirty nodes, and the row LRU (dirty-source rows
    /// evicted, clean rows patched at dirty columns).
    ///
    /// `graph` must be the exact graph this oracle was built on (the
    /// substrate cache enforces that by fingerprint). On success the
    /// oracle is bit-identical to [`LandmarkOracle::with_landmarks`] on
    /// the final graph with the unchanged landmark set.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidWorkload`] on a dimension mismatch, a
    /// re-price of a missing link, or a landmark leaving;
    /// [`NetError::Disconnected`] if a delta disconnects the graph; plus
    /// the usual validation errors for bad node ids or costs. **On error
    /// the graph and oracle may be partially updated** — discard both and
    /// rebuild.
    pub fn apply_deltas(
        &mut self,
        graph: &mut Graph,
        deltas: &[GraphDelta],
    ) -> Result<UpdateStats, NetError> {
        if graph.node_count() != self.n {
            return Err(NetError::InvalidWorkload(format!(
                "oracle covers {} nodes but graph has {}",
                self.n,
                graph.node_count()
            )));
        }
        let mut stats = UpdateStats::default();
        let mut dirty = vec![false; self.n];
        for delta in deltas {
            match delta {
                GraphDelta::EdgeWeight { from, to, cost } => {
                    self.apply_edge_weight(graph, *from, *to, *cost, &mut dirty, &mut stats)?;
                }
                GraphDelta::NodeJoin { edges } => {
                    self.apply_node_join(graph, edges, &mut dirty, &mut stats)?;
                }
                GraphDelta::NodeLeave => {
                    self.apply_node_leave(graph, &mut dirty, &mut stats)?;
                }
            }
            stats.deltas_applied += 1;
        }
        stats.dirty_nodes = dirty.iter().filter(|&&d| d).count();
        let (evicted, patched) = self.repair_row_cache(&dirty);
        stats.rows_evicted += evicted;
        stats.rows_patched += patched;
        self.recompute_homes_at(&dirty);
        Ok(stats)
    }

    fn apply_edge_weight(
        &mut self,
        graph: &mut Graph,
        from: NodeId,
        to: NodeId,
        cost: f64,
        dirty: &mut [bool],
        stats: &mut UpdateStats,
    ) -> Result<(), NetError> {
        let old = graph.set_link_cost(from, to, cost)?;
        if cost == old {
            return Ok(());
        }
        let k = self.landmarks.len();
        let (u, v) = (from.index(), to.index());
        if cost < old {
            let mut frontier = Frontier::default();
            for b in 0..k {
                let d = self.dist.row_mut(b);
                // At most one endpoint improves (both would need 2·cost < 0).
                let through_v = d[u] + cost;
                if through_v < d[v] {
                    d[v] = through_v;
                    frontier.push(to, through_v);
                }
                let through_u = d[v] + cost;
                if through_u < d[u] {
                    d[u] = through_u;
                    frontier.push(from, through_u);
                }
                // A seeded endpoint always settles, so an empty frontier
                // settles nothing and this landmark needs no repair.
                if propagate_decrease(graph, d, &mut frontier, dirty, stats) > 0 {
                    stats.landmarks_repaired += 1;
                }
            }
        } else {
            for b in 0..k {
                let landmark = self.landmarks[b];
                let d = self.dist.row_mut(b);
                // Which orientations were tight (on a shortest-path tree)
                // at the old price? Non-tight landmarks exit in O(deg).
                let mut seeds: Vec<usize> = Vec::new();
                for (near, far) in [(u, v), (v, u)] {
                    if d[far] == d[near] + old && !survives(graph, d, far) {
                        seeds.push(far);
                    }
                }
                if seeds.is_empty() {
                    continue;
                }
                stats.landmarks_repaired += 1;
                repair_increase(graph, d, &seeds, landmark, dirty, stats)?;
            }
        }
        Ok(())
    }

    fn apply_node_join(
        &mut self,
        graph: &mut Graph,
        edges: &[(NodeId, f64)],
        dirty: &mut Vec<bool>,
        stats: &mut UpdateStats,
    ) -> Result<(), NetError> {
        let x = graph.push_node();
        for &(z, w) in edges {
            graph.add_link(x, z, w)?;
        }
        self.resize_nodes(graph.node_count());
        dirty.resize(self.n, false);
        dirty[x.index()] = true;
        let k = self.landmarks.len();
        let mut frontier = Frontier::default();
        for b in 0..k {
            let d = self.dist.row_mut(b);
            // Seed the new node from its links, then propagate: the join
            // may also shortcut existing paths.
            let mut best = f64::INFINITY;
            for &(z, w) in graph.neighbors(x) {
                let through = d[z.index()] + w;
                if through < best {
                    best = through;
                }
            }
            if best.is_infinite() {
                return Err(NetError::Disconnected {
                    from: self.landmarks[b].index(),
                    to: x.index(),
                });
            }
            d[x.index()] = best;
            frontier.push(x, best);
            stats.landmarks_repaired += 1;
            propagate_decrease(graph, d, &mut frontier, dirty, stats);
        }
        Ok(())
    }

    fn apply_node_leave(
        &mut self,
        graph: &mut Graph,
        dirty: &mut Vec<bool>,
        stats: &mut UpdateStats,
    ) -> Result<(), NetError> {
        if self.n <= 1 {
            return Err(NetError::TooFewNodes { requested: self.n.saturating_sub(1), minimum: 1 });
        }
        let x = self.n - 1;
        if self.landmarks.iter().any(|l| l.index() == x) {
            return Err(NetError::InvalidWorkload(format!(
                "node {x} is a landmark; incremental leave requires a rebuild"
            )));
        }
        let outgoing: Vec<(NodeId, f64)> = graph.neighbors(NodeId::new(x)).to_vec();
        graph.pop_node()?;
        let k = self.landmarks.len();
        for b in 0..k {
            let landmark = self.landmarks[b];
            let d = self.dist.row_mut(b);
            let dx = d[x];
            // The departure raises every link incident to x to infinity:
            // seed from x's tight successors that lack a stable witness.
            let mut seeds: Vec<usize> = Vec::new();
            for &(y, w) in &outgoing {
                let f = y.index();
                if d[f] == dx + w && !seeds.contains(&f) && !survives_below(graph, d, f, dx) {
                    seeds.push(f);
                }
            }
            if seeds.is_empty() {
                continue;
            }
            stats.landmarks_repaired += 1;
            repair_increase(graph, d, &seeds, landmark, dirty, stats)?;
        }
        self.resize_nodes(graph.node_count());
        dirty.truncate(self.n);
        Ok(())
    }
}

/// Propagates a distance decrease outward from the seeded frontier — the
/// easy Ramalingam–Reps direction. Settled nodes are marked dirty and
/// counted into `heap_pops`; returns the number settled.
fn propagate_decrease(
    graph: &Graph,
    d: &mut [f64],
    frontier: &mut Frontier,
    dirty: &mut [bool],
    stats: &mut UpdateStats,
) -> u64 {
    let settled = frontier.settle(graph, d, None, |node| dirty[node.index()] = true);
    stats.heap_pops += settled;
    settled
}

/// Alternative-predecessor short-circuit for an edge increase: `far`
/// keeps its distance if some neighbor `z` certifies it. The witness must
/// be *strictly closer* (`d[z] < d[far]`): any path using the re-priced
/// edge is at least `d[far]` long (it passes the far endpoint), so a
/// strictly closer witness cannot itself depend on that edge — which rules
/// out the circular zero-weight-cycle case.
fn survives(graph: &Graph, d: &[f64], far: usize) -> bool {
    survives_below(graph, d, far, d[far])
}

/// Witness check with an explicit stability threshold: a neighbor `z`
/// certifies `far` only if `d[z] < stable_below` (for node departure, the
/// departing node's own distance — paths through it are at least that
/// long, so anything strictly closer is untouched by the removal).
fn survives_below(graph: &Graph, d: &[f64], far: usize, stable_below: f64) -> bool {
    let df = d[far];
    graph
        .neighbors(NodeId::new(far))
        .iter()
        .any(|&(z, w)| d[z.index()] < stable_below && d[z.index()] + w == df)
}

/// Two-phase repair after a distance increase. Phase 1 marks the affected
/// superset — descendants of the seeds through tight edges under the *old*
/// distances. Phase 2 resets the superset, seeds each member from its
/// stable (non-affected) neighbors, and re-runs Dijkstra inside the
/// superset; nodes outside it cannot improve (an increase never lowers a
/// stable distance), so the result is the exact fixed point on the new
/// graph.
fn repair_increase(
    graph: &Graph,
    d: &mut [f64],
    seeds: &[usize],
    landmark: NodeId,
    dirty: &mut [bool],
    stats: &mut UpdateStats,
) -> Result<(), NetError> {
    let mut affected = vec![false; d.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &s in seeds {
        affected[s] = true;
        queue.push_back(s);
    }
    while let Some(a) = queue.pop_front() {
        stats.frontier_visits += 1;
        for &(y, w) in graph.neighbors(NodeId::new(a)) {
            let yi = y.index();
            if !affected[yi] && d[yi] == d[a] + w {
                affected[yi] = true;
                queue.push_back(yi);
            }
        }
    }
    let mut frontier = Frontier::default();
    for (node, flag) in affected.iter().enumerate() {
        if *flag {
            d[node] = f64::INFINITY;
        }
    }
    for (node, flag) in affected.iter().enumerate() {
        if !*flag {
            continue;
        }
        let mut best = f64::INFINITY;
        for &(z, w) in graph.neighbors(NodeId::new(node)) {
            if !affected[z.index()] {
                let through = d[z.index()] + w;
                if through < best {
                    best = through;
                }
            }
        }
        if best < d[node] {
            d[node] = best;
            frontier.push(NodeId::new(node), best);
        }
    }
    stats.heap_pops += frontier.settle(graph, d, None, |_| {});
    for (node, flag) in affected.iter().enumerate() {
        if *flag {
            if d[node].is_infinite() {
                return Err(NetError::Disconnected { from: landmark.index(), to: node });
            }
            dirty[node] = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::CostProvider;
    use crate::topology;
    use fap_batch::Parallelism;

    /// Asserts the oracle equals a fresh fixed-landmark build on `graph`,
    /// bit for bit: distance table, home assignment, and served rows.
    fn assert_matches_fresh(oracle: &LandmarkOracle, graph: &Graph) {
        let fresh =
            LandmarkOracle::with_landmarks(graph, oracle.landmarks(), Parallelism::Sequential)
                .unwrap();
        assert_eq!(oracle.n, fresh.n);
        for (a, b) in oracle.dist.as_slice().iter().zip(fresh.dist.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(oracle.home, fresh.home);
        for (a, b) in oracle.home_dist.iter().zip(&fresh.home_dist) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut got = vec![0.0; oracle.n];
        let mut want = vec![0.0; oracle.n];
        for v in 0..oracle.n {
            oracle.row_into(NodeId::new(v), &mut got);
            fresh.row_into(NodeId::new(v), &mut want);
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn weight_decrease_matches_a_fresh_build() {
        let mut graph = topology::random_connected(40, 0.15, 2.0..6.0, 7).unwrap();
        let mut oracle = LandmarkOracle::build(&graph, 6, 3).unwrap();
        let (a, b) = first_link(&graph);
        let stats = oracle
            .apply_deltas(&mut graph, &[GraphDelta::EdgeWeight { from: a, to: b, cost: 0.5 }])
            .unwrap();
        assert_eq!(stats.deltas_applied, 1);
        assert!(stats.virtual_work() > 0);
        assert_matches_fresh(&oracle, &graph);
    }

    #[test]
    fn weight_increase_matches_a_fresh_build() {
        let mut graph = topology::random_connected(40, 0.15, 1.0..3.0, 11).unwrap();
        let mut oracle = LandmarkOracle::build(&graph, 6, 5).unwrap();
        let (a, b) = first_link(&graph);
        oracle
            .apply_deltas(&mut graph, &[GraphDelta::EdgeWeight { from: a, to: b, cost: 50.0 }])
            .unwrap();
        assert_matches_fresh(&oracle, &graph);
    }

    #[test]
    fn unchanged_price_is_free() {
        let mut graph = topology::ring(12, 1.0).unwrap();
        let mut oracle = LandmarkOracle::build(&graph, 3, 2).unwrap();
        let stats = oracle
            .apply_deltas(
                &mut graph,
                &[GraphDelta::EdgeWeight { from: NodeId::new(0), to: NodeId::new(1), cost: 1.0 }],
            )
            .unwrap();
        assert_eq!(stats.virtual_work(), 0);
        assert_eq!(stats.dirty_nodes, 0);
        assert_matches_fresh(&oracle, &graph);
    }

    #[test]
    fn node_join_and_leave_match_fresh_builds() {
        let mut graph = topology::random_connected(24, 0.2, 1.0..4.0, 19).unwrap();
        let mut oracle = LandmarkOracle::build(&graph, 5, 1).unwrap();
        let join = GraphDelta::NodeJoin {
            edges: vec![(NodeId::new(3), 0.25), (NodeId::new(17), 2.0)],
        };
        oracle.apply_deltas(&mut graph, &[join]).unwrap();
        assert_eq!(graph.node_count(), 25);
        assert_matches_fresh(&oracle, &graph);
        oracle.apply_deltas(&mut graph, &[GraphDelta::NodeLeave]).unwrap();
        assert_eq!(graph.node_count(), 24);
        assert_matches_fresh(&oracle, &graph);
    }

    #[test]
    fn landmark_departure_is_rejected() {
        let mut graph = topology::ring(8, 1.0).unwrap();
        let landmarks = vec![NodeId::new(7), NodeId::new(2)];
        let mut oracle =
            LandmarkOracle::with_landmarks(&graph, &landmarks, Parallelism::Sequential).unwrap();
        let err = oracle.apply_deltas(&mut graph, &[GraphDelta::NodeLeave]).unwrap_err();
        assert!(matches!(err, NetError::InvalidWorkload(_)));
    }

    #[test]
    fn single_edge_delta_is_a_sliver_of_a_rebuild() {
        let mut graph = topology::random_connected(512, 0.02, 1.0..4.0, 23).unwrap();
        let mut oracle = LandmarkOracle::build(&graph, 16, 9).unwrap();
        let (a, b) = first_link(&graph);
        let old = graph.direct_cost(a, b).unwrap();
        let stats = oracle
            .apply_deltas(
                &mut graph,
                &[GraphDelta::EdgeWeight { from: a, to: b, cost: old * 1.5 }],
            )
            .unwrap();
        let rebuild = oracle.full_rebuild_work();
        assert!(
            stats.virtual_work() * 10 <= rebuild,
            "virtual work {} vs rebuild {}",
            stats.virtual_work(),
            rebuild
        );
        assert_matches_fresh(&oracle, &graph);
    }

    #[test]
    fn lru_rows_are_patched_not_wholesale_invalidated() {
        let mut graph = topology::random_connected(30, 0.2, 1.0..4.0, 31).unwrap();
        let mut oracle = LandmarkOracle::build(&graph, 5, 4).unwrap();
        let mut row = vec![0.0; 30];
        for v in 0..10 {
            oracle.row_into(NodeId::new(v), &mut row);
        }
        let (a, b) = first_link(&graph);
        let stats = oracle
            .apply_deltas(&mut graph, &[GraphDelta::EdgeWeight { from: a, to: b, cost: 0.01 }])
            .unwrap();
        assert!(
            stats.rows_evicted + stats.rows_patched > 0,
            "some cached rows existed to repair"
        );
        assert_matches_fresh(&oracle, &graph);
    }

    /// First undirected link of the graph, by adjacency order.
    fn first_link(graph: &Graph) -> (NodeId, NodeId) {
        for u in graph.nodes() {
            if let Some(&(v, _)) = graph.neighbors(u).first() {
                return (u, v);
            }
        }
        panic!("graph has no links");
    }
}
