//! Cheapest-path routing: the crate's one Dijkstra kernel.
//!
//! The paper routes every file access "along the shortest (least expensive)
//! path" between the requesting node and the node storing the accessed
//! portion of the file (§6). Every such sweep in this crate runs through
//! this module:
//!
//! * one settle loop — a private lazy-deletion `Frontier` — shared by
//!   [`dijkstra`], [`dijkstra_with_predecessors`], the dense all-pairs
//!   matrix behind [`Graph::shortest_path_matrix`], the landmark oracle's
//!   distance rows and both of its incremental repairs;
//! * one row fan-out, `fill_rows`, which splits a batch of sources into
//!   contiguous chunks over scoped threads with **bit-identical** results
//!   (each worker writes only its own rows; errors are reported in source
//!   order after the join).
//!
//! Floyd–Warshall survives only as a test oracle for Dijkstra.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use fap_batch::{Matrix, Parallelism};
use fap_obs::Recorder;

use crate::cost::CostMatrix;
use crate::error::NetError;
use crate::graph::{Graph, NodeId};

/// A heap entry ordered by *minimum* cost (reversed for `BinaryHeap`).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the max-heap pops the cheapest entry first; tie-break on
        // node index for determinism.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The priority queue every sweep in the crate settles through. A caller
/// writes a node's tentative distance into its `dist` slice, [`push`]es
/// the node, and [`settle`]s; reusing one frontier across sweeps reuses
/// its heap allocation.
///
/// [`push`]: Frontier::push
/// [`settle`]: Frontier::settle
#[derive(Debug, Default)]
pub(crate) struct Frontier {
    heap: BinaryHeap<HeapEntry>,
}

impl Frontier {
    /// Queues `node` at tentative distance `cost`.
    pub(crate) fn push(&mut self, node: NodeId, cost: f64) {
        self.heap.push(HeapEntry { cost, node });
    }

    /// Drops every queued entry.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// Runs Dijkstra from the queued entries until the queue is empty,
    /// lowering `dist` (and, when given, recording predecessors in `pred`)
    /// on strict improvement only, so ties keep their first winner.
    /// `on_settle` sees each node as it settles. Returns the number of
    /// nodes settled: a node is pushed only on a strict improvement, so
    /// only its last entry survives the stale check, and a full
    /// single-source sweep settles exactly the nodes it reaches.
    pub(crate) fn settle(
        &mut self,
        graph: &Graph,
        dist: &mut [f64],
        mut pred: Option<&mut [Option<NodeId>]>,
        mut on_settle: impl FnMut(NodeId),
    ) -> u64 {
        let mut settled = 0;
        while let Some(HeapEntry { cost, node }) = self.heap.pop() {
            if cost > dist[node.index()] {
                continue; // stale entry
            }
            settled += 1;
            on_settle(node);
            for &(next, link_cost) in graph.neighbors(node) {
                let candidate = cost + link_cost;
                if candidate < dist[next.index()] {
                    dist[next.index()] = candidate;
                    if let Some(p) = pred.as_deref_mut() {
                        p[next.index()] = Some(node);
                    }
                    self.heap.push(HeapEntry { cost: candidate, node: next });
                }
            }
        }
        settled
    }
}

/// Default element budget for dense all-pairs computations: `n·n` beyond
/// this (64 Mi elements ≈ 512 MiB of `f64`, i.e. N > 8192) returns
/// [`NetError::TooLarge`] instead of attempting the allocation. The
/// landmark oracle ([`crate::landmark::LandmarkOracle`]) has no such
/// ceiling.
pub const DEFAULT_DENSE_ELEMENT_BUDGET: u64 = 1 << 26;

/// Largest adjacency, landmark table or per-run record buffer a request
/// may ask for, in bytes: the scale bench's 1 GiB substrate ceiling,
/// priced from request fields before anything is allocated.
pub const SUBSTRATE_BYTE_LIMIT: usize = 1 << 30;

/// Rejects a dense `n × n` computation whose element count exceeds
/// `budget`.
fn check_dense_budget(n: usize, budget: u64) -> Result<(), NetError> {
    let elements = (n as u128) * (n as u128);
    if elements > u128::from(budget) {
        return Err(NetError::TooLarge { nodes: n, elements, budget });
    }
    Ok(())
}

/// One single-source run into caller-owned buffers: reset `dist` (and
/// `pred`), seed `source`, settle. Returns the nodes settled.
fn dijkstra_into(
    graph: &Graph,
    source: NodeId,
    dist: &mut [f64],
    mut pred: Option<&mut [Option<NodeId>]>,
    frontier: &mut Frontier,
) -> u64 {
    dist.fill(f64::INFINITY);
    if let Some(p) = pred.as_deref_mut() {
        p.fill(None);
    }
    dist[source.index()] = 0.0;
    frontier.clear();
    frontier.push(source, 0.0);
    frontier.settle(graph, dist, pred, |_| {})
}

/// Computes cheapest-path costs from `source` to every node.
///
/// Unreachable nodes are reported as `f64::INFINITY`.
///
/// # Errors
///
/// Returns [`NetError::NodeOutOfRange`] if `source` is not a node of `graph`.
pub fn dijkstra(graph: &Graph, source: NodeId) -> Result<Vec<f64>, NetError> {
    graph.check_node(source)?;
    let mut dist = vec![f64::INFINITY; graph.node_count()];
    dijkstra_into(graph, source, &mut dist, None, &mut Frontier::default());
    Ok(dist)
}

/// Like [`dijkstra`], additionally returning each node's predecessor on its
/// cheapest path from `source` (`None` for the source and for unreachable
/// nodes). Used for route reconstruction.
///
/// # Errors
///
/// Returns [`NetError::NodeOutOfRange`] if `source` is not a node of `graph`.
#[allow(clippy::type_complexity)]
pub fn dijkstra_with_predecessors(
    graph: &Graph,
    source: NodeId,
) -> Result<(Vec<f64>, Vec<Option<NodeId>>), NetError> {
    graph.check_node(source)?;
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    dijkstra_into(graph, source, &mut dist, Some(&mut pred), &mut Frontier::default());
    Ok((dist, pred))
}

/// What one [`fill_rows`] call did.
#[derive(Debug, Default)]
pub(crate) struct RowWork {
    /// Wall-clock nanoseconds of each chunk in source order (zero when
    /// untimed); its length is the number of chunks actually run.
    pub(crate) chunk_ns: Vec<u64>,
    /// Nodes settled over every row.
    pub(crate) settled: u64,
}

/// Fills `block` — one row of `graph.node_count()` distances per source,
/// in order — with single-source Dijkstra distances. The sources are split
/// into contiguous chunks over scoped threads, one [`Frontier`] per
/// worker; each worker writes only its own rows with the sequential
/// arithmetic, so the block is bit-identical at every [`Parallelism`].
/// One chunk runs on the calling thread. With `timed`, each chunk's wall
/// time is measured; otherwise no clock is read.
///
/// # Errors
///
/// Returns [`NetError::Disconnected`] for the first source, in source
/// order, that does not reach every node: chunk results are examined in
/// order after the join, so the error matches the sequential sweep.
pub(crate) fn fill_rows(
    graph: &Graph,
    sources: &[NodeId],
    block: &mut [f64],
    parallelism: Parallelism,
    timed: bool,
) -> Result<RowWork, NetError> {
    let n = graph.node_count();
    debug_assert_eq!(block.len(), sources.len() * n, "one row per source");
    if sources.is_empty() {
        return Ok(RowWork::default());
    }
    let rows_per_chunk = sources.len().div_ceil(parallelism.threads_for(sources.len()));
    let chunks = if rows_per_chunk == sources.len() {
        vec![fill_chunk(graph, sources, block, timed)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = sources
                .chunks(rows_per_chunk)
                .zip(block.chunks_mut(rows_per_chunk * n))
                .map(|(sources, rows)| scope.spawn(move || fill_chunk(graph, sources, rows, timed)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("dijkstra worker panicked")).collect()
        })
    };
    let mut work = RowWork::default();
    for chunk in chunks {
        let (ns, settled) = chunk?;
        work.chunk_ns.push(ns);
        work.settled += settled;
    }
    Ok(work)
}

/// One [`fill_rows`] chunk: its rows in order, stopping at the first
/// disconnected one. Returns the chunk's wall time and settle count.
fn fill_chunk(
    graph: &Graph,
    sources: &[NodeId],
    rows: &mut [f64],
    timed: bool,
) -> Result<(u64, u64), NetError> {
    let start = timed.then(Instant::now);
    let mut frontier = Frontier::default();
    let mut settled = 0;
    for (row, &source) in rows.chunks_mut(graph.node_count()).zip(sources) {
        settled += dijkstra_into(graph, source, row, None, &mut frontier);
        if let Some(bad) = row.iter().position(|d| d.is_infinite()) {
            return Err(NetError::Disconnected { from: source.index(), to: bad });
        }
    }
    let ns = start.map_or(0, |s| s.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    Ok((ns, settled))
}

/// The dense all-pairs matrix behind [`Graph::shortest_path_matrix`] and
/// [`Graph::shortest_path_matrix_observed`]: the element budget is checked
/// before any allocation, then one [`fill_rows`] covers every source. An
/// enabled `recorder` gets the `net.fanout_threads` gauge (the number of
/// chunks run) and one `net.dijkstra_chunk_ns` observation per chunk, in
/// chunk order.
pub(crate) fn all_pairs(
    graph: &Graph,
    parallelism: Parallelism,
    recorder: &mut dyn Recorder,
) -> Result<CostMatrix, NetError> {
    let n = graph.node_count();
    check_dense_budget(n, DEFAULT_DENSE_ELEMENT_BUDGET)?;
    let mut matrix = Matrix::zeros(n, n);
    let sources: Vec<NodeId> = graph.nodes().collect();
    let timed = recorder.is_enabled();
    let work = fill_rows(graph, &sources, matrix.as_mut_slice(), parallelism, timed)?;
    if timed {
        recorder.gauge("net.fanout_threads", work.chunk_ns.len() as f64);
        for ns in work.chunk_ns {
            recorder.observe("net.dijkstra_chunk_ns", ns as f64);
        }
    }
    CostMatrix::from_matrix(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmark::LandmarkOracle;
    use crate::topology;
    use fap_obs::NoopRecorder;
    use proptest::prelude::*;

    /// The `O(N³)` Floyd–Warshall dynamic program: an independent oracle
    /// for the Dijkstra kernel, under the same dense element budget.
    fn floyd_warshall(graph: &Graph) -> Result<CostMatrix, NetError> {
        check_dense_budget(graph.node_count(), DEFAULT_DENSE_ELEMENT_BUDGET)?;
        let n = graph.node_count();
        let mut dist = Matrix::filled(n, n, f64::INFINITY);
        for i in 0..n {
            dist.set(i, i, 0.0);
        }
        for i in graph.nodes() {
            for &(j, cost) in graph.neighbors(i) {
                if cost < dist.get(i.index(), j.index()) {
                    dist.set(i.index(), j.index(), cost);
                }
            }
        }
        // Snapshot row k into a buffer reused across all k: with
        // non-negative costs dist[k][·] cannot improve through k itself, so
        // the snapshot equals the in-place update.
        let mut row_k = vec![0.0; n];
        for k in 0..n {
            row_k.copy_from_slice(dist.row(k));
            for i in 0..n {
                let row_i = dist.row_mut(i);
                let dik = row_i[k];
                if dik.is_infinite() {
                    continue;
                }
                for (entry, &dkj) in row_i.iter_mut().zip(&row_k) {
                    let through = dik + dkj;
                    if through < *entry {
                        *entry = through;
                    }
                }
            }
        }
        for i in 0..n {
            if let Some(j) = dist.row(i).iter().position(|d| d.is_infinite()) {
                return Err(NetError::Disconnected { from: i, to: j });
            }
        }
        CostMatrix::from_matrix(dist)
    }

    /// The dense matrix at an explicit fan-out width.
    fn parallel_matrix(graph: &Graph, threads: usize) -> Result<CostMatrix, NetError> {
        graph.shortest_path_matrix_observed(Parallelism::Fixed(threads), &mut NoopRecorder)
    }

    fn line3() -> Graph {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_link(NodeId::new(1), NodeId::new(2), 2.0).unwrap();
        g
    }

    #[test]
    fn dijkstra_on_line() {
        let d = dijkstra(&line3(), NodeId::new(0)).unwrap();
        assert_eq!(d, vec![0.0, 1.0, 3.0]);
    }

    #[test]
    fn dijkstra_prefers_cheap_indirect_path() {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_link(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
        g.add_link(NodeId::new(0), NodeId::new(2), 10.0).unwrap();
        let d = dijkstra(&g, NodeId::new(0)).unwrap();
        assert_eq!(d[2], 2.0);
    }

    #[test]
    fn dijkstra_rejects_bad_source() {
        let err = dijkstra(&line3(), NodeId::new(7)).unwrap_err();
        assert!(matches!(err, NetError::NodeOutOfRange { .. }));
    }

    #[test]
    fn dijkstra_with_predecessors_matches_plain_dijkstra() {
        let g = topology::random_connected(9, 0.4, 1.0..4.0, 11).unwrap();
        for source in g.nodes() {
            let plain = dijkstra(&g, source).unwrap();
            let (dist, pred) = dijkstra_with_predecessors(&g, source).unwrap();
            assert_eq!(plain, dist);
            assert_eq!(pred[source.index()], None);
            // Every predecessor edge closes the distance recurrence.
            for i in g.nodes() {
                if let Some(p) = pred[i.index()] {
                    let link = g
                        .neighbors(p)
                        .iter()
                        .find(|(next, _)| *next == i)
                        .map(|(_, c)| *c)
                        .expect("predecessor is a neighbor");
                    assert!((dist[p.index()] + link - dist[i.index()]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn unreachable_node_is_infinite_in_single_source() {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        let d = dijkstra(&g, NodeId::new(0)).unwrap();
        assert!(d[2].is_infinite());
    }

    #[test]
    fn settle_counts_each_reachable_node_exactly_once() {
        let graphs = [
            topology::ring(17, 1.0).unwrap(),
            topology::torus(5, 7, 1.0).unwrap(),
            topology::random_connected(40, 0.15, 1.0..5.0, 13).unwrap(),
            topology::random_connected(64, 0.05, 0.5..3.0, 29).unwrap(),
        ];
        let mut frontier = Frontier::default();
        for g in &graphs {
            let n = g.node_count();
            let mut dist = vec![0.0; n];
            for source in g.nodes() {
                let settled = dijkstra_into(g, source, &mut dist, None, &mut frontier);
                assert_eq!(settled, n as u64, "source {} of {n}", source.index());
            }
        }
        // On a disconnected graph a sweep settles exactly what it reaches.
        let mut dist = vec![0.0; 3];
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        assert_eq!(dijkstra_into(&g, NodeId::new(0), &mut dist, None, &mut frontier), 2);
    }

    #[test]
    fn with_landmarks_settles_exactly_the_full_rebuild_work() {
        let graphs = [
            topology::ring(24, 1.0).unwrap(),
            topology::torus(6, 6, 1.0).unwrap(),
            topology::random_connected(50, 0.1, 1.0..4.0, 7).unwrap(),
        ];
        for g in &graphs {
            let landmarks: Vec<NodeId> = [0, 5, 11, 17].map(NodeId::new).into();
            for threads in [1, 3] {
                let parallelism = Parallelism::Fixed(threads);
                let oracle = LandmarkOracle::with_landmarks(g, &landmarks, parallelism).unwrap();
                let mut block = vec![0.0; landmarks.len() * g.node_count()];
                let work = fill_rows(g, &landmarks, &mut block, parallelism, false).unwrap();
                assert_eq!(work.settled, oracle.full_rebuild_work());
                for (a, b) in block.iter().zip(oracle.dist.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn all_pairs_rejects_disconnected_graph() {
        let mut g = Graph::new(3);
        g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        let err = g.shortest_path_matrix().unwrap_err();
        assert!(matches!(err, NetError::Disconnected { .. }));
        let err = floyd_warshall(&g).unwrap_err();
        assert!(matches!(err, NetError::Disconnected { .. }));
    }

    #[test]
    fn parallel_reports_the_same_error_as_sequential() {
        // Nodes 0..5 connected, node 5 isolated: the sequential sweep fails
        // at source 0 with destination 5, and so must every fan-out.
        let mut g = Graph::new(6);
        for i in 0..4 {
            g.add_link(NodeId::new(i), NodeId::new(i + 1), 1.0).unwrap();
        }
        let expected = g.shortest_path_matrix().unwrap_err();
        for threads in [1, 2, 3, 4, 8] {
            let err = parallel_matrix(&g, threads).unwrap_err();
            assert_eq!(format!("{err:?}"), format!("{expected:?}"), "threads={threads}");
        }
    }

    #[test]
    fn observed_fanout_records_chunk_timings_and_matches_sequential() {
        // (nodes, threads, chunks): 9 sources over 4 threads is 3 rows per
        // chunk, so only 3 chunks run and the gauge must say so.
        for (n, threads, chunks) in [(24, 4, 4), (9, 4, 3)] {
            let g = topology::random_connected(n, 0.4, 1.0..4.0, 19).unwrap();
            let seq = g.shortest_path_matrix().unwrap();
            let mut registry = fap_obs::MetricsRegistry::new();
            let parallelism = Parallelism::Fixed(threads);
            let par = g.shortest_path_matrix_observed(parallelism, &mut registry).unwrap();
            for (a, b) in seq.as_matrix().as_slice().iter().zip(par.as_matrix().as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(registry.gauge_value("net.fanout_threads"), Some(chunks as f64), "n={n}");
            // One timing observation per chunk.
            let observed = registry.histogram("net.dijkstra_chunk_ns").unwrap().count();
            assert_eq!(observed, chunks as u64, "n={n}");
        }
    }

    #[test]
    fn too_large_is_reported_before_any_allocation() {
        // 8193² elements is one row past the default budget; the guard
        // fires before the 537 MB matrix (or any Dijkstra) is attempted.
        let g = Graph::new(8193);
        let err = g.shortest_path_matrix().unwrap_err();
        let budget = DEFAULT_DENSE_ELEMENT_BUDGET;
        assert!(matches!(
            err,
            NetError::TooLarge { nodes: 8193, elements: 67_125_249, budget: b } if b == budget
        ));
        assert_eq!(8193u128 * 8193, 67_125_249);
        assert!(err.to_string().contains("landmark"));
        let err = floyd_warshall(&g).unwrap_err();
        assert!(matches!(err, NetError::TooLarge { nodes: 8193, .. }));
    }

    #[test]
    fn default_budget_admits_the_bench_grid() {
        // The committed bench grid tops out at N = 4096 on the dense path;
        // the default budget must admit it (and the element math must not
        // overflow for huge hypothetical n).
        assert!(4096u128 * 4096 <= u128::from(DEFAULT_DENSE_ELEMENT_BUDGET));
        let err = NetError::TooLarge {
            nodes: usize::MAX,
            elements: (usize::MAX as u128) * (usize::MAX as u128),
            budget: DEFAULT_DENSE_ELEMENT_BUDGET,
        };
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn ring_of_four_has_expected_distances() {
        let g = topology::ring(4, 1.0).unwrap();
        let m = g.shortest_path_matrix().unwrap();
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(1)), 1.0);
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(2)), 2.0);
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(3)), 1.0);
        assert_eq!(m.cost(NodeId::new(2), NodeId::new(2)), 0.0);
    }

    #[test]
    fn directed_ring_distances_are_asymmetric() {
        // 0 -> 1 -> 2 -> 0, unidirectional.
        let mut g = Graph::new(3);
        g.add_directed_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_directed_link(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
        g.add_directed_link(NodeId::new(2), NodeId::new(0), 1.0).unwrap();
        let m = g.shortest_path_matrix().unwrap();
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(2)), 2.0);
        assert_eq!(m.cost(NodeId::new(2), NodeId::new(0)), 1.0);
    }

    #[test]
    fn floyd_warshall_matches_dijkstra_on_fixed_graphs() {
        for g in [line3(), topology::ring(6, 2.5).unwrap(), topology::full_mesh(5, 1.0).unwrap()] {
            let a = g.shortest_path_matrix().unwrap();
            let b = floyd_warshall(&g).unwrap();
            for i in g.nodes() {
                for j in g.nodes() {
                    assert!((a.cost(i, j) - b.cost(i, j)).abs() < 1e-12);
                }
            }
        }
    }

    proptest! {
        /// Dijkstra and Floyd–Warshall agree on random connected graphs, and
        /// the result satisfies the metric axioms for undirected graphs
        /// (identity, symmetry, triangle inequality).
        #[test]
        fn shortest_paths_form_a_metric(seed in 0u64..64, n in 2usize..12, p in 0.2f64..1.0) {
            let g = topology::random_connected(n, p, 1.0..5.0, seed).unwrap();
            let a = g.shortest_path_matrix().unwrap();
            let b = floyd_warshall(&g).unwrap();
            for i in g.nodes() {
                prop_assert!(a.cost(i, i) == 0.0);
                for j in g.nodes() {
                    prop_assert!((a.cost(i, j) - b.cost(i, j)).abs() < 1e-9);
                    prop_assert!((a.cost(i, j) - a.cost(j, i)).abs() < 1e-9);
                    for k in g.nodes() {
                        prop_assert!(a.cost(i, j) <= a.cost(i, k) + a.cost(k, j) + 1e-9);
                    }
                }
            }
        }

        /// The parallel fan-out is bit-identical to the sequential sweep on
        /// random connected graphs for every thread count.
        #[test]
        fn parallel_all_pairs_is_bit_identical(seed in 0u64..32, n in 2usize..14, p in 0.2f64..1.0) {
            let g = topology::random_connected(n, p, 1.0..5.0, seed).unwrap();
            let seq = g.shortest_path_matrix().unwrap();
            for threads in [1usize, 2, 3, 5] {
                let par = parallel_matrix(&g, threads).unwrap();
                for (a, b) in seq.as_matrix().as_slice().iter().zip(par.as_matrix().as_slice()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
