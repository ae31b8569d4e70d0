//! The substrate cache: dense matrices and landmark oracles in one entry
//! map, one insertion order and one byte budget.

use std::collections::HashMap;

use fap_net::{CostMatrix, CostProvider, Graph, GraphDelta, LandmarkOracle, NetError, NodeId};
use fap_obs::Recorder;
use serde::{Deserialize, Serialize};

use crate::{topology_fingerprint, FnvBuildHasher};

/// Default landmark count for [`CostBackend::Landmark`] when the caller does
/// not specify one — small enough to build in milliseconds, large enough
/// that the ALT upper bound is tight on the bench topologies.
pub const DEFAULT_LANDMARKS: usize = 16;

/// Default farthest-point seed for [`CostBackend::Landmark`].
pub const DEFAULT_LANDMARK_SEED: u64 = 42;

fn default_landmarks() -> usize {
    DEFAULT_LANDMARKS
}

fn default_landmark_seed() -> u64 {
    DEFAULT_LANDMARK_SEED
}

/// Which cost substrate to build for a topology.
///
/// Serializes with a `kind` tag so serve specs read naturally:
/// `{"kind": "dense"}` or `{"kind": "landmark", "landmarks": 32, "seed": 7}`
/// (both fields optional). The default is [`CostBackend::Dense`] — exact
/// costs, bit-identical to every pre-PR-7 run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum CostBackend {
    /// The exact dense all-pairs matrix (`n²` floats).
    #[default]
    Dense,
    /// The sparse landmark oracle: `landmarks` single-source Dijkstra runs
    /// from farthest-point seeds drawn deterministically from `seed`.
    Landmark {
        /// Number of landmarks `K` (clamped to `1..=n` at build time).
        #[serde(default = "default_landmarks")]
        landmarks: usize,
        /// Farthest-point selection seed.
        #[serde(default = "default_landmark_seed")]
        seed: u64,
    },
}

impl CostBackend {
    /// The landmark backend with default `K` and seed.
    #[must_use]
    pub fn landmark() -> Self {
        CostBackend::Landmark { landmarks: DEFAULT_LANDMARKS, seed: DEFAULT_LANDMARK_SEED }
    }

    /// Whether this backend is exact (dense) rather than approximate.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, CostBackend::Dense)
    }

    /// The hit / miss counter and bytes gauge names of this backend's kind.
    fn metrics(self) -> KindMetrics {
        if self.is_exact() {
            KindMetrics { hit: "cache.hit", miss: "cache.miss", bytes: "cache.bytes" }
        } else {
            KindMetrics {
                hit: "cache.landmark_hit",
                miss: "cache.landmark_miss",
                bytes: "cache.landmark_bytes",
            }
        }
    }
}

/// Per-kind metric names: dense entries report under `cache.*`, landmark
/// oracles under `cache.landmark_*`; evictions share `cache.evictions`.
struct KindMetrics {
    hit: &'static str,
    miss: &'static str,
    bytes: &'static str,
}

/// A cached cost substrate of either kind.
#[derive(Debug)]
enum Substrate {
    Dense(CostMatrix),
    /// The oracle and the row-LRU byte cap last applied to it (`None` until
    /// a budget first touches it).
    Landmark {
        oracle: LandmarkOracle,
        row_cap: Option<usize>,
    },
}

impl Substrate {
    fn provider(&self) -> &dyn CostProvider {
        match self {
            Substrate::Dense(matrix) => matrix,
            Substrate::Landmark { oracle, .. } => oracle,
        }
    }
}

/// One cached substrate with its source graph: the debug-mode collision
/// guard compares against it, and the oracle repair path diffs it.
#[derive(Debug)]
struct Entry {
    graph: Graph,
    substrate: Substrate,
}

type Key = (u64, CostBackend);

/// A content-addressed cache of cost substrates keyed by
/// `(`[`topology_fingerprint`]`, `[`CostBackend`]`)`, handing out
/// `&dyn CostProvider` so downstream solvers never branch on the kind.
///
/// Every build is deterministic in its key — all-pairs Dijkstra for
/// [`CostBackend::Dense`], [`LandmarkOracle::build`] in `(k, seed)` for
/// [`CostBackend::Landmark`] — so a hit returns the bits a fresh build
/// would. Warm hits are allocation-free: the fingerprint is computed on
/// the stack and the map is probed in place.
///
/// By default the cache is unbounded. Under a byte budget
/// ([`SubstrateCache::set_byte_limit`]) every access ends by evicting
/// the oldest entries (insertion order, either kind) while the **live**
/// total [`SubstrateCache::bytes`] exceeds the budget, sparing the entry
/// just accessed — a substrate larger than the whole budget still has to
/// be usable. If that entry is an oracle, its row LRU is then capped to
/// the remaining headroom, since rows materialize after insert time.
/// Evictions are counted by [`SubstrateCache::evictions`] and the
/// `cache.evictions` metric.
///
/// Metrics keep per-kind names: dense lookups record `cache.hit` /
/// `cache.miss` and the dense entries' bytes as the `cache.bytes` gauge;
/// landmark lookups record `cache.landmark_hit` / `cache.landmark_miss`,
/// `cache.landmark_incremental` for repairs, and the oracles' live bytes
/// as `cache.landmark_bytes`. Every counter is mirrored by a zero-width
/// marker span of the same name.
#[derive(Debug, Default)]
pub struct SubstrateCache {
    entries: HashMap<Key, Entry, FnvBuildHasher>,
    /// Live keys, oldest first — the eviction order.
    order: Vec<Key>,
    byte_limit: Option<u64>,
    hits: u64,
    misses: u64,
    incremental: u64,
    evictions: u64,
}

impl SubstrateCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        SubstrateCache::default()
    }

    /// Sets (or clears, with `None`) the byte budget shared by dense and
    /// landmark entries. It takes effect on the next access; the oracle
    /// row LRU keeps at least one row, so a budget smaller than one
    /// entry's table plus one row is held as closely as that floor allows.
    pub fn set_byte_limit(&mut self, bytes: Option<u64>) {
        self.byte_limit = bytes;
    }

    /// Number of substrates currently cached, both kinds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime count of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime count of lookups that had to build a substrate, failed
    /// builds included.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime count of lookups answered by repairing a cached oracle
    /// onto a slightly edited topology (neither hits nor misses).
    pub fn incremental_updates(&self) -> u64 {
        self.incremental
    }

    /// Lifetime count of entries evicted to fit the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total bytes resident, re-polled live from every entry's
    /// [`CostProvider::substrate_bytes`]: dense matrices, landmark tables
    /// and home assignments, and each oracle's materialized LRU rows.
    pub fn bytes(&self) -> u64 {
        self.bytes_where(|_| true)
    }

    /// Drops every entry (lifetime counters survive).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Returns the provider for `(graph, backend)`, building it on first
    /// sight.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] from the build — [`NetError::TooLarge`] when
    /// a dense build exceeds the element budget (before any `n²`
    /// allocation), [`NetError::Disconnected`], an empty graph. A failed
    /// build is not cached but counts as a miss.
    ///
    /// # Panics
    ///
    /// Debug builds panic if two structurally different graphs ever share
    /// a fingerprint (a 64-bit collision), rather than serving wrong costs.
    pub fn get_or_build(
        &mut self,
        graph: &Graph,
        backend: CostBackend,
        recorder: &mut dyn Recorder,
    ) -> Result<&dyn CostProvider, NetError> {
        self.lookup(graph, topology_fingerprint(graph), backend, false, recorder)
    }

    /// [`SubstrateCache::get_or_build`] for a caller that already holds
    /// `fingerprint = topology_fingerprint(graph)` (the graph is hashed
    /// once, not again inside the cache); with `update` set, a landmark
    /// miss first tries to repair a cached oracle across a small topology
    /// edit.
    ///
    /// The repair looks for the cache's newest entry with the same backend
    /// whose stored graph diffs against `graph` as a recognized small delta
    /// — a bounded set of edge re-pricings, one node join, or one node
    /// leave — and repairs that oracle in place with
    /// [`LandmarkOracle::apply_deltas`], re-keying it under the new
    /// fingerprint. The repaired oracle is bit-identical to
    /// [`LandmarkOracle::with_landmarks`] on the edited topology with the
    /// cached landmark chain (a cold [`LandmarkOracle::build`] may pick a
    /// different chain; keeping it stable is what makes the update warm).
    /// Unrecognized diffs and refused repairs (a departing landmark, a
    /// disconnecting edit) drop the stale entry and rebuild. Dense lookups
    /// behave exactly as in [`SubstrateCache::get_or_build`]: every cost
    /// can move under one edge edit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SubstrateCache::get_or_build`].
    pub fn get_fingerprinted(
        &mut self,
        graph: &Graph,
        fingerprint: u64,
        backend: CostBackend,
        update: bool,
        recorder: &mut dyn Recorder,
    ) -> Result<&dyn CostProvider, NetError> {
        debug_assert_eq!(fingerprint, topology_fingerprint(graph), "stale fingerprint");
        self.lookup(graph, fingerprint, backend, update, recorder)
    }

    fn lookup(
        &mut self,
        graph: &Graph,
        fingerprint: u64,
        backend: CostBackend,
        repair: bool,
        recorder: &mut dyn Recorder,
    ) -> Result<&dyn CostProvider, NetError> {
        let key = (fingerprint, backend);
        let metrics = backend.metrics();
        // `contains_key` rather than `get`: a held borrow would block the
        // insert below, and the probe keeps the hit path allocation-free.
        if self.entries.contains_key(&key) {
            #[cfg(debug_assertions)]
            assert!(
                self.entries[&key].graph == *graph,
                "topology fingerprint collision: two distinct graphs hash to {:#018x}",
                key.0
            );
            self.hits += 1;
            recorder.incr(metrics.hit, 1);
            fap_obs::emit_marker_span(recorder, metrics.hit);
        } else if !(repair && self.repair(graph, key, recorder)) {
            // A miss is an attempt: failed builds stay visible in telemetry.
            self.misses += 1;
            recorder.incr(metrics.miss, 1);
            fap_obs::emit_marker_span(recorder, metrics.miss);
            let substrate = match backend {
                CostBackend::Dense => Substrate::Dense(graph.shortest_path_matrix()?),
                CostBackend::Landmark { landmarks, seed } => Substrate::Landmark {
                    oracle: LandmarkOracle::build(graph, landmarks, seed)?,
                    row_cap: None,
                },
            };
            self.entries.insert(key, Entry { graph: graph.clone(), substrate });
            self.order.push(key);
        }
        self.enforce_budget(&key, recorder);
        let kind_bytes = self.bytes_where(|k| k.1.is_exact() == backend.is_exact());
        recorder.gauge(metrics.bytes, kind_bytes as f64);
        Ok(self.entries[&key].substrate.provider())
    }

    /// Repairs the newest same-backend oracle whose graph diffs against
    /// `graph` as a recognized small delta and re-keys it under `key`.
    /// Returns whether the repair succeeded; a refused or diverging repair
    /// drops the stale donor.
    fn repair(&mut self, graph: &Graph, key: Key, recorder: &mut dyn Recorder) -> bool {
        if key.1.is_exact() {
            return false;
        }
        let cap = max_repair_deltas(graph);
        let Some((donor, deltas)) = self
            .order
            .iter()
            .rev()
            .filter(|k| k.1 == key.1)
            .find_map(|k| diff_graphs(&self.entries[k].graph, graph, cap).map(|d| (*k, d)))
        else {
            return false;
        };
        let mut entry = self.entries.remove(&donor).expect("order holds only live keys");
        self.order.retain(|k| *k != donor);
        let Substrate::Landmark { oracle, .. } = &mut entry.substrate else {
            unreachable!("landmark keys hold oracles");
        };
        let mut patched = entry.graph.clone();
        if oracle.apply_deltas(&mut patched, &deltas).is_err() || patched != *graph {
            return false;
        }
        entry.graph = patched;
        self.incremental += 1;
        recorder.incr("cache.landmark_incremental", 1);
        fap_obs::emit_marker_span(recorder, "cache.landmark_incremental");
        self.entries.insert(key, entry);
        self.order.push(key);
        true
    }

    fn bytes_where(&self, keep: impl Fn(&Key) -> bool) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(_, e)| e.substrate.provider().substrate_bytes() as u64)
            .sum()
    }

    /// Evicts oldest-first while over budget (sparing `keep`), then, if
    /// `keep` is an oracle, caps its row LRU to the headroom the other
    /// entries leave. Re-capping clears the oracle's cached rows, so the
    /// cap is only reapplied when the headroom changed.
    fn enforce_budget(&mut self, keep: &Key, recorder: &mut dyn Recorder) {
        let Some(limit) = self.byte_limit else { return };
        while self.bytes() > limit {
            let Some(pos) = self.order.iter().position(|k| k != keep) else {
                break;
            };
            let victim = self.order.remove(pos);
            self.entries.remove(&victim);
            self.evictions += 1;
            recorder.incr("cache.evictions", 1);
        }
        let others = self.bytes_where(|k| k != keep);
        let entry = self.entries.get_mut(keep).expect("the accessed entry is never evicted");
        let Substrate::Landmark { oracle, row_cap } = &mut entry.substrate else {
            return;
        };
        let f = std::mem::size_of::<f64>() as u64;
        let n = oracle.node_count() as u64;
        let fixed =
            oracle.landmark_count() as u64 * n * f + n * (std::mem::size_of::<u32>() as u64 + f);
        let cap = limit.saturating_sub(others.saturating_add(fixed)) as usize;
        if *row_cap != Some(cap) {
            oracle.set_row_cache_bytes(cap);
            *row_cap = Some(cap);
        }
    }
}

/// Edge-repricing budget for the incremental path: repairs are a win
/// while the dirty frontier stays a sliver of the graph, so cap the
/// recognized diff at a small, size-relative edit set.
fn max_repair_deltas(graph: &Graph) -> usize {
    (graph.node_count() / 64).max(4)
}

/// Diffs `old` against `new` as a sequence of [`GraphDelta`]s the oracle
/// can replay, or `None` when the edit is not a recognized small delta.
///
/// Recognized shapes (checked in order):
///
/// * **edge re-pricings** — identical node count and adjacency
///   structure, at most `cap` undirected pairs re-priced, every parallel
///   link and both directions of a changed pair landing on one cost
///   (that is what [`GraphDelta::EdgeWeight`] replays);
/// * **one node join** — `new` is `old` plus one trailing node whose
///   links were appended (`add_link` order), nothing else changed;
/// * **one node leave** — `new` is `old` minus its last node, the
///   remaining adjacency filtered in place (`pop_node` order).
///
/// The caller still verifies the replayed graph equals `new` bit for bit
/// before trusting the repair, so recognition here only needs to be
/// precise enough to avoid wasted replays.
fn diff_graphs(old: &Graph, new: &Graph, cap: usize) -> Option<Vec<GraphDelta>> {
    let (n_old, n_new) = (old.node_count(), new.node_count());
    if n_old == n_new {
        return diff_edge_weights(old, new, cap);
    }
    if n_new == n_old + 1 {
        return diff_node_join(old, new);
    }
    if n_old == n_new + 1 {
        return diff_node_leave(old, new);
    }
    None
}

fn diff_edge_weights(old: &Graph, new: &Graph, cap: usize) -> Option<Vec<GraphDelta>> {
    let mut changed: Vec<(NodeId, NodeId)> = Vec::new();
    for u in old.nodes() {
        let (a, b) = (old.neighbors(u), new.neighbors(u));
        if a.len() != b.len() {
            return None;
        }
        for (&(va, ca), &(vb, cb)) in a.iter().zip(b) {
            if va != vb {
                return None;
            }
            if ca.to_bits() != cb.to_bits() {
                let pair = (u.min(va), u.max(va));
                if !changed.contains(&pair) {
                    changed.push(pair);
                    if changed.len() > cap {
                        return None;
                    }
                }
            }
        }
    }
    let mut deltas = Vec::with_capacity(changed.len());
    for (u, v) in changed {
        // EdgeWeight replays as "every link between u and v, both
        // directions, now costs this": the diff is only faithful when
        // the new graph agrees with itself on that.
        let cost = new.direct_cost(u, v)?;
        let uniform = |from: NodeId, to: NodeId| {
            new.neighbors(from)
                .iter()
                .filter(|(t, _)| *t == to)
                .all(|(_, c)| c.to_bits() == cost.to_bits())
        };
        if !(uniform(u, v) && uniform(v, u)) {
            return None;
        }
        deltas.push(GraphDelta::EdgeWeight { from: u, to: v, cost });
    }
    Some(deltas)
}

fn diff_node_join(old: &Graph, new: &Graph) -> Option<Vec<GraphDelta>> {
    let joined = NodeId::new(old.node_count());
    for u in old.nodes() {
        let (a, b) = (old.neighbors(u), new.neighbors(u));
        if b.len() < a.len()
            || a.iter().zip(b).any(|(&(va, ca), &(vb, cb))| va != vb || ca.to_bits() != cb.to_bits())
            || b[a.len()..].iter().any(|(v, _)| *v != joined)
        {
            return None;
        }
    }
    Some(vec![GraphDelta::NodeJoin { edges: new.neighbors(joined).to_vec() }])
}

fn diff_node_leave(old: &Graph, new: &Graph) -> Option<Vec<GraphDelta>> {
    let departing = NodeId::new(new.node_count());
    for u in new.nodes() {
        let filtered: Vec<(NodeId, f64)> = old
            .neighbors(u)
            .iter()
            .filter(|(v, _)| *v != departing)
            .copied()
            .collect();
        let b = new.neighbors(u);
        if filtered.len() != b.len()
            || filtered
                .iter()
                .zip(b)
                .any(|(&(va, ca), &(vb, cb))| va != vb || ca.to_bits() != cb.to_bits())
        {
            return None;
        }
    }
    Some(vec![GraphDelta::NodeLeave])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_net::{topology, AccessPattern, Parallelism};
    use fap_obs::{MetricsRegistry, NoopRecorder};

    const DENSE: CostBackend = CostBackend::Dense;

    fn landmark(landmarks: usize, seed: u64) -> CostBackend {
        CostBackend::Landmark { landmarks, seed }
    }

    fn build(cache: &mut SubstrateCache, graph: &Graph, backend: CostBackend) {
        cache.get_or_build(graph, backend, &mut NoopRecorder).unwrap();
    }

    fn update(cache: &mut SubstrateCache, graph: &Graph, backend: CostBackend) {
        cache
            .get_fingerprinted(graph, topology_fingerprint(graph), backend, true, &mut NoopRecorder)
            .unwrap();
    }

    /// Whether `(graph, backend)` is resident, without touching counters.
    fn holds(cache: &SubstrateCache, graph: &Graph, backend: CostBackend) -> bool {
        cache.entries.contains_key(&(topology_fingerprint(graph), backend))
    }

    /// The resident oracle for `(graph, backend)`.
    fn oracle<'a>(
        cache: &'a SubstrateCache,
        graph: &Graph,
        backend: CostBackend,
    ) -> &'a LandmarkOracle {
        match &cache.entries[&(topology_fingerprint(graph), backend)].substrate {
            Substrate::Landmark { oracle, .. } => oracle,
            Substrate::Dense(_) => panic!("expected an oracle"),
        }
    }

    fn assert_same_costs(a: &dyn CostProvider, b: &dyn CostProvider) {
        let n = a.node_count();
        assert_eq!(n, b.node_count());
        for u in 0..n {
            for v in 0..n {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                assert_eq!(a.cost(u, v).to_bits(), b.cost(u, v).to_bits(), "cost({u:?}, {v:?})");
            }
        }
    }

    #[test]
    fn backend_default_is_dense_and_roundtrips() {
        assert_eq!(CostBackend::default(), CostBackend::Dense);
        assert!(CostBackend::Dense.is_exact());
        assert!(!CostBackend::landmark().is_exact());
        let json = serde_json::to_string(&CostBackend::landmark()).unwrap();
        let back: CostBackend = serde_json::from_str(&json).unwrap();
        assert_eq!(back, CostBackend::landmark());
    }

    #[test]
    fn landmark_fields_default_when_omitted() {
        let back: CostBackend = serde_json::from_str(r#"{"kind": "landmark"}"#).unwrap();
        assert_eq!(back, landmark(DEFAULT_LANDMARKS, DEFAULT_LANDMARK_SEED));
        let dense: CostBackend = serde_json::from_str(r#"{"kind": "dense"}"#).unwrap();
        assert_eq!(dense, CostBackend::Dense);
    }

    #[test]
    fn dense_hit_is_bit_identical_to_a_fresh_matrix() {
        let g = topology::full_mesh(7, 2.0).unwrap();
        let fresh = g.shortest_path_matrix().unwrap();
        let mut cache = SubstrateCache::new();
        let miss = cache.get_or_build(&g, DENSE, &mut NoopRecorder).unwrap();
        assert_same_costs(&fresh, miss);
        let hit = cache.get_or_build(&g, DENSE, &mut NoopRecorder).unwrap();
        assert_same_costs(&fresh, hit);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn oracle_hit_is_bit_identical_to_a_fresh_build() {
        let g = topology::random_connected(40, 0.2, 1.0..3.0, 5).unwrap();
        let fresh = LandmarkOracle::build(&g, 6, 11).unwrap();
        let mut cache = SubstrateCache::new();
        build(&mut cache, &g, landmark(6, 11));
        let cached = cache.get_or_build(&g, landmark(6, 11), &mut NoopRecorder).unwrap();
        assert_same_costs(&fresh, cached);
        assert_eq!(fresh.landmarks(), oracle(&cache, &g, landmark(6, 11)).landmarks());
    }

    #[test]
    fn keys_separate_topologies_backends_and_landmark_parameters() {
        let mut cache = SubstrateCache::new();
        let (a, b) = (topology::ring(4, 1.0).unwrap(), topology::ring(8, 1.0).unwrap());
        build(&mut cache, &a, DENSE);
        build(&mut cache, &b, DENSE);
        assert_eq!((cache.len(), cache.misses()), (2, 2));
        assert_eq!(cache.bytes(), (4 * 4 + 8 * 8) * 8);

        let g = topology::ring(12, 1.0).unwrap();
        let mut cache = SubstrateCache::new();
        build(&mut cache, &g, landmark(3, 7));
        build(&mut cache, &g, landmark(3, 7));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different seed or k is a distinct oracle, and the same
        // topology under the dense backend is a distinct entry too.
        build(&mut cache, &g, landmark(3, 8));
        build(&mut cache, &g, landmark(4, 7));
        build(&mut cache, &g, DENSE);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 4, 4));
        // Live accounting: per oracle, the K·n table plus the per-node home
        // assignment (u32 index + f64 distance); no LRU rows materialized.
        let assignment = 12 * (4 + 8);
        assert_eq!(cache.bytes(), (3 + 3 + 4) * 12 * 8 + 3 * assignment + 12 * 12 * 8);
        assert!(holds(&cache, &g, landmark(3, 8)));
        assert!(!holds(&cache, &g, landmark(3, 9)), "only built keys are resident");
    }

    #[test]
    fn failed_builds_are_not_cached_but_count_as_misses() {
        let disconnected = Graph::new(3); // no links at all
        for backend in [DENSE, landmark(2, 0)] {
            let mut cache = SubstrateCache::new();
            assert!(cache.get_or_build(&disconnected, backend, &mut NoopRecorder).is_err());
            assert!(cache.is_empty());
            assert_eq!(cache.bytes(), 0);
            // Misses count attempts, so the failure is visible in telemetry.
            assert_eq!(cache.misses(), 1);
        }
    }

    #[test]
    fn lookups_record_per_kind_counters_and_bytes() {
        let (small, big) = (topology::ring(4, 1.0).unwrap(), topology::ring(10, 1.0).unwrap());
        let mut reg = MetricsRegistry::new();
        let mut cache = SubstrateCache::new();
        for _ in 0..3 {
            cache.get_or_build(&small, DENSE, &mut reg).unwrap();
        }
        for _ in 0..2 {
            cache.get_or_build(&big, landmark(4, 1), &mut reg).unwrap();
        }
        assert_eq!((reg.counter("cache.miss"), reg.counter("cache.hit")), (1, 2));
        assert_eq!((reg.counter("cache.landmark_miss"), reg.counter("cache.landmark_hit")), (1, 1));
        // Each gauge covers its own kind only.
        assert_eq!(reg.gauge_value("cache.bytes"), Some(4.0 * 4.0 * 8.0));
        let oracle_bytes = 4.0 * 10.0 * 8.0 + 10.0 * (4.0 + 8.0);
        assert_eq!(reg.gauge_value("cache.landmark_bytes"), Some(oracle_bytes));
        assert_eq!(cache.bytes() as f64, 4.0 * 4.0 * 8.0 + oracle_bytes);
        assert_eq!((cache.hits(), cache.misses()), (3, 2), "whole-cache counters sum both");
    }

    #[test]
    fn fingerprinted_lookups_share_entries_and_counters_with_the_plain_ones() {
        let g = topology::ring(10, 1.0).unwrap();
        let fingerprint = topology_fingerprint(&g);
        let mut reg = MetricsRegistry::new();
        let mut cache = SubstrateCache::new();
        for backend in [DENSE, landmark(4, 1)] {
            cache.get_fingerprinted(&g, fingerprint, backend, false, &mut reg).unwrap();
            cache.get_or_build(&g, backend, &mut reg).unwrap();
            cache.get_fingerprinted(&g, fingerprint, backend, true, &mut reg).unwrap();
        }
        assert_eq!((reg.counter("cache.miss"), reg.counter("cache.hit")), (1, 2));
        assert_eq!((reg.counter("cache.landmark_miss"), reg.counter("cache.landmark_hit")), (1, 2));
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (2, 4, 2));
    }

    #[test]
    fn clear_resets_entries_and_bytes_but_keeps_lifetime_counters() {
        let g = topology::ring(4, 1.0).unwrap();
        let mut cache = SubstrateCache::new();
        build(&mut cache, &g, DENSE);
        build(&mut cache, &g, landmark(2, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.misses(), 2);
        build(&mut cache, &g, DENSE);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn byte_limit_evicts_oldest_first() {
        // Three 4-node rings (128 bytes each) under a 300-byte budget: the
        // third insertion overflows and the *first* ring is evicted.
        let a = topology::ring(4, 1.0).unwrap();
        let b = topology::ring(4, 2.0).unwrap();
        let c = topology::ring(4, 3.0).unwrap();
        let mut cache = SubstrateCache::new();
        cache.set_byte_limit(Some(300));
        for g in [&a, &b, &c] {
            build(&mut cache, g, DENSE);
        }
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        assert_eq!(cache.bytes(), 2 * 4 * 4 * 8);
        assert!(!holds(&cache, &a, DENSE), "oldest must go first");
        assert!(holds(&cache, &b, DENSE) && holds(&cache, &c, DENSE));
        // Touching b again is still a hit — eviction never corrupts
        // surviving entries.
        build(&mut cache, &b, DENSE);
        assert_eq!(cache.hits(), 1);

        // Oracles evict the same way. ring(32) with K = 4 is 1408 fixed
        // bytes, so a 2000-byte budget fits one.
        let g = topology::ring(32, 1.0).unwrap();
        let mut cache = SubstrateCache::new();
        cache.set_byte_limit(Some(2000));
        build(&mut cache, &g, landmark(4, 1));
        build(&mut cache, &g, landmark(4, 2));
        assert_eq!(cache.len(), 1, "the older oracle must be evicted");
        assert!(cache.bytes() <= 2000);
        build(&mut cache, &g, landmark(4, 2));
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 2, 1));
    }

    #[test]
    fn the_accessed_entry_survives_even_over_budget() {
        let big = topology::full_mesh(8, 1.0).unwrap(); // 512 bytes
        let mut cache = SubstrateCache::new();
        cache.set_byte_limit(Some(100));
        build(&mut cache, &big, DENSE);
        assert_eq!((cache.len(), cache.evictions()), (1, 0));
        assert!(cache.bytes() > 100);
        // A second oversized topology evicts the first but is itself kept.
        let other = topology::full_mesh(8, 2.0).unwrap();
        build(&mut cache, &other, DENSE);
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
        assert!(holds(&cache, &other, DENSE));
    }

    #[test]
    fn evictions_are_recorded_and_the_limit_is_adjustable() {
        let mut reg = MetricsRegistry::new();
        let mut cache = SubstrateCache::new();
        let a = topology::ring(4, 1.0).unwrap();
        let b = topology::ring(4, 2.0).unwrap();
        cache.get_or_build(&a, DENSE, &mut reg).unwrap();
        cache.set_byte_limit(Some(128));
        cache.get_or_build(&b, DENSE, &mut reg).unwrap();
        assert_eq!(reg.counter("cache.evictions"), 1);
        assert_eq!(reg.gauge_value("cache.bytes"), Some(128.0));
        assert_eq!(cache.byte_limit, Some(128));
    }

    #[test]
    fn one_budget_covers_both_kinds() {
        // ring(32): the dense matrix is 32·32·8 = 8192 bytes, a K = 8
        // oracle 8·32·8 + 32·12 = 2432. Under a 4000-byte budget no two
        // entries fit together, whatever their kind.
        let g = topology::ring(32, 1.0).unwrap();
        let limit = 4000;
        let mut reg = MetricsRegistry::new();
        let mut cache = SubstrateCache::new();
        cache.set_byte_limit(Some(limit));
        for backend in [DENSE, landmark(8, 1), landmark(8, 2)] {
            cache.get_or_build(&g, backend, &mut reg).unwrap();
            assert!(
                cache.len() == 1 || cache.bytes() <= limit,
                "{} entries hold {} bytes over the {limit}-byte budget",
                cache.len(),
                cache.bytes()
            );
        }
        assert_eq!(cache.len(), 1);
        assert!(holds(&cache, &g, landmark(8, 2)), "the newest oracle survives");
        assert_eq!(cache.bytes(), 2432);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(reg.counter("cache.evictions"), 2, "landmark evictions are counted too");
    }

    #[test]
    fn byte_budget_holds_after_row_materialization() {
        // Rows the oracle materializes *after* insert time must not push
        // the live bytes past the budget. ring(32) with K = 4: table
        // 4·32·8 = 1024, assignment 32·12 = 384, so a 2000-byte budget
        // leaves 592 bytes of row headroom — room for two 256-byte rows.
        let g = topology::ring(32, 1.0).unwrap();
        let limit = 2000u64;
        let mut reg = MetricsRegistry::new();
        let mut cache = SubstrateCache::new();
        cache.set_byte_limit(Some(limit));
        let provider = cache.get_or_build(&g, landmark(4, 1), &mut reg).unwrap();
        // Materialize every row: without the cap the LRU would hold all 32
        // (8 KiB, 4× the whole budget).
        let mut row = vec![0.0; 32];
        for v in 0..32 {
            provider.row_into(NodeId::new(v), &mut row);
        }
        assert!(
            cache.bytes() <= limit,
            "live bytes {} exceed the {limit}-byte budget after row materialization",
            cache.bytes()
        );
        // The re-polled gauge on the next access reflects the capped total.
        cache.get_or_build(&g, landmark(4, 1), &mut reg).unwrap();
        let gauge = reg.gauge_value("cache.landmark_bytes").unwrap();
        assert!(gauge <= limit as f64, "gauge {gauge} over budget");
        assert!(gauge > 0.0);
    }

    /// Asserts the resident oracle for `(graph, backend)` is bit-identical
    /// to a rebuild over its own landmark chain.
    fn assert_repair_matches_rebuild(cache: &SubstrateCache, graph: &Graph, backend: CostBackend) {
        let repaired = oracle(cache, graph, backend);
        let fresh =
            LandmarkOracle::with_landmarks(graph, repaired.landmarks(), Parallelism::Sequential)
                .unwrap();
        assert_same_costs(&fresh, repaired);
    }

    #[test]
    fn update_path_repairs_across_an_edge_reprice() {
        let g = topology::random_connected(40, 0.2, 1.0..3.0, 5).unwrap();
        let backend = landmark(6, 11);
        let mut cache = SubstrateCache::new();
        build(&mut cache, &g, backend);

        let mut edited = g.clone();
        let u = NodeId::new(3);
        let (v, old_cost) = edited.neighbors(u)[0];
        edited.set_link_cost(u, v, old_cost * 3.0).unwrap();

        let mut reg = MetricsRegistry::new();
        let fingerprint = topology_fingerprint(&edited);
        cache.get_fingerprinted(&edited, fingerprint, backend, true, &mut reg).unwrap();
        assert_eq!(cache.incremental_updates(), 1);
        assert_eq!(reg.counter("cache.landmark_incremental"), 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1), "no rebuild, no hit");
        assert_eq!(cache.len(), 1, "the entry was re-keyed, not duplicated");
        // The repaired oracle is bit-identical to a rebuild on the edited
        // topology over the same landmark chain (a cold `build` may pick
        // different landmarks — the stable chain is the point of warmth).
        assert_repair_matches_rebuild(&cache, &edited, backend);
        update(&mut cache, &edited, backend);
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "re-requests are plain hits");
    }

    #[test]
    fn update_path_repairs_across_a_node_join_and_leave() {
        let g = topology::ring(16, 1.0).unwrap();
        let backend = landmark(4, 2);
        let mut cache = SubstrateCache::new();
        build(&mut cache, &g, backend);

        // Join: one new node hanging off nodes 0 and 8.
        let mut joined = g.clone();
        let newcomer = joined.push_node();
        joined.add_link(NodeId::new(0), newcomer, 0.5).unwrap();
        joined.add_link(NodeId::new(8), newcomer, 1.5).unwrap();
        update(&mut cache, &joined, backend);
        assert_eq!(cache.incremental_updates(), 1);
        assert_repair_matches_rebuild(&cache, &joined, backend);

        // Leave: the newcomer departs again — back to the original ring.
        update(&mut cache, &g, backend);
        assert_eq!(cache.incremental_updates(), 2);
        assert_repair_matches_rebuild(&cache, &g, backend);
        assert_eq!(cache.misses(), 1, "both edits were repairs");
    }

    #[test]
    fn update_path_falls_back_to_rebuild_on_a_large_edit() {
        let g = topology::ring(16, 1.0).unwrap();
        let backend = landmark(4, 2);
        let mut cache = SubstrateCache::new();
        build(&mut cache, &g, backend);
        // A structurally different topology: no recognizable small delta.
        let other = topology::random_connected(16, 0.4, 1.0..3.0, 9).unwrap();
        update(&mut cache, &other, backend);
        assert_eq!(cache.incremental_updates(), 0);
        assert_eq!(cache.misses(), 2, "fell back to a full build");
        assert_eq!(cache.len(), 2, "both topologies stay cached");
    }

    #[test]
    fn update_path_leaves_dense_entries_alone() {
        let g = topology::ring(16, 1.0).unwrap();
        let mut edited = g.clone();
        edited.set_link_cost(NodeId::new(0), NodeId::new(1), 2.0).unwrap();
        let mut cache = SubstrateCache::new();
        update(&mut cache, &g, DENSE);
        update(&mut cache, &edited, DENSE);
        assert_eq!((cache.incremental_updates(), cache.misses(), cache.len()), (0, 2, 2));
    }

    #[test]
    fn dense_provider_matches_the_exact_matrix_systemwide() {
        let g = topology::ring(9, 1.0).unwrap();
        let pattern = AccessPattern::uniform(9, 1.0).unwrap();
        let exact = g.shortest_path_matrix().unwrap();
        let mut cache = SubstrateCache::new();
        let dense = cache.get_or_build(&g, DENSE, &mut NoopRecorder).unwrap();
        let via_cache = dense.systemwide_access_costs(&pattern);
        let direct = exact.systemwide_access_costs(&pattern);
        assert_eq!(via_cache.len(), direct.len());
        for (a, b) in via_cache.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let sparse = cache.get_or_build(&g, landmark(3, 1), &mut NoopRecorder).unwrap();
        assert_eq!(sparse.node_count(), 9);
    }
}
