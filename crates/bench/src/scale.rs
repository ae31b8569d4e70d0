//! The `scale` benchmark: sequential-vs-parallel wall clock for the two
//! batch kernels (all-pairs shortest paths and the multi-file solver) over a
//! grid of network sizes `N` and file counts `M`, plus the sparse
//! cost-substrate sweep (landmark oracle + hierarchical solver) that
//! carries the node count past where the dense matrix fits.
//!
//! The parallel paths are bit-identical to the sequential ones by
//! construction (disjoint contiguous chunks, deterministic reductions), and
//! [`bench_scale`] asserts that on every point before reporting a timing.
//! The sparse points are gated differently: the hierarchical allocation is
//! approximate by design, so at `N ≤` [`SPARSE_GAP_LIMIT`] its utility gap
//! against the exact dense optimum is measured and must stay within
//! [`SPARSE_GAP_BOUND`]; beyond that the dense reference no longer fits and
//! the gates are completion plus a [`SPARSE_BYTE_LIMIT`] ceiling on the
//! oracle's resident memory. Results serialize to the `BENCH_scale.json`
//! schema committed at the repo root; regenerate with `fap bench-scale`
//! (prefer `--release`).

use std::time::Instant;

use fap_batch::Parallelism;
use fap_core::{
    hierarchical::{solve_hierarchical, HierarchicalConfig},
    reference, MultiFileProblem, MultiFileScratch, MultiFileSolution, SingleFileProblem,
};
use fap_net::{
    topology, AccessPattern, CostMatrix, CostProvider, Graph, GraphDelta, LandmarkOracle,
};
use fap_obs::NoopRecorder;
use serde::{Deserialize, Serialize};

/// Largest `N` at which the sparse sweep still builds the dense reference
/// to measure the true utility gap.
pub const SPARSE_GAP_LIMIT: usize = 4096;
/// Hard ceiling on the measured utility gap of the sparse pipeline
/// (sparse allocation evaluated on the exact dense objective).
pub const SPARSE_GAP_BOUND: f64 = 0.05;
/// Hard ceiling on the cost substrate's resident bytes at any sparse point.
pub const SPARSE_BYTE_LIMIT: usize = 1 << 30;
/// Landmark-selection seed of the sparse sweep.
pub const SPARSE_SEED: u64 = 7;
/// Farthest-point selection batch of the sparse sweep's oracle build
/// ([`LandmarkOracle::build_parallel`]): each round selects up to this
/// many landmarks from one `min_dist` sweep and computes their rows
/// concurrently, cutting the selection cost from `K` full scans to
/// `K / 16` and exposing 16-way parallelism inside the otherwise serial
/// chain.
pub const SPARSE_BATCH: usize = 16;

/// Landmark count of the sparse sweep at size `n`:
/// `clamp(n / 128, 64, 512)` further capped by the node count and by the
/// memory budget. Small graphs make every node a landmark (the hub
/// estimator is then exact and the gap measures pure solver quality).
/// Past the gap limit the count grows with `n` to hold per-cluster
/// subproblems near 128–256 nodes — the hierarchical solver's wall clock
/// is dominated by the inner solves, whose convergence degrades sharply
/// with cluster size, so more (cheap, `O(N + E)` each) Dijkstra runs buy
/// back far more solve time than they cost. The memory cap holds the
/// `O(K·N)` f64 distance table at or under ¾ of [`SPARSE_BYTE_LIMIT`]
/// (the remaining quarter absorbs landmark lists, home assignments and
/// the row LRU): `K = 512` through `N = 131072`, then 384, 192 and 96 at
/// the quarter-, half- and full-million-node points. Shrinking `K` while
/// `N` grows is what trades hub precision for feasibility — the
/// multi-level cluster tree ([`sparse_levels`]) absorbs the resulting
/// `N / K` cluster growth.
pub fn sparse_landmarks(n: usize) -> usize {
    let grow = (n / 128).clamp(64, 512);
    let mem_cap = (3 * (SPARSE_BYTE_LIMIT / 4)) / (8 * n.max(1));
    grow.min(mem_cap.max(1)).min(n)
}

/// Hierarchy depth of the sparse sweep at size `n`: flat (`1`) while the
/// expected cluster size `N / K` fits a single inner solve (≤ 256
/// members, the multi-level leaf bound), one extra tree level once it
/// does not. Depth 2 carries clusters of up to `256²` members, far past
/// the million-node sweep's worst case (`N / K ≈ 10923` at `N = 2²⁰`).
pub fn sparse_levels(n: usize) -> usize {
    if n / sparse_landmarks(n) <= 256 {
        1
    } else {
        2
    }
}

/// One measured grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Which kernel: `"all_pairs"` or `"multi_file"`.
    pub kind: String,
    /// Network size `N`.
    pub n: usize,
    /// File count `M` (1 for the all-pairs kernel).
    pub m: usize,
    /// Sequential wall clock, milliseconds.
    pub sequential_ms: f64,
    /// Parallel wall clock, milliseconds.
    pub parallel_ms: f64,
    /// `sequential_ms / parallel_ms`.
    pub speedup: f64,
    /// A content checksum (sum over the result), equal for both paths.
    pub checksum: f64,
}

/// One measured sparse-substrate point: landmark oracle build plus a
/// hierarchical cluster-solve-refine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparsePoint {
    /// Network size `N`.
    pub n: usize,
    /// Landmark count `K` ([`sparse_landmarks`]).
    pub landmarks: usize,
    /// Cluster-tree depth the solve ran at ([`sparse_levels`] unless
    /// overridden with `--hier-levels`).
    #[serde(default = "default_one")]
    pub levels: usize,
    /// Oracle build wall clock (K Dijkstra runs), milliseconds.
    pub build_ms: f64,
    /// Hierarchical solve wall clock, milliseconds.
    pub solve_ms: f64,
    /// Resident bytes of the cost substrate after the solve.
    pub provider_bytes: usize,
    /// Cross-cluster refinement rounds the solve spent.
    pub refine_rounds: usize,
    /// Position-weighted allocation checksum:
    /// `Σ x_i·((i mod 64) + 1)` plus the estimated cost.
    pub checksum: f64,
    /// Relative utility gap of the sparse allocation on the exact dense
    /// objective; measured only at `N ≤` [`SPARSE_GAP_LIMIT`].
    pub gap: Option<f64>,
    /// Wall clock of the single-edge incremental oracle repair,
    /// milliseconds.
    #[serde(default)]
    pub update_ms: f64,
    /// Virtual work (heap pops + frontier visits) the single-edge repair
    /// spent; hard-gated at ≤ 10% of `rebuild_work`.
    #[serde(default)]
    pub update_work: u64,
    /// Virtual work of a from-scratch rebuild (`K·N` row entries) on the
    /// same topology.
    #[serde(default)]
    pub rebuild_work: u64,
}

fn default_one() -> usize {
    1
}

/// The full benchmark report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleReport {
    /// Logical CPUs of the recording host
    /// (`std::thread::available_parallelism()`).
    #[serde(default)]
    pub host_threads: usize,
    /// Worker threads the parallel path used.
    pub threads: usize,
    /// The `N` grid.
    pub ns: Vec<usize>,
    /// The `M` grid.
    pub ms: Vec<usize>,
    /// The sparse-substrate `N` grid.
    #[serde(default)]
    pub sparse_ns: Vec<usize>,
    /// Utility-gap ceiling the sparse points were gated on.
    #[serde(default = "default_gap_bound")]
    pub gap_bound: f64,
    /// Solver iterations per multi-file point.
    pub iterations: usize,
    /// All measured dense points.
    pub points: Vec<ScalePoint>,
    /// All measured sparse points.
    #[serde(default)]
    pub sparse_points: Vec<SparsePoint>,
}

fn default_gap_bound() -> f64 {
    SPARSE_GAP_BOUND
}

/// Logical CPUs of this host, `1` when undeterminable.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The benchmark network on `n` nodes: a torus as close to square as the
/// factorization of `n` allows, falling back to a ring when `n` has no
/// divisor ≥ 3 (primes and small numbers).
///
/// # Panics
///
/// Panics only on programming errors (`n ≥ 3`).
pub fn scale_graph(n: usize) -> Graph {
    let mut rows = 1;
    for r in (2..=n).take_while(|r| r * r <= n) {
        if n % r == 0 {
            rows = r;
        }
    }
    if rows >= 3 && n / rows >= 3 {
        topology::torus(rows, n / rows, 1.0).expect("valid torus")
    } else {
        topology::ring(n, 1.0).expect("valid ring")
    }
}

/// The benchmark problem: `m` files with seeded random access patterns on
/// the [`scale_graph`], node capacity 10× the even-split load.
///
/// # Panics
///
/// Panics only on programming errors (the generated parameters are valid).
pub fn scale_problem(graph: &Graph, m: usize) -> MultiFileProblem {
    let n = graph.node_count();
    let patterns: Vec<AccessPattern> = (0..m)
        .map(|j| AccessPattern::random(n, 0.05..0.2, 1_000 + j as u64).expect("valid pattern"))
        .collect();
    let offered: f64 = patterns.iter().map(AccessPattern::total_rate).sum();
    let mu = 10.0 * offered / n as f64;
    MultiFileProblem::mm1(graph, &patterns, mu, 1.0).expect("valid problem")
}

/// The sparse-sweep workload at size `n`: the same seeded random access
/// pattern family as [`scale_problem`], uniform node capacity 10× the
/// even-split load.
///
/// # Panics
///
/// Panics only on programming errors (the generated pattern is valid).
pub fn sparse_workload(n: usize) -> (AccessPattern, f64) {
    let pattern = AccessPattern::random(n, 0.05..0.2, 1_000).expect("valid pattern");
    let mu = 10.0 * pattern.total_rate() / n as f64;
    (pattern, mu)
}

/// The hierarchical tuning the sparse sweep (and the pinned gap test)
/// runs with. The stock [`HierarchicalConfig`] keeps its absolute
/// `epsilon = 1e-6` marginal-spread threshold, but the solver's marginals
/// carry cost×rate units: at `N = 131072` the seeded workload offers
/// `λ ≈ 1.6·10⁴`, so an absolute `1e-6` demands ~10 significant digits of
/// convergence and slams every aggregate/inner solve into its iteration
/// cap — hours of wall clock for digits the ≤5% gap gate cannot see.
/// Scaling the threshold by the offered load makes the stopping rule
/// scale-invariant, and the tighter per-solve iteration budget bounds the
/// damage of a mis-tuned point to seconds instead of a stalled sweep.
pub fn sparse_hierarchical_config(pattern: &AccessPattern) -> HierarchicalConfig {
    let n = pattern.node_count();
    HierarchicalConfig {
        epsilon: 1e-6 * pattern.total_rate().max(1.0),
        max_inner_iterations: 20_000,
        // Quality-gated sizes refine to convergence-or-8; past the gap
        // limit the points measure throughput and memory, and each round
        // costs seconds, so three rounds bound the sweep's wall clock.
        max_refine_rounds: if n <= SPARSE_GAP_LIMIT { 8 } else { 3 },
        ..HierarchicalConfig::default()
    }
}

fn checksum_sparse(allocation: &[f64], cost: f64) -> f64 {
    allocation
        .iter()
        .enumerate()
        .map(|(i, &x)| x * ((i % 64) + 1) as f64)
        .sum::<f64>()
        + cost
}

/// Runs the sparse sweep with the default hierarchy depth policy
/// ([`sparse_levels`]); see [`bench_sparse_with`].
///
/// # Panics
///
/// Same conditions as [`bench_sparse_with`].
pub fn bench_sparse(ns: &[usize]) -> Vec<SparsePoint> {
    bench_sparse_with(ns, None)
}

/// Runs the sparse sweep: for each `n` a batched landmark-oracle build
/// ([`LandmarkOracle::build_parallel`] with [`SPARSE_BATCH`]), a
/// hierarchical solve at `levels_override.unwrap_or(sparse_levels(n))`
/// tree levels, and a single-edge incremental oracle repair. The
/// dense-reference gap is measured while the dense matrix still fits
/// (`n ≤` [`SPARSE_GAP_LIMIT`]); at those sizes the build is also re-run
/// at one and two worker threads and must match the timed build bit for
/// bit (the parallel reduction's determinism contract).
///
/// # Panics
///
/// Panics when a gate fails: a measured gap above [`SPARSE_GAP_BOUND`],
/// a substrate footprint at or above [`SPARSE_BYTE_LIMIT`], a
/// thread-count-dependent build, or a single-edge repair costing more
/// than 10% of a full rebuild in virtual work.
pub fn bench_sparse_with(ns: &[usize], levels_override: Option<usize>) -> Vec<SparsePoint> {
    let mut points = Vec::new();
    for &n in ns {
        let mut graph = scale_graph(n);
        let landmarks = sparse_landmarks(n);
        let levels = levels_override.unwrap_or_else(|| sparse_levels(n)).max(1);
        let (pattern, mu) = sparse_workload(n);
        let mus = vec![mu; n];
        let (build_ms, mut oracle) = time_ms(|| {
            LandmarkOracle::build_parallel(
                &graph,
                landmarks,
                SPARSE_SEED,
                SPARSE_BATCH,
                Parallelism::Auto,
            )
            .expect("connected")
        });
        if n <= SPARSE_GAP_LIMIT {
            for threads in [1, 2] {
                let again = LandmarkOracle::build_parallel(
                    &graph,
                    landmarks,
                    SPARSE_SEED,
                    SPARSE_BATCH,
                    Parallelism::Fixed(threads),
                )
                .expect("connected");
                assert_identical_oracles(&oracle, &again, n, threads);
            }
        }
        let config = sparse_hierarchical_config(&pattern);
        let (solve_ms, solution) = time_ms(|| {
            solve_hierarchical(&oracle, &pattern, &mus, 1.0, &config, levels, &mut NoopRecorder)
                .expect("stable solve")
        });
        let provider_bytes = oracle.substrate_bytes();
        assert!(
            provider_bytes < SPARSE_BYTE_LIMIT,
            "substrate at N = {n} holds {provider_bytes} bytes, over the 1 GiB ceiling"
        );
        let gap = (n <= SPARSE_GAP_LIMIT).then(|| {
            let dense =
                SingleFileProblem::mm1(&graph, &pattern, mu, 1.0).expect("valid problem");
            let exact = reference::solve(&dense).expect("solvable");
            let sparse_cost =
                dense.cost_of(&solution.allocation).expect("feasible allocation");
            let gap = (sparse_cost - exact.cost) / exact.cost;
            assert!(
                gap <= SPARSE_GAP_BOUND,
                "sparse utility gap {gap:.4} at N = {n} exceeds the {SPARSE_GAP_BOUND} bound"
            );
            gap
        });
        // The point's results are captured; re-price one edge and repair
        // the oracle in place to measure the incremental path. A 10%
        // bump on one torus link barely perturbs the shortest-path
        // structure, which is exactly the regime topology drift hands
        // the daemon — the repair must cost ≤ 10% of a K·N rebuild.
        let from = fap_net::NodeId::new(0);
        let (to, old_cost) = graph.neighbors(from)[0];
        let delta = GraphDelta::EdgeWeight { from, to, cost: old_cost * 1.1 };
        let (update_ms, stats) = time_ms(|| {
            oracle.apply_deltas(&mut graph, &[delta]).expect("repairable delta")
        });
        let (update_work, rebuild_work) = (stats.virtual_work(), oracle.full_rebuild_work());
        assert!(
            update_work * 10 <= rebuild_work,
            "single-edge repair at N = {n} cost {update_work} virtual work, \
             over 10% of the {rebuild_work} full rebuild"
        );
        points.push(SparsePoint {
            n,
            landmarks,
            levels,
            build_ms,
            solve_ms,
            provider_bytes,
            refine_rounds: solution.refine_rounds,
            checksum: checksum_sparse(&solution.allocation, solution.estimated_cost),
            gap,
            update_ms,
            update_work,
            rebuild_work,
        });
    }
    points
}

/// Panics unless two oracle builds agree bit for bit (landmark chain and
/// full `K×N` distance table) — the thread-count determinism contract of
/// [`LandmarkOracle::build_parallel`].
fn assert_identical_oracles(a: &LandmarkOracle, b: &LandmarkOracle, n: usize, threads: usize) {
    assert_eq!(
        a.landmarks(),
        b.landmarks(),
        "landmark chain diverged at N = {n} with {threads} worker thread(s)"
    );
    for k in 0..a.landmark_count() {
        for v in 0..n {
            let (da, db) =
                (a.landmark_distance(k, fap_net::NodeId::new(v)), b.landmark_distance(k, fap_net::NodeId::new(v)));
            assert!(
                da.to_bits() == db.to_bits(),
                "distance table diverged at N = {n}, landmark {k}, node {v} \
                 with {threads} worker thread(s): {da:?} vs {db:?}"
            );
        }
    }
}

fn checksum_matrix(matrix: &CostMatrix) -> f64 {
    matrix.as_matrix().as_slice().iter().sum()
}

fn checksum_solution(solution: &MultiFileSolution) -> f64 {
    solution.final_cost
        + solution.allocations.iter().flat_map(|row| row.iter()).sum::<f64>()
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64() * 1e3, value)
}

/// Runs the sweep: for each `n` an all-pairs point, for each `(n, m)` a
/// multi-file point of exactly `iterations` solver steps (ε is set far below
/// attainability so every run pays the same iteration count), and for each
/// `sparse_ns` entry a [`bench_sparse`] point.
///
/// # Panics
///
/// Panics if any parallel result differs bitwise from its sequential
/// counterpart — the determinism contract this PR's tests pin down — or if
/// a sparse point violates its gap or memory gate.
pub fn bench_scale(
    ns: &[usize],
    ms: &[usize],
    sparse_ns: &[usize],
    iterations: usize,
    parallelism: Parallelism,
) -> ScaleReport {
    bench_scale_configured(ns, ms, sparse_ns, iterations, parallelism, None)
}

/// [`bench_scale`] with the sparse sweep's hierarchy depth overridable
/// (`fap bench-scale --hier-levels <L>`); `None` applies the per-size
/// default policy ([`sparse_levels`]).
///
/// # Panics
///
/// Same conditions as [`bench_scale`].
pub fn bench_scale_configured(
    ns: &[usize],
    ms: &[usize],
    sparse_ns: &[usize],
    iterations: usize,
    parallelism: Parallelism,
    levels_override: Option<usize>,
) -> ScaleReport {
    let mut points = Vec::new();
    for &n in ns {
        let graph = scale_graph(n);
        let (sequential_ms, seq) = time_ms(|| graph.shortest_path_matrix().expect("connected"));
        let (parallel_ms, par) =
            time_ms(|| {
                graph
                    .shortest_path_matrix_observed(parallelism, &mut NoopRecorder)
                    .expect("connected")
            });
        assert_eq!(seq, par, "all-pairs parallel result diverged at N = {n}");
        points.push(ScalePoint {
            kind: "all_pairs".into(),
            n,
            m: 1,
            sequential_ms,
            parallel_ms,
            speedup: sequential_ms / parallel_ms,
            checksum: checksum_matrix(&seq),
        });

        for &m in ms {
            let problem = scale_problem(&graph, m);
            let initial = vec![vec![1.0 / n as f64; n]; m];
            let mut seq_scratch = MultiFileScratch::new();
            let mut par_scratch = MultiFileScratch::new();
            // ε far below attainability: every run pays `iterations` steps.
            let epsilon = 1e-300;
            let (sequential_ms, seq) = time_ms(|| {
                problem
                    .solve_with_scratch(
                        &initial,
                        0.002,
                        epsilon,
                        iterations,
                        Parallelism::Sequential,
                        &mut seq_scratch,
                        &mut NoopRecorder,
                    )
                    .expect("stable solve")
            });
            let (parallel_ms, par) = time_ms(|| {
                problem
                    .solve_with_scratch(
                        &initial,
                        0.002,
                        epsilon,
                        iterations,
                        parallelism,
                        &mut par_scratch,
                        &mut NoopRecorder,
                    )
                    .expect("stable solve")
            });
            assert_eq!(seq, par, "multi-file parallel result diverged at N = {n}, M = {m}");
            points.push(ScalePoint {
                kind: "multi_file".into(),
                n,
                m,
                sequential_ms,
                parallel_ms,
                speedup: sequential_ms / parallel_ms,
                checksum: checksum_solution(&seq),
            });
        }
    }
    ScaleReport {
        host_threads: host_threads(),
        threads: parallelism.thread_count(),
        ns: ns.to_vec(),
        ms: ms.to_vec(),
        sparse_ns: sparse_ns.to_vec(),
        gap_bound: SPARSE_GAP_BOUND,
        iterations,
        points,
        sparse_points: bench_sparse_with(sparse_ns, levels_override),
    }
}

/// The result of checking a fresh [`ScaleReport`] against a committed one
/// (`fap bench-scale --check`).
///
/// *Hard failures* are determinism violations: the grid changed, or a
/// checksum is no longer bit-identical to the committed value. *Advisories*
/// are environment-dependent drifts (thread count, wall-clock timings) that
/// are reported but never fail the check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Determinism violations; any entry fails the check.
    pub hard_failures: Vec<String>,
    /// Timing/environment drift; informational only.
    pub advisories: Vec<String>,
}

impl CheckOutcome {
    /// Whether the check passed (no hard failures).
    pub fn is_pass(&self) -> bool {
        self.hard_failures.is_empty()
    }
}

/// Compares a `fresh` run against the `committed` report.
///
/// Grid shape (`ns`, `ms`, `sparse_ns`, `iterations`), point identity
/// (`kind`, `n`, `m`) and dense result checksums (compared bit-for-bit via
/// [`f64::to_bits`]) are hard gates, as is every fresh sparse gap staying
/// within the committed `gap_bound`. The sparse path is approximate by
/// contract, so its checksums only produce advisories when they drift.
/// Thread counts and wall-clock timings are likewise advisories: a fresh
/// timing more than `timing_tolerance` times the committed one is flagged,
/// since the committed numbers came from a different (possibly slower or
/// faster) machine.
pub fn check_against(
    committed: &ScaleReport,
    fresh: &ScaleReport,
    timing_tolerance: f64,
) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    if committed.ns != fresh.ns || committed.ms != fresh.ms {
        outcome.hard_failures.push(format!(
            "grid mismatch: committed N×M grid {:?}×{:?}, fresh {:?}×{:?}",
            committed.ns, committed.ms, fresh.ns, fresh.ms
        ));
    }
    if committed.sparse_ns != fresh.sparse_ns {
        outcome.hard_failures.push(format!(
            "sparse grid mismatch: committed {:?}, fresh {:?}",
            committed.sparse_ns, fresh.sparse_ns
        ));
    }
    if committed.gap_bound.to_bits() != fresh.gap_bound.to_bits() {
        outcome.hard_failures.push(format!(
            "gap bound mismatch: committed {}, fresh {}",
            committed.gap_bound, fresh.gap_bound
        ));
    }
    if committed.iterations != fresh.iterations {
        outcome.hard_failures.push(format!(
            "iteration count mismatch: committed {}, fresh {}",
            committed.iterations, fresh.iterations
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
    if committed.sparse_points.len() != fresh.sparse_points.len() {
        outcome.hard_failures.push(format!(
            "sparse point count mismatch: committed {}, fresh {}",
            committed.sparse_points.len(),
            fresh.sparse_points.len()
        ));
        return outcome;
    }
    if committed.threads != fresh.threads {
        outcome.advisories.push(format!(
            "thread count differs: committed {}, fresh {} (machine-dependent)",
            committed.threads, fresh.threads
        ));
    }
    if committed.host_threads != fresh.host_threads {
        outcome.advisories.push(format!(
            "host CPU count differs: committed {}, fresh {} (machine-dependent)",
            committed.host_threads, fresh.host_threads
        ));
    }
    for (old, new) in committed.sparse_points.iter().zip(&fresh.sparse_points) {
        let label = format!("sparse N={} K={}", old.n, old.landmarks);
        if old.n != new.n || old.landmarks != new.landmarks || old.levels != new.levels {
            outcome.hard_failures.push(format!(
                "sparse point identity mismatch: committed {label} levels={}, \
                 fresh N={} K={} levels={}",
                old.levels, new.n, new.landmarks, new.levels
            ));
            continue;
        }
        // The incremental-repair budget is a hard gate wherever the fresh
        // run measured it (virtual work is machine-independent).
        if new.rebuild_work > 0 && new.update_work * 10 > new.rebuild_work {
            outcome.hard_failures.push(format!(
                "incremental repair at {label} cost {} virtual work, \
                 over 10% of the {} full rebuild",
                new.update_work, new.rebuild_work
            ));
        }
        if old.rebuild_work > 0
            && (old.update_work != new.update_work || old.rebuild_work != new.rebuild_work)
        {
            outcome.hard_failures.push(format!(
                "incremental repair work diverged at {label}: committed {}/{}, fresh {}/{}",
                old.update_work, old.rebuild_work, new.update_work, new.rebuild_work
            ));
        }
        match (old.gap, new.gap) {
            (Some(_), Some(gap)) if gap > committed.gap_bound => {
                outcome.hard_failures.push(format!(
                    "sparse utility gap at {label} is {gap:.4}, over the committed {} bound",
                    committed.gap_bound
                ));
            }
            (Some(_), Some(_)) | (None, None) => {}
            (old_gap, new_gap) => {
                outcome.hard_failures.push(format!(
                    "gap coverage changed at {label}: committed {old_gap:?}, fresh {new_gap:?}"
                ));
            }
        }
        if old.checksum.to_bits() != new.checksum.to_bits() {
            outcome.advisories.push(format!(
                "sparse checksum drifted at {label}: committed {:?}, fresh {:?} \
                 (approximate path; the gap gate governs)",
                old.checksum, new.checksum
            ));
        }
        for (stage, was, now) in [
            ("build", old.build_ms, new.build_ms),
            ("solve", old.solve_ms, new.solve_ms),
            ("update", old.update_ms, new.update_ms),
        ] {
            if was > 0.0 && now > was * timing_tolerance {
                outcome.advisories.push(format!(
                    "{label}: {stage} timing {now:.2} ms exceeds {timing_tolerance}× committed {was:.2} ms"
                ));
            }
        }
    }
    for (old, new) in committed.points.iter().zip(&fresh.points) {
        let label = format!("{} N={} M={}", old.kind, old.n, old.m);
        if old.kind != new.kind || old.n != new.n || old.m != new.m {
            outcome.hard_failures.push(format!(
                "point identity mismatch: committed {label}, fresh {} N={} M={}",
                new.kind, new.n, new.m
            ));
            continue;
        }
        if old.checksum.to_bits() != new.checksum.to_bits() {
            outcome.hard_failures.push(format!(
                "checksum diverged at {label}: committed {:?} ({:#018x}), fresh {:?} ({:#018x})",
                old.checksum,
                old.checksum.to_bits(),
                new.checksum,
                new.checksum.to_bits()
            ));
        }
        for (stage, was, now) in [
            ("sequential", old.sequential_ms, new.sequential_ms),
            ("parallel", old.parallel_ms, new.parallel_ms),
        ] {
            if now > was * timing_tolerance {
                outcome.advisories.push(format!(
                    "{label}: {stage} timing {now:.2} ms exceeds {timing_tolerance}× committed {was:.2} ms"
                ));
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_graph_prefers_square_torus() {
        assert_eq!(scale_graph(64).node_count(), 64);
        assert_eq!(scale_graph(9).link_count(), 9 * 4); // 3×3 torus, out-degree 4
        assert_eq!(scale_graph(7).link_count(), 7 * 2); // prime → ring
    }

    #[test]
    fn bench_scale_produces_consistent_points() {
        let report = bench_scale(&[16], &[1, 2], &[], 3, Parallelism::Fixed(2));
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.threads, 2);
        for p in &report.points {
            assert!(p.sequential_ms >= 0.0 && p.parallel_ms >= 0.0);
            assert!(p.checksum.is_finite());
        }
    }

    #[test]
    fn sparse_grid_policies_scale_with_n() {
        // The memory cap leaves the committed grid untouched through
        // 131072, then shrinks K to hold the table under ¾ GiB.
        assert_eq!(sparse_landmarks(4096), 64);
        assert_eq!(sparse_landmarks(131072), 512);
        assert_eq!(sparse_landmarks(262144), 384);
        assert_eq!(sparse_landmarks(524288), 192);
        assert_eq!(sparse_landmarks(1048576), 96);
        // Depth stays flat while N/K fits one inner solve, then grows.
        assert_eq!(sparse_levels(4096), 1);
        assert_eq!(sparse_levels(131072), 1);
        assert_eq!(sparse_levels(262144), 2);
        assert_eq!(sparse_levels(1048576), 2);
    }

    #[test]
    fn sparse_points_measure_and_gate_the_incremental_repair() {
        let p = &bench_sparse_with(&[64], None)[0];
        assert_eq!((p.levels, p.landmarks), (1, 64));
        assert_eq!(p.rebuild_work, 64 * 64);
        assert!(p.update_work > 0, "the repair visits at least the dirty frontier");
        assert!(p.update_work * 10 <= p.rebuild_work);
        // A depth override is recorded on the point.
        assert_eq!(bench_sparse_with(&[64], Some(2))[0].levels, 2);
    }

    #[test]
    fn check_gates_the_incremental_repair_budget() {
        let committed =
            bench_scale_configured(&[], &[], &[64], 2, Parallelism::Fixed(2), None);
        let mut fresh = committed.clone();
        fresh.sparse_points[0].update_work = fresh.sparse_points[0].rebuild_work;
        let outcome = check_against(&committed, &fresh, f64::INFINITY);
        assert!(outcome
            .hard_failures
            .iter()
            .any(|f| f.contains("incremental repair")));
        // An unchanged rerun passes the work gates.
        let outcome = check_against(&committed, &committed.clone(), f64::INFINITY);
        assert!(outcome.is_pass(), "failures: {:?}", outcome.hard_failures);
    }

    #[test]
    fn check_passes_on_a_rerun_of_the_same_grid() {
        let committed = bench_scale(&[12], &[1], &[], 2, Parallelism::Fixed(2));
        let fresh = bench_scale(&[12], &[1], &[], 2, Parallelism::Fixed(3));
        // Timings differ run to run; with an infinite tolerance the only
        // gates left are the deterministic ones, which must all hold.
        let outcome = check_against(&committed, &fresh, f64::INFINITY);
        assert!(outcome.is_pass(), "failures: {:?}", outcome.hard_failures);
        // Thread count differs → advisory, never a failure.
        assert!(outcome.advisories.iter().any(|a| a.contains("thread count")));
    }

    #[test]
    fn check_flags_checksum_and_grid_divergence_as_hard() {
        let committed = bench_scale(&[12], &[1], &[], 2, Parallelism::Fixed(2));
        let mut fresh = committed.clone();
        fresh.points[0].checksum += 1.0;
        let outcome = check_against(&committed, &fresh, f64::INFINITY);
        assert!(!outcome.is_pass());
        assert!(outcome.hard_failures[0].contains("checksum diverged"));

        let mut regridded = committed.clone();
        regridded.ns = vec![13];
        let outcome = check_against(&committed, &regridded, f64::INFINITY);
        assert!(outcome.hard_failures.iter().any(|f| f.contains("grid mismatch")));
    }

    #[test]
    fn check_reports_slow_timings_as_advisory() {
        let committed = bench_scale(&[12], &[1], &[], 2, Parallelism::Fixed(2));
        let mut fresh = committed.clone();
        fresh.points[0].sequential_ms = committed.points[0].sequential_ms * 100.0 + 1.0;
        let outcome = check_against(&committed, &fresh, 1.5);
        assert!(outcome.is_pass(), "slow timing must not fail the check");
        assert!(outcome.advisories.iter().any(|a| a.contains("sequential timing")));
    }
}
