//! Bit-identical equivalence of the parallel all-pairs kernel with its
//! sequential reference, and of reused multi-file scratch with fresh
//! solves.
//!
//! For *every* thread count the parallel all-pairs shortest-path matrix is
//! equal to the sequential one down to the last f64 bit, because workers
//! own disjoint contiguous row chunks. These tests pin that contract on
//! ring, mesh, torus and random topologies, with node counts chosen to
//! exercise uneven chunking (N not divisible by the thread count) and the
//! 1-thread degenerate case. The multi-file solve runs on one thread; what
//! it carries between solves in a reused scratch must not change a bit.

use fap::batch::Parallelism;
use fap::core::{MultiFileProblem, MultiFileScratch};
use fap::net::{topology, AccessPattern, CostMatrix, Graph, NetError};
use fap::obs::NoopRecorder;

const THREADS: [usize; 5] = [1, 2, 3, 5, 8];

fn topologies() -> Vec<(&'static str, Graph)> {
    vec![
        // 97 is prime: never divisible by any multi-thread count.
        ("ring_97", topology::ring(97, 1.0).unwrap()),
        ("mesh_16", topology::full_mesh(16, 2.0).unwrap()),
        ("torus_5x7", topology::torus(5, 7, 1.5).unwrap()),
        ("random_23", topology::random_connected(23, 0.3, 0.5..3.0, 42).unwrap()),
    ]
}

/// The dense all-pairs matrix at an explicit fan-out setting.
fn matrix_at(graph: &Graph, parallelism: Parallelism) -> Result<CostMatrix, NetError> {
    graph.shortest_path_matrix_observed(parallelism, &mut NoopRecorder)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn all_pairs_parallel_is_bit_identical() {
    for (label, graph) in topologies() {
        let sequential = graph.shortest_path_matrix().unwrap();
        for threads in THREADS {
            let parallel = matrix_at(&graph, Parallelism::Fixed(threads)).unwrap();
            assert_eq!(
                bits(sequential.as_matrix().as_slice()),
                bits(parallel.as_matrix().as_slice()),
                "{label} with {threads} threads"
            );
        }
        let auto = matrix_at(&graph, Parallelism::Auto).unwrap();
        assert_eq!(
            bits(sequential.as_matrix().as_slice()),
            bits(auto.as_matrix().as_slice()),
            "{label} with auto parallelism"
        );
    }
}

fn problem_on(graph: &Graph, files: usize, seed: u64) -> MultiFileProblem {
    let n = graph.node_count();
    let patterns: Vec<AccessPattern> = (0..files)
        .map(|j| AccessPattern::random(n, 0.05..0.3, seed + j as u64).unwrap())
        .collect();
    let offered: f64 = patterns.iter().map(AccessPattern::total_rate).sum();
    MultiFileProblem::mm1(graph, &patterns, 4.0 * offered / n as f64, 1.0).unwrap()
}

fn tilted_initial(files: usize, n: usize) -> Vec<Vec<f64>> {
    // Near-uniform (so no node overloads) but deliberately asymmetric, with a
    // different tilt per file; each row sums to exactly 1.
    (0..files)
        .map(|j| {
            let weights: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * ((i + j) % 5) as f64).collect();
            let total: f64 = weights.iter().sum();
            weights.iter().map(|w| w / total).collect()
        })
        .collect()
}

#[test]
fn carried_clamp_sets_are_bit_identical_across_reused_solves() {
    // Hotspot files with a light delay weight: each file settles on a few
    // nodes near its hotspot and pins the rest, so the clamp step carries
    // each file's pinned set from iteration to iteration. One scratch is
    // reused for repeated solves, once right after a problem of another
    // shape, so every file also starts from the set an earlier solve left
    // behind in its workspace.
    let graph = topology::ring(31, 1.0).unwrap();
    let n = graph.node_count();
    let files = 7;
    let patterns: Vec<AccessPattern> = (0..files)
        .map(|j| AccessPattern::hotspot(n, 0.3, fap::net::NodeId::new(4 * j), 0.8).unwrap())
        .collect();
    let problem = MultiFileProblem::mm1(&graph, &patterns, 1.0, 0.05).unwrap();
    let initial = tilted_initial(files, n);
    let fresh = problem.solve(&initial, 0.02, 1e-9, 600, &mut NoopRecorder).unwrap();
    let pinned = fresh.allocations.iter().flatten().filter(|v| **v == 0.0).count();
    assert!(pinned > files * n / 2, "only {pinned} pinned entries");
    let other_graph = topology::ring(17, 1.0).unwrap();
    let other = problem_on(&other_graph, 9, 11);
    let other_initial = tilted_initial(9, 17);
    let mut scratch = MultiFileScratch::new();
    for round in 0..4 {
        if round == 2 {
            other
                .solve_with_scratch(
                    &other_initial,
                    0.02,
                    1e-9,
                    600,
                    &mut scratch,
                    &mut NoopRecorder,
                )
                .unwrap();
        }
        let reused = problem
            .solve_with_scratch(&initial, 0.02, 1e-9, 600, &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert_eq!(bits(&fresh.cost_series), bits(&reused.cost_series), "round {round}");
        for (fj, rj) in fresh.allocations.iter().zip(&reused.allocations) {
            assert_eq!(bits(fj), bits(rj), "round {round}");
        }
    }
}

#[test]
fn scratch_reuse_across_shapes_is_bit_identical() {
    // One scratch reused across problems of different shapes must not leak
    // state between solves.
    let graph = topology::ring(11, 1.0).unwrap();
    let small = problem_on(&graph, 2, 5);
    let large = problem_on(&graph, 9, 6);
    let small_init = tilted_initial(2, 11);
    let large_init = tilted_initial(9, 11);

    let fresh_small = small.solve(&small_init, 0.02, 1e-6, 300, &mut NoopRecorder).unwrap();
    let fresh_large = large.solve(&large_init, 0.02, 1e-6, 300, &mut NoopRecorder).unwrap();

    let mut scratch = MultiFileScratch::new();
    for _ in 0..2 {
        let s = small
            .solve_with_scratch(&small_init, 0.02, 1e-6, 300, &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert_eq!(fresh_small, s);
        let l = large
            .solve_with_scratch(&large_init, 0.02, 1e-6, 300, &mut scratch, &mut NoopRecorder)
            .unwrap();
        assert_eq!(fresh_large, l);
    }
}

#[test]
fn parallel_error_reporting_matches_sequential() {
    // Disconnected graph: the first unreachable (source, target) pair in
    // source-index order must be reported for every thread count.
    let mut graph = Graph::new(12);
    for i in 0..5usize {
        graph
            .add_link(fap::net::NodeId::new(i), fap::net::NodeId::new((i + 1) % 6), 1.0)
            .unwrap();
    }
    for i in 6..11usize {
        graph.add_link(fap::net::NodeId::new(i), fap::net::NodeId::new(i + 1), 1.0).unwrap();
    }
    let sequential = graph.shortest_path_matrix().unwrap_err();
    for threads in THREADS {
        let parallel = matrix_at(&graph, Parallelism::Fixed(threads)).unwrap_err();
        assert_eq!(
            format!("{sequential:?}"),
            format!("{parallel:?}"),
            "{threads} threads"
        );
    }
}
