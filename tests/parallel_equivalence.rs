//! Bit-identical equivalence of the parallel batch paths with their
//! sequential references.
//!
//! The contract this PR's engine makes is strong: for *every* thread count,
//! the parallel all-pairs shortest-path matrix and the parallel multi-file
//! solve produce results that are equal down to the last f64 bit, because
//! workers own disjoint contiguous row chunks and every floating-point
//! reduction runs sequentially in index order after the workers join. These
//! tests pin that contract on ring, mesh, torus and random topologies, with
//! node counts chosen to exercise uneven chunking (N not divisible by the
//! thread count) and the 1-thread degenerate case.

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
fn multi_file_parallel_solve_is_bit_identical() {
    for (label, graph) in topologies() {
        let n = graph.node_count();
        // File counts around the thread counts: 1 (degenerate), 7 (prime,
        // uneven chunks), 8 (even chunks for 2/8 threads).
        for files in [1usize, 7, 8] {
            let problem = problem_on(&graph, files, 77);
            let initial = tilted_initial(files, n);
            let sequential = problem
                .solve(&initial, 0.01, 1e-6, 400, Parallelism::Sequential, &mut NoopRecorder)
                .unwrap();
            for threads in THREADS {
                let parallel = problem
                    .solve(
                        &initial,
                        0.01,
                        1e-6,
                        400,
                        Parallelism::Fixed(threads),
                        &mut NoopRecorder,
                    )
                    .unwrap();
                assert_eq!(sequential.iterations, parallel.iterations, "{label} M={files}");
                assert_eq!(sequential.converged, parallel.converged, "{label} M={files}");
                assert_eq!(
                    bits(&sequential.cost_series),
                    bits(&parallel.cost_series),
                    "{label} M={files} with {threads} threads"
                );
                for (sj, pj) in sequential.allocations.iter().zip(&parallel.allocations) {
                    assert_eq!(bits(sj), bits(pj), "{label} M={files} with {threads} threads");
                }
                assert_eq!(
                    sequential.final_cost.to_bits(),
                    parallel.final_cost.to_bits(),
                    "{label} M={files} with {threads} threads"
                );
            }
        }
    }
}

#[test]
fn carried_clamp_sets_are_bit_identical_at_every_thread_count() {
    // Hotspot files with a light delay weight: each file settles on a few
    // nodes near its hotspot and pins the rest, so the clamp step carries
    // each file's pinned set from iteration to iteration. One scratch is
    // reused across thread counts, so every file also starts from the set
    // a solve at another thread count left behind.
    let graph = topology::ring(31, 1.0).unwrap();
    let n = graph.node_count();
    let files = 7;
    let patterns: Vec<AccessPattern> = (0..files)
        .map(|j| AccessPattern::hotspot(n, 0.3, fap::net::NodeId::new(4 * j), 0.8).unwrap())
        .collect();
    let problem = MultiFileProblem::mm1(&graph, &patterns, 1.0, 0.05).unwrap();
    let initial = tilted_initial(files, n);
    let sequential = problem
        .solve(&initial, 0.02, 1e-9, 600, Parallelism::Sequential, &mut NoopRecorder)
        .unwrap();
    let pinned = sequential.allocations.iter().flatten().filter(|v| **v == 0.0).count();
    assert!(pinned > files * n / 2, "only {pinned} pinned entries");
    let mut scratch = MultiFileScratch::new();
    for threads in THREADS.iter().chain(THREADS.iter().rev()) {
        let parallel = problem
            .solve_with_scratch(
                &initial,
                0.02,
                1e-9,
                600,
                Parallelism::Fixed(*threads),
                &mut scratch,
                &mut NoopRecorder,
            )
            .unwrap();
        assert_eq!(bits(&sequential.cost_series), bits(&parallel.cost_series), "{threads} threads");
        for (sj, pj) in sequential.allocations.iter().zip(&parallel.allocations) {
            assert_eq!(bits(sj), bits(pj), "{threads} threads");
        }
    }
}

#[test]
fn recording_telemetry_keeps_parallel_solves_bit_identical() {
    // Recording wall-clock chunk timings and per-iteration events must not
    // perturb a single bit of the computation, at any thread count.
    let graph = topology::torus(5, 7, 1.5).unwrap();
    let problem = problem_on(&graph, 7, 77);
    let initial = tilted_initial(7, graph.node_count());
    let sequential = problem
        .solve(&initial, 0.01, 1e-6, 400, Parallelism::Sequential, &mut NoopRecorder)
        .unwrap();
    for threads in THREADS {
        let mut telemetry = fap::obs::Telemetry::manual();
        let mut scratch = MultiFileScratch::new();
        let observed = problem
            .solve_with_scratch(
                &initial,
                0.01,
                1e-6,
                400,
                Parallelism::Fixed(threads),
                &mut scratch,
                &mut telemetry,
            )
            .unwrap();
        for (sj, oj) in sequential.allocations.iter().zip(&observed.allocations) {
            assert_eq!(bits(sj), bits(oj), "recorded solve diverged with {threads} threads");
        }
        assert_eq!(bits(&sequential.cost_series), bits(&observed.cost_series));
        assert_eq!(sequential.final_cost.to_bits(), observed.final_cost.to_bits());
        assert_eq!(
            telemetry.registry().counter("core.iterations"),
            (observed.iterations + 1) as u64
        );
        // Only fanned-out passes are timed, one observation per chunk.
        let file_ns = telemetry.registry().histogram("core.file_chunk_ns");
        if threads == 1 {
            assert!(file_ns.is_none(), "a sequential pass is not timed");
        } else {
            let file_threads = telemetry.registry().gauge_value("core.file_threads").unwrap();
            let chunks = 7u64.div_ceil(7u64.div_ceil(file_threads as u64));
            assert!(chunks > 1);
            assert_eq!(file_ns.unwrap().count(), chunks * (observed.iterations + 1) as u64);
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

    let fresh_small = small
        .solve(&small_init, 0.02, 1e-6, 300, Parallelism::Sequential, &mut NoopRecorder)
        .unwrap();
    let fresh_large = large
        .solve(&large_init, 0.02, 1e-6, 300, Parallelism::Sequential, &mut NoopRecorder)
        .unwrap();

    let mut scratch = MultiFileScratch::new();
    for _ in 0..2 {
        let s = small
            .solve_with_scratch(
                &small_init,
                0.02,
                1e-6,
                300,
                Parallelism::Fixed(3),
                &mut scratch,
                &mut NoopRecorder,
            )
            .unwrap();
        assert_eq!(fresh_small, s);
        let l = large
            .solve_with_scratch(
                &large_init,
                0.02,
                1e-6,
                300,
                Parallelism::Fixed(2),
                &mut scratch,
                &mut NoopRecorder,
            )
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
