//! Multi-level cluster hierarchy contracts on the scale bench's pinned
//! 512-node mesh (16×32 torus, seeded workload): the sweep's own depth
//! policy picks the flat path there, deeper trees stay feasible,
//! deterministic and competitive with it, and a zero depth is refused.

use fap::prelude::*;
use fap_bench::scale::{
    scale_graph, sparse_hierarchical_config, sparse_landmarks, sparse_levels, sparse_workload,
    SPARSE_SEED,
};
use fap_core::hierarchical::solve_hierarchical;

const N: usize = 512;

fn pipeline() -> (Graph, AccessPattern, f64, LandmarkOracle) {
    let graph = scale_graph(N);
    let (pattern, mu) = sparse_workload(N);
    let oracle = LandmarkOracle::build(&graph, sparse_landmarks(N), SPARSE_SEED).unwrap();
    (graph, pattern, mu, oracle)
}

#[test]
fn the_sweep_depth_policy_picks_the_flat_path_on_the_pinned_mesh() {
    let (_, pattern, mu, oracle) = pipeline();
    let mus = vec![mu; N];
    let config = sparse_hierarchical_config(&pattern);
    let flat =
        solve_hierarchical(&oracle, &pattern, &mus, 1.0, &config, 1, &mut NoopRecorder).unwrap();
    assert_eq!(flat.levels, 1);
    // The sweep's depth policy picks the flat path at this size, so the
    // committed BENCH_scale checksums are the flat solver's bits.
    assert_eq!(sparse_levels(N), 1);
}

#[test]
fn deeper_trees_stay_feasible_deterministic_and_competitive() {
    let (graph, pattern, mu, oracle) = pipeline();
    let mus = vec![mu; N];
    let config = sparse_hierarchical_config(&pattern);
    let flat =
        solve_hierarchical(&oracle, &pattern, &mus, 1.0, &config, 1, &mut NoopRecorder).unwrap();
    for levels in [2usize, 3] {
        let deep =
            solve_hierarchical(&oracle, &pattern, &mus, 1.0, &config, levels, &mut NoopRecorder)
                .unwrap();
        assert_eq!(deep.levels, levels);
        let total: f64 = deep.allocation.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "levels {levels}: sums to {total}");
        assert!(deep.allocation.iter().all(|&x| x >= 0.0));
        // Deterministic: a rerun reproduces the same bits.
        let again =
            solve_hierarchical(&oracle, &pattern, &mus, 1.0, &config, levels, &mut NoopRecorder)
                .unwrap();
        assert_eq!(deep.estimated_cost.to_bits(), again.estimated_cost.to_bits());
        for (a, b) in deep.allocation.iter().zip(&again.allocation) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Quality: the tree approximation stays competitive with the flat
        // solve on the true dense objective.
        let dense = SingleFileProblem::mm1(&graph, &pattern, mu, 1.0).unwrap();
        let (flat_true, deep_true) = (
            dense.cost_of(&flat.allocation).unwrap(),
            dense.cost_of(&deep.allocation).unwrap(),
        );
        assert!(
            deep_true <= flat_true * 1.25 + 1e-9,
            "levels {levels}: true cost {deep_true} vs flat {flat_true}"
        );
    }
}

#[test]
fn zero_depth_is_rejected() {
    let (_, pattern, mu, oracle) = pipeline();
    let mus = vec![mu; N];
    let config = sparse_hierarchical_config(&pattern);
    let err = solve_hierarchical(&oracle, &pattern, &mus, 1.0, &config, 0, &mut NoopRecorder)
        .unwrap_err();
    assert!(err.to_string().contains("at least 1 level"), "{err}");
}
