//! Pinned gap regression for the hierarchical cluster-solve-refine
//! pipeline: on the scale bench's fixed 512-node mesh (16×32 torus,
//! seeded workload) the sparse allocation — evaluated on the *exact*
//! dense objective, not the oracle's estimate — must stay within the
//! committed bound of the water-filling optimum, and the whole pipeline
//! must be bit-deterministic so the bench can pin its checksums.

use fap::prelude::*;
use fap_bench::scale::{
    sparse_hierarchical_config, sparse_landmarks, sparse_workload, scale_graph, SPARSE_SEED,
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
fn gap_on_the_fixed_mesh_stays_within_the_committed_bound() {
    let (graph, pattern, mu, oracle) = pipeline();
    let mus = vec![mu; N];
    let sparse = solve_hierarchical(
        &oracle,
        &pattern,
        &mus,
        1.0,
        &sparse_hierarchical_config(&pattern),
        1,
        &mut NoopRecorder,
    )
    .unwrap();
    let total: f64 = sparse.allocation.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "allocation sums to {total}");

    let dense = SingleFileProblem::mm1(&graph, &pattern, mu, 1.0).unwrap();
    let exact = reference::solve(&dense).unwrap();
    let sparse_on_true = dense.cost_of(&sparse.allocation).unwrap();
    let gap = (sparse_on_true - exact.cost) / exact.cost;
    assert!(
        gap >= -1e-9,
        "the approximate pipeline cannot beat the exact optimum: gap {gap}"
    );
    // The regression pin: the bench gates every sparse point at 5%; this
    // fixed mesh has historically landed well under it, so a creep past
    // the bound is a real quality regression, not noise.
    assert!(
        gap <= fap_bench::scale::SPARSE_GAP_BOUND,
        "hierarchical gap {gap:.5} exceeds the committed bound on the pinned mesh"
    );
}

#[test]
fn the_pipeline_is_bit_deterministic_on_the_pinned_mesh() {
    let (_, pattern, mu, oracle) = pipeline();
    let mus = vec![mu; N];
    let config = sparse_hierarchical_config(&pattern);
    let a =
        solve_hierarchical(&oracle, &pattern, &mus, 1.0, &config, 1, &mut NoopRecorder).unwrap();
    let b =
        solve_hierarchical(&oracle, &pattern, &mus, 1.0, &config, 1, &mut NoopRecorder).unwrap();
    assert_eq!(a.refine_rounds, b.refine_rounds);
    assert_eq!(a.estimated_cost.to_bits(), b.estimated_cost.to_bits());
    for (x, y) in a.allocation.iter().zip(&b.allocation) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn refinement_does_not_worsen_the_true_objective_on_the_pinned_mesh() {
    // The refinement rounds optimize the estimated objective; this pins
    // that they also help (or at least do not hurt) on the true one —
    // the property that makes the refine stage worth its wall clock.
    let (graph, pattern, mu, oracle) = pipeline();
    let mus = vec![mu; N];
    let dense = SingleFileProblem::mm1(&graph, &pattern, mu, 1.0).unwrap();
    let cfg = sparse_hierarchical_config(&pattern);
    let base_cfg = HierarchicalConfig { max_refine_rounds: 0, ..cfg.clone() };
    let base =
        solve_hierarchical(&oracle, &pattern, &mus, 1.0, &base_cfg, 1, &mut NoopRecorder).unwrap();
    let refined =
        solve_hierarchical(&oracle, &pattern, &mus, 1.0, &cfg, 1, &mut NoopRecorder).unwrap();
    let base_true = dense.cost_of(&base.allocation).unwrap();
    let refined_true = dense.cost_of(&refined.allocation).unwrap();
    assert!(
        refined_true <= base_true * 1.001,
        "refinement worsened the true objective: {refined_true} vs {base_true}"
    );
}
