//! The `serve` benchmark: sequential-vs-sharded wall clock for the
//! `fap-serve` batcher over a grid of batch sizes and shard counts, plus
//! the warm-path columns — cost-matrix cache on/off build times and the
//! warm-start iteration savings on a perturbed workload.
//!
//! The sharded path is bit-identical to the sequential one
//! by construction (self-contained tasks, one deterministic kernel per
//! request), and [`bench_serve`] asserts that on every point before
//! reporting a timing. Likewise the cache section asserts cached matrices
//! are bit-identical to freshly computed ones, and the warm section runs
//! on virtual counts (iterations, not wall clock), so its numbers are
//! machine-independent and hard-gated by `--check`. Results serialize to
//! the `BENCH_serve.json` schema committed at the repo root; regenerate
//! with `fap bench-serve` (prefer `--release`).

use std::time::Instant;

use fap_batch::Parallelism;
use fap_cache::{CostBackend, SubstrateCache};
use fap_core::{MultiFileProblem, SingleFileProblem};
use fap_net::{topology, AccessPattern, Graph};
use fap_obs::NoopRecorder;
use fap_ring::VirtualRing;
use fap_serve::{BatchServer, ServeOutput, ServeRequest, ServeResponse};
use serde::{Deserialize, Serialize};

pub use crate::scale::CheckOutcome;

/// One measured grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServePoint {
    /// Batch size (number of requests).
    pub requests: usize,
    /// Shard count of the sharded run.
    pub shards: usize,
    /// Sequential (one-shard) wall clock, milliseconds: the median of
    /// five runs.
    pub sequential_ms: f64,
    /// Sharded wall clock, milliseconds: the median of five runs.
    pub sharded_ms: f64,
    /// `sequential_ms / sharded_ms`.
    pub speedup: f64,
    /// A content checksum over the responses, equal for both paths.
    pub checksum: f64,
}

/// Cost-matrix resolution with the cache off vs on, for one batch size.
/// The hit/miss counts are deterministic (hard-gated by `--check`); the
/// timings are machine-dependent advisories.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachePoint {
    /// Batch size (number of requests; ring requests need no matrix).
    pub requests: usize,
    /// Wall clock to build every request's cost matrix from scratch, ms.
    pub build_cold_ms: f64,
    /// Wall clock resolving the same matrices through a
    /// [`SubstrateCache`], ms.
    pub build_cached_ms: f64,
    /// `build_cold_ms / build_cached_ms`.
    pub speedup: f64,
    /// Cache hits over the batch.
    pub hits: u64,
    /// Cache misses (= distinct topologies) over the batch.
    pub misses: u64,
}

/// Warm-start savings on the perturbed workload, for one batch size. All
/// fields are virtual counts or checksums — deterministic on any machine,
/// hard-gated by `--check`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmPoint {
    /// Batch size (number of requests).
    pub requests: usize,
    /// Total optimizer iterations solving the batch cold.
    pub cold_iterations: u64,
    /// Total optimizer iterations with warm-start chaining on.
    pub warm_iterations: u64,
    /// Requests that ran seeded (`serve.warm_starts`).
    pub warm_starts: u64,
    /// Iterations saved versus the chain's cold baseline
    /// (`econ.warm_start_iters_saved`).
    pub iters_saved: u64,
    /// A content checksum over the warm responses.
    pub checksum: f64,
}

/// The full benchmark report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Logical CPUs of the recording host
    /// (`std::thread::available_parallelism()`).
    #[serde(default)]
    pub host_threads: usize,
    /// Worker threads `Parallelism::Auto` would use on the machine that
    /// produced the report (informational; the grid pins explicit counts).
    pub threads: usize,
    /// The batch-size grid.
    pub batch_sizes: Vec<usize>,
    /// The shard-count grid.
    pub shard_counts: Vec<usize>,
    /// All measured points.
    pub points: Vec<ServePoint>,
    /// Cache on/off matrix-build comparison, one per batch size.
    #[serde(default)]
    pub cache_points: Vec<CachePoint>,
    /// Warm-start savings on the perturbed workload, one per batch size.
    #[serde(default)]
    pub warm_points: Vec<WarmPoint>,
}

/// The benchmark workload: a deterministic mixed batch of `count` requests
/// cycling through the three request kinds (§4 single-file, §5.2
/// multi-file, §7 ring), each with an index-seeded random access pattern.
///
/// # Panics
///
/// Panics only on programming errors (the generated parameters are valid).
pub fn serve_workload(count: usize) -> Vec<ServeRequest> {
    (0..count)
        .map(|i| {
            let seed = 7_000 + i as u64;
            match i % 3 {
                0 => {
                    let graph = topology::ring(8, 1.0).expect("valid ring");
                    let pattern =
                        AccessPattern::random(8, 0.1..0.4, seed).expect("valid pattern");
                    let problem = SingleFileProblem::mm1(&graph, &pattern, 6.0, 1.0)
                        .expect("valid problem");
                    ServeRequest::SingleFile {
                        problem,
                        initial: vec![0.125; 8],
                        alpha: 0.05,
                        epsilon: 1e-7,
                        max_iterations: 100_000,
                        topology: None,
                    }
                }
                1 => {
                    let graph = topology::ring(6, 1.0).expect("valid ring");
                    let patterns: Vec<AccessPattern> = (0..4)
                        .map(|j| {
                            AccessPattern::random(6, 0.05..0.3, seed + 31 * j)
                                .expect("valid pattern")
                        })
                        .collect();
                    let problem = MultiFileProblem::mm1(&graph, &patterns, 8.0, 1.0)
                        .expect("valid problem");
                    ServeRequest::MultiFile {
                        problem,
                        initial: vec![vec![1.0 / 6.0; 6]; 4],
                        alpha: 0.05,
                        epsilon: 1e-7,
                        max_iterations: 50_000,
                        topology: None,
                    }
                }
                _ => {
                    let ring = VirtualRing::new(
                        vec![4.0, 1.0, 1.0, 1.0, 2.0],
                        vec![0.2; 5],
                        vec![1.5; 5],
                        2.0,
                        1.0,
                    )
                    .expect("valid ring");
                    ServeRequest::Ring {
                        ring,
                        initial: vec![2.0, 0.0, 0.0, 0.0, 0.0],
                        alpha: 0.1,
                        cost_delta_tolerance: 1e-7,
                        max_iterations: 5_000,
                    }
                }
            }
        })
        .collect()
}

/// The graphs backing [`serve_workload`]'s requests, in request order
/// (ring requests carry no graph). Both graph kinds repeat, so a
/// [`SubstrateCache`] sees one miss per kind and hits everywhere else.
pub fn workload_graphs(count: usize) -> Vec<Graph> {
    (0..count)
        .filter(|i| i % 3 != 2)
        .map(|i| {
            if i % 3 == 0 {
                topology::ring(8, 1.0).expect("valid ring")
            } else {
                topology::ring(6, 1.0).expect("valid ring")
            }
        })
        .collect()
}

/// The perturbed workload: `count` single-file requests over one topology
/// and solver configuration whose access patterns drift slightly request
/// to request — the stream warm-start chaining exists for.
///
/// # Panics
///
/// Panics only on programming errors (the generated parameters are valid).
pub fn perturbed_workload(count: usize) -> Vec<ServeRequest> {
    let graph = topology::ring(8, 1.0).expect("valid ring");
    (0..count)
        .map(|i| {
            let rates: Vec<f64> = (0..8)
                .map(|n| 0.1 + 0.04 * n as f64 + 0.0005 * i as f64 * (n + 1) as f64)
                .collect();
            let pattern = AccessPattern::new(rates).expect("valid pattern");
            let problem =
                SingleFileProblem::mm1(&graph, &pattern, 6.0, 1.0).expect("valid problem");
            ServeRequest::SingleFile {
                problem,
                initial: vec![0.125; 8],
                alpha: 0.05,
                epsilon: 1e-7,
                max_iterations: 100_000,
                topology: None,
            }
        })
        .collect()
}

/// Times resolving the workload's cost matrices with the cache off vs on
/// and asserts the cached bits match the fresh ones.
fn bench_cache(count: usize) -> CachePoint {
    let graphs = workload_graphs(count);
    let (build_cold_ms, cold) = time_ms(|| {
        graphs
            .iter()
            .map(|g| g.shortest_path_matrix().expect("valid graph"))
            .collect::<Vec<_>>()
    });
    let mut cache = SubstrateCache::new();
    let mut row = Vec::new();
    let (build_cached_ms, ()) = time_ms(|| {
        for (graph, fresh) in graphs.iter().zip(&cold) {
            let cached = cache
                .get_or_build(graph, CostBackend::Dense, &mut NoopRecorder)
                .expect("valid graph");
            row.resize(fresh.node_count(), 0.0);
            for u in graph.nodes() {
                cached.row_into(u, &mut row);
                assert!(
                    row.iter().zip(fresh.row(u)).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "a cached matrix must be bit-identical to a fresh computation"
                );
            }
        }
    });
    CachePoint {
        requests: count,
        build_cold_ms,
        build_cached_ms,
        speedup: build_cold_ms / build_cached_ms,
        hits: cache.hits(),
        misses: cache.misses(),
    }
}

/// Solves the perturbed workload cold and warm and reports the virtual
/// iteration counts. Asserts the warm run actually saves work and that
/// warm sharding stays bit-identical to warm sequential.
fn bench_warm(count: usize, shard_counts: &[usize]) -> WarmPoint {
    let requests = perturbed_workload(count);
    let cold = BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut NoopRecorder);
    assert_eq!(cold.err_count(), 0, "the perturbed workload must solve cleanly");
    let warm = BatchServer::new(Parallelism::Sequential)
        .with_warm_start(true)
        .serve(&requests, None, &mut NoopRecorder);
    for &shards in shard_counts {
        let sharded = BatchServer::new(Parallelism::Fixed(shards))
            .with_warm_start(true)
            .serve(&requests, None, &mut NoopRecorder);
        assert_eq!(
            warm.responses, sharded.responses,
            "warm sharded serving diverged at requests = {count}, shards = {shards}"
        );
    }
    let point = WarmPoint {
        requests: count,
        cold_iterations: cold.aggregate.counter("econ.iterations"),
        warm_iterations: warm.aggregate.counter("econ.iterations"),
        warm_starts: warm.aggregate.counter("serve.warm_starts"),
        iters_saved: warm.aggregate.counter("econ.warm_start_iters_saved"),
        checksum: checksum_output(&warm),
    };
    assert!(
        point.iters_saved > 0,
        "warm starts must save iterations on the perturbed workload"
    );
    assert!(point.warm_iterations < point.cold_iterations);
    point
}

fn checksum_output(output: &ServeOutput) -> f64 {
    output
        .responses
        .iter()
        .map(|r| match r {
            Ok(ServeResponse::SingleFile(s)) => {
                s.final_utility + s.allocation.iter().sum::<f64>() + s.iterations as f64
            }
            Ok(ServeResponse::MultiFile(s)) => {
                s.final_cost
                    + s.allocations.iter().flat_map(|row| row.iter()).sum::<f64>()
                    + s.iterations as f64
            }
            Ok(ServeResponse::Ring(s)) => {
                s.best_cost + s.final_allocation.iter().sum::<f64>() + s.iterations as f64
            }
            Err(_) => f64::NAN,
        })
        .sum()
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64() * 1e3, value)
}

/// Runs the sweep: for each batch size a sequential baseline, then one
/// sharded point per shard count, each timed as the median of five runs.
///
/// # Panics
///
/// Panics if any sharded response vector differs bitwise from its
/// sequential counterpart, or if the merged aggregate counters depend on
/// the shard count — the serving determinism contract.
pub fn bench_serve(batch_sizes: &[usize], shard_counts: &[usize]) -> ServeReport {
    let mut points = Vec::new();
    for &count in batch_sizes {
        let requests = serve_workload(count);
        let (sequential_ms, sequential) = crate::median_ms(|| {
            BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut NoopRecorder)
        });
        assert_eq!(sequential.err_count(), 0, "the benchmark workload must solve cleanly");
        let checksum = checksum_output(&sequential);
        for &shards in shard_counts {
            let (sharded_ms, sharded) = crate::median_ms(|| {
                BatchServer::new(Parallelism::Fixed(shards)).serve(&requests, None, &mut NoopRecorder)
            });
            assert_eq!(
                sequential.responses, sharded.responses,
                "sharded serving diverged at requests = {count}, shards = {shards}"
            );
            assert_eq!(
                sequential.aggregate.counter("serve.requests"),
                sharded.aggregate.counter("serve.requests"),
                "aggregate fan-in diverged at requests = {count}, shards = {shards}"
            );
            points.push(ServePoint {
                requests: count,
                shards,
                sequential_ms,
                sharded_ms,
                speedup: sequential_ms / sharded_ms,
                checksum,
            });
        }
    }
    let cache_points = batch_sizes.iter().map(|&count| bench_cache(count)).collect();
    let warm_points =
        batch_sizes.iter().map(|&count| bench_warm(count, shard_counts)).collect();
    ServeReport {
        host_threads: crate::scale::host_threads(),
        threads: Parallelism::Auto.thread_count(),
        batch_sizes: batch_sizes.to_vec(),
        shard_counts: shard_counts.to_vec(),
        points,
        cache_points,
        warm_points,
    }
}

/// Compares a `fresh` run against the `committed` report
/// (`fap bench-serve --check`).
///
/// Grid shape, point identity and response checksums (bit-for-bit via
/// [`f64::to_bits`]) are hard gates. Thread count and wall-clock timings
/// only produce advisories, since the committed numbers came from a
/// different (possibly slower, possibly single-core) machine.
pub fn check_against(
    committed: &ServeReport,
    fresh: &ServeReport,
    timing_tolerance: f64,
) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    if committed.batch_sizes != fresh.batch_sizes || committed.shard_counts != fresh.shard_counts
    {
        outcome.hard_failures.push(format!(
            "grid mismatch: committed {:?}×{:?}, fresh {:?}×{:?}",
            committed.batch_sizes, committed.shard_counts, fresh.batch_sizes, fresh.shard_counts
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
    for (old, new) in committed.points.iter().zip(&fresh.points) {
        let label = format!("requests={} shards={}", old.requests, old.shards);
        if old.requests != new.requests || old.shards != new.shards {
            outcome.hard_failures.push(format!(
                "point identity mismatch: committed {label}, fresh requests={} shards={}",
                new.requests, new.shards
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
            ("sharded", old.sharded_ms, new.sharded_ms),
        ] {
            if now > was * timing_tolerance {
                outcome.advisories.push(format!(
                    "{label}: {stage} timing {now:.2} ms exceeds {timing_tolerance}× committed {was:.2} ms"
                ));
            }
        }
    }
    // Cache section: hit/miss counts are deterministic, timings advisory.
    if committed.cache_points.len() != fresh.cache_points.len() {
        outcome.hard_failures.push(format!(
            "cache point count mismatch: committed {}, fresh {}",
            committed.cache_points.len(),
            fresh.cache_points.len()
        ));
    }
    for (old, new) in committed.cache_points.iter().zip(&fresh.cache_points) {
        let label = format!("cache requests={}", old.requests);
        if old.requests != new.requests || old.hits != new.hits || old.misses != new.misses {
            outcome.hard_failures.push(format!(
                "{label}: hit/miss diverged: committed {}/{} over {} requests, fresh {}/{} over {}",
                old.hits, old.misses, old.requests, new.hits, new.misses, new.requests
            ));
        }
        if new.build_cached_ms > old.build_cached_ms * timing_tolerance {
            outcome.advisories.push(format!(
                "{label}: cached build {:.3} ms exceeds {timing_tolerance}× committed {:.3} ms",
                new.build_cached_ms, old.build_cached_ms
            ));
        }
    }
    // Warm section: everything is a virtual count or checksum — all hard.
    if committed.warm_points.len() != fresh.warm_points.len() {
        outcome.hard_failures.push(format!(
            "warm point count mismatch: committed {}, fresh {}",
            committed.warm_points.len(),
            fresh.warm_points.len()
        ));
    }
    for (old, new) in committed.warm_points.iter().zip(&fresh.warm_points) {
        let label = format!("warm requests={}", old.requests);
        if old.requests != new.requests
            || old.cold_iterations != new.cold_iterations
            || old.warm_iterations != new.warm_iterations
            || old.warm_starts != new.warm_starts
            || old.iters_saved != new.iters_saved
        {
            outcome.hard_failures.push(format!(
                "{label}: iteration counts diverged: committed cold {} warm {} starts {} saved {}, \
                 fresh cold {} warm {} starts {} saved {}",
                old.cold_iterations,
                old.warm_iterations,
                old.warm_starts,
                old.iters_saved,
                new.cold_iterations,
                new.warm_iterations,
                new.warm_starts,
                new.iters_saved
            ));
        }
        if old.checksum.to_bits() != new.checksum.to_bits() {
            outcome.hard_failures.push(format!(
                "{label}: warm checksum diverged: committed {:?} ({:#018x}), fresh {:?} ({:#018x})",
                old.checksum,
                old.checksum.to_bits(),
                new.checksum,
                new.checksum.to_bits()
            ));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workload_cycles_through_all_three_kinds() {
        let requests = serve_workload(6);
        assert_eq!(requests.len(), 6);
        assert!(matches!(requests[0], ServeRequest::SingleFile { .. }));
        assert!(matches!(requests[1], ServeRequest::MultiFile { .. }));
        assert!(matches!(requests[2], ServeRequest::Ring { .. }));
        assert!(matches!(requests[3], ServeRequest::SingleFile { .. }));
    }

    #[test]
    fn bench_serve_produces_consistent_points() {
        let report = bench_serve(&[6], &[2, 3]);
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert!(p.sequential_ms >= 0.0 && p.sharded_ms >= 0.0);
            assert!(p.checksum.is_finite());
        }
        // Same batch, same workload: every shard count sees one checksum.
        assert_eq!(
            report.points[0].checksum.to_bits(),
            report.points[1].checksum.to_bits()
        );
        // And the warm-path sections cover the batch-size grid.
        assert_eq!(report.cache_points.len(), 1);
        assert_eq!(report.warm_points.len(), 1);
    }

    #[test]
    fn the_cache_section_counts_one_miss_per_distinct_topology() {
        let point = bench_cache(9);
        // 9 requests → 6 graph-backed (3 ring-8, 3 ring-6): 2 misses.
        assert_eq!(point.misses, 2);
        assert_eq!(point.hits, 4);
        assert!(point.build_cold_ms >= 0.0 && point.build_cached_ms >= 0.0);
    }

    #[test]
    fn the_warm_section_is_deterministic_and_saves_work() {
        let a = bench_warm(8, &[2, 4]);
        let b = bench_warm(8, &[2, 4]);
        assert_eq!(a, b, "warm-point counts are virtual and must reproduce exactly");
        assert!(a.iters_saved > 0);
        assert!(a.warm_iterations < a.cold_iterations);
        assert_eq!(a.warm_starts, 7, "all but the chain head run seeded");
    }

    #[test]
    fn check_hard_gates_the_warm_and_cache_sections() {
        let committed = bench_serve(&[6], &[2]);
        let mut fresh = committed.clone();
        fresh.warm_points[0].iters_saved += 1;
        let outcome = check_against(&committed, &fresh, f64::INFINITY);
        assert!(!outcome.is_pass());
        assert!(outcome.hard_failures.iter().any(|f| f.contains("iteration counts diverged")));

        let mut fresh = committed.clone();
        fresh.cache_points[0].hits += 1;
        let outcome = check_against(&committed, &fresh, f64::INFINITY);
        assert!(!outcome.is_pass());
        assert!(outcome.hard_failures.iter().any(|f| f.contains("hit/miss diverged")));
    }

    #[test]
    fn check_passes_on_a_rerun_of_the_same_grid() {
        let committed = bench_serve(&[5], &[2]);
        let fresh = bench_serve(&[5], &[2]);
        let outcome = check_against(&committed, &fresh, f64::INFINITY);
        assert!(outcome.is_pass(), "failures: {:?}", outcome.hard_failures);
    }

    #[test]
    fn check_flags_checksum_and_grid_divergence_as_hard() {
        let committed = bench_serve(&[5], &[2]);
        let mut fresh = committed.clone();
        fresh.points[0].checksum += 1.0;
        let outcome = check_against(&committed, &fresh, f64::INFINITY);
        assert!(!outcome.is_pass());
        assert!(outcome.hard_failures[0].contains("checksum diverged"));

        let mut regridded = committed.clone();
        regridded.shard_counts = vec![7];
        let outcome = check_against(&committed, &regridded, f64::INFINITY);
        assert!(outcome.hard_failures.iter().any(|f| f.contains("grid mismatch")));
    }

    #[test]
    fn check_reports_slow_timings_as_advisory() {
        let committed = bench_serve(&[5], &[2]);
        let mut fresh = committed.clone();
        fresh.points[0].sharded_ms = committed.points[0].sharded_ms * 100.0 + 1.0;
        let outcome = check_against(&committed, &fresh, 1.5);
        assert!(outcome.is_pass(), "slow timing must not fail the check");
        assert!(outcome.advisories.iter().any(|a| a.contains("sharded timing")));
    }
}
