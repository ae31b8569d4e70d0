//! Zero-allocation steady state for the scratch-based multi-file solve.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! solve has sized every buffer in the [`MultiFileScratch`], the number of
//! allocations a solve performs must not depend on the iteration count — a
//! 600-iteration run and a 60-iteration run allocate exactly the same
//! (solution assembly allocates per *run*, the hot loop allocates nothing
//! per *iteration*).
//!
//! The library crates all `#![forbid(unsafe_code)]`; a `GlobalAlloc` needs
//! `unsafe`, which is why this lives in an integration test crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fap::batch::Parallelism;
use fap::core::{MultiFileProblem, MultiFileScratch, MultiFileSolution};
use fap::net::{topology, AccessPattern};

thread_local! {
    /// Allocations counted on this thread; `None` while it is not inside
    /// [`counted`]. Thread-local so the harness's other test threads never
    /// add to a measurement.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: the allocator can run during thread teardown.
    let _ = ALLOCATIONS.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local `Cell` with a const initializer, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns the allocations it made on the calling thread.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let value = f();
    let allocations = ALLOCATIONS.with(|count| count.take()).unwrap_or(0);
    (allocations, value)
}

#[test]
fn counter_sees_only_the_measuring_thread() {
    let (own, v) = counted(|| Vec::<u64>::with_capacity(8));
    assert_eq!(own, 1);
    drop(v);
    let spawn = |child: fn()| {
        counted(|| {
            std::thread::scope(|s| {
                s.spawn(child);
            });
        })
        .0
    };
    // Spawning allocates on this thread (the first spawn also fills
    // process-wide caches); the child's own allocations must not count.
    spawn(|| ());
    let spawn_only = spawn(|| ());
    let child_allocates = spawn(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(8))));
    assert_eq!(child_allocates, spawn_only);
}

fn solve_n(
    problem: &MultiFileProblem,
    initial: &[Vec<f64>],
    iterations: usize,
    scratch: &mut MultiFileScratch,
) -> MultiFileSolution {
    // ε far below attainability: the solve always pays `iterations` steps.
    problem
        .solve_with_scratch(initial, 0.002, 1e-300, iterations, Parallelism::Sequential, scratch)
        .expect("stable solve")
}

#[test]
fn warm_scratch_solve_allocates_nothing_per_iteration() {
    let graph = topology::torus(3, 4, 1.0).expect("valid torus");
    let n = graph.node_count();
    let patterns: Vec<AccessPattern> = (0..3)
        .map(|j| AccessPattern::random(n, 0.05..0.2, 9 + j as u64).expect("valid pattern"))
        .collect();
    let offered: f64 = patterns.iter().map(AccessPattern::total_rate).sum();
    let problem =
        MultiFileProblem::mm1(&graph, &patterns, 10.0 * offered / n as f64, 1.0).expect("valid");
    let initial = vec![vec![1.0 / n as f64; n]; 3];

    let mut scratch = MultiFileScratch::new();
    // Warm-up at the largest iteration count, so cost_series and every other
    // buffer reach their steady-state capacity.
    let warm = solve_n(&problem, &initial, 600, &mut scratch);
    assert!(!warm.converged);

    let (long_allocs, long) = counted(|| solve_n(&problem, &initial, 600, &mut scratch));
    let (short_allocs, short) = counted(|| solve_n(&problem, &initial, 60, &mut scratch));

    assert_eq!(long, warm, "warm rerun must be bit-identical");
    assert_eq!(short.iterations, 60);
    // 540 extra iterations must cost zero extra allocations: everything that
    // allocates (solution assembly: allocations matrix → nested rows, the
    // cost_series clone) is per-run, not per-iteration. The per-run counts
    // differ only by cost_series length, which Vec::clone allocates exactly
    // once regardless of length.
    assert_eq!(
        long_allocs, short_allocs,
        "per-iteration allocations detected: 600 iters cost {long_allocs} allocs, 60 iters cost {short_allocs}"
    );
}

#[test]
fn warm_started_solve_allocates_no_more_than_a_cold_one() {
    // Arming a warm-start seed copies the allocation into the scratch's
    // preallocated seed matrix; once that matrix is sized, `start_from` and
    // the seeded solve itself must be exactly as allocation-light as the
    // cold path — warm starts buy iterations, never allocations.
    let graph = topology::torus(3, 4, 1.0).expect("valid torus");
    let n = graph.node_count();
    let patterns: Vec<AccessPattern> = (0..3)
        .map(|j| AccessPattern::random(n, 0.05..0.2, 9 + j as u64).expect("valid pattern"))
        .collect();
    let offered: f64 = patterns.iter().map(AccessPattern::total_rate).sum();
    let problem =
        MultiFileProblem::mm1(&graph, &patterns, 10.0 * offered / n as f64, 1.0).expect("valid");
    let initial = vec![vec![1.0 / n as f64; n]; 3];

    let mut scratch = MultiFileScratch::new();
    let warm = solve_n(&problem, &initial, 600, &mut scratch);
    // Size the seed matrix once, outside the counted region.
    scratch.start_from(&warm.allocations);
    scratch.clear_warm_start();

    let (cold_allocs, cold) = counted(|| solve_n(&problem, &initial, 600, &mut scratch));
    let (arm_allocs, ()) = counted(|| scratch.start_from(&warm.allocations));
    let (seeded_allocs, seeded) = counted(|| solve_n(&problem, &initial, 600, &mut scratch));

    assert_eq!(cold, warm, "cold rerun must be bit-identical");
    assert!(!scratch.has_warm_start(), "the solve must consume the seed");
    assert_eq!(seeded.iterations, 600, "ε below attainability: the seeded solve pays every step");
    assert_eq!(arm_allocs, 0, "re-arming a sized seed matrix must not allocate");
    assert_eq!(
        seeded_allocs, cold_allocs,
        "the seeded solve allocated differently: cold {cold_allocs}, seeded {seeded_allocs}"
    );
}

#[test]
fn cache_hits_are_allocation_free() {
    // The warm path of `SubstrateCache::get_or_build` — fingerprint the
    // graph, probe the map, return the stored substrate — must never touch
    // the allocator: serving keys every request's topology through this
    // lookup.
    use fap::cache::{CostBackend, SubstrateCache};
    use fap::net::{CostProvider, NodeId};
    use fap::obs::NoopRecorder;

    let graph = topology::torus(3, 4, 1.0).expect("valid torus");
    let n = graph.node_count();
    let mut cache = SubstrateCache::new();
    let fresh = graph.shortest_path_matrix().expect("connected");
    let same_bits = |cached: &dyn CostProvider| {
        (0..n).all(|u| {
            (0..n).all(|v| {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                cached.cost(u, v).to_bits() == fresh.cost(u, v).to_bits()
            })
        })
    };
    cache.get_or_build(&graph, CostBackend::Dense, &mut NoopRecorder).expect("connected");

    let (hit_allocs, ()) = counted(|| {
        for _ in 0..100 {
            let cached =
                cache.get_or_build(&graph, CostBackend::Dense, &mut NoopRecorder).expect("cached");
            assert!(same_bits(cached));
        }
    });
    assert_eq!(cache.hits(), 100);
    assert_eq!(hit_allocs, 0, "cache hits allocated {hit_allocs} times over 100 lookups");
    assert!(
        same_bits(
            cache.get_or_build(&graph, CostBackend::Dense, &mut NoopRecorder).expect("cached")
        ),
        "hits must return the bits a fresh computation produces"
    );
}

#[test]
fn disabled_tracing_span_path_allocates_nothing() {
    // The tracing plane's zero-cost contract: with tracing off —
    // `NoopRecorder`, or a `Telemetry` without `.with_tracing(true)` —
    // the whole span surface (guards, synthesized spans, markers) must
    // never touch the allocator. This is what lets the solvers keep
    // their spans compiled in unconditionally.
    use fap::obs::{emit_marker_span, NoopRecorder, SpanGuard, Telemetry};

    let mut noop = NoopRecorder;
    let mut silent = Telemetry::manual(); // tracing off by default
    let (allocs, ()) = counted(|| {
        for recorder in [&mut noop as &mut dyn fap::obs::Recorder, &mut silent] {
            for _ in 0..10_000 {
                let outer = SpanGuard::begin("serve.task", &mut *recorder);
                let inner = SpanGuard::begin("econ.solve", &mut *recorder);
                assert!(emit_marker_span(&mut *recorder, "cache.hit").is_none());
                inner.end(&mut *recorder);
                outer.end(&mut *recorder);
            }
        }
    });
    assert_eq!(allocs, 0, "disabled span path allocated {allocs} times");
    assert!(silent.events().is_empty(), "disabled tracing must emit nothing");
}

#[test]
fn recording_solve_only_grows_preallocated_buffers() {
    // The observed solve with a live recording sink must also be
    // allocation-free per iteration: every event lands in the telemetry's
    // preallocated event buffer, and registry counters/gauges/histograms
    // allocate only at first registration (a per-run constant). As above,
    // a 600-iteration run and a 60-iteration run must allocate exactly the
    // same.
    use fap::obs::Telemetry;

    let graph = topology::torus(3, 4, 1.0).expect("valid torus");
    let n = graph.node_count();
    let patterns: Vec<AccessPattern> = (0..3)
        .map(|j| AccessPattern::random(n, 0.05..0.2, 9 + j as u64).expect("valid pattern"))
        .collect();
    let offered: f64 = patterns.iter().map(AccessPattern::total_rate).sum();
    let problem =
        MultiFileProblem::mm1(&graph, &patterns, 10.0 * offered / n as f64, 1.0).expect("valid");
    let initial = vec![vec![1.0 / n as f64; n]; 3];

    // 600 iterations → 601 `core.iter` events + 1 `core.run_end`.
    const CAPACITY: usize = 1024;
    let mut scratch = MultiFileScratch::new();
    let observe_n = |iterations: usize, scratch: &mut MultiFileScratch| {
        let mut telemetry = Telemetry::manual().with_event_capacity(CAPACITY);
        let solution = problem
            .solve_observed(
                &initial,
                0.002,
                1e-300,
                iterations,
                Parallelism::Sequential,
                scratch,
                &mut telemetry,
            )
            .expect("stable solve");
        (solution, telemetry)
    };
    let (warm, _) = observe_n(600, &mut scratch);

    let (long_allocs, (long, long_tele)) = counted(|| observe_n(600, &mut scratch));
    let (short_allocs, (short, _)) = counted(|| observe_n(60, &mut scratch));

    assert_eq!(long, warm, "warm recorded rerun must be bit-identical");
    assert_eq!(long, solve_n(&problem, &initial, 600, &mut scratch), "recording must not perturb");
    assert_eq!(short.iterations, 60);
    assert_eq!(long_tele.events().len(), 602, "one iter event per pass plus run_end");
    assert!(long_tele.spare_event_capacity() > 0, "event buffer must not have grown");
    assert_eq!(long_tele.registry().counter("core.iterations"), 601);
    assert_eq!(
        long_allocs, short_allocs,
        "recording added per-iteration allocations: 600 iters cost {long_allocs} allocs, 60 iters cost {short_allocs}"
    );
}
