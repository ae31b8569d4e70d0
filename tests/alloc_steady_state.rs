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
use fap::obs::NoopRecorder;

thread_local! {
    /// Allocations counted on this thread; `None` while it is not inside
    /// [`counted`]. Thread-local so the harness's other test threads never
    /// add to a measurement.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
    /// Bytes requested on this thread; `None` while it is not inside
    /// [`counted_bytes`].
    static BYTES: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation(bytes: usize) {
    // `try_with`: the allocator can run during thread teardown.
    for (counter, add) in [(&ALLOCATIONS, 1), (&BYTES, bytes as u64)] {
        let _ = counter.try_with(|count| {
            if let Some(n) = count.get() {
                count.set(Some(n + add));
            }
        });
    }
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local `Cell` with a const initializer, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
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

/// Runs `f` and returns the bytes it requested on the calling thread.
fn counted_bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    BYTES.with(|count| count.set(Some(0)));
    let value = f();
    let bytes = BYTES.with(|count| count.take()).unwrap_or(0);
    (bytes, value)
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
        .solve_with_scratch(initial, 0.002, 1e-300, iterations, scratch, &mut NoopRecorder)
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
fn ring_solve_allocates_only_its_series_growth() {
    // The §7.3 solver with a fixed step on a communication-dominated ring
    // (Figure 8), which oscillates and never meets the cost-delta halt, so
    // every run pays its iteration cap. Per iteration the solver probes the
    // cost 2n + 1 times; none of that may allocate. Only the cost and
    // step-size series grow, each by doubling its capacity.
    use fap::ring::{RingSolver, VirtualRing};

    let ring = VirtualRing::new(vec![4.0, 1.0, 1.0, 1.0], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0)
        .expect("valid ring");
    let start = [2.0, 0.0, 0.0, 0.0];
    let solve = |iterations: usize| {
        RingSolver::new(0.1)
            .without_adaptation()
            .with_cost_delta_tolerance(1e-300)
            .with_max_iterations(iterations)
            .solve(&ring, &start, &mut NoopRecorder)
            .expect("stable solve")
    };
    let (short_allocs, short) = counted(|| solve(50));
    let (long_allocs, long) = counted(|| solve(800));
    assert_eq!((short.iterations, long.iterations), (50, 800));
    // 51 and 801 entries per series: at most 10 − 5 more doublings each.
    let doublings = 2 * (801f64.log2().ceil() - 51f64.log2().floor()) as u64;
    assert!(
        long_allocs <= short_allocs + doublings,
        "800 iterations cost {long_allocs} allocations, 50 cost {short_allocs}"
    );
}

#[test]
fn chaos_exchange_allocates_nothing_per_wake_or_message() {
    // A fault-free §5.1 broadcast round sends N(N−1) reports and wakes N
    // agents. Once the run's buffers are sized, a round allocates only its
    // entry in the report's iterate history (plus the amortized growth of
    // the per-round logs), so equal rounds at N = 16 and N = 64 must cost
    // the same allocations up to a few more buffer doublings — nowhere
    // near the 48 extra wakes and 3 792 extra messages per round.
    use fap::runtime::{ChaosPlan, ExchangeScheme, SimRun};

    const ROUNDS: usize = 40;
    let allocations = |n: usize| {
        let problem = fap_bench::paper::full_mesh_problem(n);
        let start = fap_bench::paper::spread_start(n);
        let sim = SimRun::new(&problem, ExchangeScheme::Broadcast, 0.01)
            .with_epsilon(1e-300)
            .with_max_rounds(ROUNDS)
            .with_chaos(ChaosPlan::new(7));
        let (allocs, report) = counted(|| sim.run(&start, &mut NoopRecorder).expect("valid run"));
        assert!(!report.converged, "ε below attainability: every run pays {ROUNDS} rounds");
        assert_eq!(report.rounds, ROUNDS);
        assert_eq!(report.faults.sent, (n * (n - 1) * (ROUNDS + 1)) as u64);
        allocs
    };
    let (small, large) = (allocations(16), allocations(64));
    assert!(
        large <= small + 16,
        "allocations grow with N: {small} at N = 16, {large} at N = 64 over {ROUNDS} rounds"
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
fn streaming_sink_records_without_allocating() {
    // Every `fap` command records through a `JsonlSink`, so a long
    // `fap served` session keeps flat memory only if a steady event
    // stream stops touching the allocator once the sink's line buffer has
    // grown: events are rendered into that one reused buffer and handed
    // straight to the writer, and metric updates hit names already
    // registered.
    use fap::obs::{JsonlSink, Recorder, Value};

    let mut sink = JsonlSink::new(std::io::sink());
    let record = |sink: &mut JsonlSink<std::io::Sink>, i: u64| {
        sink.set_time(100_000 + i);
        sink.incr("demo.steps", 1);
        sink.gauge("demo.spread", 1.0 / (i + 1) as f64);
        sink.observe("demo.latency_rounds", (i % 5) as f64);
        sink.emit(
            "round",
            &[
                ("round", Value::U64(i)),
                ("utility", Value::F64(i as f64 / 8.0)),
                ("fresh", Value::Bool(i % 2 == 0)),
                ("scheme", Value::Str("broadcast")),
            ],
        );
    };
    // The first event registers the metrics and, being as long as any
    // later line, sizes the line buffer.
    record(&mut sink, 99_999);
    let (allocs, ()) = counted(|| {
        for i in 0..10_000 {
            record(&mut sink, i);
        }
    });
    assert_eq!(allocs, 0, "10 000 streamed events allocated {allocs} times");
    assert_eq!(sink.events_recorded(), 10_001);
    assert_eq!(sink.registry().counter("demo.steps"), 10_001);
    sink.finish().expect("io::sink never fails");
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
            .solve_with_scratch(&initial, 0.002, 1e-300, iterations, scratch, &mut telemetry)
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

#[test]
fn rendering_a_response_allocates_nothing_per_iteration_record() {
    // `serde_json::to_string` streams a response's events straight into
    // the output text: the only allocations are that `String`'s own
    // doublings, so a 600-record convergence profile costs at most a few
    // more allocations than a 60-record one — never one per record.
    use fap::core::SingleFileProblem;
    use fap::obs::NoopRecorder;
    use fap::serve::{BatchServer, ServeRequest, WarmMode};

    let graph = topology::ring(6, 1.0).expect("valid ring");
    let pattern = AccessPattern::random(6, 0.1..0.5, 3).expect("valid pattern");
    let problem = SingleFileProblem::mm1(&graph, &pattern, 5.0, 1.0).expect("valid");
    let respond = |max_iterations: usize| {
        let request = ServeRequest::SingleFile {
            problem: problem.clone(),
            initial: vec![1.0 / 6.0; 6],
            alpha: 0.08,
            // ε far below attainability: the solve always pays every step.
            epsilon: 1e-300,
            max_iterations,
            topology: None,
        };
        let mut responses = BatchServer::new(Parallelism::Sequential, WarmMode::Off)
            .serve(&[request], &mut NoopRecorder);
        let response = responses.pop().expect("one response").expect("stable solve");
        assert_eq!(response.iterations(), max_iterations);
        response
    };
    let (short, long) = (respond(60), respond(600));
    serde_json::to_string(&long).expect("finite response");

    let (short_allocs, short_text) = counted(|| serde_json::to_string(&short).expect("finite"));
    let (long_allocs, long_text) = counted(|| serde_json::to_string(&long).expect("finite"));

    assert!(long_text.len() > 9 * short_text.len(), "the long trace renders ~10x the text");
    // A `String` grown by doubling from empty to `len` bytes reallocates
    // at most ⌊log2 len⌋ + 1 times.
    let doublings = |text: &str| u64::from(usize::BITS - text.len().leading_zeros());
    assert!(
        short_allocs <= doublings(&short_text) && long_allocs <= doublings(&long_text),
        "rendering allocated beyond the output's growth: 60 iters cost {short_allocs} allocs \
         for {} bytes, 600 iters cost {long_allocs} allocs for {} bytes",
        short_text.len(),
        long_text.len()
    );
    // Ten times the text is a few more doublings, not ~5 allocations per
    // record as when a `Value` tree was built and re-walked.
    let extra_doublings = doublings(&long_text) - doublings(&short_text);
    assert!(
        long_allocs <= short_allocs + extra_doublings,
        "per-record allocations: 600 iters cost {long_allocs} allocs, 60 iters cost {short_allocs}"
    );
}

#[test]
fn a_server_keeps_its_worker_scratch_across_batches() {
    // The server owns its worker slots for its whole life: the first batch
    // sizes each slot's scratch and a second serve of the same batch
    // reuses it, so the second serve saves at least the bytes the two
    // solves spend sizing fresh scratch. Only the responses, the plan and
    // the per-batch metrics are allocated again.
    use fap::core::SingleFileProblem;
    use fap::econ::{OptimizerScratch, ResourceDirectedOptimizer, StepSize};
    use fap::serve::{BatchServer, ServeRequest, WarmMode};

    let graph = topology::ring(32, 1.0).expect("valid ring");
    let pattern = AccessPattern::random(32, 0.01..0.05, 5).expect("valid pattern");
    let patterns: Vec<AccessPattern> = (0..4)
        .map(|j| AccessPattern::random(32, 0.01..0.05, 11 + j).expect("valid pattern"))
        .collect();
    let single = SingleFileProblem::mm1(&graph, &pattern, 4.0, 1.0).expect("valid");
    let multi = MultiFileProblem::mm1(&graph, &patterns, 4.0, 1.0).expect("valid");
    let (x0, xs0) = (vec![1.0 / 32.0; 32], vec![vec![1.0 / 32.0; 32]; 4]);
    let (alpha, epsilon, max_iterations) = (0.05, 1e-6, 200);

    // What sizing fresh scratch costs: the first of two solves through one
    // scratch, less the second.
    let optimizer = ResourceDirectedOptimizer::new(StepSize::Fixed(alpha))
        .with_epsilon(epsilon)
        .with_max_iterations(max_iterations);
    let mut econ = OptimizerScratch::new();
    let mut solve_single = || {
        optimizer.run_with_scratch(&single, &x0, &mut econ, &mut NoopRecorder).expect("solves")
    };
    let (fresh_single, _) = counted_bytes(&mut solve_single);
    let (warm_single, _) = counted_bytes(&mut solve_single);
    let mut core = MultiFileScratch::new();
    let mut solve_multi = || {
        multi
            .solve_with_scratch(&xs0, alpha, epsilon, max_iterations, &mut core, &mut NoopRecorder)
            .expect("solves")
    };
    let (fresh_multi, _) = counted_bytes(&mut solve_multi);
    let (warm_multi, _) = counted_bytes(&mut solve_multi);
    let scratch_bytes = (fresh_single - warm_single) + (fresh_multi - warm_multi);
    assert!(scratch_bytes > 0, "fresh scratch must cost something to size");

    let requests = vec![
        ServeRequest::SingleFile {
            problem: single.clone(),
            initial: x0.clone(),
            alpha,
            epsilon,
            max_iterations,
            topology: None,
        },
        ServeRequest::MultiFile {
            problem: multi.clone(),
            initial: xs0.clone(),
            alpha,
            epsilon,
            max_iterations,
            topology: None,
        },
    ];
    let mut server = BatchServer::new(Parallelism::Sequential, WarmMode::Batch);
    let (first_bytes, first) = counted_bytes(|| server.serve(&requests, &mut NoopRecorder));
    let (second_bytes, second) = counted_bytes(|| server.serve(&requests, &mut NoopRecorder));
    assert!(first.iter().all(Result::is_ok), "the batch must solve");
    assert_eq!(first, second, "reused scratch must not change a response bit");
    assert!(
        second_bytes + scratch_bytes <= first_bytes,
        "the second serve requested {second_bytes} bytes, the first {first_bytes}: \
         it must save the {scratch_bytes} bytes of sizing fresh scratch"
    );
}

#[test]
fn a_refused_drift_line_allocates_far_less_than_one_dense_matrix() {
    // An oversized drift line is priced from its fields and refused
    // before the ring or its cost matrix exists. The smallest matrix it
    // could have asked for, 8193² f64s, is 537 MB.
    use fap::cache::SubstrateCache;
    use fap::obs::Recorder;
    use fap::serve::ServeRequest;
    use fap::served::{Daemon, DaemonConfig};

    let parser = |_: &serde::Value, _: &mut SubstrateCache, _: &mut dyn Recorder| {
        Ok::<Vec<ServeRequest>, String>(Vec::new())
    };
    let mut daemon = Daemon::new(parser, &DaemonConfig::default()).expect("valid config");
    let mut out = Vec::with_capacity(1 << 12);
    for line in [
        "{\"cmd\":\"drift\",\"nodes\":8193}",
        "{\"cmd\":\"drift\",\"nodes\":4611686018427387904}",
        "{\"cmd\":\"drift\",\"nodes\":18446744073709551615}",
        "{\"cmd\":\"drift\",\"epochs\":4611686018427387904}",
    ] {
        out.clear();
        let (bytes, handled) =
            counted_bytes(|| daemon.handle_line(line, &mut out, &mut NoopRecorder));
        handled.expect("writing to a Vec cannot fail");
        assert!(out.starts_with(b"{\"kind\":\"error\""), "{line} was not refused");
        assert!(bytes < 16 * 1024, "{line}: refusing it allocated {bytes} bytes");
    }
}
