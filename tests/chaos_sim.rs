//! Tier-1 guarantees of the chaos simulator: seeded determinism,
//! zero-fault equivalence with the centralized optimizer, and a
//! golden-trace regression for the canonical Figure-3 scenario. The
//! event-driven engine's bit-identity with the lock-step oracle is pinned
//! by the unit tests inside `fap-runtime`.

use fap::prelude::*;
use fap::runtime::FaultCounters;

/// The paper's §6 four-node symmetric ring.
fn paper_problem() -> SingleFileProblem {
    let graph = topology::ring(4, 1.0).unwrap();
    let pattern = AccessPattern::uniform(4, 1.0).unwrap();
    SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0).unwrap()
}

const FIG3_ALPHA: f64 = 0.19;
const FIG3_EPSILON: f64 = 1e-3;
const FIG3_START: [f64; 4] = [0.8, 0.1, 0.1, 0.0];

/// A fairly hostile plan used by the determinism tests.
fn hostile_plan(seed: u64) -> ChaosPlan {
    ChaosPlan::new(seed)
        .with_drop(0.25)
        .with_duplication(0.1)
        .with_delay(0.3, 2)
        .with_staleness_bound(2)
        .with_retries(1)
        .crash(5, 2)
        .rejoin(15, 2)
}

/// Two runs with the same seed produce byte-identical reports — every
/// counter, every trace record, every iterate.
#[test]
fn same_seed_is_deterministic() {
    let p = paper_problem();
    let run = || {
        SimRun::new(&p, ExchangeScheme::Broadcast, FIG3_ALPHA)
            .with_epsilon(FIG3_EPSILON)
            .with_max_rounds(10_000)
            .with_chaos(hostile_plan(42))
            .run(&FIG3_START, &mut NoopRecorder)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    // And the serialized form is byte-identical too.
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

/// Different seeds actually explore different fault histories.
#[test]
fn different_seeds_diverge() {
    let p = paper_problem();
    let run = |seed| {
        SimRun::new(&p, ExchangeScheme::Broadcast, FIG3_ALPHA)
            .with_epsilon(FIG3_EPSILON)
            .with_max_rounds(10_000)
            .with_chaos(hostile_plan(seed))
            .run(&FIG3_START, &mut NoopRecorder)
            .unwrap()
    };
    assert_ne!(run(1).faults, run(2).faults);
}

/// Zero faults ⇒ the simulated protocol reproduces the centralized
/// optimizer bit for bit on the Figure-3 scenario, and records no faults.
#[test]
fn zero_fault_run_matches_the_centralized_optimizer() {
    let p = paper_problem();

    let centralized = ResourceDirectedOptimizer::new(StepSize::Fixed(FIG3_ALPHA))
        .with_epsilon(FIG3_EPSILON)
        .run(&p, &FIG3_START, &mut NoopRecorder)
        .unwrap();
    let sim = SimRun::new(&p, ExchangeScheme::Broadcast, FIG3_ALPHA)
        .with_epsilon(FIG3_EPSILON)
        .with_max_rounds(10_000)
        .with_chaos(ChaosPlan::new(7)) // seed is irrelevant: zero-fault plan
        .run(&FIG3_START, &mut NoopRecorder)
        .unwrap();

    assert!(centralized.converged && sim.converged);
    assert_eq!(centralized.allocation, sim.allocation);
    assert_eq!(centralized.iterations, sim.rounds);
    assert_eq!(centralized.final_utility, sim.final_utility);
    assert_eq!(centralized.trace, sim.trace);

    let zero = FaultCounters::default();
    assert_eq!(
        FaultCounters { sent: sim.faults.sent, delivered: sim.faults.delivered, ..zero },
        sim.faults,
        "a zero-fault plan must not record drops, delays, retries or crashes"
    );
    assert_eq!(sim.faults.sent, sim.faults.delivered);
}

/// The canonical Figure-3 trace (α = 0.19, ε = 10⁻³, start 0.8/0.1/0.1/0)
/// is pinned byte-exactly in `tests/golden/fig3_trace.json`. Regenerate
/// with `UPDATE_GOLDEN=1 cargo test --test chaos_sim` after an intentional
/// numerical change.
#[test]
fn golden_fig3_trace_matches() {
    let p = paper_problem();
    let report = SimRun::new(&p, ExchangeScheme::Broadcast, FIG3_ALPHA)
        .with_epsilon(FIG3_EPSILON)
        .with_max_rounds(10_000)
        .with_chaos(ChaosPlan::new(0))
        .run(&FIG3_START, &mut NoopRecorder)
        .unwrap();
    assert!(report.converged);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig3_trace.json");
    let produced = serde_json::to_string_pretty(&report.trace).unwrap();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, produced + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("tests/golden/fig3_trace.json missing; run with UPDATE_GOLDEN=1");
    let golden_trace: fap::econ::Trace = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        report.trace, golden_trace,
        "Figure-3 trajectory drifted from the golden trace"
    );
    // Guard the serialized form as well, so formatting/precision changes in
    // the serializer are caught, not silently rewritten.
    assert_eq!(produced.trim_end(), golden.trim_end());
}
