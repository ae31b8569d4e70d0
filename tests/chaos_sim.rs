//! Tier-1 guarantees of the chaos simulator: seeded determinism,
//! zero-fault equivalence with the centralized optimizer, a golden-trace
//! regression for the canonical Figure-3 scenario, and a golden of whole
//! reports and telemetry streams under hostile plans. The event-driven
//! engine's bit-identity with the lock-step oracle (reports and JSONL) is
//! pinned by the unit tests inside `fap-runtime`, so these goldens pin
//! both engines.

use fap::cache::Fnv64;
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

/// FNV-1a of `bytes`, as 16 hex digits.
fn fnv(bytes: &[u8]) -> String {
    let mut h = Fnv64::new();
    h.write(bytes);
    format!("{:016x}", h.finish64())
}

/// The plans of the report golden: fault-free, the hostile mix (drop,
/// delay, duplication, crash and rejoin), per-link delay overrides, and the
/// drop-and-retry plan of the `protocol-chaos` benchmark.
fn golden_plans() -> Vec<(&'static str, ChaosPlan)> {
    vec![
        ("zero-fault", ChaosPlan::new(0)),
        ("hostile-1", hostile_plan(1)),
        ("hostile-2", hostile_plan(2)),
        (
            "link-delays",
            ChaosPlan::new(5)
                .with_drop(0.1)
                .with_duplication(0.05)
                .with_link_delay(0, 1, 0.5, 3)
                .with_link_delay(2, 0, 0.9, 2)
                .with_link_delay(3, 2, 0.2, 1)
                .with_retries(2)
                .with_staleness_bound(3),
        ),
        (
            "drop-retry",
            ChaosPlan::new(9).with_drop(0.08).with_retries(2).with_staleness_bound(2),
        ),
    ]
}

/// One golden line per problem, scheme and plan: the report's rounds,
/// convergence, fault counters, allocation bits, and the FNV-1a of its
/// trace, of the whole serialized report, and of the recorded JSONL.
fn sim_report_lines() -> String {
    let problems = [
        ("ring4", paper_problem(), FIG3_START.to_vec()),
        (
            "mesh8",
            fap_bench::paper::full_mesh_problem(8),
            fap_bench::paper::spread_start(8),
        ),
    ];
    let schemes = [
        ("broadcast", ExchangeScheme::Broadcast),
        ("central3", ExchangeScheme::Central { coordinator: 3 }),
    ];
    let mut lines = String::new();
    for (problem_name, problem, start) in &problems {
        for (scheme_name, scheme) in schemes {
            for (plan_name, plan) in golden_plans() {
                let mut tele = Telemetry::manual();
                // The capped hostile mesh runs never converge: delayed
                // reports keep the mesh stale (see `protocol-chaos`).
                let report = SimRun::new(problem, scheme, FIG3_ALPHA)
                    .with_epsilon(FIG3_EPSILON)
                    .with_max_rounds(1_000)
                    .with_chaos(plan)
                    .run(start, &mut tele)
                    .unwrap();
                let bits: Vec<String> =
                    report.allocation.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
                lines += &format!(
                    "{problem_name} {scheme_name} {plan_name}: rounds={} converged={} \
                     faults={} allocation=[{}] trace={} report={} telemetry={} events={}\n",
                    report.rounds,
                    report.converged,
                    serde_json::to_string(&report.faults).unwrap(),
                    bits.join(","),
                    fnv(serde_json::to_string(&report.trace).unwrap().as_bytes()),
                    fnv(serde_json::to_string(&report).unwrap().as_bytes()),
                    fnv(tele.to_jsonl().as_bytes()),
                    tele.events().len(),
                );
            }
        }
    }
    lines
}

/// Whole simulator outcomes under hostile plans, pinned in
/// `tests/golden/sim_reports.txt`: any change to fault draws, fault
/// accounting, the step arithmetic or the recorded stream shows up here.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test --test chaos_sim` after an
/// intentional change.
#[test]
fn golden_sim_reports_match() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_reports.txt");
    let produced = sim_report_lines();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &produced).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("tests/golden/sim_reports.txt missing; run with UPDATE_GOLDEN=1");
    for (produced, golden) in produced.lines().zip(golden.lines()) {
        assert_eq!(produced, golden, "simulator outcome drifted from the golden");
    }
    assert_eq!(produced.lines().count(), golden.lines().count());
}
