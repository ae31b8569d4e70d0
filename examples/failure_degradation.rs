//! Graceful degradation under node failures (paper §4(a)).
//!
//! Runs the distributed protocol on a five-node mesh, kills a node mid-run,
//! and contrasts the availability of a fragmented allocation with the
//! integral (whole-file-at-one-node) alternative.
//!
//! ```text
//! cargo run --example failure_degradation
//! ```

use fap::prelude::*;

const CRASH_ROUND: usize = 0;
const CRASHED: usize = 2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = topology::full_mesh(5, 1.0)?;
    let pattern = AccessPattern::uniform(5, 1.0)?;
    let problem = SingleFileProblem::mm1(&graph, &pattern, 1.5, 1.0)?;
    // The crashed node's records are re-fetched from a backing store and
    // spread over the survivors, who then re-optimize among themselves.
    let run = |start: &[f64]| {
        SimRun::new(&problem, ExchangeScheme::Broadcast, 0.1)
            .with_epsilon(1e-6)
            .with_chaos(ChaosPlan::new(0).crash(CRASH_ROUND, CRASHED))
            .run(start, &mut NoopRecorder)
    };
    // The fraction of the file still reachable right after the crash.
    let availability = |report: &SimReport| 1.0 - report.iterates[CRASH_ROUND][CRASHED];

    println!("fragmented allocation, node {CRASHED} crashes at round {CRASH_ROUND}:");
    let fragmented = run(&[0.2; 5])?;
    let kept = availability(&fragmented);
    println!(
        "  node {CRASHED} lost {:.0}% of the file -> availability {:.0}%",
        100.0 * (1.0 - kept),
        100.0 * kept
    );
    println!(
        "  survivors re-optimized (converged={}) to {:?}",
        fragmented.converged,
        rounded(&fragmented.allocation)
    );

    println!("\nintegral allocation (whole file on node {CRASHED}), same crash:");
    let integral = run(&[0.0, 0.0, 1.0, 0.0, 0.0])?;
    println!(
        "  availability at the crash: {:.0}% — every record was on the failed node",
        100.0 * availability(&integral)
    );

    assert!(kept > 0.7);
    assert!(availability(&integral) < 1e-9);
    println!(
        "\nfragmentation kept {:.0}% of the file reachable; the integral placement kept 0%.",
        100.0 * kept
    );
    Ok(())
}

fn rounded(x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| (v * 1000.0).round() / 1000.0).collect()
}
