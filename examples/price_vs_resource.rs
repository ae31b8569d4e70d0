//! Price-directed versus resource-directed coordination (paper §2).
//!
//! Solves the same file-allocation problem two ways: the paper's
//! resource-directed iteration (feasible and monotone at every step) and
//! the price-directed tâtonnement the paper argues against (infeasible
//! until it converges). Both land on the same optimum — the difference is
//! the path.
//!
//! ```text
//! cargo run --example price_vs_resource
//! ```

use fap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = topology::random_connected(6, 0.4, 1.0..4.0, 13)?;
    let pattern = AccessPattern::random(6, 0.1..0.4, 13)?;
    let problem = SingleFileProblem::mm1(&graph, &pattern, pattern.total_rate() * 1.8, 1.0)?;

    // Resource-directed: every iterate is a deployable allocation.
    let resource = ResourceDirectedOptimizer::new(StepSize::Fixed(0.05))
        .with_epsilon(1e-7)
        .with_recorded_allocations()
        .with_max_iterations(100_000)
        .run(&problem, &[1.0 / 6.0; 6], &mut NoopRecorder)?;
    let worst_violation = resource
        .trace
        .recorded_allocations()
        .map(|x| (x.iter().sum::<f64>() - 1.0).abs())
        .fold(0.0, f64::max);
    println!("resource-directed:");
    println!("  iterations: {}", resource.iterations);
    println!("  worst |sum(x) - 1| along the way: {worst_violation:.2e}  (always feasible)");
    println!("  monotone cost decrease: {}", resource.trace.is_cost_monotone_decreasing(1e-10));

    // Price-directed: nodes respond selfishly to a hosting price.
    let market = HostingMarket::new(&problem)?;
    let price = PriceDirectedOptimizer::new(0.3).with_tolerance(1e-8).run(&market)?;
    println!("\nprice-directed (tatonnement):");
    println!("  iterations: {}", price.iterations);
    println!("  worst |demand - supply| along the way: {:.3}  (infeasible until clearing)",
        price.max_infeasibility());
    println!("  clearing price: {:.5}", price.price);

    let exact = reference::solve(&problem)?;
    println!("\nwater-filling multiplier (= the market-clearing price): {:.5}", exact.multiplier);

    let gap = resource
        .allocation
        .iter()
        .zip(&price.allocation)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("max per-node gap between the two optima: {gap:.2e}");
    assert!(gap < 1e-3);
    assert!((price.price - exact.multiplier).abs() < 1e-4);
    Ok(())
}
