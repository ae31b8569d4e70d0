//! A modern-flavored scenario: placing a hot dataset across a two-tier
//! datacenter network.
//!
//! Eight racks form two clusters of four; links inside a cluster are cheap,
//! the inter-cluster uplink is expensive. Racks have heterogeneous service
//! capacity (two big storage racks, six small ones), and the access
//! workload is Zipf-skewed. The decentralized algorithm decides how much of
//! the dataset each rack should hold; we validate against the closed-form
//! solver, round to 10 000 records (§8.1), and measure the allocation with
//! the discrete-event simulator.
//!
//! ```text
//! cargo run --release --example datacenter_placement
//! ```

use fap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two clusters of 4 racks; node 0..3 in cluster A, 4..7 in cluster B.
    let mut graph = Graph::new(8);
    for c in [0usize, 4] {
        for i in c..c + 4 {
            for j in (i + 1)..c + 4 {
                graph.add_link(NodeId::new(i), NodeId::new(j), 1.0)?; // intra-cluster
            }
        }
    }
    graph.add_link(NodeId::new(0), NodeId::new(4), 8.0)?; // uplink

    // Zipf-skewed demand (rack 0 hottest), 5.0 accesses/s network-wide —
    // enough load that queueing pressure forces fragmentation.
    let pattern = AccessPattern::zipf(8, 5.0, 1.0)?;

    // Storage racks 0 and 4 are 4x faster than the others.
    let mus = [8.0, 2.0, 2.0, 2.0, 8.0, 2.0, 2.0, 2.0];
    let problem = SingleFileProblem::mm1_heterogeneous(&graph, &pattern, &mus, 2.0)?;

    // Decentralized solve with the per-iteration dynamic step of the
    // appendix remark.
    let solution = ResourceDirectedOptimizer::new(StepSize::Dynamic { safety: 0.7, max: 2.0 })
        .with_epsilon(1e-8)
        .with_max_iterations(100_000)
        .run(&problem, &[0.125; 8], &mut NoopRecorder)?;
    println!("decentralized solve: converged={} in {} iterations", solution.converged, solution.iterations);
    println!("allocation per rack: {:?}", rounded(&solution.allocation));
    println!("cost: {:.5}", solution.final_cost());

    // Closed-form cross-check.
    let exact = reference::solve(&problem)?;
    println!("water-filling cost:  {:.5}", exact.cost);
    assert!((solution.final_cost() - exact.cost).abs() < 1e-4);

    // The big rack in the busy cluster holds more than its small peers;
    // the far cluster may be priced out entirely by the expensive uplink.
    assert!(solution.allocation[0] > solution.allocation[1]);
    let cluster_b: f64 = solution.allocation[4..].iter().sum();
    println!("cluster B share: {cluster_b:.4} (uplink cost keeps it low)");

    // §8.1: align to record boundaries.
    let records = fap::core::rounding::round_to_records(&solution.allocation, 10_000)?;
    let penalty =
        fap::core::rounding::rounding_penalty(&problem, &solution.allocation, 10_000)?;
    println!("records per rack (of 10000): {:?}", records.records);
    println!("rounding penalty: {:.3e} relative", penalty);

    // Empirical check with real Poisson arrivals and FIFO queues.
    let costs = graph.shortest_path_matrix()?;
    let services: Vec<ServiceDistribution> =
        mus.iter().map(|&m| ServiceDistribution::exponential(m)).collect::<Result<_, _>>()?;
    let report = NetworkSimulation::with_service_per_node(
        records.fractions(),
        pattern,
        costs,
        services,
    )?
    .with_duration(100_000.0)
    .with_seed(7)
    .run()?;
    println!(
        "measured: mean response {:.4} ± {:.4}, mean comm cost {:.4}, total cost {:.4}",
        report.response.mean(),
        report.response.ci95_half_width(),
        report.comm_cost.mean(),
        report.mean_total_cost(2.0)
    );
    let gap = (report.mean_total_cost(2.0) - exact.cost).abs() / exact.cost;
    println!("analytic-vs-measured gap: {:.2}%", 100.0 * gap);
    Ok(())
}

fn rounded(x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| (v * 1000.0).round() / 1000.0).collect()
}
