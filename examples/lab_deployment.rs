//! Global outlier detection on the full 53-sensor lab deployment.
//!
//! Reproduces one data point of the paper's evaluation: the 53 sensors of the
//! Intel-lab-like deployment sample a spatio-temporally correlated
//! temperature field (with injected sensor faults and missing readings),
//! slide a `w`-sample window, and run the distributed global algorithm with
//! the nearest-neighbour ranking function. At the end every node holds the
//! same, correct top-`n` outlier set, and the per-node energy figures show
//! what that convergence cost.
//!
//! Run with: `cargo run --release --example lab_deployment`

use in_network_outlier::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ExperimentConfig::default();
    config.trace.rounds = 16; // keep the example snappy; the paper-scale figures run 48
    config.window_samples = 10;
    config.n = 4;
    config.algorithm = AlgorithmConfig::Global { ranking: RankingChoice::Nn };

    println!(
        "simulating {} sensors, {} sampling rounds, w={} samples, n={} outliers ({})",
        config.sensor_count,
        config.trace.rounds,
        config.window_samples,
        config.n,
        config.algorithm.label()
    );

    let outcome = run_experiment(&config)?;

    println!();
    println!("protocol reached quiescence:       {}", outcome.quiescent);
    println!("all estimates agree (Theorem 1):   {}", outcome.all_estimates_agree);
    println!(
        "nodes with the exact correct O_n:  {}/{} ({:.1}%)",
        outcome.accuracy.correct_nodes,
        outcome.accuracy.total_nodes,
        100.0 * outcome.accuracy()
    );
    println!("protocol data points broadcast:    {}", outcome.data_points_sent);
    println!("link-layer packets transmitted:    {}", outcome.stats.total_packets_sent());
    println!();
    println!("energy per node per sampling round:");
    println!("  transmit: {:.4} J", outcome.avg_tx_energy_per_node_per_round());
    println!("  receive:  {:.4} J", outcome.avg_rx_energy_per_node_per_round());
    let summary = outcome.total_energy_summary();
    println!(
        "total energy per node over the run: min {:.3} J / avg {:.3} J / max {:.3} J",
        summary.min, summary.avg, summary.max
    );
    println!("radio-activity imbalance (max/avg): {:.2}", outcome.stats.traffic_imbalance());
    Ok(())
}
