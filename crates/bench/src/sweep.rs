//! Seed-averaged experiment outcomes.
//!
//! The paper repeats every simulation four times with different random seeds
//! and plots the averages. [`AveragedOutcome`] is one such average; every
//! live one comes from the journaled plan runner
//! ([`crate::journal::SweepJournal::run_plan`]), which runs each
//! `(configuration, seed)` cell on the shared worker pool and aggregates the
//! journal's rows in ascending seed order. [`run_averaged_sequential`] is
//! its test oracle: the same seeds and the same aggregation, no pool and no
//! journal.

use crate::journal::CellMetrics;
use wsn_core::experiment::{run_experiment, ExperimentConfig};
use wsn_core::CoreError;
use wsn_netsim::stats::MinAvgMax;

/// Seed-averaged measurements of one experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedOutcome {
    /// The plot label of the algorithm ("Centralized", "Global-NN", …).
    pub label: String,
    /// Number of seeds averaged.
    pub seeds: u64,
    /// Average transmit energy per node per sampling round, in joules.
    pub avg_tx_per_node_per_round: f64,
    /// Average receive energy per node per sampling round, in joules.
    pub avg_rx_per_node_per_round: f64,
    /// Min / avg / max total energy consumed by a node over the run
    /// (averaged element-wise across seeds) — the quantity of Figure 5.
    pub total_energy: MinAvgMax,
    /// Detection accuracy (fraction of nodes exactly correct), averaged.
    pub accuracy: f64,
    /// Mean per-node recall of the true outliers, averaged across seeds.
    pub mean_recall: f64,
    /// Mean per-node precision against the injected ground-truth labels,
    /// averaged across seeds.
    pub label_precision: f64,
    /// Mean per-node recall against the injected ground-truth labels,
    /// averaged across seeds.
    pub label_recall: f64,
    /// Fraction of seeds in which every node's estimate agreed with every
    /// other node's (Theorem 1; global algorithm only).
    pub agreement_rate: f64,
    /// Fraction of seeds that reached protocol quiescence before the deadline.
    pub quiescence_rate: f64,
    /// Average number of protocol data points broadcast (distributed
    /// algorithms only).
    pub avg_data_points_sent: f64,
    /// Average total packets transmitted in the network.
    pub avg_packets_sent: f64,
    /// Average max-over-average radio-activity imbalance (§8).
    pub avg_traffic_imbalance: f64,
}

/// The per-seed configurations of one averaged cell: seed `s` offsets both
/// the simulation and the trace seed by `s`. Shared by the journaled runner
/// ([`crate::journal`]) and its oracle so both run identical cells.
pub fn seed_configs(config: &ExperimentConfig, seeds: u64) -> Vec<ExperimentConfig> {
    assert!(seeds > 0, "at least one seed is required");
    (0..seeds)
        .map(|s| {
            let mut c = config.clone();
            c.sim_seed = config.sim_seed + s;
            c.trace_seed = config.trace_seed + s;
            c
        })
        .collect()
}

/// Averages per-seed metrics (in ascending seed order) into one
/// [`AveragedOutcome`]. This is the only seed aggregation: the oracle
/// reduces its runs with [`CellMetrics::of`] first, and journal rows store
/// exactly those metrics, so the sequential and journaled averages are
/// bit-identical by construction.
///
/// # Panics
///
/// Panics on an empty slice — an average of nothing is a caller bug.
pub(crate) fn aggregate(label: &str, cells: &[CellMetrics]) -> AveragedOutcome {
    assert!(!cells.is_empty(), "cannot aggregate zero runs");
    let count = cells.len() as f64;
    let mean = |f: &dyn Fn(&CellMetrics) -> f64| cells.iter().map(f).sum::<f64>() / count;
    AveragedOutcome {
        label: label.to_string(),
        seeds: cells.len() as u64,
        avg_tx_per_node_per_round: mean(&|m| m.tx_per_node_per_round),
        avg_rx_per_node_per_round: mean(&|m| m.rx_per_node_per_round),
        total_energy: MinAvgMax {
            min: mean(&|m| m.total_energy_min),
            avg: mean(&|m| m.total_energy_avg),
            max: mean(&|m| m.total_energy_max),
        },
        accuracy: mean(&|m| m.accuracy),
        mean_recall: mean(&|m| m.mean_recall),
        label_precision: mean(&|m| m.label_precision),
        label_recall: mean(&|m| m.label_recall),
        agreement_rate: mean(&|m| if m.estimates_agree { 1.0 } else { 0.0 }),
        quiescence_rate: mean(&|m| if m.quiescent { 1.0 } else { 0.0 }),
        avg_data_points_sent: mean(&|m| m.data_points_sent as f64),
        avg_packets_sent: mean(&|m| m.packets_sent as f64),
        avg_traffic_imbalance: mean(&|m| m.traffic_imbalance),
    }
}

/// The test oracle of [`crate::journal::SweepJournal::run_plan`]: runs
/// `config` once per seed in `0..seeds` (offsetting both the simulation and
/// trace seeds), one after another on the calling thread, and averages the
/// results. Tests compare the journaled, pooled path against it bit for bit;
/// no paper cell runs through it.
///
/// # Errors
///
/// Returns the first error any run produced.
pub fn run_averaged_sequential(
    config: &ExperimentConfig,
    seeds: u64,
) -> Result<AveragedOutcome, CoreError> {
    let runs =
        seed_configs(config, seeds).iter().map(run_experiment).collect::<Result<Vec<_>, _>>()?;
    let cells: Vec<CellMetrics> = runs.iter().map(CellMetrics::of).collect();
    Ok(aggregate(&runs[0].label, &cells))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        let mut c = ExperimentConfig::small();
        c.trace.rounds = 4;
        c
    }

    #[test]
    fn averaging_a_single_seed_matches_a_direct_run() {
        let config = tiny();
        let direct = run_experiment(&config).unwrap();
        let averaged = run_averaged_sequential(&config, 1).unwrap();
        assert_eq!(averaged.label, direct.label);
        assert!(
            (averaged.avg_tx_per_node_per_round - direct.avg_tx_energy_per_node_per_round()).abs()
                < 1e-12
        );
        assert!((averaged.accuracy - direct.accuracy()).abs() < 1e-12);
        assert_eq!(averaged.quiescence_rate, 1.0);
    }

    #[test]
    fn averaging_multiple_seeds_runs_them_all() {
        let config = tiny();
        let averaged = run_averaged_sequential(&config, 3).unwrap();
        assert_eq!(averaged.seeds, 3);
        assert!(averaged.avg_packets_sent > 0.0);
        assert!(averaged.total_energy.max >= averaged.total_energy.avg);
        assert!(averaged.total_energy.avg >= averaged.total_energy.min);
        assert!(averaged.total_energy.normalized().avg == 1.0);
    }

    #[test]
    fn errors_propagate_out_of_the_oracle() {
        let mut config = tiny();
        config.transmission_range_m = 0.1;
        assert!(run_averaged_sequential(&config, 2).is_err());
    }
}
