//! Seed-averaged experiment runs and parameter sweeps.
//!
//! The paper repeats every simulation four times with different random seeds
//! and plots the averages. [`run_averaged`] does the same: it runs one
//! [`ExperimentConfig`] under several seeds — in parallel, on the shared
//! [`crate::pool`] worker pool — and aggregates the per-node energy and
//! accuracy metrics into an [`AveragedOutcome`].
//!
//! For whole sweep grids, [`submit_averaged`] splits submission from
//! collection: a figure binary submits every `(configuration, seed)` cell
//! up front and collects the [`PendingAverage`]s in order, so the pool keeps
//! every core busy across cell boundaries while the output stays in
//! deterministic sweep order. Seed results are always aggregated in
//! ascending seed order, which makes the pooled path bit-identical to
//! [`run_averaged_sequential`] (there is a test for that).

use crate::journal::CellMetrics;
use crate::pool::{self, JobHandle, WorkerPool};
use wsn_core::experiment::{run_experiment, ExperimentConfig, ExperimentOutcome};
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

impl AveragedOutcome {
    /// Average total energy per node per sampling round (TX + RX + idle),
    /// divided evenly across rounds.
    pub fn avg_total_per_node_per_round(&self, rounds: usize) -> f64 {
        if rounds == 0 {
            0.0
        } else {
            self.total_energy.avg / rounds as f64
        }
    }

    /// The Figure 6 view: the per-node energy spread normalised by its mean.
    pub fn normalized_energy(&self) -> MinAvgMax {
        self.total_energy.normalized()
    }
}

/// The per-seed configurations of one averaged cell: seed `s` offsets both
/// the simulation and the trace seed by `s`. Shared with the journaled
/// runner ([`crate::journal`]) so both paths run identical cells.
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
/// [`AveragedOutcome`]. This is the only seed aggregation: live runs are
/// reduced with [`CellMetrics::of`] first, and journal rows store exactly
/// those metrics, so the pooled, sequential and journaled averages are
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

/// Averages finished live runs, given in ascending seed order.
fn aggregate_runs(runs: &[ExperimentOutcome]) -> AveragedOutcome {
    let cells: Vec<CellMetrics> = runs.iter().map(CellMetrics::of).collect();
    aggregate(&runs[0].label, &cells)
}

/// One averaged cell whose per-seed simulations are in flight on a
/// [`WorkerPool`]. Obtain it from [`submit_averaged`], redeem it with
/// [`PendingAverage::collect`].
#[must_use = "collect() the pending average to obtain the outcome"]
pub struct PendingAverage {
    handles: Vec<JobHandle<Result<ExperimentOutcome, CoreError>>>,
}

impl PendingAverage {
    /// Blocks until every seed of the cell finished and aggregates the
    /// results (in ascending seed order, independent of completion order).
    ///
    /// Every handle is joined before the first error is returned, so a panic
    /// in any seed's job always resurfaces here (matching the old
    /// thread-per-seed join semantics) instead of being silently dropped
    /// behind an earlier seed's error.
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-seed) error any run produced.
    pub fn collect(self) -> Result<AveragedOutcome, CoreError> {
        let results: Vec<Result<ExperimentOutcome, CoreError>> =
            self.handles.into_iter().map(JobHandle::join).collect();
        let mut runs = Vec::with_capacity(results.len());
        for result in results {
            runs.push(result?);
        }
        Ok(aggregate_runs(&runs))
    }
}

/// Submits one configuration's `seeds` runs to `pool` without waiting for
/// them. Figure binaries use this to keep the whole sweep grid in flight on
/// the one shared pool; call [`PendingAverage::collect`] in sweep order to
/// read the results back deterministically.
pub fn submit_averaged(pool: &WorkerPool, config: &ExperimentConfig, seeds: u64) -> PendingAverage {
    let handles = seed_configs(config, seeds)
        .into_iter()
        .map(|c| pool.submit(move || run_experiment(&c)))
        .collect();
    PendingAverage { handles }
}

/// Runs `config` once per seed in `0..seeds` (offsetting both the simulation
/// and trace seeds) and averages the results.
///
/// The runs are independent, so they execute on the shared worker pool
/// ([`pool::global`]); the paper's four repetitions therefore cost roughly
/// one, and concurrency stays bounded by the pool size no matter how many
/// seeds (or concurrent sweeps) are requested.
///
/// # Errors
///
/// Returns the first error any run produced (invalid configuration,
/// disconnected deployment, trace-generation failure).
pub fn run_averaged(config: &ExperimentConfig, seeds: u64) -> Result<AveragedOutcome, CoreError> {
    submit_averaged(pool::global(), config, seeds).collect()
}

/// The sequential reference implementation of [`run_averaged`]: same seeds,
/// same aggregation, no pool. Exists so tests (and suspicious readers) can
/// prove the pooled path changes nothing but wall-clock time.
///
/// # Errors
///
/// Returns the first error any run produced.
pub fn run_averaged_sequential(
    config: &ExperimentConfig,
    seeds: u64,
) -> Result<AveragedOutcome, CoreError> {
    let mut runs = Vec::with_capacity(seeds as usize);
    for c in seed_configs(config, seeds) {
        runs.push(run_experiment(&c)?);
    }
    Ok(aggregate_runs(&runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_core::experiment::{AlgorithmConfig, RankingChoice};

    fn tiny() -> ExperimentConfig {
        let mut c = ExperimentConfig::small();
        c.trace.rounds = 4;
        c
    }

    #[test]
    fn averaging_a_single_seed_matches_a_direct_run() {
        let config = tiny();
        let direct = run_experiment(&config).unwrap();
        let averaged = run_averaged(&config, 1).unwrap();
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
        let averaged = run_averaged(&config, 3).unwrap();
        assert_eq!(averaged.seeds, 3);
        assert!(averaged.avg_packets_sent > 0.0);
        assert!(averaged.total_energy.max >= averaged.total_energy.avg);
        assert!(averaged.total_energy.avg >= averaged.total_energy.min);
        assert!(averaged.normalized_energy().avg == 1.0);
        assert!(averaged.avg_total_per_node_per_round(4) > 0.0);
        assert_eq!(averaged.avg_total_per_node_per_round(0), 0.0);
    }

    #[test]
    fn pooled_averaging_is_bit_identical_to_sequential() {
        // Same seeds, same aggregation order: every field — including the
        // floating-point energy averages — must match bit for bit.
        for algorithm in [
            AlgorithmConfig::Global { ranking: RankingChoice::Nn },
            AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 },
            AlgorithmConfig::Centralized { ranking: RankingChoice::Nn },
        ] {
            let config = tiny().with_algorithm(algorithm);
            let pooled = run_averaged(&config, 3).unwrap();
            let sequential = run_averaged_sequential(&config, 3).unwrap();
            assert_eq!(pooled, sequential, "pool sharding changed a {} outcome", pooled.label);
        }
    }

    #[test]
    fn submitted_cells_collect_in_submission_order() {
        let pool = crate::pool::WorkerPool::new(2);
        let small = tiny();
        let big = tiny().with_n(3);
        let pending: Vec<PendingAverage> =
            vec![submit_averaged(&pool, &small, 2), submit_averaged(&pool, &big, 2)];
        let outcomes: Vec<AveragedOutcome> =
            pending.into_iter().map(|p| p.collect().unwrap()).collect();
        assert_eq!(outcomes[0], run_averaged_sequential(&small, 2).unwrap());
        assert_eq!(outcomes[1], run_averaged_sequential(&big, 2).unwrap());
    }

    #[test]
    fn centralized_and_distributed_share_the_interface() {
        let distributed = run_averaged(&tiny(), 1).unwrap();
        let centralized = run_averaged(
            &tiny().with_algorithm(AlgorithmConfig::Centralized { ranking: RankingChoice::Nn }),
            1,
        )
        .unwrap();
        assert_eq!(centralized.label, "Centralized");
        assert_eq!(centralized.avg_data_points_sent, 0.0);
        assert!(distributed.avg_data_points_sent > 0.0);
    }

    #[test]
    fn errors_propagate_out_of_the_average() {
        let mut config = tiny();
        config.transmission_range_m = 0.1;
        assert!(run_averaged(&config, 2).is_err());
    }
}
