//! The experiment configurations of the paper's evaluation (§7.1).
//!
//! The paper simulates the 53 Intel-lab sensors on a 50 m × 50 m terrain with
//! a 6.77 m radio range, runs 1000 seconds of simulated time (≈32 sampling
//! rounds at the trace's ~31 s sampling period), repeats every point with
//! four random seeds, and sweeps
//!
//! * the sliding-window length `w ∈ {10, 15, 20, 25, 30, 35, 40}` samples,
//! * the number of reported outliers `n ∈ {1, …, 8}`,
//! * the semi-global hop diameter `ε ∈ {1, 2, 3}`,
//!
//! with `w = 20`, `n = 4` and `k = 4` wherever they are held fixed.
//! [`PaperScenario`] reproduces exactly those configurations, plus a
//! `--quick` variant for iterating on the harness without waiting for the
//! full sweep.

use wsn_core::experiment::{AlgorithmConfig, ExperimentConfig, RankingChoice};
use wsn_data::synth::{AnomalyModel, SyntheticTraceConfig};

/// The paper's `k` for the KNN ranking function.
pub const PAPER_K: usize = 4;

/// The paper's default number of reported outliers.
pub const PAPER_N: usize = 4;

/// The sliding-window length held fixed where `w` is not swept (Figure 9,
/// the accuracy and the scaling tables).
pub const PAPER_W: u64 = 20;

/// The sliding-window sweep of Figures 4–8.
pub const WINDOW_SWEEP: [u64; 7] = [10, 15, 20, 25, 30, 35, 40];

/// The outlier-count sweep of Figure 9.
pub const N_SWEEP: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Number of seeds averaged per data point (the paper repeats every
/// simulation four times).
pub const PAPER_SEEDS: u64 = 4;

/// The sampling period of the Intel-lab trace, in seconds.
pub const PAPER_SAMPLE_INTERVAL_SECS: f64 = 31.0;

/// Scenario scale: the full paper configuration or a reduced one for quick
/// iteration on the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperScenario {
    /// The full §7.1 configuration: 53 sensors, 1000 s, four seeds per point.
    Full,
    /// A reduced configuration (fewer sensors, rounds and seeds) that keeps
    /// the qualitative shape of every figure but runs in seconds. Selected by
    /// passing `--quick` to the `campaign` binary.
    Quick,
}

impl PaperScenario {
    /// Number of sensors simulated.
    pub fn sensor_count(&self) -> usize {
        match self {
            PaperScenario::Full => wsn_data::lab::LAB_SENSOR_COUNT,
            PaperScenario::Quick => 20,
        }
    }

    /// Number of sampling rounds simulated.
    ///
    /// The paper simulates 1000 s (≈32 rounds at the trace's ~31 s sampling
    /// period). We extend the run to 48 rounds so that the largest window of
    /// the sweep (`w = 40` samples) is still meaningfully different from the
    /// smaller ones — at exactly 32 rounds, windows of 35 and 40 samples
    /// never evict anything and collapse onto each other.
    pub fn rounds(&self) -> usize {
        match self {
            PaperScenario::Full => 48,
            PaperScenario::Quick => 12,
        }
    }

    /// Number of random seeds averaged per data point.
    pub fn seeds(&self) -> u64 {
        match self {
            PaperScenario::Full => PAPER_SEEDS,
            PaperScenario::Quick => 1,
        }
    }

    /// The radio range, widened in the quick scenario so the reduced
    /// deployment stays connected.
    pub fn transmission_range_m(&self) -> f64 {
        match self {
            PaperScenario::Full => wsn_data::lab::PAPER_TRANSMISSION_RANGE_M,
            PaperScenario::Quick => 14.0,
        }
    }

    /// The synthetic-trace configuration of this scenario: the Intel-lab-like
    /// temperature field with fault-style anomalies and a small missing-data
    /// rate (imputed by the experiment runner exactly as §7.1 does).
    ///
    /// The quick scenario raises the fault rate so that its much shorter
    /// trace still contains enough pronounced outliers for the accuracy
    /// columns to be meaningful.
    pub fn trace(&self) -> SyntheticTraceConfig {
        let anomalies = match self {
            PaperScenario::Full => AnomalyModel::default(),
            PaperScenario::Quick => {
                AnomalyModel { spike_probability: 0.03, ..AnomalyModel::default() }
            }
        };
        SyntheticTraceConfig {
            sample_interval_secs: PAPER_SAMPLE_INTERVAL_SECS,
            rounds: self.rounds(),
            anomalies,
            missing_probability: 0.02,
            ..Default::default()
        }
    }

    /// The base experiment configuration shared by every figure: only the
    /// algorithm, `w` and `n` vary between data points.
    pub fn base_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            sensor_count: self.sensor_count(),
            deployment_seed: 1,
            trace: self.trace(),
            trace_seed: 7,
            sim_seed: 1,
            window_samples: PAPER_W,
            n: PAPER_N,
            algorithm: AlgorithmConfig::Global { ranking: RankingChoice::Nn },
            loss: wsn_netsim::radio::LossModel::Reliable,
            transmission_range_m: self.transmission_range_m(),
            backend: wsn_netsim::region::SimBackend::Sequential,
            fault_plan: None,
            liveness_timeout_secs: None,
        }
    }

    /// The configuration of one data point.
    pub fn config(&self, algorithm: AlgorithmConfig, w: u64, n: usize) -> ExperimentConfig {
        self.base_config().with_algorithm(algorithm).with_window_samples(w).with_n(n)
    }
}

/// The `Centralized` series of every figure.
pub const fn centralized() -> AlgorithmConfig {
    AlgorithmConfig::Centralized { ranking: RankingChoice::Nn }
}

/// The `Global-NN` series of Figures 4–6.
pub const fn global_nn() -> AlgorithmConfig {
    AlgorithmConfig::Global { ranking: RankingChoice::Nn }
}

/// The `Global-KNN` series of Figures 4–6 (`k = 4`).
pub const fn global_knn() -> AlgorithmConfig {
    AlgorithmConfig::Global { ranking: RankingChoice::KnnAverage { k: PAPER_K } }
}

/// The `Semi-global, epsilon=ε` series of Figure 7 (NN ranking).
pub const fn semi_global_nn(epsilon: u16) -> AlgorithmConfig {
    AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: epsilon }
}

/// The `Semi-global, epsilon=ε` series of Figures 8–9 (KNN ranking, `k = 4`).
pub const fn semi_global_knn(epsilon: u16) -> AlgorithmConfig {
    AlgorithmConfig::SemiGlobal {
        ranking: RankingChoice::KnnAverage { k: PAPER_K },
        hop_diameter: epsilon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scenario_matches_the_paper_parameters() {
        let s = PaperScenario::Full;
        assert_eq!(s.sensor_count(), 53);
        assert_eq!(s.rounds(), 48);
        assert_eq!(s.seeds(), 4);
        assert!((s.transmission_range_m() - 6.77).abs() < 1e-9);
    }

    #[test]
    fn quick_scenario_is_smaller_in_every_dimension() {
        let full = PaperScenario::Full;
        let quick = PaperScenario::Quick;
        assert!(quick.sensor_count() < full.sensor_count());
        assert!(quick.rounds() < full.rounds());
        assert!(quick.seeds() < full.seeds());
    }

    #[test]
    fn configs_are_valid_and_parameterized() {
        let s = PaperScenario::Quick;
        let c = s.config(global_knn(), 15, 6);
        assert!(c.validate().is_ok());
        assert_eq!(c.window_samples, 15);
        assert_eq!(c.n, 6);
        assert_eq!(c.algorithm.label(), "Global-KNN");
        assert_eq!(s.config(semi_global_nn(2), 10, 4).algorithm.label(), "Semi-global, epsilon=2");
        assert_eq!(s.config(centralized(), 10, 4).algorithm.label(), "Centralized");
        assert_eq!(semi_global_knn(3).label(), "Semi-global, epsilon=3");
        assert_eq!(global_nn().label(), "Global-NN");
    }
}
