//! Reusable experiment runner (§7.1's simulation set-up as a library).
//!
//! Every figure of the evaluation is a sweep over the same kind of run: build
//! the 53-sensor lab deployment, generate its synthetic trace, pick an
//! algorithm (Centralized, Global-NN, Global-KNN, or Semi-global with some
//! hop diameter ε), pick the sliding-window length `w` and the number of
//! reported outliers `n`, simulate, and read off per-node energy and
//! detection accuracy. [`run_experiment`] packages exactly that; the examples
//! and the `wsn-bench` figure harness are thin loops around it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::app::{DetectorApp, SamplingSchedule};
use crate::centralized::CentralizedApp;
use crate::detector::OutlierDetector;
use crate::error::CoreError;
use crate::metrics::{estimates_agree, paired_truths, AccuracyReport, LabelReport};
use crate::node::DetectorNode;
use wsn_data::impute::WindowMeanImputer;
use wsn_data::lab::{LabDeployment, PAPER_TRANSMISSION_RANGE_M};
use wsn_data::stream::SensorStream;
use wsn_data::synth::SyntheticTraceConfig;
use wsn_data::window::WindowConfig;
use wsn_data::{DataPoint, HopCount, SensorId, Timestamp};
use wsn_netsim::fault::{FaultAction, FaultPlan};
use wsn_netsim::radio::{LossModel, RadioConfig};
use wsn_netsim::region::{AnySimulator, SimBackend, SimHandle};
use wsn_netsim::sim::SimConfig;
use wsn_netsim::stats::{MinAvgMax, NetworkStats};
use wsn_netsim::topology::Topology;
use wsn_ranking::{
    KnnAverageDistance, KthNeighborDistance, NeighborCountInverse, NnDistance, OutlierEstimate,
    RankingFunction,
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
    /// Which simulation engine runs the experiment. Both backends produce
    /// bit-for-bit identical outcomes; the partitioned one trades worker
    /// threads for wall-clock time on large deployments.
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
    /// a zero-length window, or an invalid trace configuration.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.sensor_count == 0 {
            return Err(CoreError::InvalidConfig("sensor count must be positive".into()));
        }
        if self.n == 0 {
            return Err(CoreError::InvalidConfig("n must be at least 1".into()));
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
        let secs = self.trace.sample_interval_secs * (self.trace.rounds as f64 + 2.0) + 600.0;
        Timestamp::from_secs_f64(secs)
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

/// Replays a [`FaultPlan`] onto a running simulator, in-band: the simulator
/// is advanced to each event's time before the event is applied, so deaths
/// and joins interleave with protocol traffic exactly where the plan puts
/// them. Joins construct a fresh application via the experiment's app
/// factory, mark it schedule-driven, and install the node's *remaining*
/// sampling rounds (past rounds are skipped, not replayed — a late joiner
/// has no data for them).
pub(crate) struct FaultDriver<'a, A> {
    plan: &'a FaultPlan,
    schedule: &'a SamplingSchedule,
    make_app: Box<dyn FnMut(SensorId) -> A + 'a>,
    /// Index of the next unapplied event of `plan.events()`.
    next: usize,
}

impl<'a, A> FaultDriver<'a, A>
where
    A: wsn_netsim::sim::Application + crate::app::ScheduleDriven,
{
    pub fn new(
        plan: &'a FaultPlan,
        schedule: &'a SamplingSchedule,
        make_app: Box<dyn FnMut(SensorId) -> A + 'a>,
    ) -> Self {
        FaultDriver { plan, schedule, make_app, next: 0 }
    }

    /// Applies every not-yet-applied event scheduled at or before `until`.
    pub fn apply_through<S: SimHandle<A> + ?Sized>(&mut self, sim: &mut S, until: Timestamp) {
        while let Some(ev) = self.plan.events().get(self.next) {
            if ev.at > until {
                break;
            }
            self.next += 1;
            sim.run_until(ev.at);
            match &ev.action {
                FaultAction::Death(id) => sim.remove_node(*id),
                FaultAction::Join { id, position } => {
                    let mut app = (self.make_app)(*id);
                    app.sampling_installed();
                    let _ = sim.add_node(*id, *position, app);
                    sim.schedule_timer_batch(self.schedule.node_batch_after(sim.now(), *id));
                }
            }
        }
    }

    /// Applies all remaining events (call before waiting for quiescence).
    pub fn finish<S: SimHandle<A> + ?Sized>(&mut self, sim: &mut S) {
        self.apply_through(sim, Timestamp::from_micros(u64::MAX));
    }

    /// Index of the next unapplied plan event — the fault-plan cursor a
    /// checkpoint records and a resume validates (see [`crate::persist`]).
    pub fn cursor(&self) -> usize {
        self.next
    }
}

/// Runs one experiment end to end: deployment → trace → simulation → metrics.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for invalid parameters,
/// [`CoreError::DisconnectedNetwork`] when the deployment is not connected at
/// the configured radio range, and propagates trace-generation errors.
pub fn run_experiment(config: &ExperimentConfig) -> Result<ExperimentOutcome, CoreError> {
    config.validate()?;
    let deployment = LabDeployment::with_sensor_count(config.sensor_count, config.deployment_seed)?;
    // Nodes whose first fault event is a join start outside the network and
    // are added by the fault loop when their time comes.
    let absent = config.fault_plan.as_ref().map(FaultPlan::initially_absent).unwrap_or_default();
    let topology = if absent.is_empty() {
        Topology::from_deployment(&deployment, config.transmission_range_m)
    } else {
        let specs: Vec<wsn_data::stream::SensorSpec> =
            deployment.sensors().iter().filter(|s| !absent.contains(&s.id)).copied().collect();
        Topology::from_specs(&specs, config.transmission_range_m)
    };
    if !topology.is_connected() {
        return Err(CoreError::DisconnectedNetwork);
    }
    let mut trace = deployment.generate_trace(&config.trace, config.trace_seed)?;
    // §7.1: missing readings are replaced by the mean of the preceding window.
    WindowMeanImputer::new(config.window_samples as usize).impute_trace(&mut trace);

    let window =
        WindowConfig::from_samples(config.window_samples, config.trace.sample_interval_secs)?;
    let schedule = config.schedule();
    let sim_config = SimConfig {
        radio: RadioConfig::with_range(config.transmission_range_m).with_loss(config.loss),
        seed: config.sim_seed,
        ..Default::default()
    };
    let ranking = config.algorithm.ranking().build();

    match config.algorithm {
        AlgorithmConfig::Global { .. } | AlgorithmConfig::SemiGlobal { .. } => run_distributed(
            config,
            &deployment,
            topology,
            &trace,
            window,
            schedule,
            sim_config,
            ranking,
        ),
        AlgorithmConfig::Centralized { .. } => run_centralized(
            config,
            &deployment,
            topology,
            &trace,
            window,
            schedule,
            sim_config,
            ranking,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_distributed(
    config: &ExperimentConfig,
    deployment: &LabDeployment,
    topology: Topology,
    trace: &wsn_data::stream::DeploymentTrace,
    window: WindowConfig,
    schedule: SamplingSchedule,
    sim_config: SimConfig,
    ranking: Arc<dyn RankingFunction>,
) -> Result<ExperimentOutcome, CoreError> {
    let hop_diameter = config.algorithm.hop_diameter();
    let make_app = |id: SensorId| {
        let stream = trace
            .stream(id)
            .ok()
            .cloned()
            .unwrap_or_else(|| SensorStream::new(deployment.sensors()[0]));
        DetectorApp::new(config.detector(id, ranking.clone(), window), stream, schedule)
    };
    let mut sim: AnySimulator<DetectorApp<_>> = crate::app::any_simulator_with_sampling(
        config.backend,
        sim_config,
        topology,
        &schedule,
        &make_app,
    );
    if let Some(plan) = &config.fault_plan {
        sim.set_duty_cycles(Arc::new(plan.duty_cycles().clone()));
        let mut driver = FaultDriver::new(plan, &schedule, Box::new(make_app));
        driver.finish(&mut sim);
    }
    let quiescent = sim.run_until_quiescent(config.deadline());
    // Under churn the radio graph at the end differs from the initial one;
    // the semi-global d-hop grading scopes are taken over what is actually
    // deployed when the verdict is read.
    let grading_topology = sim.topology().clone();

    // Each node's own data D_i is whatever it currently holds that originated
    // at itself; this is the dataset the correctness theorems are stated over.
    let mut local_data: BTreeMap<SensorId, Vec<DataPoint>> = BTreeMap::new();
    let mut estimates: BTreeMap<SensorId, OutlierEstimate> = BTreeMap::new();
    let mut data_points_sent = 0;
    sim.for_each_app(&mut |id, app| {
        let own: Vec<DataPoint> =
            app.detector().held_points().iter().filter(|p| p.key.origin == id).cloned().collect();
        local_data.insert(id, own);
        estimates.insert(id, app.detector().estimate());
        data_points_sent += app.detector().points_sent();
    });
    let label_keys: BTreeSet<wsn_data::PointKey> = trace.anomaly_keys().into_iter().collect();
    let (truth, label_truth) = paired_truths(
        &ranking,
        config.n,
        &label_keys,
        &local_data,
        hop_diameter.map(|d| (&grading_topology, u32::from(d))),
    );
    let accuracy = truth.grade(&estimates);
    let labels = label_truth.grade(&estimates);
    let all_estimates_agree = hop_diameter.is_none() && estimates_agree(&estimates);
    Ok(ExperimentOutcome {
        label: config.algorithm.label(),
        config: config.clone(),
        stats: sim.network_stats(),
        accuracy,
        labels,
        all_estimates_agree,
        quiescent,
        data_points_sent,
        rounds: config.trace.rounds,
        node_count: config.sensor_count,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_centralized(
    config: &ExperimentConfig,
    deployment: &LabDeployment,
    topology: Topology,
    trace: &wsn_data::stream::DeploymentTrace,
    window: WindowConfig,
    schedule: SamplingSchedule,
    sim_config: SimConfig,
    ranking: Arc<dyn RankingFunction>,
) -> Result<ExperimentOutcome, CoreError> {
    let sink = deployment.sink();
    let mut sim: AnySimulator<CentralizedApp<Arc<dyn RankingFunction>>> =
        crate::app::any_simulator_with_sampling(
            config.backend,
            sim_config,
            topology,
            &schedule,
            |id| {
                let stream = trace
                    .stream(id)
                    .ok()
                    .cloned()
                    .unwrap_or_else(|| SensorStream::new(deployment.sensors()[0]));
                CentralizedApp::new(id, sink, ranking.clone(), config.n, window, stream, schedule)
            },
        );
    let quiescent = sim.run_until_quiescent(config.deadline());

    let mut local_data: BTreeMap<SensorId, Vec<DataPoint>> = BTreeMap::new();
    let mut estimates: BTreeMap<SensorId, OutlierEstimate> = BTreeMap::new();
    sim.for_each_app(&mut |id, app| {
        local_data.insert(id, app.local_window().to_vec());
        estimates.insert(id, app.estimate());
    });
    let label_keys: BTreeSet<wsn_data::PointKey> = trace.anomaly_keys().into_iter().collect();
    let (truth, label_truth) = paired_truths(&ranking, config.n, &label_keys, &local_data, None);
    let accuracy = truth.grade(&estimates);
    let labels = label_truth.grade(&estimates);
    let all_estimates_agree = estimates_agree(&estimates);

    Ok(ExperimentOutcome {
        label: config.algorithm.label(),
        config: config.clone(),
        stats: sim.network_stats(),
        accuracy,
        labels,
        all_estimates_agree,
        quiescent,
        data_points_sent: 0,
        rounds: config.trace.rounds,
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
