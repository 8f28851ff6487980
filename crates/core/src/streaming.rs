//! The experiment driver: one deploy → simulate → grade pipeline with two
//! entry points.
//!
//! Every run goes through the same code. It validates the configuration,
//! builds the topology (nodes a fault plan joins later start outside it),
//! imputes the trace's missing readings (§7.1), builds the simulator for
//! the configured algorithm, replays the fault plan in-band, and grades
//! every live node's estimate against the ground truth over the points the
//! nodes hold. The driver accepts any [`DeploymentTrace`] (synthetic, a
//! `wsn-workload` scenario, or a replayed Intel trace) and any
//! [`AlgorithmConfig`] (global, semi-global, centralized).
//!
//! The two entry points differ only in *when* they grade:
//!
//! * [`StreamingExperiment`] grades at **every window slide** (every
//!   sampling round). A deployed network is never in a finished state: data
//!   keeps arriving, the window keeps sliding, and what matters is how the
//!   protocol tracks the moving answer *while it runs*. Each [`SlideReport`]
//!   grades the slide against its own ground truth `O_n` (recomputed over
//!   what the nodes hold at that instant) and the injected labels, records
//!   whether the estimates agree (Theorem 1's property, which sets the
//!   convergence-latency clock), and accounts the slide's marginal cost.
//! * [`crate::experiment::run_experiment`], the paper's evaluation mode
//!   (§7.2, Figures 4–9), runs **no slide loop** and grades once, after the
//!   quiescent tail. Grading every slide would add wall time for answers no
//!   batch caller reads. Stopping at slides would also change the result:
//!   `run_until` moves the simulated clock up to each slide's evaluation
//!   instant, which charges the radios idle energy a batch run never
//!   spends, and idle energy feeds the Figure 5/6 totals.
//!
//! # Crash safety
//!
//! [`StreamingExperiment::checkpoint_every_slides`] makes the driver write
//! an atomic, checksummed snapshot of every node's canonical state (plus the
//! slide reports, delta baseline and fault-plan cursor) every `k` slides;
//! [`StreamingExperiment::resume_from`] picks a killed run back up from the
//! latest checkpoint. Because the whole simulation is deterministic (seeded
//! RNG, intrinsic event order), the resume path **replays** the simulation
//! up to the checkpoint slide — which reconstructs transport state
//! (schedules, in-flight messages, AODV routes) exactly — then validates
//! the replayed detector state against the snapshot bit-for-bit and
//! installs the snapshot through the live restore path. A resumed run
//! therefore continues *bit-for-bit identical* to one that was never
//! stopped, on either backend, under any fault plan; a torn or mismatched
//! checkpoint is refused with a typed [`PersistError`], never loaded.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::app::{DetectorApp, SamplingSchedule, ScheduleDriven};
use crate::centralized::CentralizedApp;
use crate::detector::OutlierDetector;
use crate::error::CoreError;
use crate::experiment::{AlgorithmConfig, ExperimentConfig};
use crate::metrics::{estimates_agree, paired_truths, AccuracyReport, LabelReport};
use crate::node::DetectorNode;
use crate::persist::{self, PersistError};
use wsn_data::impute::WindowMeanImputer;
use wsn_data::lab::LabDeployment;
use wsn_data::stream::{DeploymentTrace, SensorStream};
use wsn_data::window::WindowConfig;
use wsn_data::{DataPoint, HopCount, PointKey, SensorId, Timestamp};
use wsn_json::JsonValue;
use wsn_netsim::fault::{FaultAction, FaultPlan};
use wsn_netsim::radio::RadioConfig;
use wsn_netsim::region::{AnySimulator, SimHandle};
use wsn_netsim::sim::{Application, SimConfig};
use wsn_netsim::stats::NetworkStats;
use wsn_netsim::topology::Topology;
use wsn_ranking::{OutlierEstimate, RankingFunction};

/// What the streaming driver needs to read off a running application at
/// every slide, over and above [`Application`].
trait StreamingProbe {
    /// The node's current outlier estimate.
    fn streaming_estimate(&self) -> OutlierEstimate;
    /// The node's own current data `D_i` (what the ground truth is over).
    fn streaming_own_points(&self, id: SensorId) -> Vec<DataPoint>;
    /// Cumulative protocol data points this node has broadcast.
    fn streaming_points_sent(&self) -> u64;
    /// The node's canonical persisted state (see [`crate::persist`]).
    fn persist_snapshot(&self) -> JsonValue;
    /// Installs a snapshot previously taken by
    /// [`StreamingProbe::persist_snapshot`].
    fn persist_restore(&mut self, dump: &JsonValue) -> Result<(), PersistError>;
}

impl StreamingProbe for DetectorApp<DetectorNode<Arc<dyn RankingFunction>>> {
    fn streaming_estimate(&self) -> OutlierEstimate {
        self.detector().estimate()
    }

    fn streaming_own_points(&self, id: SensorId) -> Vec<DataPoint> {
        self.detector().held_points().iter().filter(|p| p.key.origin == id).cloned().collect()
    }

    fn streaming_points_sent(&self) -> u64 {
        self.detector().points_sent()
    }

    fn persist_snapshot(&self) -> JsonValue {
        self.detector().persist_snapshot()
    }

    fn persist_restore(&mut self, dump: &JsonValue) -> Result<(), PersistError> {
        self.detector_mut().persist_restore(dump)
    }
}

impl StreamingProbe for CentralizedApp<Arc<dyn RankingFunction>> {
    fn streaming_estimate(&self) -> OutlierEstimate {
        self.estimate()
    }

    fn streaming_own_points(&self, _id: SensorId) -> Vec<DataPoint> {
        self.local_window().to_vec()
    }

    fn streaming_points_sent(&self) -> u64 {
        0 // the centralized baseline ships windows, not protocol points
    }

    fn persist_snapshot(&self) -> JsonValue {
        CentralizedApp::persist_snapshot(self)
    }

    fn persist_restore(&mut self, dump: &JsonValue) -> Result<(), PersistError> {
        CentralizedApp::persist_restore(self, dump)
    }
}

/// The measurements taken at one window slide.
#[derive(Debug, Clone, PartialEq)]
pub struct SlideReport {
    /// The slide (= sampling round) index, starting at 0.
    pub slide: usize,
    /// Simulation time at which the slide was evaluated (just before the
    /// next round's first sample).
    pub at: Timestamp,
    /// Number of points currently held across all nodes' own windows.
    pub window_points: usize,
    /// Per-node accuracy against this slide's ground truth `O_n`.
    pub accuracy: AccuracyReport,
    /// Per-node precision/recall against the injected ground-truth labels
    /// currently in scope.
    pub labels: LabelReport,
    /// Whether every node's estimate agreed with every other node's at this
    /// slide (global/centralized; for the semi-global algorithm, whether
    /// every node matched its own `d`-hop ground truth).
    pub estimates_agree: bool,
    /// Packets transmitted network-wide since the previous slide.
    pub packets_delta: u64,
    /// Payload bytes transmitted network-wide since the previous slide.
    pub bytes_delta: u64,
    /// Protocol data points broadcast since the previous slide (zero for
    /// the centralized baseline).
    pub data_points_delta: u64,
    /// Average per-node transmit energy spent this slide, in joules.
    pub avg_tx_energy_delta: f64,
    /// Average per-node receive energy spent this slide, in joules.
    pub avg_rx_energy_delta: f64,
}

/// Cumulative totals used to derive per-slide deltas.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    packets: u64,
    bytes: u64,
    tx_joules: f64,
    rx_joules: f64,
    data_points: u64,
}

impl Totals {
    fn of(stats: &NetworkStats, data_points: u64) -> Totals {
        Totals {
            packets: stats.total_packets_sent(),
            bytes: stats.total_bytes_sent(),
            tx_joules: stats.tx_energy_per_node().iter().sum(),
            rx_joules: stats.rx_energy_per_node().iter().sum(),
            data_points,
        }
    }

    fn to_json(self) -> JsonValue {
        JsonValue::Object(vec![
            ("packets".into(), JsonValue::from(self.packets)),
            ("bytes".into(), JsonValue::from(self.bytes)),
            ("tx_joules".into(), JsonValue::Number(self.tx_joules)),
            ("rx_joules".into(), JsonValue::Number(self.rx_joules)),
            ("data_points".into(), JsonValue::from(self.data_points)),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<Totals, PersistError> {
        Ok(Totals {
            packets: persist::u64_field(value, "packets")?,
            bytes: persist::u64_field(value, "bytes")?,
            tx_joules: persist::f64_field(value, "tx_joules")?,
            rx_joules: persist::f64_field(value, "rx_joules")?,
            data_points: persist::u64_field(value, "data_points")?,
        })
    }
}

fn accuracy_to_json(report: &AccuracyReport) -> JsonValue {
    JsonValue::Object(vec![
        ("total_nodes".into(), JsonValue::from(report.total_nodes)),
        ("correct_nodes".into(), JsonValue::from(report.correct_nodes)),
        ("incorrect".into(), persist::ids_to_json(report.incorrect.iter().copied())),
        ("missing".into(), persist::ids_to_json(report.missing.iter().copied())),
        ("recall_sum".into(), JsonValue::Number(report.recall_sum)),
    ])
}

fn accuracy_from_json(value: &JsonValue) -> Result<AccuracyReport, PersistError> {
    Ok(AccuracyReport {
        total_nodes: persist::usize_field(value, "total_nodes")?,
        correct_nodes: persist::usize_field(value, "correct_nodes")?,
        incorrect: persist::ids_from_json(persist::field(value, "incorrect")?)?,
        missing: persist::ids_from_json(persist::field(value, "missing")?)?,
        recall_sum: persist::f64_field(value, "recall_sum")?,
    })
}

fn labels_to_json(report: &LabelReport) -> JsonValue {
    JsonValue::Object(vec![
        ("total_nodes".into(), JsonValue::from(report.total_nodes)),
        ("labelled_nodes".into(), JsonValue::from(report.labelled_nodes)),
        ("precision_sum".into(), JsonValue::Number(report.precision_sum)),
        ("recall_sum".into(), JsonValue::Number(report.recall_sum)),
    ])
}

fn labels_from_json(value: &JsonValue) -> Result<LabelReport, PersistError> {
    Ok(LabelReport {
        total_nodes: persist::usize_field(value, "total_nodes")?,
        labelled_nodes: persist::usize_field(value, "labelled_nodes")?,
        precision_sum: persist::f64_field(value, "precision_sum")?,
        recall_sum: persist::f64_field(value, "recall_sum")?,
    })
}

fn slide_to_json(slide: &SlideReport) -> JsonValue {
    JsonValue::Object(vec![
        ("slide".into(), JsonValue::from(slide.slide)),
        ("at".into(), JsonValue::from(slide.at.as_micros())),
        ("window_points".into(), JsonValue::from(slide.window_points)),
        ("accuracy".into(), accuracy_to_json(&slide.accuracy)),
        ("labels".into(), labels_to_json(&slide.labels)),
        ("estimates_agree".into(), JsonValue::from(slide.estimates_agree)),
        ("packets_delta".into(), JsonValue::from(slide.packets_delta)),
        ("bytes_delta".into(), JsonValue::from(slide.bytes_delta)),
        ("data_points_delta".into(), JsonValue::from(slide.data_points_delta)),
        ("avg_tx_energy_delta".into(), JsonValue::Number(slide.avg_tx_energy_delta)),
        ("avg_rx_energy_delta".into(), JsonValue::Number(slide.avg_rx_energy_delta)),
    ])
}

fn slide_from_json(value: &JsonValue) -> Result<SlideReport, PersistError> {
    Ok(SlideReport {
        slide: persist::usize_field(value, "slide")?,
        at: Timestamp::from_micros(persist::u64_field(value, "at")?),
        window_points: persist::usize_field(value, "window_points")?,
        accuracy: accuracy_from_json(persist::field(value, "accuracy")?)?,
        labels: labels_from_json(persist::field(value, "labels")?)?,
        estimates_agree: persist::bool_field(value, "estimates_agree")?,
        packets_delta: persist::u64_field(value, "packets_delta")?,
        bytes_delta: persist::u64_field(value, "bytes_delta")?,
        data_points_delta: persist::u64_field(value, "data_points_delta")?,
        avg_tx_energy_delta: persist::f64_field(value, "avg_tx_energy_delta")?,
        avg_rx_energy_delta: persist::f64_field(value, "avg_rx_energy_delta")?,
    })
}

/// Where and how often the slide loop writes checkpoints.
struct CheckpointCtx {
    every: usize,
    dir: PathBuf,
    config_hash: u64,
}

/// Everything a checkpoint holds, parsed and validated, ready to install.
struct ResumeState {
    /// The next round to run (the checkpoint was taken after `cursor`
    /// slides completed).
    cursor: usize,
    /// The fault-plan cursor at checkpoint time.
    fault_cursor: usize,
    /// Simulation time at checkpoint time.
    at: Timestamp,
    /// Slide reports produced before the checkpoint.
    slides: Vec<SlideReport>,
    /// The delta baseline the next slide subtracts from.
    previous: Totals,
    /// The convergence latency, if reached before the checkpoint.
    convergence: Option<usize>,
    /// Per-node canonical state dumps.
    nodes: BTreeMap<SensorId, JsonValue>,
}

/// Reads and preflight-validates `dir/checkpoint.json` against the live
/// configuration: file header (format, version, checksum) via
/// [`persist::read_verified`], payload kind, and the configuration hash.
fn load_checkpoint(dir: &Path, config: &ExperimentConfig) -> Result<ResumeState, CoreError> {
    let path = dir.join("checkpoint.json");
    let (kind, payload) = persist::read_verified(&path)?;
    if kind != "checkpoint" {
        return Err(PersistError::Mismatch(format!(
            "expected a checkpoint file, found kind \"{kind}\""
        ))
        .into());
    }
    let stored_hash = persist::u64_field(&payload, "config_hash")?;
    let live_hash = persist::config_hash(config);
    if stored_hash != live_hash {
        return Err(PersistError::Mismatch(format!(
            "checkpoint was written by configuration {stored_hash:#x}, this run is {live_hash:#x}"
        ))
        .into());
    }
    let slides = persist::array_field(&payload, "slides")?
        .iter()
        .map(slide_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let mut nodes = BTreeMap::new();
    for entry in persist::array_field(&payload, "nodes")? {
        match entry.as_array() {
            Some([id, dump]) => {
                let id = id
                    .as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| PersistError::Schema("node entry id is not a u32".into()))?;
                nodes.insert(SensorId(id), dump.clone());
            }
            _ => {
                return Err(
                    PersistError::Schema("node entry is not an [id, dump] pair".into()).into()
                )
            }
        }
    }
    Ok(ResumeState {
        cursor: persist::usize_field(&payload, "cursor")?,
        fault_cursor: persist::usize_field(&payload, "fault_cursor")?,
        at: Timestamp::from_micros(persist::u64_field(&payload, "at")?),
        slides,
        previous: Totals::from_json(persist::field(&payload, "previous")?)?,
        convergence: persist::opt_u64_field(&payload, "convergence")?.map(|v| v as usize),
        nodes,
    })
}

/// The full time series a streaming run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingOutcome {
    /// The plot label of the algorithm that ran.
    pub label: String,
    /// One report per window slide, in time order.
    pub slides: Vec<SlideReport>,
    /// The first slide at which the estimates agreed (see
    /// [`SlideReport::estimates_agree`]) — the convergence latency in
    /// slides, `None` if they never did.
    pub convergence_latency_slides: Option<usize>,
    /// Whether the protocol reached quiescence after the last sample — the
    /// "quiescent tail": once injection (and sampling) stops, the chatter
    /// must die out before the deadline.
    pub quiescent_tail: bool,
    /// Link and energy statistics of the whole run (including the tail).
    pub final_stats: NetworkStats,
    /// Total protocol data points broadcast over the whole run.
    pub data_points_sent: u64,
    /// Number of sensors simulated.
    pub node_count: usize,
    /// Number of sampling rounds (= slides) simulated.
    pub rounds: usize,
}

impl StreamingOutcome {
    /// Mean, over slides, of the per-slide exact-match accuracy.
    pub fn mean_slide_accuracy(&self) -> f64 {
        self.mean_over_slides(|s| s.accuracy.accuracy())
    }

    /// Mean, over slides, of the per-slide label precision.
    pub fn mean_label_precision(&self) -> f64 {
        self.mean_over_slides(|s| s.labels.mean_precision())
    }

    /// Mean, over slides, of the per-slide label recall.
    pub fn mean_label_recall(&self) -> f64 {
        self.mean_over_slides(|s| s.labels.mean_recall())
    }

    /// Fraction of slides at which the estimates agreed.
    pub fn agreement_rate(&self) -> f64 {
        self.mean_over_slides(|s| if s.estimates_agree { 1.0 } else { 0.0 })
    }

    /// Average per-node transmit energy per slide, in joules.
    pub fn avg_tx_per_node_per_slide(&self) -> f64 {
        self.per_node_per_slide(self.final_stats.tx_energy_summary().avg)
    }

    /// Average per-node receive energy per slide, in joules.
    pub fn avg_rx_per_node_per_slide(&self) -> f64 {
        self.per_node_per_slide(self.final_stats.rx_energy_summary().avg)
    }

    /// The last slide's report, if any slides ran.
    pub fn final_slide(&self) -> Option<&SlideReport> {
        self.slides.last()
    }

    fn mean_over_slides(&self, f: impl Fn(&SlideReport) -> f64) -> f64 {
        if self.slides.is_empty() {
            return 1.0;
        }
        self.slides.iter().map(f).sum::<f64>() / self.slides.len() as f64
    }

    fn per_node_per_slide(&self, per_node_total: f64) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            per_node_total / self.rounds as f64
        }
    }
}

/// A continuously evaluated experiment, graded at every window slide. The
/// batch entry point, [`crate::experiment::run_experiment`], runs the same
/// driver and grades once, at the end.
#[derive(Debug, Clone)]
pub struct StreamingExperiment {
    config: ExperimentConfig,
    /// `(every, dir)`: write a checkpoint into `dir` every `every` slides.
    checkpoint: Option<(usize, PathBuf)>,
    /// Resume from the checkpoint in this directory before running.
    resume: Option<PathBuf>,
}

impl StreamingExperiment {
    /// Wraps an experiment configuration for streaming evaluation.
    pub fn new(config: ExperimentConfig) -> Self {
        StreamingExperiment { config, checkpoint: None, resume: None }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Writes a crash-safe checkpoint (`checkpoint.json`, atomic +
    /// checksummed; see [`crate::persist`]) into `dir` every `every` slides:
    /// all node state, the slide reports so far, the delta baseline and the
    /// fault-plan cursor. A run killed at any point can then be picked up
    /// with [`StreamingExperiment::resume_from`].
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn checkpoint_every_slides(mut self, every: usize, dir: impl Into<PathBuf>) -> Self {
        assert!(every > 0, "the checkpoint cadence must be at least one slide");
        self.checkpoint = Some((every, dir.into()));
        self
    }

    /// Resumes from the latest checkpoint in `dir` instead of starting at
    /// slide 0: the simulation is replayed (deterministically) up to the
    /// checkpoint slide, the replayed node state is validated against the
    /// snapshot, the snapshot is installed, and the run continues
    /// bit-for-bit as if it had never stopped. A torn, corrupt, or
    /// mismatched checkpoint fails with [`CoreError::Persist`] before any
    /// state is touched.
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume = Some(dir.into());
        self
    }

    /// Generates the configured deployment and synthetic trace and streams
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid parameters,
    /// [`CoreError::DisconnectedNetwork`] for a disconnected layout, and
    /// propagates trace-generation errors.
    pub fn run(&self) -> Result<StreamingOutcome, CoreError> {
        self.run_on_trace(&self.generate_trace()?)
    }

    /// Streams an explicit trace — a `wsn-workload` scenario, a replayed
    /// Intel trace, anything. The trace supplies the sensors (positions and
    /// count), the sampling interval and the number of rounds; the
    /// configuration supplies everything else (algorithm, `w`, `n`, radio
    /// range, loss model, seeds).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the trace is empty and
    /// [`CoreError::DisconnectedNetwork`] if the trace's sensor layout is
    /// not connected at the configured radio range.
    pub fn run_on_trace(&self, trace: &DeploymentTrace) -> Result<StreamingOutcome, CoreError> {
        Ok(self.simulate(trace, Grading::EverySlide)?.0)
    }

    /// The batch run behind [`crate::experiment::run_experiment`]: the
    /// configured trace, simulated with no slide stops and graded once
    /// after the quiescent tail.
    pub(crate) fn settle(&self) -> Result<(StreamingOutcome, Grade), CoreError> {
        let (run, grade) = self.simulate(&self.generate_trace()?, Grading::Settled)?;
        Ok((run, grade.expect("a settled run is graded after its tail")))
    }

    fn generate_trace(&self) -> Result<DeploymentTrace, CoreError> {
        let config = &self.config;
        config.validate()?;
        let deployment =
            LabDeployment::with_sensor_count(config.sensor_count, config.deployment_seed)?;
        Ok(deployment.generate_trace(&config.trace, config.trace_seed)?)
    }

    /// Builds the topology and the simulator for `trace` and drives it.
    fn simulate(
        &self,
        trace: &DeploymentTrace,
        grading: Grading,
    ) -> Result<(StreamingOutcome, Option<Grade>), CoreError> {
        let config = &self.config;
        config.validate()?;
        // Preflight the checkpoint before any simulation work: a torn file
        // or a different experiment's state must fail fast, untouched.
        let resume_state =
            self.resume.as_deref().map(|dir| load_checkpoint(dir, config)).transpose()?;
        let persist_ctx = self.checkpoint.as_ref().map(|(every, dir)| CheckpointCtx {
            every: *every,
            dir: dir.clone(),
            config_hash: persist::config_hash(config),
        });
        // Nodes whose first fault event is a join start outside the network;
        // the fault driver adds them when their time comes.
        let absent =
            config.fault_plan.as_ref().map(FaultPlan::initially_absent).unwrap_or_default();
        let specs: Vec<wsn_data::stream::SensorSpec> =
            trace.sensor_specs().into_iter().filter(|s| !absent.contains(&s.id)).collect();
        let rounds = trace.round_count();
        if specs.is_empty() || rounds == 0 {
            return Err(CoreError::InvalidConfig(
                "a streaming run needs at least one sensor and one round".into(),
            ));
        }
        let topology = Topology::from_specs(&specs, config.transmission_range_m);
        if !topology.is_connected() {
            return Err(CoreError::DisconnectedNetwork);
        }
        let grader = Grader {
            ranking: config.algorithm.ranking().build(),
            n: config.n,
            hop_diameter: config.algorithm.hop_diameter(),
            labels: trace.anomaly_keys().into_iter().collect(),
        };
        let mut imputed = trace.clone();
        WindowMeanImputer::new(config.window_samples as usize).impute_trace(&mut imputed);

        let interval = trace.sample_interval_secs;
        let window = WindowConfig::from_samples(config.window_samples, interval)?;
        let schedule = SamplingSchedule::new(interval, rounds);
        let sim_config = SimConfig {
            radio: RadioConfig::with_range(config.transmission_range_m).with_loss(config.loss),
            seed: config.sim_seed,
            ..Default::default()
        };
        let stream_for = |id: SensorId| -> SensorStream {
            imputed.stream(id).ok().cloned().unwrap_or_else(|| SensorStream::new(specs[0]))
        };
        let label = config.algorithm.label();
        let persist_ctx = persist_ctx.as_ref();

        match config.algorithm {
            AlgorithmConfig::Global { .. } | AlgorithmConfig::SemiGlobal { .. } => {
                let make_app = |id: SensorId| {
                    DetectorApp::new(
                        config.detector(id, grader.ranking.clone(), window),
                        stream_for(id),
                        schedule,
                    )
                };
                let mut sim: AnySimulator<DetectorApp<_>> = crate::app::any_simulator_with_sampling(
                    config.backend,
                    sim_config,
                    topology,
                    &schedule,
                    &make_app,
                );
                let faults = config.fault_plan.as_ref().map(|plan| {
                    sim.set_duty_cycles(Arc::new(plan.duty_cycles().clone()));
                    FaultDriver { plan, schedule: &schedule, make_app: Box::new(make_app), next: 0 }
                });
                drive(
                    &mut sim,
                    &schedule,
                    &grader,
                    faults,
                    label,
                    grading,
                    persist_ctx,
                    resume_state,
                )
            }
            AlgorithmConfig::Centralized { .. } => {
                let sink = wsn_data::lab::default_sink(&specs).expect("at least one sensor exists");
                let mut sim: AnySimulator<CentralizedApp<Arc<dyn RankingFunction>>> =
                    crate::app::any_simulator_with_sampling(
                        config.backend,
                        sim_config,
                        topology,
                        &schedule,
                        |id| {
                            CentralizedApp::new(
                                id,
                                sink,
                                grader.ranking.clone(),
                                config.n,
                                window,
                                stream_for(id),
                                schedule,
                            )
                        },
                    );
                drive(&mut sim, &schedule, &grader, None, label, grading, persist_ctx, resume_state)
            }
        }
    }
}

/// When a run is graded: the one choice that separates the two entry
/// points (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grading {
    /// At every window slide ([`StreamingExperiment`]).
    EverySlide,
    /// Once, after the quiescent tail, with no slide stops
    /// ([`crate::experiment::run_experiment`]).
    Settled,
}

/// What a run is graded against.
struct Grader {
    ranking: Arc<dyn RankingFunction>,
    n: usize,
    /// The semi-global hop diameter `d`; `None` grades every node against
    /// the whole network.
    hop_diameter: Option<HopCount>,
    /// The injected ground-truth anomaly labels of the trace.
    labels: BTreeSet<PointKey>,
}

/// One collect-and-grade pass over the live nodes.
pub(crate) struct Grade {
    /// Points held across all nodes' own windows.
    window_points: usize,
    /// Per-node accuracy against the ground truth `O_n` over those points.
    pub(crate) accuracy: AccuracyReport,
    /// Per-node precision/recall against the injected labels in scope.
    pub(crate) labels: LabelReport,
    /// Whether every node's estimate agrees with every other node's
    /// (Theorem 1's property); `None` under a hop scope, where pairwise
    /// agreement is meaningless.
    pub(crate) agree: Option<bool>,
    /// Protocol data points broadcast so far, network-wide.
    data_points: u64,
}

impl Grader {
    /// Reads every live node's own data `D_i` and estimate, and grades the
    /// estimates against the ground truth over that data. Under churn the
    /// radio graph changes over time, so the `d`-hop grading scopes come
    /// from what is deployed *now*.
    fn grade<A: Application + StreamingProbe, S: SimHandle<A>>(&self, sim: &S) -> Grade {
        let mut local_data: BTreeMap<SensorId, Vec<DataPoint>> = BTreeMap::new();
        let mut estimates: BTreeMap<SensorId, OutlierEstimate> = BTreeMap::new();
        let mut data_points = 0u64;
        {
            let _collect_span = wsn_obs::span("collect");
            sim.for_each_app(&mut |id, app| {
                local_data.insert(id, app.streaming_own_points(id));
                estimates.insert(id, app.streaming_estimate());
                data_points += app.streaming_points_sent();
            });
        }
        let window_points = local_data.values().map(Vec::len).sum();
        let _eval_span = wsn_obs::span("evaluate");
        let (truth, label_truth) = paired_truths(
            &self.ranking,
            self.n,
            &self.labels,
            &local_data,
            self.hop_diameter.map(|d| (sim.topology(), u32::from(d))),
        );
        Grade {
            window_points,
            accuracy: truth.grade(&estimates),
            labels: label_truth.grade(&estimates),
            agree: self.hop_diameter.is_none().then(|| estimates_agree(&estimates)),
            data_points,
        }
    }
}

/// The instant slide `round` is graded: 1 µs before the next round's
/// earliest (unstaggered) sample, so the slide sees everything of round
/// `round` and nothing of round `round + 1`.
fn eval_time(schedule: &SamplingSchedule, round: usize) -> Timestamp {
    let next_round_start =
        Timestamp::from_secs_f64((round + 1) as f64 * schedule.sample_interval_secs);
    Timestamp::from_micros(next_round_start.as_micros().saturating_sub(1))
}

/// Runs a built simulator through every sampling round and the quiescent
/// tail. Under [`Grading::EverySlide`] it stops at each slide's
/// [`eval_time`]: applies the fault-plan events that are due, grades the
/// **live** node set, accounts the slide's marginal cost, and writes a
/// checkpoint when one is due. Under [`Grading::Settled`] it never stops
/// and grades once, after the tail.
#[allow(clippy::too_many_arguments)]
fn drive<A, S>(
    sim: &mut S,
    schedule: &SamplingSchedule,
    grader: &Grader,
    mut faults: Option<FaultDriver<'_, A>>,
    label: String,
    grading: Grading,
    persist: Option<&CheckpointCtx>,
    resume: Option<ResumeState>,
) -> Result<(StreamingOutcome, Option<Grade>), CoreError>
where
    A: Application + StreamingProbe + ScheduleDriven,
    S: SimHandle<A>,
{
    let mut slides = Vec::with_capacity(schedule.rounds);
    let mut previous = Totals::default();
    let mut convergence_latency = None;
    let node_count = sim.topology().len();
    let mut start_round = 0usize;
    if let Some(state) = resume {
        // Fast-forward the deterministic simulation through every slide the
        // checkpoint already covers. Fault events are *applied* (not
        // skipped) so the transport layer — routes, duty cycles, membership
        // — is reconstructed exactly; only the collect/grade work is
        // elided. Replay must land every node on the checkpointed detector
        // state byte-for-byte, otherwise the checkpoint belongs to a
        // different run and loading it would silently corrupt the results.
        let _resume_span = wsn_obs::span("resume");
        for round in 0..state.cursor {
            let eval_at = eval_time(schedule, round);
            if let Some(driver) = faults.as_mut() {
                driver.apply_through(sim, eval_at);
            }
            sim.run_until(eval_at);
        }
        let fault_cursor = faults.as_ref().map_or(0, |f| f.next);
        if fault_cursor != state.fault_cursor {
            return Err(PersistError::Mismatch(format!(
                "replay applied {fault_cursor} fault events but the checkpoint recorded {}",
                state.fault_cursor
            ))
            .into());
        }
        if sim.now() != state.at {
            return Err(PersistError::Mismatch(format!(
                "replay reached t={} µs but the checkpoint was taken at t={} µs",
                sim.now().as_micros(),
                state.at.as_micros()
            ))
            .into());
        }
        let mut install: Result<(), PersistError> = Ok(());
        let mut seen = 0usize;
        sim.for_each_app_mut(&mut |id, app| {
            if install.is_err() {
                return;
            }
            seen += 1;
            match state.nodes.get(&id) {
                None => {
                    install = Err(PersistError::Mismatch(format!(
                        "live node {id} has no snapshot in the checkpoint"
                    )));
                }
                Some(dump) => {
                    if app.persist_snapshot() != *dump {
                        install = Err(PersistError::Mismatch(format!(
                            "replayed state of node {id} diverges from the checkpoint"
                        )));
                    } else {
                        install = app.persist_restore(dump);
                    }
                }
            }
        });
        install?;
        if seen != state.nodes.len() {
            return Err(PersistError::Mismatch(format!(
                "checkpoint holds {} node snapshots but the simulation has {seen} live apps",
                state.nodes.len()
            ))
            .into());
        }
        slides = state.slides;
        previous = state.previous;
        convergence_latency = state.convergence;
        start_round = state.cursor;
    }
    let graded_slides = match grading {
        Grading::EverySlide => schedule.rounds,
        Grading::Settled => 0,
    };
    for round in start_round..graded_slides {
        let eval_at = eval_time(schedule, round);
        // Telemetry spans: the per-slide latency breakdown. Children of
        // "slide" cover the whole body, so `slide/sim + slide/collect +
        // slide/evaluate ≈ slide` (detector and fixed-point time nests
        // under `slide/sim` via the dispatch-site spans).
        let _slide_span = wsn_obs::span("slide");
        {
            let _sim_span = wsn_obs::span("sim");
            if let Some(driver) = faults.as_mut() {
                driver.apply_through(sim, eval_at);
            }
            sim.run_until(eval_at);
        }
        let grade = grader.grade(sim);
        // The semi-global convergence event is "everyone matches their own
        // d-hop ground truth".
        let agree = grade.agree.unwrap_or_else(|| grade.accuracy.all_correct());
        if agree && convergence_latency.is_none() {
            convergence_latency = Some(round);
        }
        let totals = Totals::of(&sim.network_stats(), grade.data_points);
        slides.push(SlideReport {
            slide: round,
            at: sim.now(),
            window_points: grade.window_points,
            accuracy: grade.accuracy,
            labels: grade.labels,
            estimates_agree: agree,
            packets_delta: totals.packets - previous.packets,
            bytes_delta: totals.bytes - previous.bytes,
            data_points_delta: totals.data_points - previous.data_points,
            avg_tx_energy_delta: (totals.tx_joules - previous.tx_joules) / node_count as f64,
            avg_rx_energy_delta: (totals.rx_joules - previous.rx_joules) / node_count as f64,
        });
        previous = totals;
        if let Some(ctx) = persist {
            if (round + 1) % ctx.every == 0 {
                // Nested under the slide span, so telemetry reports the
                // checkpoint cost as `slide/checkpoint`.
                let _ckpt_span = wsn_obs::span("checkpoint");
                let mut nodes: Vec<JsonValue> = Vec::with_capacity(node_count);
                sim.for_each_app(&mut |id, app| {
                    nodes.push(JsonValue::Array(vec![
                        JsonValue::from(id.0),
                        app.persist_snapshot(),
                    ]));
                });
                let payload = JsonValue::Object(vec![
                    ("config_hash".to_string(), JsonValue::from(ctx.config_hash)),
                    ("cursor".to_string(), JsonValue::from(round + 1)),
                    (
                        "fault_cursor".to_string(),
                        JsonValue::from(faults.as_ref().map_or(0, |f| f.next)),
                    ),
                    ("at".to_string(), JsonValue::from(sim.now().as_micros())),
                    (
                        "convergence".to_string(),
                        match convergence_latency {
                            Some(slide) => JsonValue::from(slide),
                            None => JsonValue::Null,
                        },
                    ),
                    ("previous".to_string(), previous.to_json()),
                    (
                        "slides".to_string(),
                        JsonValue::Array(slides.iter().map(slide_to_json).collect()),
                    ),
                    ("nodes".to_string(), JsonValue::Array(nodes)),
                ]);
                std::fs::create_dir_all(&ctx.dir).map_err(|e| {
                    PersistError::Io(format!("create checkpoint dir {}: {e}", ctx.dir.display()))
                })?;
                let bytes = persist::write_atomic(
                    &ctx.dir.join("checkpoint.json"),
                    "checkpoint",
                    &payload,
                )?;
                persist::OBS_SNAPSHOTS_WRITTEN.add(1);
                persist::OBS_SNAPSHOT_BYTES.add(bytes);
                persist::crash_point("persist.after_checkpoint");
            }
        }
    }
    let quiescent_tail = {
        let _tail_span = wsn_obs::span("tail");
        // Any fault events past the last slide still happen before the
        // network is required to settle.
        if let Some(driver) = faults.as_mut() {
            driver.finish(sim);
        }
        sim.run_until_quiescent(schedule.deadline())
    };
    let settled = (grading == Grading::Settled).then(|| grader.grade(sim));
    let mut data_points_sent = 0;
    sim.for_each_app(&mut |_, a| data_points_sent += a.streaming_points_sent());
    let outcome = StreamingOutcome {
        label,
        slides,
        convergence_latency_slides: convergence_latency,
        quiescent_tail,
        final_stats: sim.network_stats(),
        data_points_sent,
        node_count,
        rounds: schedule.rounds,
    };
    Ok((outcome, settled))
}

/// Replays a [`FaultPlan`] onto a running simulator, in-band: the simulator
/// is advanced to each event's time before the event is applied, so deaths
/// and joins interleave with protocol traffic exactly where the plan puts
/// them. Joins construct a fresh application via the experiment's app
/// factory, mark it schedule-driven, and install the node's *remaining*
/// sampling rounds (past rounds are skipped, not replayed — a late joiner
/// has no data for them).
struct FaultDriver<'a, A> {
    plan: &'a FaultPlan,
    schedule: &'a SamplingSchedule,
    make_app: Box<dyn FnMut(SensorId) -> A + 'a>,
    /// Index of the next unapplied event of `plan.events()`: the
    /// fault-plan cursor a checkpoint records and a resume validates.
    next: usize,
}

impl<'a, A> FaultDriver<'a, A>
where
    A: Application + ScheduleDriven,
{
    /// Applies every not-yet-applied event scheduled at or before `until`.
    fn apply_through<S: SimHandle<A> + ?Sized>(&mut self, sim: &mut S, until: Timestamp) {
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
    fn finish<S: SimHandle<A> + ?Sized>(&mut self, sim: &mut S) {
        self.apply_through(sim, Timestamp::from_micros(u64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, RankingChoice};
    use wsn_data::synth::AnomalyModel;
    use wsn_netsim::fault::DutyCycle;

    fn spiky_small(algorithm: AlgorithmConfig) -> ExperimentConfig {
        let mut config = ExperimentConfig::small().with_algorithm(algorithm);
        config.trace.rounds = 6;
        config.trace.anomalies =
            AnomalyModel { spike_probability: 0.08, spike_magnitude: 70.0, ..AnomalyModel::none() };
        config.trace.missing_probability = 0.0;
        config
    }

    #[test]
    fn streaming_produces_one_report_per_slide() {
        let config = spiky_small(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        let outcome = StreamingExperiment::new(config).run().unwrap();
        assert_eq!(outcome.slides.len(), 6);
        assert_eq!(outcome.rounds, 6);
        assert_eq!(outcome.node_count, 9);
        for (i, slide) in outcome.slides.iter().enumerate() {
            assert_eq!(slide.slide, i);
            assert_eq!(slide.accuracy.total_nodes, 9);
        }
        // Reports are monotone in time.
        for pair in outcome.slides.windows(2) {
            assert!(pair[0].at < pair[1].at);
        }
        assert!(outcome.quiescent_tail, "chatter must die out after the last sample");
        assert!(outcome.data_points_sent > 0);
    }

    #[test]
    fn streaming_converges_and_matches_the_batch_experiment_at_the_end() {
        let global = spiky_small(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        // The protocol must have agreed at some slide.
        let streaming = StreamingExperiment::new(global.clone()).run().unwrap();
        assert!(streaming.convergence_latency_slides.is_some());

        // A churned, duty-cycled semi-global network that prunes silent
        // neighbours: two deaths mid-round, one rejoin.
        let mut faulted = spiky_small(AlgorithmConfig::SemiGlobal {
            ranking: RankingChoice::Nn,
            hop_diameter: 2,
        });
        let specs = LabDeployment::with_sensor_count(faulted.sensor_count, faulted.deployment_seed)
            .unwrap()
            .sensors()
            .to_vec();
        let interval = faulted.trace.sample_interval_secs;
        let at = |rounds: f64| Timestamp::from_secs_f64(rounds * interval);
        let mut plan = FaultPlan::new()
            .with_death(at(1.5), specs[2].id)
            .with_death(at(2.5), specs[5].id)
            .with_join(at(3.5), specs[2].id, specs[2].position);
        for (k, spec) in specs.iter().enumerate() {
            let cycle = DutyCycle::from_micros(2_000_000, 1_500_000, 200_000 * k as u64);
            plan = plan.with_duty_cycle(spec.id, cycle);
        }
        faulted = faulted.with_fault_plan(plan).with_liveness_timeout(3.0 * interval);
        let centralized = spiky_small(AlgorithmConfig::Centralized { ranking: RankingChoice::Nn });

        for config in [global, faulted, centralized] {
            // Observing slides must not change what the network does: the
            // same simulation, graded mid-flight instead of once at the end.
            let streaming = StreamingExperiment::new(config.clone()).run().unwrap();
            let batch = run_experiment(&config).unwrap();
            let label = &batch.label;
            assert_eq!(streaming.final_stats.nodes, batch.stats.nodes, "{label}: link counters");
            assert_eq!(streaming.data_points_sent, batch.data_points_sent, "{label}");
            assert_eq!(streaming.quiescent_tail, batch.quiescent, "{label}");
            assert!(streaming.final_stats.energy.keys().eq(batch.stats.energy.keys()), "{label}");
            for (id, s) in &streaming.final_stats.energy {
                let b = &batch.stats.energy[id];
                assert_eq!(s.tx_joules, b.tx_joules, "{label}: TX of node {id}");
                assert_eq!(s.rx_joules, b.rx_joules, "{label}: RX of node {id}");
                // The slide loop's `run_until` moves the clock up to each
                // slide's evaluation instant, which a batch run never does.
                assert!(s.idle_joules >= b.idle_joules, "{label}: idle of node {id}");
            }
        }
    }

    #[test]
    fn streaming_reports_label_precision_and_recall() {
        let config = spiky_small(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        let outcome = StreamingExperiment::new(config).run().unwrap();
        let labelled_slides = outcome.slides.iter().filter(|s| s.labels.has_labels()).count();
        assert!(labelled_slides > 0, "8% spikes over 54 readings must label some slides");
        assert!(outcome.mean_label_precision() > 0.0);
        assert!(outcome.mean_label_recall() > 0.0);
    }

    #[test]
    fn streaming_supports_semi_global_and_centralized() {
        let semi = spiky_small(AlgorithmConfig::SemiGlobal {
            ranking: RankingChoice::Nn,
            hop_diameter: 2,
        });
        let outcome = StreamingExperiment::new(semi).run().unwrap();
        assert_eq!(outcome.slides.len(), 6);
        assert!(outcome.quiescent_tail);

        let central = spiky_small(AlgorithmConfig::Centralized { ranking: RankingChoice::Nn });
        let outcome = StreamingExperiment::new(central).run().unwrap();
        assert_eq!(outcome.slides.len(), 6);
        assert_eq!(outcome.data_points_sent, 0);
        assert!(outcome.final_stats.total_packets_sent() > 0);
    }

    #[test]
    fn slide_deltas_sum_to_no_more_than_the_final_totals() {
        let config = spiky_small(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        let outcome = StreamingExperiment::new(config).run().unwrap();
        let packets: u64 = outcome.slides.iter().map(|s| s.packets_delta).sum();
        let bytes: u64 = outcome.slides.iter().map(|s| s.bytes_delta).sum();
        // The tail (after the last slide) may still transmit, so the slide
        // deltas bound the totals from below.
        assert!(packets <= outcome.final_stats.total_packets_sent());
        assert!(bytes <= outcome.final_stats.total_bytes_sent());
        assert!(packets > 0);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wsn-streaming-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_killed_run_resumes_bit_for_bit() {
        let config = spiky_small(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        let baseline = StreamingExperiment::new(config.clone()).run().unwrap();

        // Kill the run right after its second checkpoint (slide 4 of 6).
        let dir = scratch_dir("kill");
        crate::persist::arm_crash_point("persist.after_checkpoint", 2);
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            StreamingExperiment::new(config.clone()).checkpoint_every_slides(2, &dir).run().unwrap()
        }));
        crate::persist::disarm_crash_points();
        let message = *killed.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains(crate::persist::CRASH_MARKER), "panic was {message:?}");

        // Resuming from the surviving checkpoint reproduces the
        // uninterrupted run exactly — slides, convergence, final stats.
        let resumed = StreamingExperiment::new(config).resume_from(&dir).run().unwrap();
        assert_eq!(resumed, baseline);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resuming_a_finished_run_replays_only_the_tail() {
        // With every=3 the final checkpoint lands after the last slide
        // (cursor == rounds), so resume skips the slide loop entirely.
        let config = spiky_small(AlgorithmConfig::SemiGlobal {
            ranking: RankingChoice::Nn,
            hop_diameter: 2,
        });
        let dir = scratch_dir("tail");
        let baseline = StreamingExperiment::new(config.clone())
            .checkpoint_every_slides(3, &dir)
            .run()
            .unwrap();
        let resumed = StreamingExperiment::new(config).resume_from(&dir).run().unwrap();
        assert_eq!(resumed, baseline);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_a_checkpoint_from_a_different_configuration() {
        let config = spiky_small(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        let dir = scratch_dir("mismatch");
        StreamingExperiment::new(config.clone()).checkpoint_every_slides(2, &dir).run().unwrap();

        let mut other = config.clone();
        other.n = config.n + 1;
        let err = StreamingExperiment::new(other).resume_from(&dir).run().unwrap_err();
        assert!(
            matches!(err, CoreError::Persist(crate::persist::PersistError::Mismatch(_))),
            "expected a config-hash mismatch, got {err:?}"
        );

        // A torn checkpoint is detected, not loaded.
        let path = dir.join("checkpoint.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        let err = StreamingExperiment::new(config).resume_from(&dir).run().unwrap_err();
        assert!(
            matches!(err, CoreError::Persist(crate::persist::PersistError::Corrupt(_))),
            "expected corruption to be refused, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_streaming_configs_are_rejected() {
        let mut config = ExperimentConfig::small();
        config.transmission_range_m = 0.5;
        assert_eq!(
            StreamingExperiment::new(config).run().unwrap_err(),
            CoreError::DisconnectedNetwork
        );
        let empty = DeploymentTrace::new(30.0).unwrap();
        assert!(matches!(
            StreamingExperiment::new(ExperimentConfig::small()).run_on_trace(&empty),
            Err(CoreError::InvalidConfig(_))
        ));
    }
}
