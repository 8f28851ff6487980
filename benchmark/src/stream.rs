//! The streaming workloads: the paper's lab cell and the city deployments,
//! each a synthetic trace streamed through `StreamingExperiment::run_on_trace`
//! once per repetition.

use std::time::{Duration, Instant};

use wsn_core::experiment::{AlgorithmConfig, ExperimentConfig, RankingChoice};
use wsn_core::streaming::{StreamingExperiment, StreamingOutcome};
use wsn_data::lab::LabDeployment;
use wsn_data::stream::DeploymentTrace;
use wsn_data::synth::SyntheticTraceConfig;
use wsn_netsim::region::{Partition, SimBackend};
use wsn_netsim::topology::Topology;

use crate::layers::{self, StreamRun};
use crate::stats::{lower_quartile, millis};
use crate::{Options, Report, Workload};

/// Every run repeats the trace at least this often, so repeated outcomes can
/// be compared (and the traced build gets one telemetry-on and one
/// telemetry-off repetition).
const MIN_REPS: usize = 2;

/// One set-up takes tens of microseconds on the lab and about a millisecond
/// on the city, too short to time alone, so set-ups are timed in batches of
/// at least `SETUP_BATCH`. A batch follows every repetition, so the samples
/// span the run as the repetitions do (the host slows down in bursts of a
/// few seconds), and at least `MIN_SETUP_BATCHES` are taken (the city10k
/// run has only two repetitions). `setup_s` is the lower quartile of the
/// per-set-up batch means.
const SETUP_BATCH: Duration = Duration::from_millis(20);
const MIN_SETUP_BATCHES: usize = 16;

struct Spec {
    /// A constant-density city grid rather than the lab floor plan.
    city: bool,
    sensors: usize,
    rounds: usize,
    config: ExperimentConfig,
    min_accuracy: f64,
}

fn spec(workload: Workload, quick: bool) -> Spec {
    let nn = RankingChoice::Nn;
    let lab = |algorithm| {
        let (sensors, rounds, range) = if quick { (12, 6, 18.0) } else { (53, 48, 6.77) };
        Spec {
            city: false,
            sensors,
            rounds,
            config: ExperimentConfig {
                sensor_count: sensors,
                window_samples: 20,
                n: 4,
                transmission_range_m: range,
                ..ExperimentConfig::default()
            }
            .with_algorithm(algorithm),
            min_accuracy: 1.0,
        }
    };
    let city = |sensors, rounds| Spec {
        city: true,
        sensors,
        rounds,
        config: ExperimentConfig {
            sensor_count: sensors,
            window_samples: 10,
            n: 4,
            ..Default::default()
        }
        .with_algorithm(AlgorithmConfig::SemiGlobal { ranking: nn, hop_diameter: 1 })
        .with_backend(SimBackend::Partitioned { regions: 4 }),
        min_accuracy: 1.0,
    };
    match workload {
        Workload::Lab53GlobalNn => {
            Spec { min_accuracy: 0.99, ..lab(AlgorithmConfig::Global { ranking: nn }) }
        }
        Workload::Lab53Centralized => lab(AlgorithmConfig::Centralized { ranking: nn }),
        Workload::City2kSemiglobal if quick => city(200, 2),
        Workload::City2kSemiglobal => city(2_000, 4),
        Workload::City10kSemiglobal if quick => city(400, 2),
        Workload::City10kSemiglobal => city(10_000, 2),
        Workload::Fleet1k | Workload::Fleet1kCkpt => unreachable!("not a streaming workload"),
    }
}

/// The lab cell's deployment and trace seed. The cell is one fixed dataset,
/// as the paper's Figure 4 is: on 53 sensors, a different layout jitter or
/// trace changes the protocol's work by up to 3×, far more than any
/// regression the benchmark must resolve. The run seed still reaches the
/// simulator seed, which the loss-free channel never draws from.
const LAB_SEED: u64 = 1;

/// Builds the deployment and its trace: the city's layout jitter and
/// readings come from the seed. Returns the trace and the time trace
/// generation alone took.
fn set_up(spec: &Spec, seed: u64) -> Result<(DeploymentTrace, Duration), String> {
    let deployment = if spec.city {
        LabDeployment::city(spec.sensors, seed)
    } else {
        LabDeployment::with_sensor_count(spec.sensors, LAB_SEED)
    }
    .map_err(|e| format!("deployment: {e}"))?;
    let trace_seed = if spec.city { seed } else { LAB_SEED };
    let started = Instant::now();
    let trace_config = SyntheticTraceConfig { rounds: spec.rounds, ..Default::default() };
    let trace =
        deployment.generate_trace(&trace_config, trace_seed).map_err(|e| format!("trace: {e}"))?;
    Ok((trace, started.elapsed()))
}

/// Times `batch` set-ups in a row and returns the mean per set-up; each
/// one's trace generation time goes to `trace_gens`.
fn time_setups(
    spec: &Spec,
    seed: u64,
    batch: u32,
    trace_gens: &mut Vec<Duration>,
) -> Result<Duration, String> {
    let started = Instant::now();
    for _ in 0..batch {
        let (trace, trace_gen) = set_up(spec, seed)?;
        std::hint::black_box(trace);
        trace_gens.push(trace_gen);
    }
    Ok(started.elapsed() / batch)
}

pub fn run(options: &Options) -> Result<Report, String> {
    let spec = spec(options.workload, options.quick);
    let mut report = Report::default();

    // The first set-up builds the trace the run streams and sizes the
    // set-up batches; it is not counted.
    let started = Instant::now();
    let (trace, _) = set_up(&spec, options.seed)?;
    let batch = (SETUP_BATCH.as_secs_f64() / started.elapsed().as_secs_f64()).ceil();
    let batch = batch.clamp(1.0, 1e6) as u32;
    let mut setups = Vec::new();
    let mut trace_gens = Vec::new();

    let config = ExperimentConfig { sim_seed: options.seed, ..spec.config.clone() };
    let experiment = StreamingExperiment::new(config.clone());
    // Outside timings of the simulator's set-up layers, on the workload's
    // own specs; traced runs only, so they never delay an untraced one.
    let (topology_build, partition_build) = if options.traced {
        time_topology(&trace, &config)
    } else {
        (Duration::ZERO, Duration::ZERO)
    };

    let mut first: Option<StreamingOutcome> = None;
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    wsn_obs::reset();
    let measure_started = Instant::now();
    while walls.len() < MIN_REPS || measure_started.elapsed() < options.budget {
        // The traced build alternates telemetry on and off, so the same
        // process measures the tracing overhead.
        let recording = options.traced && walls.len() % 2 == 0;
        wsn_obs::set_enabled(recording);
        let started = Instant::now();
        let result = experiment.run_on_trace(&trace);
        let wall = started.elapsed();
        wsn_obs::set_enabled(false);
        walls.push(wall);
        if recording {
            traced_walls.push(wall);
        } else {
            untraced_walls.push(wall);
        }
        setups.push(time_setups(&spec, options.seed, batch, &mut trace_gens)?);
        report
            .check(result.is_ok(), || format!("run_on_trace failed: {:?}", result.as_ref().err()));
        let Ok(outcome) = result else { continue };
        match &first {
            Some(first) => {
                report.check(&outcome == first, || "a repetition differs from the first".into())
            }
            None => {
                check_outcome(&mut report, &spec, &outcome);
                first = Some(outcome);
            }
        }
    }
    let outcome = first.ok_or("no repetition succeeded")?;
    while setups.len() < MIN_SETUP_BATCHES {
        setups.push(time_setups(&spec, options.seed, batch, &mut trace_gens)?);
    }
    report.set("setup_s", lower_quartile(&millis(&setups)) / 1e3);

    let slides = spec.rounds as f64;
    let node_slides = outcome.node_count as f64 * slides;
    report.set("ms_per_slide", lower_quartile(&millis(&walls)) / slides);
    report.set("accuracy", outcome.mean_slide_accuracy());
    if options.traced {
        let stats = &outcome.final_stats;
        report.set("agreement_rate", outcome.agreement_rate());
        report.set("tx_mj_per_node_per_slide", outcome.avg_tx_per_node_per_slide() * 1e3);
        report.set("packets_per_node_per_slide", stats.total_packets_sent() as f64 / node_slides);
        report.set("points_per_node_per_slide", outcome.data_points_sent as f64 / node_slides);
        report.set("bytes_per_node_per_slide", stats.total_bytes_sent() as f64 / node_slides);
        let run = StreamRun {
            slides,
            traced_walls: &traced_walls,
            untraced_walls: &untraced_walls,
            trace_gen: &trace_gens,
            topology_build,
            partition_build,
        };
        layers::stream(&mut report, &wsn_obs::report(), &run);
    }
    Ok(report)
}

/// The output checks of one streaming outcome.
fn check_outcome(report: &mut Report, spec: &Spec, outcome: &StreamingOutcome) {
    report.check(outcome.slides.len() == spec.rounds, || {
        format!("{} slides for {} rounds", outcome.slides.len(), spec.rounds)
    });
    report.check(outcome.quiescent_tail, || {
        "the protocol did not quiesce after the last slide".into()
    });
    let accuracy = outcome.mean_slide_accuracy();
    report.check(accuracy >= spec.min_accuracy, || {
        format!("accuracy {accuracy} is below {}", spec.min_accuracy)
    });
}

/// Times `Topology::from_specs` and `Partition::grid` on the trace's
/// sensors (the partition only on the partitioned backend).
fn time_topology(trace: &DeploymentTrace, config: &ExperimentConfig) -> (Duration, Duration) {
    let specs = trace.sensor_specs();
    let started = Instant::now();
    let topology = Topology::from_specs(&specs, config.transmission_range_m);
    let topology_build = started.elapsed();
    let partition_build = match config.backend {
        SimBackend::Partitioned { regions } => {
            let started = Instant::now();
            std::hint::black_box(Partition::grid(&topology, regions));
            started.elapsed()
        }
        SimBackend::Sequential => Duration::ZERO,
    };
    (topology_build, partition_build)
}
