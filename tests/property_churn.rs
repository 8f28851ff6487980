//! Dynamic-network resilience as a seeded 256-case property suite.
//!
//! Three property families, 128 + 64 + 64 = 256 cases total:
//!
//! 1. **Fault-plan determinism** (128 cases): a [`FaultProfile`] instantiated
//!    against the same deployment with the same seed yields the identical
//!    [`FaultPlan`], byte for byte, and every scheduled event stays inside
//!    the run and names a deployed sensor. Different seeds pick different
//!    victims — churn is seeded, not hard-coded.
//! 2. **Backend bit-identity under faults** (64 cases): the partitioned
//!    engine must equal the sequential oracle exactly — stats, accuracy,
//!    labels, agreement, quiescence — while nodes die mid-run, rejoin,
//!    duty-cycle their radios, and links drop packets in Gilbert–Elliott
//!    bursts. This is the tentpole claim: spatial parallelism stays
//!    observationally free even on a hostile, changing network.
//! 3. **Self-healing after death** (64 cases): after every death, once the
//!    network settles, no surviving detector retains any per-neighbour state
//!    for a dead node (`shares_state_with` — shared-knowledge sets,
//!    fixed-point chains, liveness entries all pruned, so no
//!    `Arc<DataPoint>` stays pinned by a ghost), and the *live* node set
//!    reaches quiescence before the deadline.

use in_network_outlier::detection::app::{
    any_simulator_with_sampling, DetectorApp, SamplingSchedule, ScheduleDriven,
};
use in_network_outlier::detection::experiment::{
    run_experiment, AlgorithmConfig, ExperimentConfig, RankingChoice,
};
use in_network_outlier::prelude::*;
use wsn_data::lab::LabDeployment;
use wsn_data::stream::{SensorReading, SensorSpec, SensorStream};
use wsn_data::Position;
use wsn_netsim::fault::{FaultAction, FaultPlan};
use wsn_netsim::region::{SimBackend, SimHandle};
use wsn_workload::FaultProfile;

// ---------------------------------------------------------------------------
// Family 1: fault plans are deterministic per seed (128 cases).
// ---------------------------------------------------------------------------

fn profiles() -> Vec<FaultProfile> {
    vec![
        FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.0, duty_cycle: None },
        FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.5, duty_cycle: None },
        FaultProfile { death_fraction: 0.5, rejoin_fraction: 1.0, duty_cycle: None },
        FaultProfile { death_fraction: 0.9, rejoin_fraction: 1.0, duty_cycle: None },
        FaultProfile { death_fraction: 0.0, rejoin_fraction: 0.0, duty_cycle: Some((2.0, 0.5)) },
        FaultProfile { death_fraction: 0.0, rejoin_fraction: 0.0, duty_cycle: Some((4.0, 0.75)) },
        FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.5, duty_cycle: Some((2.0, 0.75)) },
        FaultProfile { death_fraction: 0.5, rejoin_fraction: 0.0, duty_cycle: Some((4.0, 0.5)) },
    ]
}

#[test]
fn fault_plans_are_deterministic_per_seed_across_128_cases() {
    let deployment = LabDeployment::with_sensor_count(12, 1).unwrap();
    let specs = deployment.sensors();
    let (interval, rounds) = (10.0, 8);
    let horizon = Timestamp::from_secs_f64(interval * (rounds as f64 + 1.0));
    let mut cases = 0usize;
    for profile in profiles() {
        let mut plans = Vec::new();
        for seed in 0..16u64 {
            cases += 1;
            let plan = profile.instantiate(specs, interval, rounds, seed);
            let replay = profile.instantiate(specs, interval, rounds, seed);
            assert_eq!(plan, replay, "profile {profile:?} seed {seed} is not deterministic");
            for event in plan.events() {
                assert!(
                    event.at > Timestamp::ZERO && event.at < horizon,
                    "profile {profile:?} seed {seed}: event outside the run at {:?}",
                    event.at
                );
                assert!(
                    specs.iter().any(|s| s.id == event.action.node()),
                    "profile {profile:?} seed {seed}: event names an undeployed sensor"
                );
            }
            let expected_deaths = ((specs.len() as f64 * profile.death_fraction).round() as usize)
                .min(specs.len() - 1);
            let deaths =
                plan.events().iter().filter(|e| matches!(e.action, FaultAction::Death(_))).count();
            assert_eq!(deaths, expected_deaths, "profile {profile:?} seed {seed}");
            if profile.duty_cycle.is_some() {
                assert_eq!(plan.duty_cycles().len(), specs.len());
            } else {
                assert!(plan.duty_cycles().is_empty());
            }
            plans.push(plan);
        }
        if profile.death_fraction > 0.0 {
            let distinct: std::collections::BTreeSet<String> =
                plans.iter().map(|p| format!("{p:?}")).collect();
            assert!(
                distinct.len() > 1,
                "profile {profile:?}: 16 seeds must not all pick the same victims"
            );
        }
    }
    assert_eq!(cases, 128, "family 1 is meant to cover exactly 128 cases");
}

// ---------------------------------------------------------------------------
// Family 2: partitioned ≡ sequential, bit for bit, under faults (64 cases).
// ---------------------------------------------------------------------------

/// A bursty channel: ~5 % of transmissions enter a bad period that drops
/// half of everything until the link recovers.
fn bursty() -> LossModel {
    LossModel::gilbert_elliott(0.05, 0.4, 0.01, 0.5)
}

fn faulted_configs() -> Vec<ExperimentConfig> {
    let churn = FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.5, duty_cycle: None };
    let churn_duty =
        FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.5, duty_cycle: Some((2.0, 0.75)) };
    let mut configs = Vec::new();
    for &algorithm in &[
        AlgorithmConfig::Global { ranking: RankingChoice::Nn },
        AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 },
    ] {
        for &loss in &[LossModel::Reliable, bursty()] {
            for &profile in &[churn, churn_duty] {
                for &sensor_count in &[9, 16] {
                    for &(trace_seed, sim_seed, fault_seed) in &[(7, 1, 3), (13, 5, 11)] {
                        let mut config = ExperimentConfig::small().with_algorithm(algorithm);
                        config.loss = loss;
                        config.sensor_count = sensor_count;
                        config.trace_seed = trace_seed;
                        config.sim_seed = sim_seed;
                        let deployment =
                            LabDeployment::with_sensor_count(sensor_count, config.deployment_seed)
                                .unwrap();
                        let plan = profile.instantiate(
                            deployment.sensors(),
                            config.trace.sample_interval_secs,
                            config.trace.rounds,
                            fault_seed,
                        );
                        let timeout = 3.0 * config.trace.sample_interval_secs;
                        config = config.with_fault_plan(plan).with_liveness_timeout(timeout);
                        configs.push(config);
                    }
                }
            }
        }
    }
    configs
}

#[test]
fn partitioned_matches_sequential_under_faults_across_64_cases() {
    let mut cases = 0usize;
    for base in faulted_configs() {
        let sequential = run_experiment(&base).expect("sequential run succeeds");
        for regions in [2, 4] {
            let partitioned =
                run_experiment(&base.clone().with_backend(SimBackend::Partitioned { regions }))
                    .expect("partitioned run succeeds");
            cases += 1;
            let ctx = format!(
                "case {cases}: {} loss={:?} sensors={} trace_seed={} sim_seed={} regions={regions}",
                sequential.label, base.loss, base.sensor_count, base.trace_seed, base.sim_seed,
            );
            assert_eq!(sequential.stats, partitioned.stats, "stats diverged: {ctx}");
            assert_eq!(sequential.accuracy, partitioned.accuracy, "accuracy diverged: {ctx}");
            assert_eq!(sequential.labels, partitioned.labels, "labels diverged: {ctx}");
            assert_eq!(
                sequential.all_estimates_agree, partitioned.all_estimates_agree,
                "agreement diverged: {ctx}"
            );
            assert_eq!(sequential.quiescent, partitioned.quiescent, "quiescence diverged: {ctx}");
            assert_eq!(
                sequential.data_points_sent, partitioned.data_points_sent,
                "protocol traffic diverged: {ctx}"
            );
        }
    }
    assert_eq!(cases, 64, "family 2 is meant to cover exactly 64 cases");
}

// ---------------------------------------------------------------------------
// Family 3: deaths leave no state behind; the live set quiesces (64 cases).
// ---------------------------------------------------------------------------

const INTERVAL: f64 = 10.0;
const ROUNDS: usize = 8;

/// A 3×3 grid, 5 m spacing, 6 m range.
fn grid_specs() -> Vec<SensorSpec> {
    (0..9)
        .map(|i| {
            SensorSpec::new(
                SensorId(i),
                Position::new(f64::from(i % 3) * 5.0, f64::from(i / 3) * 5.0),
            )
        })
        .collect()
}

fn stream_for(spec: SensorSpec) -> SensorStream {
    let mut stream = SensorStream::new(spec);
    for round in 0..ROUNDS {
        let timestamp = Timestamp::from_secs_f64(round as f64 * INTERVAL);
        // Node 8 samples one extreme value so outlier state actually travels.
        let value = if spec.id == SensorId(8) && round == 1 {
            -250.0
        } else {
            20.0 + f64::from(spec.id.raw()) + round as f64 * 0.01
        };
        stream.readings.push(SensorReading::present(Epoch(round as u64), timestamp, value));
    }
    stream
}

/// Walks the plan's timeline against a live simulator: the inlined
/// equivalent of the experiment runner's fault driver.
fn apply_plan<D: OutlierDetector + Clone>(
    sim: &mut (impl SimHandle<DetectorApp<D>> + ?Sized),
    plan: &FaultPlan,
    schedule: &SamplingSchedule,
    make_app: &dyn Fn(SensorId) -> DetectorApp<D>,
) {
    for event in plan.events() {
        sim.run_until(event.at);
        match &event.action {
            FaultAction::Death(id) => sim.remove_node(*id),
            FaultAction::Join { id, position } => {
                let mut app = make_app(*id);
                app.sampling_installed();
                sim.add_node(*id, *position, app);
                sim.schedule_timer_batch(schedule.node_batch_after(sim.now(), *id));
            }
        }
    }
}

/// The nodes whose **last** scheduled event is a death — gone for good at
/// the tail of the run.
fn dead_at_tail(plan: &FaultPlan) -> Vec<SensorId> {
    let mut last: std::collections::BTreeMap<SensorId, bool> = Default::default();
    for event in plan.events() {
        last.insert(event.action.node(), matches!(event.action, FaultAction::Death(_)));
    }
    last.into_iter().filter(|(_, dead)| *dead).map(|(id, _)| id).collect()
}

fn assert_churn_leaves_no_ghost_state<F>(backend: SimBackend, seed: u64, make_detector: F)
where
    F: Fn(SensorId) -> DetectorNode<NnDistance>,
{
    let specs = grid_specs();
    let topology = Topology::from_specs(&specs, 6.0);
    let schedule = SamplingSchedule::new(INTERVAL, ROUNDS);
    let profile = FaultProfile { death_fraction: 0.34, rejoin_fraction: 0.5, duty_cycle: None };
    let plan = profile.instantiate(&specs, INTERVAL, ROUNDS, seed);
    assert!(!plan.events().is_empty(), "the profile must schedule churn");

    let make_app = |id: SensorId| {
        let spec = specs.iter().find(|s| s.id == id).copied().unwrap();
        DetectorApp::new(make_detector(id), stream_for(spec), schedule)
    };
    let config = wsn_netsim::sim::SimConfig { seed, ..Default::default() };
    let mut sim = any_simulator_with_sampling(backend, config, topology, &schedule, make_app);
    apply_plan(&mut sim, &plan, &schedule, &make_app);

    // Live-set quiescence: whatever the churn did, the surviving network
    // terminates.
    assert!(
        sim.run_until_quiescent(Timestamp::from_secs(600)),
        "backend {backend:?} seed {seed}: live set failed to quiesce"
    );

    let dead = dead_at_tail(&plan);
    assert!(!dead.is_empty(), "seed {seed}: at least one node stays dead");
    let mut live = 0usize;
    sim.for_each_app(&mut |id, app: &DetectorApp<DetectorNode<NnDistance>>| {
        live += 1;
        assert!(!dead.contains(&id), "backend {backend:?} seed {seed}: {id} is dead yet present");
        for d in &dead {
            assert!(
                !app.detector().shares_state_with(*d),
                "backend {backend:?} seed {seed}: survivor {id} retains state for dead {d}"
            );
        }
    });
    assert_eq!(live, 9 - dead.len(), "backend {backend:?} seed {seed}: live-set size");
}

#[test]
fn deaths_leave_no_ghost_state_across_64_cases() {
    let mut cases = 0usize;
    for backend in [SimBackend::Sequential, SimBackend::Partitioned { regions: 4 }] {
        for seed in 0..16u64 {
            let window = WindowConfig::from_samples(ROUNDS as u64 + 5, INTERVAL).unwrap();
            cases += 1;
            assert_churn_leaves_no_ghost_state(backend, seed, |id| {
                DetectorNode::new(id, NnDistance, 1, None, window)
                    .with_liveness_timeout(3.0 * INTERVAL)
            });
            cases += 1;
            assert_churn_leaves_no_ghost_state(backend, seed, |id| {
                DetectorNode::new(id, NnDistance, 1, Some(2), window)
                    .with_liveness_timeout(3.0 * INTERVAL)
            });
        }
    }
    assert_eq!(cases, 64, "family 3 is meant to cover exactly 64 cases");
}
