//! Property suite over the **full simulator**: complete end-to-end
//! experiments — random connected deployments, random streams with missing
//! readings, sliding windows short enough to evict, and lossy channels —
//! asserting quiescence, hop bounds and estimate sanity on every node
//! (ROADMAP: "property runs over the full simulator (loss + sliding windows
//! end-to-end)").
//!
//! Each property runs `CASES` independent cases derived from the fixed
//! `SEED` through the in-repo PRNG ([`wsn_data::rng::SeededRng`]); a failing
//! case prints its index and the generated scenario parameters.

use in_network_outlier::detection::app::{simulator_with_sampling, DetectorApp, SamplingSchedule};
use in_network_outlier::prelude::*;
use wsn_data::rng::SeededRng;
use wsn_data::stream::{SensorReading, SensorSpec, SensorStream};
use wsn_data::{HopCount, Position};
use wsn_netsim::RadioConfig;

/// Fixed seed for the property loops.
const SEED: u64 = 0x5EED_A007;
/// Property cases per test (each case is a whole simulation).
const CASES: usize = 48;

/// One randomly drawn end-to-end scenario.
#[derive(Debug, Clone)]
struct Scenario {
    nodes: u32,
    rounds: usize,
    window_samples: u64,
    loss_probability: f64,
    missing_probability: f64,
    spike_probability: f64,
    /// `None` runs the global detector, `Some(d)` the semi-global one.
    hop_diameter: Option<HopCount>,
    sim_seed: u64,
}

fn gen_scenario(rng: &mut SeededRng, case: usize) -> Scenario {
    Scenario {
        nodes: rng.gen_range(4u64..11) as u32,
        rounds: rng.gen_range(4usize..8),
        // Short enough that the window slides mid-run.
        window_samples: rng.gen_range(3u64..6),
        loss_probability: if rng.gen_bool(0.5) { rng.gen_range(0.05..0.3) } else { 0.0 },
        missing_probability: rng.gen_range(0.0..0.2),
        spike_probability: rng.gen_range(0.02..0.12),
        hop_diameter: if rng.gen_bool(0.5) {
            Some(rng.gen_range(1u64..4) as HopCount)
        } else {
            None
        },
        sim_seed: SEED ^ case as u64,
    }
}

const SAMPLE_INTERVAL_SECS: f64 = 10.0;
const RADIO_RANGE_M: f64 = 6.0;

/// A connected multi-hop layout: a jittered chain whose consecutive nodes
/// are always within radio range.
fn chain_specs(rng: &mut SeededRng, nodes: u32) -> Vec<SensorSpec> {
    (0..nodes)
        .map(|i| {
            let y = rng.gen_range(-2.0..2.0);
            SensorSpec::new(SensorId(i), Position::new(f64::from(i) * 4.0, y))
        })
        .collect()
}

/// Builds and runs one full simulation; returns the simulator at quiescence
/// together with the deadline verdict.
fn run_scenario(
    rng: &mut SeededRng,
    scenario: &Scenario,
) -> (Simulator<DetectorApp<DetectorNode<NnDistance>>>, bool) {
    let specs = chain_specs(rng, scenario.nodes);
    let topology = Topology::from_specs(&specs, RADIO_RANGE_M);
    assert!(topology.is_connected(), "the generated chain must be connected");
    let schedule = SamplingSchedule::new(SAMPLE_INTERVAL_SECS, scenario.rounds);
    let window = WindowConfig::from_samples(scenario.window_samples, SAMPLE_INTERVAL_SECS).unwrap();
    let config = SimConfig {
        radio: RadioConfig::with_range(RADIO_RANGE_M).with_loss(
            if scenario.loss_probability > 0.0 {
                LossModel::bernoulli(scenario.loss_probability)
            } else {
                LossModel::Reliable
            },
        ),
        seed: scenario.sim_seed,
        ..Default::default()
    };
    // Per-node streams: a tight cluster with occasional spikes and missing
    // readings (imputation is not under test here; missing rounds simply
    // sample nothing).
    let mut streams: Vec<SensorStream> = Vec::new();
    for spec in &specs {
        let mut stream = SensorStream::new(*spec);
        for round in 0..scenario.rounds {
            let epoch = Epoch(round as u64);
            let at = Timestamp::from_secs_f64(round as f64 * SAMPLE_INTERVAL_SECS);
            if rng.gen_bool(scenario.missing_probability) {
                stream.readings.push(SensorReading::missing(epoch, at));
            } else if rng.gen_bool(scenario.spike_probability) {
                stream.readings.push(SensorReading::present(
                    epoch,
                    at,
                    rng.gen_range(-80.0..160.0),
                ));
            } else {
                stream.readings.push(SensorReading::present(epoch, at, rng.gen_range(18.0..24.0)));
            }
        }
        streams.push(stream);
    }
    let n = 2;
    let hop_diameter = scenario.hop_diameter;
    let mut sim = simulator_with_sampling(config, topology, &schedule, |id| {
        let stream = streams[id.raw() as usize].clone();
        DetectorApp::new(
            DetectorNode::new(id, NnDistance, n, hop_diameter, window),
            stream,
            schedule,
        )
    });
    let deadline =
        Timestamp::from_secs_f64(SAMPLE_INTERVAL_SECS * (scenario.rounds as f64 + 2.0) + 600.0);
    let quiescent = sim.run_until_quiescent(deadline);
    (sim, quiescent)
}

#[test]
fn full_simulations_quiesce_and_respect_hop_and_window_bounds() {
    let mut rng = SeededRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let scenario = gen_scenario(&mut rng, case);
        let (sim, quiescent) = run_scenario(&mut rng, &scenario);
        assert!(quiescent, "case {case}: simulation did not quiesce ({scenario:?})");
        let topology = sim.topology();
        for (id, app) in sim.apps() {
            // Window bound: the node advanced its clock to (at least) its
            // own final sample; anything older than that cutoff was evicted.
            let schedule = app.schedule();
            let final_sample = schedule.sample_time(scenario.rounds - 1, id);
            let window_micros =
                WindowConfig::from_samples(scenario.window_samples, SAMPLE_INTERVAL_SECS)
                    .unwrap()
                    .length_micros;
            let cutoff = Timestamp(final_sample.as_micros().saturating_sub(window_micros));
            for p in app.detector().held_points().iter() {
                assert!(
                    p.timestamp >= cutoff,
                    "case {case}: node {id} holds stale point {p} (cutoff {cutoff}, {scenario:?})"
                );
                // Hop bounds, end to end through the real radio/loss stack.
                match scenario.hop_diameter {
                    None => assert_eq!(
                        p.hop, 0,
                        "case {case}: the global algorithm never increments hops ({scenario:?})"
                    ),
                    Some(d) => {
                        assert!(
                            p.hop <= d,
                            "case {case}: node {id} holds {p} beyond d={d} ({scenario:?})"
                        );
                        let bfs = topology.hop_distance(p.key.origin, id);
                        assert!(
                            u32::from(p.hop) >= bfs,
                            "case {case}: {p} at node {id} claims fewer hops than the \
                             BFS distance {bfs} ({scenario:?})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn full_simulation_estimates_are_sane_under_loss() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 0xE571_AA7E);
    for case in 0..CASES {
        let scenario = gen_scenario(&mut rng, case);
        let (sim, quiescent) = run_scenario(&mut rng, &scenario);
        assert!(quiescent, "case {case}: simulation did not quiesce ({scenario:?})");
        for (id, app) in sim.apps() {
            let held = app.detector().held_points();
            let estimate = app.detector().estimate();
            assert!(
                estimate.len() <= 2,
                "case {case}: node {id} reports more than n outliers ({scenario:?})"
            );
            if !held.is_empty() {
                assert!(
                    !estimate.is_empty(),
                    "case {case}: node {id} holds data but reports nothing ({scenario:?})"
                );
            }
            for p in estimate.points() {
                assert!(
                    held.contains_key(&p.key),
                    "case {case}: node {id} reports a point it does not hold ({scenario:?})"
                );
                if let Some(d) = scenario.hop_diameter {
                    assert!(
                        p.hop <= d,
                        "case {case}: node {id} reports beyond its diameter ({scenario:?})"
                    );
                }
            }
        }
    }
}
