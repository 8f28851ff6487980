//! Regression test for the agreement-rate floor of Figure 4's archived grid.
//!
//! Four of the grid's 84 archived cells (e.g. Global-NN, `w = 15`,
//! `sim_seed = 2`) report `estimates_agree = false` at quiescence even
//! though the radio is loss-free, flooring the paper-claims agreement rate
//! at 0.75. This is **not** a too-short protocol deadline: the runs are
//! quiescent and every broadcast was delivered. It is *sampling-clock
//! window skew*: the simulator staggers node clocks across 64 slots of
//! 200 µs, so at the instant the run settles, a node whose sampling slot
//! lands exactly on the sliding-window cutoff (`now - w·interval`) still
//! retains one whole epoch of points that every later-slotted node already
//! evicted. Different windows are different detection problems — Theorem 1
//! guarantees agreement on the *union of the current windows*, which the
//! skewed nodes no longer share, so the per-node top-`n` sets can
//! legitimately differ on rank-boundary points.
//!
//! The proof carried by this test: the divergence (a) reproduces at
//! quiescence, and (b) vanishes the moment every node's window is advanced
//! to one common instant — same detectors, same held points, no further
//! protocol traffic. The serving-path fleet (`wsn-fleet`) advances every
//! node to a common per-slide instant by construction, so this skew cannot
//! occur there; `tests/property_fleet.rs` covers that side.

use std::collections::BTreeMap;

use wsn_bench::paper::{global_nn, PaperScenario, PAPER_N};
use wsn_core::app::{simulator_with_sampling, DetectorApp};
use wsn_core::DetectorNode;
use wsn_data::impute::WindowMeanImputer;
use wsn_data::lab::LabDeployment;
use wsn_data::stream::SensorStream;
use wsn_data::window::WindowConfig;
use wsn_data::SensorId;
use wsn_netsim::radio::RadioConfig;
use wsn_netsim::topology::Topology;
use wsn_netsim::SimConfig;

/// The smallest disagreeing cell of the archived grid: Figure 4's
/// Global-NN series at `w = 15`, seed offset 1 (`sim_seed = 2`,
/// `trace_seed = 8`).
#[test]
fn quiescent_window_skew_divergence_is_real_and_clock_alignment_removes_it() {
    let scenario = PaperScenario::Full;
    let mut config = scenario.config(global_nn(), 15, PAPER_N);
    config.sim_seed = 2;
    config.trace_seed = 8;

    let deployment =
        LabDeployment::with_sensor_count(config.sensor_count, config.deployment_seed).unwrap();
    let topology = Topology::from_deployment(&deployment, config.transmission_range_m);
    let mut trace = deployment.generate_trace(&config.trace, config.trace_seed).unwrap();
    WindowMeanImputer::new(config.window_samples as usize).impute_trace(&mut trace);
    let window =
        WindowConfig::from_samples(config.window_samples, config.trace.sample_interval_secs)
            .unwrap();
    let schedule = config.schedule();
    let sim_config = SimConfig {
        radio: RadioConfig::with_range(config.transmission_range_m).with_loss(config.loss),
        seed: config.sim_seed,
        ..Default::default()
    };
    let ranking = config.algorithm.ranking().build();

    let make_app = |id: SensorId| {
        let stream = trace
            .stream(id)
            .ok()
            .cloned()
            .unwrap_or_else(|| SensorStream::new(deployment.sensors()[0]));
        let detector = DetectorNode::new(
            id,
            ranking.clone(),
            config.n,
            config.algorithm.hop_diameter(),
            window,
        );
        DetectorApp::new(detector, stream, schedule)
    };
    let mut sim =
        simulator_with_sampling(config.backend, sim_config, topology, &schedule, &make_app);

    // (a) The run settles (every message delivered, nothing pending) ...
    let quiescent = sim.run_until_quiescent(config.deadline());
    assert!(quiescent, "the loss-free run must reach protocol quiescence");

    // ... yet the estimates disagree: the staggered sampling clocks leave
    // at least one node holding an epoch its peers' windows already
    // evicted.
    let estimates: BTreeMap<_, _> =
        sim.apps().map(|(id, app)| (id, app.detector().estimate())).collect();
    assert!(
        !wsn_core::metrics::estimates_agree(&estimates),
        "the archived divergence no longer reproduces — if a change \
         intentionally aligned the simulator's sampling clocks, re-anchor \
         the agreement floor in the campaign's Figure 4 claims and retire this test"
    );

    // (b) Advance every window to one common instant — no new points, no
    // new messages — and the disagreement disappears: the divergence is
    // window skew, not a protocol error.
    let common_now = config.deadline();
    let mut aligned = BTreeMap::new();
    sim.for_each_app_mut(|id, app| {
        app.detector_mut().advance_time(common_now);
        aligned.insert(id, app.detector().estimate());
    });
    assert!(
        wsn_core::metrics::estimates_agree(&aligned),
        "aligning the windows must restore Theorem 1 agreement"
    );
}
