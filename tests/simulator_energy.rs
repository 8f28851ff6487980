//! Cross-crate checks of the simulation substrate the evaluation rests on:
//! the Crossbow energy constants, promiscuous-listening charges, airtime
//! scaling with packet size, and the deployment/topology properties §7.1
//! states (53 sensors, 50 m × 50 m, ~6.77 m range, connected multi-hop
//! network).

use in_network_outlier::data::lab::{LabDeployment, LAB_SENSOR_COUNT, PAPER_TRANSMISSION_RANGE_M};
use in_network_outlier::detection::app::{simulator_with_sampling, DetectorApp, SamplingSchedule};
use in_network_outlier::detection::node::DetectorNode;
use in_network_outlier::netsim::energy::EnergyModel;
use in_network_outlier::netsim::radio::RadioConfig;
use in_network_outlier::prelude::*;
use wsn_data::stream::{SensorReading, SensorStream};
use wsn_data::window::WindowConfig;

#[test]
fn the_paper_deployment_matches_section_7_1() {
    let deployment = LabDeployment::standard(1);
    assert_eq!(deployment.sensor_count(), LAB_SENSOR_COUNT);
    let terrain = deployment.terrain();
    assert!(deployment.sensors().iter().all(|s| terrain.contains(&s.position)));

    let topology = Topology::from_deployment(&deployment, PAPER_TRANSMISSION_RANGE_M);
    assert!(topology.is_connected(), "the deployment must be connected at 6.77 m");
    assert!(topology.diameter() >= 4, "the lab network is genuinely multi-hop");
    assert!(topology.average_degree() < 12.0, "the lab network is sparse");
}

#[test]
fn crossbow_energy_constants_match_the_paper() {
    let model = EnergyModel::crossbow_mote();
    // 0.0159 W transmit, 0.021 W receive, 3 µW idle (§7.1).
    assert!((model.tx_energy(1.0) - 0.0159).abs() < 1e-12);
    assert!((model.rx_energy(1.0) - 0.021).abs() < 1e-12);
    assert!((model.idle_energy(1.0) - 3e-6).abs() < 1e-12);
    // Receiving is more expensive than transmitting for the same airtime,
    // which is why promiscuous listening dominates the RX figures.
    assert!(model.rx_energy(1.0) > model.tx_energy(1.0));
}

#[test]
fn airtime_scales_with_payload_size() {
    let radio = RadioConfig::paper_default();
    let small = radio.airtime_secs(10);
    let large = radio.airtime_secs(1_000);
    assert!(large > small);
    // At 38.4 kbit/s, a kilobyte-ish packet takes an appreciable fraction of
    // a second — the airtime the energy model charges.
    assert!(large > 0.1 && large < 5.0, "airtime {large} s is implausible");
}

/// A two-node simulation in which node 0 broadcasts one protocol packet;
/// verifies who pays what according to the Crossbow model.
#[test]
fn every_in_range_node_pays_receive_energy_for_a_broadcast() {
    let deployment = LabDeployment::standard(3);
    let topology = Topology::from_deployment(&deployment, PAPER_TRANSMISSION_RANGE_M);
    let schedule = SamplingSchedule::new(30.0, 2);
    let window = WindowConfig::from_samples(10, 30.0).unwrap();
    let mut sim = simulator_with_sampling(SimConfig::default(), topology, &schedule, |id| {
        let spec = *deployment.sensors().iter().find(|s| s.id == id).unwrap();
        let mut stream = SensorStream::new(spec);
        for round in 0..2u64 {
            stream.readings.push(SensorReading::present(
                Epoch(round),
                Timestamp::from_secs(round * 30),
                21.0 + id.raw() as f64 * 0.05,
            ));
        }
        DetectorApp::new(DetectorNode::new(id, NnDistance, 2, None, window), stream, schedule)
    });
    assert!(sim.run_until_quiescent(Timestamp::from_secs(400)));
    let stats = sim.network_stats();

    // Everybody transmitted something and everybody overheard something.
    assert!(stats.total_packets_sent() >= 53);
    for (id, energy) in &stats.energy {
        assert!(energy.tx_joules > 0.0, "node {id} paid no transmit energy");
        assert!(energy.rx_joules > 0.0, "node {id} paid no receive energy");
        assert!(energy.idle_joules > 0.0, "node {id} accrued no idle energy");
    }
    // Network-wide, promiscuous receive energy dominates transmit energy
    // (every broadcast is heard by several neighbours, each at 0.021 W).
    let tx: f64 = stats.tx_energy_per_node().iter().sum();
    let rx: f64 = stats.rx_energy_per_node().iter().sum();
    assert!(rx > tx, "rx {rx} J should exceed tx {tx} J under promiscuous listening");
}

#[test]
fn packet_loss_costs_energy_but_delivers_nothing() {
    // Even a 100%-lossy channel charges listeners for the airtime they spent
    // receiving garbage — energy is spent, data is not delivered.
    let deployment = LabDeployment::standard(5);
    let reliable_stats;
    let lossy_stats;
    {
        let run = |loss: LossModel| {
            let topology = Topology::from_deployment(&deployment, PAPER_TRANSMISSION_RANGE_M);
            let schedule = SamplingSchedule::new(30.0, 2);
            let window = WindowConfig::from_samples(10, 30.0).unwrap();
            let config = SimConfig {
                radio: RadioConfig::with_range(PAPER_TRANSMISSION_RANGE_M).with_loss(loss),
                ..Default::default()
            };
            let mut sim = simulator_with_sampling(config, topology, &schedule, |id| {
                let spec = *deployment.sensors().iter().find(|s| s.id == id).unwrap();
                let mut stream = SensorStream::new(spec);
                stream.readings.push(SensorReading::present(
                    Epoch(0),
                    Timestamp::ZERO,
                    21.0 + id.raw() as f64 * 0.05,
                ));
                stream.readings.push(SensorReading::present(
                    Epoch(1),
                    Timestamp::from_secs(30),
                    21.5 + id.raw() as f64 * 0.05,
                ));
                DetectorApp::new(
                    DetectorNode::new(id, NnDistance, 1, None, window),
                    stream,
                    schedule,
                )
            });
            sim.run_until_quiescent(Timestamp::from_secs(400));
            sim.network_stats()
        };
        reliable_stats = run(LossModel::Reliable);
        lossy_stats = run(LossModel::bernoulli(1.0));
    }
    // With total loss, no node ever accepts foreign data...
    let delivered: u64 = lossy_stats.nodes.values().map(|n| n.packets_received).sum();
    assert_eq!(delivered, 0);
    assert!(lossy_stats.total_packets_dropped() > 0);
    // ...but receive energy was still spent listening to the doomed packets.
    let lossy_rx: f64 = lossy_stats.rx_energy_per_node().iter().sum();
    assert!(lossy_rx > 0.0);
    // And the reliable run, which converses more (answers beget answers),
    // transmits at least as many packets as the mute lossy one.
    assert!(reliable_stats.total_packets_sent() >= lossy_stats.total_packets_sent());
}
