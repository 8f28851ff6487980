//! Cross-crate behaviour of the semi-global (hop-limited) algorithm:
//! spatial confinement, the ε sweep's energy ordering, and equivalence to the
//! global algorithm once `d` reaches the network diameter.

use in_network_outlier::detection::experiment::{
    run_experiment, AlgorithmConfig, ExperimentConfig, RankingChoice,
};
use in_network_outlier::prelude::*;

fn base_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::small();
    config.sensor_count = 12;
    config.transmission_range_m = 16.0;
    config.trace.rounds = 6;
    config.n = 2;
    config
}

fn semi(epsilon: u16) -> AlgorithmConfig {
    AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: epsilon }
}

#[test]
fn energy_grows_with_the_hop_diameter() {
    // Figure 7's ordering: the farther data is allowed to travel, the more
    // transmit energy the protocol spends.
    let mut tx = Vec::new();
    for epsilon in [1u16, 2, 4] {
        let outcome = run_experiment(&base_config().with_algorithm(semi(epsilon))).unwrap();
        assert!(outcome.quiescent);
        tx.push(outcome.avg_tx_energy_per_node_per_round());
    }
    assert!(tx[0] < tx[1], "epsilon=1 ({}) must cost less than epsilon=2 ({})", tx[0], tx[1]);
    assert!(tx[1] <= tx[2], "epsilon=2 ({}) must not cost more than epsilon=4 ({})", tx[1], tx[2]);
}

#[test]
fn semi_global_costs_less_than_global_detection() {
    let semi_outcome = run_experiment(&base_config().with_algorithm(semi(1))).unwrap();
    let global_outcome = run_experiment(
        &base_config().with_algorithm(AlgorithmConfig::Global { ranking: RankingChoice::Nn }),
    )
    .unwrap();
    assert!(
        semi_outcome.data_points_sent <= global_outcome.data_points_sent,
        "hop-limited detection ({}) moved more points than global detection ({})",
        semi_outcome.data_points_sent,
        global_outcome.data_points_sent
    );
}

#[test]
fn data_never_travels_farther_than_epsilon_hops() {
    // Direct protocol-level check on a chain: with epsilon = 1, a node two
    // hops away from an extreme reading never receives a copy of it.
    let window = WindowConfig::from_secs(10_000).unwrap();
    let mk = |sensor: u32, epoch: u64, value: f64| {
        DataPoint::new(SensorId(sensor), Epoch(epoch), Timestamp::ZERO, vec![value]).unwrap()
    };
    let mut nodes: Vec<DetectorNode<NnDistance>> = (0..4)
        .map(|i| {
            let mut node = DetectorNode::new(SensorId(i), NnDistance, 1, Some(1), window);
            node.add_local_points(
                (0..4).map(|e| mk(i, e, 10.0 * f64::from(i) + e as f64)).collect(),
            );
            node
        })
        .collect();
    nodes[0].add_local_points(vec![mk(0, 99, -400.0)]);

    let ids: Vec<SensorId> = nodes.iter().map(|n| n.id()).collect();
    for _ in 0..50 {
        let mut progress = false;
        for index in 0..nodes.len() {
            let mut neighbors = Vec::new();
            if index > 0 {
                neighbors.push(ids[index - 1]);
            }
            if index + 1 < nodes.len() {
                neighbors.push(ids[index + 1]);
            }
            if let Some(message) = nodes[index].process(&neighbors) {
                progress = true;
                for (peer, peer_id) in ids.iter().enumerate() {
                    let points = message.points_for(*peer_id);
                    if neighbors.contains(peer_id) && !points.is_empty() {
                        let from = ids[index];
                        nodes[peer].receive(from, points);
                    }
                }
            }
        }
        if !progress {
            break;
        }
    }
    // Node 1 (one hop away) holds the extreme reading; nodes 2 and 3 never do.
    assert!(nodes[1].held_points().iter().any(|p| p.features[0] == -400.0));
    assert!(!nodes[2].held_points().iter().any(|p| p.features[0] == -400.0));
    assert!(!nodes[3].held_points().iter().any(|p| p.features[0] == -400.0));
}

#[test]
fn a_large_hop_diameter_reproduces_the_global_answer() {
    // Setting d to at least the network diameter makes the semi-global
    // problem identical to the global one (§6).
    let config = base_config();
    let global_outcome = run_experiment(
        &config.clone().with_algorithm(AlgorithmConfig::Global { ranking: RankingChoice::Nn }),
    )
    .unwrap();
    let wide_outcome = run_experiment(&config.with_algorithm(semi(12))).unwrap();
    assert!(wide_outcome.quiescent);
    // Both are graded against (the same) exact answer; the global algorithm
    // is exact by Theorem 2 and the wide semi-global run must match it.
    assert!(global_outcome.accuracy.all_correct());
    assert!(
        wide_outcome.accuracy() >= global_outcome.accuracy() - 1e-9,
        "wide semi-global accuracy {} fell below global {}",
        wide_outcome.accuracy(),
        global_outcome.accuracy()
    );
}
