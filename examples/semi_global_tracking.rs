//! Semi-global (hop-limited) detection for the paper's motivating scenario.
//!
//! §2 motivates in-network outlier detection with acoustic source
//! localization / binary-sensing target tracking: a false detection at one
//! sensor can trigger an expensive tracking service, so *nearby* sensors
//! should cross-check each other's readings and prune false data before it
//! propagates. That is exactly the semi-global algorithm: each sensor
//! computes the outliers of the data sampled within `d` hops of itself.
//!
//! This example builds a chain of sensors watching a quiet corridor, makes
//! one faulty sensor report a phantom detection, and shows how the hop
//! diameter `ε` controls which sensors flag the phantom: its `ε`-hop
//! neighbours do, distant sensors never even receive it.
//!
//! Run with: `cargo run --example semi_global_tracking`

use in_network_outlier::detection::transport::run_to_quiescence;
use in_network_outlier::prelude::*;

const SENSOR_COUNT: u32 = 8;
const FAULTY_SENSOR: u32 = 2;
const ROUNDS: u64 = 6;

/// Builds each sensor's local stream: a calm acoustic-energy level around 1.0
/// with a wild phantom detection at the faulty sensor in round 2.
fn local_readings(sensor: u32) -> Vec<DataPoint> {
    (0..ROUNDS)
        .map(|round| {
            let value = if sensor == FAULTY_SENSOR && round == 2 {
                95.0 // phantom detection: a reading no real source explains
            } else {
                1.0 + 0.01 * f64::from(sensor) + 0.02 * round as f64
            };
            DataPoint::new(
                SensorId(sensor),
                Epoch(round),
                Timestamp::from_secs(round * 30),
                vec![value, f64::from(sensor) * 5.0, 0.0],
            )
            .expect("finite features")
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let window = WindowConfig::from_secs(10_000)?;
    // Sensor `s` hears only its chain neighbours `s − 1` and `s + 1`.
    let chain = (0..SENSOR_COUNT)
        .map(|s| {
            let neighbors = [s.checked_sub(1), (s + 1 < SENSOR_COUNT).then_some(s + 1)];
            (SensorId(s), neighbors.into_iter().flatten().map(SensorId).collect())
        })
        .collect();
    println!(
        "{SENSOR_COUNT} sensors in a chain; sensor {FAULTY_SENSOR} reports a phantom detection (value 95.0)\n"
    );

    for epsilon in [1u16, 2, 3] {
        let mut nodes: Vec<DetectorNode<NnDistance>> = (0..SENSOR_COUNT)
            .map(|sensor| {
                let mut node =
                    DetectorNode::new(SensorId(sensor), NnDistance, 1, Some(epsilon), window);
                node.add_local_points(local_readings(sensor));
                node
            })
            .collect();
        run_to_quiescence(&mut nodes, &chain);

        let total_points_sent: u64 = nodes.iter().map(|n| n.points_sent()).sum();
        print!("epsilon = {epsilon}: sensors flagging the phantom:");
        for node in &nodes {
            let estimate = node.estimate();
            let flags_phantom =
                estimate.points().first().map(|p| p.features[0] == 95.0).unwrap_or(false);
            if flags_phantom {
                print!(" {}", node.id());
            }
        }
        println!("   (data points moved: {total_points_sent})");
    }

    println!();
    println!(
        "Sensors within epsilon hops of the fault detect it and can suppress the phantom \
         before the tracking service is invoked; sensors farther away never spend energy on it."
    );
    Ok(())
}
