//! Quickstart: the two-sensor walk-through of the paper's §5.1.
//!
//! Sensor `p_i` holds `{0.5, 3, 6, 10, 11, …, a}` and sensor `p_j` holds
//! `{4, 5, 7, 8, 9, a+1, …, a+b}`. The global outlier (distance to nearest
//! neighbour, `n = 1`) of the union is `0.5`, but before any communication
//! `p_i` believes it is `6`. The distributed algorithm exchanges only a
//! handful of *sufficient* points — against the dozens a centralized approach
//! would move — and both sensors converge on the correct answer.
//!
//! Run with: `cargo run --example quickstart`

use in_network_outlier::prelude::*;

fn one_dimensional(sensor: u32, values: &[f64]) -> Vec<DataPoint> {
    values
        .iter()
        .enumerate()
        .map(|(epoch, v)| {
            DataPoint::new(SensorId(sensor), Epoch(epoch as u64), Timestamp::ZERO, vec![*v])
                .expect("finite feature")
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let a = 20u64;
    let b = 15u64;

    // The datasets of §5.1.
    let mut di: Vec<f64> = vec![0.5, 3.0, 6.0];
    di.extend((10..=a).map(|v| v as f64));
    let mut dj: Vec<f64> = vec![4.0, 5.0, 7.0, 8.0, 9.0];
    dj.extend((a + 1..=a + b).map(|v| v as f64));

    let window = WindowConfig::from_secs(1_000)?;
    let mut pi = DetectorNode::new(SensorId(1), NnDistance, 1, None, window);
    let mut pj = DetectorNode::new(SensorId(2), NnDistance, 1, None, window);
    pi.add_local_points(one_dimensional(1, &di));
    pj.add_local_points(one_dimensional(2, &dj));

    println!("p_i initially holds {} points, p_j holds {} points", di.len(), dj.len());
    println!(
        "before any communication p_i's estimate is {:?} (the correct global answer is [0.5])",
        pi.estimate().points()[0].features
    );

    // Alternate the two sensors' event handlers until neither has anything
    // left to send — the algorithm's local termination condition. The loop
    // prints each step; `detection::transport::run_to_quiescence` runs the
    // same exchange in one call.
    let mut exchanged = 0usize;
    for step in 1..=20 {
        let mut progress = false;
        if let Some(message) = pi.process(&[SensorId(2)]) {
            let points = message.points_for(SensorId(2));
            println!(
                "step {step}: p_i sends {:?}",
                points.iter().map(|p| p.features[0]).collect::<Vec<_>>()
            );
            exchanged += points.len();
            pj.receive(SensorId(1), points);
            progress = true;
        }
        if let Some(message) = pj.process(&[SensorId(1)]) {
            let points = message.points_for(SensorId(1));
            println!(
                "step {step}: p_j sends {:?}",
                points.iter().map(|p| p.features[0]).collect::<Vec<_>>()
            );
            exchanged += points.len();
            pi.receive(SensorId(2), points);
            progress = true;
        }
        if !progress {
            break;
        }
    }

    let centralized_cost = di.len().min(dj.len());
    println!();
    println!("p_i's final estimate: {:?}", pi.estimate().points()[0].features);
    println!("p_j's final estimate: {:?}", pj.estimate().points()[0].features);
    println!("estimates agree: {}", pi.estimate().same_outliers_as(&pj.estimate()));
    println!(
        "data points exchanged: {exchanged} (centralizing the smaller dataset would have moved {centralized_cost})"
    );
    Ok(())
}
