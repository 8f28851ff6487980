//! The worked example of the paper's §5.1, end to end.
//!
//! Two sensors with the exact datasets of the example converge, exchanging
//! only a handful of points, on the global outlier `0.5` — and the amount of
//! communication stays essentially flat as the bulk of the data grows, while
//! a centralized approach's cost grows linearly.

use std::collections::BTreeMap;

use in_network_outlier::detection::transport;
use in_network_outlier::prelude::*;

fn one_dimensional(sensor: u32, values: &[f64]) -> Vec<DataPoint> {
    values
        .iter()
        .enumerate()
        .map(|(epoch, v)| {
            DataPoint::new(SensorId(sensor), Epoch(epoch as u64), Timestamp::ZERO, vec![*v])
                .unwrap()
        })
        .collect()
}

/// Builds the two §5.1 sensors with parameters `a` and `b`.
fn section_5_1(a: u64, b: u64) -> (DetectorNode<NnDistance>, DetectorNode<NnDistance>) {
    let window = WindowConfig::from_secs(1_000).unwrap();
    let mut di: Vec<f64> = vec![0.5, 3.0, 6.0];
    di.extend((10..=a).map(|v| v as f64));
    let mut dj: Vec<f64> = vec![4.0, 5.0, 7.0, 8.0, 9.0];
    dj.extend((a + 1..=a + b).map(|v| v as f64));

    let mut pi = DetectorNode::new(SensorId(1), NnDistance, 1, None, window);
    let mut pj = DetectorNode::new(SensorId(2), NnDistance, 1, None, window);
    pi.add_local_points(one_dimensional(1, &di));
    pj.add_local_points(one_dimensional(2, &dj));
    (pi, pj)
}

/// Runs the two nodes to quiescence; returns data points exchanged.
fn run_to_quiescence(pi: &mut DetectorNode<NnDistance>, pj: &mut DetectorNode<NnDistance>) -> u64 {
    let adjacency =
        BTreeMap::from([(SensorId(1), vec![SensorId(2)]), (SensorId(2), vec![SensorId(1)])]);
    transport::run_to_quiescence([pi, pj], &adjacency).points
}

#[test]
fn both_sensors_converge_on_the_correct_outlier() {
    let (mut pi, mut pj) = section_5_1(20, 15);
    // Before communication, p_i's estimate is the wrong point 6 (§5.1 step 1).
    assert_eq!(pi.estimate().points()[0].features, vec![6.0]);
    run_to_quiescence(&mut pi, &mut pj);
    assert_eq!(pi.estimate().points()[0].features, vec![0.5]);
    assert_eq!(pj.estimate().points()[0].features, vec![0.5]);
    assert!(pi.estimate().same_outliers_as(&pj.estimate()));
}

#[test]
fn communication_is_a_handful_of_points_not_the_dataset() {
    let (mut pi, mut pj) = section_5_1(20, 15);
    let exchanged = run_to_quiescence(&mut pi, &mut pj);
    // The paper's run moves 4 points; a different tie-breaking order may move
    // a couple more, but it stays nowhere near the centralized cost
    // min{a-6, b+5} = 14.
    assert!(exchanged <= 6, "exchanged {exchanged} points");
}

#[test]
fn communication_stays_flat_as_the_data_grows() {
    let mut costs = Vec::new();
    for (a, b) in [(20, 15), (60, 40), (150, 100)] {
        let (mut pi, mut pj) = section_5_1(a, b);
        costs.push(run_to_quiescence(&mut pi, &mut pj));
    }
    // Centralized cost would have grown from 14 to 105 points; the
    // distributed cost is proportional to the outcome, not the data size.
    assert!(costs.iter().all(|&c| c <= 8), "costs were {costs:?}");
}

#[test]
fn termination_is_detected_locally() {
    let (mut pi, mut pj) = section_5_1(25, 20);
    run_to_quiescence(&mut pi, &mut pj);
    // After termination neither node, processing a spurious event, sends
    // anything further.
    assert!(pi.process(&[SensorId(2)]).is_none());
    assert!(pj.process(&[SensorId(1)]).is_none());
}

#[test]
fn a_late_data_change_restarts_convergence() {
    let (mut pi, mut pj) = section_5_1(20, 15);
    run_to_quiescence(&mut pi, &mut pj);
    // A new, even more extreme reading appears at p_j (the paper's "D_i
    // changes" event). The algorithm reacts and re-converges.
    pj.add_local_points(vec![DataPoint::new(
        SensorId(2),
        Epoch(999),
        Timestamp::ZERO,
        vec![-50.0],
    )
    .unwrap()]);
    let exchanged = run_to_quiescence(&mut pi, &mut pj);
    assert!(exchanged > 0, "the new outlier must be communicated");
    assert_eq!(pi.estimate().points()[0].features, vec![-50.0]);
    assert!(pi.estimate().same_outliers_as(&pj.estimate()));
}
