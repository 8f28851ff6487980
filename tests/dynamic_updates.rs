//! Dynamic behaviour across crates (§5.3): streaming data through the
//! sliding window, old outliers aging out, new sensors joining mid-run, and
//! sensors leaving while the network stays connected.

use std::collections::BTreeMap;

use in_network_outlier::detection::transport::run_to_quiescence;
use in_network_outlier::prelude::*;

fn point_at(sensor: u32, epoch: u64, secs: u64, value: f64) -> DataPoint {
    DataPoint::new(SensorId(sensor), Epoch(epoch), Timestamp::from_secs(secs), vec![value]).unwrap()
}

/// The adjacency of a chain of sensors `1 – 2 – … – count`.
fn chain(count: u32) -> BTreeMap<SensorId, Vec<SensorId>> {
    (1..=count)
        .map(|i| {
            let neighbors = [i - 1, i + 1].into_iter().filter(|j| (1..=count).contains(j));
            (SensorId(i), neighbors.map(SensorId).collect())
        })
        .collect()
}

/// Drives two global nodes to quiescence.
fn settle(pi: &mut DetectorNode<NnDistance>, pj: &mut DetectorNode<NnDistance>) {
    run_to_quiescence([pi, pj], &chain(2));
}

#[test]
fn an_outlier_ages_out_of_the_window_everywhere() {
    // Window of 100 seconds. An extreme reading sampled at t=10 dominates the
    // estimates; once the clock passes t=110 it is evicted from every node
    // that learned about it — including the bookkeeping sets — and the
    // estimates move on to current data.
    let window = WindowConfig::from_secs(100).unwrap();
    let mut pi = DetectorNode::new(SensorId(1), NnDistance, 1, None, window);
    let mut pj = DetectorNode::new(SensorId(2), NnDistance, 1, None, window);

    pi.add_local_points(vec![
        point_at(1, 0, 10, -500.0),
        point_at(1, 1, 12, 20.0),
        point_at(1, 2, 14, 21.0),
    ]);
    pj.add_local_points(vec![point_at(2, 0, 11, 22.0), point_at(2, 1, 13, 23.0)]);
    settle(&mut pi, &mut pj);
    assert_eq!(pi.estimate().points()[0].features, vec![-500.0]);
    assert_eq!(pj.estimate().points()[0].features, vec![-500.0]);

    // Time moves on; fresh, unremarkable samples arrive; the spike expires.
    for (node, sensor) in [(&mut pi, 1u32), (&mut pj, 2u32)] {
        node.advance_time(Timestamp::from_secs(150));
        node.add_local_points(vec![
            point_at(sensor, 10, 150, 24.0 + f64::from(sensor)),
            point_at(sensor, 11, 152, 24.2 + f64::from(sensor)),
        ]);
    }
    settle(&mut pi, &mut pj);
    assert!(
        !pi.held_points().iter().any(|p| p.features[0] == -500.0),
        "the expired spike must have been evicted from P_i"
    );
    assert!(!pj.held_points().iter().any(|p| p.features[0] == -500.0));
    assert!(pi.estimate().same_outliers_as(&pj.estimate()));
    assert_ne!(pi.estimate().points()[0].features, vec![-500.0]);
}

#[test]
fn estimates_track_a_stream_of_increasingly_extreme_readings() {
    let window = WindowConfig::from_secs(1_000_000).unwrap();
    let mut pi = DetectorNode::new(SensorId(1), NnDistance, 1, None, window);
    let mut pj = DetectorNode::new(SensorId(2), NnDistance, 1, None, window);
    pi.add_local_points((0..5).map(|e| point_at(1, e, e, 20.0 + e as f64 * 0.1)).collect());
    pj.add_local_points((0..5).map(|e| point_at(2, e, e, 21.0 + e as f64 * 0.1)).collect());
    settle(&mut pi, &mut pj);

    // Each new, more extreme reading changes the agreed answer.
    for (round, extreme) in [(10u64, 50.0), (11, 90.0), (12, -200.0)] {
        pj.add_local_points(vec![point_at(2, round, round, extreme)]);
        settle(&mut pi, &mut pj);
        assert_eq!(pi.estimate().points()[0].features, vec![extreme]);
        assert!(pi.estimate().same_outliers_as(&pj.estimate()));
    }
}

#[test]
fn a_new_sensor_joining_is_just_another_event() {
    // §5.3: "All that is required is to treat the arrival of a new sensor as
    // an event for the new sensor and for all its immediate neighbours."
    let window = WindowConfig::from_secs(1_000_000).unwrap();
    let mut a = DetectorNode::new(SensorId(1), NnDistance, 1, None, window);
    let mut b = DetectorNode::new(SensorId(2), NnDistance, 1, None, window);
    a.add_local_points((0..4).map(|e| point_at(1, e, e, 20.0 + e as f64 * 0.1)).collect());
    b.add_local_points((0..4).map(|e| point_at(2, e, e, 21.0 + e as f64 * 0.1)).collect());
    settle(&mut a, &mut b);
    let before = a.estimate();

    // A third sensor appears next to b, holding the new global outlier.
    let mut c = DetectorNode::new(SensorId(3), NnDistance, 1, None, window);
    c.add_local_points(vec![point_at(3, 0, 5, 400.0), point_at(3, 1, 6, 22.0)]);

    // Run the three-node chain a - b - c to quiescence.
    run_to_quiescence([&mut a, &mut b, &mut c], &chain(3));
    assert_ne!(before.points()[0].features, vec![400.0]);
    for node in [&a, &b, &c] {
        assert_eq!(
            node.estimate().points()[0].features,
            vec![400.0],
            "node {} did not learn the newcomer's outlier",
            node.id()
        );
    }
}

#[test]
fn a_departed_sensors_points_age_out_of_the_window() {
    // §5.3's simple removal strategy: let the departed sensor's points age
    // out of the window rather than chasing them with explicit deletes.
    let window = WindowConfig::from_secs(50).unwrap();
    let mut a = DetectorNode::new(SensorId(1), NnDistance, 1, None, window);
    let mut b = DetectorNode::new(SensorId(2), NnDistance, 1, None, window);
    a.add_local_points(vec![point_at(1, 0, 10, 20.0), point_at(1, 1, 12, 20.4)]);
    b.add_local_points(vec![point_at(2, 0, 11, -300.0), point_at(2, 1, 13, 21.0)]);
    settle(&mut a, &mut b);
    assert_eq!(a.estimate().points()[0].features, vec![-300.0]);

    // Sensor 2 dies. Sensor 1 keeps sampling; after the window slides past
    // the departed sensor's timestamps, no trace of it remains at sensor 1.
    a.advance_time(Timestamp::from_secs(100));
    a.add_local_points(vec![point_at(1, 10, 100, 20.8), point_at(1, 11, 102, 21.2)]);
    run_to_quiescence([&mut a], &chain(1));
    assert!(
        !a.held_points().iter().any(|p| p.key.origin == SensorId(2)),
        "the departed sensor's points must have aged out"
    );
    assert_ne!(a.estimate().points()[0].features, vec![-300.0]);
}

#[test]
fn window_remove_origin_supports_explicit_deletion() {
    // The building block for the paper's "more general and complex solution"
    // (explicitly deleting a removed sensor's points): PointSet and
    // SlidingWindow can purge an origin outright.
    let window = WindowConfig::from_secs(1_000_000).unwrap();
    let mut a = DetectorNode::new(SensorId(1), NnDistance, 1, None, window);
    a.add_local_points(vec![point_at(1, 0, 1, 20.0)]);
    a.receive(SensorId(2), vec![point_at(2, 0, 2, -100.0), point_at(2, 1, 3, -99.0)]);
    assert_eq!(
        a.held_points().iter().filter(|p| p.key.origin == SensorId(2)).count(),
        2,
        "the foreign points are held before the purge"
    );

    let mut held: PointSet = a.held_points().clone();
    let removed = held.remove_origin(SensorId(2));
    assert_eq!(removed, 2);
    assert!(held.iter().all(|p| p.key.origin == SensorId(1)));
}
