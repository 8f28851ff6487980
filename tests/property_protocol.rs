//! Property-based tests of the distributed protocol's invariants, driven by
//! seeded loops over random datasets, random connected topologies and random
//! event interleavings.
//!
//! Each property runs `CASES` independent cases derived from the fixed
//! `SEED` through the in-repo PRNG ([`wsn_data::rng::SeededRng`]); a failing
//! case prints its index and every generated input.

use std::collections::BTreeMap;

use in_network_outlier::detection::detector::OutlierDetector;
use in_network_outlier::detection::metrics::{estimates_agree, GroundTruth};
use in_network_outlier::detection::sufficient::sufficient_set;
use in_network_outlier::prelude::*;
use wsn_data::rng::SeededRng;

/// Fixed seed for the property loops.
const SEED: u64 = 0x5EED_A003;
/// Property cases per test.
const CASES: usize = 256;

fn point(sensor: u32, epoch: u64, value: f64) -> DataPoint {
    DataPoint::new(SensorId(sensor), Epoch(epoch), Timestamp::ZERO, vec![value]).unwrap()
}

/// A random per-sensor dataset: 2 to `sensors` sensors, each with a handful
/// of readings drawn from a mixture of a tight cluster and occasional
/// extremes (the 4:1 mixture the original proptest strategy used).
fn gen_datasets(rng: &mut SeededRng, sensors: usize) -> Vec<Vec<f64>> {
    let count = rng.gen_range(2usize..sensors + 1);
    (0..count)
        .map(|_| {
            let len = rng.gen_range(1usize..8);
            (0..len)
                .map(|_| {
                    if rng.gen_bool(0.8) {
                        rng.gen_range(18.0..24.0)
                    } else {
                        rng.gen_range(-100.0..150.0)
                    }
                })
                .collect()
        })
        .collect()
}

/// A random connected topology over `n` nodes: a random spanning tree plus a
/// few random extra edges.
fn gen_topology(rng: &mut SeededRng, n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for child in 1..n {
        let parent = rng.gen_range(0usize..1_000_000) % child;
        edges.push((parent, child));
    }
    let extras = rng.gen_range(0usize..n.max(1));
    for _ in 0..extras {
        let a = rng.gen_range(0usize..n);
        let b = rng.gen_range(0usize..n);
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Runs the global algorithm synchronously on the given topology until no
/// node has anything to send, with a generous round bound.
fn run_network(nodes: &mut [DetectorNode<NnDistance>], neighbors: &[Vec<usize>]) -> usize {
    let ids: Vec<SensorId> = nodes.iter().map(|n| n.id()).collect();
    let mut exchanged = 0;
    for _ in 0..500 {
        let mut progress = false;
        for index in 0..nodes.len() {
            let neighbor_ids: Vec<SensorId> = neighbors[index].iter().map(|&j| ids[j]).collect();
            if let Some(message) = nodes[index].process(&neighbor_ids) {
                progress = true;
                for &peer in &neighbors[index] {
                    let points = message.points_for(ids[peer]);
                    if !points.is_empty() {
                        exchanged += points.len();
                        let from = ids[index];
                        nodes[peer].receive(from, points);
                    }
                }
            }
        }
        if !progress {
            return exchanged;
        }
    }
    panic!("protocol did not terminate within the round bound");
}

/// Theorems 1 and 2 on random data and random connected topologies: at
/// termination every node's estimate equals the exact `O_n` of the union.
#[test]
fn global_algorithm_converges_to_the_exact_answer() {
    let mut rng = SeededRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let datasets = gen_datasets(&mut rng, 6);
        let edges = gen_topology(&mut rng, 6);
        let n = rng.gen_range(1usize..4);
        let context = || {
            format!("case {case} (seed {SEED:#x}), n={n}\ndatasets: {datasets:?}\nedges: {edges:?}")
        };

        let count = datasets.len();
        let window = WindowConfig::from_secs(1_000_000).unwrap();
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); count];
        for &(a, b) in &edges {
            if a < count && b < count && a != b && !neighbors[a].contains(&b) {
                neighbors[a].push(b);
                neighbors[b].push(a);
            }
        }
        // Ensure connectivity even if the random extra edges fell outside the
        // sensor count: chain every node to its predecessor.
        for i in 1..count {
            let previous = i - 1;
            if !neighbors[i].contains(&previous) {
                neighbors[i].push(previous);
                neighbors[previous].push(i);
            }
        }

        let mut nodes: Vec<DetectorNode<NnDistance>> = Vec::new();
        let mut local_data: BTreeMap<SensorId, Vec<DataPoint>> = BTreeMap::new();
        for (sensor, values) in datasets.iter().enumerate() {
            let id = SensorId(sensor as u32);
            let points: Vec<DataPoint> = values
                .iter()
                .enumerate()
                .map(|(epoch, v)| point(sensor as u32, epoch as u64, *v))
                .collect();
            local_data.insert(id, points.clone());
            let mut node = DetectorNode::new(id, NnDistance, n, None, window);
            node.add_local_points(points);
            nodes.push(node);
        }

        run_network(&mut nodes, &neighbors);

        let truth = GroundTruth::global(&NnDistance, n, &local_data);
        let estimates: BTreeMap<SensorId, OutlierEstimate> =
            nodes.iter().map(|node| (node.id(), node.estimate())).collect();
        assert!(estimates_agree(&estimates), "estimates disagree at termination\n{}", context());
        let report = truth.grade(&estimates);
        assert!(
            report.all_correct(),
            "some node's estimate is not O_n(D): {report:?}\n{}",
            context()
        );
    }
}

/// The communication of the two-node protocol never exceeds the size of
/// either dataset (it is proportional to the outcome, not the data).
#[test]
fn two_node_communication_is_bounded_by_the_data() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 1);
    for case in 0..CASES {
        let di: Vec<f64> = {
            let len = rng.gen_range(1usize..40);
            (0..len).map(|_| rng.gen_range(-50.0..50.0)).collect()
        };
        let dj: Vec<f64> = {
            let len = rng.gen_range(1usize..40);
            (0..len).map(|_| rng.gen_range(-50.0..50.0)).collect()
        };
        let n = rng.gen_range(1usize..4);
        let context = || format!("case {case} (seed {SEED:#x}), n={n}\ndi: {di:?}\ndj: {dj:?}");

        let window = WindowConfig::from_secs(1_000_000).unwrap();
        let mut pi = DetectorNode::new(SensorId(1), NnDistance, n, None, window);
        let mut pj = DetectorNode::new(SensorId(2), NnDistance, n, None, window);
        pi.add_local_points(di.iter().enumerate().map(|(e, v)| point(1, e as u64, *v)).collect());
        pj.add_local_points(dj.iter().enumerate().map(|(e, v)| point(2, e as u64, *v)).collect());

        let mut nodes = [pi, pj];
        let (left, right) = nodes.split_at_mut(1);
        let exchanged = {
            let mut exchanged = 0;
            for _ in 0..200 {
                let mut progress = false;
                if let Some(m) = left[0].process(&[SensorId(2)]) {
                    let pts = m.points_for(SensorId(2));
                    exchanged += pts.len();
                    right[0].receive(SensorId(1), pts);
                    progress = true;
                }
                if let Some(m) = right[0].process(&[SensorId(1)]) {
                    let pts = m.points_for(SensorId(1));
                    exchanged += pts.len();
                    left[0].receive(SensorId(2), pts);
                    progress = true;
                }
                if !progress {
                    break;
                }
            }
            exchanged
        };
        assert!(exchanged <= di.len() + dj.len(), "exchanged more than everything\n{}", context());
        // Both estimates agree at termination (Theorem 1).
        assert!(
            left[0].estimate().same_outliers_as(&right[0].estimate()),
            "estimates disagree\n{}",
            context()
        );
    }
}

/// Equation (2) holds for whatever the sufficient-set routine returns, on
/// random inputs: it contains the node's estimate and support, and is closed
/// under the neighbour-estimate support rule.
#[test]
fn sufficient_sets_satisfy_equation_2() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 2);
    for case in 0..CASES {
        let values: Vec<f64> = {
            let len = rng.gen_range(2usize..30);
            (0..len).map(|_| rng.gen_range(-100.0..100.0)).collect()
        };
        let shared: Vec<bool> = (0..values.len()).map(|_| rng.gen_bool(0.5)).collect();
        let n = rng.gen_range(1usize..5);
        let context = || {
            format!("case {case} (seed {SEED:#x}), n={n}\nvalues: {values:?}\nshared: {shared:?}")
        };

        let pi: PointSet = values.iter().enumerate().map(|(e, v)| point(1, e as u64, *v)).collect();
        let known: PointSet = pi
            .iter()
            .zip(shared.iter().cycle())
            .filter(|(_, &s)| s)
            .map(|(p, _)| p.clone())
            .collect();
        let z = sufficient_set(&NnDistance, n, &pi, &known);

        assert!(z.is_subset_of(&pi), "Z escapes P_i\n{}", context());
        let own = top_n_outliers(&NnDistance, n, &pi);
        for key in own.keys() {
            assert!(z.contains_key(&key), "own estimate not in Z\n{}", context());
        }
        let hypothetical = known.union(&z);
        let neighbour_estimate = top_n_outliers(&NnDistance, n, &hypothetical).to_point_set();
        let support = wsn_ranking::function::support_of_set(&NnDistance, &pi, &neighbour_estimate);
        assert!(support.is_subset_of(&z), "Z is not closed under equation (2)\n{}", context());
    }
}
