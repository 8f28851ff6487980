//! Property-based tests of the distributed protocol's invariants, driven by
//! seeded loops over random datasets, random connected topologies and random
//! event interleavings.
//!
//! Each property runs `CASES` independent cases derived from the fixed
//! `SEED` through the in-repo PRNG ([`wsn_data::rng::SeededRng`]); a failing
//! case prints its index and every generated input.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use in_network_outlier::data::stream::SensorSpec;
use in_network_outlier::data::{PointKey, Position};
use in_network_outlier::detection::metrics::{
    estimates_agree, paired_truths, GroundTruth, LabelTruth,
};
use in_network_outlier::detection::sufficient::sufficient_set;
use in_network_outlier::detection::transport::run_to_quiescence;
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

/// Runs the global algorithm on the given topology (node `i` is sensor `i`)
/// until no node has anything to send.
fn run_network(nodes: &mut [DetectorNode<NnDistance>], neighbors: &[Vec<usize>]) {
    let adjacency = neighbors
        .iter()
        .enumerate()
        .map(|(i, peers)| {
            let mut ids: Vec<SensorId> = peers.iter().map(|&j| SensorId(j as u32)).collect();
            ids.sort_unstable();
            (SensorId(i as u32), ids)
        })
        .collect();
    run_to_quiescence(nodes, &adjacency);
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

        let adjacency =
            BTreeMap::from([(SensorId(1), vec![SensorId(2)]), (SensorId(2), vec![SensorId(1)])]);
        let exchanged = run_to_quiescence([&mut pi, &mut pj], &adjacency).points as usize;
        assert!(exchanged <= di.len() + dj.len(), "exchanged more than everything\n{}", context());
        // Both estimates agree at termination (Theorem 1).
        assert!(
            pi.estimate().same_outliers_as(&pj.estimate()),
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

/// Asserts two estimates are identical: the same points in the same order,
/// with bit-identical ranks.
fn assert_same_estimate(served: &OutlierEstimate, reference: &OutlierEstimate, context: &str) {
    assert_eq!(served.len(), reference.len(), "estimate sizes differ: {context}");
    for (i, (s, r)) in served.ranked().iter().zip(reference.ranked()).enumerate() {
        assert_eq!(s.rank.to_bits(), r.rank.to_bits(), "rank #{i} differs: {context}");
        assert_eq!(*s.point, *r.point, "outlier #{i} differs: {context}");
    }
}

/// A global-scope node's estimate, which the fixed-point engine serves
/// whenever it processed the window's current revision, equals
/// `top_n_outliers` over the node's window, ranks compared bitwise, across
/// 256 seeded cases. Each case runs a random connected graph of 2–6 nodes
/// through 3–7 window slides of a 2–4 s window, so most slides evict; NN and
/// KNN-avg (k = 1–4) alternate, with n = 1–4. Every node is checked after
/// every quiescence, and also right after each slide's clock advance, when
/// the engine still holds the previous revision's selection; now and then a
/// node is replaced by a copy restored from its snapshot, whose engine
/// starts cold.
#[test]
fn served_global_estimates_equal_the_reference_selection() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 3);
    let (mut checked, mut evictions, mut restores) = (0usize, 0usize, 0usize);
    for case in 0..CASES {
        let count = rng.gen_range(2usize..7);
        let edges = gen_topology(&mut rng, count);
        let n = rng.gen_range(1usize..5);
        let k = rng.gen_range(1usize..5);
        let ranking: Arc<dyn RankingFunction> =
            if case % 2 == 0 { Arc::new(NnDistance) } else { Arc::new(KnnAverageDistance::new(k)) };
        let window = WindowConfig::from_secs(rng.gen_range(2u64..5)).unwrap();
        let mut adjacency: BTreeMap<SensorId, Vec<SensorId>> =
            (0..count).map(|i| (SensorId(i as u32), Vec::new())).collect();
        for &(a, b) in &edges {
            adjacency.get_mut(&SensorId(a as u32)).unwrap().push(SensorId(b as u32));
            adjacency.get_mut(&SensorId(b as u32)).unwrap().push(SensorId(a as u32));
        }
        for peers in adjacency.values_mut() {
            peers.sort_unstable();
        }
        let make =
            |i: usize| DetectorNode::new(SensorId(i as u32), ranking.clone(), n, None, window);
        let mut nodes: Vec<DetectorNode<Arc<dyn RankingFunction>>> = (0..count).map(make).collect();
        let mut epoch = 0u64;
        let slides = rng.gen_range(3u64..8);
        let check = |nodes: &[DetectorNode<Arc<dyn RankingFunction>>], at: &str| {
            for node in nodes {
                let context = format!(
                    "case {case} (seed {SEED:#x}) {}, n={n}, {at}, node {}, edges {edges:?}",
                    ranking.name(),
                    node.id()
                );
                let reference = top_n_outliers(node.ranking(), n, node.held_points());
                assert_same_estimate(&node.estimate(), &reference, &context);
            }
            nodes.len()
        };
        for secs in 1..=slides {
            let now = Timestamp::from_secs(secs);
            for node in &mut nodes {
                let held = node.held_points().len();
                node.advance_time(now);
                evictions += usize::from(node.held_points().len() < held);
            }
            checked += check(&nodes, &format!("t={secs}s after the clock advance"));
            if rng.gen_bool(0.1) {
                let i = rng.gen_index(count);
                let mut restored = make(i);
                restored.persist_restore(&nodes[i].persist_snapshot()).unwrap();
                nodes[i] = restored;
                restores += 1;
                checked += check(&nodes, &format!("t={secs}s after restoring node {i}"));
            }
            for (i, node) in nodes.iter_mut().enumerate() {
                let points = (0..rng.gen_range(0usize..4))
                    .map(|_| {
                        epoch += 1;
                        let value = if rng.gen_bool(0.8) {
                            rng.gen_range(18.0..24.0)
                        } else {
                            rng.gen_range(-100.0..150.0)
                        };
                        DataPoint::new(SensorId(i as u32), Epoch(epoch), now, vec![value]).unwrap()
                    })
                    .collect();
                node.add_local_points(points);
            }
            run_to_quiescence(&mut nodes, &adjacency);
            checked += check(&nodes, &format!("t={secs}s at quiescence"));
        }
    }
    assert!(
        evictions > 0 && restores > 0,
        "the cases must slide and restore: {evictions} evicting advances, {restores} restores \
         over {checked} checked estimates"
    );
}

/// The ground truths the streaming driver grades with — `paired_truths` over
/// each window's shared `Arc<DataPoint>` handles — equal the individual
/// constructors `GroundTruth::{global, semi_global}` and
/// `LabelTruth::{global, semi_global}` over owned copies, across 256 seeded
/// random connected topologies, on the global path and at d = 1, 2 and 3.
/// Every outlier of every truth is the very handle of the window it came
/// from: building the truths copies no point.
#[test]
fn paired_truths_over_shared_handles_equal_the_owned_constructors() {
    const RANGE_M: f64 = 10.0;
    let mut rng = SeededRng::seed_from_u64(SEED ^ 4);
    let mut outliers_checked = 0usize;
    for case in 0..CASES {
        // Each sensor lands within radio range of an earlier one, so the
        // graph is connected by construction.
        let count = rng.gen_range(2usize..10);
        let mut specs = vec![SensorSpec::new(SensorId(0), Position::new(0.0, 0.0))];
        for i in 1..count {
            let anchor = specs[rng.gen_index(i)].position;
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            let distance = rng.gen_range(0.0..RANGE_M * 0.95);
            let position =
                Position::new(anchor.x + distance * angle.cos(), anchor.y + distance * angle.sin());
            specs.push(SensorSpec::new(SensorId(i as u32), position));
        }
        let topology = Topology::from_specs(&specs, RANGE_M);
        assert!(topology.is_connected(), "case {case}: the topology is connected");
        let windows: BTreeMap<SensorId, Vec<Arc<DataPoint>>> = gen_datasets(&mut rng, count)
            .iter()
            .enumerate()
            .map(|(sensor, values)| {
                let points = values.iter().enumerate().map(|(epoch, v)| {
                    // Half the readings on a coarse lattice, for rank ties.
                    let v = if epoch % 2 == 0 { v.round() } else { *v };
                    Arc::new(point(sensor as u32, epoch as u64, v))
                });
                (SensorId(sensor as u32), points.collect())
            })
            .collect();
        let owned: BTreeMap<SensorId, Vec<DataPoint>> = windows
            .iter()
            .map(|(id, points)| (*id, points.iter().map(|p| DataPoint::clone(p)).collect()))
            .collect();
        let labels: BTreeSet<PointKey> =
            windows.values().flatten().filter(|_| rng.gen_bool(0.3)).map(|p| p.key).collect();
        let n = rng.gen_range(1usize..4);
        for hops in [None, Some(1), Some(2), Some(3)] {
            let context = format!("case {case} (seed {SEED:#x}), n={n}, d={hops:?}");
            let (truth, label_truth) =
                paired_truths(&NnDistance, n, &labels, &windows, hops.map(|d| (&topology, d)));
            let (owned_truth, owned_labels) = match hops {
                None => (
                    GroundTruth::global(&NnDistance, n, &owned),
                    LabelTruth::global(&labels, &owned),
                ),
                Some(d) => (
                    GroundTruth::semi_global(&NnDistance, n, &owned, &topology, d),
                    LabelTruth::semi_global(&labels, &owned, &topology, d),
                ),
            };
            assert_eq!(truth, owned_truth, "the ground truths differ: {context}");
            assert_eq!(label_truth, owned_labels, "the label truths differ: {context}");
            for (id, answer) in truth.iter() {
                for outlier in answer.ranked() {
                    let window = &windows[&outlier.point.key.origin];
                    assert!(
                        window.iter().any(|handle| Arc::ptr_eq(handle, &outlier.point)),
                        "node {id}'s outlier {} is a copy: {context}",
                        outlier.point.key
                    );
                    outliers_checked += 1;
                }
            }
        }
    }
    assert!(outliers_checked > 0);
}
