//! Property suite for the semi-global algorithm's hop-bounded invariants
//! (§6), driven by seeded loops over random connected topologies, random
//! datasets, random hop diameters and random packet loss.
//!
//! The invariants, checked after every protocol round and at the end:
//!
//! 1. **Upper bound** — no point in any sensor's window carries a hop count
//!    exceeding the configured diameter `ε`: copies that travelled farther
//!    must have been rejected on receipt.
//! 2. **Broadcast bound** — every point put on the air carries a hop count
//!    in `[1, ε]`: it has been forwarded at least once and never claims more
//!    hops than the diameter.
//! 3. **Lower bound (path consistency)** — a copy's hop count is at least
//!    the topological hop distance from its origin to the holder: hop
//!    counters only ever increase along forwarding paths, so no sensor can
//!    hold a copy that pretends to be closer to its origin than the network
//!    allows.
//!
//! Packet loss drops each delivery independently with a per-case
//! probability; the invariants are safety properties and must survive any
//! loss pattern, so the suite asserts them without requiring termination.

use std::collections::VecDeque;

use in_network_outlier::detection::detector::OutlierDetector;
use in_network_outlier::prelude::*;
use wsn_data::rng::SeededRng;
use wsn_data::HopCount;

/// Fixed seed for the property loops.
const SEED: u64 = 0x5EED_40B5;
/// Property cases per test.
const CASES: usize = 256;
/// Protocol rounds per case (loss may prevent earlier quiescence).
const ROUNDS: usize = 12;

fn point(sensor: u32, epoch: u64, value: f64) -> DataPoint {
    DataPoint::new(SensorId(sensor), Epoch(epoch), Timestamp::ZERO, vec![value]).unwrap()
}

/// A random connected adjacency over `n` nodes: random spanning tree plus
/// random extra edges.
fn gen_adjacency(rng: &mut SeededRng, n: usize) -> Vec<Vec<usize>> {
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
    let connect = |neighbors: &mut Vec<Vec<usize>>, a: usize, b: usize| {
        if a != b && !neighbors[a].contains(&b) {
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
    };
    for child in 1..n {
        let parent = rng.gen_index(child);
        connect(&mut neighbors, parent, child);
    }
    for _ in 0..rng.gen_index(n + 1) {
        let a = rng.gen_index(n);
        let b = rng.gen_index(n);
        connect(&mut neighbors, a, b);
    }
    neighbors
}

/// BFS hop distances from `source` over the adjacency (usize::MAX when
/// unreachable; never happens on these connected graphs).
fn hop_distances(neighbors: &[Vec<usize>], source: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; neighbors.len()];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for &w in &neighbors[v] {
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Asserts invariants 1 and 3 for every node's current window.
fn assert_window_invariants(
    nodes: &[DetectorNode<NnDistance>],
    neighbors: &[Vec<usize>],
    d: HopCount,
    context: &str,
) {
    for (holder, node) in nodes.iter().enumerate() {
        let dist = hop_distances(neighbors, holder);
        for p in node.held_points() {
            assert!(
                p.hop <= d,
                "node {holder} holds {p} with hop {} > diameter {d}\n{context}",
                p.hop
            );
            let origin = p.key.origin.raw() as usize;
            assert!(
                p.hop as usize >= dist[origin],
                "node {holder} holds {p} claiming {} hops but its origin is {} hops away\n{context}",
                p.hop,
                dist[origin]
            );
        }
    }
}

/// Runs the semi-global protocol with per-delivery Bernoulli loss, checking
/// the hop invariants after every round.
fn run_case(rng: &mut SeededRng, case: usize, loss: f64) {
    let n = rng.gen_range(3usize..7);
    let d = rng.gen_range(1u64..4) as HopCount;
    let neighbors = gen_adjacency(rng, n);
    let datasets: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let len = rng.gen_range(1usize..5);
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
        .collect();
    let context =
        format!("case {case} (seed {SEED:#x}), n={n}, d={d}, loss={loss}\nadjacency: {neighbors:?}\ndatasets: {datasets:?}");

    let window = WindowConfig::from_secs(1_000_000).unwrap();
    let mut nodes: Vec<DetectorNode<NnDistance>> = (0..n)
        .map(|i| {
            let mut node = DetectorNode::new(SensorId(i as u32), NnDistance, 1, Some(d), window);
            node.add_local_points(
                datasets[i]
                    .iter()
                    .enumerate()
                    .map(|(e, v)| point(i as u32, e as u64, *v))
                    .collect(),
            );
            node
        })
        .collect();

    for _ in 0..ROUNDS {
        let mut progress = false;
        for index in 0..n {
            let neighbor_ids: Vec<SensorId> =
                neighbors[index].iter().map(|&j| SensorId(j as u32)).collect();
            let Some(message) = nodes[index].process(&neighbor_ids) else { continue };
            progress = true;
            for &peer in &neighbors[index] {
                let points = message.points_for(SensorId(peer as u32));
                // Invariant 2: everything on the air carries hop ∈ [1, d].
                for p in &points {
                    assert!(
                        p.hop >= 1 && p.hop <= d,
                        "node {index} broadcast {p} with hop {} outside [1, {d}]\n{context}",
                        p.hop
                    );
                }
                if points.is_empty() || rng.gen_bool(loss) {
                    continue; // the radio dropped this delivery
                }
                let from = SensorId(index as u32);
                nodes[peer].receive(from, points);
            }
        }
        assert_window_invariants(&nodes, &neighbors, d, &context);
        if !progress {
            break;
        }
    }
    assert_window_invariants(&nodes, &neighbors, d, &context);
}

/// The hop invariants hold over lossless runs (which also quiesce within
/// the round budget).
#[test]
fn hop_bounds_hold_on_reliable_channels() {
    let mut rng = SeededRng::seed_from_u64(SEED);
    for case in 0..CASES {
        run_case(&mut rng, case, 0.0);
    }
}

/// The hop invariants are safety properties: they survive arbitrary packet
/// loss, including loss rates high enough that the protocol never converges
/// inside the round budget.
#[test]
fn hop_bounds_hold_under_packet_loss() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 1);
    for case in 0..CASES {
        let loss = rng.gen_range(0.05..0.7);
        run_case(&mut rng, case, loss);
    }
}
