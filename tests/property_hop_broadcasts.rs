//! Bit-identity of the hop scope's broadcasts (§6, Algorithm 2) against
//! the rule computed from scratch, across 256 seeded cases.
//!
//! A hop-scope node caches everything it derives for sending (each
//! engine's index over its hop prefix, its seeds, support sets and
//! per-neighbour chains, and its quiet memo) and keys those caches on its
//! forwarded-prefix revision, which moves only when `P_i^{≤d−1}` does. This
//! suite checks that no cache ever changes what a node sends. Before every
//! `process`, it records the node's `held_points()` and each neighbour's
//! `known_common_with(j)`; afterwards each neighbour's entry of the
//! broadcast (empty when there is none) must equal the rule evaluated on
//! those inputs with no state at all: `sufficient_set_rebuild_reference`
//! over `P_i^{≤h}` against `known_j^{≤h}` for every `h < d`, each result
//! hop-incremented, min-merged, and suppressed against `known_j`.
//!
//! The inputs are random connected graphs of 2 to 6 nodes, `d ∈ {1, 2, 3}`,
//! `n ∈ {1, 2, 3}`, the NN and average-2-NN rankings, and windows of 2 to 4
//! s that every node samples up to twice per 1 s tick, so points at every
//! hop, local ones included, age out while the protocol runs, some in a
//! tick that brings the node no sample of its own. About one
//! step in ten first replaces a random node by a copy restored from its
//! snapshot, whose memo, chains and caches start cold, so cold restores
//! feed the checks too.

use std::collections::VecDeque;

use in_network_outlier::detection::sufficient::sufficient_set_rebuild_reference;
use in_network_outlier::prelude::*;
use in_network_outlier::ranking::index::BruteIndex;
use wsn_data::rng::SeededRng;
use wsn_data::HopCount;

/// Fixed seed for the property loop.
const SEED: u64 = 0x5EED_B0D5;
/// Property cases.
const CASES: usize = 256;
/// Safety valve per tick: the protocol quiesces long before this.
const MAX_DELIVERIES: usize = 100_000;

/// A random connected adjacency over `count` nodes: a random spanning tree
/// plus random extra edges, each list in ascending order.
fn gen_adjacency(rng: &mut SeededRng, count: usize) -> Vec<Vec<usize>> {
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); count];
    let connect = |neighbors: &mut Vec<Vec<usize>>, a: usize, b: usize| {
        if a != b && !neighbors[a].contains(&b) {
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
    };
    for child in 1..count {
        let parent = rng.gen_index(child);
        connect(&mut neighbors, parent, child);
    }
    for _ in 0..rng.gen_index(count + 1) {
        let (a, b) = (rng.gen_index(count), rng.gen_index(count));
        connect(&mut neighbors, a, b);
    }
    for list in &mut neighbors {
        list.sort_unstable();
    }
    neighbors
}

/// What node `i` must send to a neighbour it shares `known` with, computed
/// from scratch from the points it holds.
fn reference_batch<R: RankingFunction>(
    ranking: &R,
    n: usize,
    d: HopCount,
    held: &PointSet,
    known: &PointSet,
) -> PointSet {
    let mut z = PointSet::new();
    for h in 0..d {
        let pi_h = held.filter_max_hop(h);
        let index = BruteIndex::build(&pi_h);
        let z_h =
            sufficient_set_rebuild_reference(ranking, n, &pi_h, &index, &known.filter_max_hop(h));
        for p in z_h.iter() {
            z.insert_min_hop(p.with_incremented_hop());
        }
    }
    z.iter().filter(|x| known.get(&x.key).map_or(true, |y| x.hop < y.hop)).cloned().collect()
}

/// What one case exercised, summed over the suite so it cannot pass
/// vacuously.
#[derive(Default)]
struct Coverage {
    checks: usize,
    non_empty: usize,
    restores: usize,
    prefix_evictions: usize,
    hop_d_receipts: usize,
}

/// One seeded case: the network, its parameters, and the run.
struct Case<R> {
    ranking: R,
    n: usize,
    d: HopCount,
    window: WindowConfig,
    adjacency: Vec<Vec<usize>>,
    context: String,
}

impl<R: RankingFunction + Clone> Case<R> {
    fn fresh(&self, id: usize) -> DetectorNode<R> {
        DetectorNode::new(
            SensorId(id as u32),
            self.ranking.clone(),
            self.n,
            Some(self.d),
            self.window,
        )
    }

    fn neighbor_ids(&self, i: usize) -> Vec<SensorId> {
        self.adjacency[i].iter().map(|&j| SensorId(j as u32)).collect()
    }

    /// Processes node `i`, checking its broadcast against the reference,
    /// after replacing a random node by its restored copy one step in ten.
    fn checked_process(
        &self,
        rng: &mut SeededRng,
        nodes: &mut [DetectorNode<R>],
        i: usize,
        coverage: &mut Coverage,
    ) -> Option<OutlierBroadcast> {
        if rng.gen_bool(0.1) {
            let victim = rng.gen_index(nodes.len());
            let dump = nodes[victim].persist_snapshot();
            let mut twin = self.fresh(victim);
            twin.persist_restore(&dump)
                .unwrap_or_else(|e| panic!("restore failed: {e}\n{}", self.context));
            nodes[victim] = twin;
            coverage.restores += 1;
        }
        let neighbors = self.neighbor_ids(i);
        let node = &mut nodes[i];
        let held = node.held_points().clone();
        let known: Vec<(SensorId, PointSet)> =
            neighbors.iter().map(|&j| (j, node.known_common_with(j))).collect();
        let message = node.process(&neighbors);
        for (j, known) in known {
            let sent = message.as_ref().map(|m| m.points_for(j)).unwrap_or_default();
            let count = sent.len();
            let sent: PointSet = sent.into_iter().collect();
            let expected = reference_batch(&self.ranking, self.n, self.d, &held, &known);
            assert_eq!(count, sent.len(), "node {i} sent {j} a point twice\n{}", self.context);
            assert_eq!(
                sent, expected,
                "node {i}'s batch for {j} differs from the reference\nheld: {held:?}\n\
                 known: {known:?}\n{}",
                self.context
            );
            coverage.checks += 1;
            coverage.non_empty += usize::from(!expected.is_empty());
        }
        message
    }

    /// Runs `ticks` one-second ticks: every node's clock advances and it
    /// samples, then every node processes once and the broadcasts are
    /// delivered FIFO, each receiver processing after its receipt, until
    /// the network is quiet.
    fn run(&self, rng: &mut SeededRng, ticks: u64, coverage: &mut Coverage) {
        let count = self.adjacency.len();
        let mut nodes: Vec<DetectorNode<R>> = (0..count).map(|i| self.fresh(i)).collect();
        let mut epoch = 0u64;
        for tick in 1..=ticks {
            let now = Timestamp::from_secs(tick);
            for (i, node) in nodes.iter_mut().enumerate() {
                let before = node.held_points().clone();
                node.advance_time(now);
                coverage.prefix_evictions += before
                    .iter()
                    .filter(|p| p.hop < self.d && !node.held_points().contains_key(&p.key))
                    .count();
                let samples = (0..rng.gen_range(0usize..3))
                    .map(|_| {
                        epoch += 1;
                        let value = if rng.gen_bool(0.8) {
                            rng.gen_range(18.0..24.0)
                        } else {
                            rng.gen_range(-100.0..150.0)
                        };
                        DataPoint::new(SensorId(i as u32), Epoch(epoch), now, vec![value])
                            .expect("finite features")
                    })
                    .collect();
                node.add_local_points(samples);
            }
            let mut queue = VecDeque::new();
            for i in 0..count {
                if let Some(message) = self.checked_process(rng, &mut nodes, i, coverage) {
                    queue.push_back((i, message));
                }
            }
            let mut deliveries = 0;
            while let Some((from, message)) = queue.pop_front() {
                for &to in &self.adjacency[from] {
                    let points = message.points_for_arcs(SensorId(to as u32));
                    if points.is_empty() {
                        continue;
                    }
                    deliveries += 1;
                    assert!(deliveries <= MAX_DELIVERIES, "no quiescence\n{}", self.context);
                    coverage.hop_d_receipts += points.iter().filter(|p| p.hop == self.d).count();
                    nodes[to].receive_arcs(SensorId(from as u32), points);
                    if let Some(reply) = self.checked_process(rng, &mut nodes, to, coverage) {
                        queue.push_back((to, reply));
                    }
                }
            }
        }
    }
}

/// 256 seeded cases: every hop-scope broadcast, before and after restores,
/// equals the stateless rule on the inputs the node held when it
/// processed.
#[test]
fn hop_scope_broadcasts_equal_the_rebuild_reference_across_256_cases() {
    let mut rng = SeededRng::seed_from_u64(SEED);
    let mut coverage = Coverage::default();
    for case in 0..CASES {
        let count = rng.gen_range(2usize..7);
        let adjacency = gen_adjacency(&mut rng, count);
        let d = rng.gen_range(1u64..4) as HopCount;
        let n = rng.gen_range(1usize..4);
        let window_secs = rng.gen_range(2u64..5);
        let ticks = rng.gen_range(4u64..9);
        let context = format!(
            "case {case} (seed {SEED:#x}): {count} nodes, d={d}, n={n}, w={window_secs} s, \
             {ticks} ticks, adjacency {adjacency:?}"
        );
        let window = WindowConfig::from_secs(window_secs).expect("a positive window");
        if case % 2 == 0 {
            let case = Case { ranking: NnDistance, n, d, window, adjacency, context };
            case.run(&mut rng, ticks, &mut coverage);
        } else {
            let ranking = KnnAverageDistance::new(2);
            let case = Case { ranking, n, d, window, adjacency, context };
            case.run(&mut rng, ticks, &mut coverage);
        }
    }
    let Coverage { checks, non_empty, restores, prefix_evictions, hop_d_receipts } = coverage;
    assert!(non_empty > 0 && non_empty < checks, "{non_empty} of {checks} batches are non-empty");
    assert!(restores > 100, "only {restores} restores");
    assert!(prefix_evictions > 100, "only {prefix_evictions} hop < d points were evicted");
    assert!(hop_d_receipts > 100, "only {hop_d_receipts} hop-d copies were delivered");
}
