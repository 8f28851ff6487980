//! Property suite for the spatial neighbour-index subsystem: across 256
//! seeded cases, the k-d tree index must agree **exactly** — bit for bit —
//! with the brute-force path on every query the ranking layer
//! makes: raw `k`-nearest / in-radius lookups, ranks, support sets, top-`n`
//! outlier estimates and sufficient sets, for the NN, average-k-NN, k-th-NN
//! and inverse-count rankings.
//!
//! The datasets deliberately include duplicate feature values (drawn from a
//! coarse lattice) so equal-distance ties are frequent and the `≺`
//! tie-breaking of every index is exercised, not just its metric pruning.

use in_network_outlier::detection::sufficient::{
    sufficient_set, sufficient_set_rebuild_reference, FixedPointEngine,
};
use in_network_outlier::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use wsn_data::rng::SeededRng;
use wsn_data::{PointKey, SlidingWindow};
use wsn_ranking::function::{neighbors_by_distance, support_of_set, support_of_set_indexed};
use wsn_ranking::index::{
    AnyIndex, BruteIndex, DynamicIndex, KdTreeIndex, NeighborIndex, AUTO_BRUTE_THRESHOLD,
    DYNAMIC_SPILL_FRACTION, DYNAMIC_SPILL_MIN,
};
use wsn_ranking::{top_n_outliers_indexed, KthNeighborDistance, NeighborCountInverse};

/// Fixed seed for the property loops.
const SEED: u64 = 0x5EED_1DE8;
/// Property cases per test.
const CASES: usize = 256;

fn point(sensor: u32, epoch: u64, features: Vec<f64>) -> DataPoint {
    DataPoint::new(SensorId(sensor), Epoch(epoch), Timestamp::ZERO, features).unwrap()
}

/// A random dataset of `len` points in `dim` dimensions. Half the draws come
/// from a coarse half-unit lattice (forcing duplicate coordinates and
/// distance ties), the rest from a continuous range with occasional
/// extremes.
fn gen_dataset(rng: &mut SeededRng, len: usize, dim: usize) -> PointSet {
    (0..len)
        .map(|i| {
            let features: Vec<f64> = (0..dim)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        (rng.gen_range(-8i64..8) as f64) * 0.5
                    } else if rng.gen_bool(0.9) {
                        rng.gen_range(-10.0..10.0)
                    } else {
                        rng.gen_range(-200.0..200.0)
                    }
                })
                .collect();
            point((i % 7) as u32, i as u64, features)
        })
        .collect()
}

/// Query points: every member of the dataset plus a few external points
/// (inside and far outside the bounding box).
fn gen_queries(rng: &mut SeededRng, data: &PointSet, dim: usize) -> Vec<DataPoint> {
    let mut queries: Vec<DataPoint> = data.iter().cloned().collect();
    for e in 0..3 {
        let features: Vec<f64> = (0..dim)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    rng.gen_range(-10.0..10.0)
                } else {
                    rng.gen_range(-500.0..500.0)
                }
            })
            .collect();
        queries.push(point(90, e, features));
    }
    queries
}

fn structured_indexes(data: &PointSet) -> Vec<(&'static str, AnyIndex)> {
    vec![("kd", AnyIndex::KdTree(KdTreeIndex::build(data)))]
}

/// Asserts two `(distance, point)` candidate lists are identical, down to
/// the distance bit patterns.
fn assert_same_candidates(
    expected: &[(f64, &DataPoint)],
    got: &[(f64, &DataPoint)],
    context: &str,
) {
    assert_eq!(expected.len(), got.len(), "candidate count differs: {context}");
    for (i, (e, g)) in expected.iter().zip(got.iter()).enumerate() {
        assert_eq!(e.0.to_bits(), g.0.to_bits(), "distance #{i} differs: {context}");
        assert_eq!(e.1.key, g.1.key, "neighbour #{i} differs: {context}");
        assert_eq!(e.1.hop, g.1.hop, "hop of neighbour #{i} differs: {context}");
    }
}

/// Raw index queries (`k_nearest`, `within_radius`) agree with brute force
/// for every query point, `k` and radius.
#[test]
fn index_queries_match_brute_force() {
    let mut rng = SeededRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let dim = rng.gen_range(1usize..4);
        let len = rng.gen_range(1usize..70);
        let data = gen_dataset(&mut rng, len, dim);
        let queries = gen_queries(&mut rng, &data, dim);
        let k = rng.gen_range(1usize..7);
        let radius = rng.gen_range(0.0..12.0);
        let brute = BruteIndex::build(&data);
        for (label, index) in structured_indexes(&data) {
            assert_eq!(index.len(), data.len());
            for (qi, x) in queries.iter().enumerate() {
                let context =
                    format!("case {case} (seed {SEED:#x}) {label}, dim={dim}, len={len}, q#{qi}");
                assert_same_candidates(
                    &brute.k_nearest(x, k),
                    &index.k_nearest(x, k),
                    &format!("k_nearest k={k}, {context}"),
                );
                assert_same_candidates(
                    &brute.within_radius(x, radius),
                    &index.within_radius(x, radius),
                    &format!("within_radius r={radius}, {context}"),
                );
            }
        }
    }
}

/// Ranks and support sets computed through any index equal the plain
/// (unindexed) computation for every shipped ranking function.
#[test]
fn indexed_ranks_and_support_sets_match_plain_computation() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 1);
    for case in 0..CASES {
        let dim = rng.gen_range(1usize..4);
        let len = rng.gen_range(1usize..50);
        let data = gen_dataset(&mut rng, len, dim);
        let queries = gen_queries(&mut rng, &data, dim);
        let k = rng.gen_range(1usize..6);
        let alpha = rng.gen_range(0.1..10.0);
        let rankings: Vec<Box<dyn RankingFunction>> = vec![
            Box::new(NnDistance),
            Box::new(KnnAverageDistance::new(k)),
            Box::new(KthNeighborDistance::new(k)),
            Box::new(NeighborCountInverse::new(alpha)),
        ];
        for (label, index) in structured_indexes(&data) {
            for ranking in &rankings {
                for x in &queries {
                    let context = format!(
                        "case {case} (seed {SEED:#x}) {label}/{}, dim={dim}, len={len}, k={k}",
                        ranking.name()
                    );
                    let plain = ranking.rank(x, &data);
                    let indexed = ranking.rank_indexed(x, &index);
                    assert_eq!(plain.to_bits(), indexed.to_bits(), "rank differs: {context}");
                    let plain_support = ranking.support_set(x, &data);
                    let indexed_support = ranking.support_set_indexed(x, &index);
                    assert_eq!(plain_support, indexed_support, "support set differs: {context}");
                }
            }
        }
    }
}

/// `top_n_outliers`, `support_of_set` and `sufficient_set` — the protocol's
/// three consumers — produce identical results through every index,
/// for both the NN and KNN rankings the paper evaluates.
#[test]
fn protocol_kernels_are_identical_across_index_strategies() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 2);
    for case in 0..CASES {
        let dim = rng.gen_range(1usize..3);
        let len = rng.gen_range(2usize..40);
        let data = gen_dataset(&mut rng, len, dim);
        let n = rng.gen_range(1usize..5);
        let k = rng.gen_range(1usize..5);
        // The neighbour already shares a random subset of the data.
        let known: PointSet = data.iter().filter(|_| rng.gen_bool(0.4)).cloned().collect();
        let rankings: Vec<Box<dyn RankingFunction>> =
            vec![Box::new(NnDistance), Box::new(KnnAverageDistance::new(k))];
        let brute = BruteIndex::build(&data);
        for ranking in &rankings {
            let ranking = ranking.as_ref();
            let context = || {
                format!(
                    "case {case} (seed {SEED:#x}) {}, dim={dim}, len={len}, n={n}, k={k}",
                    ranking.name()
                )
            };
            let reference_estimate = top_n_outliers_indexed(ranking, n, &data, &brute);
            let reference_support =
                support_of_set(ranking, &data, &reference_estimate.to_point_set());
            let reference_sufficient =
                sufficient_set_rebuild_reference(ranking, n, &data, &brute, &known);
            // The incremental fixed-point engine agrees with the
            // rebuild-per-iteration reference across the whole corpus, both
            // cold and with caches warmed by a previous call.
            let mut engine = FixedPointEngine::new();
            for round in 0..2 {
                assert_eq!(
                    engine.sufficient_set(ranking, n, &data, SensorId(7), &known, (42, 0)).as_ref(),
                    &reference_sufficient,
                    "incremental engine differs from the rebuild reference (round {round}): {}",
                    context()
                );
            }
            // The public entry points, which build their own index, agree
            // with the explicit brute baseline.
            assert_eq!(
                top_n_outliers(ranking, n, &data).ranked(),
                reference_estimate.ranked(),
                "top-n differs from brute: {}",
                context()
            );
            assert_eq!(
                sufficient_set(ranking, n, &data, &known),
                reference_sufficient,
                "sufficient set differs from brute: {}",
                context()
            );
            for (label, index) in structured_indexes(&data) {
                let estimate = top_n_outliers_indexed(ranking, n, &data, &index);
                assert_eq!(
                    estimate.ranked(),
                    reference_estimate.ranked(),
                    "{label} top-n estimate differs: {}",
                    context()
                );
                let support =
                    support_of_set_indexed(ranking, &index, &reference_estimate.to_point_set());
                assert_eq!(support, reference_support, "{label} support differs: {}", context());
                let sufficient =
                    sufficient_set_rebuild_reference(ranking, n, &data, &index, &known);
                assert_eq!(
                    sufficient,
                    reference_sufficient,
                    "{label} sufficient set differs: {}",
                    context()
                );
            }
        }
    }
}

/// A [`DynamicIndex`] changed by interleaved inserts and removals answers
/// every query — raw lookups, top-`n` estimates, sufficient sets — exactly
/// like an index freshly rebuilt over the same set, across 256 seeded
/// cases. The insert stream draws from the same coarse lattice as the
/// datasets, so duplicate-coordinate ties (resolved by `≺`) and duplicate
/// identities (set-semantics no-ops) both occur, and the longest streams
/// push the spill buffer over its rebuild threshold. Each round then
/// removes a random share of the set — points of the initial build (base
/// entries) and inserted ones (spill entries) alike, often enough to push
/// the in-place deletions over the same threshold — and later rounds insert
/// removed identities again.
#[test]
fn dynamic_index_matches_fresh_rebuild_under_interleaved_inserts() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 3);
    let (mut reinserted, mut crossed) = (0usize, 0usize);
    for case in 0..CASES {
        let dim = rng.gen_range(1usize..4);
        let initial_len = rng.gen_range(0usize..80);
        let initial = gen_dataset(&mut rng, initial_len, dim);
        let mut dynamic = DynamicIndex::build(&initial);
        let mut contents = initial.clone();
        let k = rng.gen_range(1usize..6);
        let radius = rng.gen_range(0.0..12.0);
        let mut removed: Vec<DataPoint> = Vec::new();
        // Interleave: a few insert/remove/query rounds per case; the stream
        // of inserted points reuses dataset identities half the time so
        // duplicate-key no-ops are exercised, and now and then brings back
        // a removed identity.
        let rounds = rng.gen_range(1usize..5);
        for round in 0..rounds {
            let burst = rng.gen_range(1usize..25);
            let fresh_points = gen_dataset(&mut rng, burst, dim);
            for (i, p) in fresh_points.iter().enumerate() {
                let p = if !removed.is_empty() && rng.gen_bool(0.2) {
                    reinserted += 1;
                    removed.swap_remove(rng.gen_index(removed.len()))
                } else if rng.gen_bool(0.5) {
                    // A brand-new identity disjoint from the dataset's.
                    DataPoint::new(
                        SensorId(40 + (round % 4) as u32),
                        Epoch((case * 1000 + round * 100 + i) as u64),
                        Timestamp::ZERO,
                        p.features.clone(),
                    )
                    .unwrap()
                } else {
                    p.clone()
                };
                let expect_new = !contents.contains(&p);
                let arc = Arc::new(p);
                assert_eq!(
                    dynamic.insert_arc(Arc::clone(&arc)),
                    expect_new,
                    "case {case} (seed {SEED:#x}): insert outcome differs"
                );
                contents.insert_arc(arc);
            }
            // Remove a random share of the set (every point, now and then),
            // then an absent identity.
            let spilled = dynamic.spilled();
            let before = contents.len();
            let mut keys: Vec<PointKey> = contents.keys().copied().collect();
            let count =
                if rng.gen_bool(0.3) { keys.len() } else { rng.gen_range(0usize..keys.len() + 1) };
            for _ in 0..count {
                let key = keys.swap_remove(rng.gen_index(keys.len()));
                assert!(
                    dynamic.remove(&key),
                    "case {case} (seed {SEED:#x}): removing a held identity"
                );
                removed.push(contents.get(&key).expect("a held identity").clone());
                contents.discard(&key);
            }
            assert!(!dynamic.remove(&point(99, 0, vec![]).key), "an absent identity");
            // At most `spilled` removals came out of the spill; past that,
            // more than the threshold means the base was rebuilt. A set of
            // at least the brute threshold always has a k-d tree base.
            let threshold = DYNAMIC_SPILL_MIN.max(before / DYNAMIC_SPILL_FRACTION);
            if before >= AUTO_BRUTE_THRESHOLD && count > spilled + threshold {
                crossed += 1;
            }
            assert_eq!(dynamic.len(), contents.len());
            assert_eq!(dynamic.to_point_set(), contents);
            let fresh = BruteIndex::build(&contents);
            let mut queries = gen_queries(&mut rng, &contents, dim);
            queries.extend(removed.iter().rev().take(3).cloned());
            for (qi, x) in queries.iter().enumerate().step_by(3) {
                let context =
                    format!("case {case} (seed {SEED:#x}), dim={dim}, round={round}, q#{qi}");
                assert_same_candidates(
                    &fresh.k_nearest(x, k),
                    &dynamic.k_nearest(x, k),
                    &format!("k_nearest k={k}, {context}"),
                );
                assert_same_candidates(
                    &fresh.within_radius(x, radius),
                    &dynamic.within_radius(x, radius),
                    &format!("within_radius r={radius}, {context}"),
                );
            }
        }
        // The protocol kernels through the grown dynamic index equal the
        // fresh rebuild too.
        let fresh = BruteIndex::build(&contents);
        let n = rng.gen_range(1usize..4);
        let estimate = top_n_outliers_indexed(&NnDistance, n, &contents, &dynamic);
        assert_eq!(
            estimate.ranked(),
            top_n_outliers_indexed(&NnDistance, n, &contents, &fresh).ranked(),
            "case {case} (seed {SEED:#x}): top-n through the dynamic index differs"
        );
        let known: PointSet = contents.iter().filter(|_| rng.gen_bool(0.3)).cloned().collect();
        assert_eq!(
            sufficient_set_rebuild_reference(&NnDistance, n, &contents, &dynamic, &known),
            sufficient_set_rebuild_reference(&NnDistance, n, &contents, &fresh, &known),
            "case {case} (seed {SEED:#x}): sufficient set through the dynamic index differs"
        );
        assert_eq!(dynamic.to_point_set(), contents);
    }
    assert!(
        reinserted > 0 && crossed > 0,
        "{reinserted} removed identities inserted again, {crossed} rounds past the threshold"
    );
}

/// The engine fed by delta notes — window inserts and evictions,
/// per-neighbour records and evictions, delivered in the order and on the
/// revision chains `DetectorNode` uses in the global scope — against the
/// rebuild-per-iteration reference, across 256 seeded random streams. The
/// engine's window state answers every query.
///
/// Each case slides a short window over a stream of local samples and
/// neighbour deliveries (some of them stale: behind the cutoff, refused by
/// the window but recorded by the book, evicted at the next slide, and now
/// and then delivered again), and at every step asks the engine for every
/// neighbour's sufficient set over the current `P_i` and `known`, then
/// records the send as the node does. NN and KNN-avg (k = 1–4) alternate,
/// with n = 1–4. A quarter of the cases withhold one note in ten, so the
/// broken-chain fallback (re-scan, size check, rebuild) stays covered.
#[test]
fn note_driven_engine_matches_the_rebuild_reference_across_slides() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 4);
    let (mut calls, mut window_evictions, mut book_evictions, mut withheld) = (0, 0, 0, 0);
    for case in 0..CASES {
        let dim = rng.gen_range(1usize..3);
        let n = rng.gen_range(1usize..5);
        let k = rng.gen_range(1usize..5);
        let ranking: Box<dyn RankingFunction> =
            if case % 2 == 0 { Box::new(NnDistance) } else { Box::new(KnnAverageDistance::new(k)) };
        let ranking = ranking.as_ref();
        let window_secs = rng.gen_range(2u64..6);
        let config = WindowConfig::from_secs(window_secs).unwrap();
        let mut window = SlidingWindow::new(config);
        let neighbors: Vec<SensorId> = (1..=rng.gen_range(1u32..4)).map(SensorId).collect();
        let mut known: BTreeMap<SensorId, PointSet> = BTreeMap::new();
        let mut revisions: BTreeMap<SensorId, u64> = BTreeMap::new();
        let withhold = if case % 4 == 3 { 0.1 } else { 0.0 };
        let mut delivered: Vec<Arc<DataPoint>> = Vec::new();
        let mut engine = FixedPointEngine::new();
        let mut epoch = 0u64;
        let steps = rng.gen_range(6u64..14);
        for secs in 1..=steps {
            let now = Timestamp::from_secs(secs);
            let mut sample = |rng: &mut SeededRng, origin: u32, at: u64| {
                epoch += 1;
                let features = gen_dataset(rng, 1, dim).iter().next().unwrap().features.clone();
                Arc::new(
                    DataPoint::new(
                        SensorId(origin),
                        Epoch(epoch),
                        Timestamp::from_secs(at),
                        features,
                    )
                    .unwrap(),
                )
            };
            let mut deliver = |rng: &mut SeededRng| {
                let keep = !rng.gen_bool(withhold);
                withheld += usize::from(!keep);
                keep
            };
            // The slide: the window first, then the book, each eviction
            // noted under the revision it moved to.
            let evicted = window.advance_to(now);
            if !evicted.is_empty() {
                window_evictions += 1;
                if deliver(&mut rng) {
                    engine.note_window_evictions(ranking, &evicted, window.revision());
                }
            }
            let cutoff = config.cutoff(now);
            for (&j, set) in known.iter_mut() {
                let evicted = set.evict_older_than(cutoff);
                if !evicted.is_empty() {
                    let revision = revisions.entry(j).or_insert(0);
                    *revision += 1;
                    book_evictions += 1;
                    if deliver(&mut rng) {
                        engine.note_evicted_points(ranking, j, &evicted, *revision);
                    }
                }
            }
            // Local samples.
            for _ in 0..rng.gen_range(0usize..4) {
                let p = sample(&mut rng, 0, secs);
                if window.insert_arc(Arc::clone(&p)) && deliver(&mut rng) {
                    engine.note_window_point(ranking, &p, window.revision());
                }
            }
            // Receipts: fresh or stale samples of the sender, and now and
            // then a point delivered before (possibly evicted since).
            for &j in &neighbors {
                if !rng.gen_bool(0.6) {
                    continue;
                }
                let mut batch: Vec<Arc<DataPoint>> = Vec::new();
                for _ in 0..rng.gen_range(1usize..4) {
                    if !delivered.is_empty() && rng.gen_bool(0.2) {
                        batch.push(Arc::clone(&delivered[rng.gen_index(delivered.len())]));
                    } else {
                        let age = rng.gen_range(0u64..window_secs + 2);
                        let p = sample(&mut rng, 10 + j.raw(), secs.saturating_sub(age));
                        delivered.push(Arc::clone(&p));
                        batch.push(p);
                    }
                }
                for p in &batch {
                    if window.insert_arc(Arc::clone(p)) && deliver(&mut rng) {
                        engine.note_window_point(ranking, p, window.revision());
                    }
                }
                let set = known.entry(j).or_default();
                batch.retain(|p| set.insert_arc(Arc::clone(p)));
                if !batch.is_empty() {
                    let revision = revisions.entry(j).or_insert(0);
                    *revision += 1;
                    if deliver(&mut rng) {
                        engine.note_shared_points(j, &batch, *revision);
                    }
                }
            }
            // Process: every neighbour's sufficient set against the
            // reference, then the send recorded and noted.
            let pi = window.contents().clone();
            let index = BruteIndex::build(&pi);
            for &j in &neighbors {
                let known_j = known.get(&j).cloned().unwrap_or_default();
                let revision = revisions.get(&j).copied().unwrap_or(0);
                let z = engine.sufficient_set(
                    ranking,
                    n,
                    &pi,
                    j,
                    &known_j,
                    (window.revision(), revision),
                );
                assert_eq!(
                    *z,
                    sufficient_set_rebuild_reference(ranking, n, &pi, &index, &known_j),
                    "case {case} (seed {SEED:#x}) {}, n={n}, dim={dim}, t={secs}s, \
                     neighbour {j}: the note-driven engine diverges from the reference",
                    ranking.name()
                );
                calls += 1;
                let batch: Vec<Arc<DataPoint>> =
                    z.difference(&known_j).iter_arcs().cloned().collect();
                if !batch.is_empty() {
                    let set = known.entry(j).or_default();
                    for p in &batch {
                        set.insert_arc(Arc::clone(p));
                    }
                    let revision = revisions.entry(j).or_insert(0);
                    *revision += 1;
                    if deliver(&mut rng) {
                        engine.note_shared_points(j, &batch, *revision);
                    }
                }
            }
        }
    }
    assert!(
        window_evictions > 0 && book_evictions > 0 && withheld > 0,
        "the stream must evict from both sides and withhold notes: {window_evictions} window \
         and {book_evictions} book evictions, {withheld} notes withheld over {calls} calls"
    );
}

/// A random dataset on the integer grid `[-3, 3]^dim`, in which about one
/// point in four repeats an earlier point's feature vector under a distinct
/// key: equal distances, and equal feature vectors that only `≺`'s identity
/// tail tells apart, are the rule rather than the exception. Keys start at
/// epoch `first_epoch`.
fn gen_grid(rng: &mut SeededRng, len: usize, dim: usize, first_epoch: u64) -> Vec<DataPoint> {
    let mut points: Vec<DataPoint> = Vec::with_capacity(len);
    for i in 0..len as u64 {
        let features = if !points.is_empty() && rng.gen_bool(0.25) {
            points[rng.gen_index(points.len())].features.clone()
        } else {
            (0..dim).map(|_| rng.gen_range(-3i64..4) as f64).collect()
        };
        points.push(point((i % 5) as u32, first_epoch + i, features));
    }
    points
}

/// Asserts an index's answer is the reference prefix bit for bit: the same
/// distance bits and the very same points (one allocation, not an equal
/// copy), in the same order.
fn assert_same_prefix(expected: &[(f64, &DataPoint)], got: &[(f64, &DataPoint)], context: &str) {
    assert_eq!(expected.len(), got.len(), "candidate count differs: {context}");
    for (i, (e, g)) in expected.iter().zip(got.iter()).enumerate() {
        assert_eq!(e.0.to_bits(), g.0.to_bits(), "distance #{i} differs: {context}");
        assert!(std::ptr::eq(e.1, g.1), "neighbour #{i} is not the same point: {context}");
    }
}

/// The one-pass brute-force kernel — the `BruteIndex`, a brute-sized
/// `DynamicIndex`, and a dynamic index's spill merged with its k-d base —
/// against the plain full sort `neighbors_by_distance`, across 256 seeded
/// cases on the integer grid (see `gen_grid`). Half the cases stay below
/// the brute threshold; the other half build a k-d base and then interleave
/// inserts and removals without reaching a rebuild, so the spill is
/// non-empty when queried. Queries are every member of the set, a copy of a
/// member's features under a fresh key, and fresh grid points; `k` runs
/// over {0, 1, 2, len, len + 3} and the radius over 0, a distance the
/// reference holds (tied where it has a tie) and ∞.
#[test]
fn brute_kernels_equal_the_full_sort_reference() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 5);
    let (mut brute_sized, mut spilled, mut tied_radii) = (0usize, 0usize, 0usize);
    for case in 0..CASES {
        let dim = rng.gen_range(1usize..4);
        let large = case % 2 == 1;
        let len = if large {
            rng.gen_range(AUTO_BRUTE_THRESHOLD..AUTO_BRUTE_THRESHOLD * 2)
        } else {
            rng.gen_range(0usize..AUTO_BRUTE_THRESHOLD - 8)
        };
        let mut contents: PointSet = gen_grid(&mut rng, len, dim, 0).into_iter().collect();
        let mut dynamic = DynamicIndex::build(&contents);
        // Interleave inserts (some repeating a held feature vector) and
        // removals of held points, staying under both the rebuild
        // threshold and, for the small cases, the brute threshold.
        let inserts = rng.gen_range(1usize..8);
        let fresh = gen_grid(&mut rng, inserts, dim, 1_000);
        for p in fresh {
            let p = if !contents.is_empty() && rng.gen_bool(0.5) {
                let held = contents.iter().nth(rng.gen_index(contents.len())).expect("held");
                point(p.key.origin.0, p.key.epoch.0, held.features.clone())
            } else {
                p
            };
            let handle = Arc::new(p);
            assert!(dynamic.insert_arc(Arc::clone(&handle)), "case {case}: a fresh key");
            contents.insert_arc(handle);
            if rng.gen_bool(0.4) {
                let key = *contents.keys().nth(rng.gen_index(contents.len())).expect("held");
                assert!(dynamic.remove(&key), "case {case}: removing a held key");
                contents.discard(&key);
            }
        }
        assert_eq!(dynamic.to_point_set(), contents, "case {case}");
        if large {
            if dynamic.spilled() == 0 {
                // Every insert was removed again: spill one more.
                let handle = Arc::new(point(6, 2_000, vec![0.0; dim]));
                dynamic.insert_arc(Arc::clone(&handle));
                contents.insert_arc(handle);
            }
            assert!(dynamic.spilled() > 0, "case {case}: a k-d base and a non-empty spill");
            spilled += 1;
        } else {
            assert!(contents.len() < AUTO_BRUTE_THRESHOLD && dynamic.spilled() == 0);
            brute_sized += 1;
        }
        let brute = BruteIndex::build(&contents);
        let mut queries: Vec<DataPoint> = contents.iter().cloned().collect();
        if let Some(member) = contents.iter().nth(rng.gen_index(contents.len().max(1))) {
            queries.push(point(7, 3_000, member.features.clone()));
        }
        queries.extend(gen_grid(&mut rng, 3, dim, 4_000)); // keys the set never holds
        for (qi, x) in queries.iter().enumerate() {
            let reference = neighbors_by_distance(x, &contents);
            let tie = reference.windows(2).position(|w| w[0].0 == w[1].0);
            let tied = tie.or_else(|| (!reference.is_empty()).then(|| qi % reference.len()));
            tied_radii += usize::from(tie.is_some());
            let len = contents.len();
            for (label, index) in [
                ("brute", &brute as &dyn NeighborIndex),
                ("dynamic", &dynamic as &dyn NeighborIndex),
            ] {
                let context = format!("case {case} (seed {SEED:#x}) {label}, dim={dim}, q#{qi}");
                for k in [0, 1, 2, len, len + 3] {
                    assert_same_prefix(
                        &reference[..k.min(reference.len())],
                        &index.k_nearest(x, k),
                        &format!("k_nearest k={k}, {context}"),
                    );
                }
                let radii = [0.0, tied.map_or(1.0, |i| reference[i].0), f64::INFINITY];
                for radius in radii {
                    let inside = reference.iter().take_while(|(d, _)| *d <= radius).count();
                    assert_same_prefix(
                        &reference[..inside],
                        &index.within_radius(x, radius),
                        &format!("within_radius r={radius}, {context}"),
                    );
                }
            }
        }
    }
    assert!(
        brute_sized > 0 && spilled > 0 && tied_radii > 0,
        "{brute_sized} brute-sized and {spilled} spilled cases, {tied_radii} tied radii"
    );
}
