//! Cross-crate checks of the ranking-function axioms (§4.1) and of the role
//! they play in the correctness theorems: every shipped ranking function
//! satisfies both axioms (and therefore converges to the exact answer), while
//! the documented anti-monotone-but-not-smooth counterexample can terminate
//! on an agreed-but-wrong estimate — exactly the caveat the paper attaches to
//! Theorem 2.
//!
//! The random-data properties run as seeded loops over the in-repo PRNG, so
//! every case is reproducible from the fixed `SEED` and a failure prints the
//! generated inputs.

use in_network_outlier::prelude::*;
use wsn_data::rng::SeededRng;
use wsn_ranking::axioms::{
    check_affection_radius, check_axioms_on_pair, support_sets_preserve_rank, ThresholdCountRanking,
};
use wsn_ranking::knn::MISSING_NEIGHBOR_PENALTY;
use wsn_ranking::{KthNeighborDistance, NeighborCountInverse};

/// Fixed seed for the property loops.
const SEED: u64 = 0x5EED_A002;
/// Property cases per test.
const CASES: usize = 256;

fn point(sensor: u32, epoch: u64, value: f64) -> DataPoint {
    DataPoint::new(SensorId(sensor), Epoch(epoch), Timestamp::ZERO, vec![value]).unwrap()
}

fn point_set(values: &[f64]) -> PointSet {
    values.iter().enumerate().map(|(e, v)| point(1, e as u64, *v)).collect()
}

fn gen_values(rng: &mut SeededRng, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = rng.gen_range(min_len..max_len);
    (0..len).map(|_| rng.gen_range(-50.0..50.0)).collect()
}

/// Anti-monotonicity and smoothness hold for every shipped ranking function,
/// for every point, on random nested datasets.
#[test]
fn shipped_ranking_functions_satisfy_both_axioms() {
    let mut rng = SeededRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let values = gen_values(&mut rng, 3, 16);
        let keep: Vec<bool> = (0..values.len()).map(|_| rng.gen_bool(0.5)).collect();
        let large = point_set(&values);
        let small: PointSet = large
            .iter()
            .zip(keep.iter().cycle())
            .filter(|(_, &k)| k)
            .map(|(p, _)| p.clone())
            .collect();

        let rankings: Vec<Box<dyn RankingFunction>> = vec![
            Box::new(NnDistance),
            Box::new(KnnAverageDistance::new(3)),
            Box::new(KthNeighborDistance::new(2)),
            Box::new(NeighborCountInverse::new(5.0)),
        ];
        for ranking in &rankings {
            let violations = check_axioms_on_pair(ranking.as_ref(), &small, &large);
            assert!(
                violations.is_empty(),
                "case {case} (seed {SEED:#x}): {} violated an axiom: {violations:?}\n\
                 values: {values:?}\nkeep: {keep:?}",
                ranking.name(),
            );
        }
    }
}

/// The affection-radius contract the incremental fixed point relies on
/// across insertions *and* removals: for every shipped ranking, every query
/// point and every one-point update (removing a point of the set, adding a
/// candidate) by a point strictly beyond `affection_radius(R(x, D))`, the
/// rank stays bit-identical; and the radius is monotone in the rank. Half
/// the coordinates come from a coarse half-unit lattice, so duplicate
/// coordinates and distance ties are common, and sets smaller than `k + 1`
/// give penalty-inflated k-NN ranks; the loop counts both to show they
/// occur.
#[test]
fn affection_radii_bound_insertions_and_removals() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 3);
    let gen = |rng: &mut SeededRng, sensor: u32, len: usize, dim: usize| -> PointSet {
        (0..len)
            .map(|e| {
                let features = (0..dim)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            (rng.gen_range(-6i64..6) as f64) * 0.5
                        } else {
                            rng.gen_range(-10.0..10.0)
                        }
                    })
                    .collect();
                DataPoint::new(SensorId(sensor), Epoch(e as u64), Timestamp::ZERO, features)
                    .unwrap()
            })
            .collect()
    };
    let (mut ties, mut penalized) = (0usize, 0usize);
    for case in 0..CASES {
        let dim = rng.gen_range(1usize..3);
        let data_len = rng.gen_range(1usize..12);
        let data = gen(&mut rng, 1, data_len, dim);
        let candidate_len = rng.gen_range(1usize..6);
        let candidates = gen(&mut rng, 2, candidate_len, dim);
        let k = rng.gen_range(1usize..5);
        let alpha = rng.gen_range(0.5..6.0);
        let rankings: Vec<Box<dyn RankingFunction>> = vec![
            Box::new(NnDistance),
            Box::new(KnnAverageDistance::new(k)),
            Box::new(KthNeighborDistance::new(k)),
            Box::new(NeighborCountInverse::new(alpha)),
        ];
        for x in data.iter().chain(candidates.iter()) {
            if data.iter().any(|y| y.key != x.key && y.features == x.features) {
                ties += 1;
            }
            if KnnAverageDistance::new(k).rank(x, &data) >= MISSING_NEIGHBOR_PENALTY / k as f64 {
                penalized += 1;
            }
            for ranking in &rankings {
                let violation = check_affection_radius(ranking.as_ref(), x, &data, &candidates);
                assert!(
                    violation.is_none(),
                    "case {case} (seed {SEED:#x}): {} broke its affection radius: \
                     {violation:?}\nx: {x}\ndata: {data}\ncandidates: {candidates}",
                    ranking.name(),
                );
            }
        }
    }
    assert!(ties > 0 && penalized > 0, "ties {ties}, penalty-inflated ranks {penalized}");
}

/// The support set really is a support set: computing the rank over just
/// `[P|x]` gives the same value as over all of `P`, for every point.
#[test]
fn support_sets_preserve_the_rank() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 1);
    for case in 0..CASES {
        let values = gen_values(&mut rng, 2, 30);
        let data = point_set(&values);
        let rankings: Vec<Box<dyn RankingFunction>> = vec![
            Box::new(NnDistance),
            Box::new(KnnAverageDistance::new(4)),
            Box::new(KthNeighborDistance::new(3)),
            Box::new(NeighborCountInverse::new(5.0)),
        ];
        for ranking in &rankings {
            assert!(
                support_sets_preserve_rank(ranking.as_ref(), &data),
                "case {case} (seed {SEED:#x}): {} returned a support set that changes the rank\n\
                 values: {values:?}",
                ranking.name(),
            );
        }
    }
}

/// Runs the two-node global protocol to termination and returns the two
/// nodes, under an arbitrary ranking function. It keeps its own alternating
/// order (`p_i` sends, `p_j` receives and sends, and so on) because Theorem
/// 2's caveat depends on the order of delivery: under the loss-free
/// transport's order, both scenarios of
/// `non_smooth_ranking_can_terminate_on_a_wrong_answer` converge on the
/// true answer.
fn run_pair<R: RankingFunction + Clone>(
    ranking: R,
    di: &[f64],
    dj: &[f64],
    n: usize,
) -> (DetectorNode<R>, DetectorNode<R>) {
    let window = WindowConfig::from_secs(1_000_000).unwrap();
    let mut pi = DetectorNode::new(SensorId(1), ranking.clone(), n, None, window);
    let mut pj = DetectorNode::new(SensorId(2), ranking, n, None, window);
    pi.add_local_points(di.iter().enumerate().map(|(e, v)| point(1, e as u64, *v)).collect());
    pj.add_local_points(dj.iter().enumerate().map(|(e, v)| point(2, e as u64, *v)).collect());
    for _ in 0..200 {
        let mut progress = false;
        if let Some(m) = pi.process(&[SensorId(2)]) {
            pj.receive(SensorId(1), m.points_for(SensorId(2)));
            progress = true;
        }
        if let Some(m) = pj.process(&[SensorId(1)]) {
            pi.receive(SensorId(2), m.points_for(SensorId(1)));
            progress = true;
        }
        if !progress {
            break;
        }
    }
    (pi, pj)
}

/// The whole dataset of a two-node scenario, for computing the true answer.
fn union_of(di: &[f64], dj: &[f64]) -> PointSet {
    di.iter()
        .enumerate()
        .map(|(e, v)| point(1, e as u64, *v))
        .chain(dj.iter().enumerate().map(|(e, v)| point(2, e as u64, *v)))
        .collect()
}

/// Two mirror-image scenarios in which all of a node's points look equally
/// outlying under the step-function ranking, so whichever end of the
/// tie-breaking order the implementation prefers, one of the two scenarios
/// converges on a point that is *not* the true `O_1(D)`.
const SCENARIO_A: (&[f64], &[f64]) = (&[0.0, 1.0, 50.0], &[0.5, 30.0, 30.2, 30.9]);
const SCENARIO_B: (&[f64], &[f64]) = (&[100.0, 99.0, 50.0], &[99.5, 70.0, 70.2, 70.9]);

/// Theorem 2's caveat, reproduced: with an anti-monotone but *not smooth*
/// ranking function the protocol still terminates and still agrees
/// (Theorem 1 needs only anti-monotonicity), but the agreed answer can be
/// wrong.
#[test]
fn non_smooth_ranking_can_terminate_on_a_wrong_answer() {
    let ranking = ThresholdCountRanking::new(1.5, 2);
    let mut wrong_convergences = 0;
    for (di, dj) in [SCENARIO_A, SCENARIO_B] {
        let (pi, pj) = run_pair(ranking, di, dj, 1);
        // Theorem 1 (agreement) needs only anti-monotonicity: it must hold.
        assert!(
            pi.estimate().same_outliers_as(&pj.estimate()),
            "agreement must hold even without smoothness"
        );
        let truth = top_n_outliers(&ranking, 1, &union_of(di, dj));
        if !pi.estimate().same_outliers_as(&truth) {
            wrong_convergences += 1;
        }
    }
    assert!(
        wrong_convergences >= 1,
        "expected at least one scenario in which the non-smooth ranking converges on a wrong answer"
    );
}

/// With a smooth ranking function, the very same scenarios converge on
/// exactly the right answer — the contrast that makes the previous test
/// meaningful, and a direct check of Theorem 2.
#[test]
fn smooth_rankings_converge_correctly_on_the_same_scenarios() {
    for (di, dj) in [SCENARIO_A, SCENARIO_B] {
        for n in 1..=3 {
            let (pi, pj) = run_pair(NnDistance, di, dj, n);
            let truth = top_n_outliers(&NnDistance, n, &union_of(di, dj));
            assert!(pi.estimate().same_outliers_as(&truth), "NN converged on a wrong answer");
            assert!(pi.estimate().same_outliers_as(&pj.estimate()));

            let (ki, kj) = run_pair(KnnAverageDistance::new(2), di, dj, n);
            let truth = top_n_outliers(&KnnAverageDistance::new(2), n, &union_of(di, dj));
            assert!(ki.estimate().same_outliers_as(&truth), "KNN converged on a wrong answer");
            assert!(ki.estimate().same_outliers_as(&kj.estimate()));
        }
    }
}
