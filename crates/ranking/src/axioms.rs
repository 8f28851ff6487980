//! Executable checks of the paper's ranking-function axioms (§4.1).
//!
//! The correctness of the distributed algorithm rests on two properties of
//! the ranking function:
//!
//! * **anti-monotonicity** — `Q1 ⊆ Q2 ⇒ R(x, Q1) ≥ R(x, Q2)`,
//! * **smoothness** — `R(x, Q1) > R(x, Q2) ⇒ ∃ z ∈ Q2 \ Q1` with
//!   `R(x, Q1) > R(x, Q1 ∪ {z})`.
//!
//! Theorem 1 (agreement at termination) needs only anti-monotonicity;
//! Theorem 2 (the agreed answer is the correct one) additionally needs
//! smoothness. This module provides point-wise checkers used by the property
//! tests, a whole-dataset sweep, and [`ThresholdCountRanking`] — a ranking
//! that is anti-monotone but **not** smooth, used by the test-suite to
//! exhibit the failure mode the paper warns about after Theorem 2.
//!
//! A third, implementation-level contract — the affection radius of
//! [`RankingFunction::affection_radius`], which the incremental fixed-point
//! engine relies on across insertions and removals — is checked by
//! [`check_affection_radius`].

use crate::function::{neighbors_by_distance, RankingFunction};
use wsn_data::{DataPoint, PointSet};

/// Violation found by an axiom check.
#[derive(Debug, Clone, PartialEq)]
pub enum AxiomViolation {
    /// Anti-monotonicity failed for the reported point.
    AntiMonotonicity {
        /// The point whose rank increased when data was added.
        point: DataPoint,
        /// Rank over the smaller set.
        rank_small: f64,
        /// Rank over the larger set.
        rank_large: f64,
    },
    /// Smoothness failed for the reported point: its rank drops from `Q1` to
    /// `Q2` but no single added point lowers it.
    Smoothness {
        /// The point whose rank cannot be lowered by any single addition.
        point: DataPoint,
        /// Rank over the smaller set.
        rank_small: f64,
        /// Rank over the larger set.
        rank_large: f64,
    },
    /// The affection radius was too small: adding or removing a point
    /// strictly beyond it changed the reported point's rank.
    AffectionRadius {
        /// The point whose rank changed.
        point: DataPoint,
        /// The point added or removed, farther away than the radius.
        other: DataPoint,
        /// Rank before the update.
        rank_before: f64,
        /// Rank after the update.
        rank_after: f64,
    },
    /// The affection radius shrank as the rank grew.
    RadiusNotMonotone {
        /// The smaller of the two ranks.
        rank_low: f64,
        /// The larger of the two ranks.
        rank_high: f64,
        /// The radius at `rank_low`.
        radius_low: f64,
        /// The radius at `rank_high`, smaller than `radius_low`.
        radius_high: f64,
    },
}

/// Checks anti-monotonicity of `ranking` for one point and one `Q1 ⊆ Q2`
/// pair. Returns a violation if `R(x, Q1) < R(x, Q2)`.
///
/// # Panics
///
/// Panics if `small` is not a subset of `large` — the axiom is only defined
/// for nested sets, so calling it otherwise is a test-harness bug.
pub fn check_anti_monotonicity<R: RankingFunction + ?Sized>(
    ranking: &R,
    x: &DataPoint,
    small: &PointSet,
    large: &PointSet,
) -> Option<AxiomViolation> {
    assert!(small.is_subset_of(large), "anti-monotonicity requires Q1 ⊆ Q2");
    let rank_small = ranking.rank(x, small);
    let rank_large = ranking.rank(x, large);
    if rank_small < rank_large {
        Some(AxiomViolation::AntiMonotonicity { point: x.clone(), rank_small, rank_large })
    } else {
        None
    }
}

/// Checks smoothness of `ranking` for one point and one `Q1 ⊆ Q2` pair.
/// Returns a violation if the rank strictly drops from `Q1` to `Q2` yet no
/// single point of `Q2 \ Q1` lowers it when added alone.
///
/// # Panics
///
/// Panics if `small` is not a subset of `large`.
pub fn check_smoothness<R: RankingFunction + ?Sized>(
    ranking: &R,
    x: &DataPoint,
    small: &PointSet,
    large: &PointSet,
) -> Option<AxiomViolation> {
    assert!(small.is_subset_of(large), "smoothness requires Q1 ⊆ Q2");
    let rank_small = ranking.rank(x, small);
    let rank_large = ranking.rank(x, large);
    if rank_small <= rank_large {
        return None; // premise not triggered
    }
    let added = large.difference(small);
    for z in added.iter() {
        let mut extended = small.clone();
        extended.insert(z.clone());
        if ranking.rank(x, &extended) < rank_small {
            return None; // found the witnessing z
        }
    }
    Some(AxiomViolation::Smoothness { point: x.clone(), rank_small, rank_large })
}

/// Checks both axioms for every point of `large` against the given nested
/// pair, returning every violation found.
pub fn check_axioms_on_pair<R: RankingFunction + ?Sized>(
    ranking: &R,
    small: &PointSet,
    large: &PointSet,
) -> Vec<AxiomViolation> {
    let mut violations = Vec::new();
    for x in large.iter() {
        if let Some(v) = check_anti_monotonicity(ranking, x, small, large) {
            violations.push(v);
        }
        if let Some(v) = check_smoothness(ranking, x, small, large) {
            violations.push(v);
        }
    }
    violations
}

/// Checks the contract of [`RankingFunction::affection_radius`] for `x` over
/// `data`, by one-point updates: removing each point of `data` (other than
/// `x`), and adding each point of `candidates` that `data` does not hold.
/// Returns the first violation found:
///
/// * an update by a point strictly farther from `x` than
///   `affection_radius(R(x, data))` that changes `R(x, data)` (compared bit
///   for bit) — the radius was too small;
/// * an update whose rank `r'` and the rank `r = R(x, data)` order the two
///   radii the other way round — the radius is not monotone in the rank.
///
/// Updates within the radius may change the rank freely.
pub fn check_affection_radius<R: RankingFunction + ?Sized>(
    ranking: &R,
    x: &DataPoint,
    data: &PointSet,
    candidates: &PointSet,
) -> Option<AxiomViolation> {
    let rank = ranking.rank(x, data);
    let radius = ranking.affection_radius(rank);
    let removals = data.iter().filter(|y| y.key != x.key).map(|y| {
        let mut without = data.clone();
        without.discard(&y.key);
        (y, without)
    });
    let additions = candidates.iter().filter(|y| y.key != x.key && !data.contains(y)).map(|y| {
        let mut with = data.clone();
        with.insert(y.clone());
        (y, with)
    });
    for (y, updated) in removals.chain(additions) {
        let rank_after = ranking.rank(x, &updated);
        if x.feature_distance(y) > radius && rank_after.to_bits() != rank.to_bits() {
            return Some(AxiomViolation::AffectionRadius {
                point: x.clone(),
                other: y.clone(),
                rank_before: rank,
                rank_after,
            });
        }
        let (rank_low, rank_high) =
            if rank <= rank_after { (rank, rank_after) } else { (rank_after, rank) };
        let (radius_low, radius_high) =
            (ranking.affection_radius(rank_low), ranking.affection_radius(rank_high));
        if radius_low > radius_high {
            return Some(AxiomViolation::RadiusNotMonotone {
                rank_low,
                rank_high,
                radius_low,
                radius_high,
            });
        }
    }
    None
}

/// Checks that the support set returned by the ranking function actually
/// preserves the rank and is contained in the data (the defining property of
/// `[P|x]`). Returns `true` when the property holds for every point of `data`.
pub fn support_sets_preserve_rank<R: RankingFunction + ?Sized>(
    ranking: &R,
    data: &PointSet,
) -> bool {
    data.iter().all(|x| {
        let support = ranking.support_set(x, data);
        support.is_subset_of(data) && ranking.rank(x, &support) == ranking.rank(x, data)
    })
}

/// A ranking that is anti-monotone but **not smooth**: the rank is 1 while a
/// point has fewer than `threshold` neighbours within `alpha`, and 0 once it
/// has at least `threshold`.
///
/// With `threshold = 2`, going from zero in-radius neighbours (`Q1`) to two
/// (`Q2`) drops the rank from 1 to 0, yet adding any *single* neighbour keeps
/// the count at 1 < 2 and the rank at 1 — exactly the smoothness failure the
/// paper's comment after Theorem 2 describes. The distributed algorithm can
/// terminate with an agreed-upon but *incorrect* answer under this ranking,
/// and the integration tests demonstrate that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdCountRanking {
    /// Neighbourhood radius.
    pub alpha: f64,
    /// Number of in-radius neighbours required for a point to stop being an
    /// outlier.
    pub threshold: usize,
}

impl ThresholdCountRanking {
    /// Creates the non-smooth counterexample ranking.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive/finite or `threshold < 2` (with a
    /// threshold of 1 the ranking is smooth and useless as a counterexample).
    pub fn new(alpha: f64, threshold: usize) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive and finite");
        assert!(threshold >= 2, "threshold must be at least 2 to break smoothness");
        ThresholdCountRanking { alpha, threshold }
    }
}

impl RankingFunction for ThresholdCountRanking {
    fn name(&self) -> &'static str {
        "threshold-count (non-smooth)"
    }

    fn rank(&self, x: &DataPoint, data: &PointSet) -> f64 {
        let in_radius =
            neighbors_by_distance(x, data).iter().take_while(|(d, _)| *d <= self.alpha).count();
        if in_radius >= self.threshold {
            0.0
        } else {
            1.0
        }
    }

    fn support_set(&self, x: &DataPoint, data: &PointSet) -> PointSet {
        // The first `threshold` in-radius neighbours (if the rank is 0) pin
        // the rank down; if the rank is 1 the empty set already yields 1.
        let mut out = PointSet::new();
        let neighbors = neighbors_by_distance(x, data);
        let in_radius: Vec<_> = neighbors.iter().take_while(|(d, _)| *d <= self.alpha).collect();
        if in_radius.len() >= self.threshold {
            for (_, p) in in_radius.into_iter().take(self.threshold) {
                out.insert((*p).clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::NeighborCountInverse;
    use crate::knn::{KnnAverageDistance, KthNeighborDistance};
    use crate::nn::NnDistance;
    use wsn_data::{Epoch, SensorId, Timestamp};

    fn pt(id: u32, v: f64) -> DataPoint {
        DataPoint::new(SensorId(id), Epoch(0), Timestamp::ZERO, vec![v]).unwrap()
    }

    fn small_and_large() -> (PointSet, PointSet) {
        let small: PointSet = vec![pt(1, 0.0), pt(2, 8.0)].into_iter().collect();
        let large: PointSet =
            vec![pt(1, 0.0), pt(2, 8.0), pt(3, 1.0), pt(4, 7.5), pt(5, 20.0)].into_iter().collect();
        (small, large)
    }

    #[test]
    fn shipped_rankings_satisfy_both_axioms_on_a_nested_pair() {
        let (small, large) = small_and_large();
        let rankings: Vec<Box<dyn RankingFunction>> = vec![
            Box::new(NnDistance),
            Box::new(KnnAverageDistance::new(2)),
            Box::new(KthNeighborDistance::new(2)),
            Box::new(NeighborCountInverse::new(2.0)),
        ];
        for r in &rankings {
            let violations = check_axioms_on_pair(r.as_ref(), &small, &large);
            assert!(violations.is_empty(), "{}: {:?}", r.name(), violations);
        }
    }

    #[test]
    fn support_sets_of_shipped_rankings_preserve_ranks() {
        let (_, large) = small_and_large();
        assert!(support_sets_preserve_rank(&NnDistance, &large));
        assert!(support_sets_preserve_rank(&KnnAverageDistance::new(3), &large));
        assert!(support_sets_preserve_rank(&KthNeighborDistance::new(2), &large));
        assert!(support_sets_preserve_rank(&NeighborCountInverse::new(2.0), &large));
        assert!(support_sets_preserve_rank(&ThresholdCountRanking::new(2.0, 2), &large));
    }

    #[test]
    fn threshold_ranking_is_anti_monotone_but_not_smooth() {
        let r = ThresholdCountRanking::new(1.5, 2);
        // x has no in-radius neighbour in Q1 but two in Q2.
        let x = pt(1, 0.0);
        let q1: PointSet = vec![x.clone(), pt(9, 50.0)].into_iter().collect();
        let q2: PointSet =
            vec![x.clone(), pt(9, 50.0), pt(2, 1.0), pt(3, -1.0)].into_iter().collect();
        assert!(check_anti_monotonicity(&r, &x, &q1, &q2).is_none());
        let violation = check_smoothness(&r, &x, &q1, &q2);
        assert!(matches!(violation, Some(AxiomViolation::Smoothness { .. })));
    }

    #[test]
    fn smoothness_check_passes_when_premise_is_not_triggered() {
        let r = NnDistance;
        let x = pt(1, 0.0);
        let q: PointSet = vec![x.clone(), pt(2, 3.0)].into_iter().collect();
        assert!(check_smoothness(&r, &x, &q, &q).is_none());
    }

    #[test]
    fn a_deliberately_broken_ranking_is_caught() {
        /// Rank = number of points in the dataset (grows as data is added —
        /// the opposite of anti-monotone).
        #[derive(Debug)]
        struct Broken;
        impl RankingFunction for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn rank(&self, _x: &DataPoint, data: &PointSet) -> f64 {
                data.len() as f64
            }
            fn support_set(&self, _x: &DataPoint, data: &PointSet) -> PointSet {
                data.clone()
            }
        }
        let (small, large) = small_and_large();
        let violations = check_axioms_on_pair(&Broken, &small, &large);
        assert!(violations.iter().any(|v| matches!(v, AxiomViolation::AntiMonotonicity { .. })));
    }

    #[test]
    fn shipped_affection_radii_hold_and_a_too_small_or_shrinking_one_is_caught() {
        let (small, large) = small_and_large();
        let rankings: Vec<Box<dyn RankingFunction>> = vec![
            Box::new(NnDistance),
            Box::new(KnnAverageDistance::new(2)),
            Box::new(KthNeighborDistance::new(2)),
            Box::new(NeighborCountInverse::new(2.0)),
        ];
        for r in &rankings {
            for x in large.iter() {
                for data in [&small, &large] {
                    let violation = check_affection_radius(r.as_ref(), x, data, &large);
                    assert!(violation.is_none(), "{}: {violation:?}", r.name());
                }
            }
        }

        /// The NN rank with half the radius it needs: removing or adding a
        /// neighbour between `rank / 2` and `rank` away goes unnoticed.
        #[derive(Debug)]
        struct Broken;
        impl RankingFunction for Broken {
            fn name(&self) -> &'static str {
                "broken radius"
            }
            fn rank(&self, x: &DataPoint, data: &PointSet) -> f64 {
                NnDistance.rank(x, data)
            }
            fn support_set(&self, x: &DataPoint, data: &PointSet) -> PointSet {
                NnDistance.support_set(x, data)
            }
            fn affection_radius(&self, rank: f64) -> f64 {
                rank / 2.0
            }
        }
        let x = pt(1, 0.0);
        let violation = check_affection_radius(&Broken, &x, &large, &large);
        assert!(matches!(violation, Some(AxiomViolation::AffectionRadius { .. })), "{violation:?}");

        /// A sound but non-monotone radius: unbounded below rank 2, the NN
        /// rank itself above it.
        #[derive(Debug)]
        struct Shrinking;
        impl RankingFunction for Shrinking {
            fn name(&self) -> &'static str {
                "shrinking radius"
            }
            fn rank(&self, x: &DataPoint, data: &PointSet) -> f64 {
                NnDistance.rank(x, data)
            }
            fn support_set(&self, x: &DataPoint, data: &PointSet) -> PointSet {
                NnDistance.support_set(x, data)
            }
            fn affection_radius(&self, rank: f64) -> f64 {
                if rank < 2.0 {
                    f64::INFINITY
                } else {
                    rank
                }
            }
        }
        // x = 0 has its nearest neighbour at 1; removing it moves the rank
        // to 8, whose radius (8) is smaller than rank 1's (∞).
        let violation = check_affection_radius(&Shrinking, &x, &large, &PointSet::new());
        assert!(
            matches!(violation, Some(AxiomViolation::RadiusNotMonotone { .. })),
            "{violation:?}"
        );
    }

    #[test]
    #[should_panic(expected = "Q1 ⊆ Q2")]
    fn non_nested_sets_are_rejected() {
        let a: PointSet = vec![pt(1, 0.0)].into_iter().collect();
        let b: PointSet = vec![pt(2, 1.0)].into_iter().collect();
        let _ = check_anti_monotonicity(&NnDistance, &pt(1, 0.0), &a, &b);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn threshold_below_two_is_rejected() {
        let _ = ThresholdCountRanking::new(1.0, 1);
    }
}
