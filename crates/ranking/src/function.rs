//! The [`RankingFunction`] trait and shared neighbour machinery.
//!
//! A ranking function assigns each point a non-negative "outlierness" score
//! relative to a dataset, and knows how to produce the **smallest support
//! set** `[P|x]` — the subset of `P` that already determines `R(x, P)`.
//! Support sets are what the distributed algorithm ships between sensors
//! instead of whole datasets, which is where all its bandwidth savings come
//! from (§5.2).

use crate::index::{AnyIndex, NeighborIndex};
use wsn_data::order::total_order;
use wsn_data::{DataPoint, PointSet};

/// An unsupervised, distance-based outlier ranking function `R`.
///
/// Implementations must satisfy the paper's two axioms (anti-monotonicity and
/// smoothness) for the distributed algorithm to converge to the correct
/// global answer (Theorems 1–2); [`crate::axioms`] provides executable checks
/// and the test-suite verifies every shipped implementation against them.
///
/// The point `x` itself is never considered its own neighbour: if `x ∈ P`, it
/// is excluded from all neighbour computations (`R(x, P) = R(x, P \ {x})`).
pub trait RankingFunction: Send + Sync {
    /// A short human-readable name (used in experiment output).
    fn name(&self) -> &'static str;

    /// The rank `R(x, data)`: the degree to which `x` is an outlier with
    /// respect to `data`. Larger means more outlying. May be
    /// `f64::INFINITY` when `data` is too small to provide evidence (e.g.
    /// fewer than `k` neighbours), which is the most-outlying possible value
    /// and keeps the function anti-monotone.
    fn rank(&self, x: &DataPoint, data: &PointSet) -> f64;

    /// The unique smallest support set `[data|x]`: the subset `Q ⊆ data` with
    /// `R(x, Q) = R(x, data)` of minimum cardinality (ties broken by the
    /// total order `≺`). Removing any other point of `data` cannot change
    /// `x`'s rank.
    fn support_set(&self, x: &DataPoint, data: &PointSet) -> PointSet;

    /// The rank `R(x, D)` where `D` is the dataset a [`NeighborIndex`] was
    /// built over. Must return exactly the same value as
    /// [`rank`](RankingFunction::rank) on that dataset.
    ///
    /// The default implementation runs the brute path over the index's
    /// snapshot — borrowed for free from brute-backed indexes (everything
    /// the auto strategy builds for small sets), materialised per call
    /// otherwise. Always correct, never faster. Every shipped ranking
    /// overrides it with a native index query; custom rankings should too if
    /// they are ever used on the hot paths ([`crate::topn::top_n_outliers`],
    /// the sufficient-set kernel) over large windows.
    fn rank_indexed(&self, x: &DataPoint, index: &dyn NeighborIndex) -> f64 {
        match index.snapshot() {
            Some(data) => self.rank(x, data),
            None => self.rank(x, &index.to_point_set()),
        }
    }

    /// The support set `[D|x]` over the indexed dataset. Must return exactly
    /// the same set as [`support_set`](RankingFunction::support_set); the
    /// default implementation is the same brute fallback as
    /// [`rank_indexed`](RankingFunction::rank_indexed).
    fn support_set_indexed(&self, x: &DataPoint, index: &dyn NeighborIndex) -> PointSet {
        match index.snapshot() {
            Some(data) => self.support_set(x, data),
            None => self.support_set(x, &index.to_point_set()),
        }
    }

    /// An upper bound on how far away a dataset point can be and still
    /// determine the rank of a point whose rank is `rank`. The contract has
    /// three parts:
    ///
    /// * **Insertions and removals alike.** If
    ///   `‖x − y‖ > affection_radius(R(x, D))`, then adding `y` to `D` or
    ///   removing it from `D` leaves `R(x, D)` bit-identical — not just
    ///   approximately equal, but the identical `f64` (`y` lies outside
    ///   `x`'s rank-determining neighbourhood either way).
    /// * **Monotone in the rank.** `r1 ≤ r2` implies
    ///   `affection_radius(r1) ≤ affection_radius(r2)`, so a radius computed
    ///   from a rank *upper bound* is at least the radius of the true rank.
    /// * **`f64::INFINITY` is always sound**, and is the default: it
    ///   declares every cached rank stale on any update, which degrades
    ///   performance, never correctness.
    ///
    /// Incremental evaluators (the sufficient-set fixed-point engine in
    /// `wsn-core`) use this to keep cached ranks *exact* across insertions
    /// instead of merely anti-monotone upper bounds, re-ranking only points
    /// whose neighbourhood an insertion actually entered, and to keep every
    /// cached rank an upper bound across removals, re-ranking only points a
    /// removed point lay within the radius of.
    /// [`crate::axioms::check_affection_radius`] checks all three parts.
    ///
    /// Implementations must be conservative: returning a radius that is too
    /// small breaks the exactness guarantee, returning one too large only
    /// costs re-ranking work.
    fn affection_radius(&self, rank: f64) -> f64 {
        let _ = rank;
        f64::INFINITY
    }

    /// The exact rank over `D ∪ {y}` of a point whose exact rank over `D`
    /// is `rank`, where `distance = ‖x − y‖` — for rankings that can derive
    /// it from those two values alone (`None` otherwise, the default).
    /// When `Some` is returned, it must be the identical `f64` a fresh
    /// [`rank`](RankingFunction::rank) over the grown set would produce.
    ///
    /// The nearest-neighbour ranking overrides this (`min(rank, distance)`),
    /// which lets incremental evaluators absorb insertions with one
    /// subtraction-free comparison per cached rank instead of re-querying
    /// the index at all.
    fn rank_after_insertion(&self, rank: f64, distance: f64) -> Option<f64> {
        let _ = (rank, distance);
        None
    }
}

/// Blanket implementation so `&R`, `Box<R>`, `Arc<R>` can be used wherever a
/// ranking function is expected.
impl<R: RankingFunction + ?Sized> RankingFunction for &R {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn rank(&self, x: &DataPoint, data: &PointSet) -> f64 {
        (**self).rank(x, data)
    }
    fn support_set(&self, x: &DataPoint, data: &PointSet) -> PointSet {
        (**self).support_set(x, data)
    }
    fn rank_indexed(&self, x: &DataPoint, index: &dyn NeighborIndex) -> f64 {
        (**self).rank_indexed(x, index)
    }
    fn support_set_indexed(&self, x: &DataPoint, index: &dyn NeighborIndex) -> PointSet {
        (**self).support_set_indexed(x, index)
    }
    fn affection_radius(&self, rank: f64) -> f64 {
        (**self).affection_radius(rank)
    }
    fn rank_after_insertion(&self, rank: f64, distance: f64) -> Option<f64> {
        (**self).rank_after_insertion(rank, distance)
    }
}

impl<R: RankingFunction + ?Sized> RankingFunction for std::sync::Arc<R> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn rank(&self, x: &DataPoint, data: &PointSet) -> f64 {
        (**self).rank(x, data)
    }
    fn support_set(&self, x: &DataPoint, data: &PointSet) -> PointSet {
        (**self).support_set(x, data)
    }
    fn rank_indexed(&self, x: &DataPoint, index: &dyn NeighborIndex) -> f64 {
        (**self).rank_indexed(x, index)
    }
    fn support_set_indexed(&self, x: &DataPoint, index: &dyn NeighborIndex) -> PointSet {
        (**self).support_set_indexed(x, index)
    }
    fn affection_radius(&self, rank: f64) -> f64 {
        (**self).affection_radius(rank)
    }
    fn rank_after_insertion(&self, rank: f64, distance: f64) -> Option<f64> {
        (**self).rank_after_insertion(rank, distance)
    }
}

/// The union of the support sets of every point of `query` over `data` — the
/// paper's `[P|Q] = ⋃_{x∈Q} [P|x]`.
///
/// Builds one [`NeighborIndex`] over `data` and reuses it for every query
/// point; callers that already hold an index for `data` should use
/// [`support_of_set_indexed`] instead.
pub fn support_of_set<R: RankingFunction + ?Sized>(
    ranking: &R,
    data: &PointSet,
    query: &PointSet,
) -> PointSet {
    let index = AnyIndex::build(data);
    support_of_set_indexed(ranking, &index, query)
}

/// [`support_of_set`] over a pre-built index of the dataset — the form used
/// by the sufficient-set fixed point, which queries the same `P_i` many
/// times.
pub fn support_of_set_indexed<R: RankingFunction + ?Sized>(
    ranking: &R,
    index: &dyn NeighborIndex,
    query: &PointSet,
) -> PointSet {
    let mut out = PointSet::new();
    for x in query.iter() {
        out.extend_from(&ranking.support_set_indexed(x, index));
    }
    out
}

/// The neighbours of `x` within `data` (excluding `x` itself), sorted by
/// ascending feature distance with ties broken by the total order `≺`.
///
/// This deterministic ordering is what makes the "k nearest neighbours" — and
/// therefore the smallest support set — unique, as the paper's tie-breaking
/// assumption requires.
pub fn neighbors_by_distance<'a>(x: &DataPoint, data: &'a PointSet) -> Vec<(f64, &'a DataPoint)> {
    let mut neighbors: Vec<(f64, &DataPoint)> =
        data.iter().filter(|p| p.key != x.key).map(|p| (x.feature_distance(p), p)).collect();
    neighbors.sort_by(|(da, a), (db, b)| da.total_cmp(db).then_with(|| total_order(a, b)));
    neighbors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::NnDistance;
    use std::sync::Arc;
    use wsn_data::{Epoch, SensorId, Timestamp};

    fn pt(id: u32, epoch: u64, v: f64) -> DataPoint {
        DataPoint::new(SensorId(id), Epoch(epoch), Timestamp::ZERO, vec![v]).unwrap()
    }

    #[test]
    fn neighbors_exclude_self_and_sort_by_distance() {
        let x = pt(1, 0, 0.0);
        let data: PointSet =
            vec![x.clone(), pt(2, 0, 5.0), pt(3, 0, -1.0), pt(4, 0, 2.0)].into_iter().collect();
        let n = neighbors_by_distance(&x, &data);
        assert_eq!(n.len(), 3);
        let dists: Vec<f64> = n.iter().map(|(d, _)| *d).collect();
        assert_eq!(dists, vec![1.0, 2.0, 5.0]);
        assert!(n.iter().all(|(_, p)| p.key != x.key));
    }

    #[test]
    fn equal_distances_are_broken_by_total_order() {
        let x = pt(1, 0, 0.0);
        // Two neighbours both at distance 2, with different values.
        let a = pt(2, 0, -2.0);
        let b = pt(3, 0, 2.0);
        let data: PointSet = vec![x.clone(), b.clone(), a.clone()].into_iter().collect();
        let n = neighbors_by_distance(&x, &data);
        assert_eq!(n[0].1.features, vec![-2.0]); // -2.0 ≺ 2.0
        assert_eq!(n[1].1.features, vec![2.0]);
    }

    #[test]
    fn support_of_set_unions_individual_supports() {
        let a = pt(1, 0, 0.0);
        let b = pt(2, 0, 10.0);
        let c = pt(3, 0, 0.5);
        let d = pt(4, 0, 9.5);
        let data: PointSet = vec![a.clone(), b.clone(), c.clone(), d.clone()].into_iter().collect();
        let query: PointSet = vec![a.clone(), b.clone()].into_iter().collect();
        let support = support_of_set(&NnDistance, &data, &query);
        // NN of a is c, NN of b is d.
        assert!(support.contains(&c));
        assert!(support.contains(&d));
        assert_eq!(support.len(), 2);
    }

    #[test]
    fn trait_is_object_safe_and_works_through_references() {
        let data: PointSet = vec![pt(1, 0, 0.0), pt(2, 0, 3.0)].into_iter().collect();
        let x = pt(1, 0, 0.0);
        let boxed: Box<dyn RankingFunction> = Box::new(NnDistance);
        assert_eq!(boxed.rank(&x, &data), 3.0);
        let arc: Arc<dyn RankingFunction> = Arc::new(NnDistance);
        assert_eq!(arc.rank(&x, &data), 3.0);
        let by_ref: &dyn RankingFunction = &NnDistance;
        assert_eq!(by_ref.rank(&x, &data), 3.0);
        assert_eq!(by_ref.name(), "nn");
    }
}
