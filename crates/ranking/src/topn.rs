//! Selection of the top-`n` outliers `O_n(D)`.
//!
//! Given a ranking function and a dataset, `O_n(D)` is the set of the `n`
//! points of `D` with the largest rank `R(·, D)`, ties broken by the total
//! order `≺` (§4.1). When `|D| < n`, `O_n(D) = D`.

use crate::function::RankingFunction;
use crate::index::{AnyIndex, NeighborIndex};
use std::sync::Arc;
use wsn_data::order::{sort_by_outlier_order, RankedPoint};
use wsn_data::{DataPoint, PointKey, PointSet};

/// The result of an `O_n(·)` computation: the selected outliers in rank
/// order, together with their ranks.
///
/// The points are shared ([`Arc`]) with the dataset they were selected
/// from, and the outlier identities are additionally kept in sorted order,
/// so the membership and agreement queries the detectors run on every
/// convergence check ([`OutlierEstimate::contains_key`],
/// [`OutlierEstimate::same_outliers_as`]) are a binary search and a slice
/// comparison — no scans, no per-call sort allocations.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierEstimate {
    ranked: Vec<RankedPoint>,
    /// The outlier identities in ascending [`PointKey`] order, fixed at
    /// construction.
    sorted_keys: Vec<PointKey>,
}

impl OutlierEstimate {
    /// Wraps a selection already in outlier order (descending rank, ties
    /// by `≺`, as [`sort_by_outlier_order`] leaves it), caching its sorted
    /// keys.
    pub fn from_ranked(ranked: Vec<RankedPoint>) -> Self {
        debug_assert!(
            ranked.windows(2).all(|w| w[0].outlier_order(&w[1]).is_le()),
            "the selection must be in outlier order"
        );
        let mut sorted_keys: Vec<PointKey> = ranked.iter().map(|r| r.point.key).collect();
        sorted_keys.sort_unstable();
        OutlierEstimate { ranked, sorted_keys }
    }

    /// The outliers in descending rank order (most outlying first).
    pub fn points(&self) -> Vec<&DataPoint> {
        self.ranked.iter().map(|r| r.point.as_ref()).collect()
    }

    /// The outliers as an owned [`PointSet`], sharing the stored points.
    pub fn to_point_set(&self) -> PointSet {
        let mut out = PointSet::new();
        for r in &self.ranked {
            out.insert_arc(Arc::clone(&r.point));
        }
        out
    }

    /// The `(rank, point)` pairs in descending rank order.
    pub fn ranked(&self) -> &[RankedPoint] {
        &self.ranked
    }

    /// The identities of the outliers, in descending rank order.
    pub fn keys(&self) -> Vec<PointKey> {
        self.ranked.iter().map(|r| r.point.key).collect()
    }

    /// Number of reported outliers.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// Returns `true` if no outliers were reported (empty input).
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// Returns `true` if the given point identity is among the outliers —
    /// a binary search over the cached sorted keys.
    pub fn contains_key(&self, key: &PointKey) -> bool {
        self.sorted_keys.binary_search(key).is_ok()
    }

    /// Set equality on the reported outlier identities (ignores rank values
    /// and ordering) — the notion of agreement used by Theorems 1 and 2.
    /// Compares the cached sorted keys directly.
    pub fn same_outliers_as(&self, other: &OutlierEstimate) -> bool {
        self.sorted_keys == other.sorted_keys
    }
}

/// Computes `O_n(data)`: the top `n` outliers of `data` under `ranking`.
///
/// If `data` has at most `n` points, every point is returned.
///
/// One [`NeighborIndex`] is built over `data` and reused for all `|data|`
/// rank queries, which turns the former `O(w² log w)` selection into an
/// index build plus `w` cheap queries. Callers that already hold an index of
/// `data` should use [`top_n_outliers_indexed`].
pub fn top_n_outliers<R: RankingFunction + ?Sized>(
    ranking: &R,
    n: usize,
    data: &PointSet,
) -> OutlierEstimate {
    let index = AnyIndex::build(data);
    top_n_outliers_indexed(ranking, n, data, &index)
}

/// [`top_n_outliers`] over a pre-built index of `data`.
///
/// `index` must have been built over exactly `data`; the ranks (and thus the
/// selected outliers) are bit-identical to the brute computation.
pub fn top_n_outliers_indexed<R: RankingFunction + ?Sized>(
    ranking: &R,
    n: usize,
    data: &PointSet,
    index: &dyn NeighborIndex,
) -> OutlierEstimate {
    let mut ranked: Vec<RankedPoint> = data
        .iter_arcs()
        .map(|x| RankedPoint::new(ranking.rank_indexed(x, index), Arc::clone(x)))
        .collect();
    sort_by_outlier_order(&mut ranked);
    ranked.truncate(n);
    OutlierEstimate::from_ranked(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnAverageDistance;
    use crate::nn::NnDistance;
    use wsn_data::{Epoch, SensorId, Timestamp};

    fn pt(id: u32, v: f64) -> DataPoint {
        DataPoint::new(SensorId(id), Epoch(0), Timestamp::ZERO, vec![v]).unwrap()
    }

    fn clustered_data() -> PointSet {
        // A tight cluster around 10 plus two isolated points at 0.5 and 30.
        vec![pt(1, 0.5), pt(2, 9.0), pt(3, 9.5), pt(4, 10.0), pt(5, 10.5), pt(6, 11.0), pt(7, 30.0)]
            .into_iter()
            .collect()
    }

    #[test]
    fn top_outliers_are_the_isolated_points() {
        let est = top_n_outliers(&NnDistance, 2, &clustered_data());
        let keys = est.keys();
        assert_eq!(keys.len(), 2);
        assert!(est.contains_key(&pt(7, 30.0).key));
        assert!(est.contains_key(&pt(1, 0.5).key));
        // 30 is farther from its NN (19) than 0.5 (8.5): it ranks first.
        assert_eq!(est.points()[0].key, pt(7, 30.0).key);
    }

    #[test]
    fn small_datasets_return_everything() {
        let data: PointSet = vec![pt(1, 1.0), pt(2, 2.0)].into_iter().collect();
        let est = top_n_outliers(&NnDistance, 5, &data);
        assert_eq!(est.len(), 2);
        assert!(!est.is_empty());
        let empty = top_n_outliers(&NnDistance, 3, &PointSet::new());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn ranks_are_attached_and_descending() {
        let est = top_n_outliers(&NnDistance, 4, &clustered_data());
        let ranks: Vec<f64> = est.ranked().iter().map(|r| r.rank).collect();
        for w in ranks.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn same_outliers_ignores_order_and_detects_difference() {
        let data = clustered_data();
        let a = top_n_outliers(&NnDistance, 2, &data);
        let b = top_n_outliers(&NnDistance, 2, &data);
        assert!(a.same_outliers_as(&b));
        let c = top_n_outliers(&NnDistance, 3, &data);
        assert!(!a.same_outliers_as(&c));
    }

    #[test]
    fn different_rankings_may_disagree_but_each_is_deterministic() {
        let data = clustered_data();
        let nn = top_n_outliers(&NnDistance, 2, &data);
        let knn = top_n_outliers(&KnnAverageDistance::new(3), 2, &data);
        assert!(nn.same_outliers_as(&top_n_outliers(&NnDistance, 2, &data)));
        assert!(knn.same_outliers_as(&top_n_outliers(&KnnAverageDistance::new(3), 2, &data)));
    }

    #[test]
    fn to_point_set_round_trips_the_points() {
        let est = top_n_outliers(&NnDistance, 2, &clustered_data());
        let ps = est.to_point_set();
        assert_eq!(ps.len(), 2);
        for p in est.points() {
            assert!(ps.contains(p));
        }
    }

    #[test]
    fn paper_example_section_5_1_initial_estimates() {
        // §5.1: Di = {0.5, 3, 6, 10, 11, ..., a}; with n=1 and R = NN distance
        // the initial local estimate of pi is {6}.
        let a = 15;
        let mut di = vec![0.5, 3.0, 6.0];
        di.extend((10..=a).map(|v| v as f64));
        let data: PointSet = di.iter().enumerate().map(|(i, v)| pt(i as u32 + 1, *v)).collect();
        let est = top_n_outliers(&NnDistance, 1, &data);
        assert_eq!(est.points()[0].features, vec![6.0]);
    }
}
