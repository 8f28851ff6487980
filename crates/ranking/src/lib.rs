//! # wsn-ranking
//!
//! Outlier ranking functions for the reproduction of *In-Network Outlier
//! Detection in Wireless Sensor Networks* (Branch et al., ICDCS 2006).
//!
//! The paper defines outliers via a **ranking function** `R(x, D)` mapping a
//! point and a finite dataset to a non-negative degree of "outlierness", and
//! requires two axioms (§4.1):
//!
//! * **anti-monotonicity** — for `Q1 ⊆ Q2`, `R(x, Q1) ≥ R(x, Q2)`: seeing
//!   more data can only make a point look less outlying;
//! * **smoothness** — if `R(x, Q1) > R(x, Q2)` then some single point
//!   `z ∈ Q2 \ Q1` already lowers the rank: `R(x, Q1) > R(x, Q1 ∪ {z})`.
//!
//! The crate ships the ranking functions the paper names:
//!
//! * [`nn::NnDistance`] — distance to the nearest neighbour (the `NN`
//!   configuration of the evaluation),
//! * [`knn::KnnAverageDistance`] — average distance to the `k` nearest
//!   neighbours (the `KNN` configuration),
//! * [`knn::KthNeighborDistance`] — distance to the `k`-th nearest neighbour,
//! * [`count::NeighborCountInverse`] — the inverse of the number of
//!   neighbours within a radius `α`,
//!
//! together with:
//!
//! * the [`function::RankingFunction`] trait with **support sets** `[P|x]`
//!   (the unique smallest subset that preserves the rank, the object at the
//!   heart of the sufficient-set computation of §5.2),
//! * [`index`] — the spatial neighbour-index subsystem: a
//!   [`index::NeighborIndex`] trait with brute-force, uniform-grid and
//!   k-d-tree implementations that answer every `k`-nearest / in-radius
//!   query with **exactly** the brute path's deterministically tie-broken
//!   ordering. Every hot path (`top_n_outliers`, `support_of_set`, the
//!   sufficient-set kernel in `wsn-core`) builds one index per dataset and
//!   reuses it across all queries, cutting the former `O(w² log w)`
//!   per-event cost to an index build plus `w` near-logarithmic queries —
//!   with bit-identical estimates, support sets and sufficient sets,
//! * [`topn`] — selection of the top-`n` outliers `O_n(D)` with the paper's
//!   tie-breaking total order, and
//! * [`axioms`] — executable checks of the two axioms, plus a documented
//!   anti-monotone-but-not-smooth counterexample used to exercise the limits
//!   of Theorem 2.
//!
//! # Example
//!
//! ```
//! use wsn_data::{DataPoint, Epoch, PointSet, SensorId, Timestamp};
//! use wsn_ranking::nn::NnDistance;
//! use wsn_ranking::topn::top_n_outliers;
//!
//! let mk = |id: u32, v: f64| {
//!     DataPoint::new(SensorId(id), Epoch(0), Timestamp::ZERO, vec![v]).unwrap()
//! };
//! let data: PointSet = vec![mk(1, 0.5), mk(2, 3.0), mk(3, 4.0), mk(4, 5.0)].into_iter().collect();
//! let outliers = top_n_outliers(&NnDistance, 1, &data);
//! // 0.5 sits 2.5 away from everything else: it is the top outlier.
//! assert_eq!(outliers.points()[0].features, vec![0.5]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axioms;
pub mod count;
pub mod function;
pub mod index;
pub mod knn;
pub mod nn;
pub mod topn;

pub use count::NeighborCountInverse;
pub use function::RankingFunction;
pub use index::{AnyIndex, DynamicIndex, NeighborIndex};
pub use knn::{KnnAverageDistance, KthNeighborDistance};
pub use nn::NnDistance;
pub use topn::{top_n_outliers, top_n_outliers_indexed, OutlierEstimate};
