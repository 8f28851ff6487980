//! Point collections used by the protocol.
//!
//! A [`PointSet`] is a set of [`DataPoint`]s keyed by their identity
//! ([`PointKey`], the paper's `x.rest` equality). It backs every per-node
//! collection of the algorithms: the local data `D_i`, the working set `P_i`,
//! and the per-neighbour bookkeeping sets `D^i_{i,j}` and `D^i_{j,i}`.
//!
//! The set also implements the hop-minimisation semantics of the semi-global
//! algorithm (§6): when two copies of the same observation meet, only the one
//! with the smaller hop count is retained (`[Q]^min` in the paper).
//!
//! # Shared storage
//!
//! Points are stored behind [`Arc`] handles. Set-level operations that used
//! to deep-copy every point — [`PointSet::union`], [`PointSet::difference`],
//! [`PointSet::filter_max_hop`], [`Clone`] — now only bump reference counts:
//! the feature vectors themselves are allocated once and shared between the
//! window, the per-neighbour bookkeeping sets and any derived set. Callers
//! that already hold an `Arc<DataPoint>` can insert it without copying via
//! [`PointSet::insert_arc`] / [`PointSet::insert_min_hop_arc`]. Because
//! [`DataPoint`] values are never mutated in place once inserted, the
//! sharing is observationally invisible: all by-value accessors behave
//! exactly as before.

use crate::point::{DataPoint, HopCount, PointKey, Timestamp};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Outcome of inserting a point into a [`PointSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The observation was not present; it has been added.
    Added,
    /// The observation was present with a larger hop count; the stored copy
    /// was replaced by the lower-hop copy.
    HopLowered {
        /// The hop count that was stored before the replacement.
        previous_hop: HopCount,
    },
    /// The observation was already present with an equal or smaller hop
    /// count; nothing changed.
    AlreadyPresent,
}

impl InsertOutcome {
    /// Returns `true` if the set changed (a point was added or replaced).
    pub fn changed(self) -> bool {
        !matches!(self, InsertOutcome::AlreadyPresent)
    }
}

/// An ordered set of data points keyed by observation identity.
///
/// Iteration order is deterministic (ascending [`PointKey`]), which keeps the
/// whole simulation reproducible for a fixed seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointSet {
    points: BTreeMap<PointKey, Arc<DataPoint>>,
}

impl PointSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PointSet { points: BTreeMap::new() }
    }

    /// Number of points in the set.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns `true` if an observation with this identity is present.
    pub fn contains_key(&self, key: &PointKey) -> bool {
        self.points.contains_key(key)
    }

    /// Returns `true` if this exact point's identity is present.
    pub fn contains(&self, point: &DataPoint) -> bool {
        self.points.contains_key(&point.key)
    }

    /// Looks up a point by identity.
    pub fn get(&self, key: &PointKey) -> Option<&DataPoint> {
        self.points.get(key).map(|p| p.as_ref())
    }

    /// Looks up the shared handle of a point by identity. Cloning the
    /// returned [`Arc`] shares the stored allocation instead of copying the
    /// point.
    pub fn get_arc(&self, key: &PointKey) -> Option<&Arc<DataPoint>> {
        self.points.get(key)
    }

    /// Inserts a point, ignoring hop counts: the stored copy is replaced
    /// unconditionally if the identity is new, and left untouched otherwise.
    ///
    /// This is the insertion used by the global algorithm (§5), where hop
    /// counts play no role. Returns `true` if the point was not present.
    pub fn insert(&mut self, point: DataPoint) -> bool {
        self.insert_arc(Arc::new(point))
    }

    /// [`PointSet::insert`] for a point the caller already holds behind an
    /// [`Arc`]: the allocation is shared, never copied.
    pub fn insert_arc(&mut self, point: Arc<DataPoint>) -> bool {
        match self.points.entry(point.key) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(point);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// Inserts a point with the min-hop semantics of the semi-global
    /// algorithm (§6): an already-present observation is replaced only if the
    /// incoming copy has a strictly smaller hop count.
    pub fn insert_min_hop(&mut self, point: DataPoint) -> InsertOutcome {
        self.insert_min_hop_arc(Arc::new(point))
    }

    /// [`PointSet::insert_min_hop`] for a point already behind an [`Arc`].
    pub fn insert_min_hop_arc(&mut self, point: Arc<DataPoint>) -> InsertOutcome {
        match self.points.entry(point.key) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(point);
                InsertOutcome::Added
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let existing_hop = e.get().hop;
                if point.hop < existing_hop {
                    e.insert(point);
                    InsertOutcome::HopLowered { previous_hop: existing_hop }
                } else {
                    InsertOutcome::AlreadyPresent
                }
            }
        }
    }

    /// Removes a point by identity, returning it if present.
    pub fn remove(&mut self, key: &PointKey) -> Option<DataPoint> {
        self.points.remove(key).map(unwrap_or_clone)
    }

    /// Removes a point by identity without materialising it — use this when
    /// the removed value is not needed, so a copy shared with another set is
    /// never cloned just to be dropped. Returns `true` if a point was
    /// removed.
    pub fn discard(&mut self, key: &PointKey) -> bool {
        self.points.remove(key).is_some()
    }

    /// Keeps only the points for which the predicate returns `true`.
    pub fn retain<F: FnMut(&DataPoint) -> bool>(&mut self, mut keep: F) {
        self.points.retain(|_, p| keep(p.as_ref()));
    }

    /// Removes every point whose timestamp is strictly older than `cutoff`
    /// and returns the evicted points, in key order, as the handles the set
    /// stored. This implements the sliding window eviction of §5.3 (points
    /// are evicted regardless of origin).
    pub fn evict_older_than(&mut self, cutoff: Timestamp) -> Vec<Arc<DataPoint>> {
        let mut evicted = Vec::new();
        self.points.retain(|_, p| {
            let keep = p.timestamp >= cutoff;
            if !keep {
                evicted.push(Arc::clone(p));
            }
            keep
        });
        evicted
    }

    /// Removes every point originating at the given sensor (used when a
    /// sensor is explicitly removed from the network, §5.3).
    pub fn remove_origin(&mut self, origin: crate::point::SensorId) -> usize {
        let before = self.points.len();
        self.points.retain(|k, _| k.origin != origin);
        before - self.points.len()
    }

    /// Iterates over the points in deterministic (key) order.
    pub fn iter(&self) -> impl Iterator<Item = &DataPoint> + Clone {
        self.points.values().map(|p| p.as_ref())
    }

    /// Iterates over the shared handles in deterministic (key) order, for
    /// callers that want to move points into another set without copying.
    pub fn iter_arcs(&self) -> impl Iterator<Item = &Arc<DataPoint>> + Clone {
        self.points.values()
    }

    /// Iterates over the identities in deterministic order.
    pub fn keys(&self) -> impl Iterator<Item = &PointKey> + Clone {
        self.points.keys()
    }

    /// Returns the points as a vector (deterministic order).
    pub fn to_vec(&self) -> Vec<DataPoint> {
        self.iter().cloned().collect()
    }

    /// Set union, ignoring hop counts (first occurrence wins). The result
    /// shares the stored points of both operands.
    pub fn union(&self, other: &PointSet) -> PointSet {
        let mut out = self.clone();
        for p in other.iter_arcs() {
            out.insert_arc(Arc::clone(p));
        }
        out
    }

    /// Set union with min-hop merge (`[Q]^min` applied to the union).
    pub fn union_min_hop(&self, other: &PointSet) -> PointSet {
        let mut out = self.clone();
        for p in other.iter_arcs() {
            out.insert_min_hop_arc(Arc::clone(p));
        }
        out
    }

    /// Extends this set in place, ignoring hop counts, sharing the other
    /// set's stored points.
    pub fn extend_from(&mut self, other: &PointSet) {
        for p in other.iter_arcs() {
            self.insert_arc(Arc::clone(p));
        }
    }

    /// Points of `self` whose identity is *not* present in `other`
    /// (set difference by identity). The result shares `self`'s points.
    pub fn difference(&self, other: &PointSet) -> PointSet {
        let mut out = PointSet::new();
        for p in self.iter_arcs() {
            if !other.contains_key(&p.key) {
                out.insert_arc(Arc::clone(p));
            }
        }
        out
    }

    /// Returns `true` if every identity in `self` is also in `other`.
    pub fn is_subset_of(&self, other: &PointSet) -> bool {
        self.keys().all(|k| other.contains_key(k))
    }

    /// The subset of points with hop count `<= max_hop` (the paper's
    /// `Q^{<=h}`). The result shares `self`'s points.
    pub fn filter_max_hop(&self, max_hop: HopCount) -> PointSet {
        let mut out = PointSet::new();
        for p in self.iter_arcs() {
            if p.hop <= max_hop {
                out.insert_arc(Arc::clone(p));
            }
        }
        out
    }

    /// Sum of the wire sizes of all contained points, in bytes.
    pub fn wire_size(&self) -> usize {
        self.iter().map(DataPoint::wire_size).sum()
    }
}

impl fmt::Display for PointSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<DataPoint> for PointSet {
    fn from_iter<I: IntoIterator<Item = DataPoint>>(iter: I) -> Self {
        let mut s = PointSet::new();
        for p in iter {
            s.insert_min_hop(p);
        }
        s
    }
}

impl Extend<DataPoint> for PointSet {
    fn extend<I: IntoIterator<Item = DataPoint>>(&mut self, iter: I) {
        for p in iter {
            self.insert_min_hop(p);
        }
    }
}

/// Takes the point out of the handle without copying when this is the last
/// reference, cloning otherwise (the pre-1.76 `Arc::unwrap_or_clone`).
fn unwrap_or_clone(point: Arc<DataPoint>) -> DataPoint {
    Arc::try_unwrap(point).unwrap_or_else(|shared| (*shared).clone())
}

fn deref_arc(point: &Arc<DataPoint>) -> &DataPoint {
    point.as_ref()
}

impl<'a> IntoIterator for &'a PointSet {
    type Item = &'a DataPoint;
    type IntoIter = std::iter::Map<
        std::collections::btree_map::Values<'a, PointKey, Arc<DataPoint>>,
        fn(&'a Arc<DataPoint>) -> &'a DataPoint,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.points.values().map(deref_arc)
    }
}

impl IntoIterator for PointSet {
    type Item = DataPoint;
    type IntoIter = std::iter::Map<
        std::collections::btree_map::IntoValues<PointKey, Arc<DataPoint>>,
        fn(Arc<DataPoint>) -> DataPoint,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.points.into_values().map(unwrap_or_clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Epoch, SensorId};

    fn pt(origin: u32, epoch: u64, value: f64) -> DataPoint {
        DataPoint::new(SensorId(origin), Epoch(epoch), Timestamp::from_secs(epoch), vec![value])
            .unwrap()
    }

    #[test]
    fn insert_deduplicates_by_identity() {
        let mut s = PointSet::new();
        assert!(s.insert(pt(1, 0, 5.0)));
        assert!(!s.insert(pt(1, 0, 5.0)));
        assert!(s.insert(pt(1, 1, 5.0)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&pt(1, 0, 5.0)));
    }

    #[test]
    fn insert_min_hop_keeps_smallest_hop() {
        let mut s = PointSet::new();
        assert_eq!(s.insert_min_hop(pt(1, 0, 5.0).with_hop(3)), InsertOutcome::Added);
        assert_eq!(
            s.insert_min_hop(pt(1, 0, 5.0).with_hop(1)),
            InsertOutcome::HopLowered { previous_hop: 3 }
        );
        assert_eq!(s.insert_min_hop(pt(1, 0, 5.0).with_hop(2)), InsertOutcome::AlreadyPresent);
        assert_eq!(s.get(&pt(1, 0, 5.0).key).unwrap().hop, 1);
        assert_eq!(s.len(), 1);
        assert!(InsertOutcome::Added.changed());
        assert!(!InsertOutcome::AlreadyPresent.changed());
    }

    #[test]
    fn union_and_difference_operate_on_identity() {
        let a: PointSet = vec![pt(1, 0, 1.0), pt(1, 1, 2.0)].into_iter().collect();
        let b: PointSet = vec![pt(1, 1, 2.0), pt(2, 0, 3.0)].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        let d = a.difference(&b);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&pt(1, 0, 1.0)));
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
    }

    #[test]
    fn union_min_hop_prefers_lower_hop_copies() {
        let a: PointSet = vec![pt(1, 0, 1.0).with_hop(4)].into_iter().collect();
        let b: PointSet = vec![pt(1, 0, 1.0).with_hop(2)].into_iter().collect();
        let u = a.union_min_hop(&b);
        assert_eq!(u.get(&pt(1, 0, 1.0).key).unwrap().hop, 2);
    }

    #[test]
    fn evict_older_than_removes_only_stale_points() {
        let mut s: PointSet =
            vec![pt(1, 1, 1.0), pt(1, 5, 2.0), pt(2, 9, 3.0)].into_iter().collect();
        let evicted = s.evict_older_than(Timestamp::from_secs(5));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, pt(1, 1, 1.0).key);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&pt(1, 1, 1.0)));
        assert!(s.contains(&pt(1, 5, 2.0)));
    }

    #[test]
    fn remove_origin_drops_only_that_sensor() {
        let mut s: PointSet =
            vec![pt(1, 0, 1.0), pt(2, 0, 2.0), pt(1, 1, 3.0)].into_iter().collect();
        assert_eq!(s.remove_origin(SensorId(1)), 2);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&pt(2, 0, 2.0)));
    }

    #[test]
    fn filter_max_hop_selects_prefix() {
        let s: PointSet =
            vec![pt(1, 0, 1.0).with_hop(0), pt(1, 1, 2.0).with_hop(1), pt(1, 2, 3.0).with_hop(2)]
                .into_iter()
                .collect();
        assert_eq!(s.filter_max_hop(0).len(), 1);
        assert_eq!(s.filter_max_hop(1).len(), 2);
        assert_eq!(s.filter_max_hop(5).len(), 3);
    }

    #[test]
    fn iteration_is_deterministic_and_sorted_by_key() {
        let s: PointSet =
            vec![pt(3, 0, 1.0), pt(1, 5, 2.0), pt(1, 2, 3.0), pt(2, 0, 4.0)].into_iter().collect();
        let keys: Vec<_> = s.keys().cloned().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn remove_and_retain_work() {
        let mut s: PointSet = vec![pt(1, 0, 1.0), pt(1, 1, 5.0)].into_iter().collect();
        assert!(s.remove(&pt(1, 0, 1.0).key).is_some());
        assert!(s.remove(&pt(1, 0, 1.0).key).is_none());
        s.retain(|p| p.features[0] < 3.0);
        assert!(s.is_empty());
    }

    #[test]
    fn discard_drops_without_materialising() {
        let mut s: PointSet = vec![pt(1, 0, 1.0)].into_iter().collect();
        assert!(s.discard(&pt(1, 0, 1.0).key));
        assert!(!s.discard(&pt(1, 0, 1.0).key));
        assert!(s.is_empty());
    }

    #[test]
    fn wire_size_sums_points() {
        let s: PointSet = vec![pt(1, 0, 1.0), pt(1, 1, 5.0)].into_iter().collect();
        assert_eq!(s.wire_size(), 2 * pt(1, 0, 1.0).wire_size());
    }

    #[test]
    fn derived_sets_share_storage_instead_of_copying() {
        let a: PointSet = vec![pt(1, 0, 1.0), pt(1, 1, 2.0)].into_iter().collect();
        let b: PointSet = vec![pt(2, 0, 3.0)].into_iter().collect();
        let key = pt(1, 0, 1.0).key;
        let union = a.union(&b);
        assert!(std::sync::Arc::ptr_eq(union.get_arc(&key).unwrap(), a.get_arc(&key).unwrap()));
        let diff = a.difference(&b);
        assert!(std::sync::Arc::ptr_eq(diff.get_arc(&key).unwrap(), a.get_arc(&key).unwrap()));
        let prefix = a.filter_max_hop(0);
        assert!(std::sync::Arc::ptr_eq(prefix.get_arc(&key).unwrap(), a.get_arc(&key).unwrap()));
        let copy = a.clone();
        assert!(std::sync::Arc::ptr_eq(copy.get_arc(&key).unwrap(), a.get_arc(&key).unwrap()));
        // An Arc inserted directly is stored as-is.
        let mut c = PointSet::new();
        let handle = std::sync::Arc::new(pt(3, 0, 9.0));
        assert!(c.insert_arc(std::sync::Arc::clone(&handle)));
        assert!(std::sync::Arc::ptr_eq(c.get_arc(&handle.key).unwrap(), &handle));
        assert_eq!(c.iter_arcs().count(), 1);
    }

    #[test]
    fn display_and_conversions() {
        let s: PointSet = vec![pt(1, 0, 1.0)].into_iter().collect();
        assert!(format!("{s}").starts_with('{'));
        assert_eq!(s.to_vec().len(), 1);
        let collected: Vec<DataPoint> = s.clone().into_iter().collect();
        assert_eq!(collected.len(), 1);
        let borrowed: Vec<&DataPoint> = (&s).into_iter().collect();
        assert_eq!(borrowed.len(), 1);
        let mut e = PointSet::new();
        e.extend(vec![pt(1, 0, 1.0), pt(2, 0, 2.0)]);
        assert_eq!(e.len(), 2);
        let mut f = PointSet::new();
        f.extend_from(&e);
        assert_eq!(f.len(), 2);
    }
}
