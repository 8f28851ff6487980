//! Spatial neighbour indexes over a [`PointSet`].
//!
//! Every ranking query ultimately asks one of two questions about a dataset:
//! "which are the `k` nearest neighbours of `x`?" (NN / k-NN rankings) or
//! "which points lie within `α` of `x`?" (neighbour-count ranking). The
//! plain answer — sort the whole set by distance per query, as
//! [`crate::function::neighbors_by_distance`] does — costs `O(w log w)` per
//! query and makes `top_n_outliers` quadratic in the window size `w`.
//!
//! A [`NeighborIndex`] is built **once** per dataset and then answers many
//! queries cheaply. Two static implementations ship:
//!
//! * [`BruteIndex`] — the baseline: one pass over the set per query, which
//!   keeps the `k` best candidates (or the in-radius ones, sorted) instead of
//!   sorting the whole set. Cheapest to build, `O(w)` per `k`-nearest query
//!   for small `k`; right for tiny sets and the reference the k-d tree is
//!   tested against.
//! * [`KdTreeIndex`] — a k-d tree with median splits over the set's shared
//!   point handles; `O(w log w)` build, near-logarithmic queries on the
//!   low-dimensional feature spaces the paper uses (`[temperature, x, y]`).
//!
//! For changing datasets — the sufficient-set fixed point of `wsn-core`
//! extends its hypothetical sets a handful of points per iteration, and
//! window slides evict from them — the [`DynamicIndex`] wraps a k-d tree
//! base with an LSM-style brute-force spill buffer:
//! [`DynamicIndex::insert_arc`] is a set insertion, [`DynamicIndex::remove`]
//! deletes from the base in place, queries merge the base and spill
//! candidate streams exactly, and the base is rebuilt only once the spill or
//! the deletions grow past a threshold. While the set is small enough for
//! brute force, the dynamic index keeps no base at all.
//!
//! Every brute-force query here — the [`BruteIndex`], a brute-sized
//! [`DynamicIndex`] and a dynamic index's spill — runs one private one-pass
//! kernel, which returns the `(distance, ≺)` prefix of
//! [`neighbors_by_distance`](crate::function::neighbors_by_distance) bit for
//! bit; that full sort stays the plain-path reference.
//!
//! # Exactness and tie-breaking
//!
//! The distributed algorithm's convergence theorems require **unique**
//! support sets, which the paper obtains by breaking distance ties with the
//! total order `≺` ([`total_order`]). Every index here returns *exactly* the
//! ordering of `neighbors_by_distance` — candidates are compared by
//! `(distance, ≺)` and subtrees are pruned only when they are **strictly**
//! farther than the current worst candidate, so equal-distance points are
//! always examined and resolved by `≺`. Distances are computed with the same
//! [`DataPoint::feature_distance`] arithmetic as the brute path, so results
//! are bit-identical, not merely equivalent: estimates, support sets and
//! sufficient sets do not change when an index is swapped in. The property
//! suite `tests/property_index.rs` asserts this equivalence across 256
//! seeded cases.
//!
//! # Choosing an index
//!
//! There is no strategy to choose. [`AnyIndex::build`] keeps the brute path
//! for sets below [`AUTO_BRUTE_THRESHOLD`] points, where building a
//! structure costs more than it saves, and builds a k-d tree above it. Sets
//! with mixed feature dimensionality always get the brute index, which
//! mirrors what the brute path would have accepted. [`DynamicIndex`] makes
//! the same choice at every build and rebuild of its base.

use std::cmp::Ordering;
use std::sync::Arc;
use wsn_data::order::total_order;
use wsn_data::{DataPoint, PointKey, PointSet};

/// Below this many points, [`AnyIndex::build`] and the [`DynamicIndex`]
/// keep the brute path: the `O(w log w)` structure build does not pay for
/// itself on tiny windows.
pub const AUTO_BRUTE_THRESHOLD: usize = 48;

/// A queryable spatial index over one immutable snapshot of a [`PointSet`].
///
/// Both query methods exclude the query point itself (any stored point whose
/// [`key`](DataPoint::key) equals `x.key`), exactly like
/// [`neighbors_by_distance`](crate::function::neighbors_by_distance), and
/// return `(distance, point)` pairs sorted by ascending distance with ties
/// broken by the total order `≺`.
pub trait NeighborIndex: Send + Sync {
    /// Number of points the index was built over.
    fn len(&self) -> usize;

    /// Returns `true` if the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest neighbours of `x` (fewer if the set is smaller),
    /// identical to `neighbors_by_distance(x, data)` truncated to `k`.
    fn k_nearest(&self, x: &DataPoint, k: usize) -> Vec<(f64, &DataPoint)>;

    /// Every neighbour of `x` within `radius` (inclusive), identical to the
    /// `distance <= radius` prefix of `neighbors_by_distance(x, data)`.
    fn within_radius(&self, x: &DataPoint, radius: f64) -> Vec<(f64, &DataPoint)>;

    /// Reconstructs the indexed snapshot as an owned [`PointSet`] — the
    /// generic fallback used by ranking functions without a native indexed
    /// query path.
    fn to_point_set(&self) -> PointSet;

    /// Borrows the indexed snapshot when the implementation already keeps
    /// it in [`PointSet`] form ([`BruteIndex`] and [`DynamicIndex`] do).
    /// Generic ranking fallbacks try this first so brute-backed indexes —
    /// everything [`AnyIndex::build`] builds below [`AUTO_BRUTE_THRESHOLD`]
    /// points — pay no materialisation at all.
    fn snapshot(&self) -> Option<&PointSet> {
        None
    }
}

/// A bounded, sorted candidate list: the `k` best `(distance, point)` pairs
/// seen so far under the `(distance, ≺)` order.
struct BestK<'a> {
    k: usize,
    entries: Vec<(f64, &'a DataPoint)>,
}

fn candidate_order(a: &(f64, &DataPoint), b: &(f64, &DataPoint)) -> Ordering {
    a.0.total_cmp(&b.0).then_with(|| total_order(a.1, b.1))
}

impl<'a> BestK<'a> {
    fn new(k: usize) -> Self {
        BestK { k, entries: Vec::with_capacity(k.min(64)) }
    }

    fn push(&mut self, distance: f64, point: &'a DataPoint) {
        let candidate = (distance, point);
        if self.full() {
            // One comparison rejects most candidates of a long scan.
            match self.entries.last() {
                Some(worst) if candidate_order(&candidate, worst) == Ordering::Less => {
                    self.entries.pop();
                }
                _ => return,
            }
        }
        let pos =
            self.entries.partition_point(|e| candidate_order(e, &candidate) == Ordering::Less);
        self.entries.insert(pos, candidate);
    }

    fn full(&self) -> bool {
        self.entries.len() == self.k
    }

    /// The distance a candidate must not (strictly) exceed to still matter.
    /// Equal distances always matter: the tie could resolve in their favour.
    fn worst_distance(&self) -> f64 {
        if self.full() {
            self.entries.last().map(|(d, _)| *d).unwrap_or(f64::INFINITY)
        } else {
            f64::INFINITY
        }
    }
}

// ---------------------------------------------------------------------------
// Brute force
// ---------------------------------------------------------------------------

/// The `k` nearest neighbours of `x` among `points`, in one pass that keeps
/// the `k` best under `(distance, ≺)`, and the neighbours within `radius`,
/// filtered in one pass and then sorted: the kernel of every brute-force
/// query in this module. Both return the prefix of
/// [`neighbors_by_distance`](crate::function::neighbors_by_distance) over
/// `points` bit for bit — the same distance arithmetic, the same order (a
/// strict one: `≺` tells distinct identities apart) — without sorting the
/// whole set.
fn scan_k_nearest<'a>(x: &DataPoint, points: &'a PointSet, k: usize) -> Vec<(f64, &'a DataPoint)> {
    let mut best = BestK::new(k);
    for p in points.iter().filter(|p| p.key != x.key) {
        best.push(x.feature_distance(p), p);
    }
    best.entries
}

/// The in-radius half of the kernel; see [`scan_k_nearest`].
fn scan_within_radius<'a>(
    x: &DataPoint,
    points: &'a PointSet,
    radius: f64,
) -> Vec<(f64, &'a DataPoint)> {
    let mut inside: Vec<(f64, &DataPoint)> = points
        .iter()
        .filter(|p| p.key != x.key)
        .map(|p| (x.feature_distance(p), p))
        .filter(|(d, _)| *d <= radius)
        .collect();
    inside.sort_by(candidate_order);
    inside
}

/// The baseline index: the one-pass brute-force kernel over the set, behind
/// the [`NeighborIndex`] interface. A `k`-nearest query keeps the `k` best
/// candidates of one pass, an in-radius query sorts only the candidates
/// inside the radius; neither sorts the whole set. Exists so callers can be
/// written against the trait, tiny sets stay cheap, and benchmarks have an
/// in-tree baseline.
#[derive(Debug, Clone)]
pub struct BruteIndex {
    points: PointSet,
}

impl BruteIndex {
    /// Snapshots `data` into a brute-force index.
    pub fn build(data: &PointSet) -> Self {
        BruteIndex { points: data.clone() }
    }
}

impl NeighborIndex for BruteIndex {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn k_nearest(&self, x: &DataPoint, k: usize) -> Vec<(f64, &DataPoint)> {
        scan_k_nearest(x, &self.points, k)
    }

    fn within_radius(&self, x: &DataPoint, radius: f64) -> Vec<(f64, &DataPoint)> {
        scan_within_radius(x, &self.points, radius)
    }

    fn to_point_set(&self) -> PointSet {
        self.points.clone()
    }

    fn snapshot(&self) -> Option<&PointSet> {
        Some(&self.points)
    }
}

// ---------------------------------------------------------------------------
// k-d tree
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct KdNode {
    /// Index into `points` of the splitting point stored at this node.
    point: usize,
    /// Splitting axis (feature component), cycling with depth.
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// A k-d tree over the feature vectors of a point set.
///
/// Built with median splits on a cycling axis; the median is selected under
/// `(feature[axis], ≺)` so construction is fully deterministic. Queries visit
/// the near child first and prune the far child only when the splitting
/// plane is strictly farther than the current worst candidate, which keeps
/// equal-distance ties reachable and the output identical to brute force.
/// The tree holds the set's own [`Arc`] handles, so a build copies no point.
#[derive(Debug, Clone)]
pub struct KdTreeIndex {
    points: Vec<Arc<DataPoint>>,
    /// Per entry of `points`: deleted in place by `KdTreeIndex::delete`.
    /// A deleted point still splits its node, but is never a candidate.
    deleted: Vec<bool>,
    nodes: Vec<KdNode>,
    root: Option<usize>,
}

impl KdTreeIndex {
    /// Builds the tree over a snapshot of `data`, sharing its points.
    ///
    /// All points must share one feature dimensionality (callers that cannot
    /// guarantee this should go through [`AnyIndex::build`], which falls back
    /// to brute force for mixed sets).
    pub fn build(data: &PointSet) -> Self {
        let points: Vec<Arc<DataPoint>> = data.iter_arcs().cloned().collect();
        let dim = points.first().map(|p| p.dimension()).unwrap_or(0);
        let mut indices: Vec<usize> = (0..points.len()).collect();
        let mut nodes = Vec::with_capacity(points.len());
        let root = Self::build_recursive(&points, &mut indices, 0, dim, &mut nodes);
        KdTreeIndex { deleted: vec![false; points.len()], points, nodes, root }
    }

    /// Deletes `point` (by identity) in place: the descent follows the
    /// build's `(feature[axis], ≺)` order to the node that stores it, which
    /// keeps splitting its subtree but stops being a candidate. Returns
    /// `true` if a live entry was deleted.
    fn delete(&mut self, point: &DataPoint) -> bool {
        let mut node = self.root;
        while let Some(i) = node {
            let n = &self.nodes[i];
            let p = &self.points[n.point];
            if p.key == point.key {
                return !std::mem::replace(&mut self.deleted[n.point], true);
            }
            let order = point.features[n.axis]
                .total_cmp(&p.features[n.axis])
                .then_with(|| total_order(point, p));
            node = if order == Ordering::Less { n.left } else { n.right };
        }
        false
    }

    fn build_recursive(
        points: &[Arc<DataPoint>],
        indices: &mut [usize],
        depth: usize,
        dim: usize,
        nodes: &mut Vec<KdNode>,
    ) -> Option<usize> {
        if indices.is_empty() {
            return None;
        }
        let axis = if dim == 0 { 0 } else { depth % dim };
        indices.sort_unstable_by(|&a, &b| {
            points[a].features[axis]
                .total_cmp(&points[b].features[axis])
                .then_with(|| total_order(&points[a], &points[b]))
        });
        let mid = indices.len() / 2;
        let point = indices[mid];
        let (left_slice, rest) = indices.split_at_mut(mid);
        let right_slice = &mut rest[1..];
        let left = Self::build_recursive(points, left_slice, depth + 1, dim, nodes);
        let right = Self::build_recursive(points, right_slice, depth + 1, dim, nodes);
        nodes.push(KdNode { point, axis, left, right });
        Some(nodes.len() - 1)
    }

    fn search_nearest<'a>(&'a self, node: usize, x: &DataPoint, best: &mut BestK<'a>) {
        let n = &self.nodes[node];
        let p: &DataPoint = &self.points[n.point];
        if p.key != x.key && !self.deleted[n.point] {
            best.push(x.feature_distance(p), p);
        }
        let split = p.features[n.axis];
        let value = x.features[n.axis];
        let (near, far) = if value.total_cmp(&split) == Ordering::Less {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        if let Some(child) = near {
            self.search_nearest(child, x, best);
        }
        if let Some(child) = far {
            // Equal plane distance must still be explored: a point exactly at
            // the current worst distance can win its tie under ≺.
            if !best.full() || (value - split).abs() <= best.worst_distance() {
                self.search_nearest(child, x, best);
            }
        }
    }

    fn collect_within<'a>(
        &'a self,
        node: usize,
        x: &DataPoint,
        radius: f64,
        out: &mut Vec<(f64, &'a DataPoint)>,
    ) {
        let n = &self.nodes[node];
        let p: &DataPoint = &self.points[n.point];
        if p.key != x.key && !self.deleted[n.point] {
            let d = x.feature_distance(p);
            if d <= radius {
                out.push((d, p));
            }
        }
        let split = p.features[n.axis];
        let value = x.features[n.axis];
        if let Some(child) = n.left {
            if value - split <= radius {
                self.collect_within(child, x, radius, out);
            }
        }
        if let Some(child) = n.right {
            if split - value <= radius {
                self.collect_within(child, x, radius, out);
            }
        }
    }
}

impl NeighborIndex for KdTreeIndex {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn k_nearest(&self, x: &DataPoint, k: usize) -> Vec<(f64, &DataPoint)> {
        let Some(root) = self.root else { return Vec::new() };
        if k == 0 {
            return Vec::new();
        }
        let mut best = BestK::new(k);
        self.search_nearest(root, x, &mut best);
        best.entries
    }

    fn within_radius(&self, x: &DataPoint, radius: f64) -> Vec<(f64, &DataPoint)> {
        let Some(root) = self.root else { return Vec::new() };
        let mut out = Vec::new();
        self.collect_within(root, x, radius, &mut out);
        out.sort_by(candidate_order);
        out
    }

    fn to_point_set(&self) -> PointSet {
        let mut set = PointSet::new();
        for p in &self.points {
            set.insert_arc(Arc::clone(p));
        }
        set
    }

    fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// The index [`AnyIndex::build`] picks for a dataset, dispatching
/// [`NeighborIndex`] calls.
#[derive(Debug, Clone)]
pub enum AnyIndex {
    /// Brute-force baseline: sets below [`AUTO_BRUTE_THRESHOLD`] points, and
    /// sets of mixed feature dimensionality.
    Brute(BruteIndex),
    /// k-d tree: every other set.
    KdTree(KdTreeIndex),
}

impl AnyIndex {
    /// Builds an index over `data`: brute force below
    /// [`AUTO_BRUTE_THRESHOLD`] points, a k-d tree from there on.
    ///
    /// Sets whose points do not share one feature dimensionality always get
    /// the brute index — the k-d tree assumes a single metric space, exactly
    /// like [`DataPoint::feature_distance`] itself.
    pub fn build(data: &PointSet) -> AnyIndex {
        match tree_for(data) {
            Some(tree) => AnyIndex::KdTree(tree),
            None => AnyIndex::Brute(BruteIndex::build(data)),
        }
    }
}

/// The k-d tree [`AnyIndex::build`] would build, or `None` where it would
/// build the brute index (which then never touches `data`).
fn tree_for(data: &PointSet) -> Option<KdTreeIndex> {
    if data.len() < AUTO_BRUTE_THRESHOLD {
        return None;
    }
    let mut dims = data.iter().map(DataPoint::dimension);
    let first = dims.next();
    dims.all(|d| Some(d) == first).then(|| KdTreeIndex::build(data))
}

impl NeighborIndex for AnyIndex {
    fn len(&self) -> usize {
        match self {
            AnyIndex::Brute(i) => i.len(),
            AnyIndex::KdTree(i) => i.len(),
        }
    }

    fn k_nearest(&self, x: &DataPoint, k: usize) -> Vec<(f64, &DataPoint)> {
        match self {
            AnyIndex::Brute(i) => i.k_nearest(x, k),
            AnyIndex::KdTree(i) => i.k_nearest(x, k),
        }
    }

    fn within_radius(&self, x: &DataPoint, radius: f64) -> Vec<(f64, &DataPoint)> {
        match self {
            AnyIndex::Brute(i) => i.within_radius(x, radius),
            AnyIndex::KdTree(i) => i.within_radius(x, radius),
        }
    }

    fn to_point_set(&self) -> PointSet {
        match self {
            AnyIndex::Brute(i) => i.to_point_set(),
            AnyIndex::KdTree(i) => i.to_point_set(),
        }
    }

    fn snapshot(&self) -> Option<&PointSet> {
        match self {
            AnyIndex::Brute(i) => i.snapshot(),
            AnyIndex::KdTree(i) => i.snapshot(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Dynamic (insertable) index
// ---------------------------------------------------------------------------

/// Minimum spill-buffer size (and in-place deletion count) the
/// [`DynamicIndex`] tolerates before rebuilding its base index; for larger
/// sets the threshold grows to [`DYNAMIC_SPILL_FRACTION`] of the indexed set
/// so rebuild work stays an amortised constant per inserted or removed
/// point.
pub const DYNAMIC_SPILL_MIN: usize = 32;

/// Denominator of the proportional rebuild threshold: the spill, and
/// separately the count of in-place deletions, may grow to
/// `len / DYNAMIC_SPILL_FRACTION` points (but at least
/// [`DYNAMIC_SPILL_MIN`]) before the base index is rebuilt.
pub const DYNAMIC_SPILL_FRACTION: usize = 8;

/// A [`NeighborIndex`] that supports **insertion and removal** without
/// per-update rebuilds, in the style of an LSM tree: a static
/// [`KdTreeIndex`] base plus a small brute-force *spill* buffer of the
/// points inserted since the base was last built.
///
/// # Contract
///
/// * **Bit-identical ordering.** Every query returns exactly the candidate
///   list a freshly built index (equivalently, the plain path
///   [`neighbors_by_distance`](crate::function::neighbors_by_distance))
///   would return over the current point set —
///   after any interleaving of inserts and removals: distances use the same
///   [`DataPoint::feature_distance`] arithmetic and ties resolve by the same
///   total order `≺`. Because the base's live entries and the spill are
///   disjoint and each side's candidates arrive sorted by `(distance, ≺)`, a
///   two-way merge of the streams *is* the sorted order of their union — no
///   re-sorting, no approximation.
/// * **Set semantics.** [`DynamicIndex::insert_arc`] follows
///   [`PointSet::insert_arc`]: points are keyed by observation identity and
///   a duplicate key is a no-op (the first stored copy wins, exactly like
///   [`PointSet::union`] — the operation the sufficient-set fixed point
///   replaces with inserts). [`DynamicIndex::remove`] drops an identity; it
///   may be inserted again later.
/// * **Removal in place.** A removed spill point simply leaves the spill. A
///   removed base point is deleted inside the base: the k-d tree marks its
///   node deleted, and the node keeps splitting its subtree, so every prune
///   stays exact. Neither is ever a candidate again, so queries need no
///   filtering and no over-fetch. The base shares the handles of the points
///   it was built over, so a removed base point's handle stays in the tree
///   until the base's next rebuild; the deletion count below bounds how
///   many stay.
/// * **Rebuild policy.** An insert appends to the spill buffer, which every
///   query scans once with the brute-force kernel: `O(s)` for `s` spilled
///   points and a small `k`. Once the spill — or,
///   counted separately, the deletions inside the base — exceeds
///   `max(`[`DYNAMIC_SPILL_MIN`]`, len /`[`DYNAMIC_SPILL_FRACTION`]`)`, the
///   base is rebuilt over the whole set and both counts restart at zero.
///   Workloads that insert a bounded trickle of points — the fixed point
///   adds at most a few support points per iteration — therefore rarely
///   rebuild, and unbounded update streams pay amortised `O(log)`-ish work
///   per point instead of a rebuild per iteration.
/// * **No base while brute-sized.** Where [`AnyIndex::build`] would pick
///   the brute index (mixed feature dimensions, or fewer than
///   [`AUTO_BRUTE_THRESHOLD`] points), the dynamic index keeps no base and
///   no spill: queries scan the indexed set itself with the brute-force
///   kernel, which returns the prefix of its `(distance, ≺)`-sorted
///   neighbour list. A
///   k-d tree base is built once the set grows to the threshold, and
///   dropped again at a rebuild that finds it below.
#[derive(Debug, Clone)]
pub struct DynamicIndex {
    /// A k-d tree over `all \ spill`, plus the entries deleted from it in
    /// place, which it no longer returns; `None` while the set is
    /// brute-sized.
    base: Option<KdTreeIndex>,
    /// Points inserted since `base` was built; disjoint from its live
    /// entries by key, and empty while there is no base.
    spill: PointSet,
    /// Entries deleted in place from `base` since it was built.
    deleted: usize,
    /// The indexed set — the base's live entries plus the spill — sharing
    /// every stored handle with the caller.
    all: PointSet,
}

impl DynamicIndex {
    /// Builds the index over a snapshot of `data`, sharing its points.
    pub fn build(data: &PointSet) -> Self {
        DynamicIndex { base: tree_for(data), spill: PointSet::new(), deleted: 0, all: data.clone() }
    }

    /// Inserts a point, sharing the caller's allocation. Returns `true` if
    /// the identity was new; a duplicate key leaves the index untouched.
    pub fn insert_arc(&mut self, point: Arc<DataPoint>) -> bool {
        if !self.all.insert_arc(Arc::clone(&point)) {
            return false;
        }
        if self.base.is_some() {
            self.spill.insert_arc(point);
            if self.spill.len() > self.rebuild_threshold() {
                self.rebuild();
            }
        } else if self.all.len() >= AUTO_BRUTE_THRESHOLD {
            self.rebuild();
        }
        true
    }

    /// [`DynamicIndex::insert_arc`] for a point not yet behind an [`Arc`].
    pub fn insert(&mut self, point: DataPoint) -> bool {
        self.insert_arc(Arc::new(point))
    }

    /// Removes the point with identity `key`. The index drops its handles
    /// on the point at once, except a k-d tree base's, which stays until
    /// the base's next rebuild. Returns `true` if the identity was present.
    pub fn remove(&mut self, key: &PointKey) -> bool {
        let Some(point) = self.all.get_arc(key).cloned() else { return false };
        self.all.discard(key);
        if self.spill.discard(key) {
            return true;
        }
        if let Some(base) = self.base.as_mut() {
            let deleted = base.delete(&point);
            debug_assert!(deleted, "a held point outside the spill is a live base entry");
            self.deleted += 1;
            if self.deleted > self.rebuild_threshold() {
                self.rebuild();
            }
        }
        true
    }

    /// How far the spill or the in-place deletions may grow before the base
    /// is rebuilt.
    fn rebuild_threshold(&self) -> usize {
        DYNAMIC_SPILL_MIN.max(self.all.len() / DYNAMIC_SPILL_FRACTION)
    }

    /// Rebuilds the base over the whole set (or drops it, where the set is
    /// now brute-sized) and empties the spill.
    fn rebuild(&mut self) {
        self.base = tree_for(&self.all);
        self.spill = PointSet::new();
        self.deleted = 0;
    }

    /// The indexed set, borrowed — callers iterating the set they query (as
    /// `top_n_outliers_indexed` does) read it here without any
    /// materialisation.
    pub fn contents(&self) -> &PointSet {
        &self.all
    }

    /// Number of points currently sitting in the spill buffer (0 right
    /// after a build or rebuild, and always 0 while the set is
    /// brute-sized). Exposed for tests and diagnostics.
    pub fn spilled(&self) -> usize {
        self.spill.len()
    }
}

/// Merges two candidate lists that are each sorted by `(distance, ≺)` and
/// drawn from disjoint point sets, keeping at most `limit` entries — the
/// exact sorted prefix of their union.
fn merge_candidates<'a>(
    a: Vec<(f64, &'a DataPoint)>,
    b: Vec<(f64, &'a DataPoint)>,
    limit: usize,
) -> Vec<(f64, &'a DataPoint)> {
    if b.is_empty() {
        let mut a = a;
        a.truncate(limit);
        return a;
    }
    let mut out = Vec::with_capacity((a.len() + b.len()).min(limit));
    let (mut ia, mut ib) = (0, 0);
    while out.len() < limit && (ia < a.len() || ib < b.len()) {
        let from_a = match (a.get(ia), b.get(ib)) {
            (Some(x), Some(y)) => candidate_order(x, y) != Ordering::Greater,
            (Some(_), None) => true,
            _ => false,
        };
        if from_a {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out
}

impl NeighborIndex for DynamicIndex {
    fn len(&self) -> usize {
        self.all.len()
    }

    fn k_nearest(&self, x: &DataPoint, k: usize) -> Vec<(f64, &DataPoint)> {
        let Some(base) = &self.base else { return scan_k_nearest(x, &self.all, k) };
        let base = base.k_nearest(x, k);
        if self.spill.is_empty() {
            return base;
        }
        merge_candidates(base, scan_k_nearest(x, &self.spill, k), k)
    }

    fn within_radius(&self, x: &DataPoint, radius: f64) -> Vec<(f64, &DataPoint)> {
        let Some(base) = &self.base else { return scan_within_radius(x, &self.all, radius) };
        let base = base.within_radius(x, radius);
        if self.spill.is_empty() {
            return base;
        }
        merge_candidates(base, scan_within_radius(x, &self.spill, radius), usize::MAX)
    }

    fn to_point_set(&self) -> PointSet {
        self.all.clone()
    }

    fn snapshot(&self) -> Option<&PointSet> {
        Some(&self.all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::neighbors_by_distance;
    use wsn_data::{Epoch, SensorId, Timestamp};

    fn pt(id: u32, epoch: u64, features: Vec<f64>) -> DataPoint {
        DataPoint::new(SensorId(id), Epoch(epoch), Timestamp::ZERO, features).unwrap()
    }

    fn sample_set() -> PointSet {
        vec![
            pt(1, 0, vec![0.0, 0.0]),
            pt(2, 0, vec![1.0, 0.0]),
            pt(3, 0, vec![0.0, 1.0]),
            pt(4, 0, vec![5.0, 5.0]),
            pt(5, 0, vec![-3.0, 2.0]),
            pt(6, 0, vec![2.0, 2.0]),
        ]
        .into_iter()
        .collect()
    }

    fn all_indexes(data: &PointSet) -> Vec<AnyIndex> {
        vec![AnyIndex::Brute(BruteIndex::build(data)), AnyIndex::KdTree(KdTreeIndex::build(data))]
    }

    #[test]
    fn k_nearest_matches_brute_ordering() {
        let data = sample_set();
        let query = pt(1, 0, vec![0.0, 0.0]);
        let expected = neighbors_by_distance(&query, &data);
        for index in all_indexes(&data) {
            for k in 0..=data.len() + 1 {
                let got = index.k_nearest(&query, k);
                assert_eq!(got.len(), k.min(expected.len()), "k={k}");
                for (g, e) in got.iter().zip(expected.iter()) {
                    assert_eq!(g.0.to_bits(), e.0.to_bits());
                    assert_eq!(g.1.key, e.1.key);
                }
            }
        }
    }

    #[test]
    fn queries_exclude_the_query_key_but_not_its_twins() {
        // Two distinct observations at identical coordinates.
        let data: PointSet = vec![pt(1, 0, vec![0.0]), pt(2, 0, vec![0.0]), pt(3, 0, vec![1.0])]
            .into_iter()
            .collect();
        let query = pt(1, 0, vec![0.0]);
        for index in all_indexes(&data) {
            let got = index.k_nearest(&query, 3);
            assert_eq!(got.len(), 2);
            // The co-located twin (distance 0) comes first.
            assert_eq!(got[0].1.key, pt(2, 0, vec![0.0]).key);
            assert!(got.iter().all(|(_, p)| p.key != query.key));
        }
    }

    #[test]
    fn equal_distances_resolve_by_total_order() {
        // Neighbours at ±2 of the query: equal distance, broken by ≺.
        let data: PointSet = vec![pt(1, 0, vec![0.0]), pt(2, 0, vec![2.0]), pt(3, 0, vec![-2.0])]
            .into_iter()
            .collect();
        let query = pt(1, 0, vec![0.0]);
        for index in all_indexes(&data) {
            let got = index.k_nearest(&query, 1);
            assert_eq!(got[0].1.features, vec![-2.0], "-2.0 ≺ 2.0 must win the tie");
        }
    }

    #[test]
    fn within_radius_is_inclusive_and_sorted() {
        let data = sample_set();
        let query = pt(9, 9, vec![0.0, 0.0]);
        for index in all_indexes(&data) {
            let got = index.within_radius(&query, 1.0);
            let dists: Vec<f64> = got.iter().map(|(d, _)| *d).collect();
            assert_eq!(dists, vec![0.0, 1.0, 1.0], "boundary distances count as inside");
            assert!(got[1].1.features < got[2].1.features, "ties sorted by ≺");
        }
    }

    #[test]
    fn queries_from_outside_the_bounding_box_are_exact() {
        let data = sample_set();
        let query = pt(9, 9, vec![100.0, -50.0]);
        let expected = neighbors_by_distance(&query, &data);
        for index in all_indexes(&data) {
            let got = index.k_nearest(&query, 3);
            for (g, e) in got.iter().zip(expected.iter()) {
                assert_eq!(g.1.key, e.1.key);
            }
        }
    }

    #[test]
    fn empty_and_singleton_sets_are_handled() {
        let empty = PointSet::new();
        for index in all_indexes(&empty) {
            assert!(index.is_empty());
            assert_eq!(index.len(), 0);
            assert!(index.k_nearest(&pt(1, 0, vec![0.0]), 3).is_empty());
            assert!(index.within_radius(&pt(1, 0, vec![0.0]), 10.0).is_empty());
        }
        let single: PointSet = vec![pt(1, 0, vec![4.0])].into_iter().collect();
        for index in all_indexes(&single) {
            assert_eq!(index.len(), 1);
            // The only point is the query itself: no neighbours.
            assert!(index.k_nearest(&pt(1, 0, vec![4.0]), 2).is_empty());
            let other = index.k_nearest(&pt(2, 0, vec![0.0]), 2);
            assert_eq!(other.len(), 1);
        }
    }

    #[test]
    fn snapshot_is_available_exactly_for_brute_backed_indexes() {
        let data = sample_set();
        assert!(AnyIndex::build(&data).snapshot().is_some());
        assert!(AnyIndex::KdTree(KdTreeIndex::build(&data)).snapshot().is_none());
        assert_eq!(
            AnyIndex::build(&data).snapshot(),
            Some(&data),
            "the snapshot is the indexed data itself"
        );
    }

    #[test]
    fn to_point_set_round_trips() {
        let data = sample_set();
        for index in all_indexes(&data) {
            assert_eq!(index.to_point_set(), data);
        }
    }

    #[test]
    fn build_picks_by_size_and_dimensionality() {
        let small = sample_set();
        assert!(matches!(AnyIndex::build(&small), AnyIndex::Brute(_)));
        let spread: PointSet =
            (0..AUTO_BRUTE_THRESHOLD as u32).map(|i| pt(i, 0, vec![i as f64, 0.5])).collect();
        assert!(matches!(AnyIndex::build(&spread), AnyIndex::KdTree(_)));
        // Mixed dimensionality stays brute force at any size.
        let mixed: PointSet = (0..AUTO_BRUTE_THRESHOLD as u32)
            .map(|i| pt(i, 0, if i == 0 { vec![1.0] } else { vec![1.0, i as f64] }))
            .collect();
        assert!(matches!(AnyIndex::build(&mixed), AnyIndex::Brute(_)));
    }

    #[test]
    fn the_tree_shares_the_sets_points() {
        let spread: PointSet =
            (0..AUTO_BRUTE_THRESHOLD as u32).map(|i| pt(i, 0, vec![i as f64, 0.5])).collect();
        let AnyIndex::KdTree(tree) = AnyIndex::build(&spread) else { panic!("a k-d tree") };
        for p in spread.iter_arcs() {
            assert!(tree.points.iter().any(|q| Arc::ptr_eq(p, q)), "{p} is shared, not copied");
        }
        assert_eq!(tree.to_point_set(), spread);
    }

    #[test]
    fn dynamic_index_matches_fresh_build_after_inserts() {
        let mut dynamic = DynamicIndex::build(&sample_set());
        let mut contents = sample_set();
        // Grow one point at a time, including a duplicate-coordinate twin
        // (tie under ≺) and a duplicate key (no-op).
        let inserts = vec![
            pt(7, 0, vec![1.0, 0.0]), // same coordinates as pt(2), distinct key
            pt(8, 0, vec![-4.0, 4.0]),
            pt(1, 0, vec![0.0, 0.0]), // duplicate key: must be a no-op
            pt(9, 0, vec![2.5, 2.5]),
        ];
        for p in inserts {
            let fresh_key = !contents.contains(&p);
            assert_eq!(dynamic.insert(p.clone()), fresh_key);
            contents.insert(p);
            assert_eq!(dynamic.len(), contents.len());
            let fresh = BruteIndex::build(&contents);
            for q in [pt(1, 0, vec![0.0, 0.0]), pt(50, 0, vec![1.0, 1.0])] {
                for k in [1, 3, contents.len() + 1] {
                    let expected = fresh.k_nearest(&q, k);
                    let got = dynamic.k_nearest(&q, k);
                    assert_eq!(expected.len(), got.len());
                    for (e, g) in expected.iter().zip(got.iter()) {
                        assert_eq!(e.0.to_bits(), g.0.to_bits());
                        assert_eq!(e.1.key, g.1.key);
                    }
                }
                for radius in [0.0, 1.0, 100.0] {
                    let expected = fresh.within_radius(&q, radius);
                    let got = dynamic.within_radius(&q, radius);
                    assert_eq!(expected.len(), got.len(), "radius {radius}");
                    for (e, g) in expected.iter().zip(got.iter()) {
                        assert_eq!(e.1.key, g.1.key);
                    }
                }
            }
        }
        assert_eq!(dynamic.to_point_set(), contents);
        assert_eq!(dynamic.snapshot(), Some(&contents));
        assert_eq!(dynamic.contents(), &contents);
    }

    #[test]
    fn dynamic_index_rebuilds_once_the_spill_overflows() {
        let mut dynamic = DynamicIndex::build(&PointSet::new());
        let mut inserted = 0u32;
        // Insert well past the minimum spill size: the spill must have been
        // folded into the base at least once (spilled() < total inserted).
        for i in 0..(DYNAMIC_SPILL_MIN as u32 * 2) {
            assert!(dynamic.insert(pt(i, 0, vec![i as f64, (i % 7) as f64])));
            inserted += 1;
        }
        assert_eq!(dynamic.len(), inserted as usize);
        assert!(
            dynamic.spilled() < inserted as usize,
            "spill was never folded into the base: {} of {}",
            dynamic.spilled(),
            inserted
        );
        // And the rebuilt index still answers exactly.
        let fresh = BruteIndex::build(&dynamic.to_point_set());
        let q = pt(90, 0, vec![10.2, 3.3]);
        let expected = fresh.k_nearest(&q, 5);
        let got = dynamic.k_nearest(&q, 5);
        assert_eq!(expected.len(), got.len());
        for (e, g) in expected.iter().zip(got.iter()) {
            assert_eq!(e.0.to_bits(), g.0.to_bits());
            assert_eq!(e.1.key, g.1.key);
        }
    }

    #[test]
    fn dynamic_insert_arc_shares_the_callers_allocation() {
        // Above the auto threshold, so the index has a structured base and
        // the insert lands in the spill.
        let spread: PointSet =
            (0..AUTO_BRUTE_THRESHOLD as u32).map(|i| pt(i, 0, vec![i as f64, 0.5])).collect();
        let mut dynamic = DynamicIndex::build(&spread);
        let handle = Arc::new(pt(400, 0, vec![9.0, 9.0]));
        assert!(dynamic.insert_arc(Arc::clone(&handle)));
        assert!(Arc::ptr_eq(dynamic.contents().get_arc(&handle.key).unwrap(), &handle));
        assert!(!dynamic.insert_arc(Arc::clone(&handle)), "duplicate key is a no-op");
        assert_eq!(dynamic.spilled(), 1);
    }

    #[test]
    fn a_brute_sized_dynamic_index_holds_one_copy_and_no_spill() {
        let mut dynamic = DynamicIndex::build(&sample_set());
        let handle = Arc::new(pt(40, 0, vec![9.0, 9.0]));
        assert!(dynamic.insert_arc(Arc::clone(&handle)));
        assert_eq!(dynamic.spilled(), 0, "a brute-sized index keeps no spill");
        assert!(dynamic.base.is_none(), "… and no base copy of the set");
        assert_eq!(Arc::strong_count(&handle), 2, "the caller's handle and the indexed set's");
        assert!(dynamic.remove(&handle.key));
        assert_eq!(Arc::strong_count(&handle), 1, "removal releases the point");
        // Growing to the threshold builds a structured base.
        for i in 0..AUTO_BRUTE_THRESHOLD as u32 {
            dynamic.insert(pt(100 + i, 0, vec![i as f64, -1.0]));
        }
        assert!(dynamic.base.is_some());
    }
}
