//! The sufficient-set computation of equation (2).
//!
//! Before talking to a neighbour `p_j`, a sensor `p_i` must decide which of
//! its points could change `p_j`'s estimate if sent. A set `Z_j ⊆ P_i` is
//! *sufficient* for `p_j` (eq. 2) if it contains
//!
//! 1. `p_i`'s own estimate and its support,
//!    `O_n(P_i) ∪ [P_i | O_n(P_i)]`, and
//! 2. the support (over `P_i`) of what `p_i` believes `p_j`'s estimate would
//!    become after receiving `Z_j`:
//!    `[P_i | O_n(D^i_{i,j} ∪ D^i_{j,i} ∪ Z_j)] ⊆ Z_j`.
//!
//! The second condition is self-referential, so the algorithm computes `Z_j`
//! as a least fixed point: start from (1) and keep adding the support of the
//! hypothetical estimate until nothing changes. Only `Z_j` minus what the
//! neighbour provably already has is transmitted.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use wsn_data::order::{sort_by_outlier_order, total_order, RankedPoint};
use wsn_data::{DataPoint, HopCount, PointKey, PointSet, SensorId};
use wsn_ranking::function::support_of_set_indexed;
use wsn_ranking::index::{DynamicIndex, NeighborIndex};
use wsn_ranking::{top_n_outliers, top_n_outliers_indexed, OutlierEstimate, RankingFunction};

/// Telemetry ([`wsn_obs`]): engine calls.
static OBS_FP_CALLS: wsn_obs::Counter = wsn_obs::Counter::new("engine.calls");
/// Telemetry: calls served by the no-scan fast path (sync chain intact).
static OBS_FP_CHAIN_FAST: wsn_obs::Counter = wsn_obs::Counter::new("engine.chain_fast");
/// Telemetry: first-contact builds of a neighbour's hypothetical state.
static OBS_FP_COLD_BUILDS: wsn_obs::Counter = wsn_obs::Counter::new("engine.cold_builds");
/// Telemetry: builds of an engine's window state (its first call, or a
/// call whose window revision the state's chain never reached).
static OBS_WINDOW_BUILDS: wsn_obs::Counter = wsn_obs::Counter::new("engine.window_builds");
/// Telemetry: desync re-scans whose reason was a bookkeeping-revision gap
/// (a missed or out-of-order delta note).
static OBS_FP_RESCAN_REVISION_GAP: wsn_obs::Counter =
    wsn_obs::Counter::new("engine.desync_rescans_revision_gap");
/// Telemetry: desync re-scans whose reason was unrecorded points the caller
/// never folded into `known`.
static OBS_FP_RESCAN_UNRECORDED: wsn_obs::Counter =
    wsn_obs::Counter::new("engine.desync_rescans_unrecorded");
/// Telemetry: full per-neighbour rebuilds (the size check caught stale
/// identities — `known` shrank under the cached H and no eviction note
/// followed it there).
static OBS_FP_DESYNC_REBUILDS: wsn_obs::Counter = wsn_obs::Counter::new("engine.desync_rebuilds");
/// Telemetry: per-revision seed computed (miss) vs handed out cached (hit).
static OBS_SEED_BUILDS: wsn_obs::Counter = wsn_obs::Counter::new("engine.seed_builds");
static OBS_SEED_REUSES: wsn_obs::Counter = wsn_obs::Counter::new("engine.seed_reuses");
/// Telemetry: support-set cache lookups and the subset that computed.
static OBS_SUPPORT_QUERIES: wsn_obs::Counter = wsn_obs::Counter::new("engine.support_queries");
static OBS_SUPPORT_MISSES: wsn_obs::Counter = wsn_obs::Counter::new("engine.support_misses");

/// Computes a set `Z_j` satisfying equation (2) for one neighbour.
///
/// * `pi` — the points this sensor currently holds (`P_i`),
/// * `known_common` — the points this sensor knows it shares with the
///   neighbour (`D^i_{i,j} ∪ D^i_{j,i}`),
/// * `n` — the number of outliers to report.
///
/// The result always contains `O_n(P_i) ∪ [P_i|O_n(P_i)]`, is closed under
/// the fixed-point rule above, and is a subset of `pi`. The algorithm figure
/// notes the result "is not guaranteed to be the smallest set to do so" —
/// the same applies here.
///
/// Runs a throwaway [`FixedPointEngine`], which indexes `pi` once for every
/// rank and support query of the fixed point; callers that evaluate several
/// neighbours against the same `P_i` (one per neighbour, as the detector
/// does) should hold on to one engine instead.
pub fn sufficient_set<R: RankingFunction + ?Sized>(
    ranking: &R,
    n: usize,
    pi: &PointSet,
    known_common: &PointSet,
) -> PointSet {
    let z =
        FixedPointEngine::new().sufficient_set(ranking, n, pi, SensorId(0), known_common, (0, 0));
    Arc::try_unwrap(z).unwrap_or_else(|shared| (*shared).clone())
}

/// The pre-incremental fixed point, kept verbatim as the executable
/// specification of equation (2): every iteration re-materialises the union
/// `known ∪ Z`, re-runs [`top_n_outliers`] over it (which builds a fresh
/// throwaway index), and re-derives the support of the *whole* hypothetical
/// estimate. The incremental engine must agree with this loop bit for bit —
/// the equivalence tests here and in `tests/property_index.rs` assert it.
pub fn sufficient_set_rebuild_reference<R: RankingFunction + ?Sized>(
    ranking: &R,
    n: usize,
    pi: &PointSet,
    index: &dyn NeighborIndex,
    known_common: &PointSet,
) -> PointSet {
    let own_estimate = top_n_outliers_indexed(ranking, n, pi, index);
    let own_estimate_set = own_estimate.to_point_set();
    let mut z = own_estimate_set.union(&support_of_set_indexed(ranking, index, &own_estimate_set));

    // Fixed point: Z_j ← Z_j ∪ [P_i | O_n(D_ij ∪ D_ji ∪ Z_j)].
    loop {
        let hypothetical = known_common.union(&z);
        let neighbour_estimate = top_n_outliers(ranking, n, &hypothetical).to_point_set();
        let support = support_of_set_indexed(ranking, index, &neighbour_estimate);
        if support.is_subset_of(&z) {
            break;
        }
        z.extend_from(&support);
    }
    z
}

/// A reusable, rebuild-free evaluator of the equation (2) fixed point.
///
/// One engine serves one detector and ranks one **hop frame** of its
/// window: [`FixedPointEngine::new`] the whole window `P_i` against the
/// whole of `known`, and [`FixedPointEngine::within_hops`]`(h)` the hop
/// prefix `P_i^{≤h}` against `known^{≤h}` (§6 runs one such computation per
/// prefix). The engine applies its frame itself, to the window and `known`
/// each call hands it and to every note, so a caller hands all its engines
/// the same inputs and notes. The ranking function and `n` must stay fixed
/// across calls, and the first component of a call's `revisions` must pin
/// the window's frame exactly: the detector passes its forwarded-prefix
/// revision, which moves by one on every change to `P_i^{≤d−1}` (in the
/// global scope, on every window change), and so on every change to any of
/// its engines' frames. Under that contract the engine caches:
///
/// **Per revision** (shared by every neighbour of a protocol step and by
/// every later step at the same revision):
///
/// * the seed `O_n(P_i) ∪ [P_i|O_n(P_i)]` — a pure function of `P_i`,
///   previously recomputed per neighbour, and
/// * every support set `[P_i|x]` the fixed-point loop has queried, keyed by
///   the identity of `x` (support sets depend only on the observation's
///   identity and features, which all copies of an observation share). The
///   seed's own supports are queried once, when the seed is built, and not
///   cached: every call at the revision starts with the seed's estimate
///   marked as processed, so no later query would read them.
///
/// **Over the window** (surviving across calls *and* revisions): the
/// window state, `H = P_i` (the frame's points) inside one long-lived
/// [`DynamicIndex`]. It follows the window through the window notes
/// ([`FixedPointEngine::note_window_point`],
/// [`FixedPointEngine::note_window_evictions`]), each of which moves it on
/// by one revision. The seed's estimate `O_n(P_i)` is selected
/// lazily over it, and its index answers every support query, so no call
/// builds an index over the window. It is built at an engine's first call, and
/// again only at a call whose revision its chain never reached (a missed
/// note, or a window change the caller never noted).
///
/// **Per neighbour** (surviving across calls *and* revisions): the
/// hypothetical set `H = D_ij ∪ D_ji ∪ Z` inside one long-lived
/// [`DynamicIndex`], together with a cached rank per point. `H` follows
/// `known` through delta notes: a non-empty `Z` is recorded into `D_ij`
/// right after the call, so the next call's `known` already covers the
/// previous `H`, and every record and every eviction of `known` reaches the
/// engine as a note on the bookkeeping revision chain
/// ([`FixedPointEngine::note_shared_points`],
/// [`FixedPointEngine::note_evicted_points`]). Ranking functions are
/// **anti-monotone** (the axiom of §4.1 the whole protocol rests on,
/// verified for every shipped ranking by `wsn_ranking::axioms`), so a rank
/// cached over a subset of the current `H` is a valid *upper bound* on the
/// current rank. A removal is the one transition that can raise a rank: it
/// marks unknown every cached rank the removed point lay within the
/// [affection radius](RankingFunction::affection_radius) of, and keeps the
/// rest, which that contract proves unchanged. Each iteration's estimate
/// `O_n(H)` is therefore selected lazily: candidates pop in upper-bound
/// order and only the actual contenders are re-ranked against the index, so
/// a steady-state call — window slides included — ranks a handful of points
/// instead of all of `H`. If a call finds `H` out of sync with `known ∪ Z`
/// (a missed or out-of-order note, a caller that never records its sends),
/// it re-scans `known`, and if `known` shrank under `H` the per-neighbour
/// state is rebuilt from scratch; a cheap size check detects this exactly.
///
/// The result is bit-identical to [`sufficient_set_rebuild_reference`] over
/// the frame: the recurrence `Z ← Z ∪ [P_i | O_n(known ∪ Z)]` is evaluated
/// with the same distance arithmetic and the same `(rank, ≺)` tie-broken
/// selection — lazy validation re-queries a contender through the same
/// index machinery an eager selection would have used, and floating-point
/// rank computations are monotone under set growth (pointwise-smaller
/// sorted neighbour distances sum to a smaller rank), so an upper bound can
/// never understate a true rank. No iteration builds an index or
/// re-materialises the union, and supports are queried only for estimate
/// points not already folded into `Z`.
///
/// Everything the engine holds but its frame is therefore a cache: a cold
/// engine of the same frame returns the same sets. None of it is
/// persisted. A restored detector starts every engine cold, over the frame
/// its scope gives it, so each engine's first call after the restore builds
/// its window state and each neighbour's its chain.
#[derive(Debug, Clone, Default)]
pub struct FixedPointEngine {
    /// The hops of the window this engine ranks.
    frame: Frame,
    /// The window revision the two caches below were computed for.
    revision: Option<u64>,
    /// `O_n(P_i) ∪ [P_i|O_n(P_i)]` plus the estimate's keys (whose supports
    /// are already folded into the seed). Shared, so handing a caller the
    /// unchanged seed as its `Z` is a reference-count bump.
    own_seed: Option<(Arc<PointSet>, Arc<[PointKey]>)>,
    /// Memoized `[P_i|x]` support sets of the fixed-point loop, keyed by
    /// the identity of `x`; never holds a key of the seed's estimate.
    support_cache: BTreeMap<PointKey, PointSet>,
    /// Per-neighbour hypothetical-set state (see the type-level docs).
    neighbors: BTreeMap<SensorId, HypotheticalState>,
    /// The window state (see the type-level docs): the same lazy-rank
    /// machinery over the frame of `P_i` itself, its sync chain on the
    /// window revision.
    own: Option<HypotheticalState>,
    /// Reusable scratch for the per-call processed-keys list (small: the
    /// seed plus a few support additions), saving one allocation per call.
    scratch_processed: Vec<PointKey>,
}

/// The hops of the window an engine ranks: `None` all of them, `Some(h)`
/// those `≤ h`.
#[derive(Debug, Clone, Copy, Default)]
struct Frame(Option<HopCount>);

impl Frame {
    /// Whether `point` lies in the frame.
    fn holds(self, point: &DataPoint) -> bool {
        self.0.map_or(true, |h| point.hop <= h)
    }

    /// The points of `set` that lie in the frame, sharing its points.
    fn of(self, set: &PointSet) -> Cow<'_, PointSet> {
        match self.0 {
            None => Cow::Borrowed(set),
            Some(h) => Cow::Owned(set.filter_max_hop(h)),
        }
    }
}

/// The long-lived `H = known ∪ Z` of one neighbour (or, for the window
/// state, `H = P_i`): a [`DynamicIndex`], a rank upper bound per point, and
/// the points ordered by those bounds — all persistent across calls and
/// updated in place by insertions and removals, so a steady-state call does
/// no `O(|H|)` work beyond cheap map lookups, and a window slide costs one
/// pass over `H` per eviction note.
#[derive(Debug, Clone)]
struct HypotheticalState {
    index: DynamicIndex,
    /// Bumped on every insertion; a cached rank is exact (not merely an
    /// upper bound) iff it was validated at the current version *or* every
    /// later insertion provably lies outside its affection radius.
    version: u64,
    /// `(rank upper bound, version it was exact at)` per point, keyed in
    /// lockstep with the index contents.
    ranks: BTreeMap<PointKey, (f64, u64)>,
    /// The points ordered by `(rank upper bound, ≺)` — the outlier order.
    /// Every entry's rank mirrors `ranks` exactly; revalidating a point
    /// moves its entry, inserting a point adds an unknown-rank entry at the
    /// front.
    order: std::collections::BTreeSet<Contender>,
    /// The most recent insertions, tagged with the version they created —
    /// the candidates for the affection-radius test. A rank validated at
    /// version `v` is still exact if every pending point newer than `v`
    /// lies strictly beyond the rank's affection radius. Capped at
    /// [`PENDING_INSERTS_CAP`]; once entries have been dropped, older
    /// validations fall back to a full re-rank.
    pending: VecDeque<(u64, Arc<DataPoint>)>,
    /// Versions `<=` this value are no longer covered by `pending`.
    pending_floor: u64,
    /// The neighbour bookkeeping revision `known` was last folded in at;
    /// while it is unchanged, `known` is unchanged and the sync scan is
    /// skipped entirely. Kept in step by [`FixedPointEngine::note_shared_points`]
    /// and [`FixedPointEngine::note_evicted_points`] (for the window state:
    /// the window revision, by the window notes).
    synced_at: Option<u64>,
    /// The `P_i` revision (the caller's `revisions.0`) whose seed was last
    /// folded in; one fold per revision suffices because the seed is a pure
    /// function of `P_i`.
    seed_at: Option<u64>,
    /// Identities H holds that were *not* in `known` when folded in (seed
    /// points and freshly added supports — the caller's `Z \ known`). The
    /// invariant behind the no-scan fast path is `H ⊆ known ∪ Z`; a caller
    /// that records its sends (both detectors do, unconditionally, before
    /// the next call) moves these into `known`, which the next call
    /// verifies with a handful of lookups. A caller that does not is sent
    /// down the full re-verify path instead.
    unrecorded: Vec<PointKey>,
}

/// How many recent insertions a [`HypotheticalState`] keeps for the
/// affection-radius shortcut before falling back to full re-ranks.
const PENDING_INSERTS_CAP: usize = 48;

impl HypotheticalState {
    /// Builds the state over `contents`, all ranks unknown (`+∞` bounds).
    fn build(contents: &PointSet) -> Self {
        HypotheticalState {
            index: DynamicIndex::build(contents),
            version: 1,
            ranks: contents.keys().map(|k| (*k, (f64::INFINITY, 0))).collect(),
            order: contents
                .iter_arcs()
                .map(|p| Contender { rank: f64::INFINITY, point: Arc::clone(p) })
                .collect(),
            pending: VecDeque::new(),
            pending_floor: 0,
            synced_at: None,
            seed_at: None,
            unrecorded: Vec::new(),
        }
    }

    /// Applies a delta that moved the tracked revision to `revision` — if
    /// the state was synced to the revision just before it. Otherwise the
    /// state stays behind, and the next call re-scans or rebuilds.
    fn follow(&mut self, revision: u64, apply: impl FnOnce(&mut Self)) {
        if self.synced_at == Some(revision.wrapping_sub(1)) {
            apply(self);
            self.synced_at = Some(revision);
        }
    }

    /// Removes `points` (by identity; absent ones are skipped) from the
    /// index, `ranks`, `order`, `pending` and `unrecorded`, releasing every
    /// handle the state held on them. A removal can only *raise* ranks
    /// (anti-monotonicity), so cached bounds may stop being upper bounds;
    /// one pass over the remaining entries marks unknown (`∞`, validated at
    /// 0) every rank some removed point lies within the
    /// [affection radius](RankingFunction::affection_radius) of. The rest
    /// keep their bounds and validation versions, because the contract makes
    /// each of them the identical value over the shrunken set: the radius of
    /// a cached bound is at least the radius of the true rank (monotone), and
    /// a point beyond it does not determine the rank. A pending insertion
    /// that is removed simply drops out of the shortcut, as if it had never
    /// been inserted.
    fn remove<'a, R: RankingFunction + ?Sized>(
        &mut self,
        ranking: &R,
        points: impl IntoIterator<Item = &'a Arc<DataPoint>>,
    ) {
        let mut removed: Vec<&Arc<DataPoint>> = Vec::new();
        for p in points {
            if self.index.remove(&p.key) {
                let (rank, _) = self.ranks.remove(&p.key).expect("ranks mirror the index");
                self.order.remove(&Contender { rank, point: Arc::clone(p) });
                removed.push(p);
            }
        }
        if removed.is_empty() {
            return;
        }
        let gone = |key: &PointKey| removed.iter().any(|p| p.key == *key);
        self.pending.retain(|(_, p)| !gone(&p.key));
        self.unrecorded.retain(|k| !gone(k));
        // Unknown ranks (∞) are already at the front and can only stay ∞.
        let stale: Vec<Contender> = self
            .order
            .iter()
            .filter(|c| c.rank != f64::INFINITY)
            .filter(|c| {
                let radius = ranking.affection_radius(c.rank);
                removed.iter().any(|y| c.point.feature_distance(y) <= radius)
            })
            .cloned()
            .collect();
        for entry in stale {
            self.order.remove(&entry);
            self.ranks.insert(entry.point.key, (f64::INFINITY, 0));
            self.order.insert(Contender { rank: f64::INFINITY, point: entry.point });
        }
    }

    /// Set-inserts a point (duplicate identities are no-ops, first copy
    /// wins — union semantics). A new point starts with an unknown rank and
    /// stales every cached rank, since ranks may only have decreased.
    fn insert(&mut self, point: Arc<DataPoint>) {
        let key = point.key;
        if self.index.insert_arc(Arc::clone(&point)) {
            self.version += 1;
            self.ranks.insert(key, (f64::INFINITY, 0));
            self.order.insert(Contender { rank: f64::INFINITY, point: Arc::clone(&point) });
            self.pending.push_back((self.version, point));
            if self.pending.len() > PENDING_INSERTS_CAP {
                if let Some((seq, _)) = self.pending.pop_front() {
                    self.pending_floor = seq;
                }
            }
        }
    }

    /// The estimate `O_n(H)` under `ranking`, selected lazily: candidates
    /// are visited in cached upper-bound order (ties by `≺`, exactly the
    /// outlier order) and a candidate whose bound is stale is re-ranked
    /// through the index; if its rank dropped, its entry moves back and the
    /// position is re-examined. A candidate confirmed *fresh* is provably
    /// the best remaining — every later entry's true rank is bounded by its
    /// ordering key — so the confirmation order is the eager selection
    /// order, bit for bit. Only contenders are ever re-ranked; points whose
    /// bounds never reach the top `n` are never touched.
    fn select_top_n<R: RankingFunction + ?Sized>(
        &mut self,
        ranking: &R,
        n: usize,
    ) -> Vec<Arc<DataPoint>> {
        let mut out = Vec::new();
        while out.len() < n {
            // The first `out.len()` entries are confirmed; the next entry is
            // the candidate (revalidation only ever moves entries backward,
            // so the confirmed prefix is stable).
            let Some(entry) = self.order.iter().nth(out.len()).cloned() else { break };
            let validated_at = self.ranks[&entry.point.key].1;
            if validated_at == self.version {
                out.push(entry.point);
                continue;
            }
            let rank = match self.refresh_through_pending(ranking, &entry, validated_at) {
                Some(rank) => rank,
                None => ranking.rank_indexed(&entry.point, &self.index),
            };
            self.ranks.insert(entry.point.key, (rank, self.version));
            if rank.total_cmp(&entry.rank) == Ordering::Equal {
                out.push(entry.point);
            } else {
                self.order.remove(&entry);
                self.order.insert(Contender { rank, point: entry.point });
            }
        }
        out
    }

    /// The pending-insert shortcut: folds every insertion newer than
    /// `validated_at` into the cached rank without touching the index.
    /// Per pending point, either the ranking derives the exact updated
    /// rank from the insertion distance alone
    /// ([`RankingFunction::rank_after_insertion`] — the NN ranking always
    /// can), or the insertion lies strictly outside the rank's affection
    /// radius and provably left it unchanged. Returns the exact current
    /// rank, or `None` when some insertion forces a full re-rank (or the
    /// pending window no longer covers `validated_at`).
    fn refresh_through_pending<R: RankingFunction + ?Sized>(
        &self,
        ranking: &R,
        entry: &Contender,
        validated_at: u64,
    ) -> Option<f64> {
        if validated_at == 0 || validated_at < self.pending_floor {
            return None;
        }
        let mut rank = entry.rank;
        for (seq, y) in &self.pending {
            if *seq <= validated_at {
                continue;
            }
            let distance = entry.point.feature_distance(y);
            if let Some(updated) = ranking.rank_after_insertion(rank, distance) {
                rank = updated;
            } else if distance <= ranking.affection_radius(rank) {
                return None;
            }
        }
        Some(rank)
    }
}

/// An ordered-set entry of [`HypotheticalState::select_top_n`]: ascending
/// order is best-first — highest rank first, ties broken by `≺` (the
/// `≺`-smaller point first), matching `RankedPoint::outlier_order`.
#[derive(Debug, Clone)]
struct Contender {
    rank: f64,
    point: Arc<DataPoint>,
}

impl Ord for Contender {
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank.total_cmp(&self.rank).then_with(|| total_order(&self.point, &other.point))
    }
}

impl PartialOrd for Contender {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Contender {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Contender {}

impl FixedPointEngine {
    /// Creates an engine with cold caches that ranks the whole window.
    pub fn new() -> Self {
        FixedPointEngine::default()
    }

    /// Creates an engine with cold caches that ranks the hop prefix
    /// `P_i^{≤h}` of the window against `known^{≤h}`.
    pub fn within_hops(h: HopCount) -> Self {
        FixedPointEngine { frame: Frame(Some(h)), ..FixedPointEngine::default() }
    }

    /// Invalidates the revision-scoped caches when `revision` differs from
    /// the one they were filled at. The per-neighbour states survive: their
    /// rank bounds stay upper bounds as `H` grows and across noted
    /// removals, and the size check in [`FixedPointEngine::sufficient_set`]
    /// catches un-noted shrinkage.
    fn roll_to(&mut self, revision: u64) {
        if self.revision != Some(revision) {
            self.revision = Some(revision);
            self.own_seed = None;
            self.support_cache.clear();
        }
    }

    /// Tells the engine that `points` have just been recorded into the
    /// shared-knowledge set of `neighbor`, whose bookkeeping revision is now
    /// `known_revision`. If the neighbour's cached hypothetical set was
    /// synced to the immediately preceding revision, the delta's points in
    /// the engine's frame are folded in right here and the next
    /// [`FixedPointEngine::sufficient_set`] call skips its `known` scan
    /// entirely; any gap in the chain (a missed or out-of-order note) simply
    /// leaves the state behind, and the next call re-scans or rebuilds.
    /// Purely an optimisation: correctness never depends on being notified.
    pub fn note_shared_points(
        &mut self,
        neighbor: SensorId,
        points: &[Arc<DataPoint>],
        known_revision: u64,
    ) {
        let frame = self.frame;
        if let Some(state) = self.neighbors.get_mut(&neighbor) {
            state.follow(known_revision, |state| {
                for p in points.iter().filter(|p| frame.holds(p)) {
                    state.insert(Arc::clone(p));
                }
            });
        }
    }

    /// Tells the engine that `points` have just been evicted from the
    /// shared-knowledge set of `neighbor`, whose bookkeeping revision is now
    /// `known_revision` — the eviction counterpart of
    /// [`FixedPointEngine::note_shared_points`], on the same chain. The
    /// points in the engine's frame leave the neighbour's hypothetical set
    /// in place, and only the cached ranks they could have determined are
    /// marked unknown (see [`RankingFunction::affection_radius`]), so a
    /// window slide keeps the chain intact instead of forcing a rebuild.
    /// `ranking` must be the one every [`FixedPointEngine::sufficient_set`]
    /// call passes.
    pub fn note_evicted_points<R: RankingFunction + ?Sized>(
        &mut self,
        ranking: &R,
        neighbor: SensorId,
        points: &[Arc<DataPoint>],
        known_revision: u64,
    ) {
        let frame = self.frame;
        if let Some(state) = self.neighbors.get_mut(&neighbor) {
            state.follow(known_revision, |state| {
                state.remove(ranking, points.iter().filter(|p| frame.holds(p)));
            });
        }
    }

    /// Drops the cached hypothetical-set chain of a departed neighbour.
    /// The neighbour's `Arc<DataPoint>` handles go with it — a dead
    /// neighbour must not keep window points alive. If the neighbour later
    /// rejoins, its chain restarts cold, exactly like any neighbour the
    /// engine has never computed for.
    pub fn forget_neighbor(&mut self, neighbor: SensorId) {
        self.neighbors.remove(&neighbor);
    }

    /// Whether the engine currently holds per-neighbour state for
    /// `neighbor` (diagnostics: lets tests assert the state-leak contract).
    pub fn tracks_neighbor(&self, neighbor: SensorId) -> bool {
        self.neighbors.contains_key(&neighbor)
    }

    /// The neighbours the engine currently holds cached state for, in
    /// ascending order.
    pub fn tracked_neighbors(&self) -> impl Iterator<Item = SensorId> + '_ {
        self.neighbors.keys().copied()
    }

    /// Whether the chain of `neighbor` holds the observation `key`.
    #[cfg(test)]
    pub(crate) fn chain_holds(&self, neighbor: SensorId, key: &PointKey) -> bool {
        self.neighbors.get(&neighbor).is_some_and(|state| state.ranks.contains_key(key))
    }

    /// `O_n(P_i)` at window revision `revision`, read from the selection
    /// the window state made for this revision's seed: the points in
    /// outlier order, each with its exact rank. `None` unless that
    /// selection is provably current: the seed was computed at `revision`,
    /// the window state is synced at `revision` (it has followed every
    /// window change up to it), and every selected point's rank was
    /// validated at the state's current version. The answer is then
    /// bit-identical to [`top_n_outliers`] over the frame of `P_i`: the
    /// same lazy selection the seed rests on, with the ranks it confirmed.
    pub fn own_outliers(&self, revision: u64) -> Option<OutlierEstimate> {
        if self.revision != Some(revision) {
            return None;
        }
        let (seed, keys) = self.own_seed.as_ref()?;
        let own = self.own.as_ref().filter(|own| own.synced_at == Some(revision))?;
        let mut ranked = Vec::with_capacity(keys.len());
        for key in keys.iter() {
            let &(rank, validated_at) = own.ranks.get(key)?;
            if validated_at != own.version {
                return None;
            }
            ranked.push(RankedPoint::new(rank, Arc::clone(seed.get_arc(key)?)));
        }
        // The seed keeps its keys in key order.
        sort_by_outlier_order(&mut ranked);
        Some(OutlierEstimate::from_ranked(ranked))
    }

    /// Tells the engine the window just accepted `point`, moving its
    /// revision to `revision`. Chains like
    /// [`FixedPointEngine::note_shared_points`]: if the window state was
    /// synced to the preceding revision it follows (taking the point if it
    /// lies in the engine's frame), otherwise the state falls behind and the
    /// next call rebuilds it. An accepted point may be a lower-hop copy of
    /// an observation the window held: it replaces the copy the state holds,
    /// so the seed and the supports carry the window's hops. `ranking` must
    /// be the one every [`FixedPointEngine::sufficient_set`] call passes.
    pub fn note_window_point<R: RankingFunction + ?Sized>(
        &mut self,
        ranking: &R,
        point: &Arc<DataPoint>,
        revision: u64,
    ) {
        let frame = self.frame;
        if let Some(own) = self.own.as_mut() {
            own.follow(revision, |own| {
                if frame.holds(point) {
                    own.remove(ranking, [point]);
                    own.insert(Arc::clone(point));
                }
            });
        }
    }

    /// Tells the engine the window just evicted `points` (all of one slide,
    /// under one revision bump), moving its revision to `revision`. The
    /// window counterpart of [`FixedPointEngine::note_evicted_points`]: the
    /// points in the engine's frame leave the window state in place, on the
    /// chain [`FixedPointEngine::note_window_point`] follows.
    pub fn note_window_evictions<R: RankingFunction + ?Sized>(
        &mut self,
        ranking: &R,
        points: &[Arc<DataPoint>],
        revision: u64,
    ) {
        let frame = self.frame;
        if let Some(own) = self.own.as_mut() {
            own.follow(revision, |own| {
                own.remove(ranking, points.iter().filter(|p| frame.holds(p)))
            });
        }
    }

    /// Computes `Z_j` over the engine's frame for the neighbour `neighbor`;
    /// see [`sufficient_set`] for the shared parameters and the type-level
    /// docs for the caching contract. `window` is the whole window and
    /// `known_common` the whole shared-knowledge set: the engine takes their
    /// frames itself. `revisions` pins the call's inputs exactly: its first
    /// component is the window revision (the detector's forwarded-prefix
    /// revision), its second the neighbour's bookkeeping revision
    /// (identifying `known_common`) — the same pair the detector's
    /// neighbour book keys its nothing-to-send memo by. Ranking and `n` must
    /// not vary across calls on one engine. The returned set is shared —
    /// when the fixed point adds nothing beyond the seed (the common steady
    /// state), no set is copied at all.
    pub fn sufficient_set<R: RankingFunction + ?Sized>(
        &mut self,
        ranking: &R,
        n: usize,
        window: &PointSet,
        neighbor: SensorId,
        known_common: &PointSet,
        revisions: (u64, u64),
    ) -> Arc<PointSet> {
        // Framing `known` prepares the call's input, so it stays outside the
        // fixed point's span.
        let frame = self.frame;
        let known_frame = frame.of(known_common);
        let known_common: &PointSet = &known_frame;
        OBS_FP_CALLS.add(1);
        let _fp_span = wsn_obs::span("fixed_point");
        self.roll_to(revisions.0);
        // The revision chain pins the window state. Where the frame's size
        // is O(1) to read (the whole window) it is checked too; a hop frame
        // takes O(|P_i|) to count, so only debug builds count it.
        let own_synced = self.own.as_ref().is_some_and(|own| {
            own.synced_at == Some(revisions.0)
                && (frame.0.is_some() || own.index.len() == window.len())
        });
        if !own_synced {
            OBS_WINDOW_BUILDS.add(1);
            let mut rebuilt = HypotheticalState::build(&frame.of(window));
            rebuilt.synced_at = Some(revisions.0);
            self.own = Some(rebuilt);
        }
        let own = self.own.as_mut().expect("the window state was just ensured");
        debug_assert_eq!(own.index.len(), frame.of(window).len(), "the window state is stale");
        if self.own_seed.is_some() {
            OBS_SEED_REUSES.add(1);
        } else {
            OBS_SEED_BUILDS.add(1);
            // Lazy selection over the window: only contenders re-rank.
            let mut own_estimate = PointSet::new();
            for p in own.select_top_n(ranking, n) {
                own_estimate.insert_arc(p);
            }
            // The seed's keys start every call's processed list at this
            // revision, so the loop below never asks for their supports:
            // they are queried here once and not cached.
            let mut seed = own_estimate.clone();
            for x in own_estimate.iter() {
                OBS_SUPPORT_QUERIES.add(1);
                OBS_SUPPORT_MISSES.add(1);
                seed.extend_from(&ranking.support_set_indexed(x, &own.index));
            }
            let keys: Arc<[PointKey]> = own_estimate.keys().copied().collect();
            self.own_seed = Some((Arc::new(seed), keys));
        }
        let (seed, seeded_keys) = match &self.own_seed {
            // Handing out the cached seed only bumps reference counts.
            Some((seed, keys)) => (Arc::clone(seed), Arc::clone(keys)),
            None => unreachable!("own_seed filled above"),
        };

        // Z starts at the seed (copy-on-write: cloned only if it grows).
        let mut z = seed;
        // Bring the neighbour's H to exactly known ∪ Z. In the steady state
        // the cached H was verified at an earlier call and has followed
        // every `known` change — records and evictions alike — through the
        // delta notes (synced_at chain) and every Z change through its own
        // inserts, so nothing needs scanning at all; only a broken chain (a
        // missed note, a caller that never notes) walks `known` and
        // re-verifies the size. For an identity present on both sides the
        // already-stored copy wins, which is observationally the
        // `known.union(&z)` of the reference — rank and `≺` comparisons
        // never read the hop field, the only thing that can differ between
        // copies.
        let state = self
            .neighbors
            .entry(neighbor)
            .or_insert_with(|| HypotheticalState::build(&PointSet::new()));
        let chain_intact = state.synced_at == Some(revisions.1)
            && state.unrecorded.iter().all(|k| known_common.contains_key(k));
        if state.index.is_empty() && !(known_common.is_empty() && z.is_empty()) {
            OBS_FP_COLD_BUILDS.add(1);
            *state = HypotheticalState::build(&known_common.union(&z));
            state.synced_at = Some(revisions.1);
            state.seed_at = Some(revisions.0);
            state.unrecorded =
                z.keys().filter(|k| !known_common.contains_key(k)).copied().collect();
        } else if chain_intact {
            OBS_FP_CHAIN_FAST.add(1);
            // Chain intact and every previously unrecorded point has been
            // recorded into `known`: H equals known ∪ Z without any
            // scanning. Fold this revision's seed once.
            state.unrecorded.clear();
            if state.seed_at != Some(revisions.0) {
                for p in z.iter_arcs() {
                    state.insert(Arc::clone(p));
                    if !known_common.contains_key(&p.key) {
                        state.unrecorded.push(p.key);
                    }
                }
                state.seed_at = Some(revisions.0);
            }
        } else {
            // Chain broken (a missed note, a caller that never records or
            // notes): re-scan `known`, fold the seed, and verify the size —
            // H must hold exactly |known ∪ Z| identities, or it carries
            // identities `known` no longer covers and its ranks would be
            // too low. Start this neighbour over in that case.
            if wsn_obs::enabled() {
                if state.synced_at != Some(revisions.1) {
                    OBS_FP_RESCAN_REVISION_GAP.add(1);
                } else {
                    OBS_FP_RESCAN_UNRECORDED.add(1);
                }
            }
            for p in known_common.iter_arcs() {
                state.insert(Arc::clone(p));
            }
            for p in z.iter_arcs() {
                state.insert(Arc::clone(p));
            }
            let mut unrecorded = Vec::new();
            let expected = {
                let mut expected = known_common.len();
                for p in z.iter() {
                    if !known_common.contains_key(&p.key) {
                        expected += 1;
                        unrecorded.push(p.key);
                    }
                }
                expected
            };
            if state.index.len() != expected {
                OBS_FP_DESYNC_REBUILDS.add(1);
                *state = HypotheticalState::build(&known_common.union(&z));
            }
            state.synced_at = Some(revisions.1);
            state.seed_at = Some(revisions.0);
            state.unrecorded = unrecorded;
        }

        // Estimate points whose support is already folded into Z — their
        // supports are pure functions of identity, so re-querying them could
        // never add anything new. The list stays tiny (seed plus a few
        // support additions), so a linear scan over reused scratch beats a
        // per-call set allocation.
        let mut processed = std::mem::take(&mut self.scratch_processed);
        processed.clear();
        processed.extend_from_slice(&seeded_keys);

        // Fixed point: Z_j ← Z_j ∪ [P_i | O_n(D_ij ∪ D_ji ∪ Z_j)].
        loop {
            let estimate = state.select_top_n(ranking, n);
            let mut grew = false;
            for x in estimate {
                if processed.contains(&x.key) {
                    continue;
                }
                processed.push(x.key);
                OBS_SUPPORT_QUERIES.add(1);
                let support = self.support_cache.entry(x.key).or_insert_with(|| {
                    OBS_SUPPORT_MISSES.add(1);
                    ranking.support_set_indexed(&x, &own.index)
                });
                for p in support.iter_arcs() {
                    if Arc::make_mut(&mut z).insert_arc(Arc::clone(p)) {
                        grew = true;
                        state.insert(Arc::clone(p));
                        if !known_common.contains_key(&p.key) {
                            state.unrecorded.push(p.key);
                        }
                    }
                }
            }
            if !grew {
                self.scratch_processed = processed;
                return z;
            }
        }
    }
}

/// Convenience wrapper: the points of `Z_j` that actually need transmitting,
/// i.e. `Z_j \ (D^i_{i,j} ∪ D^i_{j,i})`.
pub fn points_to_send<R: RankingFunction + ?Sized>(
    ranking: &R,
    n: usize,
    pi: &PointSet,
    known_common: &PointSet,
) -> PointSet {
    sufficient_set(ranking, n, pi, known_common).difference(known_common)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_data::{DataPoint, Epoch, SensorId, Timestamp};
    use wsn_ranking::function::support_of_set;
    use wsn_ranking::index::AnyIndex;
    use wsn_ranking::{KnnAverageDistance, NnDistance};

    fn pt(origin: u32, epoch: u64, v: f64) -> DataPoint {
        DataPoint::new(SensorId(origin), Epoch(epoch), Timestamp::ZERO, vec![v]).unwrap()
    }

    /// The dataset of sensor p_i in the §5.1 walk-through with a = 15.
    fn section_5_1_pi() -> PointSet {
        let mut values = vec![0.5, 3.0, 6.0];
        values.extend((10..=15).map(f64::from));
        values.iter().enumerate().map(|(e, v)| pt(1, e as u64, *v)).collect()
    }

    #[test]
    fn first_exchange_of_the_paper_example_sends_a_handful_of_points() {
        // §5.1 step 1: the paper's run (with its tie-breaking) sends {3, 6}.
        // Our tie-breaking order resolves the rank tie between 3 and 6 the
        // other way, which additionally pulls in 0.5 — still a tiny fraction
        // of P_i, still containing the eventual answer, and still a valid
        // sufficient set per equation (2).
        let pi = section_5_1_pi();
        let z = sufficient_set(&NnDistance, 1, &pi, &PointSet::new());
        let mut values: Vec<f64> = z.iter().map(|p| p.features[0]).collect();
        values.sort_by(f64::total_cmp);
        assert_eq!(values, vec![0.5, 3.0, 6.0]);
        let to_send = points_to_send(&NnDistance, 1, &pi, &PointSet::new());
        assert_eq!(to_send.len(), 3);
        assert!(to_send.len() < pi.len() / 2, "far less than centralizing all of P_i");
    }

    #[test]
    fn third_step_of_the_paper_example_sends_only_half() {
        // §5.1 step 3: after receiving {4}, p_i holds {0.5, 3, 4, 6, 10..a},
        // knows {3, 4, 6} is common, and must send exactly {0.5}.
        let mut pi = section_5_1_pi();
        pi.insert(pt(2, 100, 4.0));
        let known: PointSet =
            vec![pt(1, 1, 3.0), pt(1, 2, 6.0), pt(2, 100, 4.0)].into_iter().collect();
        let to_send = points_to_send(&NnDistance, 1, &pi, &known);
        let values: Vec<f64> = to_send.iter().map(|p| p.features[0]).collect();
        assert_eq!(values, vec![0.5]);
    }

    #[test]
    fn sufficient_set_satisfies_equation_2() {
        let pi = section_5_1_pi();
        let known: PointSet = vec![pt(1, 2, 6.0)].into_iter().collect();
        for n in 1..4 {
            for ranking in
                [&NnDistance as &dyn wsn_ranking::RankingFunction, &KnnAverageDistance::new(2)]
            {
                let z = sufficient_set(ranking, n, &pi, &known);
                // (a) Z ⊆ P_i.
                assert!(z.is_subset_of(&pi));
                // (b) O_n(P_i) ∪ [P_i|O_n(P_i)] ⊆ Z.
                let own = top_n_outliers(ranking, n, &pi).to_point_set();
                assert!(own.is_subset_of(&z));
                assert!(support_of_set(ranking, &pi, &own).is_subset_of(&z));
                // (c) [P_i | O_n(D_ij ∪ D_ji ∪ Z)] ⊆ Z.
                let hypothetical = known.union(&z);
                let est = top_n_outliers(ranking, n, &hypothetical).to_point_set();
                assert!(support_of_set(ranking, &pi, &est).is_subset_of(&z));
            }
        }
    }

    #[test]
    fn nothing_needs_sending_once_everything_is_common() {
        let pi = section_5_1_pi();
        let z = sufficient_set(&NnDistance, 1, &pi, &pi);
        // Z is still well-defined (the estimate and its support) …
        assert!(!z.is_empty());
        // … but the difference against the common knowledge is empty.
        assert!(points_to_send(&NnDistance, 1, &pi, &pi).is_empty());
    }

    #[test]
    fn empty_dataset_yields_empty_sets() {
        let empty = PointSet::new();
        assert!(sufficient_set(&NnDistance, 3, &empty, &empty).is_empty());
        assert!(points_to_send(&NnDistance, 3, &empty, &empty).is_empty());
    }

    #[test]
    fn sufficient_set_is_much_smaller_than_pi_for_clustered_data() {
        // The whole reason the algorithm saves bandwidth: only outliers and
        // their supports travel, not the bulk of the data.
        let mut points = Vec::new();
        for e in 0..200 {
            points.push(pt(1, e, 100.0 + (e % 10) as f64 * 0.01));
        }
        points.push(pt(1, 200, 0.5)); // one clear outlier
        let pi: PointSet = points.into_iter().collect();
        let z = sufficient_set(&NnDistance, 2, &pi, &PointSet::new());
        assert!(z.len() <= 8, "sufficient set has {} points", z.len());
        assert!(z.iter().any(|p| p.features[0] == 0.5));
    }

    #[test]
    fn larger_n_never_shrinks_the_sufficient_set() {
        let pi = section_5_1_pi();
        let z1 = sufficient_set(&NnDistance, 1, &pi, &PointSet::new());
        let z3 = sufficient_set(&NnDistance, 3, &pi, &PointSet::new());
        assert!(z1.len() <= z3.len());
    }

    /// The §5.1 example, evaluated through the incremental engine and the
    /// rebuild-per-iteration reference: bit-identical results for every
    /// ranking, `n`, and shared-knowledge configuration of the walk-through.
    #[test]
    fn incremental_engine_matches_the_rebuild_reference_on_section_5_1() {
        let mut pi = section_5_1_pi();
        pi.insert(pt(2, 100, 4.0));
        let knowns = [
            PointSet::new(),
            vec![pt(1, 1, 3.0), pt(1, 2, 6.0), pt(2, 100, 4.0)].into_iter().collect(),
            pi.clone(),
        ];
        for ranking in
            [&NnDistance as &dyn wsn_ranking::RankingFunction, &KnnAverageDistance::new(2)]
        {
            let index = AnyIndex::build(&pi);
            for n in 1..4 {
                // One engine per (ranking, n); known varies across calls on
                // one engine exactly as the per-neighbour loop does, so the
                // warm seed/support caches are exercised too.
                let mut engine = FixedPointEngine::new();
                for (j, known) in knowns.iter().enumerate() {
                    let reference =
                        sufficient_set_rebuild_reference(ranking, n, &pi, &index, known);
                    // Each known plays a distinct neighbour, then repeats as
                    // neighbour 9 so one per-neighbour state sees them all
                    // (growing and shrinking known — the rebuild path).
                    for neighbor in [SensorId(j as u32), SensorId(9)] {
                        assert_eq!(
                            engine
                                .sufficient_set(ranking, n, &pi, neighbor, known, (7, j as u64))
                                .as_ref(),
                            &reference,
                            "engine diverges from the reference (n={n})"
                        );
                    }
                    assert_eq!(
                        sufficient_set(ranking, n, &pi, known),
                        reference,
                        "one-shot wrapper diverges from the reference (n={n})"
                    );
                }
            }
        }
    }

    /// `own_outliers` serves the window state's selection only at the
    /// revision it was made for, and only once a call made it: a window
    /// note moves the state on, and the selection of the previous revision
    /// is no longer served.
    #[test]
    fn own_outliers_serves_only_a_current_validated_selection() {
        let mut window: PointSet = [0.0, 10.0, 11.0, 12.0, 13.0]
            .iter()
            .enumerate()
            .map(|(e, v)| pt(1, e as u64, *v))
            .collect();
        let mut engine = FixedPointEngine::new();
        let none = PointSet::new();
        assert_eq!(engine.own_outliers(1), None, "nothing selected yet");
        engine.sufficient_set(&NnDistance, 1, &window, SensorId(2), &none, (1, 0));
        let served = engine.own_outliers(1).expect("the window state selected at revision 1");
        assert_eq!(served, top_n_outliers(&NnDistance, 1, &window));
        assert_eq!(served.ranked()[0].rank, 10.0);
        // Revision 2 adds 7.0, which lowers 0.0's rank to 7. Until a call at
        // revision 2, the engine holds revision 1's selection.
        let late = Arc::new(pt(1, 9, 7.0));
        window.insert_arc(Arc::clone(&late));
        engine.note_window_point(&NnDistance, &late, 2);
        assert_eq!(engine.own_outliers(1), None, "the window state moved past revision 1");
        assert_eq!(engine.own_outliers(2), None, "no call has selected at revision 2");
        engine.sufficient_set(&NnDistance, 1, &window, SensorId(2), &none, (2, 0));
        let served = engine.own_outliers(2).expect("the window state selected at revision 2");
        assert_eq!(served, top_n_outliers(&NnDistance, 1, &window));
        assert_eq!(served.ranked()[0].rank, 7.0);
    }

    /// A window note whose copy lowers the hop of an observation the window
    /// state holds replaces the held copy, so the seed carries the window's
    /// hop, which the hop scope increments before sending.
    #[test]
    fn a_noted_lower_hop_copy_replaces_the_held_one() {
        let mut window: PointSet = (0..4).map(|e| pt(1, e, 10.0 + e as f64 * 0.1)).collect();
        let outlier = pt(2, 0, -50.0);
        window.insert(outlier.clone().with_hop(2));
        let mut engine = FixedPointEngine::within_hops(2);
        let none = PointSet::new();
        let hop_sent = |engine: &mut FixedPointEngine, window: &PointSet, revision: u64| {
            let z =
                engine.sufficient_set(&NnDistance, 1, window, SensorId(3), &none, (revision, 0));
            z.get(&outlier.key).map(|p| p.hop)
        };
        assert_eq!(hop_sent(&mut engine, &window, 1), Some(2));
        let closer = Arc::new(outlier.clone().with_hop(1));
        assert!(window.insert_min_hop_arc(Arc::clone(&closer)).changed());
        engine.note_window_point(&NnDistance, &closer, 2);
        assert_eq!(hop_sent(&mut engine, &window, 2), Some(1), "the window's copy is hop 1");
    }

    /// A revision move must invalidate the engine's seed and support caches:
    /// replaying an old revision number against changed contents would
    /// otherwise serve stale sets.
    #[test]
    fn engine_caches_are_invalidated_when_the_revision_moves() {
        let mut engine = FixedPointEngine::new();
        let j = SensorId(2);
        let pi_a = section_5_1_pi();
        let from_engine = engine.sufficient_set(&NnDistance, 1, &pi_a, j, &PointSet::new(), (1, 0));
        assert_eq!(*from_engine, sufficient_set(&NnDistance, 1, &pi_a, &PointSet::new()));
        // The window slides: one point leaves, one arrives.
        let mut pi_b = pi_a.clone();
        pi_b.discard(&pt(1, 0, 0.5).key);
        pi_b.insert(pt(1, 99, -20.0));
        let from_engine = engine.sufficient_set(&NnDistance, 1, &pi_b, j, &PointSet::new(), (2, 0));
        assert_eq!(*from_engine, sufficient_set(&NnDistance, 1, &pi_b, &PointSet::new()));
    }

    /// The seed's supports are queried when the seed is built and never
    /// cached, since every call at the revision marks the seed's estimate
    /// processed; the fixed-point loop's supports are cached, and a second
    /// neighbour at the same revision reads them from the cache.
    #[test]
    fn only_the_loops_supports_are_cached() {
        let pi = section_5_1_pi();
        let none = PointSet::new();
        let mut engine = FixedPointEngine::new();
        let z = engine.sufficient_set(&NnDistance, 1, &pi, SensorId(2), &none, (1, 0));
        assert_eq!(*z, sufficient_set(&NnDistance, 1, &pi, &none));
        let (_, seeded) = engine.own_seed.clone().expect("the seed of revision 1");
        assert_eq!(seeded.as_ref(), &[pt(1, 2, 6.0).key], "O_1(P_i) is {{6}}");
        assert!(seeded.iter().all(|key| !engine.support_cache.contains_key(key)));
        // H = the seed {3, 6} ranks 3 first (a tie with 6, broken by ≺): the
        // loop queries its support, {0.5}, and caches it.
        let looped = pt(1, 1, 3.0).key;
        assert_eq!(engine.support_cache.len(), 1);
        assert!(engine.support_cache.contains_key(&looped));
        // Mark the cached entry: the next neighbour's Z carries the marker
        // only if its loop read the entry instead of querying again.
        let marker = pt(9, 0, 100.0);
        engine.support_cache.get_mut(&looped).expect("cached above").insert(marker.clone());
        let z = engine.sufficient_set(&NnDistance, 1, &pi, SensorId(3), &none, (1, 0));
        assert!(z.contains(&marker), "the second neighbour's loop query hit the cache");
    }
}
