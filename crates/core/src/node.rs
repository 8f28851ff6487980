//! The distributed detector node: the global algorithm (§5, Algorithm 1)
//! and the semi-global algorithm (§6, Algorithm 2) as one event loop over a
//! runtime [`Scope`].
//!
//! # Global scope (§5)
//!
//! Every sensor `p_i` keeps
//!
//! * `P_i` — the points it currently holds (its own samples plus everything
//!   it has received), stored in a sliding window,
//! * `D^i_{i,j}` — the points it has sent to each neighbour `p_j`, and
//! * `D^i_{j,i}` — the points it has received from each neighbour,
//!
//! and, whenever any local event fires, computes for every neighbour a
//! *sufficient set* `Z_j` (equation (2), see [`crate::sufficient`]), sends
//! `Z_j` minus what it already knows the neighbour has, and records the sent
//! points. Communication stops exactly when every sensor individually finds
//! nothing left to send; Theorems 1 and 2 guarantee that at that moment all
//! estimates agree and equal the true `O_n(⋃_i D_i)`.
//!
//! # Hop scope (§6)
//!
//! Instead of the outliers of the whole network's data, each sensor computes
//! the outliers of the data sampled within `d` hops of itself
//! (`O_n(D_i^{≤d})`). Every point carries a hop counter: 0 at birth,
//! incremented each time it is forwarded. A sensor keeps only the lowest-hop
//! copy of each observation, runs the global sufficient-set computation
//! separately on every hop-prefix `P_i^{≤h}` for `h ∈ [0, d−1]` (one
//! engine per prefix, [`FixedPointEngine::within_hops`]), unions the
//! results (keeping minimum hops), suppresses anything the neighbour already
//! holds at an equal or smaller hop, and broadcasts the rest. Copies that
//! arrive with more than `d` hops are dropped on receipt. Setting `d` to at
//! least the network diameter makes the algorithm behave exactly like the
//! global one.
//!
//! A point held at hop `d` counts towards the estimate but is never
//! forwarded: no engine ranks it. So what a node sends depends on its
//! window only through the *forwarded prefix* `P_i^{≤d−1}`, and the node
//! keys everything it derives for sending on the forwarded-prefix
//! revision, a counter that moves by one on every change to `P_i^{≤d−1}`:
//! each engine's window state, seed and support caches (and its chains'
//! `seed_at`), and the quiet memo. An insert at hop `< d` (a new point, or
//! a lower-hop copy replacing one) and a slide that evicts a hop-`< d`
//! point move it, and each such move reaches every engine as a window note;
//! a receipt of hop-`d` copies, every receipt at `d = 1`, does not. In the
//! global scope every point is forwarded, so the key is the window revision
//! itself.
//!
//! The two scopes share everything else — the window, the per-neighbour
//! book (shared-knowledge sets, the quiet memo, liveness), the notes every
//! engine hears, and the persistence format. They differ only in their
//! engines' frames, the hop increment and min-hop merge of `Z`, and the hop
//! bound on receipt.

use std::fmt;
use std::sync::Arc;

use crate::ledger::{Merge, NeighborBook};
use crate::message::OutlierBroadcast;
use crate::persist::{self, PersistError, PointRows, PointTable};
use crate::sufficient::FixedPointEngine;
use wsn_data::window::WindowConfig;
use wsn_data::{DataPoint, HopCount, PointSet, SensorId, SlidingWindow, Timestamp};
use wsn_json::JsonValue;
use wsn_ranking::{top_n_outliers, OutlierEstimate, RankingFunction};

/// The spatial extent of detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The whole network's data (§5).
    Global,
    /// The data sampled within `d` hops (§6's `d`, the plots' `epsilon`).
    Hops(HopCount),
}

/// Which way a shared-knowledge delta the book just made moved `known`.
#[derive(Clone, Copy)]
enum Delta {
    /// Points recorded into it (a receipt or a send).
    Recorded,
    /// Points a clock advance evicted from it.
    Evicted,
}

/// Per-sensor state of the distributed detection algorithms.
///
/// The host — the simulator adapter ([`crate::app`]), the loss-free
/// transport ([`crate::transport`]) or a test — drives the paper's event
/// loop:
///
/// 1. [`advance_time`](DetectorNode::advance_time) — slide the window,
/// 2. [`add_local_points`](DetectorNode::add_local_points) or
///    [`receive`](DetectorNode::receive) — apply the event,
/// 3. [`process`](DetectorNode::process) — compute the per-neighbour
///    sufficient points and obtain the broadcast packet `M` (if any),
/// 4. [`estimate`](DetectorNode::estimate) — read the node's current
///    outlier estimate.
#[derive(Clone)]
pub struct DetectorNode<R> {
    id: SensorId,
    ranking: R,
    n: usize,
    scope: Scope,
    window: SlidingWindow,
    /// Shared-knowledge sets, quiet memo, liveness and traffic counters.
    book: NeighborBook,
    /// The reusable sufficient-set evaluators ([`fresh_engines`]): one over
    /// the whole window for the global scope, one per hop prefix
    /// `P_i^{≤h}` for the hop scope. Each keeps its own index over its
    /// frame of the window, fed by the window notes, and its seed and
    /// support caches are keyed to `prefix_revision` (every frame is a pure
    /// function of `P_i^{≤d−1}`), so the per-neighbour fixed points of one
    /// protocol step — and of every later step at the same revision — share
    /// the seed and all support queries. The global engine's seed selection
    /// `O_n(P_i)` also serves [`DetectorNode::estimate`].
    engines: Vec<FixedPointEngine>,
    /// The forwarded-prefix revision: a counter that moves by one on every
    /// change to `P_i^{≤d−1}` (see the module docs). It starts at the
    /// window's revision, and in the global scope, where every window
    /// change is a prefix change, it stays equal to it. It is the chain of
    /// the engines' window notes and keys their seed and support caches and
    /// the quiet memo, all of which a restore starts cold, so a restored
    /// node sets it to its window's revision.
    prefix_revision: u64,
}

impl<R: RankingFunction> DetectorNode<R> {
    /// Creates the state for sensor `id`, reporting the top `n` outliers
    /// under `ranking` over a sliding window configured by `window`, within
    /// `hop_diameter` hops (`None`: the whole network).
    ///
    /// # Panics
    ///
    /// Panics if `n` or the hop diameter is zero — the paper's problem
    /// statement requires at least one outlier, and a zero-hop extent holds
    /// no neighbour's data.
    pub fn new(
        id: SensorId,
        ranking: R,
        n: usize,
        hop_diameter: Option<HopCount>,
        window: WindowConfig,
    ) -> Self {
        assert!(n > 0, "the number of reported outliers n must be at least 1");
        let scope = match hop_diameter {
            None => Scope::Global,
            Some(d) => {
                assert!(d > 0, "the hop diameter d must be at least 1");
                Scope::Hops(d)
            }
        };
        let window = SlidingWindow::new(window);
        DetectorNode {
            id,
            ranking,
            n,
            scope,
            prefix_revision: window.revision(),
            window,
            book: NeighborBook::default(),
            engines: fresh_engines(scope),
        }
    }

    /// Enables the staleness liveness timeout: a neighbour not heard from
    /// for more than `secs` seconds is presumed dead, its per-neighbour
    /// state (shared-knowledge set, ledger bookkeeping, fixed-point chains)
    /// is pruned, and it is excluded from processing until it speaks again —
    /// at which point it re-syncs from scratch, like a brand-new neighbour.
    pub fn with_liveness_timeout(mut self, secs: f64) -> Self {
        self.book.set_liveness_timeout(secs);
        self
    }

    /// The spatial extent of detection.
    pub fn scope(&self) -> Scope {
        self.scope
    }

    /// The ranking function in use.
    pub fn ranking(&self) -> &R {
        &self.ranking
    }

    /// Whether this node currently retains any per-neighbour protocol state
    /// for `neighbor` (diagnostics: the churn tests assert dead neighbours
    /// leak nothing).
    pub fn shares_state_with(&self, neighbor: SensorId) -> bool {
        self.book.tracks(neighbor) || self.engines.iter().any(|e| e.tracks_neighbor(neighbor))
    }

    /// Whether the liveness timeout has aged `neighbor` out.
    pub fn presumes_dead(&self, neighbor: SensorId) -> bool {
        self.book.presumes_dead(neighbor)
    }

    /// Total data points this node has put on the air so far.
    pub fn points_sent(&self) -> u64 {
        self.book.points_sent()
    }

    /// Total data points this node has accepted from neighbours so far.
    pub fn points_received(&self) -> u64 {
        self.book.points_received()
    }

    /// The points this node knows it shares with `neighbor`
    /// (`D^i_{i,j} ∪ D^i_{j,i}`, at the minimum hop counts they were
    /// exchanged at). The returned set shares the stored points.
    pub fn known_common_with(&self, neighbor: SensorId) -> PointSet {
        self.book.known(neighbor).cloned().unwrap_or_default()
    }

    /// The hop diameter `d`; `None` in the global scope.
    fn hop_diameter(&self) -> Option<HopCount> {
        match self.scope {
            Scope::Global => None,
            Scope::Hops(d) => Some(d),
        }
    }

    fn merge(&self) -> Merge {
        match self.scope {
            Scope::Global => Merge::FirstCopy,
            Scope::Hops(_) => Merge::MinHop,
        }
    }

    /// Whether `point`, held in the window, lies in the forwarded prefix
    /// `P_i^{≤d−1}` (every point does in the global scope).
    fn forwards(&self, point: &DataPoint) -> bool {
        match self.scope {
            Scope::Global => true,
            Scope::Hops(d) => point.hop < d,
        }
    }

    /// Inserts `point` into the window. If the point lands in the forwarded
    /// prefix, the forwarded-prefix revision moves and every engine is told
    /// of the insertion, so its index over its frame follows the window.
    fn insert_into_window(&mut self, point: &Arc<DataPoint>) -> bool {
        let inserted = self.window.insert_arc(Arc::clone(point));
        // A copy at hop d never changes the prefix: min-hop insertion never
        // lets it replace a lower-hop copy.
        if inserted && self.forwards(point) {
            self.prefix_revision = self.prefix_revision.wrapping_add(1);
            for engine in &mut self.engines {
                engine.note_window_point(&self.ranking, point, self.prefix_revision);
            }
        }
        inserted
    }

    /// Slides the window to `now`. If a prefix point left, the
    /// forwarded-prefix revision moves and every engine is told of the
    /// evicted points, so its index over its frame follows the slide.
    fn advance_window(&mut self, now: Timestamp) {
        let evicted = self.window.advance_to(now);
        if evicted.iter().any(|p| self.forwards(p)) {
            self.prefix_revision = self.prefix_revision.wrapping_add(1);
            for engine in &mut self.engines {
                engine.note_window_evictions(&self.ranking, &evicted, self.prefix_revision);
            }
        }
    }

    /// Forwards a shared-knowledge delta the book just made to every
    /// engine; each takes the points in its frame, and its sync chain
    /// follows the bookkeeping revision either way.
    fn note_shared(
        &mut self,
        neighbor: SensorId,
        points: &[Arc<DataPoint>],
        revision: u64,
        delta: Delta,
    ) {
        for engine in &mut self.engines {
            match delta {
                Delta::Recorded => engine.note_shared_points(neighbor, points, revision),
                Delta::Evicted => {
                    engine.note_evicted_points(&self.ranking, neighbor, points, revision)
                }
            }
        }
    }

    /// `Z_j \ known` for neighbour `j` (the points still to send), at the
    /// memo key `state`.
    fn batch_for(&mut self, j: SensorId, pi: &PointSet, state: (u64, u64)) -> Vec<Arc<DataPoint>> {
        let empty = PointSet::new();
        let known = self.book.known(j).unwrap_or(&empty);
        if self.scope == Scope::Global {
            let z = self.engines[0].sufficient_set(&self.ranking, self.n, pi, j, known, state);
            return z.difference(known).iter_arcs().cloned().collect();
        }
        // Per-prefix sufficient sets, hop-incremented and min-merged. The
        // hop increment necessarily materialises a fresh copy of each
        // forwarded point; every set below shares those copies.
        let mut z = PointSet::new();
        for engine in &mut self.engines {
            let z_h = engine.sufficient_set(&self.ranking, self.n, pi, j, known, state);
            for p in z_h.iter() {
                z.insert_min_hop(p.with_incremented_hop());
            }
        }
        // Suppress points the neighbour already holds at an equal or
        // smaller hop count.
        z.iter_arcs()
            .filter(|x| known.get(&x.key).map_or(true, |y| x.hop < y.hop))
            .cloned()
            .collect()
    }

    /// Serializes this node's canonical protocol state (§5: the window
    /// `P_i` and the shared-knowledge sets) for [`crate::persist`]:
    /// configuration, window and the neighbour book. Everything derived from
    /// it (the engines' window states, chains and caches, the quiet memo and
    /// the revisions that key them) is not included —
    /// [`DetectorNode::persist_restore`] starts it cold, with identical
    /// outputs.
    pub fn persist_snapshot(&self) -> JsonValue {
        let mut table = PointTable::new();
        let window = persist::snapshot_window(&self.window, &mut table);
        let book = self.book.persist_snapshot(&mut table);
        JsonValue::Object(vec![
            ("kind".into(), JsonValue::from("detector")),
            ("id".into(), JsonValue::from(self.id.raw())),
            ("n".into(), JsonValue::from(self.n)),
            ("hop_diameter".into(), persist::opt_u64_to_json(self.hop_diameter().map(u64::from))),
            ("window".into(), window),
            ("book".into(), book),
            table.into_field(),
        ])
    }

    /// Installs a [`DetectorNode::persist_snapshot`] into this node. The
    /// node must already be configured identically to the snapshotted one
    /// (same id, `n`, scope, window length and liveness timeout) —
    /// mismatches are refused, not papered over.
    ///
    /// # Errors
    ///
    /// [`PersistError::Schema`] for malformed dumps,
    /// [`PersistError::Corrupt`] for inconsistent ones (a window point
    /// behind its cutoff),
    /// [`PersistError::Mismatch`] when the snapshot belongs to a different
    /// node or configuration. On error the node is left untouched.
    pub fn persist_restore(&mut self, dump: &JsonValue) -> Result<(), PersistError> {
        persist::expect_kind(dump, "detector")?;
        let id = persist::u32_field(dump, "id")?;
        if id != self.id.raw() {
            return Err(PersistError::Mismatch(format!(
                "snapshot is for sensor {id}, restoring into sensor {}",
                self.id.raw()
            )));
        }
        let n = persist::usize_field(dump, "n")?;
        if n != self.n {
            return Err(PersistError::Mismatch(format!(
                "snapshot reports top-{n}, this node reports top-{}",
                self.n
            )));
        }
        let hop_diameter = persist::opt_u64_field(dump, "hop_diameter")?;
        if hop_diameter != self.hop_diameter().map(u64::from) {
            return Err(PersistError::Mismatch(format!(
                "snapshot hop diameter is {hop_diameter:?}, this node's is {:?}",
                self.hop_diameter()
            )));
        }
        let mut rows = PointRows::of(dump)?;
        let window = persist::restore_window(persist::field(dump, "window")?, &mut rows)?;
        if window.config().length_micros != self.window.config().length_micros {
            return Err(PersistError::Mismatch(format!(
                "snapshot window is {}µs long, this node's is {}µs",
                window.config().length_micros,
                self.window.config().length_micros
            )));
        }
        let book = self.book.restored(persist::field(dump, "book")?, &mut rows)?;
        self.prefix_revision = window.revision();
        self.window = window;
        self.book = book;
        self.engines = fresh_engines(self.scope);
        Ok(())
    }

    /// The sensor this node runs on.
    pub fn id(&self) -> SensorId {
        self.id
    }

    /// The number of outliers `n` being computed.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Incorporates freshly sampled local observations (the paper's
    /// "`D_i` changes" event). Each point is reset to hop count 0.
    pub fn add_local_points(&mut self, points: Vec<DataPoint>) {
        for mut p in points {
            p.hop = 0; // points are born at their origin
            self.insert_into_window(&Arc::new(p));
        }
    }

    /// Incorporates points received from the single-hop neighbour `from`
    /// (the paper's "message received" event).
    pub fn receive(&mut self, from: SensorId, points: Vec<DataPoint>) {
        self.receive_arcs(from, points.into_iter().map(Arc::new).collect());
    }

    /// [`receive`](DetectorNode::receive) for points already behind shared
    /// handles — the zero-copy path the transports feed broadcast payloads
    /// through, so a delivered point shares one allocation with the
    /// sender's window and every other receiver.
    pub fn receive_arcs(&mut self, from: SensorId, mut points: Vec<Arc<DataPoint>>) {
        self.book.heard_from(from);
        if let Scope::Hops(d) = self.scope {
            // A copy that travelled farther than the spatial extent can
            // never influence this node's result; ignore it outright.
            points.retain(|p| p.hop <= d);
        }
        // The bookkeeping set, the window and the sender's copy all share
        // one allocation.
        for p in &points {
            if self.insert_into_window(p) {
                self.book.count_received();
            }
        }
        // Record that the neighbour holds these points whether or not they
        // are new to us; both facts suppress future redundant sends. Hand
        // the engines the exact delta so their cached hypothetical sets
        // follow the bookkeeping revision without re-scans.
        let merge = self.merge();
        if let Some(revision) = self.book.record(from, &mut points, merge) {
            self.note_shared(from, &points, revision, Delta::Recorded);
        }
    }

    /// Advances the sliding-window clock to `now`, evicting points that have
    /// fallen out of the window everywhere they are tracked (§5.3).
    pub fn advance_time(&mut self, now: Timestamp) {
        self.advance_window(now);
        let cutoff = self.window.config().cutoff(now);
        for (j, evicted, revision) in self.book.advance_time(now, cutoff, &mut self.engines) {
            self.note_shared(j, &evicted, revision, Delta::Evicted);
        }
    }

    /// Forgets every neighbour **not** in `live` — the self-healing reaction
    /// to a neighbourhood change (a neighbour died or moved out of range).
    /// All per-neighbour protocol state for the departed — shared-knowledge
    /// sets, revision bookkeeping, fixed-point chains — is dropped, so no
    /// dead neighbour pins window points or suppresses convergence over the
    /// surviving live set.
    pub fn retain_neighbors(&mut self, live: &[SensorId]) {
        self.book.retain(live, &mut self.engines);
    }

    /// Reacts to the most recent event: computes, for every current
    /// neighbour, the sufficient points not yet known to be shared, records
    /// them as sent, and returns the combined broadcast packet. Returns
    /// `None` when no neighbour needs anything (the local termination
    /// condition of §5).
    pub fn process(&mut self, neighbors: &[SensorId]) -> Option<OutlierBroadcast> {
        // A zero-copy snapshot of P_i: the window is read, never cloned, and
        // each engine takes its own frame of it. Every input `batch_for`
        // reads from the window lies in the forwarded prefix, so its
        // revision keys the engines' caches and the quiet memo; in the
        // global scope it is the window's.
        let pi = self.window.snapshot();
        let revision = self.prefix_revision;
        debug_assert!(self.scope != Scope::Global || revision == self.window.revision());
        let merge = self.merge();
        let mut message = OutlierBroadcast::new();
        for &j in neighbors {
            if j == self.id || !self.book.contact(j) {
                continue;
            }
            let state = self.book.state(j, revision);
            if self.book.is_quiet(j, state) {
                // Neither the forwarded prefix nor the shared-knowledge set
                // for j changed since the last (empty) computation: same
                // inputs, same nothing-to-send outcome.
                continue;
            }
            let mut batch = self.batch_for(j, &pi, state);
            if batch.is_empty() {
                self.book.mark_quiet(j, state);
                continue;
            }
            // Recording the send moves the neighbour's revision on, so the
            // cached quiet state (if any) is stale by key. The sent points
            // are already inside the engines' hypothetical sets (they came
            // out of Z), so the note merely rolls their sync forward.
            let known_revision = self.book.record_sent(j, &mut batch, merge);
            self.note_shared(j, &batch, known_revision, Delta::Recorded);
            crate::telemetry::POINTS_BROADCAST.add(batch.len() as u64);
            crate::telemetry::NEIGHBOR_BATCH_POINTS.record(batch.len() as u64);
            message.add_entry_arcs(j, batch);
        }
        if message.is_empty() {
            None
        } else {
            Some(message)
        }
    }

    /// The node's current outlier estimate, `O_n(P_i)`.
    ///
    /// In the global scope the answer is read from the fixed-point engine,
    /// which already selected `O_n(P_i)` for the seed of the last
    /// [`process`](DetectorNode::process) call and keeps its ranks current
    /// ([`FixedPointEngine::own_outliers`]) — whenever that selection was
    /// made at the window's current revision. Otherwise (a window changed
    /// since the last `process`, a node restored or never processed, and
    /// every hop-scope node, whose engines cover only the prefixes
    /// `P_i^{≤h}` with `h < d`) it is computed from the window with
    /// [`top_n_outliers`]. The two paths return identical estimates.
    pub fn estimate(&self) -> OutlierEstimate {
        if self.scope == Scope::Global {
            if let Some(served) = self.engines[0].own_outliers(self.window.revision()) {
                return served;
            }
        }
        crate::telemetry::ESTIMATE_FALLBACKS.add(1);
        // Receipt drops copies beyond the hop diameter and local points are
        // hop 0, so the window is exactly the in-scope data.
        top_n_outliers(&self.ranking, self.n, self.window.contents())
    }

    /// The points the node currently holds (`P_i`).
    pub fn held_points(&self) -> &PointSet {
        self.window.contents()
    }
}

/// The engines a node of `scope` ranks through: one over the whole window
/// in the global scope, one per hop prefix `P_i^{≤h}`, `h < d`, in the hop
/// scope.
fn fresh_engines(scope: Scope) -> Vec<FixedPointEngine> {
    match scope {
        Scope::Global => vec![FixedPointEngine::new()],
        Scope::Hops(d) => (0..d).map(FixedPointEngine::within_hops).collect(),
    }
}

impl<R> fmt::Debug for DetectorNode<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DetectorNode(id={}, n={}, scope={:?})", self.id, self.n, self.scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::run_to_quiescence;
    use std::collections::BTreeMap;
    use wsn_data::Epoch;
    use wsn_ranking::{KnnAverageDistance, NnDistance};

    /// The global scope and a two-hop scope: the behaviours both share run
    /// under each.
    const SCOPES: [Option<HopCount>; 2] = [None, Some(2)];

    fn pt(origin: u32, epoch: u64, v: f64) -> DataPoint {
        DataPoint::new(SensorId(origin), Epoch(epoch), Timestamp::from_secs(1), vec![v]).unwrap()
    }

    fn window() -> WindowConfig {
        WindowConfig::from_secs(1_000).unwrap()
    }

    fn node(id: u32, scope: Option<HopCount>) -> DetectorNode<NnDistance> {
        DetectorNode::new(SensorId(id), NnDistance, 1, scope, window())
    }

    fn section_5_1_nodes(a: u64, b: u64) -> (DetectorNode<NnDistance>, DetectorNode<NnDistance>) {
        let mut pi = node(1, None);
        let mut di = vec![0.5, 3.0, 6.0];
        di.extend((10..=a).map(|v| v as f64));
        pi.add_local_points(di.iter().enumerate().map(|(e, v)| pt(1, e as u64, *v)).collect());

        let mut pj = node(2, None);
        let mut dj = vec![4.0, 5.0, 7.0, 8.0, 9.0];
        dj.extend((a + 1..=a + b).map(|v| v as f64));
        pj.add_local_points(dj.iter().enumerate().map(|(e, v)| pt(2, e as u64, *v)).collect());
        (pi, pj)
    }

    /// Runs the two-node exchange until neither node has anything to send,
    /// returning the number of data points exchanged.
    fn run_two_nodes<R: RankingFunction>(
        pi: &mut DetectorNode<R>,
        pj: &mut DetectorNode<R>,
    ) -> u64 {
        let adjacency = BTreeMap::from([(pi.id(), vec![pj.id()]), (pj.id(), vec![pi.id()])]);
        run_to_quiescence([pi, pj], &adjacency).points
    }

    /// Builds a chain of `count` nodes with the given scope; node `i` holds a
    /// small cluster around `10 * i`.
    fn chain(count: u32, scope: Option<HopCount>) -> Vec<DetectorNode<NnDistance>> {
        (0..count)
            .map(|i| {
                let mut node = node(i, scope);
                let base = 10.0 * i as f64;
                node.add_local_points((0..4).map(|e| pt(i, e, base + e as f64 * 0.1)).collect());
                node
            })
            .collect()
    }

    /// One synchronous round: every node processes against its chain
    /// neighbours and delivers its broadcast. Returns whether anyone sent.
    /// It keeps its own loop because its callers stop mid-protocol.
    fn chain_round(nodes: &mut [DetectorNode<NnDistance>]) -> bool {
        let mut progress = false;
        for idx in 0..nodes.len() {
            let neighbors: Vec<SensorId> = [idx.wrapping_sub(1), idx + 1]
                .iter()
                .filter_map(|&i| nodes.get(i).map(|n| n.id()))
                .collect();
            if let Some(m) = nodes[idx].process(&neighbors) {
                progress = true;
                let from = nodes[idx].id();
                for (nb, node) in nodes.iter_mut().enumerate() {
                    let pts = m.points_for(node.id());
                    if nb != idx && !pts.is_empty() {
                        node.receive(from, pts);
                    }
                }
            }
        }
        progress
    }

    /// Runs the chain protocol until no node has anything to send.
    fn run_chain(nodes: &mut [DetectorNode<NnDistance>]) {
        let last = nodes.len() as u32 - 1;
        let adjacency = (0..=last)
            .map(|i| {
                let neighbors = [i.checked_sub(1), (i < last).then_some(i + 1)];
                (SensorId(i), neighbors.into_iter().flatten().map(SensorId).collect())
            })
            .collect();
        run_to_quiescence(nodes, &adjacency);
    }

    #[test]
    fn constructor_validates_parameters() {
        for scope in SCOPES {
            let zero_n = std::panic::catch_unwind(|| {
                DetectorNode::new(SensorId(1), NnDistance, 0, scope, window())
            });
            assert!(zero_n.is_err());
        }
        assert!(std::panic::catch_unwind(|| node(1, Some(0))).is_err());
        let node = DetectorNode::new(SensorId(1), NnDistance, 2, Some(3), window());
        assert_eq!(node.scope(), Scope::Hops(3));
        assert_eq!(node.n(), 2);
        assert_eq!(node.id(), SensorId(1));
        assert_eq!(self::node(1, None).scope(), Scope::Global);
    }

    #[test]
    fn section_5_1_converges_to_the_correct_outlier() {
        let (mut pi, mut pj) = section_5_1_nodes(20, 15);
        assert_eq!(pi.estimate().points()[0].features, vec![6.0]);
        let exchanged = run_two_nodes(&mut pi, &mut pj);
        // Both nodes agree on the correct global answer {0.5}.
        assert_eq!(pi.estimate().points()[0].features, vec![0.5]);
        assert_eq!(pj.estimate().points()[0].features, vec![0.5]);
        assert!(pi.estimate().same_outliers_as(&pj.estimate()));
        // Far less data moved than the centralized min{a-6, b+5} = 14 points.
        assert!(exchanged <= 8, "exchanged {exchanged} points");
        assert!(pi.points_sent() + pj.points_sent() == exchanged);
    }

    #[test]
    fn communication_is_proportional_to_outliers_not_data_size() {
        // Quadrupling the bulk of the data barely changes the exchange size.
        let (mut pi_small, mut pj_small) = section_5_1_nodes(20, 15);
        let small = run_two_nodes(&mut pi_small, &mut pj_small);
        let (mut pi_big, mut pj_big) = section_5_1_nodes(80, 60);
        let big = run_two_nodes(&mut pi_big, &mut pj_big);
        assert!(big <= small + 2, "big exchange {big} vs small {small}");
        // Centralizing would instead have cost min{a−6, b+5} = 65 points.
        assert!(big < 20);
    }

    #[test]
    fn termination_means_no_node_wants_to_send() {
        let (mut pi, mut pj) = section_5_1_nodes(15, 10);
        run_two_nodes(&mut pi, &mut pj);
        assert!(pi.process(&[SensorId(2)]).is_none());
        assert!(pj.process(&[SensorId(1)]).is_none());
    }

    #[test]
    fn supports_agree_at_termination_theorem_1() {
        let (mut pi, mut pj) = section_5_1_nodes(20, 15);
        run_two_nodes(&mut pi, &mut pj);
        let est_i = pi.estimate();
        let est_j = pj.estimate();
        assert!(est_i.same_outliers_as(&est_j));
        // The supports over each node's holdings also agree (Theorem 1 (ii)).
        let support_i = wsn_ranking::function::support_of_set(
            pi.ranking(),
            pi.held_points(),
            &est_i.to_point_set(),
        );
        let support_j = wsn_ranking::function::support_of_set(
            pj.ranking(),
            pj.held_points(),
            &est_j.to_point_set(),
        );
        assert_eq!(support_i, support_j);
    }

    #[test]
    fn works_with_knn_ranking_and_larger_n() {
        let w = window();
        let mut a = DetectorNode::new(SensorId(1), KnnAverageDistance::new(2), 2, None, w);
        let mut b = DetectorNode::new(SensorId(2), KnnAverageDistance::new(2), 2, None, w);
        a.add_local_points((0..20).map(|e| pt(1, e, 50.0 + e as f64 * 0.1)).collect());
        a.add_local_points(vec![pt(1, 100, 0.0)]);
        b.add_local_points((0..20).map(|e| pt(2, e, 52.0 + e as f64 * 0.1)).collect());
        b.add_local_points(vec![pt(2, 100, 200.0)]);

        let exchanged = run_two_nodes(&mut a, &mut b);
        // The two injected extremes are the agreed global top-2.
        let estimate = a.estimate();
        assert!(estimate.same_outliers_as(&b.estimate()));
        let values: Vec<f64> = estimate.points().iter().map(|p| p.features[0]).collect();
        assert!(values.contains(&0.0));
        assert!(values.contains(&200.0));
        assert!(exchanged < 20);
    }

    #[test]
    fn receive_records_points_even_if_already_held() {
        let mut node = node(1, None);
        let shared = pt(1, 0, 5.0);
        node.add_local_points(vec![shared.clone(), pt(1, 1, 6.0)]);
        node.receive(SensorId(2), vec![shared.clone()]);
        // The point was already held, so it does not count as new data …
        assert_eq!(node.points_received(), 0);
        // … but the node now knows the neighbour has it.
        assert!(node.known_common_with(SensorId(2)).contains(&shared));
        assert!(node.known_common_with(SensorId(3)).is_empty());
    }

    #[test]
    fn window_eviction_cleans_all_bookkeeping() {
        for scope in SCOPES {
            let short = WindowConfig::from_secs(10).unwrap();
            let mut node = DetectorNode::new(SensorId(1), NnDistance, 1, scope, short);
            node.add_local_points(vec![pt(1, 0, 1.0)]);
            // A first exchange creates the engines' chains, so the receipt
            // below reaches them as delta notes.
            let _ = node.process(&[SensorId(2)]);
            let old = Arc::new(pt(2, 0, 2.0).with_hop(1));
            node.receive_arcs(SensorId(2), vec![Arc::clone(&old)]);
            assert!(node.known_common_with(SensorId(2)).contains(&old));
            let _ = node.process(&[SensorId(2)]);
            let chains_hold_it =
                node.engines.iter().any(|engine| engine.chain_holds(SensorId(2), &old.key));
            assert!(chains_hold_it, "{scope:?}: a chain holds the received point");
            node.advance_time(Timestamp::from_secs(100));
            assert!(node.held_points().is_empty(), "{scope:?}");
            assert!(node.known_common_with(SensorId(2)).is_empty(), "{scope:?}");
            // Nothing else keeps the evicted point alive: not the chains'
            // indexes, rank bounds, outlier order or pending insertions,
            // and not the engines' window states.
            let _ = node.process(&[SensorId(2)]);
            assert_eq!(Arc::strong_count(&old), 1, "{scope:?}: only the test handle remains");
        }
    }

    #[test]
    fn processing_with_no_neighbors_or_no_data_sends_nothing() {
        let mut node = node(1, None);
        assert!(node.process(&[]).is_none());
        assert!(node.process(&[SensorId(2)]).is_none());
        node.add_local_points(vec![pt(1, 0, 1.0)]);
        // A single point is its own estimate; the neighbour needs to know.
        assert!(node.process(&[SensorId(2)]).is_some());
        // Self is never a recipient.
        assert!(node.process(&[SensorId(1)]).is_none());
    }

    #[test]
    fn repeated_processing_without_new_events_is_idempotent() {
        let mut node = node(1, None);
        node.add_local_points((0..10).map(|e| pt(1, e, e as f64)).collect());
        let first = node.process(&[SensorId(2)]);
        assert!(first.is_some());
        // Everything sufficient has been recorded as sent: nothing new to say.
        assert!(node.process(&[SensorId(2)]).is_none());
        // A new neighbour, however, still needs the same points.
        assert!(node.process(&[SensorId(3)]).is_some());
    }

    #[test]
    fn dead_neighbor_state_is_pruned_and_pins_no_points() {
        for scope in SCOPES {
            let mut node = node(1, scope);
            node.add_local_points((0..4).map(|e| pt(1, e, e as f64 * 0.1)).collect());
            let shared = Arc::new(pt(2, 0, 500.0).with_hop(1));
            node.receive_arcs(SensorId(2), vec![Arc::clone(&shared)]);
            // Run one exchange round so per-neighbour engine state exists too.
            let _ = node.process(&[SensorId(2)]);
            assert!(node.shares_state_with(SensorId(2)));

            // The neighbour dies. Without pruning, the engines' cached
            // fixed-point state would pin its points beyond the window
            // lifetime.
            node.retain_neighbors(&[]);
            assert!(!node.shares_state_with(SensorId(2)), "{scope:?}: all state dropped");
            // Flush the window so the held copy is evicted as well, then run
            // one protocol step against a live neighbour: that rolls the
            // engines' revision-scoped caches forward. The dead
            // neighbour's hypothetical-set state would survive that roll —
            // only the explicit prune above removes it.
            node.advance_time(Timestamp::from_secs(5_000));
            let _ = node.process(&[SensorId(3)]);
            assert_eq!(Arc::strong_count(&shared), 1, "{scope:?}: only the test handle remains");
        }
    }

    #[test]
    fn retain_neighbors_keeps_live_neighbors_untouched() {
        for scope in SCOPES {
            let mut node = node(1, scope);
            node.add_local_points(vec![pt(1, 0, 1.0)]);
            node.receive(SensorId(2), vec![pt(2, 0, 5.0).with_hop(1)]);
            node.receive(SensorId(3), vec![pt(3, 0, 6.0).with_hop(1)]);
            node.retain_neighbors(&[SensorId(3)]);
            assert!(!node.shares_state_with(SensorId(2)), "{scope:?}: dead neighbour pruned");
            assert!(node.known_common_with(SensorId(2)).is_empty());
            assert!(node.shares_state_with(SensorId(3)), "{scope:?}: live neighbour survives");
            assert!(!node.known_common_with(SensorId(3)).is_empty());
        }
    }

    #[test]
    fn silent_neighbors_age_out_and_resync_on_return() {
        for scope in SCOPES {
            let mut node = node(1, scope).with_liveness_timeout(30.0);
            node.advance_time(Timestamp::from_secs(1));
            node.add_local_points(vec![pt(1, 0, 1.0), pt(1, 1, 5.0)]);
            // A contact attempt starts the liveness clock for the silent peer.
            assert!(node.process(&[SensorId(2)]).is_some());
            // The neighbour never answers: past the timeout it is presumed
            // dead and its bookkeeping is gone.
            node.advance_time(Timestamp::from_secs(40));
            assert!(node.presumes_dead(SensorId(2)), "{scope:?}");
            assert!(!node.shares_state_with(SensorId(2)));
            assert!(node.process(&[SensorId(2)]).is_none(), "presumed-dead neighbours are skipped");
            // …until it speaks again, at which point it re-syncs from scratch.
            node.receive(SensorId(2), vec![pt(2, 9, 7.0).with_hop(1)]);
            assert!(!node.presumes_dead(SensorId(2)));
            assert!(node.process(&[SensorId(2)]).is_some(), "the returned neighbour is re-synced");
        }
    }

    #[test]
    fn liveness_timeout_off_never_presumes_death() {
        for scope in SCOPES {
            let mut node = node(1, scope);
            node.advance_time(Timestamp::from_secs(1));
            node.add_local_points(vec![pt(1, 0, 1.0)]);
            let _ = node.process(&[SensorId(2)]);
            node.advance_time(Timestamp::from_secs(900));
            assert!(!node.presumes_dead(SensorId(2)), "{scope:?}: default behaviour is unchanged");
        }
    }

    /// The keys of an object dump, in order.
    fn field_names(dump: &JsonValue) -> Vec<&str> {
        let JsonValue::Object(fields) = dump else { panic!("a dump is an object") };
        fields.iter().map(|(key, _)| key.as_str()).collect()
    }

    #[test]
    fn persist_snapshot_round_trips_mid_protocol() {
        for scope in SCOPES {
            let mut nodes = chain(3, scope);
            nodes[0].add_local_points(vec![pt(0, 99, -500.0)]);
            // A couple of exchange rounds leaves live per-neighbour state in
            // every engine.
            chain_round(&mut nodes);
            chain_round(&mut nodes);
            let dump = nodes[1].persist_snapshot();
            // The dump holds canonical state only: no chain, memo or
            // revision that restore can rebuild.
            assert_eq!(
                field_names(&dump),
                ["kind", "id", "n", "hop_diameter", "window", "book", "table"],
                "{scope:?}"
            );
            assert_eq!(
                field_names(dump.get("book").unwrap()),
                [
                    "liveness_timeout_secs",
                    "shared_with",
                    "last_now",
                    "last_heard",
                    "presumed_dead",
                    "points_sent",
                    "points_received"
                ],
                "{scope:?}"
            );
            let mut fresh = node(1, scope);
            fresh.persist_restore(&dump).unwrap();
            assert_eq!(fresh.persist_snapshot(), dump, "{scope:?}: restore is lossless");
            assert_eq!(
                fresh.process(&[SensorId(0), SensorId(2)]),
                nodes[1].process(&[SensorId(0), SensorId(2)]),
                "{scope:?}: the restored node continues identically"
            );
            assert!(fresh.estimate().same_outliers_as(&nodes[1].estimate()));
            // A differently configured node refuses the snapshot.
            let other_scope = match scope {
                None => Some(2),
                Some(d) => Some(d + 1),
            };
            for mut other in [
                node(9, scope),
                DetectorNode::new(SensorId(1), NnDistance, 2, scope, window()),
                node(1, other_scope),
                node(1, scope).with_liveness_timeout(5.0),
            ] {
                assert!(matches!(other.persist_restore(&dump), Err(PersistError::Mismatch(_))));
            }
        }
    }

    /// The forwarded-prefix revision moves exactly when `P_i^{≤d−1}` does:
    /// on inserts at hop `< d`, lower-hop replacements included, and on
    /// slides that evict a hop-`< d` point, but not on a receipt or an
    /// eviction of hop-`d` copies alone. In the global scope it is the
    /// window revision.
    #[test]
    fn the_forwarded_prefix_revision_moves_only_with_the_prefix() {
        let at = |origin: u32, epoch: u64, secs: u64, hop: HopCount| {
            let p = DataPoint::new(
                SensorId(origin),
                Epoch(epoch),
                Timestamp::from_secs(secs),
                vec![epoch as f64],
            );
            p.unwrap().with_hop(hop)
        };
        let short = WindowConfig::from_secs(10).unwrap();
        let mut node = DetectorNode::new(SensorId(1), NnDistance, 1, Some(2), short);
        assert_eq!(node.prefix_revision, node.window.revision());
        let moved = |node: &mut DetectorNode<NnDistance>, step: &dyn Fn(&mut DetectorNode<_>)| {
            let (window, prefix) = (node.window.revision(), node.prefix_revision);
            step(node);
            assert_ne!(node.window.revision(), window, "every step changes the window");
            node.prefix_revision != prefix
        };
        assert!(moved(&mut node, &|n| n.add_local_points(vec![at(1, 0, 5, 0)])));
        assert!(!moved(&mut node, &|n| n.receive(SensorId(2), vec![at(5, 0, 5, 2)])));
        assert!(moved(&mut node, &|n| n.receive(SensorId(2), vec![at(4, 0, 5, 1)])));
        assert!(moved(&mut node, &|n| n.receive(SensorId(3), vec![at(5, 0, 5, 1)])), "hop 2 → 1");
        assert!(!moved(&mut node, &|n| n.receive(SensorId(3), vec![at(6, 0, 3, 2)])));
        // t = 14: only the hop-2 copy sampled at t = 3 leaves; t = 20 takes
        // the local point and the hop-1 copies.
        assert!(!moved(&mut node, &|n| n.advance_time(Timestamp::from_secs(14))));
        assert!(moved(&mut node, &|n| n.advance_time(Timestamp::from_secs(20))));

        let mut global = self::node(1, None);
        global.add_local_points(vec![pt(1, 0, 1.0)]);
        global.receive(SensorId(2), vec![pt(2, 0, 2.0).with_hop(1)]);
        assert_eq!(global.prefix_revision, global.window.revision());
    }

    /// A receipt at hop `d` leaves every other neighbour's quiet memo
    /// valid: what this node would send them has not changed.
    #[test]
    fn a_receipt_at_hop_d_keeps_other_neighbours_quiet() {
        let mut node = node(1, Some(1));
        node.add_local_points((0..4).map(|e| pt(1, e, e as f64)).collect());
        let neighbors = [SensorId(2), SensorId(3)];
        assert!(node.process(&neighbors).is_some());
        assert!(node.process(&neighbors).is_none(), "everything sufficient was sent");
        node.receive(SensorId(2), vec![pt(2, 0, 1.5).with_hop(1)]);
        let revision = node.prefix_revision;
        assert!(node.book.is_quiet(SensorId(3), node.book.state(SensorId(3), revision)));
        assert!(!node.book.is_quiet(SensorId(2), node.book.state(SensorId(2), revision)));
        assert!(node.process(&neighbors).is_none(), "a hop-1 point is never forwarded at d = 1");
    }

    #[test]
    fn a_restored_node_shares_one_allocation_per_copy_across_its_sets() {
        for scope in SCOPES {
            let mut nodes = chain(3, scope);
            nodes[0].add_local_points(vec![pt(0, 99, -500.0)]);
            run_chain(&mut nodes);
            let dump = nodes[1].persist_snapshot();
            let rows = persist::array_field(&dump, "table").unwrap();
            assert_eq!(rows.len(), nodes[1].held_points().len(), "{scope:?}: a row per point");
            let mut fresh = node(1, scope);
            fresh.persist_restore(&dump).unwrap();
            // Every copy a neighbour's shared-knowledge set holds at the
            // window's hop is the very copy the window holds, as in the live
            // node, so one allocation serves every set that holds it.
            let mut shared = 0;
            for j in [SensorId(0), SensorId(2)] {
                let known = fresh.book.known(j).expect("both neighbours exchanged points");
                for k in known.iter_arcs() {
                    let Some(w) = fresh.window.contents().get_arc(&k.key) else { continue };
                    if w.hop == k.hop {
                        assert!(Arc::ptr_eq(w, k), "{scope:?}: {k}");
                        shared += 1;
                    }
                }
            }
            assert!(shared > 0, "{scope:?}: some point sits in the window and a shared set");
        }
    }

    #[test]
    fn local_points_are_reset_to_hop_zero() {
        let mut node = node(1, Some(2));
        node.add_local_points(vec![pt(1, 0, 5.0).with_hop(7)]);
        assert_eq!(node.held_points().iter().next().unwrap().hop, 0);
    }

    #[test]
    fn points_beyond_the_hop_diameter_are_ignored_on_receipt() {
        let mut node = node(1, Some(2));
        node.receive(SensorId(2), vec![pt(2, 0, 5.0).with_hop(3)]);
        assert!(node.held_points().is_empty());
        assert_eq!(node.points_received(), 0);
        node.receive(SensorId(2), vec![pt(2, 1, 5.0).with_hop(2)]);
        assert_eq!(node.points_received(), 1);
    }

    #[test]
    fn sent_points_carry_incremented_hops_bounded_by_d() {
        let mut node = node(1, Some(2));
        node.add_local_points((0..4).map(|e| pt(1, e, e as f64)).collect());
        node.receive(SensorId(3), vec![pt(3, 0, 100.0).with_hop(1)]);
        let m = node.process(&[SensorId(2)]).expect("something to send");
        for p in m.points_for(SensorId(2)) {
            assert!(p.hop >= 1, "forwarded copies have travelled at least one hop");
            assert!(p.hop <= 2, "no copy may claim more hops than the diameter");
        }
    }

    #[test]
    fn chain_with_d1_keeps_detection_local() {
        // Three nodes in a chain, d = 1: the ends never learn about each
        // other's data, so their estimates are based on at most their own and
        // the middle node's points.
        let mut nodes = chain(3, Some(1));
        // Give node 0 an extreme outlier.
        nodes[0].add_local_points(vec![pt(0, 99, -500.0)]);
        run_chain(&mut nodes);
        // Node 2 must not hold the far-away outlier: it lives two hops away.
        assert!(
            !nodes[2].held_points().iter().any(|p| p.features[0] == -500.0),
            "a d=1 node must never see data from two hops away"
        );
        // Node 1 (adjacent) does see it and reports it.
        assert_eq!(nodes[1].estimate().points()[0].features, vec![-500.0]);
    }

    #[test]
    fn chain_with_large_d_behaves_like_the_global_algorithm() {
        for scope in [Some(8), None] {
            let mut nodes = chain(4, scope);
            nodes[3].add_local_points(vec![pt(3, 99, 500.0)]);
            run_chain(&mut nodes);
            // Everybody agrees on the single global outlier at 500.
            for node in &nodes {
                assert_eq!(
                    node.estimate().points()[0].features,
                    vec![500.0],
                    "{scope:?}: node {} disagrees",
                    node.id()
                );
            }
        }
    }

    #[test]
    fn larger_hop_diameter_moves_more_points() {
        let mut local = chain(4, Some(1));
        run_chain(&mut local);
        let sent_local: u64 = local.iter().map(|n| n.points_sent()).sum();

        let mut wide = chain(4, Some(3));
        run_chain(&mut wide);
        let sent_wide: u64 = wide.iter().map(|n| n.points_sent()).sum();
        assert!(sent_wide > sent_local, "d=3 sent {sent_wide} points, d=1 sent {sent_local}");
    }

    #[test]
    fn known_common_tracks_minimum_hops() {
        let mut node = node(1, Some(3));
        node.receive(SensorId(2), vec![pt(3, 0, 5.0).with_hop(2)]);
        node.receive(SensorId(2), vec![pt(3, 0, 5.0).with_hop(1)]);
        let known = node.known_common_with(SensorId(2));
        assert_eq!(known.get(&pt(3, 0, 5.0).key).unwrap().hop, 1);
        assert!(node.known_common_with(SensorId(9)).is_empty());
    }

    #[test]
    fn estimate_only_uses_points_within_the_diameter() {
        let mut node = node(1, Some(2));
        node.add_local_points((0..4).map(|e| pt(1, e, e as f64 * 0.1)).collect());
        node.receive(SensorId(2), vec![pt(5, 0, 1000.0).with_hop(2)]);
        // The far value is within the diameter and dominates the estimate.
        assert_eq!(node.estimate().points()[0].features, vec![1000.0]);
        // A copy from beyond the diameter never reaches the estimate.
        node.receive(SensorId(2), vec![pt(6, 0, -1000.0).with_hop(3)]);
        assert_eq!(node.estimate().points()[0].features, vec![1000.0]);
    }
}
