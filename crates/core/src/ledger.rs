//! Per-neighbour bookkeeping of the detector node: the [`NeighborBook`].
//!
//! [`crate::node::DetectorNode`] keeps, for every single-hop neighbour `p_j`,
//! the points it knows `p_j` holds (`D^i_{i,j} ∪ D^i_{j,i}`), a revision
//! counter and "nothing to send" memo over them, liveness timestamps, and
//! traffic counters. All of it lives here, in one type that also persists
//! itself.
//!
//! The memo of [`crate::detector::OutlierDetector::process`] is keyed by
//! `(window revision, bookkeeping revision)` — the exact inputs of the
//! sufficient-set computation. It is safe only if **every** mutation of a
//! neighbour's shared-knowledge set bumps that neighbour's revision; a stale
//! memo would silently suppress a broadcast. The book enforces this by
//! construction: it is the only code that inserts into (or evicts from) a
//! shared-knowledge set, and each of those paths bumps the revision and
//! folds the conservative oldest-timestamp bound behind the O(1) eviction
//! gate.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::persist::{self, PersistError, PointRows, PointTable};
use crate::sufficient::FixedPointEngine;
use wsn_data::{DataPoint, PointSet, SensorId, Timestamp};
use wsn_json::JsonValue;

/// Telemetry ([`wsn_obs`]): quiet-memo lookups and the subset that hit —
/// every hit is one whole sufficient-set computation skipped.
static OBS_QUIET_QUERIES: wsn_obs::Counter = wsn_obs::Counter::new("ledger.quiet_queries");
static OBS_QUIET_HITS: wsn_obs::Counter = wsn_obs::Counter::new("ledger.quiet_hits");

/// The memo key pinning the inputs of one per-neighbour computation.
pub(crate) type LedgerState = (u64, u64);

/// How a recorded point merges into a shared-knowledge set that already
/// holds its observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Merge {
    /// Union semantics: the first copy wins (§5).
    FirstCopy,
    /// The lower hop count wins (§6's `[·]^min`).
    MinHop,
}

/// Everything a detector node knows about its neighbours: shared-knowledge
/// sets, the quiet memo over them, liveness, and traffic counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct NeighborBook {
    /// Per neighbour, the points this node knows the neighbour holds —
    /// `D^i_{i,j} ∪ D^i_{j,i}` (min-hop merged in the semi-global scope),
    /// maintained **incrementally**: every recorded send and every receipt
    /// inserts into it, window slides evict from it. The sufficient-set
    /// computation only ever reads the union, so the two directions live
    /// merged.
    shared_with: BTreeMap<SensorId, PointSet>,
    /// The smallest timestamp ever inserted into any shared-knowledge set
    /// and still possibly present (conservative: never later than the true
    /// minimum). Clock advances whose cutoff does not pass it skip the
    /// whole per-neighbour eviction sweep in O(1) — the common case, since
    /// every delivery advances the clock but only window slides evict.
    shared_oldest: Option<Timestamp>,
    /// Per-neighbour change counter of the shared-knowledge sets.
    revisions: BTreeMap<SensorId, u64>,
    /// The "nothing to send" memo: the `(window revision, bookkeeping
    /// revision)` at which the last computation for a neighbour produced
    /// nothing to send. While neither input changes, `process` skips that
    /// neighbour outright — the sufficient-set computation is a pure
    /// function of those inputs, so replaying the empty outcome is
    /// bit-identical. This is what keeps the post-convergence chatter
    /// (every delivery triggers a full process pass) from re-running one
    /// fixed point per neighbour per event.
    quiet_at: BTreeMap<SensorId, LedgerState>,
    /// Silence threshold in seconds after which a neighbour is presumed dead
    /// and its per-neighbour state pruned (`None` = disabled, the default —
    /// the paper assumes a static network).
    liveness_timeout_secs: Option<f64>,
    /// The clock of the most recent [`NeighborBook::advance_time`] — the
    /// node's notion of "now" for liveness bookkeeping.
    last_now: Timestamp,
    /// When each neighbour was last heard from (entry created at first
    /// receipt, or at the first send attempt so silent-from-the-start
    /// neighbours also age out). Maintained only while the timeout is on.
    last_heard: BTreeMap<SensorId, Timestamp>,
    /// Neighbours aged out by the timeout: skipped by `process` until they
    /// speak again, at which point they re-sync from scratch.
    presumed_dead: BTreeSet<SensorId>,
    points_sent: u64,
    points_received: u64,
}

impl NeighborBook {
    pub fn set_liveness_timeout(&mut self, secs: f64) {
        self.liveness_timeout_secs = Some(secs);
    }

    /// The points this node knows it shares with `neighbor`, if any were
    /// ever recorded.
    pub fn known(&self, neighbor: SensorId) -> Option<&PointSet> {
        self.shared_with.get(&neighbor)
    }

    /// Whether the book holds a shared-knowledge set or liveness entry for
    /// `neighbor`.
    pub fn tracks(&self, neighbor: SensorId) -> bool {
        self.shared_with.contains_key(&neighbor) || self.last_heard.contains_key(&neighbor)
    }

    pub fn presumes_dead(&self, neighbor: SensorId) -> bool {
        self.presumed_dead.contains(&neighbor)
    }

    pub fn points_sent(&self) -> u64 {
        self.points_sent
    }

    pub fn points_received(&self) -> u64 {
        self.points_received
    }

    /// Counts one point accepted into the window from a neighbour.
    pub fn count_received(&mut self) {
        self.points_received = self.points_received.saturating_add(1);
    }

    /// Receipt from `neighbor`: restarts its liveness clock and revives it
    /// if it was presumed dead.
    pub fn heard_from(&mut self, neighbor: SensorId) {
        if self.liveness_timeout_secs.is_some() {
            self.last_heard.insert(neighbor, self.last_now);
            self.presumed_dead.remove(&neighbor);
        }
    }

    /// A send attempt to `neighbor`: `false` if it is presumed dead (skip
    /// it). The first attempt starts its liveness clock, so a neighbour that
    /// never answers also ages out.
    pub fn contact(&mut self, neighbor: SensorId) -> bool {
        if self.presumed_dead.contains(&neighbor) {
            return false;
        }
        if self.liveness_timeout_secs.is_some() {
            self.last_heard.entry(neighbor).or_insert(self.last_now);
        }
        true
    }

    /// The memo key for `neighbor` at the given window revision.
    pub fn state(&self, neighbor: SensorId, window_revision: u64) -> LedgerState {
        (window_revision, self.revisions.get(&neighbor).copied().unwrap_or(0))
    }

    /// Returns `true` if the last computation at exactly this state produced
    /// nothing to send — same inputs, same (empty) outcome, skip the work.
    pub fn is_quiet(&self, neighbor: SensorId, state: LedgerState) -> bool {
        let quiet = self.quiet_at.get(&neighbor) == Some(&state);
        OBS_QUIET_QUERIES.add(1);
        if quiet {
            OBS_QUIET_HITS.add(1);
        }
        quiet
    }

    /// Records that the computation at `state` produced nothing to send.
    pub fn mark_quiet(&mut self, neighbor: SensorId, state: LedgerState) {
        self.quiet_at.insert(neighbor, state);
    }

    /// Records that `neighbor` holds `points` (received from it, or about to
    /// be sent to it). Points that change nothing — already known, or not at
    /// a lower hop under [`Merge::MinHop`] — are removed from `points`. If
    /// any remain, the neighbour's revision is bumped and the new revision
    /// returned, for the caller to forward the exact delta to its engines.
    pub fn record(
        &mut self,
        neighbor: SensorId,
        points: &mut Vec<Arc<DataPoint>>,
        merge: Merge,
    ) -> Option<u64> {
        let shared = self.shared_with.entry(neighbor).or_default();
        points.retain(|p| match merge {
            Merge::FirstCopy => shared.insert_arc(Arc::clone(p)),
            Merge::MinHop => shared.insert_min_hop_arc(Arc::clone(p)).changed(),
        });
        let oldest = points.iter().map(|p| p.timestamp).min()?;
        if !self.shared_oldest.is_some_and(|o| o <= oldest) {
            self.shared_oldest = Some(oldest);
        }
        Some(self.bump(neighbor))
    }

    /// Moves `neighbor`'s revision on, returning the new one. Revisions are
    /// only compared for equality, so they wrap rather than overflow.
    fn bump(&mut self, neighbor: SensorId) -> u64 {
        let revision = self.revisions.entry(neighbor).or_insert(0);
        *revision = revision.wrapping_add(1);
        *revision
    }

    /// Records a send of `batch` to `neighbor`: like [`NeighborBook::record`],
    /// but every point is new to the neighbour by construction (it came out
    /// of `Z_j` minus what the neighbour holds), so the batch is sent whole.
    pub fn record_sent(
        &mut self,
        neighbor: SensorId,
        batch: &mut Vec<Arc<DataPoint>>,
        merge: Merge,
    ) -> u64 {
        let len = batch.len();
        let revision = self.record(neighbor, batch, merge).expect("a send batch is never empty");
        debug_assert_eq!(batch.len(), len, "every sent point is new to the neighbour");
        self.points_sent = self.points_sent.saturating_add(len as u64);
        revision
    }

    /// Moves the clock to `now`: ages out neighbours silent for longer than
    /// the liveness timeout (pruning their state in `engines` too), then
    /// evicts every shared-knowledge point older than `cutoff`, bumping the
    /// revision of each neighbour whose set shrank. The sweep is gated in
    /// O(1) on the conservative oldest timestamp and recomputes it exactly.
    pub fn advance_time(
        &mut self,
        now: Timestamp,
        cutoff: Timestamp,
        engines: &mut [FixedPointEngine],
    ) {
        self.last_now = now;
        if let Some(timeout) = self.liveness_timeout_secs {
            let stale: Vec<SensorId> = self
                .last_heard
                .iter()
                .filter(|(_, heard)| now.as_secs_f64() - heard.as_secs_f64() > timeout)
                .map(|(j, _)| *j)
                .collect();
            for j in stale {
                self.forget(j, engines);
                self.presumed_dead.insert(j);
                crate::telemetry::STALE_NEIGHBORS_PRUNED.add(1);
            }
        }
        if !self.shared_oldest.is_some_and(|o| o < cutoff) {
            return;
        }
        for (&j, set) in self.shared_with.iter_mut() {
            if set.evict_older_than(cutoff) > 0 {
                let revision = self.revisions.entry(j).or_insert(0);
                *revision = revision.wrapping_add(1);
            }
        }
        self.shared_oldest =
            self.shared_with.values().flat_map(|s| s.iter().map(|p| p.timestamp)).min();
    }

    /// Forgets every neighbour **not** in `live`, here and in `engines` —
    /// see [`crate::detector::OutlierDetector::retain_neighbors`].
    pub fn retain(&mut self, live: &[SensorId], engines: &mut [FixedPointEngine]) {
        let tracked: BTreeSet<SensorId> = self
            .shared_with
            .keys()
            .copied()
            .chain(engines.iter().flat_map(|e| e.tracked_neighbors()))
            .chain(self.last_heard.keys().copied())
            .chain(self.presumed_dead.iter().copied())
            .collect();
        for j in tracked {
            if !live.contains(&j) {
                self.forget(j, engines);
                self.presumed_dead.remove(&j);
                crate::telemetry::STALE_NEIGHBORS_PRUNED.add(1);
            }
        }
    }

    /// Drops all per-neighbour state for `neighbor` (shared-knowledge set,
    /// revision and memo, liveness entry, cached fixed-point chains). If it
    /// later returns, it re-syncs from scratch like a brand-new neighbour.
    fn forget(&mut self, neighbor: SensorId, engines: &mut [FixedPointEngine]) {
        self.shared_with.remove(&neighbor);
        self.revisions.remove(&neighbor);
        self.quiet_at.remove(&neighbor);
        for engine in engines {
            engine.forget_neighbor(neighbor);
        }
        self.last_heard.remove(&neighbor);
    }

    /// The book's complete canonical state, for [`crate::persist`], its
    /// points written into the node dump's `table`.
    pub fn persist_snapshot(&self, table: &mut PointTable) -> JsonValue {
        JsonValue::Object(vec![
            ("liveness_timeout_secs".into(), persist::opt_f64_to_json(self.liveness_timeout_secs)),
            ("shared_with".into(), table.sets_by_id(&self.shared_with)),
            (
                "shared_oldest".into(),
                persist::opt_u64_to_json(self.shared_oldest.map(|t| t.as_micros())),
            ),
            ("revisions".into(), persist::rows_by_id_to_json(&self.revisions, |&r| vec![r])),
            ("quiet_at".into(), persist::rows_by_id_to_json(&self.quiet_at, |&(w, b)| vec![w, b])),
            ("last_now".into(), JsonValue::from(self.last_now.as_micros())),
            (
                "last_heard".into(),
                persist::rows_by_id_to_json(&self.last_heard, |t| vec![t.as_micros()]),
            ),
            ("presumed_dead".into(), persist::ids_to_json(self.presumed_dead.iter().copied())),
            ("points_sent".into(), JsonValue::from(self.points_sent)),
            ("points_received".into(), JsonValue::from(self.points_received)),
        ])
    }

    /// Parses a [`NeighborBook::persist_snapshot`] against the node dump's
    /// `rows`, refusing one taken under a different liveness timeout than
    /// this book's.
    pub fn restored(
        &self,
        dump: &JsonValue,
        rows: &mut PointRows,
    ) -> Result<NeighborBook, PersistError> {
        let liveness_timeout_secs = persist::opt_f64_field(dump, "liveness_timeout_secs")?;
        if liveness_timeout_secs != self.liveness_timeout_secs {
            return Err(PersistError::Mismatch("liveness timeout differs".into()));
        }
        Ok(NeighborBook {
            shared_with: rows.sets_by_id(persist::field(dump, "shared_with")?)?,
            shared_oldest: persist::opt_u64_field(dump, "shared_oldest")?
                .map(Timestamp::from_micros),
            revisions: persist::rows_by_id_from_json(persist::field(dump, "revisions")?, 1, |r| {
                r[0]
            })?,
            quiet_at: persist::rows_by_id_from_json(persist::field(dump, "quiet_at")?, 2, |r| {
                (r[0], r[1])
            })?,
            liveness_timeout_secs,
            last_now: Timestamp::from_micros(persist::u64_field(dump, "last_now")?),
            last_heard: persist::rows_by_id_from_json(
                persist::field(dump, "last_heard")?,
                1,
                |r| Timestamp::from_micros(r[0]),
            )?,
            presumed_dead: persist::ids_from_json(persist::field(dump, "presumed_dead")?)?
                .into_iter()
                .collect(),
            points_sent: persist::u64_field(dump, "points_sent")?,
            points_received: persist::u64_field(dump, "points_received")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_data::Epoch;

    fn pt(epoch: u64, secs: u64, hop: u16) -> Arc<DataPoint> {
        let mut p =
            DataPoint::new(SensorId(9), Epoch(epoch), Timestamp::from_secs(secs), vec![1.0])
                .unwrap();
        p.hop = hop;
        Arc::new(p)
    }

    #[test]
    fn recording_bumps_exactly_the_touched_neighbor() {
        let mut book = NeighborBook::default();
        let (a, b) = (SensorId(1), SensorId(2));
        let (state_a, state_b) = (book.state(a, 7), book.state(b, 7));
        book.mark_quiet(a, state_a);
        book.mark_quiet(b, state_b);
        assert!(book.is_quiet(a, state_a));
        assert_eq!(book.record(a, &mut vec![pt(0, 1, 0)], Merge::FirstCopy), Some(1));
        assert!(!book.is_quiet(a, book.state(a, 7)), "a's revision moved");
        assert!(book.is_quiet(b, book.state(b, 7)), "b is untouched");
        // An echo of a known point changes nothing and bumps nothing.
        let mut echo = vec![pt(0, 1, 0)];
        assert_eq!(book.record(a, &mut echo, Merge::FirstCopy), None);
        assert!(echo.is_empty());
        assert_ne!(book.state(a, 1), book.state(a, 2), "a window move changes every state");
    }

    #[test]
    fn min_hop_recording_keeps_only_hop_lowering_copies() {
        let mut book = NeighborBook::default();
        let j = SensorId(1);
        book.record(j, &mut vec![pt(0, 1, 2)], Merge::MinHop);
        let mut copies = vec![pt(0, 1, 3), pt(0, 1, 1)];
        assert_eq!(book.record(j, &mut copies, Merge::MinHop), Some(2));
        assert_eq!(copies.len(), 1);
        assert_eq!(book.known(j).unwrap().get(&pt(0, 1, 0).key).unwrap().hop, 1);
    }

    #[test]
    fn eviction_bumps_only_neighbors_that_lost_points() {
        let mut book = NeighborBook::default();
        book.record(SensorId(1), &mut vec![pt(0, 1, 0)], Merge::FirstCopy);
        book.record(SensorId(2), &mut vec![pt(1, 50, 0)], Merge::FirstCopy);
        let before = (book.state(SensorId(1), 0), book.state(SensorId(2), 0));
        book.advance_time(Timestamp::from_secs(60), Timestamp::from_secs(10), &mut []);
        assert_ne!(book.state(SensorId(1), 0), before.0, "evicted neighbour bumped");
        assert_eq!(book.state(SensorId(2), 0), before.1, "untouched neighbour stable");
        assert!(book.known(SensorId(1)).unwrap().is_empty());
    }
}
