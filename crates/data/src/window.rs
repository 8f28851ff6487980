//! Time-based sliding window (§5.3).
//!
//! Each sensor processes its stream under a sliding-window model: every point
//! is time-stamped when sampled, and once its timestamp falls out of the
//! window it is deleted from the node's working set regardless of where it
//! originated. The paper's parameter `w` is the window length measured in
//! sampling periods.

use crate::error::DataError;
use crate::point::{DataPoint, Timestamp};
use crate::set::PointSet;
use std::sync::Arc;

/// Configuration of a sliding window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Window length in microseconds.
    pub length_micros: u64,
}

impl WindowConfig {
    /// Creates a window configuration from a length in microseconds.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyWindow`] if the length is zero.
    pub fn from_micros(length_micros: u64) -> Result<Self, DataError> {
        if length_micros == 0 {
            return Err(DataError::EmptyWindow);
        }
        Ok(WindowConfig { length_micros })
    }

    /// Creates a window configuration from a length in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyWindow`] if the length is zero.
    pub fn from_secs(secs: u64) -> Result<Self, DataError> {
        WindowConfig::from_micros(secs.saturating_mul(1_000_000))
    }

    /// Creates the window used in the paper's evaluation: `w` sampling
    /// periods of `sample_interval_secs` seconds each.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyWindow`] if either factor is zero.
    pub fn from_samples(w: u64, sample_interval_secs: f64) -> Result<Self, DataError> {
        if w == 0 || sample_interval_secs <= 0.0 {
            return Err(DataError::EmptyWindow);
        }
        WindowConfig::from_micros((w as f64 * sample_interval_secs * 1e6).round() as u64)
    }

    /// The earliest timestamp still inside the window at time `now`.
    pub fn cutoff(&self, now: Timestamp) -> Timestamp {
        Timestamp(now.0.saturating_sub(self.length_micros))
    }
}

/// A sliding window over time-stamped data points.
///
/// ```
/// use wsn_data::{DataPoint, Epoch, SensorId, Timestamp, SlidingWindow};
/// use wsn_data::window::WindowConfig;
///
/// let mut w = SlidingWindow::new(WindowConfig::from_secs(10).unwrap());
/// let old = DataPoint::new(SensorId(1), Epoch(0), Timestamp::from_secs(0), vec![1.0]).unwrap();
/// let new = DataPoint::new(SensorId(1), Epoch(1), Timestamp::from_secs(8), vec![2.0]).unwrap();
/// w.insert(old.clone());
/// w.insert(new.clone());
/// // Advancing to t=12s evicts the point sampled at t=0s and hands it back.
/// let evicted = w.advance_to(Timestamp::from_secs(12));
/// assert_eq!(evicted.len(), 1);
/// assert_eq!(evicted[0].key, old.key);
/// assert!(!w.contents().contains(&old));
/// assert!(w.contents().contains(&new));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    config: WindowConfig,
    /// The contents live behind an [`Arc`] so that [`SlidingWindow::snapshot`]
    /// is a reference-count bump, not a copy. Mutation goes through
    /// [`Arc::make_mut`]: copy-on-write, so the set is re-materialised only
    /// if a snapshot taken at an earlier revision is still alive when the
    /// window next changes.
    contents: Arc<PointSet>,
    now: Timestamp,
    /// Bumped on every change. Readers only compare revisions for equality,
    /// so it wraps: a window restored from a damaged snapshot at
    /// `u64::MAX` must not overflow.
    revision: u64,
    /// The smallest timestamp currently held (`None` when empty), kept up
    /// to date on insertion and recomputed after removals. Clock advances
    /// whose cutoff does not pass this value are O(1) no-ops — the common
    /// case, since every received message advances the clock but only
    /// window slides actually evict.
    oldest: Option<Timestamp>,
}

impl SlidingWindow {
    /// Creates an empty window with the given configuration.
    pub fn new(config: WindowConfig) -> Self {
        SlidingWindow {
            config,
            contents: Arc::new(PointSet::new()),
            now: Timestamp::ZERO,
            revision: 0,
            oldest: None,
        }
    }

    /// The window configuration.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// The current (latest observed) time of the window.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The points currently inside the window.
    pub fn contents(&self) -> &PointSet {
        &self.contents
    }

    /// A shared snapshot of the current contents, keyed by
    /// [`revision`](SlidingWindow::revision): cloning the returned [`Arc`] is
    /// free, and the snapshot stays valid (and immutable) even while the
    /// caller goes on to mutate other state of the node that owns the
    /// window.
    ///
    /// This is what lets the detectors' `process()` paths read `P_i` without
    /// deep-copying it: the window is only re-materialised (one copy-on-write
    /// clone) if it is mutated while a snapshot from an earlier revision is
    /// still held — detectors drop their snapshot at the end of the event,
    /// so in the steady state no copy ever happens.
    pub fn snapshot(&self) -> Arc<PointSet> {
        Arc::clone(&self.contents)
    }

    /// A counter that changes whenever [`contents`](SlidingWindow::contents)
    /// changes — on insertion, window-slide eviction and origin removal, but
    /// not on a pure clock advance that evicts nothing.
    ///
    /// Derived state computed from a window snapshot (such as a spatial
    /// neighbour index over the contents) can be cached against this value
    /// and rebuilt only when it moves.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Inserts a point if it is still inside the window at the current time.
    /// Returns `true` if the point was added.
    pub fn insert(&mut self, point: DataPoint) -> bool {
        self.insert_arc(Arc::new(point))
    }

    /// [`SlidingWindow::insert`] for a point already behind an [`Arc`]: on
    /// acceptance the allocation is shared with the caller, not copied.
    pub fn insert_arc(&mut self, point: Arc<DataPoint>) -> bool {
        if point.timestamp < self.config.cutoff(self.now) {
            return false;
        }
        let timestamp = point.timestamp;
        let changed = Arc::make_mut(&mut self.contents).insert_min_hop_arc(point).changed();
        if changed {
            self.revision = self.revision.wrapping_add(1);
            if !self.oldest.is_some_and(|oldest| oldest <= timestamp) {
                self.oldest = Some(timestamp);
            }
        }
        changed
    }

    /// Advances the window to `now`, evicting stale points. Returns the
    /// evicted points (the handles the window held), so a caller that keeps
    /// state derived from the contents can follow the eviction as a delta;
    /// all of them leave under one revision bump. Time never moves
    /// backwards: advancing to an earlier time is a no-op, and so is any
    /// advance whose cutoff does not pass the oldest held timestamp (checked
    /// in O(1), no scan).
    pub fn advance_to(&mut self, now: Timestamp) -> Vec<Arc<DataPoint>> {
        if now <= self.now {
            return Vec::new();
        }
        self.now = now;
        let cutoff = self.config.cutoff(now);
        if !self.oldest.is_some_and(|oldest| oldest < cutoff) {
            return Vec::new();
        }
        let evicted = Arc::make_mut(&mut self.contents).evict_older_than(cutoff);
        if !evicted.is_empty() {
            self.revision = self.revision.wrapping_add(1);
        }
        self.refresh_oldest();
        evicted
    }

    /// Recomputes the cached oldest timestamp after removals.
    fn refresh_oldest(&mut self) {
        self.oldest = self.contents.iter().map(|p| p.timestamp).min();
    }

    /// Reassembles a window from externally persisted parts — the inverse of
    /// reading [`config`](SlidingWindow::config),
    /// [`contents`](SlidingWindow::contents), [`now`](SlidingWindow::now) and
    /// [`revision`](SlidingWindow::revision) off a live window. The cached
    /// oldest-timestamp gate is rederived from the contents.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if any point lies before the
    /// window's cutoff at `now` — such a point could never have been inside a
    /// live window, so the parts are corrupt, not merely stale.
    pub fn from_parts(
        config: WindowConfig,
        contents: PointSet,
        now: Timestamp,
        revision: u64,
    ) -> Result<Self, DataError> {
        let cutoff = config.cutoff(now);
        if let Some(stale) = contents.iter().find(|p| p.timestamp < cutoff) {
            return Err(DataError::InvalidParameter(format!(
                "window point {:?} at {}us lies before the cutoff {}us",
                stale.key,
                stale.timestamp.as_micros(),
                cutoff.as_micros()
            )));
        }
        let oldest = contents.iter().map(|p| p.timestamp).min();
        Ok(SlidingWindow { config, contents: Arc::new(contents), now, revision, oldest })
    }

    /// Number of points currently held.
    pub fn len(&self) -> usize {
        self.contents.len()
    }

    /// Returns `true` if the window holds no points.
    pub fn is_empty(&self) -> bool {
        self.contents.is_empty()
    }

    /// Removes every point originating at `origin` (sensor removal, §5.3).
    pub fn remove_origin(&mut self, origin: crate::point::SensorId) -> usize {
        if Arc::get_mut(&mut self.contents).is_none()
            && !self.contents.iter().any(|p| p.key.origin == origin)
        {
            return 0;
        }
        let removed = Arc::make_mut(&mut self.contents).remove_origin(origin);
        if removed > 0 {
            self.revision = self.revision.wrapping_add(1);
            self.refresh_oldest();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Epoch, SensorId};

    fn pt(origin: u32, epoch: u64, secs: u64) -> DataPoint {
        DataPoint::new(
            SensorId(origin),
            Epoch(epoch),
            Timestamp::from_secs(secs),
            vec![epoch as f64],
        )
        .unwrap()
    }

    #[test]
    fn config_rejects_zero_length() {
        assert_eq!(WindowConfig::from_micros(0).unwrap_err(), DataError::EmptyWindow);
        assert_eq!(WindowConfig::from_secs(0).unwrap_err(), DataError::EmptyWindow);
        assert_eq!(WindowConfig::from_samples(0, 1.0).unwrap_err(), DataError::EmptyWindow);
        assert_eq!(WindowConfig::from_samples(5, 0.0).unwrap_err(), DataError::EmptyWindow);
    }

    #[test]
    fn from_samples_multiplies() {
        let c = WindowConfig::from_samples(20, 2.0).unwrap();
        assert_eq!(c.length_micros, 40_000_000);
    }

    #[test]
    fn cutoff_saturates_at_zero() {
        let c = WindowConfig::from_secs(10).unwrap();
        assert_eq!(c.cutoff(Timestamp::from_secs(3)), Timestamp::ZERO);
        assert_eq!(c.cutoff(Timestamp::from_secs(25)), Timestamp::from_secs(15));
    }

    #[test]
    fn advance_evicts_stale_points() {
        let mut w = SlidingWindow::new(WindowConfig::from_secs(10).unwrap());
        w.insert(pt(1, 0, 0));
        w.insert(pt(1, 1, 5));
        w.insert(pt(2, 0, 9));
        assert_eq!(w.len(), 3);
        let evicted = w.advance_to(Timestamp::from_secs(14));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, pt(1, 0, 0).key);
        assert_eq!(w.len(), 2);
        assert_eq!(w.advance_to(Timestamp::from_secs(18)).len(), 1);
        assert_eq!(w.len(), 1);
        assert!(w.contents().contains(&pt(2, 0, 9)));
    }

    #[test]
    fn time_never_moves_backwards() {
        let mut w = SlidingWindow::new(WindowConfig::from_secs(10).unwrap());
        w.advance_to(Timestamp::from_secs(30));
        assert_eq!(w.now(), Timestamp::from_secs(30));
        assert!(w.advance_to(Timestamp::from_secs(20)).is_empty());
        assert_eq!(w.now(), Timestamp::from_secs(30));
    }

    #[test]
    fn stale_points_are_not_inserted() {
        let mut w = SlidingWindow::new(WindowConfig::from_secs(10).unwrap());
        w.advance_to(Timestamp::from_secs(100));
        assert!(!w.insert(pt(1, 0, 5)));
        assert!(w.insert(pt(1, 1, 95)));
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }

    #[test]
    fn duplicate_insert_reports_no_change() {
        let mut w = SlidingWindow::new(WindowConfig::from_secs(10).unwrap());
        assert!(w.insert(pt(1, 0, 1)));
        assert!(!w.insert(pt(1, 0, 1)));
    }

    #[test]
    fn revision_moves_only_when_the_contents_change() {
        let mut w = SlidingWindow::new(WindowConfig::from_secs(10).unwrap());
        let r0 = w.revision();
        assert!(w.insert(pt(1, 0, 1)));
        assert!(w.revision() > r0, "insertion bumps the revision");
        let r1 = w.revision();
        assert!(!w.insert(pt(1, 0, 1)));
        assert_eq!(w.revision(), r1, "duplicate insert is a no-op");
        w.advance_to(Timestamp::from_secs(5));
        assert_eq!(w.revision(), r1, "clock advance without eviction is a no-op");
        w.advance_to(Timestamp::from_secs(50));
        assert!(w.revision() > r1, "eviction bumps the revision");
        let r2 = w.revision();
        assert_eq!(w.remove_origin(SensorId(1)), 0);
        assert_eq!(w.revision(), r2, "removing an absent origin is a no-op");
        w.insert(pt(1, 9, 49));
        let r3 = w.revision();
        assert_eq!(w.remove_origin(SensorId(1)), 1);
        assert!(w.revision() > r3, "origin removal bumps the revision");
    }

    #[test]
    fn snapshots_share_until_the_window_changes() {
        let mut w = SlidingWindow::new(WindowConfig::from_secs(10).unwrap());
        w.insert(pt(1, 0, 1));
        let snap = w.snapshot();
        assert!(Arc::ptr_eq(&snap, &w.snapshot()), "snapshots of one revision are the same set");
        // A no-op advance must not re-materialise the shared contents.
        w.advance_to(Timestamp::from_secs(5));
        assert_eq!(w.remove_origin(SensorId(9)), 0);
        assert!(Arc::ptr_eq(&snap, &w.snapshot()));
        // A mutation while the snapshot is alive copies on write: the old
        // snapshot keeps the old contents, the window moves on.
        w.insert(pt(1, 1, 2));
        assert!(!Arc::ptr_eq(&snap, &w.snapshot()));
        assert_eq!(snap.len(), 1);
        assert_eq!(w.len(), 2);
        // Once no snapshot is outstanding, mutation is in place again.
        drop(snap);
        let before = Arc::as_ptr(&w.snapshot());
        w.insert(pt(1, 2, 3));
        assert_eq!(Arc::as_ptr(&w.snapshot()), before, "unshared contents mutate in place");
    }

    #[test]
    fn insert_arc_shares_the_callers_allocation() {
        let mut w = SlidingWindow::new(WindowConfig::from_secs(10).unwrap());
        let p = Arc::new(pt(1, 0, 1));
        assert!(w.insert_arc(Arc::clone(&p)));
        assert!(Arc::ptr_eq(w.contents().get_arc(&p.key).unwrap(), &p));
    }

    #[test]
    fn from_parts_round_trips_a_live_window() {
        let mut w = SlidingWindow::new(WindowConfig::from_secs(10).unwrap());
        w.insert(pt(1, 0, 5));
        w.insert(pt(2, 0, 9));
        w.advance_to(Timestamp::from_secs(12));
        let rebuilt =
            SlidingWindow::from_parts(w.config(), w.contents().clone(), w.now(), w.revision())
                .unwrap();
        assert_eq!(rebuilt, w);
        // The rederived oldest gate still drives evictions correctly.
        let mut rebuilt = rebuilt;
        assert_eq!(rebuilt.advance_to(Timestamp::from_secs(16)).len(), 1);
        assert_eq!(rebuilt.len(), 1);
    }

    #[test]
    fn from_parts_rejects_points_behind_the_cutoff() {
        let config = WindowConfig::from_secs(10).unwrap();
        let contents: PointSet = vec![pt(1, 0, 5)].into_iter().collect();
        let err =
            SlidingWindow::from_parts(config, contents, Timestamp::from_secs(100), 3).unwrap_err();
        assert!(matches!(err, DataError::InvalidParameter(_)));
    }

    #[test]
    fn remove_origin_forwards_to_contents() {
        let mut w = SlidingWindow::new(WindowConfig::from_secs(10).unwrap());
        w.insert(pt(1, 0, 1));
        w.insert(pt(2, 0, 1));
        assert_eq!(w.remove_origin(SensorId(1)), 1);
        assert_eq!(w.len(), 1);
    }
}
