//! Revision-keyed caching of state derived from a sliding window.
//!
//! A hop-scope detector derives expensive structures from its window: the
//! hop prefixes `P_i^{≤h}` and a spatial neighbour index
//! ([`wsn_ranking::index::AnyIndex`]) over each, which every ranking query
//! of one protocol step shares. A [`RevisionCache`] pairs a derived value
//! with the revision it was built from and hands it back for free until
//! that revision moves, so the revision must move whenever the state the
//! value derives from changes. The detector keys its prefixes on its
//! forwarded-prefix revision: the
//! [`SlidingWindow::revision`](wsn_data::SlidingWindow::revision) at the
//! last change to `P_i^{≤d−1}`. A window change that leaves that prefix
//! alone, such as a receipt of copies at hop `d`, keeps the cached value.

use std::fmt;
use std::sync::Arc;

/// A single-slot cache of a value derived from revisioned state.
///
/// The cached value is shared behind an [`Arc`] so read paths (including
/// `&self` methods like a detector's `estimate`) can hold on to it without
/// cloning the underlying structure, and so cloning a detector clones the
/// cache by reference.
pub struct RevisionCache<T> {
    slot: Option<(u64, Arc<T>)>,
}

impl<T> RevisionCache<T> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RevisionCache { slot: None }
    }

    /// Returns the cached value if it was built from exactly `revision`.
    pub fn get(&self, revision: u64) -> Option<Arc<T>> {
        match &self.slot {
            Some((rev, value)) if *rev == revision => Some(Arc::clone(value)),
            _ => None,
        }
    }

    /// Stores `value` as the derivation of `revision`, returning the shared
    /// handle. Any previously cached revision is dropped.
    pub fn put(&mut self, revision: u64, value: T) -> Arc<T> {
        let value = Arc::new(value);
        self.slot = Some((revision, Arc::clone(&value)));
        value
    }

    /// Returns the value cached for `revision`, building and storing it with
    /// `build` on a miss.
    pub fn get_or_build(&mut self, revision: u64, build: impl FnOnce() -> T) -> Arc<T> {
        if let Some(value) = self.get(revision) {
            return value;
        }
        self.put(revision, build())
    }

    /// Drops any cached value.
    pub fn invalidate(&mut self) {
        self.slot = None;
    }
}

impl<T> Default for RevisionCache<T> {
    fn default() -> Self {
        RevisionCache::new()
    }
}

impl<T> Clone for RevisionCache<T> {
    fn clone(&self) -> Self {
        RevisionCache { slot: self.slot.as_ref().map(|(rev, v)| (*rev, Arc::clone(v))) }
    }
}

impl<T> fmt::Debug for RevisionCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.slot {
            Some((rev, _)) => write!(f, "RevisionCache(revision {rev})"),
            None => write!(f, "RevisionCache(empty)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_only_on_the_exact_revision() {
        let mut cache: RevisionCache<String> = RevisionCache::new();
        assert!(cache.get(0).is_none());
        cache.put(3, "three".to_string());
        assert_eq!(cache.get(3).as_deref().map(String::as_str), Some("three"));
        assert!(cache.get(2).is_none());
        assert!(cache.get(4).is_none());
    }

    #[test]
    fn get_or_build_builds_once_per_revision() {
        let mut cache: RevisionCache<u32> = RevisionCache::default();
        let mut builds = 0;
        for _ in 0..3 {
            let v = cache.get_or_build(7, || {
                builds += 1;
                42
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(builds, 1);
        // A new revision replaces the slot.
        let v = cache.get_or_build(8, || {
            builds += 1;
            43
        });
        assert_eq!(*v, 43);
        assert_eq!(builds, 2);
        assert!(cache.get(7).is_none(), "only the latest revision is kept");
    }

    #[test]
    fn clones_share_the_cached_value_and_invalidate_independently() {
        let mut cache: RevisionCache<Vec<u8>> = RevisionCache::new();
        let original = cache.put(1, vec![1, 2, 3]);
        let mut copy = cache.clone();
        assert!(Arc::ptr_eq(&original, &copy.get(1).unwrap()));
        copy.invalidate();
        assert!(copy.get(1).is_none());
        assert!(cache.get(1).is_some(), "invalidating the clone leaves the original intact");
        assert!(format!("{cache:?}").contains("revision 1"));
        assert!(format!("{copy:?}").contains("empty"));
    }
}
