//! The discrete-event core: the event order and the event queue.
//!
//! This module is the bottom layer of the simulator's three-layer
//! architecture:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ wsn_netsim::region   spatial partitioning, epoch barriers,   │
//! │                      deterministic cross-region merge        │
//! ├──────────────────────────────────────────────────────────────┤
//! │ wsn_netsim::sim      the WSN domain: Application/NodeContext │
//! │                      dispatch, radio + MAC + energy          │
//! ├──────────────────────────────────────────────────────────────┤
//! │ wsn_netsim::event    this module: EventKey total order,      │
//! │                      EventQueue (binary heap, timer batches) │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Nothing in this file knows about radios, packets or energy: it is a
//! min-queue of user-defined event payloads over a standard binary heap,
//! ordered by a key intrinsic to each event, with self-advancing event
//! batches.
//!
//! # The determinism contract
//!
//! Every event carries an [`EventKey`] that is a **total order intrinsic to
//! the event itself** — `(time, class, source, source_seq, target)` — rather
//! than an order derived from heap insertion sequence. Two engines that
//! schedule the same set of events therefore process them in the same order
//! *no matter how the events were routed into their queues*. This is the
//! property the partitioned simulator ([`crate::region`]) rests on: a
//! region's queue receives boundary events from other regions at epoch
//! barriers, in whatever order the worker pool finished, and the heap still
//! pops them exactly where a single sequential queue would have.
//!
//! Key uniqueness is the scheduler's obligation: node-sourced events take
//! `(source = node id, source_seq = that node's emission counter)`,
//! externally scheduled events take `(source =` [`EXTERNAL_SOURCE`]`,
//! source_seq = the engine's external counter)`, and one transmission fans
//! out over distinct `target`s.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use wsn_data::Timestamp;

/// Event class of node start-up events (processed first at equal times).
pub const CLASS_START: u8 = 0;
/// Event class of timer expiries.
pub const CLASS_TIMER: u8 = 1;
/// Event class of radio receptions (one airtime after their transmission).
pub const CLASS_RECEPTION: u8 = 2;
/// Event class of control/topology events (e.g. neighbourhood changes).
pub const CLASS_CONTROL: u8 = 3;

/// The `source` value of events scheduled from outside any node (test
/// harnesses, sampling schedules, the removal coordinator).
pub const EXTERNAL_SOURCE: u32 = u32::MAX;

/// The intrinsic total order of one event.
///
/// Keys compare lexicographically by `(time, class, source, source_seq,
/// target)`. See the module documentation for why the order must be a
/// function of the event rather than of queue-insertion history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// When the event fires.
    pub time: Timestamp,
    /// Coarse event class (`CLASS_*`), the first tie-breaker at equal times.
    pub class: u8,
    /// The node that caused the event, or [`EXTERNAL_SOURCE`].
    pub source: u32,
    /// The source's emission counter at the moment the event was scheduled.
    pub source_seq: u64,
    /// The node the event is addressed to.
    pub target: u32,
}

impl EventKey {
    /// Builds a key.
    pub fn new(time: Timestamp, class: u8, source: u32, source_seq: u64, target: u32) -> Self {
        EventKey { time, class, source, source_seq, target }
    }
}

enum Item<E> {
    Single(E),
    /// A run of events sharing **one** heap entry, stored in *descending*
    /// key order: the entry is keyed at the last element, which `Vec::pop`
    /// moves out, and is re-keyed at the new last one. A periodic fan-out
    /// over every node — such as a sampling round — therefore costs one
    /// queued entry instead of one per node × round.
    Batch(Vec<(EventKey, E)>),
}

/// One heap entry, keyed at its next event.
struct Entry<E> {
    key: EventKey,
    item: Item<E>,
}

// `BinaryHeap` is a max-heap: reversing the key order pops the least key
// first. Keys are unique, so the order never consults the payload.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

/// A min-queue of events ordered by [`EventKey`].
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new() }
    }

    /// Number of queued entries. A batch counts as **one** entry however
    /// many events it still carries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The key of the earliest queued event, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|entry| entry.key)
    }

    /// Queues one event.
    pub fn push(&mut self, key: EventKey, event: E) {
        self.heap.push(Entry { key, item: Item::Single(event) });
    }

    /// Queues a whole batch of events behind a **single** heap entry. An
    /// empty batch queues nothing.
    ///
    /// # Panics
    ///
    /// Panics if the entries are not sorted by ascending key.
    pub fn push_batch(&mut self, mut entries: Vec<(EventKey, E)>) {
        assert!(
            entries.windows(2).all(|pair| pair[0].0 <= pair[1].0),
            "batch entries must be sorted by ascending key"
        );
        entries.reverse();
        if let Some(&(key, _)) = entries.last() {
            self.heap.push(Entry { key, item: Item::Batch(entries) });
        }
    }

    /// Pops the earliest event. Batches self-advance: popping a batch entry
    /// re-keys the batch at its next entry, and the heap sifts it down.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let mut top = self.heap.peek_mut()?;
        let key = top.key;
        if let Item::Batch(rest) = &mut top.item {
            if rest.len() > 1 {
                let (_, event) = rest.pop().expect("the batch holds more than one event");
                top.key = rest.last().expect("the batch holds its next event").0;
                return Some((key, event));
            }
        }
        let event = match PeekMut::pop(top).item {
            Item::Single(event) => event,
            Item::Batch(mut last) => last.pop().expect("a queued batch is never empty").1,
        };
        Some((key, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(time_us: u64, seq: u64) -> EventKey {
        EventKey::new(Timestamp::from_micros(time_us), CLASS_TIMER, EXTERNAL_SOURCE, seq, 0)
    }

    fn drain(q: &mut EventQueue<&'static str>) -> Vec<(u64, &'static str)> {
        std::iter::from_fn(|| q.pop()).map(|(k, e)| (k.time.as_micros(), e)).collect()
    }

    #[test]
    fn events_pop_in_key_order_regardless_of_push_order() {
        let mut q = EventQueue::new();
        q.push(key(30, 0), "c");
        q.push(key(10, 1), "a");
        q.push(key(20, 2), "b");
        q.push(key(10, 0), "first");
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q), vec![(10, "first"), (10, "a"), (20, "b"), (30, "c")]);
        assert!(q.is_empty());
    }

    #[test]
    fn key_order_breaks_time_ties_by_class_source_seq_target() {
        let t = Timestamp::from_micros(5);
        let reception = EventKey::new(t, CLASS_RECEPTION, 3, 0, 9);
        let timer = EventKey::new(t, CLASS_TIMER, EXTERNAL_SOURCE, 99, 9);
        let start = EventKey::new(t, CLASS_START, EXTERNAL_SOURCE, 0, 9);
        assert!(start < timer && timer < reception);
        // Same transmission, fan-out ordered by target.
        let a = EventKey::new(t, CLASS_RECEPTION, 3, 7, 1);
        let b = EventKey::new(t, CLASS_RECEPTION, 3, 7, 2);
        assert!(a < b);
    }

    #[test]
    fn batches_occupy_one_slot_and_self_advance() {
        let mut q = EventQueue::new();
        q.push(key(25, 9), "single");
        let entries: Vec<(EventKey, &str)> =
            (0..4).map(|i| (key(10 * (i + 1), i), "batch")).collect();
        q.push_batch(entries);
        assert_eq!(q.len(), 2, "four batch entries share one slot");
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![(10, "batch"), (20, "batch"), (25, "single"), (30, "batch"), (40, "batch")]
        );
    }

    #[test]
    fn empty_batches_are_rejected_gracefully() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push_batch(Vec::new());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "ascending key")]
    fn unsorted_batches_panic() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push_batch(vec![(key(20, 0), 1), (key(10, 1), 2)]);
    }

    #[test]
    fn interleaved_push_pop_matches_a_reference_model() {
        // Randomised torture: the heap must agree with a sorted-Vec
        // reference model under arbitrary interleavings of single events,
        // batches (which the model takes as single events) and pops.
        let mut rng = wsn_data::rng::SeededRng::seed_from_u64(2024);
        let mut q = EventQueue::new();
        let mut model: Vec<(EventKey, u64)> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..4000 {
            match rng.gen_index(4) {
                0 => {
                    let k = key(rng.gen_range(0u64..500), seq);
                    q.push(k, seq);
                    model.push((k, seq));
                    seq += 1;
                }
                1 => {
                    let mut batch: Vec<(EventKey, u64)> = (0..1 + rng.gen_index(4))
                        .map(|i| (key(rng.gen_range(0u64..500), seq + i as u64), seq + i as u64))
                        .collect();
                    seq += batch.len() as u64;
                    batch.sort();
                    model.extend(batch.iter().copied());
                    q.push_batch(batch);
                }
                _ => {
                    let expected = model.iter().min().copied();
                    assert_eq!(q.pop(), expected);
                    model.retain(|&event| Some(event) != expected);
                }
            }
            assert_eq!(q.is_empty(), model.is_empty());
        }
        let rest: Vec<(EventKey, u64)> = std::iter::from_fn(|| q.pop()).collect();
        model.sort();
        assert_eq!(rest, model, "the final drain pops in key order");
    }
}
