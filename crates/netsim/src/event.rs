//! The generic discrete-event core.
//!
//! This module is the bottom layer of the simulator's three-layer
//! architecture:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ wsn_netsim::region   spatial partitioning, epoch barriers,   │
//! │                      deterministic cross-region merge        │
//! ├──────────────────────────────────────────────────────────────┤
//! │ wsn_netsim::sim      the WSN domain: Application/NodeContext,│
//! │                      radio + MAC + energy accounting         │
//! ├──────────────────────────────────────────────────────────────┤
//! │ wsn_netsim::event    this module: EventKey total order,      │
//! │                      indexed EventQueue (cancellation,       │
//! │                      batches), Component dispatch (SimCore)  │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Nothing in this file knows about radios, packets or energy — it is a
//! plain discrete-event machine over user-defined components and event
//! payloads, in the style of generic simulation cores: an indexed binary
//! heap with stable intrinsic tie-breaking, O(log n) timer cancellation via
//! generation-checked handles, self-advancing event batches, and a
//! per-component dispatch context through which components emit their
//! reactions.
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
//! Key uniqueness is the scheduler's obligation: component-sourced events
//! take `(source = component id, source_seq = that component's emission
//! counter)`, externally scheduled events take `(source =`
//! [`EXTERNAL_SOURCE`]`, source_seq = the core's external counter)`, and one
//! transmission fans out over distinct `target`s.

use std::collections::BTreeMap;
use std::sync::Arc;
use wsn_data::Timestamp;

/// Telemetry ([`wsn_obs`]): events popped across every engine in the
/// process. Statics inside generic impls are shared across component types,
/// which is exactly the process-wide aggregation we want.
static OBS_EVENTS_POPPED: wsn_obs::Counter = wsn_obs::Counter::new("sim.events_popped");
/// Telemetry: heap-slot depth of the queue observed at each pop.
static OBS_QUEUE_DEPTH: wsn_obs::Histogram = wsn_obs::Histogram::new("sim.queue_depth");

/// Event class of node start-up events (processed first at equal times).
pub const CLASS_START: u8 = 0;
/// Event class of timer expiries.
pub const CLASS_TIMER: u8 = 1;
/// Event class of radio receptions (one airtime after their transmission).
pub const CLASS_RECEPTION: u8 = 2;
/// Event class of control/topology events (e.g. neighbourhood changes).
pub const CLASS_CONTROL: u8 = 3;

/// The `source` value of events scheduled from outside any component (test
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
    /// The component that caused the event, or [`EXTERNAL_SOURCE`].
    pub source: u32,
    /// The source's emission counter at the moment the event was scheduled.
    pub source_seq: u64,
    /// The component the event is addressed to.
    pub target: u32,
}

impl EventKey {
    /// Builds a key.
    pub fn new(time: Timestamp, class: u8, source: u32, source_seq: u64, target: u32) -> Self {
        EventKey { time, class, source, source_seq, target }
    }
}

/// Payloads an [`EventQueue`] can carry. Cloning is required because batch
/// entries are popped out of a shared allocation.
pub trait EventPayload: Clone {}
impl<T: Clone> EventPayload for T {}

/// A cancellation handle for a queued event (or event batch).
///
/// Handles are generation-checked: once the event fired (or was cancelled)
/// the slot's generation advances, and a stale handle's
/// [`EventQueue::cancel`] returns `false` instead of cancelling whatever
/// event happens to occupy the recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    index: u32,
    generation: u32,
}

enum Item<E> {
    Single {
        key: EventKey,
        event: E,
    },
    /// A pre-sorted run of events sharing **one** heap slot: the batch sits
    /// in the heap at the key of its next undispatched entry and re-keys
    /// itself (same allocation, advanced cursor) after each pop. A periodic
    /// fan-out over every node — such as a sampling round — therefore costs
    /// one queued slot instead of one per node × round.
    Batch {
        entries: Arc<Vec<(EventKey, E)>>,
        next: usize,
    },
}

impl<E> Item<E> {
    fn key(&self) -> EventKey {
        match self {
            Item::Single { key, .. } => *key,
            Item::Batch { entries, next } => entries[*next].0,
        }
    }
}

struct Slot<E> {
    generation: u32,
    /// `None` while the slot sits on the free list.
    item: Option<Item<E>>,
    heap_pos: usize,
}

/// An indexed binary min-heap of events ordered by [`EventKey`].
///
/// "Indexed" means every queued item owns a stable slab slot whose current
/// heap position is tracked, so cancellation by [`EventHandle`] is O(log n)
/// instead of a full rebuild or a tombstone sweep.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Heap of slab indices, ordered by the indexed item's current key.
    heap: Vec<u32>,
}

impl<E: EventPayload> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E: EventPayload> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { slots: Vec::new(), free: Vec::new(), heap: Vec::new() }
    }

    /// Number of occupied heap slots. A batch counts as **one** slot however
    /// many entries it still carries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of pending events, counting every undispatched batch
    /// entry individually.
    pub fn pending_events(&self) -> usize {
        self.heap
            .iter()
            .map(|&slot| match self.slots[slot as usize].item.as_ref() {
                Some(Item::Single { .. }) => 1,
                Some(Item::Batch { entries, next }) => entries.len() - next,
                None => 0,
            })
            .sum()
    }

    /// The key of the earliest queued event, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap
            .first()
            .map(|&slot| self.slots[slot as usize].item.as_ref().expect("occupied").key())
    }

    /// Queues one event and returns its cancellation handle.
    pub fn push(&mut self, key: EventKey, event: E) -> EventHandle {
        self.insert_item(Item::Single { key, event })
    }

    /// Queues a whole batch of events behind a **single** heap slot and
    /// returns its cancellation handle (cancelling a batch cancels every
    /// entry not yet dispatched). Returns `None` for an empty batch.
    ///
    /// # Panics
    ///
    /// Panics if the entries are not sorted by ascending key.
    pub fn push_batch(&mut self, entries: Vec<(EventKey, E)>) -> Option<EventHandle> {
        assert!(
            entries.windows(2).all(|pair| pair[0].0 <= pair[1].0),
            "batch entries must be sorted by ascending key"
        );
        if entries.is_empty() {
            return None;
        }
        Some(self.insert_item(Item::Batch { entries: Arc::new(entries), next: 0 }))
    }

    /// Cancels a queued event (or a batch's undispatched remainder). Returns
    /// `false` if the handle is stale — the event already fired or was
    /// cancelled before.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(slot) = self.slots.get(handle.index as usize) else {
            return false;
        };
        if slot.generation != handle.generation || slot.item.is_none() {
            return false;
        }
        let pos = slot.heap_pos;
        self.remove_at(pos);
        true
    }

    /// Pops the earliest event. Batches self-advance: popping a batch entry
    /// re-keys the batch at its next entry and sifts it back down.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let &slot_index = self.heap.first()?;
        let slot = &mut self.slots[slot_index as usize];
        match slot.item.as_mut().expect("occupied") {
            Item::Single { .. } => {
                let Some(Item::Single { key, event }) = self.free_slot(slot_index) else {
                    unreachable!("just matched Single");
                };
                self.heap_swap_remove_root();
                Some((key, event))
            }
            Item::Batch { entries, next } => {
                let (key, event) = entries[*next].clone();
                *next += 1;
                if *next == entries.len() {
                    self.free_slot(slot_index);
                    self.heap_swap_remove_root();
                } else {
                    // The batch's key grew to its next entry: restore heap
                    // order by sifting the root down.
                    self.sift_down(0);
                }
                Some((key, event))
            }
        }
    }

    fn insert_item(&mut self, item: Item<E>) -> EventHandle {
        let index = match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                slot.item = Some(item);
                index
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("queue slot count fits in u32");
                self.slots.push(Slot { generation: 0, item: Some(item), heap_pos: 0 });
                index
            }
        };
        let pos = self.heap.len();
        self.heap.push(index);
        self.slots[index as usize].heap_pos = pos;
        self.sift_up(pos);
        EventHandle { index, generation: self.slots[index as usize].generation }
    }

    /// Clears a slot, advances its generation, returns its item and recycles
    /// the index. Does **not** touch the heap.
    fn free_slot(&mut self, index: u32) -> Option<Item<E>> {
        let slot = &mut self.slots[index as usize];
        let item = slot.item.take();
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(index);
        item
    }

    /// Removes the root from the heap, assuming its slot was already freed.
    fn heap_swap_remove_root(&mut self) {
        self.heap.swap_remove(0);
        if let Some(&moved) = self.heap.first() {
            self.slots[moved as usize].heap_pos = 0;
            self.sift_down(0);
        }
    }

    /// Removes the item at heap position `pos` (freeing its slot).
    fn remove_at(&mut self, pos: usize) {
        let slot_index = self.heap[pos];
        self.free_slot(slot_index);
        self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            self.slots[self.heap[pos] as usize].heap_pos = pos;
            // The swapped-in element may violate the heap in either
            // direction relative to its new neighbourhood.
            self.sift_up(pos);
            self.sift_down(pos);
        }
    }

    fn key_at(&self, pos: usize) -> EventKey {
        self.slots[self.heap[pos] as usize].item.as_ref().expect("occupied").key()
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slots[self.heap[a] as usize].heap_pos = a;
        self.slots[self.heap[b] as usize].heap_pos = b;
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.key_at(pos) >= self.key_at(parent) {
                break;
            }
            self.heap_swap(pos, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let smallest_child =
                if right < self.heap.len() && self.key_at(right) < self.key_at(left) {
                    right
                } else {
                    left
                };
            if self.key_at(pos) <= self.key_at(smallest_child) {
                break;
            }
            self.heap_swap(pos, smallest_child);
            pos = smallest_child;
        }
    }
}

/// The context a [`Component`] interacts with the engine through during one
/// event dispatch.
#[derive(Debug)]
pub struct ComponentContext<Em> {
    id: u32,
    now: Timestamp,
    emissions: Vec<Em>,
}

impl<Em> ComponentContext<Em> {
    /// The dispatched component's identifier.
    pub fn component_id(&self) -> u32 {
        self.id
    }

    /// The engine's current time (= the dispatched event's time).
    pub fn time(&self) -> Timestamp {
        self.now
    }

    /// Queues an emission — a reaction the engine interprets after the
    /// callback returns (a transmission, a timer request, …).
    pub fn emit(&mut self, emission: Em) {
        self.emissions.push(emission);
    }
}

/// A user-defined simulation component: one per `target` id, receiving the
/// events addressed to it in [`EventKey`] order.
pub trait Component {
    /// The event payload type delivered to this component.
    type Event: EventPayload;
    /// What the component emits in reaction to an event; interpreted by the
    /// layer driving the [`SimCore`].
    type Emission;
    /// Read-only environment handed to every dispatch (e.g. the component's
    /// current neighbour list). Passed per call rather than cached so the
    /// driving layer can mutate it between events.
    type Env: ?Sized;

    /// Handles one event addressed to this component.
    fn on_event(
        &mut self,
        ctx: &mut ComponentContext<Self::Emission>,
        env: &Self::Env,
        event: Self::Event,
    );
}

/// The generic engine: a set of [`Component`]s plus one [`EventQueue`],
/// stepped by a driving layer that interprets popped events and emissions.
///
/// The core does **not** run a loop of its own — the domain layer (e.g.
/// [`crate::sim::Simulator`]) pops events, applies engine-side effects
/// (energy accounting, statistics), dispatches to components and interprets
/// their emissions. That split keeps this type free of any WSN knowledge.
pub struct SimCore<C: Component> {
    components: BTreeMap<u32, C>,
    queue: EventQueue<C::Event>,
    now: Timestamp,
    events_processed: u64,
    /// Per-component emission counters: the `source_seq` of the next event a
    /// component causes. Monotone per component, never reused.
    emission_seqs: BTreeMap<u32, u64>,
    /// Counter behind [`EXTERNAL_SOURCE`] keys.
    external_seq: u64,
}

impl<C: Component> SimCore<C> {
    /// Creates an empty core at time zero.
    pub fn new() -> Self {
        SimCore {
            components: BTreeMap::new(),
            queue: EventQueue::new(),
            now: Timestamp::ZERO,
            events_processed: 0,
            emission_seqs: BTreeMap::new(),
            external_seq: 0,
        }
    }

    /// Adds (or replaces) a component.
    pub fn insert_component(&mut self, id: u32, component: C) {
        self.components.insert(id, component);
    }

    /// Removes a component; its queued events are silently skipped when they
    /// fire. Returns the component if it existed.
    pub fn remove_component(&mut self, id: u32) -> Option<C> {
        self.components.remove(&id)
    }

    /// Immutable access to a component.
    pub fn component(&self, id: u32) -> Option<&C> {
        self.components.get(&id)
    }

    /// Mutable access to a component.
    pub fn component_mut(&mut self, id: u32) -> Option<&mut C> {
        self.components.get_mut(&id)
    }

    /// Iterates over components in ascending id order.
    pub fn components(&self) -> impl Iterator<Item = (u32, &C)> {
        self.components.iter().map(|(id, c)| (*id, c))
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// The engine's current time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Forces the clock forward (used by `run_until`-style drivers to charge
    /// idle time up to a deadline). Never moves the clock backwards.
    pub fn advance_now(&mut self, to: Timestamp) {
        if to > self.now {
            self.now = to;
        }
    }

    /// Number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The event queue.
    pub fn queue(&self) -> &EventQueue<C::Event> {
        &self.queue
    }

    /// Mutable access to the event queue (for the driving layer's
    /// scheduling paths).
    pub fn queue_mut(&mut self) -> &mut EventQueue<C::Event> {
        &mut self.queue
    }

    /// The next emission `source_seq` of component `source`, advancing its
    /// counter. Counters are a pure function of the component's own event
    /// history, which is what makes keys reproducible across engine
    /// topologies (one queue or many regional queues).
    pub fn next_emission_seq(&mut self, source: u32) -> u64 {
        let seq = self.emission_seqs.entry(source).or_insert(0);
        let current = *seq;
        *seq += 1;
        current
    }

    /// Allocates `count` consecutive external sequence numbers and returns
    /// the first. External keys order harness-scheduled events (timers,
    /// batches, removal notifications) identically in every engine topology,
    /// provided the harness makes the same calls in the same order.
    pub fn alloc_external_seqs(&mut self, count: u64) -> u64 {
        let base = self.external_seq;
        self.external_seq = base + count;
        base
    }

    /// Pops the earliest event and advances the clock to it. The driving
    /// layer interprets the payload (and typically calls [`SimCore::dispatch`]).
    pub fn pop_event(&mut self) -> Option<(EventKey, C::Event)> {
        let (key, event) = self.queue.pop()?;
        debug_assert!(key.time >= self.now, "events must pop in time order");
        self.now = key.time;
        self.events_processed += 1;
        if wsn_obs::enabled() {
            OBS_EVENTS_POPPED.add(1);
            OBS_QUEUE_DEPTH.record(self.queue.len() as u64);
        }
        Some((key, event))
    }

    /// Dispatches an event to a component and returns its emissions (empty
    /// if the component does not exist — events to removed components are
    /// skipped silently).
    pub fn dispatch(&mut self, target: u32, env: &C::Env, event: C::Event) -> Vec<C::Emission> {
        let Some(component) = self.components.get_mut(&target) else {
            return Vec::new();
        };
        let mut ctx = ComponentContext { id: target, now: self.now, emissions: Vec::new() };
        component.on_event(&mut ctx, env, event);
        ctx.emissions
    }
}

impl<C: Component> Default for SimCore<C> {
    fn default() -> Self {
        SimCore::new()
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
    fn cancellation_removes_exactly_the_handled_event() {
        let mut q = EventQueue::new();
        let _a = q.push(key(10, 0), "a");
        let b = q.push(key(20, 1), "b");
        let _c = q.push(key(30, 2), "c");
        assert!(q.cancel(b));
        assert_eq!(drain(&mut q), vec![(10, "a"), (30, "c")]);
    }

    #[test]
    fn cancelling_twice_or_after_firing_is_a_stale_no_op() {
        let mut q = EventQueue::new();
        let a = q.push(key(10, 0), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "second cancel is stale");
        let b = q.push(key(20, 1), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(!q.cancel(b), "cancel after firing is stale");
    }

    #[test]
    fn handles_survive_slot_recycling() {
        let mut q = EventQueue::new();
        let a = q.push(key(10, 0), "a");
        assert!(q.cancel(a));
        // The freed slot is recycled for `b` with a bumped generation.
        let b = q.push(key(20, 1), "b");
        assert!(!q.cancel(a), "stale handle must not cancel the recycled slot");
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn cancelling_the_earliest_event_reheaps_correctly() {
        let mut q = EventQueue::new();
        let a = q.push(key(10, 0), "a");
        for (i, name) in [(2u64, "x"), (3, "y"), (4, "z"), (5, "w")] {
            q.push(key(10 * i, i), name);
        }
        assert!(q.cancel(a));
        assert_eq!(q.peek_key().unwrap().time, Timestamp::from_micros(20));
        assert_eq!(drain(&mut q).len(), 4);
    }

    #[test]
    fn batches_occupy_one_slot_and_self_advance() {
        let mut q = EventQueue::new();
        q.push(key(25, 9), "single");
        let entries: Vec<(EventKey, &str)> =
            (0..4).map(|i| (key(10 * (i + 1), i), "batch")).collect();
        q.push_batch(entries).unwrap();
        assert_eq!(q.len(), 2, "four batch entries share one slot");
        assert_eq!(q.pending_events(), 5);
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![(10, "batch"), (20, "batch"), (25, "single"), (30, "batch"), (40, "batch")]
        );
    }

    #[test]
    fn cancelling_a_batch_drops_its_remainder() {
        let mut q = EventQueue::new();
        let entries: Vec<(EventKey, u32)> =
            (0..3).map(|i| (key(10 * (i + 1), i), i as u32)).collect();
        let h = q.push_batch(entries).unwrap();
        assert_eq!(q.pop().unwrap().1, 0);
        assert!(q.cancel(h), "the advanced batch still cancels as one item");
        assert!(q.is_empty());
    }

    #[test]
    fn empty_batches_are_rejected_gracefully() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.push_batch(Vec::new()).is_none());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "ascending key")]
    fn unsorted_batches_panic() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let _ = q.push_batch(vec![(key(20, 0), 1), (key(10, 1), 2)]);
    }

    #[test]
    fn interleaved_push_pop_cancel_matches_a_reference_model() {
        // Randomised torture: the indexed heap must agree with a sorted-Vec
        // reference model under arbitrary interleavings.
        let mut rng = wsn_data::rng::SeededRng::seed_from_u64(2024);
        let mut q = EventQueue::new();
        let mut model: Vec<(EventKey, u64)> = Vec::new();
        let mut handles: Vec<(EventHandle, EventKey, u64)> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..2000 {
            match rng.gen_index(4) {
                0 | 1 => {
                    let k = key(rng.gen_range(0u64..500), seq);
                    let h = q.push(k, seq);
                    model.push((k, seq));
                    handles.push((h, k, seq));
                    seq += 1;
                }
                2 => {
                    let expected = model.iter().min().copied();
                    let got = q.pop();
                    match (expected, got) {
                        (None, None) => {}
                        (Some((mk, mv)), Some((gk, gv))) => {
                            assert_eq!((mk, mv), (gk, gv));
                            model.retain(|&(k, v)| (k, v) != (mk, mv));
                        }
                        other => panic!("model/queue disagree: {other:?}"),
                    }
                }
                _ => {
                    if !handles.is_empty() {
                        let (h, k, v) = handles.swap_remove(rng.gen_index(handles.len()));
                        let in_model = model.iter().any(|&(mk, mv)| (mk, mv) == (k, v));
                        assert_eq!(q.cancel(h), in_model);
                        model.retain(|&(mk, mv)| (mk, mv) != (k, v));
                    }
                }
            }
            assert_eq!(q.len(), model.len());
        }
        let mut rest: Vec<(EventKey, u64)> = std::iter::from_fn(|| q.pop()).collect();
        model.sort();
        rest.sort();
        assert_eq!(rest, model);
    }

    struct Echo {
        log: Vec<(Timestamp, u8)>,
    }

    impl Component for Echo {
        type Event = u8;
        type Emission = u8;
        type Env = str;

        fn on_event(&mut self, ctx: &mut ComponentContext<u8>, env: &str, event: u8) {
            assert_eq!(env, "env");
            self.log.push((ctx.time(), event));
            ctx.emit(event + 1);
        }
    }

    #[test]
    fn core_dispatches_components_and_collects_emissions() {
        let mut core: SimCore<Echo> = SimCore::new();
        core.insert_component(1, Echo { log: Vec::new() });
        let seq = core.alloc_external_seqs(2);
        assert_eq!((seq, core.alloc_external_seqs(1)), (0, 2));
        core.queue_mut()
            .push(EventKey::new(Timestamp::from_micros(5), CLASS_TIMER, EXTERNAL_SOURCE, 0, 1), 10);
        core.queue_mut()
            .push(EventKey::new(Timestamp::from_micros(9), CLASS_TIMER, EXTERNAL_SOURCE, 1, 7), 99);
        let (k, e) = core.pop_event().unwrap();
        assert_eq!(core.now(), Timestamp::from_micros(5));
        let emissions = core.dispatch(k.target, "env", e);
        assert_eq!(emissions, vec![11]);
        // Events to unknown components are skipped silently.
        let (k, e) = core.pop_event().unwrap();
        assert!(core.dispatch(k.target, "env", e).is_empty());
        assert_eq!(core.events_processed(), 2);
        assert_eq!(core.component(1).unwrap().log, vec![(Timestamp::from_micros(5), 10)]);
        assert_eq!(core.component_count(), 1);
        // Emission counters advance per component.
        assert_eq!(core.next_emission_seq(1), 0);
        assert_eq!(core.next_emission_seq(1), 1);
        assert_eq!(core.next_emission_seq(2), 0);
    }
}
