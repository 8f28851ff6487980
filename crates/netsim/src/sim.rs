//! The WSN domain layer of the simulator, built on the event queue.
//!
//! The simulator owns one [`Application`] instance per sensor and delivers
//! four kinds of events to it — start-up, timer expiry, message arrival and
//! neighbourhood change — in global [`EventKey`] order. Every transmission an
//! application requests is run through the MAC/radio model, charged to the
//! per-node energy meters, and scheduled for reception one airtime later.
//! The design mirrors how the paper's protocols are specified: entirely
//! event-driven, with all communication restricted to single-hop neighbours
//! (§4.2, §5.2).
//!
//! The simulator pops events from an [`EventQueue`] and dispatches them to
//! its applications itself. Three properties are engine-topology-independent
//! so the same `Simulator` can serve either as the whole simulation or as
//! one region of a [`crate::region`] partition:
//!
//! 1. **Intrinsic event order.** Events are ordered by `(time, class,
//!    source, source_seq, target)`, never by queue-insertion sequence.
//! 2. **Event-keyed packet loss.** The loss model's RNG is derived per
//!    transmission from `(seed, sender, sender's emission counter)` instead
//!    of a single shared stream, so the outcome of a transmission does not
//!    depend on which other transmissions happened to be sampled before it.
//! 3. **Reception-time effects.** Receive energy and the overheard/dropped
//!    counters are charged when the reception event *fires* at the receiver
//!    (one airtime after the transmission), not when the sender transmits —
//!    a receiver may live in a different region than the sender.

use crate::energy::{EnergyMeter, EnergyModel};
use crate::event::{
    EventKey, EventQueue, CLASS_CONTROL, CLASS_RECEPTION, CLASS_START, CLASS_TIMER, EXTERNAL_SOURCE,
};
use crate::fault::DutyCycle;
use crate::mac;
use crate::packet::{Destination, OutgoingPacket};
use crate::radio::RadioConfig;
use crate::stats::{NetworkStats, NodeStats};
use crate::topology::Topology;
use std::collections::BTreeMap;
use std::sync::Arc;
use wsn_data::rng::{SeededRng, SplitMix64};
use wsn_data::{Position, SensorId, Timestamp};

/// Telemetry ([`wsn_obs`]): fault-model activity — node deaths and (re)joins
/// applied to the simulation, and packets that arrived at duty-cycled
/// sleeping radios. On the partitioned backend a death/join is counted once,
/// by the coordinator, not once per region.
pub(crate) static OBS_NODE_DEATHS: wsn_obs::Counter = wsn_obs::Counter::new("sim.node_deaths");
pub(crate) static OBS_NODE_JOINS: wsn_obs::Counter = wsn_obs::Counter::new("sim.node_joins");
static OBS_DROPPED_ASLEEP: wsn_obs::Counter = wsn_obs::Counter::new("sim.dropped_asleep");
/// Telemetry: events popped across every engine in the process.
static OBS_EVENTS_POPPED: wsn_obs::Counter = wsn_obs::Counter::new("sim.events_popped");
/// Telemetry: entry depth of the engine's queue observed at each pop.
static OBS_QUEUE_DEPTH: wsn_obs::Histogram = wsn_obs::Histogram::new("sim.queue_depth");

/// Identifier an application assigns to a timer it sets.
pub type TimerId = u64;

/// A per-node protocol implementation run by the simulator.
///
/// All methods receive a [`NodeContext`] through which the application reads
/// its identity, the current time and its single-hop neighbourhood, and
/// queues transmissions and timers. Effects are applied by the simulator
/// after the callback returns.
pub trait Application {
    /// The message type exchanged between application instances.
    type Message: Clone;

    /// Called once at simulation start (the paper's "algorithm is
    /// initialized" event).
    fn on_start(&mut self, ctx: &mut NodeContext<Self::Message>);

    /// Called when a message from a single-hop neighbour is delivered.
    fn on_message(
        &mut self,
        ctx: &mut NodeContext<Self::Message>,
        from: SensorId,
        message: Self::Message,
    );

    /// Called when a timer previously set through the context expires.
    fn on_timer(&mut self, ctx: &mut NodeContext<Self::Message>, timer: TimerId);

    /// Called when the node's single-hop neighbourhood changes (a link or a
    /// neighbour went up or down — the paper's event (iv)).
    fn on_neighborhood_change(&mut self, ctx: &mut NodeContext<Self::Message>) {
        let _ = ctx;
    }
}

/// The interface an application uses to interact with the simulated world
/// during a callback.
#[derive(Debug)]
pub struct NodeContext<M> {
    id: SensorId,
    now: Timestamp,
    /// Shared handle into the simulator's adjacency cache — no per-event
    /// allocation.
    neighbors: Arc<Vec<SensorId>>,
    outgoing: Vec<OutgoingPacket<M>>,
    timers: Vec<(u64, TimerId)>,
}

impl<M> NodeContext<M> {
    /// This node's identifier.
    pub fn id(&self) -> SensorId {
        self.id
    }

    /// The current simulation time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The node's current single-hop neighbours.
    pub fn neighbors(&self) -> &[SensorId] {
        &self.neighbors
    }

    /// Queues a single-hop broadcast of `payload` occupying `payload_bytes`
    /// bytes on the air.
    pub fn broadcast(&mut self, payload: M, payload_bytes: usize) {
        self.outgoing.push(OutgoingPacket::broadcast(payload, payload_bytes));
    }

    /// Queues a link-layer unicast to a neighbour. If `to` is not currently
    /// within radio range the transmission still occupies the channel and
    /// costs energy, but nothing is delivered.
    pub fn unicast(&mut self, to: SensorId, payload: M, payload_bytes: usize) {
        self.outgoing.push(OutgoingPacket::unicast(to, payload, payload_bytes));
    }

    /// Schedules `timer` to fire `delay_micros` microseconds from now.
    pub fn set_timer_after_micros(&mut self, delay_micros: u64, timer: TimerId) {
        self.timers.push((delay_micros, timer));
    }

    /// Schedules `timer` to fire `delay_secs` seconds from now.
    pub fn set_timer_after_secs(&mut self, delay_secs: f64, timer: TimerId) {
        self.set_timer_after_micros((delay_secs * 1e6).round() as u64, timer);
    }
}

/// Simulation-wide configuration.
///
/// The derived default is the paper's setup: `paper_default` radio,
/// Crossbow-mote energy model, seed 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimConfig {
    /// Radio / channel model.
    pub radio: RadioConfig,
    /// Energy model charged for radio activity.
    pub energy: EnergyModel,
    /// Seed of the simulation's random number generator (packet loss).
    pub seed: u64,
}

/// One entry of a pre-planned timer batch: fire `timer` at `node` at `time`.
pub type BatchTimerEntry = (Timestamp, SensorId, TimerId);

/// The payload of a queued event. The engine interprets the accounting
/// fields of `Reception`; an application only ever sees receptions that
/// carry a payload.
pub(crate) enum NetEvent<M> {
    /// The node's start-up event.
    Start,
    /// An expiring timer.
    Timer(TimerId),
    /// A radio reception, one airtime after its transmission. `payload` is
    /// `None` for overheard / lost packets, which cost receive energy and
    /// count in the overheard (and possibly dropped) statistics but deliver
    /// nothing to the application. The payload is interned behind an
    /// [`Arc`]: one transmission heard by `r` receivers queues `r` handles
    /// to a single allocation instead of `r` deep copies.
    Reception {
        from: SensorId,
        payload: Option<Arc<M>>,
        payload_bytes: usize,
        airtime_secs: f64,
        dropped: bool,
    },
    /// The node's single-hop neighbourhood changed.
    NeighborhoodChanged,
}

/// The discrete-event simulator: the owned nodes' applications, one
/// [`EventQueue`], the clock and the counters that key every event it
/// schedules.
///
/// A `Simulator` is the region engine of a
/// [`crate::region::PartitionedSimulator`], the engine experiment drivers
/// hold: it runs the *owned* subset of the network. A region holds the full
/// [`Topology`] (needed to compute every transmission's fan-out) but
/// applications, energy meters and statistics only for its owned nodes;
/// receptions addressed to nodes owned elsewhere are diverted to an outbox
/// the partition coordinator routes at epoch barriers. A one-region
/// partition ([`crate::region::SimBackend::Sequential`]) owns every node.
/// Built with [`Simulator::new`], it runs the whole network on its own:
/// the equality oracle of the partition's tests.
pub struct Simulator<A: Application> {
    config: SimConfig,
    topology: Topology,
    /// Per-node neighbour lists, derived from the topology once and shared
    /// with every [`NodeContext`]; rebuilt only on topology changes.
    adjacency: BTreeMap<SensorId, Arc<Vec<SensorId>>>,
    /// The owned nodes' applications; events addressed to an absent
    /// (removed) node are skipped silently.
    apps: BTreeMap<SensorId, A>,
    queue: EventQueue<NetEvent<A::Message>>,
    now: Timestamp,
    events_processed: u64,
    /// Per-node emission counters: the `source_seq` of the next event a node
    /// causes. A pure function of the node's own event history, which makes
    /// keys reproducible across engine topologies (one queue or many).
    emission_seqs: BTreeMap<SensorId, u64>,
    /// Counter behind [`EXTERNAL_SOURCE`] keys: harness-scheduled events
    /// key identically in every engine topology, provided the harness makes
    /// the same calls in the same order.
    external_seq: u64,
    meters: BTreeMap<SensorId, EnergyMeter>,
    node_stats: BTreeMap<SensorId, NodeStats>,
    pending_deliveries: usize,
    /// Receptions addressed to nodes this engine does not own, keyed and
    /// ready for the coordinator to inject into the owner's queue.
    outbox: Vec<(EventKey, NetEvent<A::Message>)>,
    /// Per-node radio duty cycles (empty = everyone always on), shared by
    /// every region of a partitioned run. Sleep is evaluated at reception
    /// time in the receiver's owning engine, so the map being identical
    /// everywhere keeps the backends bit-identical.
    duty_cycles: Arc<BTreeMap<SensorId, DutyCycle>>,
    /// Gilbert–Elliott channel memory for this engine's senders. A sender's
    /// transmissions are computed by exactly one engine in emission order,
    /// so per-region channel maps walk the same chains as one global map.
    link_channels: mac::LinkChannels,
}

impl<A: Application> Simulator<A> {
    /// Builds a simulator over `topology`, constructing one application per
    /// sensor with `make_app`, and schedules every node's start event at
    /// time zero.
    pub fn new(config: SimConfig, topology: Topology, make_app: impl FnMut(SensorId) -> A) -> Self {
        let ids = topology.sensor_ids();
        let mut sim = Self::new_owned(config, topology, ids.clone(), make_app);
        let base = sim.alloc_external_seqs(ids.len() as u64);
        for (i, id) in ids.into_iter().enumerate() {
            let key = EventKey::new(
                Timestamp::ZERO,
                CLASS_START,
                EXTERNAL_SOURCE,
                base + i as u64,
                id.raw(),
            );
            sim.queue.push(key, NetEvent::Start);
        }
        sim
    }

    /// Builds a simulator that owns only `owned` (applications, meters and
    /// statistics), while carrying the full `topology` for fan-out
    /// computation. Schedules **no** start events and allocates **no**
    /// external sequence numbers — the partition coordinator does both, with
    /// one shared counter, so event keys come out identical to the
    /// sequential engine's.
    pub(crate) fn new_owned(
        config: SimConfig,
        topology: Topology,
        owned: impl IntoIterator<Item = SensorId>,
        mut make_app: impl FnMut(SensorId) -> A,
    ) -> Self {
        let adjacency = Self::build_adjacency(&topology);
        let mut apps = BTreeMap::new();
        let mut meters = BTreeMap::new();
        let mut node_stats = BTreeMap::new();
        for id in owned {
            apps.insert(id, make_app(id));
            meters.insert(id, EnergyMeter::new());
            node_stats.insert(id, NodeStats::default());
        }
        Simulator {
            config,
            topology,
            adjacency,
            apps,
            queue: EventQueue::new(),
            now: Timestamp::ZERO,
            events_processed: 0,
            emission_seqs: BTreeMap::new(),
            external_seq: 0,
            meters,
            node_stats,
            pending_deliveries: 0,
            outbox: Vec::new(),
            duty_cycles: Arc::new(BTreeMap::new()),
            link_channels: mac::LinkChannels::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Installs the per-node radio duty cycles. Nodes without an entry are
    /// always awake. The map is shared ([`Arc`]) so a partitioned run hands
    /// the identical schedule to every region; sleep is evaluated at
    /// reception time as a pure function of `(cycle, event time)`, keeping
    /// the backends bit-identical.
    pub fn set_duty_cycles(&mut self, cycles: Arc<BTreeMap<SensorId, DutyCycle>>) {
        self.duty_cycles = cycles;
    }

    /// The communication topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Immutable access to a node's application.
    pub fn app(&self, id: SensorId) -> Option<&A> {
        self.apps.get(&id)
    }

    /// Mutable access to a node's application.
    pub(crate) fn app_mut(&mut self, id: SensorId) -> Option<&mut A> {
        self.apps.get_mut(&id)
    }

    /// Iterates over all applications in ascending node order.
    pub fn apps(&self) -> impl Iterator<Item = (SensorId, &A)> {
        self.apps.iter().map(|(id, app)| (*id, app))
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of payload-carrying transmissions currently in flight
    /// (scheduled deliveries).
    pub fn messages_in_flight(&self) -> usize {
        self.pending_deliveries
    }

    /// Number of queue entries (a timer batch counts as one however many
    /// events it still carries).
    pub fn queued_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedules a timer for `node` at absolute time `at` from outside the
    /// application (used by harnesses to drive sampling rounds).
    pub fn schedule_timer(&mut self, node: SensorId, at: Timestamp, timer: TimerId) {
        let seq = self.alloc_external_seqs(1);
        let key = EventKey::new(at, CLASS_TIMER, EXTERNAL_SOURCE, seq, node.raw());
        self.queue.push(key, NetEvent::Timer(timer));
    }

    /// Schedules a whole batch of timers behind a **single** queue entry.
    ///
    /// The entries must be sorted by ascending time (equal times fire in
    /// vector order); the batch dispatches them one by one, re-queuing
    /// itself at the next entry's time after each dispatch, so an arbitrary
    /// per-round fan-out (one sampling timer per node, say) never occupies
    /// more than one slot in the event heap. Entries addressed to nodes
    /// removed before their time are skipped silently, exactly like an
    /// ordinary timer of a removed node.
    ///
    /// # Panics
    ///
    /// Panics if the entries are not sorted by time.
    pub fn schedule_timer_batch(&mut self, entries: Vec<BatchTimerEntry>) {
        assert!(
            entries.windows(2).all(|pair| pair[0].0 <= pair[1].0),
            "timer batch entries must be sorted by ascending time"
        );
        if entries.is_empty() {
            return;
        }
        let base = self.alloc_external_seqs(entries.len() as u64);
        let keyed = Self::keyed_batch(&entries, base);
        self.queue.push_batch(keyed);
    }

    /// Derives the event keys of a timer batch from its external base
    /// sequence. Time-sorted entries yield key-sorted events because the
    /// sequence numbers ascend with the entry index.
    pub(crate) fn keyed_batch(
        entries: &[BatchTimerEntry],
        base_seq: u64,
    ) -> Vec<(EventKey, NetEvent<A::Message>)> {
        entries
            .iter()
            .enumerate()
            .map(|(i, (time, node, timer))| {
                let key = EventKey::new(
                    *time,
                    CLASS_TIMER,
                    EXTERNAL_SOURCE,
                    base_seq + i as u64,
                    node.raw(),
                );
                (key, NetEvent::Timer(*timer))
            })
            .collect()
    }

    /// Removes a node from the simulation: its application stops receiving
    /// events and every remaining neighbour is notified through
    /// [`Application::on_neighborhood_change`] (the paper's link-down
    /// event). The notifications are ordinary control-class events at the
    /// current time, delivered by the event core on the next run.
    ///
    /// Only the adjacency entries of the removed node and its former
    /// neighbours are re-derived; the rest of the cached neighbour lists are
    /// untouched, so a node failure costs `O(degree)` map updates instead of
    /// a full rebuild over every sensor.
    pub fn remove_node(&mut self, id: SensorId) {
        OBS_NODE_DEATHS.add(1);
        let former_neighbors = self.remove_node_local(id);
        let base = self.alloc_external_seqs(former_neighbors.len() as u64);
        let now = self.now;
        for (i, n) in former_neighbors.into_iter().enumerate() {
            let key = EventKey::new(now, CLASS_CONTROL, EXTERNAL_SOURCE, base + i as u64, n.raw());
            self.queue.push(key, NetEvent::NeighborhoodChanged);
        }
    }

    /// Adds (or re-adds) a node to the simulation — the dual of
    /// [`Simulator::remove_node`], modelling a late join or a rejoin after
    /// battery death. The node appears at `position`, running `app`; it
    /// receives an [`Application::on_start`] event at the current time, and
    /// every new neighbour is notified through
    /// [`Application::on_neighborhood_change`]. Returns the node's new
    /// single-hop neighbours in ascending order.
    ///
    /// A *rejoining* node (same id as a previously removed one) keeps its
    /// accumulated energy meter and link statistics — the battery history of
    /// the mote, not of the software instance.
    pub fn add_node(&mut self, id: SensorId, position: Position, app: A) -> Vec<SensorId> {
        OBS_NODE_JOINS.add(1);
        let new_neighbors = self.add_node_local(id, position, Some(app));
        let base = self.alloc_external_seqs(1 + new_neighbors.len() as u64);
        let now = self.now;
        let start = EventKey::new(now, CLASS_START, EXTERNAL_SOURCE, base, id.raw());
        self.queue.push(start, NetEvent::Start);
        for (i, n) in new_neighbors.iter().enumerate() {
            let key =
                EventKey::new(now, CLASS_CONTROL, EXTERNAL_SOURCE, base + 1 + i as u64, n.raw());
            self.queue.push(key, NetEvent::NeighborhoodChanged);
        }
        new_neighbors
    }

    /// The topology/adjacency/application surgery of [`Simulator::add_node`],
    /// without the notification events — the dual of
    /// [`Simulator::remove_node_local`]. `app` is `None` on regions that do
    /// not own the joining node (they still need the topology patch for
    /// fan-out computation). Returns the new neighbours in ascending order.
    pub(crate) fn add_node_local(
        &mut self,
        id: SensorId,
        position: Position,
        app: Option<A>,
    ) -> Vec<SensorId> {
        let new_neighbors = self.topology.add_sensor(id, position);
        self.adjacency.insert(id, Arc::new(new_neighbors.clone()));
        for n in &new_neighbors {
            self.adjacency.insert(*n, Arc::new(self.topology.neighbors(*n)));
        }
        if let Some(app) = app {
            self.adopt_app(id, app);
        }
        new_neighbors
    }

    /// Installs `app` as the application of `id` and ensures the node has an
    /// energy meter and statistics entry. Both persist across a death →
    /// rejoin cycle (`or_insert`/`or_default`), so accounting accumulates
    /// over the mote's whole lifetime on every backend identically.
    pub(crate) fn adopt_app(&mut self, id: SensorId, app: A) {
        self.apps.insert(id, app);
        self.meters.entry(id).or_default();
        self.node_stats.entry(id).or_default();
    }

    /// The topology/adjacency/application surgery of [`Simulator::remove_node`],
    /// without the notification events. Returns the former neighbours in
    /// ascending order; the caller (this engine, or the partition
    /// coordinator patching every region) schedules the notifications.
    pub(crate) fn remove_node_local(&mut self, id: SensorId) -> Vec<SensorId> {
        let former_neighbors = self.topology.neighbors(id);
        self.topology.remove_sensor(id);
        self.apps.remove(&id);
        self.adjacency.remove(&id);
        for n in &former_neighbors {
            self.adjacency.insert(*n, Arc::new(self.topology.neighbors(*n)));
        }
        former_neighbors
    }

    /// Runs the simulation until `deadline` (inclusive), processing every
    /// event scheduled up to that time. Advances the clock to `deadline`.
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, deadline: Timestamp) -> u64 {
        let mut processed = 0;
        while let Some(key) = self.queue.peek_key() {
            if key.time > deadline {
                break;
            }
            self.step();
            processed += 1;
        }
        self.advance_clock(deadline);
        processed
    }

    /// Runs until the event queue is completely drained or the next event
    /// lies beyond `deadline`. Returns `true` if the queue drained (the
    /// network is quiescent: no messages in flight and no timers pending).
    pub fn run_until_quiescent(&mut self, deadline: Timestamp) -> bool {
        while let Some(key) = self.queue.peek_key() {
            if key.time > deadline {
                return false;
            }
            self.step();
        }
        true
    }

    /// Processes the single earliest queued event, if any. Returns `false`
    /// when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((key, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(key.time >= self.now, "events must pop in time order");
        self.now = key.time;
        self.events_processed += 1;
        if wsn_obs::enabled() {
            OBS_EVENTS_POPPED.add(1);
            OBS_QUEUE_DEPTH.record(self.queue.len() as u64);
        }
        self.process(key, event);
        true
    }

    /// A snapshot of the per-node link counters and energy reports, with idle
    /// energy charged up to the current simulation time.
    pub fn network_stats(&self) -> NetworkStats {
        self.network_stats_at(self.now)
    }

    /// Like [`Simulator::network_stats`], but charging idle energy up to an
    /// explicit time — the partition coordinator passes the *global* clock so
    /// regions whose local clocks stopped at different last events still
    /// produce the idle totals the sequential engine would.
    pub(crate) fn network_stats_at(&self, at: Timestamp) -> NetworkStats {
        let mut stats = NetworkStats::default();
        let elapsed_secs = at.as_secs_f64();
        for (id, meter) in &self.meters {
            let mut report = meter.report();
            // Idle power is drawn for the whole run; the radio-active time is
            // negligible in comparison and the paper's idle draw (3 µW) makes
            // the distinction irrelevant at the reported precision.
            report.idle_joules += self.config.energy.idle_energy(elapsed_secs);
            stats.energy.insert(*id, report);
        }
        for (id, ns) in &self.node_stats {
            stats.nodes.insert(*id, *ns);
        }
        stats
    }

    // ------------------------------------------------------------------
    // Region hooks: the narrow surface the partition coordinator drives a
    // region through. All pub(crate); see crate::region for the protocol.
    // ------------------------------------------------------------------

    /// The time of the earliest queued event, if any.
    pub(crate) fn next_event_time(&self) -> Option<Timestamp> {
        self.queue.peek_key().map(|k| k.time)
    }

    /// Processes every queued event with `time < exclusive_bound` (one
    /// conservative epoch). Cross-region receptions generated inside the
    /// window land in the outbox.
    pub(crate) fn run_window(&mut self, exclusive_bound: Timestamp) {
        while let Some(key) = self.queue.peek_key() {
            if key.time >= exclusive_bound {
                break;
            }
            self.step();
        }
    }

    /// Injects an externally keyed event (a boundary reception routed from
    /// another region, or a coordinator-scheduled start/timer/control event).
    pub(crate) fn inject_keyed(&mut self, key: EventKey, event: NetEvent<A::Message>) {
        if matches!(&event, NetEvent::Reception { payload: Some(_), .. }) {
            self.pending_deliveries += 1;
        }
        self.queue.push(key, event);
    }

    /// Injects a pre-keyed timer batch (one queue slot).
    pub(crate) fn inject_batch(&mut self, entries: Vec<(EventKey, NetEvent<A::Message>)>) {
        self.queue.push_batch(entries);
    }

    /// Drains the receptions addressed to nodes owned by other regions.
    pub(crate) fn take_outbox(&mut self) -> Vec<(EventKey, NetEvent<A::Message>)> {
        std::mem::take(&mut self.outbox)
    }

    /// Moves the clock forward (never backwards) — the coordinator aligns
    /// every region on the global clock at deadlines.
    pub(crate) fn advance_clock(&mut self, to: Timestamp) {
        self.now = self.now.max(to);
    }

    /// Whether this engine owns `id` (executes its events and accounts its
    /// energy). Meters are created for owned nodes only and survive node
    /// removal, exactly like the accounting state they guard.
    fn owns(&self, id: SensorId) -> bool {
        self.meters.contains_key(&id)
    }

    /// Materialises the per-node neighbour lists shared by every dispatch.
    fn build_adjacency(topology: &Topology) -> BTreeMap<SensorId, Arc<Vec<SensorId>>> {
        topology.sensor_ids().into_iter().map(|id| (id, Arc::new(topology.neighbors(id)))).collect()
    }

    /// Applies one popped event: engine-side accounting first, then (when the
    /// event concerns the application) dispatch.
    fn process(&mut self, key: EventKey, event: NetEvent<A::Message>) {
        let target = SensorId(key.target);
        match event {
            NetEvent::Reception { from, payload, payload_bytes, airtime_secs, dropped } => {
                // A duty-cycled radio that is asleep at the reception instant
                // hears nothing at all: no receive energy, no overhearing, no
                // delivery. The check is a pure function of (plan, node,
                // event time), evaluated here — in the receiver's owning
                // engine — so both backends agree bit for bit.
                if let Some(cycle) = self.duty_cycles.get(&target) {
                    if !cycle.is_awake(key.time) {
                        if payload.is_some() {
                            self.pending_deliveries -= 1;
                        }
                        self.node_stats.entry(target).or_default().packets_dropped_asleep += 1;
                        OBS_DROPPED_ASLEEP.add(1);
                        return;
                    }
                }
                // Every in-range node pays receive energy (promiscuous
                // listening), whether or not the packet was addressed to it
                // or survived the loss model.
                if let Some(meter) = self.meters.get_mut(&target) {
                    meter.charge_rx(&self.config.energy, airtime_secs);
                }
                match payload {
                    Some(payload) => {
                        self.pending_deliveries -= 1;
                        if self.apps.contains_key(&target) {
                            let stats = self.node_stats.entry(target).or_default();
                            stats.packets_received += 1;
                            stats.bytes_received += payload_bytes as u64;
                            self.dispatch_event(
                                target,
                                NetEvent::Reception {
                                    from,
                                    payload: Some(payload),
                                    payload_bytes,
                                    airtime_secs,
                                    dropped,
                                },
                            );
                        }
                    }
                    None => {
                        let stats = self.node_stats.entry(target).or_default();
                        stats.packets_overheard += 1;
                        if dropped {
                            stats.packets_dropped += 1;
                        }
                    }
                }
            }
            other => self.dispatch_event(target, other),
        }
    }

    /// Dispatches an event to a node's application (skipped if the node is
    /// absent) and applies what it asked for: its packets first, then its
    /// timers, each drawing the node's next emission counter in that order.
    fn dispatch_event(&mut self, node: SensorId, event: NetEvent<A::Message>) {
        let Some(app) = self.apps.get_mut(&node) else {
            return;
        };
        let mut ctx = NodeContext {
            id: node,
            now: self.now,
            neighbors: self.adjacency.get(&node).cloned().unwrap_or_default(),
            outgoing: Vec::new(),
            timers: Vec::new(),
        };
        match event {
            NetEvent::Start => app.on_start(&mut ctx),
            NetEvent::Timer(timer) => app.on_timer(&mut ctx, timer),
            NetEvent::Reception { from, payload: Some(payload), .. } => {
                // The last receiver of an interned payload takes it by move;
                // earlier ones clone.
                let payload = Arc::try_unwrap(payload).unwrap_or_else(|shared| (*shared).clone());
                app.on_message(&mut ctx, from, payload);
            }
            // Payload-less receptions are pure accounting; `process` handles
            // them and never dispatches them.
            NetEvent::Reception { payload: None, .. } => {}
            NetEvent::NeighborhoodChanged => app.on_neighborhood_change(&mut ctx),
        }
        for packet in ctx.outgoing {
            self.transmit(node, packet);
        }
        for (delay_micros, timer) in ctx.timers {
            let at = self.now.advanced_by_micros(delay_micros);
            let seq = self.next_emission_seq(node);
            let key = EventKey::new(at, CLASS_TIMER, node.raw(), seq, node.raw());
            self.queue.push(key, NetEvent::Timer(timer));
        }
    }

    /// The next emission `source_seq` of `source`, advancing its counter.
    fn next_emission_seq(&mut self, source: SensorId) -> u64 {
        let seq = self.emission_seqs.entry(source).or_insert(0);
        let current = *seq;
        *seq += 1;
        current
    }

    /// Allocates `count` consecutive external sequence numbers and returns
    /// the first.
    fn alloc_external_seqs(&mut self, count: u64) -> u64 {
        let base = self.external_seq;
        self.external_seq += count;
        base
    }

    /// The loss model's RNG for one transmission, derived from the seed, the
    /// sender and the sender's emission counter. A pure function of the
    /// transmission's identity: the outcome is the same whether the network
    /// runs on one queue or on many regional queues.
    fn transmission_rng(&self, sender: SensorId, seq: u64) -> SeededRng {
        let mut mix = SplitMix64::new(
            self.config
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(sender.raw()))),
        );
        let keyed = mix.next_u64() ^ seq;
        SeededRng::seed_from_u64(SplitMix64::new(keyed).next_u64())
    }

    fn transmit(&mut self, sender: SensorId, packet: OutgoingPacket<A::Message>) {
        let OutgoingPacket { destination, payload, payload_bytes } = packet;
        let seq = self.next_emission_seq(sender);
        let mut rng = self.transmission_rng(sender, seq);
        let outcome = mac::transmit_with_channels(
            &self.topology,
            &self.config.radio,
            &mut rng,
            &mut self.link_channels,
            self.config.seed,
            sender,
            destination,
            payload_bytes,
        );
        // Sender pays transmit energy for the airtime and logs the packet.
        if let Some(meter) = self.meters.get_mut(&sender) {
            meter.charge_tx(&self.config.energy, outcome.airtime_secs);
        }
        let sender_stats = self.node_stats.entry(sender).or_default();
        sender_stats.packets_sent += 1;
        sender_stats.bytes_sent += payload_bytes as u64;
        // Schedule one reception per in-range node, one airtime out. All
        // receiver-side effects (energy, statistics, delivery) happen when
        // the reception fires — possibly in another region's engine.
        let payload = Arc::new(payload);
        let delivery_time = self.now.advanced_by_secs_f64(outcome.airtime_secs);
        for reception in outcome.receptions {
            let key = EventKey::new(
                delivery_time,
                CLASS_RECEPTION,
                sender.raw(),
                seq,
                reception.receiver.raw(),
            );
            let event = NetEvent::Reception {
                from: sender,
                payload: reception.delivers_payload.then(|| Arc::clone(&payload)),
                payload_bytes,
                airtime_secs: outcome.airtime_secs,
                dropped: reception.dropped,
            };
            if self.owns(reception.receiver) {
                if reception.delivers_payload {
                    self.pending_deliveries += 1;
                }
                self.queue.push(key, event);
            } else {
                self.outbox.push((key, event));
            }
        }

        // A destination that is not currently a neighbour simply never
        // receives the packet; the energy was still spent. Match the paper's
        // assumption that senders learn about undeliverable messages through
        // the link layer by notifying the application of a neighbourhood
        // change if it unicasts to a vanished neighbour. The notification is
        // sender-local and synchronous, so it is region-safe.
        if let Destination::Unicast(target) = destination {
            if !self.topology.are_neighbors(sender, target) {
                self.dispatch_event(sender, NetEvent::NeighborhoodChanged);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::LossModel;
    use wsn_data::stream::SensorSpec;
    use wsn_data::Position;

    /// A tiny flooding protocol used to exercise the engine: node 0 starts a
    /// flood; every node re-broadcasts the first copy it receives.
    struct Flood {
        is_origin: bool,
        seen: bool,
        received_from: Vec<SensorId>,
    }

    impl Flood {
        fn new(origin: bool) -> Self {
            Flood { is_origin: origin, seen: false, received_from: Vec::new() }
        }
    }

    impl Application for Flood {
        type Message = u32;

        fn on_start(&mut self, ctx: &mut NodeContext<u32>) {
            if self.is_origin {
                self.seen = true;
                ctx.broadcast(7, 10);
            }
        }

        fn on_message(&mut self, ctx: &mut NodeContext<u32>, from: SensorId, message: u32) {
            self.received_from.push(from);
            if !self.seen {
                self.seen = true;
                ctx.broadcast(message, 10);
            }
        }

        fn on_timer(&mut self, ctx: &mut NodeContext<u32>, _timer: TimerId) {
            ctx.broadcast(99, 10);
        }
    }

    fn chain_topology(n: u32) -> Topology {
        let specs: Vec<SensorSpec> = (0..n)
            .map(|i| SensorSpec::new(SensorId(i), Position::new(i as f64 * 5.0, 0.0)))
            .collect();
        Topology::from_specs(&specs, 6.0)
    }

    fn flood_sim(n: u32, config: SimConfig) -> Simulator<Flood> {
        Simulator::new(config, chain_topology(n), |id| Flood::new(id == SensorId(0)))
    }

    #[test]
    fn flood_reaches_every_node_on_a_chain() {
        let mut sim = flood_sim(5, SimConfig::default());
        assert!(sim.run_until_quiescent(Timestamp::from_secs(10)));
        for (id, app) in sim.apps() {
            assert!(app.seen, "node {id} did not receive the flood");
        }
        // Four hops of propagation happened after t=0.
        assert!(sim.now() > Timestamp::ZERO);
        assert_eq!(sim.messages_in_flight(), 0);
    }

    #[test]
    fn energy_is_charged_to_senders_and_listeners() {
        let mut sim = flood_sim(3, SimConfig::default());
        sim.run_until_quiescent(Timestamp::from_secs(10));
        let stats = sim.network_stats();
        // Every node broadcast exactly once.
        assert_eq!(stats.total_packets_sent(), 3);
        for (id, report) in &stats.energy {
            assert!(report.tx_joules > 0.0, "node {id} should have transmit energy");
            assert!(report.rx_joules > 0.0, "node {id} should have receive energy");
        }
        // The middle node hears both ends: its receive energy is the largest.
        let rx = |i: u32| stats.energy[&SensorId(i)].rx_joules;
        assert!(rx(1) >= rx(0));
        assert!(rx(1) >= rx(2));
    }

    #[test]
    fn receive_energy_exceeds_transmit_energy_with_crossbow_model() {
        // RX power > TX power and every broadcast is heard by >= 1 node, so
        // network-wide RX energy must exceed TX energy.
        let mut sim = flood_sim(5, SimConfig::default());
        sim.run_until_quiescent(Timestamp::from_secs(10));
        let stats = sim.network_stats();
        let tx: f64 = stats.tx_energy_per_node().iter().sum();
        let rx: f64 = stats.rx_energy_per_node().iter().sum();
        assert!(rx > tx);
    }

    #[test]
    fn total_loss_stops_the_flood_at_the_origin() {
        let config = SimConfig {
            radio: RadioConfig::paper_default().with_loss(LossModel::bernoulli(1.0)),
            ..Default::default()
        };
        let mut sim = flood_sim(4, config);
        sim.run_until_quiescent(Timestamp::from_secs(10));
        let reached = sim.apps().filter(|(_, a)| a.seen).count();
        assert_eq!(reached, 1, "only the origin has seen the flood");
        let stats = sim.network_stats();
        assert!(stats.total_packets_dropped() > 0);
        // Listeners still paid receive energy for the dropped packet.
        assert!(stats.energy[&SensorId(1)].rx_joules > 0.0);
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let config = SimConfig {
                radio: RadioConfig::paper_default().with_loss(LossModel::bernoulli(0.3)),
                seed,
                ..Default::default()
            };
            let mut sim = flood_sim(6, config);
            sim.run_until_quiescent(Timestamp::from_secs(10));
            let stats = sim.network_stats();
            (
                stats.total_packets_sent(),
                stats.total_packets_dropped(),
                sim.apps().filter(|(_, a)| a.seen).count(),
            )
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn run_until_advances_the_clock_even_without_events() {
        let mut sim = flood_sim(2, SimConfig::default());
        sim.run_until(Timestamp::from_secs(100));
        assert_eq!(sim.now(), Timestamp::from_secs(100));
        // Idle energy accrues with the clock.
        let stats = sim.network_stats();
        assert!(stats.energy[&SensorId(0)].idle_joules > 0.0);
    }

    #[test]
    fn externally_scheduled_timers_fire() {
        let mut sim = flood_sim(2, SimConfig::default());
        sim.run_until_quiescent(Timestamp::from_secs(1));
        let before = sim.network_stats().total_packets_sent();
        sim.schedule_timer(SensorId(1), Timestamp::from_secs(5), 42);
        sim.run_until(Timestamp::from_secs(6));
        let after = sim.network_stats().total_packets_sent();
        assert_eq!(after, before + 1, "the timer callback broadcast one packet");
    }

    #[test]
    fn removing_a_node_notifies_neighbors_and_stops_its_events() {
        let mut sim = flood_sim(3, SimConfig::default());
        sim.run_until_quiescent(Timestamp::from_secs(1));
        sim.remove_node(SensorId(1));
        assert!(sim.app(SensorId(1)).is_none());
        assert_eq!(sim.topology().len(), 2);
        // Timers scheduled for the removed node are ignored.
        sim.schedule_timer(SensorId(1), Timestamp::from_secs(2), 1);
        let sent_before = sim.network_stats().total_packets_sent();
        sim.run_until(Timestamp::from_secs(3));
        assert_eq!(sim.network_stats().total_packets_sent(), sent_before);
    }

    #[test]
    fn removal_notifications_are_delivered_as_control_events() {
        struct CountChanges {
            changes: u32,
        }
        impl Application for CountChanges {
            type Message = ();
            fn on_start(&mut self, _ctx: &mut NodeContext<()>) {}
            fn on_message(&mut self, _ctx: &mut NodeContext<()>, _from: SensorId, _m: ()) {}
            fn on_timer(&mut self, _ctx: &mut NodeContext<()>, _t: TimerId) {}
            fn on_neighborhood_change(&mut self, _ctx: &mut NodeContext<()>) {
                self.changes += 1;
            }
        }
        let mut sim = Simulator::new(SimConfig::default(), chain_topology(3), |_| CountChanges {
            changes: 0,
        });
        sim.run_until_quiescent(Timestamp::from_secs(1));
        sim.remove_node(SensorId(1));
        // The notification is an ordinary queued event at the current time…
        assert_eq!(sim.queued_events(), 2);
        sim.run_until(Timestamp::from_secs(1));
        // …delivered to both former neighbours, and only to them.
        assert_eq!(sim.app(SensorId(0)).unwrap().changes, 1);
        assert_eq!(sim.app(SensorId(2)).unwrap().changes, 1);
    }

    #[test]
    fn timer_batches_occupy_one_queue_slot_and_fire_in_order() {
        let mut sim = flood_sim(3, SimConfig::default());
        sim.run_until_quiescent(Timestamp::from_secs(1));
        let baseline = sim.network_stats().total_packets_sent();
        // Six timers (two rounds over three nodes) behind one queue entry.
        let entries: Vec<BatchTimerEntry> =
            (0..6).map(|i| (Timestamp::from_secs(10 + i), SensorId(i as u32 % 3), i)).collect();
        sim.schedule_timer_batch(entries);
        assert_eq!(sim.queued_events(), 1, "the whole fan-out is one queue entry");
        sim.run_until(Timestamp::from_secs(12));
        assert_eq!(sim.network_stats().total_packets_sent(), baseline + 3);
        // Besides the in-flight deliveries, the remaining entries still
        // share a single queue slot.
        assert_eq!(sim.queued_events() - sim.messages_in_flight(), 1);
        assert!(sim.run_until_quiescent(Timestamp::from_secs(60)));
        assert_eq!(sim.network_stats().total_packets_sent(), baseline + 6);
    }

    #[test]
    fn timer_batch_entries_for_removed_nodes_are_skipped() {
        let mut sim = flood_sim(3, SimConfig::default());
        sim.run_until_quiescent(Timestamp::from_secs(1));
        sim.schedule_timer_batch(vec![
            (Timestamp::from_secs(5), SensorId(1), 0),
            (Timestamp::from_secs(6), SensorId(2), 1),
        ]);
        sim.remove_node(SensorId(1));
        let before = sim.network_stats().total_packets_sent();
        assert!(sim.run_until_quiescent(Timestamp::from_secs(60)));
        // Only the surviving node's timer broadcast.
        assert_eq!(sim.network_stats().total_packets_sent(), before + 1);
    }

    #[test]
    fn empty_timer_batches_are_a_no_op() {
        let mut sim = flood_sim(2, SimConfig::default());
        sim.run_until_quiescent(Timestamp::from_secs(1));
        sim.schedule_timer_batch(Vec::new());
        assert_eq!(sim.queued_events(), 0);
    }

    #[test]
    #[should_panic(expected = "sorted by ascending time")]
    fn unsorted_timer_batches_are_rejected() {
        let mut sim = flood_sim(2, SimConfig::default());
        sim.schedule_timer_batch(vec![
            (Timestamp::from_secs(5), SensorId(0), 0),
            (Timestamp::from_secs(4), SensorId(1), 1),
        ]);
    }

    #[test]
    fn removing_a_node_patches_only_affected_adjacency_entries() {
        let mut sim = flood_sim(4, SimConfig::default());
        sim.run_until_quiescent(Timestamp::from_secs(10));
        let untouched = Arc::clone(&sim.adjacency[&SensorId(3)]);
        sim.remove_node(SensorId(1));
        assert!(!sim.adjacency.contains_key(&SensorId(1)));
        assert_eq!(sim.adjacency[&SensorId(0)].as_slice(), &[] as &[SensorId]);
        assert_eq!(sim.adjacency[&SensorId(2)].as_slice(), &[SensorId(3)]);
        // Node 3 was not adjacent to node 1: its cached list is reused as-is.
        assert!(Arc::ptr_eq(&untouched, &sim.adjacency[&SensorId(3)]));
    }

    #[test]
    fn quiescence_respects_the_deadline() {
        let mut sim = flood_sim(2, SimConfig::default());
        sim.schedule_timer(SensorId(0), Timestamp::from_secs(50), 9);
        // The timer at t=50 lies beyond the deadline: not quiescent.
        assert!(!sim.run_until_quiescent(Timestamp::from_secs(10)));
        assert!(sim.queued_events() > 0);
        assert!(sim.run_until_quiescent(Timestamp::from_secs(100)));
    }

    #[test]
    fn adding_a_node_schedules_start_and_notifies_new_neighbors() {
        struct Probe {
            starts: u32,
            changes: u32,
        }
        impl Application for Probe {
            type Message = ();
            fn on_start(&mut self, _ctx: &mut NodeContext<()>) {
                self.starts += 1;
            }
            fn on_message(&mut self, _ctx: &mut NodeContext<()>, _from: SensorId, _m: ()) {}
            fn on_timer(&mut self, _ctx: &mut NodeContext<()>, _t: TimerId) {}
            fn on_neighborhood_change(&mut self, _ctx: &mut NodeContext<()>) {
                self.changes += 1;
            }
        }
        let probe = || Probe { starts: 0, changes: 0 };
        let mut sim = Simulator::new(SimConfig::default(), chain_topology(3), |_| probe());
        sim.run_until_quiescent(Timestamp::from_secs(1));
        sim.remove_node(SensorId(1));
        sim.run_until(Timestamp::from_secs(1));
        let neighbors = sim.add_node(SensorId(1), Position::new(5.0, 0.0), probe());
        assert_eq!(neighbors, vec![SensorId(0), SensorId(2)]);
        sim.run_until(Timestamp::from_secs(1));
        assert_eq!(sim.app(SensorId(1)).unwrap().starts, 1, "the rejoined node restarted");
        // Former neighbours saw both the departure and the rejoin.
        assert_eq!(sim.app(SensorId(0)).unwrap().changes, 2);
        assert_eq!(sim.app(SensorId(2)).unwrap().changes, 2);
        assert_eq!(sim.topology().len(), 3);
        assert_eq!(sim.adjacency[&SensorId(1)].as_slice(), &[SensorId(0), SensorId(2)]);
    }

    #[test]
    fn a_rejoining_node_keeps_its_energy_and_link_history() {
        let mut sim = flood_sim(3, SimConfig::default());
        sim.run_until_quiescent(Timestamp::from_secs(1));
        let before = sim.network_stats();
        assert!(before.energy[&SensorId(1)].tx_joules > 0.0);
        assert_eq!(before.nodes[&SensorId(1)].packets_sent, 1);
        sim.remove_node(SensorId(1));
        sim.run_until(Timestamp::from_secs(1));
        sim.add_node(SensorId(1), Position::new(5.0, 0.0), Flood::new(false));
        assert!(sim.run_until_quiescent(Timestamp::from_secs(2)));
        let after = sim.network_stats();
        // The meter and counters survived the death → rejoin cycle: the
        // battery history belongs to the mote, not the software instance.
        assert_eq!(after.energy[&SensorId(1)].tx_joules, before.energy[&SensorId(1)].tx_joules);
        assert_eq!(after.nodes[&SensorId(1)].packets_sent, 1);
    }

    #[test]
    fn sleeping_receivers_hear_nothing_and_pay_nothing() {
        // Node 1 is permanently asleep (awake 0 µs of every 1000 µs): the
        // flood dies on the first hop, and the sleeping radio is charged no
        // receive energy for the transmission it never heard.
        let mut cycles = BTreeMap::new();
        cycles.insert(SensorId(1), DutyCycle::from_micros(1_000, 0, 0));
        let mut sim = flood_sim(3, SimConfig::default());
        sim.set_duty_cycles(Arc::new(cycles));
        assert!(sim.run_until_quiescent(Timestamp::from_secs(10)));
        assert!(!sim.app(SensorId(1)).unwrap().seen);
        assert!(!sim.app(SensorId(2)).unwrap().seen);
        let stats = sim.network_stats();
        assert_eq!(stats.nodes[&SensorId(1)].packets_dropped_asleep, 1);
        assert_eq!(stats.total_packets_dropped_asleep(), 1);
        assert_eq!(stats.energy[&SensorId(1)].rx_joules, 0.0);
        assert_eq!(sim.messages_in_flight(), 0, "the sleeping drop settled the delivery");
    }

    #[test]
    fn always_awake_duty_cycles_change_nothing() {
        let cycles: BTreeMap<SensorId, DutyCycle> =
            (0..5).map(|i| (SensorId(i), DutyCycle::from_micros(1_000, 1_000, 0))).collect();
        let mut sim = flood_sim(5, SimConfig::default());
        sim.set_duty_cycles(Arc::new(cycles));
        assert!(sim.run_until_quiescent(Timestamp::from_secs(10)));
        for (id, app) in sim.apps() {
            assert!(app.seen, "node {id} did not receive the flood");
        }
        assert_eq!(sim.network_stats().total_packets_dropped_asleep(), 0);
    }

    #[test]
    fn gilbert_elliott_loss_is_deterministic_in_the_simulator() {
        let run = |seed: u64| {
            let config = SimConfig {
                radio: RadioConfig::paper_default()
                    .with_loss(LossModel::gilbert_elliott(0.3, 0.3, 0.05, 0.95)),
                seed,
                ..Default::default()
            };
            let mut sim = flood_sim(6, config);
            sim.run_until_quiescent(Timestamp::from_secs(10));
            let stats = sim.network_stats();
            (
                stats.total_packets_sent(),
                stats.total_packets_dropped(),
                sim.apps().filter(|(_, a)| a.seen).count(),
            )
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn event_counters_track_processing() {
        let mut sim = flood_sim(3, SimConfig::default());
        assert_eq!(sim.events_processed(), 0);
        sim.run_until_quiescent(Timestamp::from_secs(10));
        // 3 start events + 1 origin broadcast delivered to 1 neighbour,
        // re-broadcast delivered to 2, final re-broadcast delivered to 1.
        assert!(sim.events_processed() >= 6);
        assert!(!sim.step(), "queue is drained");
    }
}
