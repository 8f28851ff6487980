//! Spatially partitioned parallel simulation.
//!
//! This is the top layer of the simulator stack (see [`crate::event`] for
//! the layer diagram): it tiles a deployment into rectangular regions sized
//! by the radio range, runs each region's event stream on its own
//! [`Simulator`] engine instance on a worker pool, and merges cross-region
//! transmissions deterministically at epoch barriers.
//! [`PartitionedSimulator`] is the one engine experiment drivers hold:
//! [`SimBackend::Sequential`] builds it with a single region, which owns
//! every node and runs its [`Simulator`] straight to each deadline, with
//! no epochs and no worker pool. Every region count produces **bit-for-bit
//! identical** results (estimates, energy floats, packet counters, hop
//! counts): the seeded property suite in `tests/property_partitioned_sim.rs`
//! compares one region against several, and this module's tests compare
//! both against a plain [`Simulator::new`] run, the equality oracle.
//!
//! # The conservative epoch protocol
//!
//! The partition exploits the one irreducible latency of the radio model:
//! every cross-node effect is a reception scheduled **at least one packet
//! airtime** after its transmission (receive energy, overheard counters and
//! payload delivery all moved to reception time for exactly this reason).
//! With lookahead `Δ = airtime(0 payload bytes)`, the coordinator loops:
//!
//! 1. `t_min` ← the earliest pending event time across all regions;
//! 2. `bound` ← `min(t_min + Δ, deadline + 1 µs)` (exclusive);
//! 3. every region with events before `bound` runs them **in parallel** —
//!    receptions addressed to nodes owned elsewhere land in the region's
//!    outbox;
//! 4. barrier: outboxes are drained and routed into the owners' queues.
//!
//! No region can process an event at time `t < bound ≤ t_min + Δ` whose
//! cause (an event at some time `≥ t_min`) has not yet been routed to it,
//! because every cross-region effect is delayed by at least `Δ`. The
//! protocol is therefore *conservative*: nothing is ever rolled back.
//!
//! # Why the merge is deterministic
//!
//! Worker threads finish in arbitrary order, so boundary receptions arrive
//! at a region's queue in arbitrary order. Determinism survives because the
//! engine orders events by the **intrinsic** key `(time, class, source,
//! source_seq, target)` ([`crate::event::EventKey`]) rather than by
//! insertion order, packet-loss randomness is a pure function of the
//! transmission's identity (seed, sender, sender's emission counter), and
//! each node's state — application, energy meter, statistics — lives in
//! exactly one region and is touched only by that node's own events, in key
//! order. Per-node floating-point accumulation order is therefore identical
//! in both backends, which is what upgrades "statistically equal" to
//! "bit-for-bit equal".

use crate::event::{EventKey, CLASS_CONTROL, CLASS_START, CLASS_TIMER, EXTERNAL_SOURCE};
use crate::fault::DutyCycle;
use crate::sim::{Application, BatchTimerEntry, NetEvent, SimConfig, Simulator, TimerId};
use crate::stats::{NetworkStats, RegionStats};
use crate::topology::{extent, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wsn_data::{GridTiling, Position, SensorId, Timestamp};
use wsn_pool::WorkerPool;

/// Telemetry ([`wsn_obs`]): conservative epochs executed.
static OBS_EPOCHS: wsn_obs::Counter = wsn_obs::Counter::new("region.epochs");
/// Telemetry: events processed per epoch (across all runnable regions).
static OBS_EPOCH_EVENTS: wsn_obs::Histogram = wsn_obs::Histogram::new("region.epoch_events");
/// Telemetry: how many regions had work in each epoch.
static OBS_RUNNABLE: wsn_obs::Histogram = wsn_obs::Histogram::new("region.epoch_runnable_regions");
/// Telemetry: wall-clock time the coordinator spent joining pool jobs at the
/// epoch barrier (absent when regions ran inline on a single-core pool).
static OBS_BARRIER_STALL: wsn_obs::Histogram = wsn_obs::Histogram::new("region.barrier_stall_ns");
/// Telemetry: boundary receptions routed between regions at barriers.
static OBS_OUTBOX_ROUTED: wsn_obs::Counter = wsn_obs::Counter::new("region.outbox_routed");
/// Telemetry: per-epoch load imbalance, `100 × busiest-region events / mean`
/// over the runnable regions (100 = perfectly balanced).
static OBS_IMBALANCE_PCT: wsn_obs::Histogram =
    wsn_obs::Histogram::new("region.epoch_imbalance_pct");

/// Events carrying their definitive [`EventKey`], ready for queue injection.
type KeyedEvents<M> = Vec<(EventKey, NetEvent<M>)>;

/// How many regions an experiment driver's [`PartitionedSimulator`] tiles
/// the network into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// One region owning every node: its [`Simulator`] runs straight to
    /// each deadline, with no epochs and no worker pool.
    #[default]
    Sequential,
    /// Spatially partitioned regions run in parallel on a worker pool.
    Partitioned {
        /// Requested region count; the actual count may be lower when the
        /// deployment is too small for that many radio-range-sized tiles
        /// (see [`Partition::grid`]).
        regions: usize,
    },
}

impl SimBackend {
    /// The requested region count: 1 for [`SimBackend::Sequential`].
    pub fn regions(self) -> usize {
        match self {
            SimBackend::Sequential => 1,
            SimBackend::Partitioned { regions } => regions,
        }
    }
}

/// A spatial tiling of a topology into regions, with interior/boundary
/// classification.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Owned sensors per region, ascending within each region.
    regions: Vec<Vec<SensorId>>,
    /// Region index of every sensor.
    owner: BTreeMap<SensorId, usize>,
    /// Sensors with at least one single-hop neighbour in another region.
    boundary: BTreeSet<SensorId>,
    cols: usize,
    rows: usize,
}

impl Partition {
    /// Tiles the deployment into at most `target_regions` rectangular cells
    /// sized **no smaller than the radio range** along each axis, assigns
    /// every sensor to the cell containing it, and classifies sensors as
    /// interior or boundary (a boundary sensor has a neighbour owned by
    /// another region).
    ///
    /// The target is factorised into a near-square `cols × rows` grid and
    /// each axis is capped at `floor(extent / range)` cells, so small
    /// deployments produce fewer regions than requested — the equality
    /// contract holds for any region count, including one.
    ///
    /// # Panics
    ///
    /// Panics if `target_regions` is zero.
    pub fn grid(topology: &Topology, target_regions: usize) -> Self {
        assert!(target_regions > 0, "a partition needs at least one region");
        let ids = topology.sensor_ids();
        let positions: Vec<Position> = ids.iter().filter_map(|id| topology.position(*id)).collect();
        let (min_x, max_x) = extent(positions.iter().map(|p| p.x));
        let (min_y, max_y) = extent(positions.iter().map(|p| p.y));
        let width = (max_x - min_x).max(0.0);
        let height = (max_y - min_y).max(0.0);
        // Near-square factorisation: rows = the largest divisor of the
        // target not exceeding its square root.
        let mut rows_target = 1;
        for d in 1..=target_regions {
            if d * d > target_regions {
                break;
            }
            if target_regions % d == 0 {
                rows_target = d;
            }
        }
        let cols_target = target_regions / rows_target;
        // Cap each axis so a cell is never narrower than the radio range:
        // with one-radio-range cells, a sensor's neighbours live in its own
        // or an adjacent cell, which keeps the boundary band one cell thin.
        let range = topology.range_m().max(f64::EPSILON);
        let max_cols = ((width / range).floor() as usize).max(1);
        let max_rows = ((height / range).floor() as usize).max(1);
        // Orient the grid to the extent: more columns along the wider axis.
        let (cols_target, rows_target) = if (width >= height) == (cols_target >= rows_target) {
            (cols_target, rows_target)
        } else {
            (rows_target, cols_target)
        };
        let cols = cols_target.min(max_cols);
        let rows = rows_target.min(max_rows);
        let tiling = GridTiling::new(Position::new(min_x, min_y), width, height, cols, rows);
        // Assign sensors to cells, then drop empty cells so region indices
        // are dense.
        let mut by_cell: BTreeMap<usize, Vec<SensorId>> = BTreeMap::new();
        for id in &ids {
            let p = topology.position(*id).expect("id came from the topology");
            by_cell.entry(tiling.cell_of(&p)).or_default().push(*id);
        }
        let regions: Vec<Vec<SensorId>> = by_cell.into_values().collect();
        let owner: BTreeMap<SensorId, usize> = regions
            .iter()
            .enumerate()
            .flat_map(|(r, ids)| ids.iter().map(move |id| (*id, r)))
            .collect();
        let boundary: BTreeSet<SensorId> = ids
            .iter()
            .filter(|id| topology.neighbors_iter(**id).any(|n| owner.get(&n) != owner.get(id)))
            .copied()
            .collect();
        Partition { regions, owner, boundary, cols, rows }
    }

    /// Number of (non-empty) regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The sensors owned by each region, ascending within a region.
    pub fn regions(&self) -> &[Vec<SensorId>] {
        &self.regions
    }

    /// The region owning a sensor.
    pub fn owner(&self, id: SensorId) -> Option<usize> {
        self.owner.get(&id).copied()
    }

    /// Sensors in ascending order with their owning region.
    pub fn owners(&self) -> impl Iterator<Item = (SensorId, usize)> + '_ {
        self.owner.iter().map(|(id, r)| (*id, *r))
    }

    /// Returns `true` if the sensor has a neighbour in another region.
    pub fn is_boundary(&self, id: SensorId) -> bool {
        self.boundary.contains(&id)
    }

    /// Number of boundary sensors.
    pub fn boundary_count(&self) -> usize {
        self.boundary.len()
    }

    /// Number of interior sensors (no cross-region neighbours).
    pub fn interior_count(&self) -> usize {
        self.owner.len() - self.boundary.len()
    }

    /// The tiling's column/row shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Adopts a sensor the original tiling did not contain (a late joiner)
    /// into `region`. The interior/boundary classification is **not**
    /// recomputed — it describes the initial tiling and is used for
    /// diagnostics only.
    pub(crate) fn adopt(&mut self, id: SensorId, region: usize) {
        debug_assert!(!self.owner.contains_key(&id), "adopt is for previously unowned sensors");
        self.owner.insert(id, region);
        if let Err(pos) = self.regions[region].binary_search(&id) {
            self.regions[region].insert(pos, id);
        }
    }
}

/// The spatially partitioned parallel engine.
///
/// Each region is a full [`Simulator`] owning the applications, meters and
/// statistics of its sensors (and a copy of the whole topology for fan-out
/// computation). The coordinator owns the external event-sequence counter —
/// it makes exactly the same allocations, in the same order, as a plain
/// [`Simulator`]'s constructor and scheduling methods, so every event
/// carries the same key whatever the region count.
///
/// With two or more regions the engine runs them on a **dedicated** worker
/// pool rather than the process-global one: harnesses routinely run whole
/// simulations *as jobs on* the global pool (seed sweeps), and joining
/// same-pool jobs from inside a worker would deadlock. A single region has
/// no pool and no epochs: it runs its [`Simulator`] straight to each
/// deadline.
pub struct PartitionedSimulator<A>
where
    A: Application + Send + 'static,
    A::Message: Send + Sync,
{
    /// One engine per region; `None` only transiently while a region is out
    /// on the worker pool.
    regions: Vec<Option<Simulator<A>>>,
    partition: Partition,
    /// The regions' worker pool; `None` for a single region.
    pool: Option<WorkerPool>,
    config: SimConfig,
    /// Conservative lookahead: the airtime of a zero-payload packet, in µs.
    lookahead_micros: u64,
    /// The external event-sequence counter (start events, external timers,
    /// batches, removal notifications) — mirrors a plain [`Simulator`]'s.
    external_seq: u64,
    /// Global clock: the maximum of the regions' local clocks.
    now: Timestamp,
    /// Conservative epochs executed (diagnostics: parallel efficiency is
    /// roughly events-per-epoch against the per-epoch barrier cost).
    epochs: u64,
    /// Boundary receptions each region routed out at epoch barriers
    /// (feeds [`RegionStats::boundary_crossings`]).
    outbox_routed: Vec<u64>,
}

impl<A> PartitionedSimulator<A>
where
    A: Application + Send + 'static,
    A::Message: Send + Sync,
{
    /// Builds a partitioned simulator over `topology` with (at most)
    /// `target_regions` regions, constructing applications with `make_app`
    /// in ascending id order — the same order as [`Simulator::new`] — and
    /// schedules every node's start event at time zero with the same event
    /// keys [`Simulator::new`] assigns.
    pub fn new(
        config: SimConfig,
        topology: Topology,
        target_regions: usize,
        mut make_app: impl FnMut(SensorId) -> A,
    ) -> Self {
        let partition = Partition::grid(&topology, target_regions);
        let ids = topology.sensor_ids();
        // Construct applications in global id order (make_app may be
        // stateful), then hand each region its own.
        let mut apps: BTreeMap<SensorId, A> = ids.iter().map(|id| (*id, make_app(*id))).collect();
        let regions: Vec<Option<Simulator<A>>> = partition
            .regions()
            .iter()
            .map(|owned| {
                Some(Simulator::new_owned(config, topology.clone(), owned.iter().copied(), |id| {
                    apps.remove(&id).expect("every owned id was constructed exactly once")
                }))
            })
            .collect();
        let lookahead_micros = ((config.radio.airtime_secs(0) * 1e6).round() as u64).max(1);
        let pool = (partition.region_count() > 1)
            .then(|| WorkerPool::new(partition.region_count().min(wsn_pool::default_size())));
        let mut sim = PartitionedSimulator {
            regions,
            outbox_routed: vec![0; partition.region_count()],
            partition,
            pool,
            config,
            lookahead_micros,
            external_seq: 0,
            now: Timestamp::ZERO,
            epochs: 0,
        };
        // Start events: identical keys to Simulator::new.
        let base = sim.alloc_external_seqs(ids.len() as u64);
        for (i, id) in ids.into_iter().enumerate() {
            let key = EventKey::new(
                Timestamp::ZERO,
                CLASS_START,
                EXTERNAL_SOURCE,
                base + i as u64,
                id.raw(),
            );
            sim.inject(id, key, NetEvent::Start);
        }
        sim
    }

    /// The partition the simulator runs on.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of regions executing in parallel.
    pub fn region_count(&self) -> usize {
        self.partition.region_count()
    }

    /// Current (global) simulation time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The communication topology (every region holds an identical,
    /// identically patched copy; the first one answers).
    pub fn topology(&self) -> &Topology {
        self.region(0).topology()
    }

    /// Immutable access to a node's application, wherever it lives.
    pub fn app(&self, id: SensorId) -> Option<&A> {
        let r = self.partition.owner(id)?;
        self.region(r).app(id)
    }

    /// Number of conservative epochs the coordinator has run.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Total events processed across all regions.
    pub fn events_processed(&self) -> u64 {
        (0..self.regions.len()).map(|r| self.region(r).events_processed()).sum()
    }

    /// Payload-carrying transmissions currently in flight across all
    /// regions (outboxes are always drained between epochs).
    pub fn messages_in_flight(&self) -> usize {
        (0..self.regions.len()).map(|r| self.region(r).messages_in_flight()).sum()
    }

    /// Runs the simulation until `deadline` (inclusive). Advances every
    /// region's clock (and the global clock) to `deadline`. Returns the
    /// number of events processed by this call.
    pub fn run_until(&mut self, deadline: Timestamp) -> u64 {
        let before = self.events_processed();
        self.drain_until(deadline);
        for region in &mut self.regions {
            region.as_mut().expect("region present").advance_clock(deadline);
        }
        if deadline > self.now {
            self.now = deadline;
        }
        self.events_processed() - before
    }

    /// Runs until every region is drained or the earliest pending event lies
    /// beyond `deadline`. Returns `true` if the network went quiescent (every
    /// region's queue drained), like [`Simulator::run_until_quiescent`]. The
    /// global clock stays at the last processed event, like a plain
    /// [`Simulator`]'s.
    pub fn run_until_quiescent(&mut self, deadline: Timestamp) -> bool {
        self.drain_until(deadline);
        (0..self.regions.len()).all(|r| self.region(r).next_event_time().is_none())
    }

    /// Schedules an external timer (same external key as
    /// [`Simulator::schedule_timer`] would assign), routed to the owner
    /// region.
    pub fn schedule_timer(&mut self, node: SensorId, at: Timestamp, timer: TimerId) {
        let seq = self.alloc_external_seqs(1);
        let key = EventKey::new(at, CLASS_TIMER, EXTERNAL_SOURCE, seq, node.raw());
        self.inject(node, key, NetEvent::Timer(timer));
    }

    /// Schedules a pre-sorted timer batch, split by owner region — each
    /// region's share occupies one queue slot, and every entry keeps the
    /// exact key [`Simulator::schedule_timer_batch`] gives it.
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
        let keyed = Simulator::<A>::keyed_batch(&entries, base);
        let mut per_region: BTreeMap<usize, KeyedEvents<A::Message>> = BTreeMap::new();
        for (i, keyed_entry) in keyed.into_iter().enumerate() {
            let node = entries[i].1;
            let r = self.partition.owner(node).unwrap_or(0);
            // A subsequence of a key-sorted list stays key-sorted.
            per_region.entry(r).or_default().push(keyed_entry);
        }
        for (r, share) in per_region {
            self.regions[r].as_mut().expect("region present").inject_batch(share);
        }
    }

    /// Removes a node from every region's topology copy and notifies its
    /// former neighbours with the same control events (same keys, same
    /// time) a plain [`Simulator`] schedules.
    pub fn remove_node(&mut self, id: SensorId) {
        crate::sim::OBS_NODE_DEATHS.add(1);
        let mut former = Vec::new();
        for region in &mut self.regions {
            former = region.as_mut().expect("region present").remove_node_local(id);
        }
        let base = self.alloc_external_seqs(former.len() as u64);
        let now = self.now;
        for (i, n) in former.into_iter().enumerate() {
            let key = EventKey::new(now, CLASS_CONTROL, EXTERNAL_SOURCE, base + i as u64, n.raw());
            self.inject(n, key, NetEvent::NeighborhoodChanged);
        }
    }

    /// Adds (or re-adds) a node: every region's topology copy is patched,
    /// the owner region adopts the application, and the node's start event
    /// plus the neighbour notifications are injected with the same keys (and
    /// the same external-sequence allocations) a plain [`Simulator`] assigns.
    ///
    /// A **rejoining** node goes back to its original owner region — its
    /// energy meter and statistics live there and must keep accumulating —
    /// while a node the initial tiling never contained is adopted by the
    /// region owning its first (lowest-id) neighbour, falling back to region
    /// 0 if it joins out of range of everyone.
    pub fn add_node(&mut self, id: SensorId, position: Position, app: A) -> Vec<SensorId> {
        crate::sim::OBS_NODE_JOINS.add(1);
        let mut new_neighbors = Vec::new();
        for region in &mut self.regions {
            new_neighbors =
                region.as_mut().expect("region present").add_node_local(id, position, None);
        }
        let owner = match self.partition.owner(id) {
            Some(r) => r,
            None => {
                let r = new_neighbors.first().and_then(|n| self.partition.owner(*n)).unwrap_or(0);
                self.partition.adopt(id, r);
                r
            }
        };
        self.regions[owner].as_mut().expect("region present").adopt_app(id, app);
        let base = self.alloc_external_seqs(1 + new_neighbors.len() as u64);
        let now = self.now;
        let start = EventKey::new(now, CLASS_START, EXTERNAL_SOURCE, base, id.raw());
        self.inject(id, start, NetEvent::Start);
        for (i, n) in new_neighbors.iter().enumerate() {
            let key =
                EventKey::new(now, CLASS_CONTROL, EXTERNAL_SOURCE, base + 1 + i as u64, n.raw());
            self.inject(*n, key, NetEvent::NeighborhoodChanged);
        }
        new_neighbors
    }

    /// Installs the per-node radio duty cycles: every region receives the
    /// identical shared map, and each evaluates sleep at reception time for
    /// the nodes it owns.
    pub fn set_duty_cycles(&mut self, cycles: Arc<BTreeMap<SensorId, DutyCycle>>) {
        for region in &mut self.regions {
            region.as_mut().expect("region present").set_duty_cycles(Arc::clone(&cycles));
        }
    }

    /// Network statistics merged across regions, with idle energy charged up
    /// to the **global** clock in every region (regions' local clocks stop at
    /// their own last event; a plain [`Simulator`] charges everyone up to
    /// the global last event).
    pub fn network_stats(&self) -> NetworkStats {
        let mut stats = NetworkStats::default();
        for r in 0..self.regions.len() {
            stats.merge(&self.region(r).network_stats_at(self.now));
        }
        stats
    }

    /// Like [`PartitionedSimulator::network_stats`], additionally filling
    /// the per-region aggregates ([`NetworkStats::regions`]): events
    /// processed by each region's engine and boundary receptions it routed
    /// out at epoch barriers. Kept out of the plain snapshot so that one
    /// stays field-for-field comparable with a plain [`Simulator`]'s (which
    /// has no regions to report).
    pub fn network_stats_by_region(&self) -> NetworkStats {
        let mut stats = self.network_stats();
        for r in 0..self.regions.len() {
            stats.regions.insert(
                r as u32,
                RegionStats {
                    events_processed: self.region(r).events_processed(),
                    boundary_crossings: self.outbox_routed[r],
                },
            );
        }
        stats
    }

    /// Iterates over every live application in ascending global id order,
    /// like [`Simulator::apps`] (regions own disjoint id sets; the owner map
    /// provides the global order).
    pub fn apps(&self) -> impl Iterator<Item = (SensorId, &A)> {
        self.partition.owners().filter_map(|(id, r)| self.region(r).app(id).map(|app| (id, app)))
    }

    /// Mutably visits every live application in ascending global id order.
    pub fn for_each_app_mut(&mut self, mut f: impl FnMut(SensorId, &mut A)) {
        for (id, r) in self.partition.owners() {
            if let Some(app) = self.regions[r].as_mut().expect("region present").app_mut(id) {
                f(id, app);
            }
        }
    }

    /// Processes every event with time ≤ `deadline` across all regions: in
    /// conservative epochs across two or more regions, straight through a
    /// single one.
    fn drain_until(&mut self, deadline: Timestamp) {
        let end = Timestamp::from_micros(deadline.as_micros().saturating_add(1));
        if let [Some(region)] = self.regions.as_mut_slice() {
            // One region owns every node, so no reception ever lands in an
            // outbox and no epoch bound is needed.
            region.run_window(end);
            self.now = self.now.max(region.now());
            return;
        }
        loop {
            let t_min =
                (0..self.regions.len()).filter_map(|r| self.region(r).next_event_time()).min();
            let Some(t_min) = t_min else { break };
            if t_min > deadline {
                break;
            }
            // Exclusive epoch bound: no region may run past the earliest
            // possible cross-region effect, nor past the deadline.
            let bound =
                Timestamp::from_micros(t_min.as_micros().saturating_add(self.lookahead_micros))
                    .min(end);
            self.epochs += 1;
            let runnable: Vec<usize> = (0..self.regions.len())
                .filter(|&r| self.region(r).next_event_time().is_some_and(|t| t < bound))
                .collect();
            // Telemetry (write-only; nothing below branches on it): snapshot
            // the runnable regions' event counters so the per-epoch deltas
            // can be histogrammed after the run.
            let obs_before: Vec<(usize, u64)> = if wsn_obs::enabled() {
                runnable.iter().map(|&r| (r, self.region(r).events_processed())).collect()
            } else {
                Vec::new()
            };
            let pool = self.pool.as_ref().filter(|pool| runnable.len() > 1 && pool.size() > 1);
            if let Some(pool) = pool {
                let jobs: Vec<(usize, wsn_pool::JobHandle<Simulator<A>>)> = runnable
                    .into_iter()
                    .map(|r| {
                        let mut region = self.regions[r].take().expect("region present");
                        (
                            r,
                            pool.submit(move || {
                                region.run_window(bound);
                                region
                            }),
                        )
                    })
                    .collect();
                let stall_start =
                    if wsn_obs::enabled() { Some(std::time::Instant::now()) } else { None };
                // Join in region index order: the order is irrelevant for
                // determinism (keys are intrinsic) but fixed for sanity.
                for (r, job) in jobs {
                    self.regions[r] = Some(job.join());
                }
                if let Some(t0) = stall_start {
                    OBS_BARRIER_STALL.record(t0.elapsed().as_nanos() as u64);
                }
            } else {
                // A lone runnable region — or a single-core pool, where a
                // worker round-trip buys nothing but context switches —
                // runs inline on the coordinator thread.
                for r in runnable {
                    self.regions[r].as_mut().expect("region present").run_window(bound);
                }
            }
            if wsn_obs::enabled() {
                OBS_EPOCHS.add(1);
                OBS_RUNNABLE.record(obs_before.len() as u64);
                let deltas: Vec<u64> = obs_before
                    .iter()
                    .map(|&(r, before)| self.region(r).events_processed() - before)
                    .collect();
                let total: u64 = deltas.iter().sum();
                OBS_EPOCH_EVENTS.record(total);
                if let Some(&max) = deltas.iter().max() {
                    if let Some(pct) = (max * deltas.len() as u64 * 100).checked_div(total) {
                        OBS_IMBALANCE_PCT.record(pct);
                    }
                }
            }
            // Barrier: route boundary receptions to their owner regions.
            for r in 0..self.regions.len() {
                let outbox = self.regions[r].as_mut().expect("region present").take_outbox();
                self.outbox_routed[r] += outbox.len() as u64;
                OBS_OUTBOX_ROUTED.add(outbox.len() as u64);
                for (key, event) in outbox {
                    debug_assert!(
                        key.time >= bound,
                        "cross-region events must land at or after the epoch bound"
                    );
                    self.inject(SensorId(key.target), key, event);
                }
            }
            for r in 0..self.regions.len() {
                let t = self.region(r).now();
                if t > self.now {
                    self.now = t;
                }
            }
        }
    }

    fn region(&self, r: usize) -> &Simulator<A> {
        self.regions[r].as_ref().expect("region present")
    }

    fn alloc_external_seqs(&mut self, count: u64) -> u64 {
        let base = self.external_seq;
        self.external_seq += count;
        base
    }

    fn inject(&mut self, node: SensorId, key: EventKey, event: NetEvent<A::Message>) {
        let r = self.partition.owner(node).unwrap_or(0);
        self.regions[r].as_mut().expect("region present").inject_keyed(key, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::{LossModel, RadioConfig};
    use crate::sim::NodeContext;
    use wsn_data::stream::SensorSpec;

    fn grid_topology(side: u32, spacing: f64, range: f64) -> Topology {
        let specs: Vec<SensorSpec> = (0..side * side)
            .map(|i| {
                let (r, c) = (i / side, i % side);
                SensorSpec::new(
                    SensorId(i),
                    Position::new(f64::from(c) * spacing, f64::from(r) * spacing),
                )
            })
            .collect();
        Topology::from_specs(&specs, range)
    }

    #[test]
    fn partition_covers_every_sensor_exactly_once() {
        let topo = grid_topology(6, 5.0, 6.0);
        let p = Partition::grid(&topo, 4);
        assert!(p.region_count() >= 2 && p.region_count() <= 4);
        let total: usize = p.regions().iter().map(|r| r.len()).sum();
        assert_eq!(total, 36);
        for id in topo.sensor_ids() {
            let r = p.owner(id).expect("every sensor has an owner");
            assert!(p.regions()[r].contains(&id));
        }
        assert_eq!(p.boundary_count() + p.interior_count(), 36);
        assert!(p.boundary_count() > 0, "a multi-region grid has a boundary band");
        assert!(p.interior_count() > 0, "a 6x6 grid at this range has interior sensors");
    }

    #[test]
    fn partition_caps_region_count_for_tiny_deployments() {
        // Three sensors in a 10 m row cannot host nine radio-range tiles.
        let topo = grid_topology(2, 5.0, 6.0);
        let p = Partition::grid(&topo, 9);
        assert!(p.region_count() <= 2);
        let (cols, rows) = p.shape();
        assert!(cols * rows <= 2);
    }

    #[test]
    fn boundary_sensors_are_exactly_those_with_foreign_neighbors() {
        let topo = grid_topology(4, 5.0, 6.0);
        let p = Partition::grid(&topo, 2);
        for id in topo.sensor_ids() {
            let expected = topo.neighbors_iter(id).any(|n| p.owner(n) != p.owner(id));
            assert_eq!(p.is_boundary(id), expected, "sensor {id}");
        }
    }

    /// The flood protocol from the engine tests, used here to compare
    /// engines bit-for-bit.
    #[derive(Clone)]
    struct Flood {
        is_origin: bool,
        seen: bool,
        received_from: Vec<SensorId>,
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

    fn flood_config(loss: LossModel, seed: u64) -> SimConfig {
        SimConfig {
            radio: RadioConfig::with_range(6.0).with_loss(loss),
            seed,
            ..Default::default()
        }
    }

    fn flood_app(id: SensorId) -> Flood {
        Flood { is_origin: id == SensorId(0), seen: false, received_from: Vec::new() }
    }

    /// Every live node's flood state, in the order the engine yields it.
    fn flood_states<'a>(
        apps: impl Iterator<Item = (SensorId, &'a Flood)>,
    ) -> Vec<(SensorId, bool, Vec<SensorId>)> {
        apps.map(|(id, app)| (id, app.seen, app.received_from.clone())).collect()
    }

    /// Drives one script against a plain [`Simulator`] (the oracle) and
    /// against partitions of one and four regions, then checks each
    /// partition against the oracle bit for bit: clock, topology, event
    /// count, statistics (exact float equality) and every node's flood
    /// state in global id order. A one-region partition must never enter
    /// the epoch loop. The engines share no trait, so the script is a
    /// block expanded once per engine, bound to `$sim`. Evaluates to the
    /// oracle.
    macro_rules! check_against_oracle {
        ($topology:expr, $config:expr, |$sim:ident| $script:block) => {{
            let topology: Topology = $topology;
            let config: SimConfig = $config;
            let mut oracle = Simulator::new(config, topology.clone(), flood_app);
            {
                let $sim = &mut oracle;
                $script
            }
            for regions in [1, 4] {
                let mut par =
                    PartitionedSimulator::new(config, topology.clone(), regions, flood_app);
                {
                    let $sim = &mut par;
                    $script
                }
                assert_eq!(par.region_count(), regions);
                if regions == 1 {
                    assert_eq!(par.epochs(), 0, "one region runs without epochs");
                } else {
                    assert!(par.epochs() > 0, "{regions} regions run in epochs");
                }
                assert_eq!(oracle.now(), par.now(), "regions={regions}");
                assert_eq!(oracle.topology().len(), par.topology().len(), "regions={regions}");
                assert_eq!(oracle.events_processed(), par.events_processed(), "regions={regions}");
                assert_eq!(oracle.network_stats(), par.network_stats(), "regions={regions}");
                assert_eq!(
                    flood_states(oracle.apps()),
                    flood_states(par.apps()),
                    "regions={regions}: apps are visited in global id order"
                );
            }
            oracle
        }};
    }

    #[test]
    fn partitioned_flood_matches_sequential_bit_for_bit() {
        for (loss, seed) in [
            (LossModel::Reliable, 0),
            (LossModel::bernoulli(0.3), 7),
            (LossModel::bernoulli(0.3), 8),
        ] {
            for regions in [1, 2, 4, 9] {
                let topo = grid_topology(6, 5.0, 6.0);
                let config = flood_config(loss, seed);
                let mut seq = Simulator::new(config, topo.clone(), flood_app);
                let mut par = PartitionedSimulator::new(config, topo, regions, flood_app);
                seq.schedule_timer(SensorId(17), Timestamp::from_secs(2), 1);
                par.schedule_timer(SensorId(17), Timestamp::from_secs(2), 1);
                assert_eq!(
                    seq.run_until_quiescent(Timestamp::from_secs(10)),
                    par.run_until_quiescent(Timestamp::from_secs(10))
                );
                assert_eq!(par.epochs() == 0, par.region_count() == 1, "regions={regions}");
                assert_eq!(seq.now(), par.now(), "regions={regions} seed={seed}");
                assert_eq!(seq.events_processed(), par.events_processed());
                assert_eq!(
                    seq.network_stats(),
                    par.network_stats(),
                    "regions={regions} seed={seed} (exact float equality)"
                );
                assert_eq!(flood_states(seq.apps()), flood_states(par.apps()));
            }
        }
    }

    #[test]
    fn partitioned_node_removal_matches_sequential() {
        check_against_oracle!(
            grid_topology(4, 5.0, 6.0),
            flood_config(LossModel::Reliable, 1),
            |sim| {
                sim.run_until(Timestamp::from_secs(1));
                sim.remove_node(SensorId(5));
                sim.schedule_timer_batch(vec![
                    (Timestamp::from_secs(2), SensorId(5), 0),
                    (Timestamp::from_secs(2), SensorId(10), 1),
                ]);
                sim.run_until(Timestamp::from_secs(5));
            }
        );
    }

    #[test]
    fn partitioned_rejoin_after_death_matches_sequential() {
        let config = flood_config(LossModel::bernoulli(0.2), 5);
        check_against_oracle!(grid_topology(4, 5.0, 6.0), config, |sim| {
            sim.run_until(Timestamp::from_secs(1));
            sim.remove_node(SensorId(5));
            sim.run_until(Timestamp::from_secs(2));
            // Node 5 rejoins at its grid position and broadcasts on a timer:
            // its emission counter continues where it left off, so the
            // packet-loss rolls line up across engines.
            sim.add_node(SensorId(5), Position::new(5.0, 5.0), flood_app(SensorId(5)));
            sim.schedule_timer(SensorId(5), Timestamp::from_secs(3), 9);
            sim.run_until(Timestamp::from_secs(5));
        });
    }

    #[test]
    fn partitioned_late_join_of_a_new_node_matches_sequential() {
        let oracle = check_against_oracle!(
            grid_topology(4, 5.0, 6.0),
            flood_config(LossModel::Reliable, 1),
            |sim| {
                sim.run_until(Timestamp::from_secs(1));
                let linked =
                    sim.add_node(SensorId(100), Position::new(2.5, 2.5), flood_app(SensorId(100)));
                assert!(!linked.is_empty(), "the joiner lands inside the grid");
                sim.schedule_timer(SensorId(100), Timestamp::from_secs(2), 7);
                sim.run_until(Timestamp::from_secs(4));
            }
        );
        assert_eq!(oracle.topology().len(), 17);
    }

    #[test]
    fn duty_cycles_and_bursty_loss_match_sequential() {
        let config = flood_config(LossModel::gilbert_elliott(0.3, 0.4, 0.05, 0.9), 2);
        let cycles: Arc<BTreeMap<SensorId, DutyCycle>> = Arc::new(
            (0..16)
                .filter(|i| i % 3 == 0)
                .map(|i| {
                    (SensorId(i), DutyCycle::from_micros(40_000, 25_000, u64::from(i) * 1_000))
                })
                .collect(),
        );
        let oracle = check_against_oracle!(grid_topology(4, 5.0, 6.0), config, |sim| {
            sim.set_duty_cycles(Arc::clone(&cycles));
            for t in 1..6u64 {
                sim.schedule_timer(SensorId(t as u32), Timestamp::from_secs(t), t);
            }
            sim.run_until_quiescent(Timestamp::from_secs(30));
        });
        let stats = oracle.network_stats();
        assert!(stats.total_packets_dropped_asleep() > 0, "some receptions hit sleepers");
        assert!(stats.total_packets_dropped() > 0, "the bursty channel dropped packets");
    }

    #[test]
    fn quiescence_respects_the_deadline_at_every_region_count() {
        check_against_oracle!(
            grid_topology(4, 5.0, 6.0),
            flood_config(LossModel::Reliable, 0),
            |sim| {
                sim.schedule_timer(SensorId(3), Timestamp::from_secs(50), 9);
                assert!(
                    !sim.run_until_quiescent(Timestamp::from_secs(10)),
                    "a timer beyond the deadline is still pending"
                );
                assert!(sim.run_until_quiescent(Timestamp::from_secs(100)));
            }
        );
    }

    #[test]
    fn the_mutable_visit_reaches_every_live_app_once_in_global_id_order() {
        let config = flood_config(LossModel::Reliable, 1);
        let mut par = PartitionedSimulator::new(config, grid_topology(4, 5.0, 6.0), 4, flood_app);
        par.run_until(Timestamp::from_secs(1));
        par.remove_node(SensorId(6));
        // The joiner is adopted by its lowest-id neighbour's region, behind
        // that region's lower ids: the visit must still be globally sorted.
        par.add_node(SensorId(100), Position::new(2.5, 2.5), flood_app(SensorId(100)));
        let mut visited = Vec::new();
        par.for_each_app_mut(|id, app| {
            app.received_from.clear();
            visited.push(id);
        });
        let expected: Vec<SensorId> =
            (0..16).filter(|&i| i != 6).map(SensorId).chain([SensorId(100)]).collect();
        assert_eq!(visited, expected);
        assert!(par.apps().all(|(_, app)| app.received_from.is_empty()));
    }

    #[test]
    fn run_until_aligns_all_regional_clocks() {
        let topo = grid_topology(4, 5.0, 6.0);
        let config = flood_config(LossModel::Reliable, 0);
        let mut par = PartitionedSimulator::new(config, topo, 4, flood_app);
        par.run_until(Timestamp::from_secs(3));
        assert_eq!(par.now(), Timestamp::from_secs(3));
        // Idle energy is charged on the aligned clock in every region.
        let stats = par.network_stats();
        assert!(stats.energy.values().all(|e| e.idle_joules > 0.0));
        assert_eq!(stats.energy.len(), 16);
    }

    #[test]
    fn per_region_stats_sum_to_global_totals() {
        let topo = grid_topology(6, 5.0, 6.0);
        let config = flood_config(LossModel::Reliable, 3);
        let mut par = PartitionedSimulator::new(config, topo, 4, flood_app);
        par.run_until_quiescent(Timestamp::from_secs(10));
        let stats = par.network_stats_by_region();
        assert_eq!(stats.regions.len(), par.region_count());
        assert_eq!(stats.total_region_events(), par.events_processed());
        assert!(stats.total_boundary_crossings() > 0, "a flood crosses region boundaries");
        // The plain snapshot stays region-free so it remains bit-comparable
        // with a plain `Simulator`'s.
        assert!(par.network_stats().regions.is_empty());
    }

    #[test]
    fn the_sequential_backend_is_one_region_without_a_pool() {
        let topo = grid_topology(6, 5.0, 6.0);
        let config = flood_config(LossModel::Reliable, 0);
        let regions = SimBackend::Sequential.regions();
        let mut one = PartitionedSimulator::new(config, topo.clone(), regions, flood_app);
        let mut four = PartitionedSimulator::new(
            config,
            topo,
            SimBackend::Partitioned { regions: 4 }.regions(),
            flood_app,
        );
        assert_eq!(one.region_count(), 1);
        assert!(one.pool.is_none(), "one region needs no worker pool");
        assert!(four.pool.is_some());
        assert!(one.run_until_quiescent(Timestamp::from_secs(5)));
        assert!(four.run_until_quiescent(Timestamp::from_secs(5)));
        assert_eq!(one.epochs(), 0);
        assert_eq!(one.network_stats(), four.network_stats());
    }
}
