//! Adapter that runs a distributed detector on the network simulator.
//!
//! [`DetectorApp`] wires a [`DetectorNode`] (global or semi-global) to the
//! [`wsn_netsim::sim::Application`] interface:
//!
//! * a periodic timer samples the node's own data stream (the paper's
//!   "`D_i` changes" event), slides the window, and lets the detector react,
//! * every received broadcast packet is filtered for points tagged with this
//!   node's id (packets without such points are *not* events, §5.2) and fed
//!   to the detector,
//! * whatever the detector decides must be sent is put on the air as a
//!   single-hop broadcast whose size is the protocol wire size.

use crate::message::OutlierBroadcast;
use crate::node::DetectorNode;
use wsn_data::stream::SensorStream;
use wsn_data::{SensorId, Timestamp};
use wsn_netsim::region::{PartitionedSimulator, SimBackend};
use wsn_netsim::sim::{Application, BatchTimerEntry, NodeContext, SimConfig, TimerId};
use wsn_netsim::topology::Topology;
use wsn_ranking::RankingFunction;

/// Number of distinct stagger slots the sampling schedule spreads a round's
/// radios over. Nodes share slots modulo this count, so the stagger span
/// stays bounded (12.8 ms) no matter how many sensors are deployed — at 10k
/// sensors an unbounded per-node stagger would smear a round over two
/// seconds and serialize the whole network behind one radio at a time.
pub const STAGGER_SLOTS: u64 = 64;

/// Sampling schedule shared by every node of an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingSchedule {
    /// Seconds between consecutive samples of a node.
    pub sample_interval_secs: f64,
    /// Total number of sampling rounds to execute.
    pub rounds: usize,
}

impl SamplingSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if the interval is not positive or the number of rounds is zero.
    pub fn new(sample_interval_secs: f64, rounds: usize) -> Self {
        assert!(sample_interval_secs > 0.0, "sample interval must be positive");
        assert!(rounds > 0, "at least one sampling round is required");
        SamplingSchedule { sample_interval_secs, rounds }
    }

    /// Total simulated duration needed for all rounds plus settling time.
    pub fn duration(&self) -> Timestamp {
        Timestamp::from_secs_f64(self.sample_interval_secs * (self.rounds as f64 + 2.0))
    }

    /// A generous simulation deadline: all rounds plus settling time for
    /// the protocol to reach quiescence.
    pub(crate) fn deadline(&self) -> Timestamp {
        Timestamp::from_secs_f64(self.sample_interval_secs * (self.rounds as f64 + 2.0) + 600.0)
    }

    /// The time at which `round` is sampled (with a tiny per-node stagger so
    /// that the radios do not all fire in the same microsecond; nodes share
    /// one of [`STAGGER_SLOTS`] slots, 200 µs apart).
    pub fn sample_time(&self, round: usize, node: SensorId) -> Timestamp {
        let offset_micros = (u64::from(node.raw()) % STAGGER_SLOTS) * 200;
        Timestamp::from_secs_f64(round as f64 * self.sample_interval_secs)
            .advanced_by_micros(offset_micros)
    }

    /// One round's sampling fan-out as a sorted timer batch: every node of
    /// `ids` sampled at its staggered time, with the timer id encoding the
    /// round number.
    pub fn round_batch(&self, round: usize, ids: &[SensorId]) -> Vec<BatchTimerEntry> {
        let mut entries: Vec<BatchTimerEntry> =
            ids.iter().map(|&id| (self.sample_time(round, id), id, round as TimerId)).collect();
        entries.sort_by_key(|&(time, id, _)| (time, id));
        entries
    }

    /// The remaining sampling timers of a single node, starting with the
    /// first round whose staggered time is strictly after `now` — the batch
    /// to install for a node that joins the network mid-experiment. (Rounds
    /// already in the past are skipped, not replayed: a late joiner has no
    /// data for them.)
    pub fn node_batch_after(&self, now: Timestamp, id: SensorId) -> Vec<BatchTimerEntry> {
        (0..self.rounds)
            .filter_map(|round| {
                let time = self.sample_time(round, id);
                (time > now).then_some((time, id, round as TimerId))
            })
            .collect()
    }
}

/// Builds the simulator the backend selects (see [`SimBackend`]) **and**
/// installs its sampling schedule — the one constructor of a
/// schedule-driven deployment. Every round's fan-out is **one batched queue
/// entry** (see [`PartitionedSimulator::schedule_timer_batch`]) instead of
/// one per node × round, with timer ids encoding the round number.
/// [`DetectorApp`] and [`crate::centralized::CentralizedApp`] schedule no
/// sampling timers of their own, so a node that joins later needs its
/// remaining rounds installed too ([`SamplingSchedule::node_batch_after`]).
pub fn simulator_with_sampling<A>(
    backend: SimBackend,
    config: SimConfig,
    topology: Topology,
    schedule: &SamplingSchedule,
    make_app: impl FnMut(SensorId) -> A,
) -> PartitionedSimulator<A>
where
    A: Application + Send + 'static,
    A::Message: Send + Sync,
{
    let ids = topology.sensor_ids();
    let mut sim = PartitionedSimulator::new(config, topology, backend.regions(), make_app);
    for round in 0..schedule.rounds {
        sim.schedule_timer_batch(schedule.round_batch(round, &ids));
    }
    sim
}

/// A simulator application running one distributed detector plus its data
/// stream.
#[derive(Debug, Clone)]
pub struct DetectorApp<R> {
    detector: DetectorNode<R>,
    stream: SensorStream,
    schedule: SamplingSchedule,
    packets_broadcast: u64,
    events_handled: u64,
}

impl<R: RankingFunction> DetectorApp<R> {
    /// Creates the application for one node.
    pub fn new(
        detector: DetectorNode<R>,
        stream: SensorStream,
        schedule: SamplingSchedule,
    ) -> Self {
        DetectorApp { detector, stream, schedule, packets_broadcast: 0, events_handled: 0 }
    }

    /// The wrapped detector (for reading estimates and counters).
    pub fn detector(&self) -> &DetectorNode<R> {
        &self.detector
    }

    /// Mutable access to the wrapped detector, for the persistence layer's
    /// state install on resume (see [`crate::persist`]).
    pub fn detector_mut(&mut self) -> &mut DetectorNode<R> {
        &mut self.detector
    }

    /// The sampling schedule this node runs under (installed on the
    /// simulator by [`simulator_with_sampling`]).
    pub fn schedule(&self) -> SamplingSchedule {
        self.schedule
    }

    /// Number of protocol packets this node has broadcast.
    pub fn packets_broadcast(&self) -> u64 {
        self.packets_broadcast
    }

    /// Number of events (samples, deliveries, neighbourhood changes) handled.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Processes the event the caller just applied and broadcasts the
    /// result. Every caller opens the `detect` span before it touches the
    /// detector, so the window slide and its eviction notes count as
    /// detector time.
    fn react(&mut self, ctx: &mut NodeContext<OutlierBroadcast>) {
        self.events_handled += 1;
        if let Some(message) = self.detector.process(ctx.neighbors()) {
            let size = message.wire_size();
            self.packets_broadcast += 1;
            crate::telemetry::BROADCASTS.add(1);
            crate::telemetry::BROADCAST_BYTES.add(size as u64);
            crate::telemetry::BROADCAST_WIRE_SIZE.record(size as u64);
            ctx.broadcast(message, size);
        }
    }

    fn sample_round(&mut self, ctx: &mut NodeContext<OutlierBroadcast>, round: usize) {
        let _detect_span = wsn_obs::span("detect");
        self.detector.advance_time(ctx.now());
        match self.stream.point_at(round) {
            Ok(Some(point)) => self.detector.add_local_points(vec![point]),
            Ok(None) => {} // missing reading: nothing sampled this round
            Err(_) => {}   // corrupted trace entries are skipped
        }
        self.react(ctx);
    }
}

impl<R: RankingFunction> Application for DetectorApp<R> {
    type Message = OutlierBroadcast;

    fn on_start(&mut self, _ctx: &mut NodeContext<Self::Message>) {
        // Nothing to schedule: the sampling timers arrive as
        // `simulator_with_sampling`'s per-round batches.
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<Self::Message>, timer: TimerId) {
        self.sample_round(ctx, timer as usize);
    }

    fn on_message(
        &mut self,
        ctx: &mut NodeContext<Self::Message>,
        from: SensorId,
        message: Self::Message,
    ) {
        let mine = message.points_for_arcs(ctx.id());
        if mine.is_empty() {
            // Not tagged for us: receipt of M is not an event (§5.2).
            return;
        }
        let _detect_span = wsn_obs::span("detect");
        self.detector.advance_time(ctx.now());
        self.detector.receive_arcs(from, mine);
        self.react(ctx);
    }

    fn on_neighborhood_change(&mut self, ctx: &mut NodeContext<Self::Message>) {
        // Self-healing: drop all per-neighbour state for neighbours no
        // longer in radio range (death or departure) before reacting — a
        // dead neighbour must not pin shared-knowledge sets, quiet memos, or
        // fixed-point hypothetical state, and a *re*-joining neighbour must
        // be re-synced from scratch rather than against stale bookkeeping.
        let _detect_span = wsn_obs::span("detect");
        self.detector.retain_neighbors(ctx.neighbors());
        self.detector.advance_time(ctx.now());
        self.react(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_data::stream::{SensorReading, SensorSpec};
    use wsn_data::window::WindowConfig;
    use wsn_data::{Epoch, Position};
    use wsn_ranking::NnDistance;

    /// Builds a 3-node chain where node 0's stream contains one wild value.
    fn build_sim(rounds: usize) -> PartitionedSimulator<DetectorApp<NnDistance>> {
        let specs: Vec<SensorSpec> = (0..3)
            .map(|i| SensorSpec::new(SensorId(i), Position::new(i as f64 * 5.0, 0.0)))
            .collect();
        let topo = Topology::from_specs(&specs, 6.0);
        let schedule = SamplingSchedule::new(10.0, rounds);
        let window = WindowConfig::from_samples(rounds as u64 + 5, 10.0).unwrap();
        let config = SimConfig::default();
        simulator_with_sampling(SimBackend::Sequential, config, topo, &schedule, |id| {
            let spec = specs.iter().find(|s| s.id == id).copied().unwrap();
            let mut stream = SensorStream::new(spec);
            for r in 0..rounds {
                let ts = Timestamp::from_secs_f64(r as f64 * 10.0);
                let value = if id == SensorId(0) && r == 1 {
                    -100.0
                } else {
                    20.0 + id.raw() as f64 + r as f64 * 0.01
                };
                stream.readings.push(SensorReading::present(Epoch(r as u64), ts, value));
            }
            DetectorApp::new(DetectorNode::new(id, NnDistance, 1, None, window), stream, schedule)
        })
    }

    #[test]
    fn schedule_validates_and_computes_times() {
        let s = SamplingSchedule::new(30.0, 4);
        assert_eq!(s.sample_time(0, SensorId(0)), Timestamp::ZERO);
        assert!(s.sample_time(0, SensorId(5)) > Timestamp::ZERO);
        assert_eq!(s.sample_time(2, SensorId(0)), Timestamp::from_secs(60));
        assert!(s.duration() > Timestamp::from_secs(120));
        assert!(std::panic::catch_unwind(|| SamplingSchedule::new(0.0, 4)).is_err());
        assert!(std::panic::catch_unwind(|| SamplingSchedule::new(1.0, 0)).is_err());
    }

    #[test]
    fn all_nodes_converge_to_the_injected_outlier() {
        let mut sim = build_sim(4);
        assert!(sim.run_until_quiescent(Timestamp::from_secs(200)));
        for (id, app) in sim.apps() {
            let estimate = app.detector().estimate();
            assert_eq!(
                estimate.points()[0].features[0],
                -100.0,
                "node {id} did not converge on the injected outlier"
            );
        }
    }

    #[test]
    fn every_node_samples_and_broadcasts_at_least_once() {
        let mut sim = build_sim(3);
        sim.run_until_quiescent(Timestamp::from_secs(200));
        for (id, app) in sim.apps() {
            assert!(app.events_handled() > 0, "node {id} handled no events");
            assert!(app.packets_broadcast() > 0, "node {id} broadcast nothing");
        }
        let stats = sim.network_stats();
        assert!(stats.total_packets_sent() > 0);
        assert!(stats.total_bytes_sent() > 0);
    }

    #[test]
    fn packets_not_tagged_for_a_node_are_not_events() {
        // With 3 nodes in a chain, node 2's broadcasts tagged only for node 1
        // are heard by nobody else; node 0 must not react to packets carrying
        // nothing for it. We verify indirectly: the simulation terminates
        // (no infinite re-broadcast loop) and estimates are correct.
        let mut sim = build_sim(2);
        assert!(sim.run_until_quiescent(Timestamp::from_secs(500)), "protocol must terminate");
    }

    #[test]
    fn detector_counters_reflect_data_movement() {
        let mut sim = build_sim(3);
        sim.run_until_quiescent(Timestamp::from_secs(200));
        let total_sent: u64 = sim.apps().map(|(_, a)| a.detector().points_sent()).sum();
        let total_recv: u64 = sim.apps().map(|(_, a)| a.detector().points_received()).sum();
        assert!(total_sent > 0);
        assert!(total_recv > 0);
        // Every accepted point was sent by someone (single-hop, no loss).
        assert!(total_recv <= total_sent);
    }
}
