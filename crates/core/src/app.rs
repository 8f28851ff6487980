//! Adapter that runs a distributed detector on the network simulator.
//!
//! [`DetectorApp`] wires an [`OutlierDetector`] (global or semi-global) to
//! the [`wsn_netsim::sim::Application`] interface:
//!
//! * a periodic timer samples the node's own data stream (the paper's
//!   "`D_i` changes" event), slides the window, and lets the detector react,
//! * every received broadcast packet is filtered for points tagged with this
//!   node's id (packets without such points are *not* events, §5.2) and fed
//!   to the detector,
//! * whatever the detector decides must be sent is put on the air as a
//!   single-hop broadcast whose size is the protocol wire size.

use crate::detector::OutlierDetector;
use crate::message::OutlierBroadcast;
use wsn_data::stream::SensorStream;
use wsn_data::{SensorId, Timestamp};
use wsn_netsim::region::{AnySimulator, SimBackend, SimHandle};
use wsn_netsim::sim::{Application, BatchTimerEntry, NodeContext, Simulator, TimerId};

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

/// A [`SamplingSchedule`]-driven application that can hand its sampling
/// timers over to a centrally installed batch schedule (see
/// [`install_sampling`]). Until told otherwise, implementors self-schedule
/// their timers, so a plain [`Simulator::new`] still samples correctly.
pub trait ScheduleDriven {
    /// Tells the application its sampling timers are installed centrally:
    /// it must stop scheduling its own.
    fn sampling_installed(&mut self);
}

/// Installs the sampling schedule for every node of `sim` as **one batched
/// queue entry per round** (see
/// [`Simulator::schedule_timer_batch`]), and switches every application off
/// its self-scheduling fallback: the event heap then carries one entry per
/// round fan-out instead of one per node × round. Call this once, right
/// after building the simulator, for any application driven by a
/// [`SamplingSchedule`] ([`DetectorApp`] and
/// [`crate::centralized::CentralizedApp`]) — or use
/// [`simulator_with_sampling`], which does both steps.
pub fn install_sampling<A, S>(sim: &mut S, schedule: &SamplingSchedule)
where
    A: Application + ScheduleDriven,
    S: SimHandle<A> + ?Sized,
{
    sim.for_each_app_mut(&mut |_, app| app.sampling_installed());
    let ids = sim.topology().sensor_ids();
    for round in 0..schedule.rounds {
        sim.schedule_timer_batch(schedule.round_batch(round, &ids));
    }
}

/// Builds a simulator **and** installs its batched sampling schedule in one
/// step — the constructor every schedule-driven deployment should use.
/// (A plain [`Simulator::new`] without [`install_sampling`] still works —
/// the applications fall back to scheduling their own timers, at one queue
/// entry per node × round.)
pub fn simulator_with_sampling<A: Application + ScheduleDriven>(
    config: wsn_netsim::sim::SimConfig,
    topology: wsn_netsim::topology::Topology,
    schedule: &SamplingSchedule,
    make_app: impl FnMut(SensorId) -> A,
) -> Simulator<A> {
    let mut sim = Simulator::new(config, topology, make_app);
    install_sampling(&mut sim, schedule);
    sim
}

/// [`simulator_with_sampling`] with a [`SimBackend`] choice: builds either
/// the sequential engine or the spatially partitioned parallel one behind
/// [`AnySimulator`], and installs the batched sampling schedule on it. The
/// two backends produce bit-for-bit identical results, so the choice is a
/// pure wall-clock decision.
pub fn any_simulator_with_sampling<A>(
    backend: SimBackend,
    config: wsn_netsim::sim::SimConfig,
    topology: wsn_netsim::topology::Topology,
    schedule: &SamplingSchedule,
    make_app: impl FnMut(SensorId) -> A,
) -> AnySimulator<A>
where
    A: Application + ScheduleDriven + Send + 'static,
    A::Message: Send + Sync,
{
    let mut sim = AnySimulator::build(backend, config, topology, make_app);
    install_sampling(&mut sim, schedule);
    sim
}

/// A simulator application running one distributed detector plus its data
/// stream.
#[derive(Debug, Clone)]
pub struct DetectorApp<D> {
    detector: D,
    stream: SensorStream,
    schedule: SamplingSchedule,
    /// `true` once [`install_sampling`] took over the sampling timers;
    /// until then the app self-schedules them (the safe fallback).
    batch_sampling: bool,
    packets_broadcast: u64,
    events_handled: u64,
}

impl<D: OutlierDetector> DetectorApp<D> {
    /// Creates the application for one node.
    pub fn new(detector: D, stream: SensorStream, schedule: SamplingSchedule) -> Self {
        DetectorApp {
            detector,
            stream,
            schedule,
            batch_sampling: false,
            packets_broadcast: 0,
            events_handled: 0,
        }
    }

    /// The wrapped detector (for reading estimates and counters).
    pub fn detector(&self) -> &D {
        &self.detector
    }

    /// Mutable access to the wrapped detector, for the persistence layer's
    /// state install on resume (see [`crate::persist`]).
    pub fn detector_mut(&mut self) -> &mut D {
        &mut self.detector
    }

    /// The sampling schedule this node runs under (install it on the
    /// simulator with [`install_sampling`]).
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

    fn react(&mut self, ctx: &mut NodeContext<OutlierBroadcast>) {
        self.events_handled += 1;
        let _detect_span = wsn_obs::span("detect");
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
        self.detector.advance_time(ctx.now());
        match self.stream.point_at(round) {
            Ok(Some(point)) => self.detector.add_local_points(vec![point]),
            Ok(None) => {} // missing reading: nothing sampled this round
            Err(_) => {}   // corrupted trace entries are skipped
        }
        self.react(ctx);
        let next = round + 1;
        if !self.batch_sampling && next < self.schedule.rounds {
            ctx.set_timer_after_secs(self.schedule.sample_interval_secs, next as TimerId);
        }
    }
}

impl<D: OutlierDetector> ScheduleDriven for DetectorApp<D> {
    fn sampling_installed(&mut self) {
        self.batch_sampling = true;
    }
}

impl<D: OutlierDetector> Application for DetectorApp<D> {
    type Message = OutlierBroadcast;

    fn on_start(&mut self, ctx: &mut NodeContext<Self::Message>) {
        // With [`install_sampling`], the sampling timers arrive as one
        // batched queue entry per round (timer ids encode the round number)
        // and there is nothing to schedule per node. Without it, fall back
        // to the self-scheduled first sample so a plain `Simulator::new`
        // never silently runs zero rounds.
        if self.batch_sampling {
            return;
        }
        let first = self.schedule.sample_time(0, ctx.id());
        let delay = first.saturating_since(ctx.now());
        ctx.set_timer_after_micros(delay, 0);
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
        self.detector.retain_neighbors(ctx.neighbors());
        self.detector.advance_time(ctx.now());
        self.react(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DetectorNode;
    use wsn_data::stream::{SensorReading, SensorSpec};
    use wsn_data::window::WindowConfig;
    use wsn_data::{Epoch, Position};
    use wsn_netsim::sim::{SimConfig, Simulator};
    use wsn_netsim::topology::Topology;
    use wsn_ranking::NnDistance;

    /// Builds a 3-node chain where node 0's stream contains one wild value.
    fn build_sim(rounds: usize) -> Simulator<DetectorApp<DetectorNode<NnDistance>>> {
        let specs: Vec<SensorSpec> = (0..3)
            .map(|i| SensorSpec::new(SensorId(i), Position::new(i as f64 * 5.0, 0.0)))
            .collect();
        let topo = Topology::from_specs(&specs, 6.0);
        let schedule = SamplingSchedule::new(10.0, rounds);
        let window = WindowConfig::from_samples(rounds as u64 + 5, 10.0).unwrap();
        let sim = simulator_with_sampling(SimConfig::default(), topo, &schedule, |id| {
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
        });
        sim
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
    fn a_simulator_without_install_sampling_still_samples() {
        // The self-scheduling fallback: a plain `Simulator::new` (no
        // install_sampling) must never silently run zero rounds.
        let specs: Vec<SensorSpec> = (0..2)
            .map(|i| SensorSpec::new(SensorId(i), Position::new(i as f64 * 5.0, 0.0)))
            .collect();
        let topo = Topology::from_specs(&specs, 6.0);
        let schedule = SamplingSchedule::new(10.0, 3);
        let window = WindowConfig::from_samples(8, 10.0).unwrap();
        let mut sim = Simulator::new(SimConfig::default(), topo, |id| {
            let spec = specs.iter().find(|s| s.id == id).copied().unwrap();
            let mut stream = SensorStream::new(spec);
            for r in 0..3u64 {
                stream.readings.push(SensorReading::present(
                    Epoch(r),
                    Timestamp::from_secs(r * 10),
                    20.0 + id.raw() as f64,
                ));
            }
            DetectorApp::new(DetectorNode::new(id, NnDistance, 1, None, window), stream, schedule)
        });
        assert!(sim.run_until_quiescent(Timestamp::from_secs(200)));
        for (id, app) in sim.apps() {
            assert!(app.detector().held_points().len() >= 3, "node {id} sampled");
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
