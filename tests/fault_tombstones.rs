//! Timer tombstones under node removal, on both simulation backends.
//!
//! When a node dies mid-epoch its externally scheduled timers (sampling
//! rounds, duty-cycle bookkeeping) are still sitting in the event queue.
//! The event core must treat them as tombstones — skipped silently, exactly
//! like an ordinary timer of a removed node — rather than panicking on a
//! missing component or leaving the queue undrainable. These tests pin that
//! contract down for one region (the sequential backend) and for the
//! partitioned coordinator's epochs, up to and including the degenerate run
//! in which *every* node dies and the simulation must still quiesce.

use std::collections::BTreeMap;
use std::sync::Arc;

use in_network_outlier::prelude::*;
use wsn_data::stream::SensorSpec;
use wsn_data::Position;
use wsn_netsim::fault::DutyCycle;
use wsn_netsim::region::{PartitionedSimulator, SimBackend};
use wsn_netsim::sim::{Application, BatchTimerEntry, NodeContext, SimConfig, TimerId};

/// A minimal application that records which timers fired and broadcasts a
/// beacon on each one — enough traffic that receptions addressed to dead or
/// sleeping nodes are exercised too.
#[derive(Debug, Clone, Default)]
struct TickerApp {
    fired: Vec<TimerId>,
}

impl Application for TickerApp {
    type Message = u64;

    fn on_start(&mut self, _ctx: &mut NodeContext<u64>) {}

    fn on_message(&mut self, _ctx: &mut NodeContext<u64>, _from: SensorId, _message: u64) {}

    fn on_timer(&mut self, ctx: &mut NodeContext<u64>, timer: TimerId) {
        self.fired.push(timer);
        ctx.broadcast(timer, 8);
    }
}

/// A 3×3 grid, 5 m spacing, 6 m range (4-connected).
fn grid_sim(backend: SimBackend) -> PartitionedSimulator<TickerApp> {
    let specs: Vec<SensorSpec> = (0..9)
        .map(|i| {
            SensorSpec::new(
                SensorId(i),
                Position::new(f64::from(i % 3) * 5.0, f64::from(i / 3) * 5.0),
            )
        })
        .collect();
    let topology = Topology::from_specs(&specs, 6.0);
    let config = SimConfig { seed: 7, ..Default::default() };
    PartitionedSimulator::new(config, topology, backend.regions(), |_| TickerApp::default())
}

/// One timer per node per round, rounds at 10 s intervals.
fn round_timers(nodes: u32, rounds: u64) -> Vec<BatchTimerEntry> {
    (0..rounds)
        .flat_map(|round| {
            (0..nodes).map(move |n| {
                (Timestamp::from_secs((round + 1) * 10), SensorId(n), round as TimerId)
            })
        })
        .collect()
}

const BACKENDS: [SimBackend; 2] = [SimBackend::Sequential, SimBackend::Partitioned { regions: 4 }];

#[test]
fn a_dead_nodes_pending_timers_become_tombstones() {
    for backend in BACKENDS {
        let mut sim = grid_sim(backend);
        sim.schedule_timer_batch(round_timers(9, 4));

        // Round 1 fires for everyone, then node 4 (the grid centre, with
        // rounds 2–4 still queued) dies mid-epoch.
        sim.run_until(Timestamp::from_secs(15));
        sim.remove_node(SensorId(4));

        assert!(
            sim.run_until_quiescent(Timestamp::from_secs(600)),
            "{backend:?}: queue must drain past the dead node's timers"
        );
        let seen: BTreeMap<SensorId, Vec<TimerId>> =
            sim.apps().map(|(id, app)| (id, app.fired.clone())).collect();
        assert!(!seen.contains_key(&SensorId(4)), "{backend:?}: the dead node is gone");
        for (id, fired) in &seen {
            assert_eq!(
                fired,
                &vec![0, 1, 2, 3],
                "{backend:?}: survivor {id} must see every round exactly once"
            );
        }
    }
}

#[test]
fn a_dead_duty_cycled_node_leaves_no_live_state() {
    // The duty cycle of a dead node is consulted by nobody: sleep gating
    // runs at reception time in the receiver's region, and a removed node
    // receives nothing. Survivors keep broadcasting at it; the run must
    // stay panic-free and quiescent, and the sleeping survivor must still
    // miss the receptions its own cycle says to miss.
    for backend in BACKENDS {
        let mut sim = grid_sim(backend);
        let mut cycles = BTreeMap::new();
        // Node 4 sleeps 3/4 of the time; node 0 is awake only in the first
        // quarter of each 20 s cycle, so round timers at 10/20/30/40 s land
        // while it sleeps or wakes deterministically.
        cycles.insert(SensorId(4), DutyCycle::from_secs(20, 5, 0));
        cycles.insert(SensorId(0), DutyCycle::from_secs(20, 5, 0));
        sim.set_duty_cycles(Arc::new(cycles));
        sim.schedule_timer_batch(round_timers(9, 4));

        sim.run_until(Timestamp::from_secs(15));
        sim.remove_node(SensorId(4));

        assert!(
            sim.run_until_quiescent(Timestamp::from_secs(600)),
            "{backend:?}: duty-cycled death must not wedge the queue"
        );
        let stats = sim.network_stats();
        assert!(
            stats.total_packets_dropped_asleep() > 0,
            "{backend:?}: the surviving sleeper must have missed receptions"
        );
    }
}

#[test]
fn every_node_dying_still_quiesces() {
    // The degenerate churn plan: all nine nodes die with three rounds of
    // timers still queued. Every queued entry is a tombstone; the
    // simulation must drain to quiescence on both backends with no apps
    // left to visit.
    for backend in BACKENDS {
        let mut sim = grid_sim(backend);
        sim.schedule_timer_batch(round_timers(9, 4));
        sim.run_until(Timestamp::from_secs(15));
        for n in 0..9 {
            sim.remove_node(SensorId(n));
        }
        assert!(
            sim.run_until_quiescent(Timestamp::from_secs(600)),
            "{backend:?}: a fully dead network must still drain its queue"
        );
        assert_eq!(sim.apps().count(), 0, "{backend:?}: no applications remain");
        assert!(sim.topology().sensor_ids().is_empty(), "{backend:?}: topology is empty");
    }
}

#[test]
fn both_backends_agree_on_tombstoned_runs() {
    // The tombstone path itself must not break bit-identity: the same
    // removal mid-epoch produces identical per-node timer histories and
    // identical link counters on both engines.
    let mut outcomes = Vec::new();
    for backend in BACKENDS {
        let mut sim = grid_sim(backend);
        sim.schedule_timer_batch(round_timers(9, 4));
        sim.run_until(Timestamp::from_secs(15));
        sim.remove_node(SensorId(4));
        sim.run_until_quiescent(Timestamp::from_secs(600));
        let fired: BTreeMap<SensorId, Vec<TimerId>> =
            sim.apps().map(|(id, app)| (id, app.fired.clone())).collect();
        let stats = sim.network_stats();
        outcomes.push((fired, stats.total_packets_sent(), stats.total_packets_dropped()));
    }
    assert_eq!(outcomes[0], outcomes[1], "sequential and partitioned runs diverged");
}
