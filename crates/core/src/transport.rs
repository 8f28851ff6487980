//! The loss-free synchronous transport: runs a set of [`DetectorNode`]s to
//! the protocol's fixed point without the radio model.
//!
//! The detectors of §5–§6 react only to local events over single-hop,
//! reliable links, and they stop at a fixed point whatever order messages
//! arrive in. [`run_to_quiescence`] fixes one order, so a run is exactly
//! reproducible: every node processes once, in ascending id order; then
//! each broadcast is delivered FIFO to its sender's neighbours, also in
//! ascending id order, and each receiver folds the points in with
//! [`DetectorNode::receive_arcs`] and processes, until no node has anything
//! left to send. The fleet's tenants (`wsn-fleet`) serve every slide
//! through it; the simulator adapter ([`crate::app`]) is the lossy,
//! timed alternative.

use std::collections::{BTreeMap, VecDeque};

use crate::message::OutlierBroadcast;
use crate::node::DetectorNode;
use wsn_data::SensorId;
use wsn_ranking::RankingFunction;

/// Safety valve of the delivery loop: the protocol terminates (quiet
/// ledger), so reaching this bound means an algorithmic bug, not a large
/// network.
const MAX_DELIVERIES: u64 = 10_000_000;

/// What one [`run_to_quiescence`] carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Broadcasts put on the air.
    pub messages: u64,
    /// Data points in those broadcasts, counting duplicates across
    /// recipients.
    pub points: u64,
    /// Their on-the-wire bytes (protocol header, tags and point payloads).
    pub bytes: u64,
}

impl Traffic {
    fn record(&mut self, message: &OutlierBroadcast) {
        self.messages += 1;
        self.points += message.point_count() as u64;
        self.bytes += message.wire_size() as u64;
    }
}

/// Drives `nodes` to quiescence over `adjacency`, which maps each node's id
/// to its neighbours' ids in ascending order, and returns the traffic
/// carried. The nodes' clocks are the caller's: advance them before the
/// call.
///
/// # Panics
///
/// Panics if `adjacency` does not list every node of `nodes`, if a
/// neighbour list names a node that is not among `nodes`, or if the run has
/// not quiesced after 10 000 000 deliveries (protocol termination
/// violated).
pub fn run_to_quiescence<'a, R: RankingFunction + 'a>(
    nodes: impl IntoIterator<Item = &'a mut DetectorNode<R>>,
    adjacency: &BTreeMap<SensorId, Vec<SensorId>>,
) -> Traffic {
    let mut nodes: BTreeMap<SensorId, &mut DetectorNode<R>> =
        nodes.into_iter().map(|node| (node.id(), node)).collect();
    let mut traffic = Traffic::default();
    let mut queue: VecDeque<(SensorId, OutlierBroadcast)> = VecDeque::new();
    for (&id, node) in nodes.iter_mut() {
        if let Some(message) = node.process(&adjacency[&id]) {
            traffic.record(&message);
            queue.push_back((id, message));
        }
    }
    let mut deliveries: u64 = 0;
    while let Some((from, message)) = queue.pop_front() {
        for &to in &adjacency[&from] {
            let points = message.points_for_arcs(to);
            if points.is_empty() {
                continue;
            }
            deliveries += 1;
            assert!(
                deliveries <= MAX_DELIVERIES,
                "the transport did not quiesce after {deliveries} deliveries — \
                 protocol termination violated"
            );
            let node = nodes.get_mut(&to).expect("the adjacency names only the nodes passed");
            node.receive_arcs(from, points);
            if let Some(reply) = node.process(&adjacency[&to]) {
                traffic.record(&reply);
                queue.push_back((to, reply));
            }
        }
    }
    traffic
}
