//! The node-protocol interface of the distributed detector.
//!
//! Both the global (§5) and semi-global (§6) algorithms react to the same
//! four local events — initialization, a change of the local data `D_i`,
//! receipt of points from a neighbour, and a neighbourhood change — by
//! recomputing, per neighbour, the points that still need to be sent.
//! [`OutlierDetector`] captures that event loop;
//! [`crate::node::DetectorNode`] implements it for both algorithms, and the
//! simulator adapter ([`crate::app`]) and the tests drive it through it.

use crate::message::OutlierBroadcast;
use wsn_data::{DataPoint, PointSet, SensorId, Timestamp};
use wsn_ranking::OutlierEstimate;

/// A per-sensor outlier-detection protocol state machine.
///
/// The typical call sequence, driven by the host (simulator adapter or unit
/// test), mirrors the paper's event loop:
///
/// 1. [`advance_time`](OutlierDetector::advance_time) — slide the window,
/// 2. [`add_local_points`](OutlierDetector::add_local_points) or
///    [`receive`](OutlierDetector::receive) — apply the event,
/// 3. [`process`](OutlierDetector::process) — compute the per-neighbour
///    sufficient points and obtain the broadcast packet `M` (if any),
/// 4. [`estimate`](OutlierDetector::estimate) — read the node's current
///    outlier estimate.
pub trait OutlierDetector {
    /// The sensor this detector runs on.
    fn id(&self) -> SensorId;

    /// The number of outliers `n` being computed.
    fn n(&self) -> usize;

    /// Incorporates freshly sampled local observations (the paper's
    /// "`D_i` changes" event). Points are expected to carry hop count 0.
    fn add_local_points(&mut self, points: Vec<DataPoint>);

    /// Incorporates points received from the single-hop neighbour `from`
    /// (the paper's "message received" event).
    fn receive(&mut self, from: SensorId, points: Vec<DataPoint>);

    /// [`receive`](OutlierDetector::receive) for points already behind
    /// shared handles — the zero-copy path the simulator adapter feeds
    /// broadcast payloads through, so a delivered point shares one
    /// allocation with the sender's window and every other receiver.
    fn receive_arcs(&mut self, from: SensorId, points: Vec<std::sync::Arc<DataPoint>>);

    /// Advances the sliding-window clock to `now`, evicting points that have
    /// fallen out of the window everywhere they are tracked (§5.3).
    fn advance_time(&mut self, now: Timestamp);

    /// Reacts to the most recent event: computes, for every current
    /// neighbour, the sufficient points not yet known to be shared, records
    /// them as sent, and returns the combined broadcast packet. Returns
    /// `None` when no neighbour needs anything (the local termination
    /// condition of §5).
    fn process(&mut self, neighbors: &[SensorId]) -> Option<OutlierBroadcast>;

    /// Forgets every neighbour **not** in `live` — the self-healing reaction
    /// to a neighbourhood change (a neighbour died or moved out of range).
    /// All per-neighbour protocol state for the departed — shared-knowledge
    /// sets, revision bookkeeping, fixed-point chains — must be dropped, so
    /// no dead neighbour pins window points or suppresses convergence over
    /// the surviving live set.
    fn retain_neighbors(&mut self, live: &[SensorId]);

    /// The node's current outlier estimate.
    fn estimate(&self) -> OutlierEstimate;

    /// The points the node currently holds (`P_i`).
    fn held_points(&self) -> &PointSet;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DetectorNode;
    use wsn_data::window::WindowConfig;
    use wsn_ranking::NnDistance;

    /// The trait must stay object-safe so heterogeneous experiments can hold
    /// `Box<dyn OutlierDetector>`.
    #[test]
    fn detectors_are_object_safe() {
        let window = WindowConfig::from_secs(100).unwrap();
        let detectors: Vec<Box<dyn OutlierDetector>> = vec![
            Box::new(DetectorNode::new(SensorId(1), NnDistance, 2, None, window)),
            Box::new(DetectorNode::new(SensorId(2), NnDistance, 2, Some(1), window)),
        ];
        assert_eq!(detectors[0].id(), SensorId(1));
        assert_eq!(detectors[1].id(), SensorId(2));
        assert_eq!(detectors[0].n(), 2);
        assert!(detectors[1].held_points().is_empty());
    }
}
