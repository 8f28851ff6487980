//! Shared telemetry statics of the detector layer.
//!
//! The distributed detector ([`crate::node`], both scopes) and the
//! simulator application ([`crate::app`]) record their broadcast volume
//! into one set of process-wide metrics, defined here once so both layers
//! feed the same counters. Everything follows the `wsn_obs`
//! overhead contract: write-only, runtime-gated, compiled out without the
//! `telemetry` feature.

/// Protocol messages put on the air (one per [`crate::app::DetectorApp`]
/// broadcast).
pub(crate) static BROADCASTS: wsn_obs::Counter = wsn_obs::Counter::new("detector.broadcasts");
/// Payload bytes of those messages (wire size incl. headers and tags).
pub(crate) static BROADCAST_BYTES: wsn_obs::Counter =
    wsn_obs::Counter::new("detector.broadcast_bytes");
/// Wire size per broadcast message.
pub(crate) static BROADCAST_WIRE_SIZE: wsn_obs::Histogram =
    wsn_obs::Histogram::new("detector.broadcast_wire_bytes");
/// Data points addressed to neighbours, totalled across all per-neighbour
/// batches.
pub(crate) static POINTS_BROADCAST: wsn_obs::Counter =
    wsn_obs::Counter::new("detector.points_broadcast");
/// Batch size per neighbour entry of a broadcast (the `Z_j \ known` sets).
pub(crate) static NEIGHBOR_BATCH_POINTS: wsn_obs::Histogram =
    wsn_obs::Histogram::new("detector.points_per_neighbor");
/// Estimates [`crate::node::DetectorNode::estimate`] computed with
/// `top_n_outliers` instead of reading them from the global engine: every
/// hop-scope estimate, and a global-scope one whose engine has not
/// processed the window's current revision.
pub(crate) static ESTIMATE_FALLBACKS: wsn_obs::Counter =
    wsn_obs::Counter::new("detector.estimate_fallbacks");
/// Neighbours pruned by the self-healing paths: dead/out-of-range neighbours
/// dropped on a neighbourhood change, plus silent neighbours aged out by the
/// staleness liveness timeout.
pub(crate) static STALE_NEIGHBORS_PRUNED: wsn_obs::Counter =
    wsn_obs::Counter::new("detector.stale_neighbors_pruned");
