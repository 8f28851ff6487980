//! # wsn-fleet
//!
//! A simulator-free multi-tenant detection service over the paper's
//! in-network outlier detectors (Branch et al., ICDCS 2006).
//!
//! The rest of the workspace reaches the detectors through the radio
//! simulator: a discrete-event loop that models broadcast propagation,
//! loss, energy and clock stagger. This crate is the serving-side
//! embedding of the same algorithms — real reading streams in, exact
//! outlier estimates out, no radio model anywhere:
//!
//! * [`TenantRuntime`] owns **one deployment** (one *tenant*): its sensor
//!   roster and adjacency, one detector per sensor (a
//!   [`DetectorNode`](wsn_core::DetectorNode) in the global or hop scope,
//!   or the centralized sink baseline), the per-node sliding windows those
//!   detectors hold, and a deterministic loss-free local transport. A
//!   *slide* applies one epoch's readings and drains the protocol to
//!   quiescence: every
//!   [`OutlierBroadcast`](wsn_core::OutlierBroadcast) a node emits is
//!   delivered to its adjacent nodes (in ascending id order, FIFO), each
//!   receiver folds the points in with
//!   [`receive_arcs`](wsn_core::detector::OutlierDetector::receive_arcs)
//!   and processes, and the loop stops when no node has anything left to
//!   say — the paper's fixed point, reached directly instead of simulated.
//! * [`DetectorFleet`] multiplexes thousands of independent tenants over
//!   the shared [`wsn_pool::WorkerPool`]: [`DetectorFleet::ingest`]
//!   buffers batched readings per tenant, per-tenant epoch scheduling
//!   decides which tenants are *slide-due*, and [`DetectorFleet::step`]
//!   dispatches each due tenant as one pool job, tenants hashed to
//!   shards. Ingest drops, and counts in its [`IngestReceipt`], a reading
//!   whose feature count differs from the tenant's, so one tenant's
//!   malformed input cannot panic a step that serves every tenant.
//!
//! # Determinism contract
//!
//! A tenant's slide is a pure function of its own state and the epoch's
//! batch; tenants share nothing. The fleet submits due tenants grouped by
//! shard but **collects results in ascending tenant order**, so a
//! parallel [`DetectorFleet::step`] is bit-for-bit identical — estimates,
//! labels, traffic counters, snapshots — to the sequential reference loop
//! ([`DetectorFleet::sequential`]); `tests/property_fleet.rs` proves this
//! over 256 seeded cases. Within a slide the transport is a fixed
//! serialization of the asynchronous protocol (sample in id order, then
//! FIFO delivery); any such serialization reaches the same fixed point,
//! and this one makes replay exact.
//!
//! # Checkpoints
//!
//! Crash safety composes with [`wsn_core::persist`]: after
//! [`DetectorFleet::checkpoint_every_epochs`], the fleet writes one
//! `tenant-<id>.json` snapshot (atomic two-line `wsn-persist` file,
//! checksummed, crash-point instrumented) per tenant every `k` executed
//! slides, wrapping each detector's own
//! [`persist_snapshot`](wsn_core::DetectorNode::persist_snapshot)
//! dump together with the tenant's epoch cursor, traffic counters and a
//! per-tenant `config_hash`. Each node dump carries its own point table
//! ([`wsn_core::persist::PointTable`]): an observation the node holds in
//! its window, in several neighbours' shared-knowledge sets and in several
//! fixed-point chains is written once, and every set refers to it by
//! `(row, hop)`. The centralized baseline's sink window is encoded the same
//! way. On restore, each `(row, hop)` becomes one shared point, as in the
//! live node. [`DetectorFleet::resume_from`] restores each
//! registered tenant from its file in isolation — a corrupt, stale-version
//! (1 or 2) or hash-mismatched snapshot, one whose header nests too deep,
//! or one whose nodes hold points of different feature counts is refused
//! with a typed [`PersistError`](wsn_core::PersistError) for that tenant
//! only, the rest of the fleet resumes untouched. Ingestion is
//! at-least-once: buffered-but-unexecuted readings are not part of a
//! snapshot, and after a resume the caller re-ingests its stream — batches
//! for epochs the restored cursor already passed are dropped as stale.
//!
//! Checkpoints are written serially on the calling thread after each
//! step. A steady-state tenant of the benchmark's fleet (nine sensors,
//! `w = 8`) snapshots to about 26 kB; the file's fsync, rename and
//! directory fsync are most of what remains of its cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod service;
mod tenant;

pub use service::{
    CheckpointPolicy, DetectorFleet, FleetError, FleetSlide, IngestReceipt, ResumeReport, TenantId,
};
pub use tenant::{TenantRuntime, TenantSlide, TenantSpec, TenantTraffic};

// fleet.* telemetry (zero-sized no-ops unless the `telemetry` feature is on).
pub(crate) static OBS_TENANTS_ACTIVE: wsn_obs::Gauge = wsn_obs::Gauge::new("fleet.tenants_active");
pub(crate) static OBS_BATCHES_INGESTED: wsn_obs::Counter =
    wsn_obs::Counter::new("fleet.batches_ingested");
pub(crate) static OBS_POINTS_INGESTED: wsn_obs::Counter =
    wsn_obs::Counter::new("fleet.points_ingested");
pub(crate) static OBS_SLIDES_EXECUTED: wsn_obs::Counter =
    wsn_obs::Counter::new("fleet.slides_executed");
pub(crate) static OBS_SHARD_IMBALANCE: wsn_obs::Gauge =
    wsn_obs::Gauge::new("fleet.shard_imbalance");
pub(crate) static OBS_SNAPSHOTS_WRITTEN: wsn_obs::Counter =
    wsn_obs::Counter::new("fleet.snapshots_written");
pub(crate) static OBS_SNAPSHOT_BYTES: wsn_obs::Counter =
    wsn_obs::Counter::new("fleet.snapshot_bytes");
