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
//!   or the centralized sink baseline) and the per-node sliding windows
//!   those detectors hold. A *slide* advances every window to the epoch's
//!   instant, applies the epoch's readings, and drains the protocol to
//!   quiescence with [`wsn_core::transport::run_to_quiescence`], the
//!   deterministic loss-free transport — the paper's fixed point, reached
//!   directly instead of simulated.
//! * [`DetectorFleet`] multiplexes thousands of independent tenants over
//!   the shared [`wsn_pool::WorkerPool`]: [`DetectorFleet::ingest`]
//!   buffers batched readings per tenant, per-tenant epoch scheduling
//!   decides which tenants are *slide-due*, and [`DetectorFleet::step`]
//!   dispatches each due tenant as one pool job, tenants hashed to
//!   shards. Ingest drops, and counts in its [`IngestReceipt`], a reading
//!   with a non-finite feature or a feature count other than the tenant's,
//!   so one tenant's malformed input cannot panic a step that serves every
//!   tenant.
//!
//! # Determinism contract
//!
//! A tenant's slide is a pure function of its own state and the epoch's
//! batch; tenants share nothing. The fleet submits and joins due tenants
//! shard by shard but **reports results in ascending tenant order**, so a
//! parallel [`DetectorFleet::step`] is bit-for-bit identical — estimates,
//! labels, traffic counters, snapshots — to the sequential reference loop
//! ([`DetectorFleet::sequential`]); `tests/property_fleet.rs` proves this
//! over 256 seeded cases. Within a slide the transport is a fixed
//! serialization of the asynchronous protocol (every node processes in id
//! order, then FIFO delivery to neighbours in id order), which makes replay
//! exact. In the global scope every serialization reaches the same
//! estimates (Theorem 2), and only the traffic depends on the order. In the
//! hop scope the estimates can depend on it too: a seeded probe of 240
//! semi-global tenants (3×3 to 5×5 grids, `d` ∈ {1, 2}, `n = 2`, `w = 4`,
//! 6 epochs) run through this order and through synchronous rounds ended
//! with 21 of 4 000 node estimates different, all at `d = 2`. A hop-scope
//! tenant's estimates are those of this order.
//!
//! # Checkpoints
//!
//! Crash safety composes with [`wsn_core::persist`]. After
//! [`DetectorFleet::checkpoint_every_epochs`], a tenant is *checkpoint-due*
//! once it has executed `k` slides since its last checkpoint. The fleet
//! group-commits its checkpoints, one file per shard:
//!
//! ```text
//! dir/shard-0.json   {"format":"wsn-persist","kind":"fleet-shard","version":5,"shard":0,"shards":8,"records":R}
//!                    {"id":4,"kind":"fleet-tenant","version":5,"len":N,"checksum":C}
//!                    { ... tenant 4's payload ... }
//!                    … one two-line record per tenant of the shard, ascending id
//! dir/shard-1.json   …
//! ```
//!
//! A step rewrites every shard holding at least one checkpoint-due tenant,
//! with a record for every tenant of the shard: a fresh one for each due
//! tenant, and for each other tenant the record its last checkpoint wrote,
//! copied byte for byte from the shard's current file. A step thus
//! snapshots only its due tenants, however their epochs interleave, and no
//! tenant is snapshotted less often than every `k` slides. Only a tenant
//! that has no record of this fleet's there yet (before its first
//! checkpoint, or after a resume from another directory) is snapshotted
//! with its shard, once. Each shard file goes
//! through [`persist::write_records`](wsn_core::persist::write_records): a
//! `*.tmp` sibling, one fsync, one rename; the step ends with one directory
//! fsync. A kill leaves each shard file holding either its previous round
//! or its new one, never a mix; a leftover `*.tmp` is ignored on resume and
//! overwritten by the shard's next round.
//!
//! A record's payload wraps each detector's own
//! [`persist_snapshot`](wsn_core::DetectorNode::persist_snapshot) dump
//! together with the tenant's epoch cursor, traffic counters and a
//! per-tenant `config_hash`. Each node dump carries its own point table
//! ([`wsn_core::persist::PointTable`]): an observation the node holds in
//! its window and in several neighbours' shared-knowledge sets is written
//! once, and every set refers to it by `(row, hop)`. A dump holds no
//! fixed-point chain, memo or revision counter: a restored node starts
//! them cold. The centralized baseline's sink window is encoded the same
//! way. On restore, each `(row, hop)` becomes one shared point, as in the
//! live node.
//!
//! [`DetectorFleet::resume_from`] reads each shard file once and restores
//! each tenant from its own record. Refusals are as narrow as the damage:
//!
//! * a record that is corrupt, of another format version, of the wrong
//!   kind or of a different `config_hash`, whose header nests too deep, or
//!   whose nodes hold points of different feature counts refuses its tenant
//!   only, with a typed [`PersistError`](wsn_core::PersistError);
//! * damage to a shard header, or to a record's framing, refuses the
//!   tenants of that shard whose records cannot be read, never another
//!   shard's. A record's checksum covers its id, so a record whose id is
//!   damaged fails it and cannot pass for another tenant's; the tenant it
//!   belonged to is refused, not reported fresh;
//! * a missing shard file leaves its tenants fresh — unless the directory
//!   holds shard files written under another shard count, or a per-tenant
//!   `tenant-<id>.json` from before shard files, which are refused with
//!   [`PersistError::Mismatch`](wsn_core::PersistError::Mismatch).
//!
//! Ingestion is at-least-once: buffered-but-unexecuted readings are not part
//! of a snapshot, and after a resume the caller re-ingests its stream —
//! batches for epochs the restored cursor already passed are dropped as
//! stale.
//!
//! Each due tenant's payload is built and serialized inside its own slide
//! job, right after its slides, beside other tenants' slides on the pool.
//! The calling thread joins the jobs shard by shard and writes each
//! shard's file as soon as its jobs are back; it submits only one shard
//! ahead of the shard it joins, so at most two shards' payloads are alive
//! at a time, however fast the pool runs. Every file operation and crash
//! point stays on the calling thread. A steady-state tenant of the
//! benchmark's fleet (nine sensors, `w = 8`) snapshots to about 18 kB.

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
