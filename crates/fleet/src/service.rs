//! The multi-tenant service: batched ingestion, sharded slide dispatch
//! over the worker pool, and per-tenant checkpoint/resume.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use wsn_core::persist::{self, PersistError};
use wsn_data::{DataPoint, SensorId};
use wsn_pool::WorkerPool;
use wsn_ranking::OutlierEstimate;

use crate::tenant::{TenantRuntime, TenantSlide, TenantSpec, TenantTraffic, TENANT_SNAPSHOT_KIND};

/// Identifies one tenant (one independent deployment) within a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Everything that can go wrong operating a fleet.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// A tenant spec failed validation.
    InvalidSpec(String),
    /// The tenant id is not registered.
    UnknownTenant(TenantId),
    /// The tenant id is already registered.
    DuplicateTenant(TenantId),
    /// A checkpoint write or read failed.
    Persist(PersistError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidSpec(msg) => write!(f, "invalid tenant spec: {msg}"),
            FleetError::UnknownTenant(id) => write!(f, "unknown {id}"),
            FleetError::DuplicateTenant(id) => write!(f, "{id} is already registered"),
            FleetError::Persist(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<PersistError> for FleetError {
    fn from(e: PersistError) -> Self {
        FleetError::Persist(e)
    }
}

/// What [`DetectorFleet::ingest`] did with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReceipt {
    /// Points buffered for future slides.
    pub buffered: usize,
    /// Points dropped as stale (epoch already executed), foreign (unknown
    /// sensor) or malformed (a feature count other than the tenant's, see
    /// [`TenantRuntime::ingest`]).
    pub dropped: usize,
}

/// One executed slide, attributed to its tenant — the unit the step/flush
/// calls report, in ascending tenant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSlide {
    /// The tenant that slid.
    pub tenant: TenantId,
    /// The slide outcome.
    pub slide: TenantSlide,
}

/// When and where checkpoints are written.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Snapshot a tenant whenever it has executed this many slides since
    /// its last checkpoint.
    pub every: u64,
    /// Directory holding one `tenant-<id>.json` per tenant.
    pub dir: PathBuf,
}

/// The outcome of [`DetectorFleet::resume_from`], per tenant.
#[derive(Debug, Default)]
pub struct ResumeReport {
    /// Tenants restored from their snapshot file.
    pub restored: Vec<TenantId>,
    /// Tenants with no snapshot file (left fresh).
    pub fresh: Vec<TenantId>,
    /// Tenants whose snapshot was refused, with the typed reason; the
    /// tenant stays fresh, the rest of the fleet is unaffected.
    pub failed: Vec<(TenantId, PersistError)>,
}

/// How slide jobs run: on the shared pool, an owned pool, or inline on the
/// calling thread (the sequential reference the equivalence suite compares
/// against).
enum Dispatch {
    Global,
    Owned(Arc<WorkerPool>),
    Sequential,
}

/// A multi-tenant detection service. See the crate docs for the tenant
/// model, the determinism contract and the checkpoint composition.
pub struct DetectorFleet {
    tenants: BTreeMap<TenantId, TenantRuntime>,
    shards: usize,
    dispatch: Dispatch,
    checkpoint: Option<CheckpointPolicy>,
    /// Slide count at each tenant's last checkpoint.
    checkpointed_at: BTreeMap<TenantId, u64>,
}

impl DetectorFleet {
    /// A fleet dispatching slide jobs over the process-wide shared
    /// [`WorkerPool`], tenants hashed onto `shards` shards.
    pub fn new(shards: usize) -> Self {
        DetectorFleet {
            tenants: BTreeMap::new(),
            shards: shards.max(1),
            dispatch: Dispatch::Global,
            checkpoint: None,
            checkpointed_at: BTreeMap::new(),
        }
    }

    /// The sequential reference: identical scheduling, slides executed
    /// inline in ascending tenant order. [`DetectorFleet::step`] over the
    /// pool is bit-for-bit equal to this.
    pub fn sequential() -> Self {
        DetectorFleet { dispatch: Dispatch::Sequential, ..DetectorFleet::new(1) }
    }

    /// Uses an owned pool instead of the shared one.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.dispatch = Dispatch::Owned(pool);
        self
    }

    /// Registers a tenant. Fails on duplicate ids or an invalid spec.
    pub fn add_tenant(&mut self, id: TenantId, spec: TenantSpec) -> Result<(), FleetError> {
        if self.tenants.contains_key(&id) {
            return Err(FleetError::DuplicateTenant(id));
        }
        let runtime = TenantRuntime::new(spec)?;
        self.tenants.insert(id, runtime);
        self.checkpointed_at.insert(id, 0);
        crate::OBS_TENANTS_ACTIVE.set(self.tenants.len() as f64);
        Ok(())
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The registered tenant ids, ascending.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.keys().copied().collect()
    }

    /// Enables periodic checkpoints: every `k` executed slides per tenant,
    /// a `tenant-<id>.json` snapshot is written atomically under `dir`.
    pub fn checkpoint_every_epochs(&mut self, k: u64, dir: impl Into<PathBuf>) {
        self.checkpoint = Some(CheckpointPolicy { every: k.max(1), dir: dir.into() });
    }

    /// Buffers a batch of readings for `tenant`. Points are routed by their
    /// origin sensor and epoch; stale, foreign or malformed points are
    /// dropped and counted in the receipt.
    pub fn ingest(
        &mut self,
        tenant: TenantId,
        batch: Vec<DataPoint>,
    ) -> Result<IngestReceipt, FleetError> {
        let runtime = self.tenants.get_mut(&tenant).ok_or(FleetError::UnknownTenant(tenant))?;
        let (buffered, dropped) = runtime.ingest(batch);
        crate::OBS_BATCHES_INGESTED.add(1);
        crate::OBS_POINTS_INGESTED.add(buffered as u64);
        Ok(IngestReceipt { buffered, dropped })
    }

    /// Executes every due slide (see [`TenantRuntime::due`]) and returns
    /// the outcomes in ascending tenant order. Checkpoints any tenant that
    /// crossed its interval.
    pub fn step(&mut self) -> Result<Vec<FleetSlide>, FleetError> {
        let due: Vec<TenantId> =
            self.tenants.iter().filter(|(_, rt)| rt.due()).map(|(&id, _)| id).collect();
        self.run(due, false)
    }

    /// Forces every buffered epoch through, including incomplete tails —
    /// the end-of-stream drain. Returns the outcomes in ascending tenant
    /// order.
    pub fn flush(&mut self) -> Result<Vec<FleetSlide>, FleetError> {
        let work: Vec<TenantId> =
            self.tenants.iter().filter(|(_, rt)| rt.has_buffered()).map(|(&id, _)| id).collect();
        self.run(work, true)
    }

    /// Dispatches `ids` (one pool job per tenant, grouped by shard),
    /// collects in ascending tenant order, then checkpoints on the calling
    /// thread.
    fn run(&mut self, ids: Vec<TenantId>, force: bool) -> Result<Vec<FleetSlide>, FleetError> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let _span = wsn_obs::span("fleet.step");
        let outcomes: BTreeMap<TenantId, Vec<TenantSlide>> = match &self.dispatch {
            Dispatch::Sequential => {
                let mut out = BTreeMap::new();
                for id in &ids {
                    let rt = self.tenants.get_mut(id).expect("due ids are registered");
                    out.insert(*id, rt.run_due(force));
                }
                out
            }
            Dispatch::Global => self.run_pooled(&ids, force, wsn_pool::global()),
            Dispatch::Owned(pool) => {
                let pool = Arc::clone(pool);
                self.run_pooled(&ids, force, &pool)
            }
        };
        let mut slides = Vec::new();
        for (tenant, batch) in &outcomes {
            crate::OBS_SLIDES_EXECUTED.add(batch.len() as u64);
            for &slide in batch {
                slides.push(FleetSlide { tenant: *tenant, slide });
            }
        }
        self.write_due_checkpoints()?;
        Ok(slides)
    }

    /// One pool job per tenant: the runtime moves into the job, slides, and
    /// comes back with its outcomes. Submission is grouped by shard;
    /// collection is in ascending tenant order, which (tenants being
    /// independent) makes the result identical to the sequential loop.
    fn run_pooled(
        &mut self,
        ids: &[TenantId],
        force: bool,
        pool: &WorkerPool,
    ) -> BTreeMap<TenantId, Vec<TenantSlide>> {
        let mut by_shard: Vec<(usize, TenantId)> =
            ids.iter().map(|&id| (self.shard_of(id), id)).collect();
        let mut shard_load = vec![0u64; self.shards];
        for &(shard, _) in &by_shard {
            shard_load[shard] += 1;
        }
        let max = shard_load.iter().copied().max().unwrap_or(0);
        let min = shard_load.iter().copied().min().unwrap_or(0);
        crate::OBS_SHARD_IMBALANCE.set((max - min) as f64);
        by_shard.sort_by_key(|&(shard, id)| (shard, id));

        let mut handles = BTreeMap::new();
        for (_, id) in by_shard {
            let mut runtime = self.tenants.remove(&id).expect("due ids are registered");
            let handle = pool.submit(move || {
                let slides = runtime.run_due(force);
                (runtime, slides)
            });
            handles.insert(id, handle);
        }
        let mut outcomes = BTreeMap::new();
        for (id, handle) in handles {
            let (runtime, slides) = handle.join();
            self.tenants.insert(id, runtime);
            outcomes.insert(id, slides);
        }
        outcomes
    }

    fn shard_of(&self, id: TenantId) -> usize {
        (persist::fnv1a64(&id.0.to_le_bytes()) % self.shards as u64) as usize
    }

    /// Writes a snapshot for every tenant that crossed its checkpoint
    /// interval since the last one. Runs on the calling thread so the
    /// crash-injection harness ([`wsn_core::persist::arm_crash_point`])
    /// observes the same thread-local sites as the streaming layer.
    fn write_due_checkpoints(&mut self) -> Result<(), FleetError> {
        let Some(policy) = self.checkpoint.clone() else {
            return Ok(());
        };
        std::fs::create_dir_all(&policy.dir)
            .map_err(|e| FleetError::Persist(PersistError::Io(e.to_string())))?;
        for (&id, runtime) in &self.tenants {
            let since = runtime.slides() - self.checkpointed_at.get(&id).copied().unwrap_or(0);
            if since < policy.every {
                continue;
            }
            let payload = runtime.snapshot_payload();
            let bytes = persist::write_atomic(
                &Self::tenant_path(&policy.dir, id),
                TENANT_SNAPSHOT_KIND,
                &payload,
            )?;
            crate::OBS_SNAPSHOTS_WRITTEN.add(1);
            crate::OBS_SNAPSHOT_BYTES.add(bytes);
            self.checkpointed_at.insert(id, runtime.slides());
            persist::crash_point("persist.after_checkpoint");
        }
        Ok(())
    }

    /// The snapshot file of one tenant under `dir`.
    pub fn tenant_path(dir: &Path, id: TenantId) -> PathBuf {
        dir.join(format!("{id}.json"))
    }

    /// Restores every registered tenant from its snapshot under `dir`,
    /// each in isolation: tenants without a file stay fresh, tenants whose
    /// snapshot is corrupt, torn, of the wrong kind or of a different
    /// `config_hash` are refused with a typed error **without** affecting
    /// any other tenant. After resuming, re-ingest the input stream —
    /// epochs the restored cursors already executed are dropped as stale.
    pub fn resume_from(&mut self, dir: impl AsRef<Path>) -> ResumeReport {
        let dir = dir.as_ref();
        let mut report = ResumeReport::default();
        for (&id, runtime) in &mut self.tenants {
            let path = Self::tenant_path(dir, id);
            if !path.exists() {
                report.fresh.push(id);
                continue;
            }
            let outcome = persist::read_verified(&path).and_then(|(kind, payload)| {
                if kind != TENANT_SNAPSHOT_KIND {
                    return Err(PersistError::Mismatch(format!(
                        "expected a \"{TENANT_SNAPSHOT_KIND}\" snapshot, found \"{kind}\""
                    )));
                }
                runtime.restore(&payload)
            });
            match outcome {
                Ok(()) => {
                    self.checkpointed_at.insert(id, runtime.slides());
                    report.restored.push(id);
                }
                Err(e) => report.failed.push((id, e)),
            }
        }
        report
    }

    /// The current estimates of one tenant's nodes.
    pub fn estimates(
        &self,
        tenant: TenantId,
    ) -> Result<BTreeMap<SensorId, OutlierEstimate>, FleetError> {
        self.runtime(tenant).map(TenantRuntime::estimates)
    }

    /// One tenant's cumulative traffic counters.
    pub fn traffic(&self, tenant: TenantId) -> Result<TenantTraffic, FleetError> {
        self.runtime(tenant).map(TenantRuntime::traffic)
    }

    /// One tenant's next epoch (its slide cursor).
    pub fn next_epoch(&self, tenant: TenantId) -> Result<u64, FleetError> {
        self.runtime(tenant).map(TenantRuntime::next_epoch)
    }

    /// One tenant's executed-slide count.
    pub fn slides(&self, tenant: TenantId) -> Result<u64, FleetError> {
        self.runtime(tenant).map(TenantRuntime::slides)
    }

    fn runtime(&self, tenant: TenantId) -> Result<&TenantRuntime, FleetError> {
        self.tenants.get(&tenant).ok_or(FleetError::UnknownTenant(tenant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_core::experiment::{AlgorithmConfig, RankingChoice};
    use wsn_data::stream::SensorSpec;
    use wsn_data::{Epoch, Position, Timestamp};

    fn spec() -> TenantSpec {
        let sensors = (0..4u32)
            .map(|i| {
                SensorSpec::new(
                    SensorId(i),
                    Position { x: f64::from(i % 2) * 10.0, y: f64::from(i / 2) * 10.0 },
                )
            })
            .collect();
        TenantSpec {
            sensors,
            transmission_range_m: 15.0,
            algorithm: AlgorithmConfig::Global { ranking: RankingChoice::Nn },
            n: 1,
            window_samples: 6,
            sample_interval_secs: 31.0,
        }
    }

    fn epoch_batch(tenant_salt: u64, epoch: u64) -> Vec<DataPoint> {
        (0..4u32)
            .map(|i| {
                DataPoint::new(
                    SensorId(i),
                    Epoch(epoch),
                    Timestamp::from_secs_f64(epoch as f64 * 31.0),
                    vec![20.0 + 0.01 * f64::from(i) + 0.001 * tenant_salt as f64],
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn unknown_and_duplicate_tenants_are_typed_errors() {
        let mut fleet = DetectorFleet::sequential();
        fleet.add_tenant(TenantId(1), spec()).unwrap();
        assert!(matches!(
            fleet.add_tenant(TenantId(1), spec()),
            Err(FleetError::DuplicateTenant(TenantId(1)))
        ));
        assert!(matches!(
            fleet.ingest(TenantId(2), Vec::new()),
            Err(FleetError::UnknownTenant(TenantId(2)))
        ));
    }

    #[test]
    fn step_executes_due_tenants_and_reports_in_tenant_order() {
        let mut fleet = DetectorFleet::new(2);
        for t in 0..6u64 {
            fleet.add_tenant(TenantId(t), spec()).unwrap();
        }
        for t in 0..6u64 {
            fleet.ingest(TenantId(t), epoch_batch(t, 0)).unwrap();
        }
        let slides = fleet.step().unwrap();
        assert_eq!(slides.len(), 6);
        let order: Vec<u64> = slides.iter().map(|s| s.tenant.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert!(fleet.step().unwrap().is_empty(), "nothing due twice");
    }

    #[test]
    fn a_corrupt_snapshot_is_refused_without_poisoning_the_fleet() {
        let dir = std::env::temp_dir().join(format!("wsn-fleet-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fleet = DetectorFleet::sequential();
        for t in 0..3u64 {
            fleet.add_tenant(TenantId(t), spec()).unwrap();
        }
        fleet.checkpoint_every_epochs(1, &dir);
        for e in 0..2u64 {
            for t in 0..3u64 {
                fleet.ingest(TenantId(t), epoch_batch(t, e)).unwrap();
            }
            fleet.step().unwrap();
        }
        // Corrupt tenant 1's snapshot payload.
        let path = DetectorFleet::tenant_path(&dir, TenantId(1));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace('2', "3")).unwrap();

        let mut resumed = DetectorFleet::sequential();
        for t in 0..3u64 {
            resumed.add_tenant(TenantId(t), spec()).unwrap();
        }
        let report = resumed.resume_from(&dir);
        assert_eq!(report.restored, vec![TenantId(0), TenantId(2)]);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, TenantId(1));
        assert_eq!(resumed.next_epoch(TenantId(0)).unwrap(), 2);
        assert_eq!(resumed.next_epoch(TenantId(1)).unwrap(), 0, "refused tenant stays fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deeply_nested_header_is_refused_without_aborting_the_fleet() {
        let dir = std::env::temp_dir().join(format!("wsn-fleet-deep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fleet = DetectorFleet::sequential();
        for t in 0..3u64 {
            fleet.add_tenant(TenantId(t), spec()).unwrap();
        }
        fleet.checkpoint_every_epochs(1, &dir);
        for t in 0..3u64 {
            fleet.ingest(TenantId(t), epoch_batch(t, 0)).unwrap();
        }
        fleet.step().unwrap();
        // Tenant 1's header line becomes 100 000 nested arrays: parsing it by
        // unbounded recursion would overflow the stack and abort everyone.
        let path = DetectorFleet::tenant_path(&dir, TenantId(1));
        let text = std::fs::read_to_string(&path).unwrap();
        let (_, payload) = text.split_once('\n').unwrap();
        std::fs::write(&path, format!("{}\n{payload}", "[".repeat(100_000))).unwrap();

        let mut resumed = DetectorFleet::sequential();
        for t in 0..3u64 {
            resumed.add_tenant(TenantId(t), spec()).unwrap();
        }
        let report = resumed.resume_from(&dir);
        assert_eq!(report.restored, vec![TenantId(0), TenantId(2)]);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, TenantId(1));
        assert!(matches!(report.failed[0].1, PersistError::Corrupt(_)), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reading_of_the_wrong_dimensionality_is_dropped_not_panicked_on() {
        let pooled: fn() -> DetectorFleet = || DetectorFleet::new(2);
        for make in [DetectorFleet::sequential, pooled] {
            let (mut fleet, mut clean) = (make(), make());
            for t in 0..3u64 {
                fleet.add_tenant(TenantId(t), spec()).unwrap();
                clean.add_tenant(TenantId(t), spec()).unwrap();
            }
            for epoch in 0..4u64 {
                for t in 0..3u64 {
                    let mut batch = epoch_batch(t, epoch);
                    let receipt = clean.ingest(TenantId(t), batch.clone()).unwrap();
                    assert_eq!(receipt, IngestReceipt { buffered: 4, dropped: 0 });
                    if t == 1 && epoch == 2 {
                        batch[3].features.push(1.0);
                        let receipt = fleet.ingest(TenantId(t), batch).unwrap();
                        assert_eq!(receipt, IngestReceipt { buffered: 3, dropped: 1 });
                    } else {
                        fleet.ingest(TenantId(t), batch).unwrap();
                    }
                }
                // Tenant 1's epoch 2 lacks a sensor, so it waits for the
                // epoch 3 watermark and then slides twice.
                let slides = fleet.step().unwrap();
                assert_eq!(slides.len(), [3, 3, 2, 4][epoch as usize], "epoch {epoch}");
                clean.step().unwrap();
            }
            fleet.flush().unwrap();
            clean.flush().unwrap();
            for t in [0, 2] {
                let id = TenantId(t);
                assert_eq!(fleet.estimates(id).unwrap(), clean.estimates(id).unwrap());
                assert_eq!(fleet.traffic(id).unwrap(), clean.traffic(id).unwrap());
            }
            assert_eq!(fleet.next_epoch(TenantId(1)).unwrap(), 4, "tenant 1 still slides");
        }
    }

    #[test]
    fn the_first_reading_of_an_empty_tenant_sets_its_dimensionality() {
        let mut fleet = DetectorFleet::sequential();
        fleet.add_tenant(TenantId(0), spec()).unwrap();
        let mut batch = epoch_batch(0, 0);
        for p in &mut batch {
            p.features.push(0.5);
        }
        batch[2].features.pop();
        let receipt = fleet.ingest(TenantId(0), batch).unwrap();
        assert_eq!(receipt, IngestReceipt { buffered: 3, dropped: 1 });
    }
}
