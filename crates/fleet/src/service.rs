//! The multi-tenant service: batched ingestion, sharded slide dispatch
//! over the worker pool, and group-committed checkpoints, one file per
//! shard.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

use wsn_core::persist::{self, PersistError};
use wsn_data::{DataPoint, SensorId};
use wsn_pool::{JobHandle, WorkerPool};
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
    /// sensor) or malformed (a non-finite feature, or a feature count other
    /// than the tenant's, see [`TenantRuntime::ingest`]).
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
    /// Directory holding one `shard-<i>.json` per shard, each with one
    /// record per tenant of the shard.
    pub dir: PathBuf,
}

/// The outcome of [`DetectorFleet::resume_from`], per tenant; each list is
/// in ascending tenant order.
#[derive(Debug, Default)]
pub struct ResumeReport {
    /// Tenants restored from their record.
    pub restored: Vec<TenantId>,
    /// Tenants with no record and nothing else in the directory that could
    /// hold their state (left fresh).
    pub fresh: Vec<TenantId>,
    /// Tenants whose record was refused, or could not be read, with the
    /// typed reason; the tenant stays fresh, and tenants whose records read
    /// cleanly are unaffected.
    pub failed: Vec<(TenantId, PersistError)>,
}

/// Snapshot `kind` of a shard file's header line.
const SHARD_KIND: &str = "fleet-shard";

/// A tenant's slide job comes back with its runtime, its slides and, if
/// those made it checkpoint-due, its framed checkpoint record.
type JobOutput = (TenantRuntime, Vec<TenantSlide>, Option<Vec<u8>>);

/// A dispatched slide job: pending on a pool, or already run inline (the
/// sequential reference).
enum Job {
    Pooled(JobHandle<JobOutput>),
    Inline(Box<JobOutput>),
}

impl Job {
    fn join(self) -> JobOutput {
        match self {
            Job::Pooled(handle) => handle.join(),
            Job::Inline(output) => *output,
        }
    }
}

/// One tenant's work: its due slides, then its checkpoint record if
/// `checkpoint` (`(every, slides at its last checkpoint)`) says it is due.
fn slide_job(
    id: TenantId,
    mut runtime: TenantRuntime,
    force: bool,
    checkpoint: Option<(u64, u64)>,
) -> JobOutput {
    let slides = runtime.run_due(force);
    let record = checkpoint
        .filter(|&(every, at)| checkpoint_due(runtime.slides(), at, every))
        .map(|_| tenant_record(id, &runtime));
    (runtime, slides, record)
}

/// Whether a tenant at `slides`, last checkpointed at `at`, is due.
fn checkpoint_due(slides: u64, at: u64, every: u64) -> bool {
    slides.saturating_sub(at) >= every
}

/// A tenant's framed checkpoint record: its
/// [`TenantRuntime::snapshot_payload`] as compact JSON.
fn tenant_record(id: TenantId, runtime: &TenantRuntime) -> Vec<u8> {
    let payload = runtime.snapshot_payload().to_compact_string();
    persist::frame_record(TENANT_SNAPSHOT_KIND, id.0, payload.as_bytes())
}

/// Refuses a shard file of another kind, shard or shard count.
fn check_shard_header(
    header: &persist::JsonValue,
    shard: usize,
    shards: usize,
) -> Result<(), PersistError> {
    let bad = |e: PersistError| PersistError::Corrupt(format!("bad shard header: {e}"));
    let kind = persist::str_field(header, "kind").map_err(bad)?;
    if kind != SHARD_KIND {
        return Err(PersistError::Mismatch(format!(
            "expected a \"{SHARD_KIND}\" file, found \"{kind}\""
        )));
    }
    let index = persist::u64_field(header, "shard").map_err(bad)?;
    let count = persist::u64_field(header, "shards").map_err(bad)?;
    if (index, count) != (shard as u64, shards as u64) {
        return Err(PersistError::Mismatch(format!(
            "shard-{shard}.json holds shard {index} of {count}, this fleet's is shard {shard} of {shards}"
        )));
    }
    Ok(())
}

fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard}.json")
}

/// The shard index of a `shard-<i>.json` file name.
fn shard_index(name: &str) -> Option<usize> {
    name.strip_prefix("shard-")?.strip_suffix(".json")?.parse().ok()
}

/// How slide jobs run: on the shared pool, or inline on the calling thread
/// (the sequential reference the equivalence suite compares against).
enum Dispatch {
    Global,
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
    /// Tenants whose record in the checkpoint directory is the one their
    /// last checkpoint wrote, or their resume from that directory read. A
    /// rewrite of their shard copies that record forward while they are not
    /// due, rather than snapshotting them again.
    on_disk: BTreeSet<TenantId>,
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
            on_disk: BTreeSet::new(),
        }
    }

    /// The sequential reference: identical scheduling, slides executed
    /// inline in ascending tenant order. [`DetectorFleet::step`] over the
    /// pool is bit-for-bit equal to this.
    pub fn sequential() -> Self {
        DetectorFleet { dispatch: Dispatch::Sequential, ..DetectorFleet::new(1) }
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

    /// Enables periodic checkpoints: whenever a tenant has executed `k`
    /// slides since its last checkpoint, its shard's file under `dir`,
    /// `shard-<i>.json`, is rewritten atomically with a fresh record for
    /// that tenant and the last record of every other tenant of the shard.
    /// A step pays one fsync per shard file it rewrites and one directory
    /// fsync.
    pub fn checkpoint_every_epochs(&mut self, k: u64, dir: impl Into<PathBuf>) {
        self.checkpoint = Some(CheckpointPolicy { every: k.max(1), dir: dir.into() });
        self.on_disk.clear();
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

    /// Dispatches `ids`, one job per tenant, submitted shard by shard. The
    /// calling thread joins the jobs shard by shard and writes each shard's
    /// checkpoint file as soon as the shard's jobs are back, then fsyncs the
    /// directory once. With checkpoints on, it submits only one shard ahead
    /// of the one it joins: a finished job holds its tenant's payload text
    /// until its shard is written, so at most two shards' payloads are
    /// alive, however fast the pool runs. Outcomes are reported in
    /// ascending tenant order, which (tenants being independent) makes a
    /// pooled step identical to the sequential loop.
    fn run(&mut self, ids: Vec<TenantId>, force: bool) -> Result<Vec<FleetSlide>, FleetError> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let _span = wsn_obs::span("fleet.step");
        let mut by_shard: Vec<Vec<TenantId>> = vec![Vec::new(); self.shards];
        for id in ids {
            by_shard[self.shard_of(id)].push(id);
        }
        let loads = by_shard.iter().map(Vec::len);
        let imbalance = loads.clone().max().unwrap_or(0) - loads.min().unwrap_or(0);
        crate::OBS_SHARD_IMBALANCE.set(imbalance as f64);

        let pool = match &self.dispatch {
            Dispatch::Global => Some(wsn_pool::global()),
            Dispatch::Sequential => None,
        };
        let every = self.checkpoint.as_ref().map(|policy| policy.every);
        let members = if every.is_some() { self.shard_members() } else { Vec::new() };
        let window = if every.is_some() { 2 } else { self.shards };
        let mut unsubmitted = by_shard.into_iter();
        let mut in_flight = VecDeque::with_capacity(window);
        let mut outcomes = BTreeMap::new();
        let mut failure = None;
        let mut wrote = false;
        for shard in 0..self.shards {
            for ids in unsubmitted.by_ref().take(window - in_flight.len()) {
                in_flight.push_back(self.submit(pool, ids, force, every));
            }
            let shard_jobs = in_flight.pop_front().expect("every shard is submitted in turn");
            let mut records = BTreeMap::new();
            // The pool runs jobs in submission order, so a shard's last job
            // is about the last to finish: joined first, it puts the calling
            // thread to sleep once per shard, not once per tenant.
            for (id, job) in shard_jobs.into_iter().rev() {
                let (runtime, slides, record) = job.join();
                self.tenants.insert(id, runtime);
                crate::OBS_SLIDES_EXECUTED.add(slides.len() as u64);
                outcomes.insert(id, slides);
                records.extend(record.map(|record| (id, record)));
            }
            // After a failed write, the remaining jobs are still joined so
            // that every runtime is back before the error returns.
            if let (None, Some(members)) = (&failure, members.get(shard)) {
                match self.checkpoint_shard(shard, members, records) {
                    Ok(written) => wrote |= written,
                    Err(e) => failure = Some(e),
                }
            }
        }
        if let (true, Some(policy)) = (wrote, &self.checkpoint) {
            persist::sync_dir(&policy.dir);
        }
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(outcomes
            .into_iter()
            .flat_map(|(tenant, slides)| {
                slides.into_iter().map(move |slide| FleetSlide { tenant, slide })
            })
            .collect())
    }

    /// Submits one shard's slide jobs in ascending tenant order; each
    /// tenant's runtime leaves the fleet until its job is joined.
    fn submit(
        &mut self,
        pool: Option<&WorkerPool>,
        ids: Vec<TenantId>,
        force: bool,
        every: Option<u64>,
    ) -> Vec<(TenantId, Job)> {
        ids.into_iter()
            .map(|id| {
                let runtime = self.tenants.remove(&id).expect("due ids are registered");
                let checkpoint = every.map(|every| (every, self.checkpointed_at(id)));
                let job = match pool {
                    Some(pool) => {
                        Job::Pooled(pool.submit(move || slide_job(id, runtime, force, checkpoint)))
                    }
                    None => Job::Inline(Box::new(slide_job(id, runtime, force, checkpoint))),
                };
                (id, job)
            })
            .collect()
    }

    fn shard_of(&self, id: TenantId) -> usize {
        (persist::fnv1a64(&id.0.to_le_bytes()) % self.shards as u64) as usize
    }

    /// The registered tenants of each shard, ascending.
    fn shard_members(&self) -> Vec<Vec<TenantId>> {
        let mut members = vec![Vec::new(); self.shards];
        for &id in self.tenants.keys() {
            members[self.shard_of(id)].push(id);
        }
        members
    }

    fn checkpointed_at(&self, id: TenantId) -> u64 {
        self.checkpointed_at.get(&id).copied().unwrap_or(0)
    }

    /// Rewrites `shard`'s checkpoint file if any of its `members` is
    /// checkpoint-due, with a record for every member. `records` are the
    /// fresh ones the slide jobs built. A member that is not due keeps its
    /// last record, copied from the shard's current file; one that is due
    /// anyway, or has no readable record there yet, is snapshotted here.
    /// Every file operation and crash point runs on the calling thread, so
    /// the crash-injection harness
    /// ([`wsn_core::persist::arm_crash_point`]) observes the same
    /// thread-local sites as the streaming layer. Returns whether the file
    /// was written; the caller fsyncs the directory.
    fn checkpoint_shard(
        &mut self,
        shard: usize,
        members: &[TenantId],
        mut records: BTreeMap<TenantId, Vec<u8>>,
    ) -> Result<bool, FleetError> {
        let Some(policy) = &self.checkpoint else {
            return Ok(false);
        };
        let due = |id: &TenantId| {
            checkpoint_due(self.tenants[id].slides(), self.checkpointed_at(*id), policy.every)
        };
        if records.is_empty() && !members.iter().any(due) {
            return Ok(false);
        }
        let _span = wsn_obs::span("fleet.checkpoint");
        let path = policy.dir.join(shard_file_name(shard));
        // A slide job builds a record only for a due tenant, so `records`
        // holds none of these.
        let keeps = |id: &TenantId| !due(id) && self.on_disk.contains(id);
        let file = members.iter().any(keeps).then(|| std::fs::read(&path).ok()).flatten();
        let current = file
            .as_deref()
            .and_then(|file| persist::read_records(file).ok())
            .filter(|read| check_shard_header(&read.header, shard, self.shards).is_ok());
        let mut snapshotted = Vec::new();
        let mut framed = Vec::with_capacity(members.len());
        for id in members {
            let kept = current
                .as_ref()
                .filter(|_| keeps(id))
                .and_then(|read| read.records.get(&id.0)?.as_ref().ok())
                .filter(|(kind, _)| kind == TENANT_SNAPSHOT_KIND);
            framed.push(match kept {
                Some((kind, payload)) => persist::frame_record(kind, id.0, payload),
                None => {
                    snapshotted.push(*id);
                    records.remove(id).unwrap_or_else(|| tenant_record(*id, &self.tenants[id]))
                }
            });
        }
        std::fs::create_dir_all(&policy.dir)
            .map_err(|e| PersistError::Io(format!("{}: {e}", policy.dir.display())))?;
        let bytes = persist::write_records(
            &path,
            SHARD_KIND,
            &[("shard", shard as u64), ("shards", self.shards as u64)],
            &framed,
        )?;
        crate::OBS_SNAPSHOTS_WRITTEN.add(snapshotted.len() as u64);
        crate::OBS_SNAPSHOT_BYTES.add(bytes);
        for id in snapshotted {
            let slides = self.tenants[&id].slides();
            self.checkpointed_at.insert(id, slides);
        }
        self.on_disk.extend(members);
        persist::crash_point("persist.after_checkpoint");
        Ok(true)
    }

    /// The checkpoint file under `dir` that holds `tenant`'s record: its
    /// shard's file.
    pub fn checkpoint_path(&self, dir: &Path, tenant: TenantId) -> PathBuf {
        dir.join(shard_file_name(self.shard_of(tenant)))
    }

    /// Restores every registered tenant from its record under `dir`. Each
    /// shard file is read once, and each record is verified and restored on
    /// its own: a record that is corrupt, torn, of a stale version, of the
    /// wrong kind or of a different `config_hash` is refused with a typed
    /// error for its tenant only. Damage that hides which tenant a record
    /// belongs to (a shard header or a record header that cannot be read,
    /// or a record failing its checksum, which covers its id) refuses the
    /// shard's tenants whose records cannot be read, never another
    /// shard's. A tenant with no record stays fresh, unless the
    /// directory holds a shard file written under another shard count or a
    /// `tenant-<id>.json` of the per-tenant layout for it: both are refused
    /// with [`PersistError::Mismatch`]. A leftover `*.tmp` is ignored. After
    /// resuming, re-ingest the input stream — epochs the restored cursors
    /// already executed are dropped as stale.
    pub fn resume_from(&mut self, dir: impl AsRef<Path>) -> ResumeReport {
        let dir = dir.as_ref();
        let mut report = ResumeReport::default();
        self.on_disk.clear();
        let writes_here = self.checkpoint.as_ref().is_some_and(|policy| policy.dir == dir);
        let listing: BTreeSet<String> = match std::fs::read_dir(dir) {
            Ok(entries) => {
                entries.filter_map(|entry| entry.ok()?.file_name().into_string().ok()).collect()
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeSet::new(),
            Err(e) => {
                let error = PersistError::Io(format!("cannot list {}: {e}", dir.display()));
                report.failed = self.tenants.keys().map(|&id| (id, error.clone())).collect();
                return report;
            }
        };
        let shards = self.shards;
        let mut foreign =
            listing.iter().filter_map(|name| shard_index(name)).find(|&i| i >= shards).map(|i| {
                PersistError::Mismatch(format!(
                    "{} holds shard-{i}.json, but this fleet has {shards} shards",
                    dir.display()
                ))
            });
        let mut unread = Vec::new();
        for (shard, members) in self.shard_members().into_iter().enumerate() {
            let name = shard_file_name(shard);
            if !listing.contains(&name) {
                unread.extend(members);
                continue;
            }
            let path = dir.join(&name);
            let file = std::fs::read(&path)
                .map_err(|e| PersistError::Io(format!("cannot read {}: {e}", path.display())));
            let records = file.as_deref().map_err(Clone::clone).and_then(|file| {
                let records = persist::read_records(file)?;
                check_shard_header(&records.header, shard, shards)?;
                Ok(records)
            });
            let mut records = match records {
                Ok(records) => records,
                Err(e) => {
                    if matches!(e, PersistError::Mismatch(_)) {
                        foreign.get_or_insert_with(|| e.clone());
                    }
                    report.failed.extend(members.into_iter().map(|id| (id, e.clone())));
                    continue;
                }
            };
            for id in members {
                let Some(verified) = records.records.remove(&id.0) else {
                    match &records.damage {
                        Some(damage) => report.failed.push((id, damage.clone())),
                        None => unread.push(id),
                    }
                    continue;
                };
                let runtime = self.tenants.get_mut(&id).expect("members are registered");
                let restored = verified.and_then(|(kind, payload)| {
                    if kind != TENANT_SNAPSHOT_KIND {
                        return Err(PersistError::Mismatch(format!(
                            "expected a \"{TENANT_SNAPSHOT_KIND}\" record, found \"{kind}\""
                        )));
                    }
                    runtime.restore(&persist::parse_payload(payload)?)
                });
                match restored {
                    Ok(()) => {
                        self.checkpointed_at.insert(id, runtime.slides());
                        if writes_here {
                            self.on_disk.insert(id);
                        }
                        report.restored.push(id);
                    }
                    Err(e) => report.failed.push((id, e)),
                }
            }
        }
        // A tenant without a record is fresh only if nothing in the
        // directory could hold its state.
        for id in unread {
            let legacy = format!("tenant-{}.json", id.0);
            if listing.contains(&legacy) {
                report.failed.push((
                    id,
                    PersistError::Mismatch(format!(
                        "{legacy} is a per-tenant checkpoint; this fleet reads shard files"
                    )),
                ));
            } else if let Some(e) = &foreign {
                report.failed.push((id, e.clone()));
            } else {
                report.fresh.push(id);
            }
        }
        report.restored.sort_unstable();
        report.fresh.sort_unstable();
        report.failed.sort_by_key(|&(id, _)| id);
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

    /// Rewrites `tenant`'s record in its shard file under `dir`: `edit`
    /// maps the record's header and payload lines to new ones.
    fn edit_record(
        fleet: &DetectorFleet,
        dir: &Path,
        tenant: TenantId,
        edit: impl FnOnce(&str, &str) -> (String, String),
    ) {
        let path = fleet.checkpoint_path(dir, tenant);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let at = (1..lines.len())
            .step_by(2)
            .find(|&i| {
                let header = wsn_json::JsonValue::parse(&lines[i]).unwrap();
                header.get("id").and_then(wsn_json::JsonValue::as_u64) == Some(tenant.0)
            })
            .expect("the shard file holds the tenant's record");
        let (header, payload) = edit(&lines[at], &lines[at + 1]);
        (lines[at], lines[at + 1]) = (header, payload);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
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
        // Corrupt tenant 1's payload inside the shard file all three share.
        edit_record(&fleet, &dir, TenantId(1), |header, payload| {
            (header.to_string(), payload.replacen('2', "3", 1))
        });

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
        // Tenant 1's record header becomes 100 000 nested arrays: parsing it
        // by unbounded recursion would overflow the stack and abort everyone.
        edit_record(&fleet, &dir, TenantId(1), |_, payload| {
            ("[".repeat(100_000), payload.to_string())
        });

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
    fn a_non_finite_reading_is_dropped_and_the_tenant_still_checkpoints() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let dir = std::env::temp_dir()
                .join(format!("wsn-fleet-nonfinite-{}-{bad}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let (mut fleet, mut clean) = (DetectorFleet::new(2), DetectorFleet::new(2));
            for t in 0..3u64 {
                fleet.add_tenant(TenantId(t), spec()).unwrap();
                clean.add_tenant(TenantId(t), spec()).unwrap();
            }
            fleet.checkpoint_every_epochs(1, &dir);
            for epoch in 0..6u64 {
                for t in 0..3u64 {
                    let mut batch = epoch_batch(t, epoch);
                    if t == 1 && epoch == 3 {
                        // The clean fleet never sees the reading at all.
                        let mut reading = batch.pop().unwrap();
                        clean.ingest(TenantId(t), batch.clone()).unwrap();
                        reading.features[0] = bad;
                        batch.push(reading);
                        let receipt = fleet.ingest(TenantId(t), batch).unwrap();
                        assert_eq!(receipt, IngestReceipt { buffered: 3, dropped: 1 }, "{bad}");
                    } else {
                        clean.ingest(TenantId(t), batch.clone()).unwrap();
                        fleet.ingest(TenantId(t), batch).unwrap();
                    }
                }
                assert_eq!(fleet.step().unwrap(), clean.step().unwrap(), "{bad}");
            }
            assert_eq!(fleet.flush().unwrap(), clean.flush().unwrap(), "{bad}");

            let mut resumed = DetectorFleet::new(2);
            for t in 0..3u64 {
                resumed.add_tenant(TenantId(t), spec()).unwrap();
            }
            let report = resumed.resume_from(&dir);
            assert!(report.failed.is_empty(), "{bad}: {:?}", report.failed);
            assert_eq!(report.restored.len(), 3);
            for t in 0..3u64 {
                let id = TenantId(t);
                assert_eq!(fleet.estimates(id).unwrap(), clean.estimates(id).unwrap());
                assert_eq!(resumed.estimates(id).unwrap(), clean.estimates(id).unwrap());
                assert_eq!(resumed.traffic(id).unwrap(), clean.traffic(id).unwrap());
                assert_eq!(resumed.next_epoch(id).unwrap(), 6);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_round_rewrites_each_dirty_shard_with_a_record_for_every_tenant() {
        let dir = std::env::temp_dir().join(format!("wsn-fleet-dirty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fleet = DetectorFleet::new(2);
        for t in 0..6u64 {
            fleet.add_tenant(TenantId(t), spec()).unwrap();
        }
        fleet.checkpoint_every_epochs(2, &dir);
        let members = fleet.shard_members();
        assert!(members.iter().all(|m| !m.is_empty()), "both shards hold tenants: {members:?}");
        for t in 0..6u64 {
            fleet.ingest(TenantId(t), epoch_batch(t, 0)).unwrap();
        }
        fleet.step().unwrap();
        assert!(!dir.exists(), "no tenant is due after one slide");

        // Only the first tenant of shard 0 slides again, and becomes due.
        let due = members[0][0];
        fleet.ingest(due, epoch_batch(due.0, 1)).unwrap();
        fleet.step().unwrap();
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, vec!["shard-0.json".to_string()], "one file per dirty shard");
        let text = std::fs::read_to_string(dir.join("shard-0.json")).unwrap();
        let ids: Vec<u64> = text
            .lines()
            .skip(1)
            .step_by(2)
            .map(|line| {
                wsn_json::JsonValue::parse(line).unwrap().get("id").unwrap().as_u64().unwrap()
            })
            .collect();
        let expected: Vec<u64> = members[0].iter().map(|id| id.0).collect();
        assert_eq!(ids, expected, "a record for every tenant of the shard, ascending");

        let resume = |cursors: &dyn Fn(TenantId) -> u64| {
            let mut resumed = DetectorFleet::new(2);
            for t in 0..6u64 {
                resumed.add_tenant(TenantId(t), spec()).unwrap();
            }
            let report = resumed.resume_from(&dir);
            assert_eq!(report.restored, members[0]);
            assert_eq!(report.fresh, members[1]);
            for &id in &members[0] {
                assert_eq!(resumed.next_epoch(id).unwrap(), cursors(id), "{id}");
            }
        };
        resume(&|id| if id == due { 2 } else { 1 });

        // The due tenant slides twice more and is due again; the rest of its
        // shard slide once and are not. Their records are copied forward
        // byte for byte, not snapshotted again.
        let lines = |text: &str| -> Vec<String> { text.lines().map(str::to_string).collect() };
        let before = lines(&text);
        fleet.ingest(due, epoch_batch(due.0, 2)).unwrap();
        fleet.ingest(due, epoch_batch(due.0, 3)).unwrap();
        for &id in &members[0][1..] {
            fleet.ingest(id, epoch_batch(id.0, 1)).unwrap();
        }
        fleet.step().unwrap();
        let after = lines(&std::fs::read_to_string(dir.join("shard-0.json")).unwrap());
        assert_eq!(after.len(), before.len());
        assert_ne!(after[1..3], before[1..3], "the due tenant's record is fresh");
        assert_eq!(after[3..], before[3..], "the others' records are copied");
        resume(&|id| if id == due { 4 } else { 1 });

        // A copied record does not count as a checkpoint: one slide later
        // the others are two past theirs, due, and snapshotted afresh.
        for &id in &members[0][1..] {
            fleet.ingest(id, epoch_batch(id.0, 2)).unwrap();
        }
        fleet.step().unwrap();
        resume(&|id| if id == due { 4 } else { 3 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rewrite_copies_forward_only_records_this_fleet_wrote_or_resumed_there() {
        let root = std::env::temp_dir().join(format!("wsn-fleet-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (dir_a, dir_b) = (root.join("a"), root.join("b"));
        let fleet_over = |dir: &Path| {
            let mut fleet = DetectorFleet::sequential();
            for t in 0..3u64 {
                fleet.add_tenant(TenantId(t), spec()).unwrap();
            }
            fleet.checkpoint_every_epochs(2, dir);
            fleet
        };
        // Readings salted by `salt`: tenant 0 slides twice and is due,
        // tenants 1 and 2 slide once, are not, and were never snapshotted.
        let run = |salt: u64, dir: &Path| {
            let mut fleet = fleet_over(dir);
            for t in 0..3u64 {
                fleet.ingest(TenantId(t), epoch_batch(t + salt, 0)).unwrap();
            }
            fleet.step().unwrap();
            fleet.ingest(TenantId(0), epoch_batch(salt, 1)).unwrap();
            fleet.step().unwrap();
            fleet
        };
        let estimates = |fleet: &DetectorFleet| -> Vec<_> {
            (0..3u64).map(|t| fleet.estimates(TenantId(t)).unwrap()).collect()
        };
        let restored = |dir: &Path| {
            let mut fleet = fleet_over(dir);
            assert_eq!(fleet.resume_from(dir).restored.len(), 3);
            estimates(&fleet)
        };

        // A fresh fleet over another fleet's records never wrote them: it
        // snapshots its own tenants 1 and 2 instead of copying those.
        run(0, &dir_a);
        let second = run(100, &dir_a);
        assert_eq!(restored(&dir_a), estimates(&second));

        // Nor does a fleet that resumed from elsewhere copy what its own
        // checkpoint directory holds.
        run(0, &dir_b);
        let mut third = fleet_over(&dir_b);
        assert_eq!(third.resume_from(&dir_a).restored.len(), 3);
        third.ingest(TenantId(0), epoch_batch(100, 2)).unwrap();
        third.ingest(TenantId(0), epoch_batch(100, 3)).unwrap();
        third.step().unwrap();
        assert_eq!(restored(&dir_b), estimates(&third));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_record_whose_id_is_damaged_is_refused_not_taken_for_another() {
        let dir = std::env::temp_dir().join(format!("wsn-fleet-renamed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fleet = DetectorFleet::sequential();
        for t in 0..4u64 {
            fleet.add_tenant(TenantId(t), spec()).unwrap();
        }
        fleet.checkpoint_every_epochs(1, &dir);
        for t in 0..4u64 {
            fleet.ingest(TenantId(t), epoch_batch(t, 0)).unwrap();
        }
        fleet.step().unwrap();
        let path = fleet.checkpoint_path(&dir, TenantId(1));
        let intact = std::fs::read(&path).unwrap();
        // Tenant 1's id becomes another registered tenant's, or an unknown
        // one. Either way tenant 1 is refused, never reported fresh.
        for (to, refused) in [(3, vec![1, 3]), (9, vec![1])] {
            std::fs::write(&path, &intact).unwrap();
            edit_record(&fleet, &dir, TenantId(1), |header, payload| {
                (header.replace("\"id\":1,", &format!("\"id\":{to},")), payload.to_string())
            });
            let mut resumed = DetectorFleet::sequential();
            for t in 0..4u64 {
                resumed.add_tenant(TenantId(t), spec()).unwrap();
            }
            let report = resumed.resume_from(&dir);
            let failed: Vec<u64> = report.failed.iter().map(|(id, _)| id.0).collect();
            assert_eq!(failed, refused, "id 1 -> {to}: {report:?}");
            assert!(report.fresh.is_empty(), "id 1 -> {to}: {report:?}");
            assert_eq!(report.restored.len(), 4 - refused.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_checkpoint_write_returns_an_error_and_keeps_every_tenant() {
        let root =
            std::env::temp_dir().join(format!("wsn-fleet-unwritable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let blocker = root.join("a-file");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut fleet = DetectorFleet::new(2);
        for t in 0..6u64 {
            fleet.add_tenant(TenantId(t), spec()).unwrap();
        }
        fleet.checkpoint_every_epochs(1, blocker.join("checkpoints"));
        for t in 0..6u64 {
            fleet.ingest(TenantId(t), epoch_batch(t, 0)).unwrap();
        }
        assert!(matches!(fleet.step(), Err(FleetError::Persist(PersistError::Io(_)))));
        assert_eq!(fleet.tenant_ids(), (0..6).map(TenantId).collect::<Vec<_>>());
        for t in 0..6u64 {
            assert_eq!(fleet.next_epoch(TenantId(t)).unwrap(), 1, "every tenant slid");
        }

        // The tenants stay due, so the next round writes them all.
        let dir = root.join("checkpoints");
        fleet.checkpoint_every_epochs(1, &dir);
        for t in 0..6u64 {
            fleet.ingest(TenantId(t), epoch_batch(t, 1)).unwrap();
        }
        fleet.step().unwrap();
        let mut resumed = DetectorFleet::new(2);
        for t in 0..6u64 {
            resumed.add_tenant(TenantId(t), spec()).unwrap();
        }
        assert_eq!(resumed.resume_from(&dir).restored.len(), 6);
        let _ = std::fs::remove_dir_all(&root);
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
