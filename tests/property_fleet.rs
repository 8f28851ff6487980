//! The multi-tenant fleet, as seeded properties — 256 cases in total:
//!
//! 1. **Fleet ≡ sequential** (192 cases): a [`DetectorFleet`] dispatching
//!    slide jobs over the worker pool is **bit-for-bit** identical to the
//!    inline sequential reference ([`DetectorFleet::sequential`]) — every
//!    ingest receipt, every step's slide reports (tenants, epochs, traffic
//!    counters), every tenant's final estimates and cursors — across tenant
//!    counts {1, 8, 64} × shard counts {1, 2, 3, 8} × 16 seeds, with
//!    randomized specs (algorithm, ranking, grid size, `n`, `w`), batch
//!    splits and step interleavings.
//! 2. **Kill at a checkpoint ≡ never stopped** (64 cases): a checkpointed
//!    fleet killed by a crash injected at one of three sites of a shard
//!    file's write, chosen by case index — `persist.before_rename` (the
//!    shard's new file is written to its `*.tmp` but not installed),
//!    `persist.after_rename` (installed) or `persist.after_checkpoint` (the
//!    shard's round is complete) — resumed from its snapshot directory and
//!    replayed over the same input stream (at-least-once re-ingestion:
//!    stale epochs are dropped) finishes with exactly the estimates,
//!    traffic counters and cursors of a fleet that was never killed, and a
//!    leftover `*.tmp` is overwritten by the next round of its shard. Each
//!    tenant the killed run checkpointed in a step that returned is
//!    restored with at least the slides that checkpoint recorded, so a
//!    stale record fails the case even though replay would catch it up. The
//!    directory the resumed fleet leaves, where a tenant that was not due
//!    when its shard was rewritten keeps a record copied from the shard's
//!    previous file, resumes a third fleet just as exactly.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use in_network_outlier::data::stream::SensorSpec;
use in_network_outlier::detection::persist::{arm_crash_point, disarm_crash_points, CRASH_MARKER};
use in_network_outlier::fleet::{FleetSlide, IngestReceipt, TenantTraffic};
use in_network_outlier::prelude::*;
use wsn_data::rng::SeededRng;
use wsn_data::Position;
use wsn_ranking::OutlierEstimate;

/// Fixed seed for the property loops.
const SEED: u64 = 0x5EED_000A;
/// 3 tenant counts × 4 shard counts × 16 seeds, plus the kill/resume grid.
const EQUIVALENCE_SEEDS: u64 = 16;
const RESUME_CASES: u64 = 64;
/// The kill sites of the resume grid, taken in turn by case index.
const KILL_SITES: [&str; 3] =
    ["persist.after_checkpoint", "persist.before_rename", "persist.after_rename"];

/// One recorded action of a case's input schedule. Both fleets of a case
/// replay the identical schedule.
enum Op {
    Ingest(TenantId, Vec<DataPoint>),
    Step,
}

/// A random small deployment: a 2×2 (mostly) or 3×3 grid, a random
/// algorithm/ranking pair, and random `n`/`w`.
fn random_spec(rng: &mut SeededRng) -> TenantSpec {
    let side: u32 = if rng.gen_bool(0.25) { 3 } else { 2 };
    let sensors = (0..side * side)
        .map(|i| {
            SensorSpec::new(
                SensorId(i),
                Position { x: f64::from(i % side) * 10.0, y: f64::from(i / side) * 10.0 },
            )
        })
        .collect();
    let ranking = match rng.gen_index(3) {
        0 => RankingChoice::Nn,
        1 => RankingChoice::KnnAverage { k: 2 },
        _ => RankingChoice::KthNeighbor { k: 2 },
    };
    let algorithm = match rng.gen_index(4) {
        0 | 1 => AlgorithmConfig::Global { ranking },
        2 => AlgorithmConfig::SemiGlobal { ranking, hop_diameter: 1 + rng.gen_index(2) as u16 },
        _ => AlgorithmConfig::Centralized { ranking },
    };
    TenantSpec {
        sensors,
        transmission_range_m: 15.0,
        algorithm,
        n: 1 + rng.gen_index(3),
        window_samples: 4 + rng.gen_index(5) as u64,
        sample_interval_secs: 31.0,
    }
}

/// One epoch's readings for one tenant: clustered values with rare spikes.
fn epoch_batch(rng: &mut SeededRng, spec: &TenantSpec, epoch: u64) -> Vec<DataPoint> {
    spec.sensors
        .iter()
        .map(|s| {
            let mut value = rng.gen_gaussian(20.0, 0.5);
            if rng.gen_bool(0.05) {
                value += rng.gen_range(8.0..25.0);
            }
            DataPoint::new(
                s.id,
                Epoch(epoch),
                Timestamp::from_secs_f64(epoch as f64 * spec.sample_interval_secs),
                vec![value],
            )
            .unwrap()
        })
        .collect()
}

/// Builds one case's input schedule: every tenant's batches for every epoch,
/// split at random boundaries, shuffled within the epoch, with step calls
/// interleaved at random and a trailing step per epoch.
fn random_schedule(rng: &mut SeededRng, specs: &[TenantSpec], epochs: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for epoch in 0..epochs {
        let mut pieces: Vec<(TenantId, Vec<DataPoint>)> = Vec::new();
        for (t, spec) in specs.iter().enumerate() {
            let mut batch = epoch_batch(rng, spec, epoch);
            while !batch.is_empty() {
                let take = 1 + rng.gen_index(batch.len());
                let rest = batch.split_off(take);
                pieces.push((TenantId(t as u64), std::mem::replace(&mut batch, rest)));
            }
        }
        rng.shuffle(&mut pieces);
        for (tenant, piece) in pieces {
            ops.push(Op::Ingest(tenant, piece));
            if rng.gen_bool(0.2) {
                ops.push(Op::Step);
            }
        }
        ops.push(Op::Step);
    }
    ops
}

/// Everything a run observes, for exact comparison.
#[derive(Debug, PartialEq)]
struct RunRecord {
    receipts: Vec<IngestReceipt>,
    steps: Vec<Vec<FleetSlide>>,
    finals: Vec<TenantFinal>,
}

#[derive(Debug, PartialEq)]
struct TenantFinal {
    tenant: TenantId,
    estimates: BTreeMap<SensorId, OutlierEstimate>,
    traffic: TenantTraffic,
    next_epoch: u64,
    slides: u64,
}

/// Replays `ops` plus a final flush against `fleet`, recording every
/// observable output.
fn replay(mut fleet: DetectorFleet, ops: &[Op]) -> RunRecord {
    let mut record = RunRecord { receipts: Vec::new(), steps: Vec::new(), finals: Vec::new() };
    for op in ops {
        match op {
            Op::Ingest(tenant, batch) => {
                record.receipts.push(fleet.ingest(*tenant, batch.clone()).unwrap());
            }
            Op::Step => record.steps.push(fleet.step().unwrap()),
        }
    }
    record.steps.push(fleet.flush().unwrap());
    for tenant in fleet.tenant_ids() {
        record.finals.push(TenantFinal {
            tenant,
            estimates: fleet.estimates(tenant).unwrap(),
            traffic: fleet.traffic(tenant).unwrap(),
            next_epoch: fleet.next_epoch(tenant).unwrap(),
            slides: fleet.slides(tenant).unwrap(),
        });
    }
    record
}

fn final_state(fleet: &DetectorFleet) -> Vec<TenantFinal> {
    fleet
        .tenant_ids()
        .into_iter()
        .map(|tenant| TenantFinal {
            tenant,
            estimates: fleet.estimates(tenant).unwrap(),
            traffic: fleet.traffic(tenant).unwrap(),
            next_epoch: fleet.next_epoch(tenant).unwrap(),
            slides: fleet.slides(tenant).unwrap(),
        })
        .collect()
}

/// The slides each tenant's checkpoint record holds at least, replayed from
/// the fleet's checkpoint rule after every step that returned: a shard with
/// a due member (`slides − checkpointed_at ≥ every`) is rewritten, with a
/// fresh record for each due member and for each member that has no record
/// yet; the other members keep theirs. `None`: no record yet.
struct RecordFloor {
    every: u64,
    slides: BTreeMap<TenantId, Option<u64>>,
}

impl RecordFloor {
    fn after_step(&mut self, fleet: &DetectorFleet, dir: &Path) {
        let mut shards: BTreeMap<PathBuf, Vec<TenantId>> = BTreeMap::new();
        for tenant in fleet.tenant_ids() {
            shards.entry(fleet.checkpoint_path(dir, tenant)).or_default().push(tenant);
        }
        for members in shards.values() {
            let recorded = |t: &TenantId| self.slides.get(t).copied().flatten();
            let due =
                |t: &TenantId| fleet.slides(*t).unwrap() - recorded(t).unwrap_or(0) >= self.every;
            if !members.iter().any(due) {
                continue;
            }
            let fresh: Vec<TenantId> =
                members.iter().filter(|t| due(t) || recorded(t).is_none()).copied().collect();
            for t in fresh {
                self.slides.insert(t, Some(fleet.slides(t).unwrap()));
            }
        }
    }
}

/// The `*.tmp` files under `dir`: shard files written but not installed.
fn leftover_tmp_files(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .filter(|name| name.ends_with(".tmp"))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn fleet_over_the_pool_is_bit_for_bit_the_sequential_reference() {
    let mut cases = 0u64;
    for &tenants in &[1usize, 8, 64] {
        for &shards in &[1usize, 2, 3, 8] {
            for seed in 0..EQUIVALENCE_SEEDS {
                let mut rng = SeededRng::seed_from_u64(
                    SEED ^ (tenants as u64) << 32 ^ (shards as u64) << 16 ^ seed,
                );
                let specs: Vec<TenantSpec> = (0..tenants).map(|_| random_spec(&mut rng)).collect();
                let epochs = 2 + rng.gen_index(3) as u64;
                let ops = random_schedule(&mut rng, &specs, epochs);

                let mut pooled = DetectorFleet::new(shards);
                let mut sequential = DetectorFleet::sequential();
                for (t, spec) in specs.iter().enumerate() {
                    pooled.add_tenant(TenantId(t as u64), spec.clone()).unwrap();
                    sequential.add_tenant(TenantId(t as u64), spec.clone()).unwrap();
                }
                let parallel_record = replay(pooled, &ops);
                let reference_record = replay(sequential, &ops);
                assert_eq!(
                    parallel_record, reference_record,
                    "pooled fleet diverged from the sequential reference \
                     (tenants={tenants}, shards={shards}, seed={seed})"
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 192);
}

#[test]
fn a_fleet_killed_at_a_checkpoint_and_resumed_matches_the_run_that_never_stopped() {
    // The injected panics are expected; keep their backtraces out of the log.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut resumed_mid_stream = 0;
    for case in 0..RESUME_CASES {
        let mut rng = SeededRng::seed_from_u64(SEED.wrapping_add(0x1000 + case));
        let tenants = 2 + rng.gen_index(3);
        let specs: Vec<TenantSpec> = (0..tenants).map(|_| random_spec(&mut rng)).collect();
        let epochs = 3 + rng.gen_index(3) as u64;
        let ops = random_schedule(&mut rng, &specs, epochs);
        let every = 1 + rng.gen_index(2) as u64;
        let kill_at = 1 + rng.gen_index(4) as u32;
        let dir =
            std::env::temp_dir().join(format!("wsn-fleet-prop-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let build = |checkpoint: Option<&PathBuf>| {
            let mut fleet = DetectorFleet::new(2);
            for (t, spec) in specs.iter().enumerate() {
                fleet.add_tenant(TenantId(t as u64), spec.clone()).unwrap();
            }
            if let Some(dir) = checkpoint {
                fleet.checkpoint_every_epochs(every, dir);
            }
            fleet
        };

        // The run that is never stopped (checkpoints off: the baseline).
        let baseline = replay(build(None), &ops);

        // The checkpointed run, killed by the injected crash. With a late
        // `kill_at` the armed site may never fire — then the run simply
        // completes, which is a valid (trivial) resume case. Every step
        // that returns moves the floor of the records it wrote.
        let site = KILL_SITES[case as usize % KILL_SITES.len()];
        let mut floor = RecordFloor { every, slides: BTreeMap::new() };
        arm_crash_point(site, kill_at);
        let killed = catch_unwind(AssertUnwindSafe(|| {
            let mut fleet = build(Some(&dir));
            for op in &ops {
                match op {
                    Op::Ingest(tenant, batch) => {
                        fleet.ingest(*tenant, batch.clone()).unwrap();
                    }
                    Op::Step => {
                        fleet.step().unwrap();
                        floor.after_step(&fleet, &dir);
                    }
                }
            }
            fleet.flush().unwrap();
            floor.after_step(&fleet, &dir);
        }));
        disarm_crash_points();
        if let Err(payload) = killed {
            let message = payload.downcast::<String>().expect("crash panics carry a String");
            assert!(message.contains(CRASH_MARKER), "unexpected panic: {message:?}");
            let torn = leftover_tmp_files(&dir);
            let expected = usize::from(site == "persist.before_rename");
            assert_eq!(torn.len(), expected, "case {case}, {site}: leftover {torn:?}");
        }

        // Resume from whatever snapshots survived and replay the whole
        // stream; stale epochs are dropped on ingest.
        let mut resumed = build(Some(&dir));
        let report = resumed.resume_from(&dir);
        assert!(
            report.failed.is_empty(),
            "checkpoints written before the kill must restore cleanly: {:?}",
            report.failed
        );
        // Replay catches a stale tenant up, so check each record's slides
        // before it does.
        for (tenant, recorded) in &floor.slides {
            let Some(recorded) = *recorded else { continue };
            assert!(
                report.restored.contains(tenant) && resumed.slides(*tenant).unwrap() >= recorded,
                "case {case}, {site} hit {kill_at}: tenant {tenant:?} resumed at {} slides, \
                 below the {recorded} its checkpoint recorded (restored: {:?})",
                resumed.slides(*tenant).unwrap(),
                report.restored
            );
        }
        // Replaying the whole stream into fresh tenants would also end equal
        // to the baseline, so count the tenants that resumed mid-stream.
        resumed_mid_stream +=
            report.restored.iter().filter(|&&id| resumed.slides(id).unwrap() > 0).count();
        for op in &ops {
            match op {
                Op::Ingest(tenant, batch) => {
                    resumed.ingest(*tenant, batch.clone()).unwrap();
                }
                Op::Step => {
                    resumed.step().unwrap();
                }
            }
        }
        resumed.flush().unwrap();
        assert_eq!(
            final_state(&resumed),
            baseline.finals,
            "resumed fleet diverged from the never-stopped run \
             (case={case}, tenants={tenants}, every={every}, {site} hit {kill_at})"
        );
        // The resumed fleet slid its shards past the killed round, so it
        // rewrote the torn shard and the `*.tmp` went with the rename.
        assert!(leftover_tmp_files(&dir).is_empty(), "case {case}: a `*.tmp` outlived its shard");

        // The resumed fleet copied forward the records of tenants that were
        // not due when their shard was rewritten: those restore as exactly.
        let mut again = build(Some(&dir));
        let report = again.resume_from(&dir);
        assert!(report.failed.is_empty(), "case {case}: {:?}", report.failed);
        assert_eq!(
            replay(again, &ops).finals,
            baseline.finals,
            "a second resume diverged (case={case}, tenants={tenants}, every={every})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(resumed_mid_stream > RESUME_CASES as usize, "only {resumed_mid_stream} restores");

    std::panic::set_hook(default_hook);
}
