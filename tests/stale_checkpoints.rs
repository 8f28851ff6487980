//! A checkpoint written under an older persistence format version is refused
//! end to end with a typed [`PersistError::Version`]: the streaming driver
//! fails before it simulates anything, and the fleet refuses only the stale
//! tenant's record while the others resume. Both older versions are
//! covered: 1 (the separate global and semi-global payloads) and 2 (a full
//! copy of a point per set, before the point table). A fleet also refuses,
//! with [`PersistError::Mismatch`] and never as fresh, the two directory
//! layouts it cannot read: per-tenant `tenant-<id>.json` files from before
//! the shard files, and shard files written under another shard count.

use std::path::{Path, PathBuf};

use in_network_outlier::data::stream::SensorSpec;
use in_network_outlier::detection::persist::{self, PERSIST_VERSION};
use in_network_outlier::detection::PersistError;
use in_network_outlier::prelude::*;
use wsn_data::Position;

/// Every format version before the current one.
const STALE_VERSIONS: [u64; 2] = [1, 2];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn-stale-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Rewrites the header of a snapshot file so it claims version `stale`.
/// The checksum covers the payload only, so the file stays otherwise valid.
fn downgrade(path: &Path, stale: u64) {
    let text = std::fs::read_to_string(path).unwrap();
    let current = format!("\"version\":{PERSIST_VERSION}");
    assert!(text.contains(&current), "{} has no version tag", path.display());
    let downgraded = text.replacen(&current, &format!("\"version\":{stale}"), 1);
    std::fs::write(path, downgraded).unwrap();
}

/// Rewrites the header of `tenant`'s record inside the shard file at
/// `path` so it claims version `stale`; the checksum covers the payload
/// only, so the record stays otherwise valid.
fn downgrade_record(path: &Path, tenant: u64, stale: u64) {
    let text = std::fs::read_to_string(path).unwrap();
    let record =
        format!("{{\"id\":{tenant},\"kind\":\"fleet-tenant\",\"version\":{PERSIST_VERSION},");
    assert_eq!(text.matches(&record).count(), 1, "{} holds one record {tenant}", path.display());
    let downgraded = text.replacen(
        &record,
        &format!("{{\"id\":{tenant},\"kind\":\"fleet-tenant\",\"version\":{stale},"),
        1,
    );
    std::fs::write(path, downgraded).unwrap();
}

fn stale_error(stale: u64) -> PersistError {
    PersistError::Version { found: stale, expected: PERSIST_VERSION }
}

#[test]
fn a_stale_streaming_checkpoint_is_refused_before_any_simulation() {
    let mut config = ExperimentConfig::small();
    config.trace.rounds = 4;
    for version in STALE_VERSIONS {
        let dir = scratch_dir(&format!("stream-v{version}"));
        StreamingExperiment::new(config.clone()).checkpoint_every_slides(2, &dir).run().unwrap();
        let path = dir.join("checkpoint.json");
        downgrade(&path, version);
        let stale = std::fs::read(&path).unwrap();

        // The resumed run also checkpoints every slide: had a single slide
        // been simulated, it would have overwritten the stale file.
        let err = StreamingExperiment::new(config.clone())
            .checkpoint_every_slides(1, &dir)
            .resume_from(&dir)
            .run()
            .unwrap_err();
        assert_eq!(err, CoreError::Persist(stale_error(version)));
        assert_eq!(std::fs::read(&path).unwrap(), stale, "the refused run wrote nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

fn grid_spec(algorithm: AlgorithmConfig) -> TenantSpec {
    TenantSpec {
        sensors: (0..4)
            .map(|i| {
                SensorSpec::new(
                    SensorId(i),
                    Position { x: f64::from(i % 2) * 10.0, y: f64::from(i / 2) * 10.0 },
                )
            })
            .collect(),
        transmission_range_m: 15.0,
        algorithm,
        n: 1,
        window_samples: 4,
        sample_interval_secs: 31.0,
    }
}

fn fleet(dir: &Path) -> DetectorFleet {
    sharded_fleet(DetectorFleet::sequential(), dir)
}

fn sharded_fleet(mut fleet: DetectorFleet, dir: &Path) -> DetectorFleet {
    let ranking = RankingChoice::Nn;
    let algorithms = [
        AlgorithmConfig::Global { ranking },
        AlgorithmConfig::SemiGlobal { ranking, hop_diameter: 1 },
        AlgorithmConfig::Global { ranking },
    ];
    for (id, algorithm) in algorithms.into_iter().enumerate() {
        fleet.add_tenant(TenantId(id as u64), grid_spec(algorithm)).unwrap();
    }
    fleet.checkpoint_every_epochs(1, dir);
    fleet
}

/// Feeds every tenant of `fleet` three epochs and flushes.
fn feed(fleet: &mut DetectorFleet) {
    for tenant in fleet.tenant_ids() {
        for epoch in 0..3u64 {
            let batch = (0..4)
                .map(|i| {
                    let at = Timestamp::from_secs_f64(epoch as f64 * 31.0);
                    DataPoint::new(SensorId(i), Epoch(epoch), at, vec![20.0 + f64::from(i)])
                        .unwrap()
                })
                .collect();
            fleet.ingest(tenant, batch).unwrap();
        }
    }
    fleet.flush().unwrap();
}

#[test]
fn a_stale_tenant_snapshot_is_refused_while_the_rest_of_the_fleet_resumes() {
    for version in STALE_VERSIONS {
        let dir = scratch_dir(&format!("fleet-v{version}"));
        let mut live = fleet(&dir);
        feed(&mut live);
        downgrade_record(&live.checkpoint_path(&dir, TenantId(1)), 1, version);

        let mut resumed = fleet(&dir);
        let report = resumed.resume_from(&dir);
        assert_eq!(report.failed, vec![(TenantId(1), stale_error(version))]);
        assert_eq!(report.restored, vec![TenantId(0), TenantId(2)]);
        assert!(report.fresh.is_empty());
        assert_eq!(resumed.next_epoch(TenantId(1)).unwrap(), 0, "the stale tenant stays fresh");
        for tenant in [TenantId(0), TenantId(2)] {
            assert_eq!(resumed.next_epoch(tenant).unwrap(), live.next_epoch(tenant).unwrap());
            assert_eq!(resumed.estimates(tenant).unwrap(), live.estimates(tenant).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_per_tenant_checkpoint_directory_is_refused_not_reported_fresh() {
    let dir = scratch_dir("fleet-per-tenant");
    // The layout before shard files: one two-line file per tenant.
    std::fs::create_dir_all(&dir).unwrap();
    let ranking = RankingChoice::Nn;
    let spec = grid_spec(AlgorithmConfig::SemiGlobal { ranking, hop_diameter: 1 });
    let payload = TenantRuntime::new(spec).unwrap().snapshot_payload();
    persist::write_atomic(&dir.join("tenant-1.json"), "fleet-tenant", &payload).unwrap();

    let mut resumed = fleet(&dir);
    let report = resumed.resume_from(&dir);
    assert!(report.restored.is_empty());
    assert_eq!(report.fresh, vec![TenantId(0), TenantId(2)], "no file names them at all");
    assert_eq!(report.failed.len(), 1);
    assert_eq!(report.failed[0].0, TenantId(1));
    assert!(matches!(report.failed[0].1, PersistError::Mismatch(_)), "{report:?}");
    assert_eq!(resumed.next_epoch(TenantId(1)).unwrap(), 0, "the tenant stays fresh");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_files_of_another_shard_count_are_refused_not_reported_fresh() {
    for (written, read) in [(2, 3), (3, 2), (1, 2), (2, 1)] {
        let dir = scratch_dir(&format!("fleet-shards-{written}-{read}"));
        let mut live = sharded_fleet(DetectorFleet::new(written), &dir);
        feed(&mut live);

        let mut resumed = sharded_fleet(DetectorFleet::new(read), &dir);
        let report = resumed.resume_from(&dir);
        assert!(report.restored.is_empty(), "{written} -> {read}: {report:?}");
        assert!(report.fresh.is_empty(), "{written} -> {read}: {report:?}");
        assert_eq!(report.failed.len(), 3, "{written} -> {read}: {report:?}");
        for (_, error) in &report.failed {
            assert!(matches!(error, PersistError::Mismatch(_)), "{written} -> {read}: {error:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
