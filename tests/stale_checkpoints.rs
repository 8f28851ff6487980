//! A checkpoint written under an older persistence format version is refused
//! end to end with a typed [`PersistError::Version`]: the streaming driver
//! fails before it simulates anything, and the fleet refuses only the stale
//! tenant while the others resume. Both older versions are covered: 1 (the
//! separate global and semi-global payloads) and 2 (a full copy of a point
//! per set, before the point table).

use std::path::{Path, PathBuf};

use in_network_outlier::data::stream::SensorSpec;
use in_network_outlier::detection::persist::PERSIST_VERSION;
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
    let mut fleet = DetectorFleet::sequential();
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

#[test]
fn a_stale_tenant_snapshot_is_refused_while_the_rest_of_the_fleet_resumes() {
    for version in STALE_VERSIONS {
        let dir = scratch_dir(&format!("fleet-v{version}"));
        let mut live = fleet(&dir);
        for tenant in live.tenant_ids() {
            for epoch in 0..3u64 {
                let batch = (0..4)
                    .map(|i| {
                        let at = Timestamp::from_secs_f64(epoch as f64 * 31.0);
                        DataPoint::new(SensorId(i), Epoch(epoch), at, vec![20.0 + f64::from(i)])
                            .unwrap()
                    })
                    .collect();
                live.ingest(tenant, batch).unwrap();
            }
        }
        live.flush().unwrap();
        downgrade(&DetectorFleet::tenant_path(&dir, TenantId(1)), version);

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
