//! The fleet workload's tenant: one 3×3 grid of nine sensors, Global-NN,
//! `n = 2`, `w = 8`, fed a deterministic per-tenant reading stream. The
//! benchmark's `fleet1k` and `fleet1k_ckpt` workloads serve a thousand of
//! these tenants ([`tenant_spec`] and the constants; the benchmark derives
//! its own stream from `--seed`), and the snapshot mutation suite
//! (`tests/snapshot_mutations.rs`) damages their checkpoints, fed by
//! [`epoch_batch`].

use wsn_core::experiment::{AlgorithmConfig, RankingChoice};
use wsn_data::rng::SeededRng;
use wsn_data::stream::SensorSpec;
use wsn_data::{DataPoint, Epoch, Position, SensorId, Timestamp};
use wsn_fleet::TenantSpec;

/// Sensors per tenant (a 3×3 grid at 10 m spacing, 15 m radio range — every
/// sensor reaches its grid neighbours, the deployment is connected).
pub const SENSORS_PER_TENANT: u32 = 9;

/// Seconds between epochs, matching the paper's trace cadence.
pub const SAMPLE_INTERVAL_SECS: f64 = 31.0;

/// Shard count for the measured fleets. A fixed count (rather than the
/// pool's worker count) keeps the dispatch order — and therefore the
/// workload — identical across machines; parallelism still scales with the
/// pool underneath.
pub const SHARDS: usize = 8;

/// The per-tenant deployment every workload tenant runs.
pub fn tenant_spec() -> TenantSpec {
    let sensors = (0..SENSORS_PER_TENANT)
        .map(|i| {
            SensorSpec::new(
                SensorId(i),
                Position { x: f64::from(i % 3) * 10.0, y: f64::from(i / 3) * 10.0 },
            )
        })
        .collect();
    TenantSpec {
        sensors,
        transmission_range_m: 15.0,
        algorithm: AlgorithmConfig::Global { ranking: RankingChoice::Nn },
        n: 2,
        window_samples: 8,
        sample_interval_secs: SAMPLE_INTERVAL_SECS,
    }
}

/// One epoch's readings for one tenant: nine clustered temperature samples
/// with a deterministic, rare spike so the detectors do real protocol work.
/// Seeded by `(tenant, epoch)` — every run of every consumer sees the same
/// stream.
pub fn epoch_batch(tenant: u64, epoch: u64) -> Vec<DataPoint> {
    let mut rng = SeededRng::seed_from_u64(tenant.wrapping_mul(1_000_003).wrapping_add(epoch));
    (0..SENSORS_PER_TENANT)
        .map(|i| {
            let mut value = rng.gen_gaussian(20.0, 0.5);
            if rng.gen_bool(0.02) {
                value += rng.gen_range(10.0..30.0);
            }
            DataPoint::new(
                SensorId(i),
                Epoch(epoch),
                Timestamp::from_secs_f64(epoch as f64 * SAMPLE_INTERVAL_SECS),
                vec![value],
            )
            .expect("workload point is finite")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_deterministic() {
        assert_eq!(epoch_batch(7, 3), epoch_batch(7, 3));
        assert_ne!(epoch_batch(7, 3), epoch_batch(8, 3));
    }
}
