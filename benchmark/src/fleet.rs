//! The fleet workloads: many small independent deployments served by
//! `DetectorFleet` over the shared worker pool, with no simulator. One
//! epoch ingests one batch per tenant and steps the fleet, so every tenant
//! slides once; the load is closed-loop from this one process. The tenant
//! shape is the `fleet` bench group's (`wsn_bench::fleetload`); only the
//! reading stream is re-derived here, so that it follows `--seed`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wsn_bench::fleetload::{tenant_spec, SAMPLE_INTERVAL_SECS, SENSORS_PER_TENANT, SHARDS};
use wsn_core::metrics::{estimates_agree, global_answer};
use wsn_core::persist;
use wsn_data::rng::SeededRng;
use wsn_data::{DataPoint, Epoch, SensorId, Timestamp};
use wsn_fleet::{DetectorFleet, FleetError, FleetSlide, TenantId, TenantRuntime};
use wsn_ranking::OutlierEstimate;

use crate::layers::{self, FleetRun};
use crate::stats::{lower_quartile, median, millis};
use crate::{Options, Report, Workload};

/// Warm-up epochs per tenant: the window fills, then the first evictions.
const WARMUP_EPOCHS: u64 = 10;
/// Set-up registers and warms up the tenants in this many equal groups;
/// `setup_s` is the lower-quartile group time scaled to the whole fleet.
const GROUPS: u64 = 4;
/// Tenants replayed through the sequential reference fleet.
const SAMPLED: u64 = 4;
const MIN_EPOCHS: usize = 3;
/// Tenants whose checkpoint is timed from outside.
const PROBES: u64 = 21;

/// One epoch's readings for one tenant: clustered temperatures with a rare
/// spike, a pure function of `(seed, tenant, epoch)`.
fn epoch_batch(seed: u64, tenant: u64, epoch: u64) -> Vec<DataPoint> {
    let key: Vec<u8> = [seed, tenant, epoch].iter().flat_map(|v| v.to_le_bytes()).collect();
    let mut rng = SeededRng::seed_from_u64(persist::fnv1a64(&key));
    (0..SENSORS_PER_TENANT)
        .map(|i| {
            let mut value = rng.gen_gaussian(20.0, 0.5);
            if rng.gen_bool(0.02) {
                value += rng.gen_range(10.0..30.0);
            }
            let at = Timestamp::from_secs_f64(epoch as f64 * SAMPLE_INTERVAL_SECS);
            DataPoint::new(SensorId(i), Epoch(epoch), at, vec![value]).expect("readings are finite")
        })
        .collect()
}

/// Ingests epoch `epoch` for `ids` and steps the fleet. Returns the ingest
/// time, the step time, and the step's slides (or the first error).
fn feed(
    fleet: &mut DetectorFleet,
    seed: u64,
    ids: &[u64],
    epoch: u64,
) -> (Duration, Duration, Result<Vec<FleetSlide>, String>) {
    let batches: Vec<Vec<DataPoint>> = ids.iter().map(|&t| epoch_batch(seed, t, epoch)).collect();
    let started = Instant::now();
    let mut ingested = Ok(());
    for (&t, batch) in ids.iter().zip(batches) {
        match fleet.ingest(TenantId(t), batch) {
            Ok(receipt) if receipt.dropped == 0 => {}
            Ok(receipt) => {
                ingested = Err(format!("tenant {t}: {} points dropped", receipt.dropped))
            }
            Err(e) => ingested = Err(e.to_string()),
        }
    }
    let ingest = started.elapsed();
    let started = Instant::now();
    let slides = ingested.and_then(|()| fleet.step().map_err(|e| e.to_string()));
    (ingest, started.elapsed(), slides)
}

/// Checks that every tenant of `ids` slid exactly once, for `epoch`.
fn check_slides(
    report: &mut Report,
    ids: &[u64],
    epoch: u64,
    slides: &Result<Vec<FleetSlide>, String>,
) {
    match slides {
        Ok(slides) => {
            let once = slides.len() == ids.len()
                && slides
                    .iter()
                    .zip(ids)
                    .all(|(s, &t)| s.tenant == TenantId(t) && s.slide.epoch == epoch);
            report.check(once, || {
                format!("epoch {epoch}: {} slides for {} tenants", slides.len(), ids.len())
            });
        }
        Err(e) => report.check(false, || format!("epoch {epoch}: {e}")),
    }
}

#[derive(Default)]
struct Grades {
    correct_nodes: u64,
    nodes: u64,
    agreeing_tenants: u64,
    tenants: u64,
}

/// The node estimates of tenants `0..tenants`, in tenant order.
fn estimates(
    fleet: &DetectorFleet,
    tenants: u64,
) -> Result<Vec<BTreeMap<SensorId, OutlierEstimate>>, FleetError> {
    (0..tenants).map(|t| fleet.estimates(TenantId(t))).collect()
}

/// Grades the node estimates after `epoch` (`estimates[t]` for tenant `t`)
/// against the exact top-n of each tenant's window, epochs
/// `epoch - w ..= epoch`. One check per epoch: it fails if any node misses
/// the exact answer.
fn grade(
    report: &mut Report,
    grades: &mut Grades,
    seed: u64,
    epoch: u64,
    estimates: &[BTreeMap<SensorId, OutlierEstimate>],
) {
    let spec = tenant_spec();
    let ranking = spec.algorithm.ranking().build();
    let (mut correct, mut nodes) = (0u64, 0u64);
    for (t, estimates) in (0u64..).zip(estimates) {
        let mut window: BTreeMap<SensorId, Vec<DataPoint>> = BTreeMap::new();
        for e in epoch.saturating_sub(spec.window_samples)..=epoch {
            for p in epoch_batch(seed, t, e) {
                window.entry(p.key.origin).or_default().push(p);
            }
        }
        let truth = global_answer(ranking.as_ref(), spec.n, &window);
        correct += estimates.values().filter(|e| e.same_outliers_as(&truth)).count() as u64;
        nodes += estimates.len() as u64;
        grades.agreeing_tenants += u64::from(estimates_agree(estimates));
        grades.tenants += 1;
    }
    grades.correct_nodes += correct;
    grades.nodes += nodes;
    report.check(nodes > 0 && correct == nodes, || {
        format!("epoch {epoch}: {} of {nodes} nodes miss the exact top-n", nodes - correct)
    });
}

pub fn run(options: &Options) -> Result<Report, String> {
    let tenants: u64 = if options.quick { 20 } else { 1_000 };
    let checkpoint = options.workload == Workload::Fleet1kCkpt;
    let seed = options.seed;
    let window = tenant_spec().window_samples;
    let mut report = Report::default();

    let mut fleet = DetectorFleet::new(SHARDS);
    let group = tenants / GROUPS;
    let mut setups = Vec::new();
    let mut fills = Vec::new();
    for g in 0..GROUPS {
        let ids: Vec<u64> = (g * group..(g + 1) * group).collect();
        let started = Instant::now();
        for &t in &ids {
            let added = fleet.add_tenant(TenantId(t), tenant_spec());
            report.check(added.is_ok(), || format!("tenant {t} did not register: {added:?}"));
        }
        for epoch in 0..WARMUP_EPOCHS {
            let (ingest, step, slides) = feed(&mut fleet, seed, &ids, epoch);
            check_slides(&mut report, &ids, epoch, &slides);
            if epoch < window {
                fills.push(ingest + step);
            }
        }
        setups.push(started.elapsed());
    }
    report.set("setup_s", lower_quartile(&millis(&setups)) / 1e3 * GROUPS as f64);

    // The sequential reference replays a few tenants; the pooled fleet must
    // match it bit for bit (untimed).
    let sampled: Vec<u64> = (0..SAMPLED).map(|i| i * tenants / SAMPLED).collect();
    let mut reference = DetectorFleet::sequential();
    for &t in &sampled {
        reference.add_tenant(TenantId(t), tenant_spec()).map_err(|e| e.to_string())?;
    }
    for epoch in 0..WARMUP_EPOCHS {
        feed(&mut reference, seed, &sampled, epoch).2?;
    }

    if checkpoint {
        fleet.checkpoint_every_epochs(1, options.scratch.join("checkpoints"));
    }
    let all: Vec<u64> = (0..tenants).collect();
    let mut epochs = Vec::new();
    let (mut bytes, mut points) = (0u64, 0u64);
    let mut grades = Grades::default();
    wsn_obs::reset();
    let measure_started = Instant::now();
    let mut epoch = WARMUP_EPOCHS;
    while epochs.len() < MIN_EPOCHS || measure_started.elapsed() < options.budget {
        // The traced build alternates telemetry on and off by epoch.
        let recording = options.traced && epochs.len() % 2 == 0;
        wsn_obs::set_enabled(recording);
        let (ingest, step, slides) = feed(&mut fleet, seed, &all, epoch);
        wsn_obs::set_enabled(false);
        epochs.push(layers::Epoch { ingest, step, recorded: recording });
        check_slides(&mut report, &all, epoch, &slides);
        // Traffic over a fixed number of epochs, so it repeats exactly.
        if epochs.len() <= MIN_EPOCHS {
            for s in slides.iter().flatten() {
                bytes += s.slide.traffic.bytes;
                points += s.slide.traffic.points;
            }
        }
        match estimates(&fleet, tenants) {
            Ok(estimates) => grade(&mut report, &mut grades, seed, epoch, &estimates),
            Err(e) => report.check(false, || format!("epoch {epoch}: no estimates: {e}")),
        }
        let replayed = feed(&mut reference, seed, &sampled, epoch).2;
        report.check(replayed.is_ok(), || format!("epoch {epoch}: reference failed: {replayed:?}"));
        for &t in &sampled {
            let id = TenantId(t);
            let same = fleet.estimates(id).ok() == reference.estimates(id).ok()
                && fleet.traffic(id).ok() == reference.traffic(id).ok();
            report.check(same, || {
                format!("epoch {epoch}: tenant {t} differs from the sequential reference")
            });
        }
        epoch += 1;
    }

    let walls: Vec<Duration> = epochs.iter().map(layers::Epoch::wall).collect();
    report.set("ms_per_slide", lower_quartile(&millis(&walls)));
    report.set("accuracy", grades.correct_nodes as f64 / grades.nodes.max(1) as f64);
    if options.traced {
        let node_slides = (tenants * MIN_EPOCHS as u64 * u64::from(SENSORS_PER_TENANT)) as f64;
        report.set("agreement_rate", grades.agreeing_tenants as f64 / grades.tenants.max(1) as f64);
        report.set("points_per_node_per_slide", points as f64 / node_slides);
        report.set("bytes_per_node_per_slide", bytes as f64 / node_slides);
        let (serialize_us, write_us, snapshot_bytes) = probe_persist(options, tenants)?;
        let run = FleetRun {
            epochs: &epochs,
            fill_epoch_ms: median(&millis(&fills)) * GROUPS as f64,
            serialize_us,
            write_us,
            snapshot_bytes,
            workers: wsn_pool::global().size() as f64,
        };
        layers::fleet(&mut report, &wsn_obs::report(), &run);
    }
    Ok(report)
}

/// Outside timing of a checkpoint on `PROBES` steady-state tenants spread
/// across the fleet (snapshot sizes vary several-fold between tenants):
/// the median `snapshot_payload` and `write_atomic` times in µs, and the
/// mean bytes written.
fn probe_persist(options: &Options, tenants: u64) -> Result<(f64, f64, f64), String> {
    std::fs::create_dir_all(&options.scratch).map_err(|e| e.to_string())?;
    let path = options.scratch.join("probe.json");
    let mut serialize = Vec::new();
    let mut write = Vec::new();
    let mut bytes = 0;
    for i in 0..PROBES {
        let mut runtime = TenantRuntime::new(tenant_spec()).map_err(|e| e.to_string())?;
        for epoch in 0..=WARMUP_EPOCHS {
            runtime.ingest(epoch_batch(options.seed, i * tenants / PROBES, epoch));
        }
        runtime.run_due(true);
        let started = Instant::now();
        let payload = std::hint::black_box(runtime.snapshot_payload());
        serialize.push(started.elapsed());
        let started = Instant::now();
        bytes +=
            persist::write_atomic(&path, "benchmark-probe", &payload).map_err(|e| e.to_string())?;
        write.push(started.elapsed());
    }
    let mean_bytes = bytes as f64 / PROBES as f64;
    Ok((median(&millis(&serialize)) * 1e3, median(&millis(&write)) * 1e3, mean_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_ranking::top_n_outliers;

    /// The exact-answer check passes on a fleet's real estimates and fails
    /// once a single node's estimate is corrupted.
    #[test]
    fn a_corrupted_estimate_fails_the_epoch_check() {
        let (seed, ids) = (3, [0, 1, 2]);
        let mut fleet = DetectorFleet::sequential();
        for &t in &ids {
            fleet.add_tenant(TenantId(t), tenant_spec()).unwrap();
        }
        for epoch in 0..WARMUP_EPOCHS {
            feed(&mut fleet, seed, &ids, epoch).2.unwrap();
        }
        let last = WARMUP_EPOCHS - 1;
        let mut estimates = estimates(&fleet, ids.len() as u64).unwrap();
        let mut report = Report::default();
        grade(&mut report, &mut Grades::default(), seed, last, &estimates);
        assert_eq!((report.attempted, report.failed), (1, 0));

        // One node of one tenant keeps only its top outlier.
        let ranking = tenant_spec().algorithm.ranking().build();
        let node = estimates[1].values_mut().next().unwrap();
        *node = top_n_outliers(ranking.as_ref(), 1, &node.to_point_set());
        let mut grades = Grades::default();
        grade(&mut report, &mut grades, seed, last, &estimates);
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert_eq!(grades.correct_nodes + 1, grades.nodes);
    }
}
