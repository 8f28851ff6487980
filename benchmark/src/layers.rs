//! The layer budget of a traced run: per-layer metrics derived from the
//! `wsn-obs` report (spans and counters the program already records) and
//! from outside timings taken by the workloads, plus the reconcile checks
//! that every parent is covered by its children.
//!
//! Span totals are summed over the telemetry-on repetitions only (a
//! streaming run, or a fleet epoch) and reported per repetition or per
//! slide. On the partitioned simulator and the fleet's pool, `detect` and
//! `fixed_point` spans open on pool workers, where they are roots rather
//! than children of `slide/sim` or `fleet.step`; they are therefore summed
//! by name wherever they nest.

use std::time::Duration;

use wsn_obs::TelemetryReport;

use crate::stats::{median, millis, ratio};
use crate::Report;

/// A parent span and the children that cover it must agree within this
/// share of the parent.
pub const TOLERANCE: f64 = 0.10;

/// Outside measurements of a traced streaming run.
pub struct StreamRun<'a> {
    /// Slides per repetition.
    pub slides: f64,
    /// Wall time of each telemetry-on repetition.
    pub traced_walls: &'a [Duration],
    /// Wall time of each telemetry-off repetition.
    pub untraced_walls: &'a [Duration],
    /// Trace generation time of each set-up.
    pub trace_gen: &'a [Duration],
    pub topology_build: Duration,
    pub partition_build: Duration,
}

/// One measured fleet epoch.
#[derive(Debug, Clone, Copy)]
pub struct Epoch {
    pub ingest: Duration,
    pub step: Duration,
    /// Telemetry was on for this epoch.
    pub recorded: bool,
}

impl Epoch {
    pub fn wall(&self) -> Duration {
        self.ingest + self.step
    }
}

/// Outside measurements of a traced fleet run.
pub struct FleetRun<'a> {
    pub epochs: &'a [Epoch],
    /// Median whole-fleet wall time of a window-filling epoch, in ms.
    pub fill_epoch_ms: f64,
    /// Median `TenantRuntime::snapshot_payload` time, in µs.
    pub serialize_us: f64,
    /// Median `persist::write_atomic` time, in µs.
    pub write_us: f64,
    pub snapshot_bytes: f64,
    /// Pool workers the fleet's slide jobs run on.
    pub workers: f64,
}

/// Total nanoseconds of one span path (0 when it was not recorded).
pub fn total(report: &TelemetryReport, path: &str) -> f64 {
    report.span(path).map_or(0.0, |s| s.total_ns as f64)
}

/// Total nanoseconds and count of every span whose own name is `name`,
/// wherever it nests.
pub fn named(report: &TelemetryReport, name: &str) -> (f64, f64) {
    let suffix = format!("/{name}");
    report
        .spans
        .iter()
        .filter(|s| s.path == name || s.path.ends_with(&suffix))
        .fold((0.0, 0.0), |(ns, count), s| (ns + s.total_ns as f64, count + s.count as f64))
}

/// Self time of a span: its total minus the totals of its direct children.
pub fn self_ns(report: &TelemetryReport, path: &str) -> f64 {
    let prefix = format!("{path}/");
    let children: f64 = report
        .spans
        .iter()
        .filter(|s| s.path.strip_prefix(&prefix).is_some_and(|rest| !rest.contains('/')))
        .map(|s| s.total_ns as f64)
        .sum();
    total(report, path) - children
}

/// Whether `children` reconcile with `parent`. Where the children cover the
/// whole parent body (`covering`), they must agree within the tolerance
/// both ways; otherwise they must not exceed the parent by more than it.
pub fn reconciles(parent: f64, children: f64, covering: bool) -> bool {
    if parent <= 0.0 {
        return children <= 0.0;
    }
    let deviation = (children - parent) / parent;
    if covering {
        deviation.abs() <= TOLERANCE
    } else {
        deviation <= TOLERANCE
    }
}

fn reconcile(report: &mut Report, level: &str, parent: f64, children: f64, covering: bool) {
    report.check(reconciles(parent, children, covering), || {
        format!("{level}: children {:.3} ms against parent {:.3} ms", children / 1e6, parent / 1e6)
    });
}

fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    (ratio(median(traced), median(untraced)) - 1.0) * 100.0
}

/// The detector, fixed-point engine and quiet-ledger metrics, per
/// repetition.
fn core_layer(report: &mut Report, t: &TelemetryReport, reps: f64) {
    let c = |name: &str| t.counter(name) as f64;
    let (detect_ns, detect_calls) = named(t, "detect");
    let (fp_ns, fp_calls) = named(t, "fixed_point");
    report.set("core.detect_ms", detect_ns / reps / 1e6);
    report.set("core.detect_calls", detect_calls / reps);
    report.set("core.fixed_point_ms", fp_ns / reps / 1e6);
    report.set("core.fixed_point_calls", fp_calls / reps);
    report.set("core.ns_per_fixed_point_call", ratio(fp_ns, fp_calls));
    report.set("core.engine.chain_fast_ratio", ratio(c("engine.chain_fast"), c("engine.calls")));
    report.set("core.engine.rescans_unrecorded", c("engine.desync_rescans_unrecorded") / reps);
    report.set("core.engine.desync_rebuilds", c("engine.desync_rebuilds") / reps);
    report.set("core.engine.cold_builds", c("engine.cold_builds") / reps);
    report.set(
        "core.engine.support_miss_ratio",
        ratio(c("engine.support_misses"), c("engine.support_queries")),
    );
    report.set(
        "core.engine.seed_reuse_ratio",
        ratio(c("engine.seed_reuses"), c("engine.seed_reuses") + c("engine.seed_builds")),
    );
    report.set(
        "core.ledger.quiet_hit_ratio",
        ratio(c("ledger.quiet_hits"), c("ledger.quiet_queries")),
    );
    report.set("core.detector.broadcasts", c("detector.broadcasts") / reps);
    report.set("core.detector.points_broadcast", c("detector.points_broadcast") / reps);
    report.set("core.detector.broadcast_bytes", c("detector.broadcast_bytes") / reps);
}

fn histogram(t: &TelemetryReport, name: &str) -> (f64, f64) {
    t.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
}

/// The layer budget of a streaming workload.
pub fn stream(report: &mut Report, t: &TelemetryReport, run: &StreamRun) {
    let reps = run.traced_walls.len().max(1) as f64;
    let slides = reps * run.slides;
    let wall: f64 = run.traced_walls.iter().map(|d| d.as_nanos() as f64).sum();
    let slide = total(t, "slide");
    let sim = total(t, "slide/sim");
    let collect = total(t, "slide/collect");
    let evaluate = total(t, "slide/evaluate");
    let checkpoint = total(t, "slide/checkpoint");
    let tail = total(t, "tail");
    let (detect, _) = named(t, "detect");
    let (fp_in_detect, _) = named(t, "detect/fixed_point");
    let (stall, _) = histogram(t, "region.barrier_stall_ns");
    let (imbalance_sum, imbalance_count) = histogram(t, "region.epoch_imbalance_pct");
    let events = t.counter("sim.events_popped") as f64;

    reconcile(
        report,
        "slide = sim + collect + evaluate",
        slide,
        sim + collect + evaluate + checkpoint,
        true,
    );
    reconcile(report, "run >= slide + tail", wall, slide + tail, false);
    reconcile(report, "slide/sim >= nested detect", sim, total(t, "slide/sim/detect"), false);
    reconcile(report, "detect >= fixed_point", detect, fp_in_detect, false);
    // What the streaming driver spends outside every span: the topology, partition
    // and simulator build and the trace imputation.
    let driver_other = wall - slide - tail;
    let outside = (run.topology_build + run.partition_build).as_nanos() as f64 * reps;

    report.set("data.trace_gen_ms", median(&millis(run.trace_gen)));
    report.set("netsim.topology_build_ms", run.topology_build.as_secs_f64() * 1e3);
    report.set("netsim.partition_build_ms", run.partition_build.as_secs_f64() * 1e3);
    report.set("netsim.events", events / reps);
    report.set("netsim.ns_per_event", ratio(sim, events));
    // The coordinator's own time in the simulator: on the partitioned
    // backend, time waiting at the epoch barrier is the regions' work.
    report.set(
        "netsim.sim_self_ms_per_slide",
        (self_ns(t, "slide/sim") - stall).max(0.0) / slides / 1e6,
    );
    report.set("netsim.region_epochs", t.counter("region.epochs") as f64 / reps);
    report.set("netsim.region_outbox_routed", t.counter("region.outbox_routed") as f64 / reps);
    report.set("netsim.region_barrier_stall_ms", stall / reps / 1e6);
    report.set("netsim.region_imbalance_pct", ratio(imbalance_sum, imbalance_count));
    core_layer(report, t, reps);
    report.set("core.stream.collect_ms_per_slide", collect / slides / 1e6);
    report.set("core.stream.evaluate_ms_per_slide", evaluate / slides / 1e6);
    report.set("core.stream.tail_ms", tail / reps / 1e6);
    report.set("core.stream.driver_other_ms", driver_other / reps / 1e6);
    report.set(
        "trace.overhead_pct",
        overhead_pct(&millis(run.traced_walls), &millis(run.untraced_walls)),
    );
    report.set("trace.unattributed_pct", ratio(driver_other - outside, wall) * 100.0);
}

/// The layer budget of a fleet workload.
pub fn fleet(report: &mut Report, t: &TelemetryReport, run: &FleetRun) {
    let recorded: Vec<&Epoch> = run.epochs.iter().filter(|e| e.recorded).collect();
    let reps = recorded.len().max(1) as f64;
    let wall: f64 = recorded.iter().map(|e| e.wall().as_nanos() as f64).sum();
    let ingest: f64 = recorded.iter().map(|e| e.ingest.as_nanos() as f64).sum();
    let step: f64 = recorded.iter().map(|e| e.step.as_nanos() as f64).sum();
    let step_span = total(t, "fleet.step");
    let (fp, _) = named(t, "fixed_point");

    reconcile(report, "step >= fleet.step span", step, step_span, false);
    // Fixed-point time is summed over the pool's workers.
    reconcile(report, "fleet.step x workers >= fixed_point", step_span * run.workers, fp, false);

    core_layer(report, t, reps);
    report.set("core.persist.serialize_us_per_tenant", run.serialize_us);
    report.set("core.persist.write_us_per_tenant", run.write_us);
    report.set("core.persist.snapshot_bytes_per_tenant", run.snapshot_bytes);
    let all = |f: fn(&Epoch) -> Duration| millis(&run.epochs.iter().map(f).collect::<Vec<_>>());
    report.set("fleet.ingest_ms_per_epoch", median(&all(|e| e.ingest)));
    report.set("fleet.step_ms_per_epoch", median(&all(|e| e.step)));
    report.set("fleet.fill_epoch_ms", run.fill_epoch_ms);
    report.set(
        "fleet.shard_imbalance",
        t.gauges.get("fleet.shard_imbalance").copied().unwrap_or(0.0),
    );
    report.set("fleet.snapshot_bytes", t.counter("fleet.snapshot_bytes") as f64 / reps);
    let walls = |on: bool| {
        millis(&run.epochs.iter().filter(|e| e.recorded == on).map(Epoch::wall).collect::<Vec<_>>())
    };
    report.set("trace.overhead_pct", overhead_pct(&walls(true), &walls(false)));
    report.set("trace.unattributed_pct", ratio(wall - ingest - step_span, wall) * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_obs::SpanStat;

    fn span(path: &str, total_ns: u64, count: u64) -> SpanStat {
        SpanStat { path: path.into(), count, total_ns, min_ns: 0, max_ns: total_ns }
    }

    fn sample() -> TelemetryReport {
        TelemetryReport {
            spans: vec![
                span("detect", 300, 3),
                span("detect/fixed_point", 200, 5),
                span("slide", 1_000, 2),
                span("slide/collect", 100, 2),
                span("slide/evaluate", 50, 2),
                span("slide/sim", 800, 2),
                span("slide/sim/detect", 500, 4),
                span("slide/sim/detect/fixed_point", 400, 6),
                span("tail", 90, 1),
            ],
            ..TelemetryReport::default()
        }
    }

    #[test]
    fn spans_are_summed_by_name_wherever_they_nest() {
        let t = sample();
        assert_eq!(named(&t, "detect"), (800.0, 7.0));
        assert_eq!(named(&t, "fixed_point"), (600.0, 11.0));
        assert_eq!(named(&t, "detect/fixed_point"), (600.0, 11.0));
        assert_eq!(named(&t, "absent"), (0.0, 0.0));
        assert_eq!(total(&t, "slide/sim"), 800.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = sample();
        assert_eq!(self_ns(&t, "slide"), 1_000.0 - 100.0 - 50.0 - 800.0);
        assert_eq!(self_ns(&t, "slide/sim"), 300.0);
        assert_eq!(self_ns(&t, "slide/sim/detect"), 100.0);
        assert_eq!(self_ns(&t, "tail"), 90.0);
    }

    #[test]
    fn reconcile_is_two_sided_only_for_covering_children() {
        assert!(reconciles(1_000.0, 950.0, true));
        assert!(!reconciles(1_000.0, 850.0, true));
        assert!(!reconciles(1_000.0, 1_150.0, true));
        assert!(reconciles(1_000.0, 300.0, false));
        assert!(reconciles(1_000.0, 1_090.0, false));
        assert!(!reconciles(1_000.0, 1_150.0, false));
        assert!(reconciles(0.0, 0.0, true));
        assert!(!reconciles(0.0, 5.0, false));
    }

    #[test]
    fn the_stream_budget_names_the_driver_remainder() {
        let t = sample();
        let walls = [Duration::from_nanos(1_200)];
        let run = StreamRun {
            slides: 2.0,
            traced_walls: &walls,
            untraced_walls: &[Duration::from_nanos(1_100)],
            trace_gen: &[Duration::from_millis(3)],
            topology_build: Duration::from_nanos(40),
            partition_build: Duration::ZERO,
        };
        let mut report = Report::default();
        stream(&mut report, &t, &run);
        // sim 800 + collect 100 + evaluate 50 covers slide 1000 within 10%.
        assert_eq!(report.failed, 0);
        assert_eq!(report.attempted, 4);
        assert_eq!(report.metrics["core.stream.driver_other_ms"], (1_200.0 - 1_000.0 - 90.0) / 1e6);
        assert_eq!(report.metrics["netsim.sim_self_ms_per_slide"], 300.0 / 2.0 / 1e6);
        let unattributed = (110.0 - 40.0) / 1_200.0 * 100.0;
        assert!((report.metrics["trace.unattributed_pct"] - unattributed).abs() < 1e-9);
        let overhead = (1_200.0 / 1_100.0 - 1.0) * 100.0;
        assert!((report.metrics["trace.overhead_pct"] - overhead).abs() < 1e-9);
    }

    #[test]
    fn an_uncovered_slide_fails_its_reconcile() {
        let mut t = sample();
        t.spans.iter_mut().find(|s| s.path == "slide").unwrap().total_ns = 2_000;
        let walls = [Duration::from_nanos(3_000)];
        let run = StreamRun {
            slides: 2.0,
            traced_walls: &walls,
            untraced_walls: &walls,
            trace_gen: &[],
            topology_build: Duration::ZERO,
            partition_build: Duration::ZERO,
        };
        let mut report = Report::default();
        stream(&mut report, &t, &run);
        assert_eq!(report.failed, 1);
    }
}
