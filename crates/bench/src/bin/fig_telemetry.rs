//! `fig_telemetry`: the per-stage cost profile of the 2 000-sensor city
//! streaming run, derived from `wsn-obs` telemetry.
//!
//! Runs the same configuration as the `scaling/partitioned/2000` benchmark
//! (semi-global NN detector at ε = 1, streaming two window slides on the
//! spatially partitioned backend), with telemetry collection enabled, and
//! prints:
//!
//! * the span table — where each slide's wall clock goes (`slide/sim`,
//!   `slide/collect`, `slide/evaluate`, and the detector / fixed-point time
//!   nested under the simulation), plus the quiescence tail;
//! * the counter table — fixed-point cache behaviour, desync re-scans,
//!   broadcast volume, simulator load.
//!
//! The binary hard-fails (exit 1) if the per-slide stage breakdown does not
//! account for its parent within 10% — the overhead contract of `wsn-obs`
//! says the spans must measure the run, not distort it. The full report is
//! also written to `TELEMETRY_fig_telemetry.json` (override with
//! `WSN_TELEMETRY_OUT`), in the schema `json_check` validates.
//!
//! Without the `telemetry` cargo feature the instrumentation is compiled
//! out; the binary then explains how to rebuild and exits 0, so accidental
//! default-feature invocations do not fail CI.

use std::process::ExitCode;
use std::time::Instant;

use wsn_core::experiment::{AlgorithmConfig, ExperimentConfig, RankingChoice};
use wsn_core::streaming::StreamingExperiment;
use wsn_data::lab::LabDeployment;
use wsn_data::synth::SyntheticTraceConfig;
use wsn_netsim::region::SimBackend;
use wsn_obs::TelemetryReport;
use wsn_workload::FaultProfile;

const SENSORS: usize = 2_000;
const REGIONS: usize = 4;

/// Light churn plus duty-cycling, so the fault-model counters
/// (`sim.node_deaths`, `sim.node_joins`, `sim.dropped_asleep`,
/// `detector.stale_neighbors_pruned`) show up in the table with live values:
/// 1% of the city dies mid-run, half of those rejoin, and every radio sleeps
/// 10% of each 2 s cycle.
const FAULTS: FaultProfile =
    FaultProfile { death_fraction: 0.01, rejoin_fraction: 0.5, duty_cycle: Some((2.0, 0.9)) };

fn main() -> ExitCode {
    if !wsn_obs::compiled() {
        println!(
            "fig_telemetry: built without the `telemetry` feature; the instrumentation is \
             compiled out.\nRebuild with:\n  cargo run --release --features telemetry -p \
             wsn-bench --bin fig_telemetry"
        );
        return ExitCode::SUCCESS;
    }
    wsn_obs::set_enabled(true);
    wsn_obs::reset();

    let deployment = LabDeployment::city(SENSORS, 1).expect("city deployment builds");
    let trace_config = SyntheticTraceConfig { rounds: 2, ..Default::default() };
    let trace = deployment.generate_trace(&trace_config, 7).expect("trace generates");
    let plan = FAULTS.instantiate(
        deployment.sensors(),
        trace_config.sample_interval_secs,
        trace_config.rounds,
        41,
    );
    let config =
        ExperimentConfig { sensor_count: SENSORS, window_samples: 10, n: 4, ..Default::default() }
            .with_algorithm(AlgorithmConfig::SemiGlobal {
                ranking: RankingChoice::Nn,
                hop_diameter: 1,
            })
            .with_backend(SimBackend::Partitioned { regions: REGIONS })
            .with_fault_plan(plan)
            // Short enough that a mid-run death is noticed and pruned by the
            // final sampling round, exercising the stale-neighbour counter.
            .with_liveness_timeout(0.7 * trace_config.sample_interval_secs);
    // Checkpoint every slide so the crash-safety instrumentation
    // (`persist.snapshots_written`, `persist.snapshot_bytes`, the
    // `slide/checkpoint` span) carries live city-scale values in the tables.
    let checkpoint_dir =
        std::env::temp_dir().join(format!("fig_telemetry_ckpt_{}", std::process::id()));
    let experiment = StreamingExperiment::new(config).checkpoint_every_slides(1, &checkpoint_dir);

    println!(
        "fig_telemetry: streaming {SENSORS} city sensors ({REGIONS} regions), semi-global NN \
         eps=1, {} slides...",
        trace_config.rounds
    );
    let started = Instant::now();
    let outcome = experiment.run_on_trace(&trace).expect("streaming run failed");
    let wall_ns = started.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(&checkpoint_dir);

    // A tiny sweep journaled twice — the second pass skips every completed
    // cell — so the resumable-sweep counters (`persist.journal_rows`,
    // `persist.cells_skipped_on_resume`) also show live values below.
    let journal_path =
        std::env::temp_dir().join(format!("fig_telemetry_journal_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let mut tiny = ExperimentConfig::small();
    tiny.trace.rounds = 2;
    for _ in 0..2 {
        wsn_bench::journal::SweepJournal::open(&journal_path)
            .expect("sweep journal opens")
            .run_plan(std::slice::from_ref(&tiny), 2)
            .expect("journaled sweep runs");
    }
    let _ = std::fs::remove_file(&journal_path);

    let report = wsn_obs::report();

    println!(
        "run complete: {} slides, {} packets, wall {}",
        outcome.slides.len(),
        outcome.final_stats.total_packets_sent(),
        fmt_ns(wall_ns as f64),
    );

    print_span_table(&report, wall_ns);
    print_counter_table(&report);

    match wsn_bench::telemetry::write_sidecar("fig_telemetry", &report, wall_ns) {
        Ok(path) => println!("\ntelemetry report -> {path}"),
        Err(e) => {
            eprintln!("fig_telemetry: failed to write telemetry report: {e}");
            return ExitCode::FAILURE;
        }
    }

    check_breakdown(&report)
}

/// The span table: every recorded path with its count, total, and mean, plus
/// its share of the measured wall clock.
fn print_span_table(report: &TelemetryReport, wall_ns: u64) {
    println!("\n{:<28} {:>10} {:>12} {:>12} {:>8}", "span", "count", "total", "mean", "% wall");
    for span in &report.spans {
        let mean = span.total_ns as f64 / span.count as f64;
        println!(
            "{:<28} {:>10} {:>12} {:>12} {:>7.1}%",
            span.path,
            span.count,
            fmt_ns(span.total_ns as f64),
            fmt_ns(mean),
            span.total_ns as f64 * 100.0 / wall_ns as f64,
        );
    }
}

/// The counter table, grouped by prefix (engine, detector, ledger, sim,
/// region) as the registration names already encode.
fn print_counter_table(report: &TelemetryReport) {
    println!("\n{:<40} {:>16}", "counter", "value");
    for (name, value) in &report.counters {
        println!("{:<40} {:>16}", name, value);
    }
}

/// The acceptance gate: the `slide` span's direct children (`sim`,
/// `collect`, `evaluate`) cover its whole body by construction, so their
/// totals must sum to within 10% of the `slide` total — otherwise the
/// breakdown is lying about where the per-slide time went. (Deeper spans
/// like `slide/sim/detect` deliberately cover only part of their parent and
/// are not reconciled.)
fn check_breakdown(report: &TelemetryReport) -> ExitCode {
    let Some(slide) = report.span("slide") else {
        eprintln!("fig_telemetry: no `slide` span was recorded");
        return ExitCode::FAILURE;
    };
    let child_total: u64 = report
        .spans
        .iter()
        .filter(|s| s.path.strip_prefix("slide/").is_some_and(|rest| !rest.contains('/')))
        .map(|s| s.total_ns)
        .sum();
    let slide_total = slide.total_ns.max(1);
    let deviation = child_total.abs_diff(slide_total) as f64 / slide_total as f64;
    println!(
        "\nper-slide breakdown: stages {} / slide {} ({:.1}% deviation)",
        fmt_ns(child_total as f64),
        fmt_ns(slide_total as f64),
        deviation * 100.0,
    );
    if deviation > 0.10 {
        eprintln!(
            "fig_telemetry: per-slide stage breakdown deviates {:.1}% from the slide total \
             (limit 10%)",
            deviation * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("stage breakdown reconciles within 10%");
        ExitCode::SUCCESS
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}
