//! Scenario-diversity sweep: every `wsn-workload` catalog scenario × a grid
//! of algorithms, each run through the **streaming window-slide driver**
//! (`wsn_core::streaming`) instead of the one-shot batch runner.
//!
//! For every cell the table reports slide-averaged exact-match accuracy,
//! label precision and recall (against the scenario's injected ground
//! truth), the agreement rate, the convergence latency in slides, per-slide
//! energy and protocol traffic. The correlated-burst and adversarial rows
//! are the interesting ones — they are exactly the workloads the paper's
//! Bernoulli model cannot produce.
//!
//! The table prints through the campaign renderer; the rows are written to
//! `results/fig_scenarios.json` for `json_check`. A generated scenario
//! trace has no `ExperimentConfig` of its own, so these cells are not
//! journaled. Run with `--quick` for a reduced (12-node, 8-round) sweep.

use wsn_bench::campaign::markdown_table;
use wsn_bench::json::JsonValue;
use wsn_bench::pool;
use wsn_core::experiment::{AlgorithmConfig, ExperimentConfig, RankingChoice};
use wsn_core::streaming::{StreamingExperiment, StreamingOutcome};
use wsn_core::CoreError;
use wsn_data::lab::{LabDeployment, PAPER_TRANSMISSION_RANGE_M};
use wsn_workload::Scenario;

/// One row of the JSON report, keyed by the scenario's catalog index.
fn row_json(index: usize, outcome: &StreamingOutcome) -> JsonValue {
    let total = outcome.final_stats.total_energy_summary();
    JsonValue::object([
        ("x", JsonValue::from(index as f64)),
        ("label", JsonValue::from(outcome.label.as_str())),
        ("avg_tx_per_round", JsonValue::from(outcome.avg_tx_per_node_per_slide())),
        ("avg_rx_per_round", JsonValue::from(outcome.avg_rx_per_node_per_slide())),
        ("min_total_energy", JsonValue::from(total.min)),
        ("avg_total_energy", JsonValue::from(total.avg)),
        ("max_total_energy", JsonValue::from(total.max)),
        ("accuracy", JsonValue::from(outcome.mean_slide_accuracy())),
        ("mean_recall", JsonValue::from(outcome.mean_label_recall())),
        ("traffic_imbalance", JsonValue::from(outcome.final_stats.traffic_imbalance())),
        ("data_points_sent", JsonValue::from(outcome.data_points_sent as f64)),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sensor_count, rounds, range_m) =
        if quick { (12usize, 8usize, 18.0) } else { (53, 24, PAPER_TRANSMISSION_RANGE_M) };
    let algorithms = [
        AlgorithmConfig::Global { ranking: RankingChoice::Nn },
        AlgorithmConfig::Global { ranking: RankingChoice::KnnAverage { k: 4 } },
        AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 },
    ];
    let deployment = LabDeployment::with_sensor_count(sensor_count, 1).expect("deployment builds");
    let scenarios = Scenario::catalog(rounds);

    // Submit the whole scenario × algorithm grid to the shared worker pool,
    // then collect in sweep order (the same discipline as the campaign's
    // plan runner).
    let pool = pool::global();
    let mut pending = Vec::new();
    for (index, scenario) in scenarios.iter().enumerate() {
        for &algorithm in &algorithms {
            let mut config = ExperimentConfig {
                sensor_count,
                window_samples: 10,
                n: 4,
                transmission_range_m: range_m,
                ..Default::default()
            }
            .with_algorithm(algorithm);
            // Dynamic-network scenarios carry a declarative fault profile:
            // instantiate it for this layout and let the detectors prune
            // neighbours that go silent for ~3 sampling rounds.
            if let Some(profile) = scenario.faults {
                let plan = profile.instantiate(
                    deployment.sensors(),
                    scenario.trace.sample_interval_secs,
                    rounds,
                    41,
                );
                config = config
                    .with_fault_plan(plan)
                    .with_liveness_timeout(3.0 * scenario.trace.sample_interval_secs);
            }
            let name = scenario.name.clone();
            let cell = scenario.clone();
            let sensors = deployment.sensors().to_vec();
            let handle = pool.submit(move || -> Result<StreamingOutcome, CoreError> {
                // Seed 41 injects a non-empty label set for every labelled
                // catalog scenario even at --quick scale (96 readings), so
                // no row of the figure is vacuous.
                let trace = cell.generate(&sensors, 41).map_err(CoreError::from)?;
                StreamingExperiment::new(config).run_on_trace(&trace)
            });
            pending.push((index, name, handle));
        }
    }

    let legend: Vec<String> =
        scenarios.iter().enumerate().map(|(i, s)| format!("{i}={}", s.name)).collect();
    let configuration = format!(
        "{sensor_count} sensors, {rounds} rounds, w=10, n=4, one seed; scenarios: {}",
        legend.join(", ")
    );
    let (mut header, mut table, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    for (index, name, handle) in pending {
        let outcome = handle.join().expect("scenario cell failed");
        let cells = [
            ("scenario", name),
            ("algorithm", outcome.label.clone()),
            ("acc/slide", format!("{:.3}", outcome.mean_slide_accuracy())),
            (
                "label p/r",
                format!(
                    "{:.3} / {:.3}",
                    outcome.mean_label_precision(),
                    outcome.mean_label_recall()
                ),
            ),
            ("agreement", format!("{:.2}", outcome.agreement_rate())),
            (
                "convergence",
                outcome
                    .convergence_latency_slides
                    .map_or_else(|| "never".to_string(), |s| format!("{s} slides")),
            ),
            ("TX (mJ/slide)", format!("{:.3}", outcome.avg_tx_per_node_per_slide() * 1e3)),
            ("points sent", outcome.data_points_sent.to_string()),
        ];
        header = cells.iter().map(|(column, _)| column.to_string()).collect();
        table.push(cells.map(|(_, cell)| cell).to_vec());
        rows.push(row_json(index, &outcome));
    }
    println!(
        "## Streaming scenario sweep (per-slide evaluation)\n\n{configuration}\n\n{}",
        markdown_table(&header, &table)
    );
    let report = JsonValue::object([
        ("figure", JsonValue::from("Streaming scenario sweep (per-slide evaluation)")),
        ("configuration", JsonValue::from(configuration)),
        ("x_name", JsonValue::from("scenario")),
        ("rows", JsonValue::Array(rows)),
    ]);
    let path = "results/fig_scenarios.json";
    std::fs::create_dir_all("results").expect("the results directory creates");
    std::fs::write(path, report.to_pretty_string()).expect("the figure JSON writes");
    println!("(wrote {path})");
}
