//! The archived sweep journal as the oracle of the batch runner.
//!
//! `EXPERIMENTS.md` is generated from `results/journal.jsonl`. This test
//! re-simulates four of its cells (three of Figure 4's grid, one of Figure
//! 7's semi-global series) with [`run_experiment`] and requires the
//! archived rows back exactly, energy included: stopping the clock at
//! window slides, for one, would add idle energy to the Figure 5/6 totals.
//! The journal is only read; `SweepJournal::open` would open the committed
//! file for appending and truncate a torn tail.

use wsn_bench::journal::{CellMetrics, JournalRow};
use wsn_bench::paper::{
    centralized, global_nn, semi_global_nn, PaperScenario, PAPER_N, PAPER_SEEDS,
};
use wsn_bench::sweep::seed_configs;
use wsn_core::experiment::run_experiment;
use wsn_core::persist::config_hash;
use wsn_json::JsonValue;

fn archived_rows() -> Vec<JournalRow> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/journal.jsonl");
    let text = std::fs::read_to_string(path).expect("the archived journal is committed");
    text.lines()
        .map(|line| JournalRow::from_json(&JsonValue::parse(line).unwrap()).unwrap())
        .collect()
}

#[test]
fn archived_cells_reproduce_exactly() {
    let rows = archived_rows();
    // (journal row, series, w, seed offset). Row 33 is the cell whose
    // estimates disagree at quiescence (sampling-clock window skew; see
    // `regression_agreement.rs`).
    let cells = [
        (1, centralized(), 10, 1),
        (54, global_nn(), 40, 2),
        (33, global_nn(), 15, 1),
        (121, semi_global_nn(2), 20, 1),
    ];
    for (cell, algorithm, w, offset) in cells {
        let row = &rows[cell];
        let base = PaperScenario::Full.config(algorithm, w, PAPER_N);
        let config = &seed_configs(&base, PAPER_SEEDS)[offset];
        let name = format!("{} w={w} seed offset {offset}", algorithm.label());
        assert_eq!(config_hash(config), row.config_hash, "row {cell} is not {name}");
        let outcome = run_experiment(config).expect("an archived cell runs");
        assert_eq!(
            CellMetrics::of(&outcome),
            row.metrics,
            "{name} no longer reproduces row {cell}"
        );
    }
}
