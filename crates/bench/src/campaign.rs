//! The paper's evaluation as declarative campaigns.
//!
//! Every figure and table of §7.1–7.2 and §8 is one [`Figure`] spec: a set
//! of algorithm series × one swept [`Axis`] at a [`PaperScenario`] scale,
//! the columns its table reads from each seed-averaged cell, and the paper
//! claims it checks. [`run`] compiles figures into one plan of cells and
//! runs it through [`SweepJournal::run_plan`], so cells that figures share
//! run once (Figures 4–6 and the imbalance table read one grid, Figures 7
//! and 8 reuse Figure 4's Centralized series, Figure 9's `n = 4` cells are
//! Figure 8's at `w = 20`), and journaled cells not at all. [`Table::render`] turns a figure's outcomes into the markdown
//! section the `campaign` binary prints and `EXPERIMENTS.md` archives;
//! [`document`] assembles that file.

use crate::journal::SweepJournal;
use crate::paper::{
    centralized, global_knn, global_nn, semi_global_knn, semi_global_nn, PaperScenario, N_SWEEP,
    PAPER_K, PAPER_N, PAPER_W, WINDOW_SWEEP,
};
use crate::sweep::AveragedOutcome;
use wsn_core::experiment::{AlgorithmConfig, ExperimentConfig};
use wsn_core::CoreError;
use wsn_netsim::radio::LossModel;
use wsn_netsim::stats::MinAvgMax;

/// The one parameter a figure sweeps. The others stay at the paper's
/// defaults: `w` = [`PAPER_W`], `n` = [`PAPER_N`], `k` = [`PAPER_K`], a
/// loss-free radio and the scenario's sensor count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The sliding-window length `w`, in samples.
    Window,
    /// The number of reported outliers `n`.
    Outliers,
    /// The Bernoulli packet-loss probability, in percent.
    Loss,
    /// The number of deployed sensors.
    Sensors,
}

impl Axis {
    /// The heading of the table's axis column.
    fn header(self) -> &'static str {
        match self {
            Axis::Window => "w (samples)",
            Axis::Outliers => "n (outliers)",
            Axis::Loss => "packet loss (%)",
            Axis::Sensors => "sensors",
        }
    }

    /// The values the axis takes at `scenario` scale: the paper's sweeps
    /// at full scale, fewer (and fewer sensors) at quick scale.
    fn values(self, scenario: PaperScenario) -> Vec<u64> {
        let full = scenario == PaperScenario::Full;
        match self {
            Axis::Window if full => WINDOW_SWEEP.to_vec(),
            Axis::Window => vec![10, 20, 40],
            Axis::Outliers if full => N_SWEEP.to_vec(),
            Axis::Outliers => vec![1, 4, 8],
            Axis::Loss => vec![0, 1, 5, 10],
            Axis::Sensors => vec![if full { 32 } else { 12 }, scenario.sensor_count() as u64],
        }
    }

    /// The configuration of `algorithm` at axis value `x`.
    fn config(
        self,
        scenario: PaperScenario,
        algorithm: AlgorithmConfig,
        x: u64,
    ) -> ExperimentConfig {
        let (w, n) = match self {
            Axis::Window => (x, PAPER_N),
            Axis::Outliers => (PAPER_W, x as usize),
            Axis::Loss | Axis::Sensors => (PAPER_W, PAPER_N),
        };
        let mut config = scenario.config(algorithm, w, n);
        if self == Axis::Loss && x > 0 {
            config.loss = LossModel::bernoulli(x as f64 / 100.0);
        }
        if self == Axis::Sensors {
            config.sensor_count = x as usize;
            // A sparser subsample needs a wider radio range to stay
            // connected, like the paper's random 32-node subsample.
            if x < 40 {
                config.transmission_range_m = config.transmission_range_m.max(9.5);
            }
        }
        config
    }
}

/// A table column: its heading after the series label, and the text of one
/// seed-averaged cell.
type Column = (&'static str, fn(&AveragedOutcome) -> String);

/// One paper figure or table, declared as data.
pub struct Figure {
    /// The command-line name (`fig4`, …, `imbalance`).
    pub name: &'static str,
    /// The section heading.
    title: &'static str,
    /// The paper's claim and the fixed parameters, quoted above the table.
    paper: &'static str,
    /// The algorithm series, in column order.
    series: &'static [AlgorithmConfig],
    /// The swept axis.
    axis: Axis,
    /// The axis values the figure reads; empty means the whole sweep.
    only: &'static [u64],
    /// The columns each series contributes to the table.
    columns: &'static [Column],
    /// The paper claims checked against the table, as (claim, reading) rows.
    claims: fn(&Table) -> Vec<[String; 2]>,
}

impl Figure {
    /// The axis values the figure reads at `scenario` scale.
    fn xs(&self, scenario: PaperScenario) -> Vec<u64> {
        let mut xs = self.axis.values(scenario);
        xs.retain(|x| self.only.is_empty() || self.only.contains(x));
        xs
    }

    /// The figure's cells in plan order: series-major, axis value minor.
    fn plan(&self, scenario: PaperScenario) -> Vec<ExperimentConfig> {
        let xs = self.xs(scenario);
        self.series
            .iter()
            .flat_map(|&algorithm| {
                xs.iter().map(move |&x| self.axis.config(scenario, algorithm, x))
            })
            .collect()
    }
}

/// A figure's seed-averaged outcomes: `cells[s][i]` is series `s` at axis
/// value `xs[i]`.
pub struct Table {
    /// The figure the outcomes belong to.
    figure: &'static Figure,
    /// The axis values, in row order.
    xs: Vec<u64>,
    /// One row of outcomes per series.
    cells: Vec<Vec<AveragedOutcome>>,
}

impl Table {
    /// Takes the figure's outcomes, in its plan order, off `outcomes`.
    fn new(
        figure: &'static Figure,
        scenario: PaperScenario,
        outcomes: &mut impl Iterator<Item = AveragedOutcome>,
    ) -> Table {
        let xs = figure.xs(scenario);
        let cells =
            figure.series.iter().map(|_| outcomes.by_ref().take(xs.len()).collect()).collect();
        Table { figure, xs, cells }
    }

    /// The figure's markdown section: heading, paper text and table.
    pub fn render(&self) -> String {
        let figure = self.figure;
        let mut header = vec![figure.axis.header().to_string()];
        for series in figure.series.iter().map(series_label) {
            header.extend(figure.columns.iter().map(|(column, _)| format!("{series} {column}")));
        }
        let rows: Vec<Vec<String>> = (0..self.xs.len())
            .map(|i| {
                let mut row = vec![self.xs[i].to_string()];
                for series in &self.cells {
                    row.extend(figure.columns.iter().map(|(_, cell)| cell(&series[i])));
                }
                row
            })
            .collect();
        format!("## {}\n\n{}\n\n{}\n", figure.title, figure.paper, markdown_table(&header, &rows))
    }
}

/// The column label of a series: the paper's legend, with the ranking
/// spelled out for semi-global series (the accuracy table has both).
fn series_label(algorithm: &AlgorithmConfig) -> String {
    match algorithm {
        AlgorithmConfig::SemiGlobal { ranking, hop_diameter } => {
            format!("Semi-global-{} ε={hop_diameter}", ranking.label())
        }
        other => other.label(),
    }
}

/// A markdown table with one heading row.
pub fn markdown_table(header: &[String], rows: &[Vec<String>]) -> String {
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let body: String = rows.iter().map(|row| line(row)).collect();
    format!("{}|{}\n{body}", line(header), "---|".repeat(header.len()))
}

fn mj(joules: f64) -> String {
    format!("{:.3}", joules * 1e3)
}

const ENERGY: &[Column] = &[
    ("TX (mJ)", |o| mj(o.avg_tx_per_node_per_round)),
    ("RX (mJ)", |o| mj(o.avg_rx_per_node_per_round)),
];

fn spread(e: MinAvgMax, digits: usize) -> String {
    format!("{:.*} / {:.*} / {:.*}", digits, e.min, digits, e.avg, digits, e.max)
}

const RANGE: &[Column] = &[("min/avg/max (J)", |o| spread(o.total_energy, 3))];
const NORMALIZED: &[Column] =
    &[("min/avg/max (×avg)", |o| spread(o.total_energy.normalized(), 2))];

const ACCURACY: &[Column] =
    &[("exact / recall", |o| format!("{:.3} / {:.3}", o.accuracy, o.mean_recall))];

const IMBALANCE: &[Column] = &[
    ("radio max/avg", |o| format!("{:.2}", o.avg_traffic_imbalance)),
    ("energy max/avg", |o| format!("{:.2}", o.total_energy.normalized().max)),
];

const GLOBAL: &[AlgorithmConfig] = &[centralized(), global_nn(), global_knn()];
const SEMI_NN: &[AlgorithmConfig] =
    &[centralized(), semi_global_nn(1), semi_global_nn(2), semi_global_nn(3)];
const SEMI_KNN: &[AlgorithmConfig] =
    &[centralized(), semi_global_knn(1), semi_global_knn(2), semi_global_knn(3)];

/// The fields most figures share: Figure 4's window grid, no claims.
const WINDOW_GRID: Figure = Figure {
    name: "",
    title: "",
    paper: "",
    series: GLOBAL,
    axis: Axis::Window,
    only: &[],
    columns: ENERGY,
    claims: |_| Vec::new(),
};

/// Every figure and table of the evaluation, in document order.
pub static FIGURES: [Figure; 9] = [
    Figure {
        name: "fig4",
        title: "Figure 4 — average TX energy per node per round vs `w`",
        paper: "Paper (§7.2, Fig. 4): the centralized scheme's per-round transmit energy dwarfs \
                both\nin-network global schemes and keeps growing with the window, while \
                Global-NN and\nGlobal-KNN stay low and nearly flat; KNN costs slightly more \
                than NN.",
        claims: global_claims,
        ..WINDOW_GRID
    },
    Figure {
        name: "fig5",
        title: "Figure 5 — per-node total energy range vs `w`",
        paper: "Paper (§7.2, Fig. 5): the min/avg/max spread of total per-node energy. The \
                centralized\nscheme shows the widest spread (nodes near the sink relay \
                everything); the global\nschemes are tighter and lower.",
        columns: RANGE,
        ..WINDOW_GRID
    },
    Figure {
        name: "fig6",
        title: "Figure 6 — normalized per-node energy spread",
        paper: "Paper (§7.2, Fig. 6): Figure 5's spread normalized by each algorithm's average. \
                The\nheadline reading: at w = 10 the centralized scheme's hungriest node \
                consumes nearly\n3× the average (the relays next to the sink), while both \
                global schemes stay below 2×.\nAggregated from the same archived grid cells — \
                no extra simulation.",
        only: &[10, 20, 40],
        columns: NORMALIZED,
        claims: spread_claims,
        ..WINDOW_GRID
    },
    Figure {
        name: "fig7",
        title: "Figure 7 — semi-global NN energy vs `w`",
        paper: "Paper (§7.2, Fig. 7): semi-global NN detection at hop diameters ε = 1, 2, 3 \
                (n = 4):\na larger ε sends points farther, so the cost grows with ε. The \
                Centralized cells are\nFigure 4's.",
        series: SEMI_NN,
        claims: semi_global_claims,
        ..WINDOW_GRID
    },
    Figure {
        name: "fig8",
        title: "Figure 8 — semi-global KNN energy vs `w`",
        paper: "Paper (§7.2, Fig. 8): Figure 7 with the KNN ranking (k = 4).",
        series: SEMI_KNN,
        claims: semi_global_claims,
        ..WINDOW_GRID
    },
    Figure {
        name: "fig9",
        title: "Figure 9 — semi-global KNN energy vs `n`",
        paper: "Paper (§7.2, Fig. 9): Figure 8 at w = 20 as the number of reported outliers \
                n grows.",
        series: SEMI_KNN,
        axis: Axis::Outliers,
        ..WINDOW_GRID
    },
    Figure {
        name: "accuracy",
        title: "Detection accuracy vs packet loss",
        paper: "Paper (§7.2): both the global and semi-global algorithms converge on the \
                correct\nresult \"approximately 99% of the time\"; errors are attributed to \
                dropped packets.\nCells: exact O_n match / mean per-node outlier recall \
                (semi-global at ε = 2).",
        series: &[global_nn(), global_knn(), semi_global_nn(2), semi_global_knn(2)],
        axis: Axis::Loss,
        columns: ACCURACY,
        ..WINDOW_GRID
    },
    Figure {
        name: "scaling",
        title: "Network size: 32- vs 53-sensor deployment",
        paper: "Paper (§7.1): the distributed benefit over the centralized scheme grows with \
                the\nnetwork size (a random 32-node subsample, its radio range widened to \
                9.5 m).",
        series: &[centralized(), global_nn()],
        axis: Axis::Sensors,
        ..WINDOW_GRID
    },
    Figure {
        name: "imbalance",
        title: "Traffic and energy imbalance at w = 10",
        paper: "Paper (§8): the sink's neighbourhood is the centralized bottleneck. Radio \
                max/avg is\nthe busiest node's radio activity over the mean; Figure 4's \
                w = 10 cells.",
        only: &[10],
        columns: IMBALANCE,
        ..WINDOW_GRID
    },
];

/// Resolves figure names in the given order; no names means every figure.
///
/// # Errors
///
/// The first name that is not a figure's.
pub fn select(names: &[String]) -> Result<Vec<&'static Figure>, String> {
    if names.is_empty() {
        return Ok(FIGURES.iter().collect());
    }
    names
        .iter()
        .map(|name| FIGURES.iter().find(|f| f.name == name.as_str()).ok_or_else(|| name.clone()))
        .collect()
}

/// Runs `figures` as one plan through `journal` (see
/// [`SweepJournal::run_plan`]) and splits the outcomes into one [`Table`]
/// per figure.
///
/// # Errors
///
/// Whatever the plan runner returns; completed cells stay journaled.
pub fn run(
    journal: &mut SweepJournal,
    scenario: PaperScenario,
    figures: &[&'static Figure],
) -> Result<Vec<Table>, CoreError> {
    let plan: Vec<ExperimentConfig> = figures.iter().flat_map(|f| f.plan(scenario)).collect();
    let mut outcomes = journal.run_plan(&plan, scenario.seeds())?.into_iter();
    Ok(figures.iter().map(|&figure| Table::new(figure, scenario, &mut outcomes)).collect())
}

/// The markdown section of every claim the tables check; empty when none
/// does.
pub fn claims(tables: &[Table]) -> String {
    let rows: Vec<Vec<String>> =
        tables.iter().flat_map(|t| (t.figure.claims)(t)).map(Vec::from).collect();
    if rows.is_empty() {
        return String::new();
    }
    let header = ["claim (paper §7.2)".to_string(), "reproduced".to_string()];
    format!("## Paper claims vs reproduction\n\n{}\n", markdown_table(&header, &rows))
}

/// `EXPERIMENTS.md`, rendered from `journal` alone without simulating:
/// provenance, the section of every figure whose cells are all journaled,
/// their claims and the notes.
pub fn document(journal: &SweepJournal, scenario: PaperScenario) -> String {
    let tables: Vec<Table> = FIGURES
        .iter()
        .filter_map(|figure| {
            let outcomes = journal.aggregate_plan(&figure.plan(scenario), scenario.seeds())?;
            Some(Table::new(figure, scenario, &mut outcomes.into_iter()))
        })
        .collect();
    let toolchain = journal.rows().first().map_or(String::new(), |row| {
        let t = &row.toolchain;
        format!(
            "- provenance per row: config hash, seed, toolchain `{}/{}/{}`\n",
            t.version, t.os, t.arch
        )
    });
    let archived: Vec<&str> = tables.iter().map(|t| t.figure.name).collect();
    let mut md = format!(
        "# EXPERIMENTS — archived paper-vs-repro sweeps\n\nGenerated by `cargo run --release \
         -p wsn-bench --bin campaign` from the journaled sweep rows — every number below is \
         aggregated from the archived\n`(config, seed)` cells, so the tables are reproducible \
         (and resumable) from the journal alone.\n\n- journal: `{}` ({} rows; validate with \
         `json_check`)\n{toolchain}- scale: {}-sensor lab deployment, {} sampling rounds, {} \
         seeds per point; w = {PAPER_W}, n = {PAPER_N}, k = {PAPER_K} and a loss-free radio \
         wherever they are not swept\n- archived: {}\n\n",
        journal.path().display(),
        journal.rows().len(),
        scenario.sensor_count(),
        scenario.rounds(),
        scenario.seeds(),
        archived.join(", ")
    );
    for table in &tables {
        md.push_str(&table.render());
    }
    md.push_str(&claims(&tables));
    md.push_str(NOTES);
    md
}

/// The closing notes of `EXPERIMENTS.md`.
const NOTES: &str = "The agreement-rate floor below 1.0 is **sampling-clock window skew at \
    quiescence**, not\na protocol error: the simulator staggers node clocks across 64 slots of \
    200 µs, and in a\nhandful of seeds one node's window cutoff lands exactly on an epoch's \
    timestamps, so it\nstill holds a round its peers already evicted — a different window is a \
    different\ndetection problem, and Theorem 1 only promises agreement on a *shared* union \
    window.\nAdvancing every node to one common instant restores full agreement; the \
    divergence and\nits alignment cure are pinned by \
    `crates/bench/tests/regression_agreement.rs`. The\nserving-path fleet (`wsn-fleet`) uses \
    one common per-slide clock by construction, so the\nskew cannot occur there.\n\nTo \
    extend: add a `Figure` to `wsn_bench::campaign::FIGURES` and run\n`cargo run --release -p \
    wsn-bench --bin campaign -- <name>`: journaled cells are skipped,\nnew ones are appended \
    as the plan completes, and EXPERIMENTS.md is rewritten. Commit the\nnew journal rows with \
    it. `--quick` runs the same specs on a reduced grid in a fresh\n\
    `results/journal_quick.jsonl` and never touches the archive.\n";

/// The accuracy the paper reports "approximately 99%" of the time, less a
/// point of slack.
const PAPER_ACCURACY: f64 = 0.98;

/// A claim's verdict, indexed by whether it holds.
const VERDICT: [&str; 2] = ["**not reproduced**", "**reproduced**"];

fn floor(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Figure 4, series Centralized / Global-NN / Global-KNN.
fn global_claims(t: &Table) -> Vec<[String; 2]> {
    let (last, w0, w1) = (t.xs.len() - 1, t.xs[0], t.xs[t.xs.len() - 1]);
    let tx = |s: usize, i: usize| t.cells[s][i].avg_tx_per_node_per_round;
    let (ratio, knn) = (tx(0, last) / tx(1, last), tx(2, last) / tx(1, last));
    let (growth, nn_growth) = (tx(0, last) / tx(0, 0), tx(1, last) / tx(1, 0));
    let distributed = || t.cells[1..].iter().flatten();
    let accuracy = floor(distributed().map(|c| c.accuracy));
    let agreement = floor(distributed().map(|c| c.agreement_rate));
    vec![
        [
            "centralized TX ≫ in-network global TX".into(),
            format!("{ratio:.1}× Global-NN at w = {w1}"),
        ],
        [
            "centralized TX grows with w, global stays near-flat".into(),
            format!("centralized {growth:.2}× from w = {w0} to {w1}, Global-NN {nn_growth:.2}×"),
        ],
        [
            "KNN costs somewhat more than NN".into(),
            format!("Global-KNN/Global-NN TX = {knn:.2}× at w = {w1}"),
        ],
        [
            "distributed detection is exact (Theorem 1)".into(),
            format!(
                "min accuracy {accuracy:.3}, min agreement rate {agreement:.2} across the grid"
            ),
        ],
    ]
}

/// Figure 6, series Centralized / Global-NN / Global-KNN.
fn spread_claims(t: &Table) -> Vec<[String; 2]> {
    let max: Vec<f64> =
        t.cells.iter().map(|series| series[0].total_energy.normalized().max).collect();
    vec![[
        "centralized max ≈ 3× avg at small w, global < 2×".into(),
        format!(
            "at w = {}: centralized {:.2}×, Global-NN {:.2}×, Global-KNN {:.2}×",
            t.xs[0], max[0], max[1], max[2]
        ),
    ]]
}

/// Figures 7 and 8, series Centralized then semi-global at ascending ε.
fn semi_global_claims(t: &Table) -> Vec<[String; 2]> {
    let ranking = t.figure.series[1].ranking().label();
    let epsilon = |s: usize| t.figure.series[s].hop_diameter().unwrap_or(0);
    let tx = |s: usize, i: usize| t.cells[s][i].avg_tx_per_node_per_round;
    let semi = 1..t.cells.len();
    let grows = (0..t.xs.len()).all(|i| semi.clone().skip(1).all(|s| tx(s, i) > tx(s - 1, i)));
    let costs: Vec<String> = semi.clone().map(|s| mj(tx(s, 0))).collect();
    let epsilons: Vec<String> = semi.clone().map(|s| epsilon(s).to_string()).collect();
    let accuracy = |(s, i): (usize, usize)| t.cells[s][i].accuracy;
    let mut cells: Vec<(usize, usize)> =
        semi.flat_map(|s| (0..t.xs.len()).map(move |i| (s, i))).collect();
    cells.sort_by(|&a, &b| accuracy(a).total_cmp(&accuracy(b)));
    let (lowest, highest) = (cells[0], cells[cells.len() - 1]);
    let at = |(s, i): (usize, usize)| {
        format!("{:.3} (ε = {}, w = {})", t.cells[s][i].accuracy, epsilon(s), t.xs[i])
    };
    let mut recall: Vec<f64> = cells.iter().map(|&(s, i)| t.cells[s][i].mean_recall).collect();
    recall.sort_by(f64::total_cmp);
    vec![
        [
            format!("semi-global {ranking} cost grows with ε"),
            format!(
                "{} at every w; at w = {}, TX per node per round {} mJ at ε = {}, Centralized \
                 {} mJ",
                VERDICT[grows as usize],
                t.xs[0],
                costs.join(" / "),
                epsilons.join(" / "),
                mj(tx(0, 0))
            ),
        ],
        [
            "global and semi-global detection ≈ 99% accurate".into(),
            format!(
                "{} for semi-global {ranking}: loss-free exact accuracy {} to {}, recall {:.3} to \
                 {:.3}",
                VERDICT[(accuracy(lowest) >= PAPER_ACCURACY) as usize],
                at(lowest),
                at(highest),
                recall[0],
                recall[recall.len() - 1]
            ),
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wsn_core::persist::config_hash;

    #[test]
    fn names_are_unique_and_unknown_names_are_refused() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len());
        assert_eq!(select(&[]).unwrap().len(), 9);
        let picked = select(&["fig7".to_string(), "fig4".to_string()]).unwrap();
        assert_eq!(picked.iter().map(|f| f.name).collect::<Vec<_>>(), ["fig7", "fig4"]);
        assert_eq!(select(&["fig4".to_string(), "fig10".to_string()]).err().unwrap(), "fig10");
    }

    #[test]
    fn full_axes_are_the_papers_sweeps_and_quick_axes_are_shorter() {
        let full = |axis: Axis| axis.values(PaperScenario::Full);
        assert_eq!(full(Axis::Window), [10, 15, 20, 25, 30, 35, 40]);
        assert_eq!(full(Axis::Outliers), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(full(Axis::Sensors), [32, 53]);
        for axis in [Axis::Window, Axis::Outliers] {
            assert!(axis.values(PaperScenario::Quick).len() < full(axis).len());
        }
    }

    #[test]
    fn every_cell_validates_and_the_quick_plan_shares_cells() {
        for scenario in [PaperScenario::Quick, PaperScenario::Full] {
            for figure in &FIGURES {
                assert!(
                    figure.plan(scenario).iter().all(|c| c.validate().is_ok()),
                    "{}",
                    figure.name
                );
            }
        }
        let plan: Vec<ExperimentConfig> =
            FIGURES.iter().flat_map(|f| f.plan(PaperScenario::Quick)).collect();
        let distinct: BTreeSet<u64> = plan.iter().map(config_hash).collect();
        assert_eq!((plan.len(), distinct.len()), (86, 49));
    }

    #[test]
    fn a_section_has_one_column_per_series_and_metric() {
        let outcome = |tx: f64| AveragedOutcome {
            label: String::new(),
            seeds: 1,
            avg_tx_per_node_per_round: tx,
            avg_rx_per_node_per_round: 2.0 * tx,
            total_energy: wsn_netsim::stats::MinAvgMax { min: 0.5, avg: 1.0, max: 2.0 },
            accuracy: 1.0,
            mean_recall: 1.0,
            label_precision: 1.0,
            label_recall: 1.0,
            agreement_rate: 1.0,
            quiescence_rate: 1.0,
            avg_data_points_sent: 0.0,
            avg_packets_sent: 0.0,
            avg_traffic_imbalance: 1.0,
        };
        let figure = &FIGURES[0];
        let cells = (1..=3).map(|s| vec![outcome(0.001 * s as f64), outcome(0.01)]).collect();
        let section = Table { figure, xs: vec![10, 40], cells }.render();
        assert!(section.starts_with("## Figure 4 — "));
        assert!(section.contains(
            "| w (samples) | Centralized TX (mJ) | Centralized RX (mJ) | Global-NN TX (mJ) | \
             Global-NN RX (mJ) | Global-KNN TX (mJ) | Global-KNN RX (mJ) |\n\
             |---|---|---|---|---|---|---|\n\
             | 10 | 1.000 | 2.000 | 2.000 | 4.000 | 3.000 | 6.000 |\n"
        ));
        assert_eq!(series_label(&semi_global_knn(2)), "Semi-global-KNN ε=2");
    }
}
