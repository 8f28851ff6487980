//! Journaled, resumable sweep runs: the one path every paper cell runs
//! through.
//!
//! A long sweep grid (hundreds of `(configuration, seed)` cells, each a full
//! simulation) should survive being killed. [`SweepJournal`] makes that
//! cheap: every cell's metrics are appended to a JSONL file, one row per
//! line, fsynced before the runner moves on. A re-run against the same
//! journal skips every cell whose row is already present — identified by
//! the cell's configuration hash ([`wsn_core::persist::config_hash`], which
//! covers the seed) — and only simulates the remainder. The hash does not
//! cover the code, so a journal answers for the build that wrote it.
//!
//! # Validity and crash recovery
//!
//! One rule says what a journal is, and [`ParsedJournal::parse`] applies
//! it for both [`SweepJournal::open`] and `json_check`: every line is a
//! complete, newline-terminated row that [`JournalRow::from_json`] reads
//! (so its label is non-empty and its metrics are finite), and the cells
//! strictly increase and stay below `u64::MAX`, so the next cell exists.
//!
//! A kill mid-append can leave a half-written trailing line. A trailing
//! line that breaks the rule is such a torn tail: `open` truncates the file
//! back to the last valid row, and the torn cell simply re-runs, while
//! `json_check`, which never writes, refuses the file. A line that breaks
//! the rule *followed by* more lines is not a torn tail but real
//! corruption, and both refuse the file instead of silently dropping data.
//!
//! # Bit-identical aggregation
//!
//! Each row stores a run's [`CellMetrics`]: exactly the per-run scalars
//! the seed averaging consumes. [`SweepJournal::aggregate_plan`] and the
//! sequential oracle [`crate::sweep::run_averaged_sequential`] call one
//! aggregation (same seed order, same summation order). Because [`wsn_json`]
//! round-trips `f64`s losslessly, an average recomputed from archived rows
//! is bit-identical to the one computed from live runs — there is a test
//! for that.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::sweep::{aggregate, seed_configs, AveragedOutcome};
use wsn_core::experiment::{run_experiment, ExperimentConfig, ExperimentOutcome};
use wsn_core::persist::{bool_field, config_hash, f64_field, field, str_field, u64_field};
use wsn_core::{CoreError, PersistError};
use wsn_json::JsonValue;

/// Provenance of the binary that produced a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Toolchain {
    /// The workspace version (`CARGO_PKG_VERSION`) the row was built from.
    pub version: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl Toolchain {
    /// The provenance of the currently running binary.
    pub fn current() -> Toolchain {
        Toolchain {
            version: env!("CARGO_PKG_VERSION").to_string(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("version".into(), JsonValue::from(self.version.as_str())),
            ("os".into(), JsonValue::from(self.os.as_str())),
            ("arch".into(), JsonValue::from(self.arch.as_str())),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<Toolchain, PersistError> {
        Ok(Toolchain {
            version: str_field(value, "version")?.to_string(),
            os: str_field(value, "os")?.to_string(),
            arch: str_field(value, "arch")?.to_string(),
        })
    }
}

/// The per-run scalars the seed-averaging arithmetic consumes — one value
/// per averaged term, nothing more. Everything an
/// [`AveragedOutcome`] reports is a mean (or element-wise mean) of these.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Average transmit energy per node per sampling round, in joules.
    pub tx_per_node_per_round: f64,
    /// Average receive energy per node per sampling round, in joules.
    pub rx_per_node_per_round: f64,
    /// Minimum total per-node energy over the run, in joules.
    pub total_energy_min: f64,
    /// Average total per-node energy over the run, in joules.
    pub total_energy_avg: f64,
    /// Maximum total per-node energy over the run, in joules.
    pub total_energy_max: f64,
    /// Fraction of nodes with the exactly correct estimate.
    pub accuracy: f64,
    /// Mean per-node recall of the true outliers.
    pub mean_recall: f64,
    /// Mean per-node precision against injected labels.
    pub label_precision: f64,
    /// Mean per-node recall against injected labels.
    pub label_recall: f64,
    /// Whether every node's estimate agreed with every other node's.
    pub estimates_agree: bool,
    /// Whether the protocol reached quiescence before the deadline.
    pub quiescent: bool,
    /// Protocol data points broadcast.
    pub data_points_sent: u64,
    /// Total packets transmitted in the network.
    pub packets_sent: u64,
    /// Max-over-average radio-activity imbalance.
    pub traffic_imbalance: f64,
}

impl CellMetrics {
    /// Extracts the aggregation inputs from one finished run. The live
    /// path averages exactly these values, so a journaled row reproduces
    /// its run's contribution bit for bit.
    pub fn of(outcome: &ExperimentOutcome) -> CellMetrics {
        let energy = outcome.total_energy_summary();
        CellMetrics {
            tx_per_node_per_round: outcome.avg_tx_energy_per_node_per_round(),
            rx_per_node_per_round: outcome.avg_rx_energy_per_node_per_round(),
            total_energy_min: energy.min,
            total_energy_avg: energy.avg,
            total_energy_max: energy.max,
            accuracy: outcome.accuracy(),
            mean_recall: outcome.mean_recall(),
            label_precision: outcome.label_precision(),
            label_recall: outcome.label_recall(),
            estimates_agree: outcome.all_estimates_agree,
            quiescent: outcome.quiescent,
            data_points_sent: outcome.data_points_sent,
            packets_sent: outcome.stats.total_packets_sent(),
            traffic_imbalance: outcome.stats.traffic_imbalance(),
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("tx_per_node_per_round".into(), JsonValue::Number(self.tx_per_node_per_round)),
            ("rx_per_node_per_round".into(), JsonValue::Number(self.rx_per_node_per_round)),
            ("total_energy_min".into(), JsonValue::Number(self.total_energy_min)),
            ("total_energy_avg".into(), JsonValue::Number(self.total_energy_avg)),
            ("total_energy_max".into(), JsonValue::Number(self.total_energy_max)),
            ("accuracy".into(), JsonValue::Number(self.accuracy)),
            ("mean_recall".into(), JsonValue::Number(self.mean_recall)),
            ("label_precision".into(), JsonValue::Number(self.label_precision)),
            ("label_recall".into(), JsonValue::Number(self.label_recall)),
            ("estimates_agree".into(), JsonValue::from(self.estimates_agree)),
            ("quiescent".into(), JsonValue::from(self.quiescent)),
            ("data_points_sent".into(), JsonValue::from(self.data_points_sent)),
            ("packets_sent".into(), JsonValue::from(self.packets_sent)),
            ("traffic_imbalance".into(), JsonValue::Number(self.traffic_imbalance)),
        ])
    }

    /// Reads the metrics back; a non-finite float (`1e999` parses as
    /// infinity) would poison every average recomputed from the row.
    fn from_json(value: &JsonValue) -> Result<CellMetrics, PersistError> {
        let finite = |key: &str| match f64_field(value, key)? {
            x if x.is_finite() => Ok(x),
            x => Err(PersistError::Schema(format!("field \"{key}\" is not finite ({x})"))),
        };
        Ok(CellMetrics {
            tx_per_node_per_round: finite("tx_per_node_per_round")?,
            rx_per_node_per_round: finite("rx_per_node_per_round")?,
            total_energy_min: finite("total_energy_min")?,
            total_energy_avg: finite("total_energy_avg")?,
            total_energy_max: finite("total_energy_max")?,
            accuracy: finite("accuracy")?,
            mean_recall: finite("mean_recall")?,
            label_precision: finite("label_precision")?,
            label_recall: finite("label_recall")?,
            estimates_agree: bool_field(value, "estimates_agree")?,
            quiescent: bool_field(value, "quiescent")?,
            data_points_sent: u64_field(value, "data_points_sent")?,
            packets_sent: u64_field(value, "packets_sent")?,
            traffic_imbalance: finite("traffic_imbalance")?,
        })
    }
}

/// One journaled `(configuration, seed)` cell: which cell it was, where it
/// came from, and the metrics its run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRow {
    /// Append-order index within the journal file (strictly increasing).
    pub cell: u64,
    /// [`config_hash`] of the fully seeded configuration this cell ran.
    pub config_hash: u64,
    /// The cell's simulation seed (also folded into `config_hash`; kept
    /// explicit for human readers of the journal).
    pub seed: u64,
    /// The algorithm's plot label ("Global-NN", "Centralized", …).
    pub label: String,
    /// Provenance of the binary that ran the cell.
    pub toolchain: Toolchain,
    /// The run's aggregation inputs.
    pub metrics: CellMetrics,
}

impl JournalRow {
    /// Builds the row for one finished cell.
    pub fn of(cell: u64, hash: u64, seed: u64, outcome: &ExperimentOutcome) -> JournalRow {
        JournalRow {
            cell,
            config_hash: hash,
            seed,
            label: outcome.label.clone(),
            toolchain: Toolchain::current(),
            metrics: CellMetrics::of(outcome),
        }
    }

    /// Serializes the row as one compact JSON line (no trailing newline).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("cell".into(), JsonValue::from(self.cell)),
            ("config_hash".into(), JsonValue::from(self.config_hash)),
            ("seed".into(), JsonValue::from(self.seed)),
            ("label".into(), JsonValue::from(self.label.as_str())),
            ("toolchain".into(), self.toolchain.to_json()),
            ("metrics".into(), self.metrics.to_json()),
        ])
    }

    /// Parses a row back from its JSON form.
    ///
    /// # Errors
    ///
    /// [`PersistError::Schema`] if a field is missing or mistyped, the
    /// label is empty or a metric is not finite.
    pub fn from_json(value: &JsonValue) -> Result<JournalRow, PersistError> {
        let label = str_field(value, "label")?;
        if label.is_empty() {
            return Err(PersistError::Schema("field \"label\" is empty".into()));
        }
        Ok(JournalRow {
            cell: u64_field(value, "cell")?,
            config_hash: u64_field(value, "config_hash")?,
            seed: u64_field(value, "seed")?,
            label: label.to_string(),
            toolchain: Toolchain::from_json(field(value, "toolchain")?)?,
            metrics: CellMetrics::from_json(field(value, "metrics")?)?,
        })
    }
}

/// A journal's text read under the journal's one validity rule (see the
/// [module docs](self)): the rows of its valid prefix, and why the trailing
/// line breaks the rule, if it does.
#[derive(Debug)]
pub struct ParsedJournal {
    /// The valid rows, in file order.
    pub rows: Vec<JournalRow>,
    /// The length in bytes of the valid prefix, which ends just past the
    /// last valid row's newline.
    pub valid_len: usize,
    /// Why the trailing line is not a valid row: a torn append.
    pub torn_tail: Option<String>,
}

impl ParsedJournal {
    /// Reads journal text; pure, it touches no file.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] if a line other than the last breaks the
    /// rule.
    pub fn parse(text: &str) -> Result<ParsedJournal, PersistError> {
        let mut rows: Vec<JournalRow> = Vec::new();
        let mut valid_len = 0;
        for line in text.split_inclusive('\n') {
            let previous = rows.last().map(|r| r.cell);
            match Self::row(line, previous) {
                Ok(row) => {
                    rows.push(row);
                    valid_len += line.len();
                }
                Err(why) if valid_len + line.len() == text.len() => {
                    return Ok(ParsedJournal { rows, valid_len, torn_tail: Some(why) });
                }
                Err(why) => {
                    return Err(PersistError::Corrupt(format!(
                        "journal line {} (byte {valid_len}) is not the trailing line and \
                         not a valid row: {why}",
                        rows.len() + 1
                    )));
                }
            }
        }
        Ok(ParsedJournal { rows, valid_len, torn_tail: None })
    }

    /// One line under the rule, given the cell of the row before it.
    fn row(line: &str, previous: Option<u64>) -> Result<JournalRow, String> {
        let body = line.strip_suffix('\n').ok_or("it has no terminating newline")?;
        let value = JsonValue::parse(body).map_err(|e| e.to_string())?;
        let row = JournalRow::from_json(&value).map_err(|e| e.to_string())?;
        if row.cell == u64::MAX {
            return Err("its cell is u64::MAX, which leaves no next cell".into());
        }
        if let Some(previous) = previous.filter(|&p| row.cell <= p) {
            return Err(format!("its cell {} does not follow cell {previous}", row.cell));
        }
        Ok(row)
    }
}

/// An append-only JSONL archive of completed sweep cells, opened for
/// resumable running. See the [module docs](self) for the format and the
/// recovery rules.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    file: fs::File,
    rows: Vec<JournalRow>,
    completed: BTreeMap<u64, usize>,
}

impl SweepJournal {
    /// Opens (creating if absent) the journal at `path`, recovering from a
    /// torn trailing row by truncating it.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure, or if the file is not
    /// UTF-8; [`PersistError::Corrupt`] if a *non-trailing* line breaks the
    /// rule (real corruption, not a torn append — refusing beats silently
    /// dropping completed cells).
    pub fn open(path: impl Into<PathBuf>) -> Result<SweepJournal, PersistError> {
        let path = path.into();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(PersistError::Io(format!("cannot read {}: {e}", path.display()))),
        };
        let ParsedJournal { rows, valid_len, .. } =
            ParsedJournal::parse(&text).map_err(|e| match e {
                PersistError::Corrupt(why) => {
                    PersistError::Corrupt(format!("{}: {why}", path.display()))
                }
                other => other,
            })?;
        let file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| PersistError::Io(format!("cannot open {}: {e}", path.display())))?;
        if valid_len < text.len() {
            file.set_len(valid_len as u64).map_err(|e| {
                PersistError::Io(format!("cannot truncate torn row in {}: {e}", path.display()))
            })?;
        }
        let completed = rows.iter().enumerate().map(|(i, r)| (r.config_hash, i)).collect();
        Ok(SweepJournal { path, file, rows, completed })
    }

    /// The journal's location on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Every completed row, in file (= append) order.
    pub fn rows(&self) -> &[JournalRow] {
        &self.rows
    }

    /// Whether a cell with this configuration hash already completed.
    pub fn contains(&self, hash: u64) -> bool {
        self.completed.contains_key(&hash)
    }

    /// The `cell` index the next append will carry.
    pub fn next_cell(&self) -> u64 {
        self.rows.last().map_or(0, |r| r.cell + 1)
    }

    /// Appends one completed row durably: the line is written, flushed and
    /// fsynced before this returns, so a kill immediately after cannot lose
    /// the cell.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the write or fsync fails.
    pub fn append(&mut self, row: JournalRow) -> Result<(), PersistError> {
        let mut line = row.to_json().to_compact_string();
        line.push('\n');
        self.file.write_all(line.as_bytes()).and_then(|()| self.file.sync_data()).map_err(|e| {
            PersistError::Io(format!("cannot append to {}: {e}", self.path.display()))
        })?;
        self.completed.insert(row.config_hash, self.rows.len());
        self.rows.push(row);
        Ok(())
    }

    /// Runs a plan of seed-averaged cells: every entry of `plan` under
    /// `seeds` seeds (see [`seed_configs`]), returning one
    /// [`AveragedOutcome`] per entry, in plan order, aggregated from this
    /// journal's rows.
    ///
    /// Every configuration is validated before anything is submitted.
    /// Cells are deduplicated by [`config_hash`], so entries that figures
    /// share run once, and every cell already journaled is skipped. Every
    /// fresh cell is submitted to the shared worker pool before the first
    /// is joined. The handles are then joined in plan order and each
    /// completed cell is appended as it is joined, so a killed run keeps
    /// every row before the kill; a failed cell does not stop the joins,
    /// and a failed append stops only further appends (a torn row must
    /// stay the trailing line). Every handle is joined before any error is
    /// returned, so a panic in any job resurfaces here and no job outlives
    /// the call.
    ///
    /// # Errors
    ///
    /// The first invalid configuration (nothing runs), else the first
    /// failed cell or [`CoreError::Persist`] append in plan order.
    pub fn run_plan(
        &mut self,
        plan: &[ExperimentConfig],
        seeds: u64,
    ) -> Result<Vec<AveragedOutcome>, CoreError> {
        plan.iter().try_for_each(ExperimentConfig::validate)?;
        let mut submitted = BTreeSet::new();
        let mut pending = Vec::new();
        for config in plan.iter().flat_map(|config| seed_configs(config, seeds)) {
            let hash = config_hash(&config);
            if !self.contains(hash) && submitted.insert(hash) {
                let seed = config.sim_seed;
                let handle = wsn_pool::global().submit(move || run_experiment(&config));
                pending.push((hash, seed, handle));
            }
        }
        let mut first_error: Option<CoreError> = None;
        let mut journaling = true;
        for (hash, seed, handle) in pending {
            let result = match handle.join() {
                Ok(outcome) if journaling => {
                    let row = JournalRow::of(self.next_cell(), hash, seed, &outcome);
                    let appended = self.append(row).map_err(CoreError::from);
                    journaling = appended.is_ok();
                    appended
                }
                Ok(_) => Ok(()),
                Err(e) => Err(e),
            };
            first_error = first_error.or(result.err());
        }
        match first_error {
            Some(e) => Err(e),
            None => {
                Ok(self.aggregate_plan(plan, seeds).expect("every cell of the plan is journaled"))
            }
        }
    }

    /// The seed-averaged outcome of every entry of `plan` under `seeds`
    /// seeds, aggregated from this journal's rows alone, in plan order;
    /// `None` if any cell is not journaled.
    pub fn aggregate_plan(
        &self,
        plan: &[ExperimentConfig],
        seeds: u64,
    ) -> Option<Vec<AveragedOutcome>> {
        plan.iter()
            .map(|config| {
                let rows: Option<Vec<&JournalRow>> = seed_configs(config, seeds)
                    .iter()
                    .map(|c| self.completed.get(&config_hash(c)).map(|&i| &self.rows[i]))
                    .collect();
                let rows = rows?;
                let metrics: Vec<CellMetrics> = rows.iter().map(|r| r.metrics.clone()).collect();
                Some(aggregate(&rows[0].label, &metrics))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_text;
    use crate::sweep::run_averaged_sequential;
    use wsn_core::experiment::{AlgorithmConfig, RankingChoice};

    fn tiny() -> ExperimentConfig {
        let mut c = ExperimentConfig::small();
        c.trace.rounds = 4;
        c
    }

    fn scratch(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("wsn-journal-{tag}-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    fn hashes(journal: &SweepJournal) -> Vec<u64> {
        journal.rows().iter().map(|r| r.config_hash).collect()
    }

    /// The three series kinds, with Global-NN shared by two "figures".
    fn shared_plan() -> Vec<ExperimentConfig> {
        let global = tiny();
        let semi = tiny().with_algorithm(AlgorithmConfig::SemiGlobal {
            ranking: RankingChoice::Nn,
            hop_diameter: 2,
        });
        let centralized =
            tiny().with_algorithm(AlgorithmConfig::Centralized { ranking: RankingChoice::Nn });
        vec![global.clone(), semi, centralized, global]
    }

    #[test]
    fn a_plan_equals_the_sequential_oracle_and_runs_shared_cells_once() {
        let plan = shared_plan();
        let path = scratch("plan");
        let mut journal = SweepJournal::open(&path).unwrap();
        let outcomes = journal.run_plan(&plan, 3).unwrap();
        // Same seeds, same aggregation order: every field, the
        // floating-point energy averages included, matches bit for bit, in
        // plan order.
        assert_eq!(outcomes.len(), plan.len());
        for (outcome, config) in outcomes.iter().zip(&plan) {
            assert_eq!(*outcome, run_averaged_sequential(config, 3).unwrap());
        }
        assert_eq!(journal.rows().len(), 3 * 3, "the shared Global-NN cells ran once");
        let distinct: BTreeSet<u64> = hashes(&journal).into_iter().collect();
        assert_eq!(distinct.len(), 9);
        // Centralized shares the interface: no protocol data points.
        assert_eq!(outcomes[2].label, "Centralized");
        assert_eq!(outcomes[2].avg_data_points_sent, 0.0);
        assert!(outcomes[0].avg_data_points_sent > 0.0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_rerun_after_truncation_simulates_exactly_the_lost_cells() {
        let plan = shared_plan();
        let path = scratch("truncate");
        let first = SweepJournal::open(&path).unwrap().run_plan(&plan, 2).unwrap();
        let complete = SweepJournal::open(&path).unwrap();
        let all = hashes(&complete);
        drop(complete);
        let k = 4;
        let text = fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(all.len() - k).collect();
        fs::write(&path, kept.join("\n") + "\n").unwrap();

        let mut journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.rows().len(), all.len() - k);
        assert_eq!(journal.run_plan(&plan, 2).unwrap(), first);
        assert_eq!(hashes(&journal), all, "exactly the {k} truncated cells re-ran, in plan order");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failing_cell_errors_after_every_good_cell_is_joined_and_journaled() {
        let mut bad = tiny().with_n(3);
        bad.transmission_range_m = 0.1; // valid, but the deployment is disconnected
        let good = [tiny(), tiny().with_n(1)];
        let path = scratch("error");
        let mut journal = SweepJournal::open(&path).unwrap();
        assert!(journal.run_plan(&[good[0].clone(), bad, good[1].clone()], 2).is_err());
        assert_eq!(journal.rows().len(), 4, "both good cells are journaled, seed by seed");

        let reopened = SweepJournal::open(&path).unwrap().run_plan(&good, 2).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap().lines().count(),
            4,
            "a re-run appends nothing"
        );
        for (outcome, config) in reopened.iter().zip(&good) {
            assert_eq!(*outcome, run_averaged_sequential(config, 2).unwrap());
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_invalid_configuration_fails_the_plan_before_anything_runs() {
        let path = scratch("invalid");
        let mut journal = SweepJournal::open(&path).unwrap();
        let invalid = tiny().with_n(0);
        assert!(matches!(
            journal.run_plan(&[tiny(), invalid], 2),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(journal.rows().is_empty());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_rerun_skips_journaled_cells_and_reproduces_the_result() {
        let config = [tiny()];
        let path = scratch("skip");
        let first = SweepJournal::open(&path).unwrap().run_plan(&config, 3).unwrap();

        // Reopen: all three cells are on disk; the rerun runs nothing new.
        let mut journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.rows().len(), 3);
        assert!(journal.rows().windows(2).all(|w| w[0].cell < w[1].cell));
        let again = journal.run_plan(&config, 3).unwrap();
        assert_eq!(again, first);
        assert_eq!(journal.rows().len(), 3, "a full rerun must append nothing");

        // Widening the sweep only runs the two new seeds.
        let widened = journal.run_plan(&config, 5).unwrap();
        assert_eq!(journal.rows().len(), 5);
        assert_eq!(widened[0], run_averaged_sequential(&config[0], 5).unwrap());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rows_survive_a_round_trip_through_disk() {
        let config =
            tiny().with_algorithm(AlgorithmConfig::Centralized { ranking: RankingChoice::Nn });
        let path = scratch("roundtrip");
        let mut journal = SweepJournal::open(&path).unwrap();
        journal.run_plan(&[config], 2).unwrap();
        let written = journal.rows().to_vec();
        drop(journal);
        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.rows(), written.as_slice());
        assert_eq!(written[0].toolchain, Toolchain::current());
        assert_eq!(written[0].label, "Centralized");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_trailing_row_is_truncated_and_rerun() {
        let config = [tiny()];
        let path = scratch("torn");
        let baseline = SweepJournal::open(&path).unwrap().run_plan(&config, 2).unwrap();

        // Tear the last row in half, as a kill mid-append would.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 25]).unwrap();
        let mut journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.rows().len(), 1, "the torn row must be dropped");
        assert_eq!(fs::read_to_string(&path).unwrap().len(), journal.rows()[0].byte_len());

        // The rerun redoes only the torn cell and matches the baseline.
        let recovered = journal.run_plan(&config, 2).unwrap();
        assert_eq!(recovered, baseline);
        assert_eq!(journal.rows().len(), 2);
        fs::remove_file(&path).unwrap();
    }

    impl JournalRow {
        fn byte_len(&self) -> usize {
            self.to_json().to_compact_string().len() + 1
        }
    }

    /// A valid row at `cell`, every field filled.
    fn row(cell: u64) -> JournalRow {
        JournalRow {
            cell,
            config_hash: cell.wrapping_add(1_000),
            seed: cell,
            label: "Global-NN".into(),
            toolchain: Toolchain::current(),
            metrics: CellMetrics {
                tx_per_node_per_round: 0.5,
                rx_per_node_per_round: 0.25,
                total_energy_min: 1.0,
                total_energy_avg: 1.5,
                total_energy_max: 2.0,
                accuracy: 1.0,
                mean_recall: 1.0,
                label_precision: 1.0,
                label_recall: 0.5,
                estimates_agree: true,
                quiescent: true,
                data_points_sent: 10,
                packets_sent: 20,
                traffic_imbalance: 1.25,
            },
        }
    }

    fn line(cell: u64) -> String {
        row(cell).to_json().to_compact_string() + "\n"
    }

    /// Writes `text` as a journal and opens it; returns `open`'s outcome,
    /// the file as `open` left it, and `json_check`'s verdict on `text`.
    fn open_and_check(
        tag: &str,
        text: &str,
    ) -> (Result<SweepJournal, PersistError>, String, Result<String, String>) {
        let path = scratch(tag);
        fs::write(&path, text).unwrap();
        let opened = SweepJournal::open(&path);
        let left = fs::read_to_string(&path).unwrap();
        fs::remove_file(&path).unwrap();
        (opened, left, check_text("j.jsonl", text))
    }

    #[test]
    fn a_last_cell_of_u64_max_is_a_torn_tail_and_the_next_plan_appends() {
        let text = line(0) + &line(u64::MAX);
        let refusal = check_text("j.jsonl", &text).unwrap_err();
        assert!(refusal.contains("torn tail") && refusal.contains("u64::MAX"), "{refusal}");

        let path = scratch("cellmax");
        fs::write(&path, &text).unwrap();
        let mut journal = SweepJournal::open(&path).unwrap();
        assert_eq!((journal.rows().len(), journal.next_cell()), (1, 1));
        journal.run_plan(&[tiny()], 1).unwrap();
        assert_eq!(journal.rows().last().unwrap().cell, 1);
        check_text("j.jsonl", &fs::read_to_string(&path).unwrap()).unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_decreasing_cell_is_refused_and_never_numbers_the_next_row() {
        let (opened, left, checked) = open_and_check("decreasing", &(line(5) + &line(3)));
        assert!(checked.unwrap_err().contains("its cell 3 does not follow cell 5"));
        let journal = opened.unwrap();
        assert_eq!((journal.rows().len(), journal.next_cell()), (1, 6));
        assert_eq!(left, line(5), "the torn tail is truncated");

        let (opened, _, checked) =
            open_and_check("decreasing-mid", &(line(5) + &line(3) + &line(7)));
        assert!(matches!(opened, Err(PersistError::Corrupt(_))));
        assert!(checked.unwrap_err().contains("not the trailing line"));
    }

    #[test]
    fn a_blank_line_between_rows_is_refused_by_both() {
        let (opened, left, checked) = open_and_check("blank", &(line(0) + "\n" + &line(1)));
        assert!(matches!(opened, Err(PersistError::Corrupt(_))));
        assert_eq!(left, line(0) + "\n" + &line(1), "a refused journal is not touched");
        assert!(checked.unwrap_err().contains("journal line 2"));
    }

    #[test]
    fn a_row_missing_its_toolchain_and_metrics_is_refused_by_both() {
        let partial = |cell: u64| {
            format!(
                r#"{{"cell":{cell},"config_hash":{cell},"seed":1,"label":"Global-NN","metrics":{{"accuracy":1.0}}}}"#
            ) + "\n"
        };
        let (opened, _, checked) = open_and_check("partial", &(partial(0) + &partial(1)));
        assert!(matches!(opened, Err(PersistError::Corrupt(_))));
        assert!(checked.unwrap_err().contains("toolchain"));
    }

    #[test]
    fn an_infinite_metric_is_refused_by_both() {
        let infinite = line(0).replace(r#""accuracy":1.0"#, r#""accuracy":1e999"#);
        assert_ne!(infinite, line(0));
        let (opened, _, checked) = open_and_check("infinite", &(infinite + &line(1)));
        assert!(matches!(opened, Err(PersistError::Corrupt(_))));
        assert!(checked.unwrap_err().contains("not finite"));
    }

    #[test]
    fn an_unterminated_last_row_is_a_torn_tail_for_both() {
        let text = line(0) + line(1).trim_end();
        let (opened, left, checked) = open_and_check("unterminated", &text);
        assert!(checked.unwrap_err().contains("no terminating newline"));
        assert_eq!(opened.unwrap().rows(), &[row(0)]);
        assert_eq!(left, line(0), "open truncates the torn tail");
        check_text("j.jsonl", &left).unwrap();
    }

    #[test]
    fn corruption_before_the_tail_is_refused() {
        let path = scratch("midfile");
        SweepJournal::open(&path).unwrap().run_plan(&[tiny()], 3).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"cell\":1", "\"cell\",1", 1);
        assert_ne!(corrupted, text);
        fs::write(&path, corrupted).unwrap();
        assert!(matches!(SweepJournal::open(&path), Err(PersistError::Corrupt(_))));
        fs::remove_file(&path).unwrap();
    }
}
