//! Journaled, resumable sweep runs.
//!
//! A long sweep grid (hundreds of `(configuration, seed)` cells, each a full
//! simulation) should survive being killed. [`SweepJournal`] makes that
//! cheap: every cell's metrics are appended to a JSONL file **on
//! completion**, one row per line, fsynced before the runner moves on. A
//! re-run against the same journal skips every cell whose row is already
//! present — identified by the cell's configuration hash
//! ([`wsn_core::persist::config_hash`], which covers the seed) — and only
//! simulates the remainder.
//!
//! # Crash recovery
//!
//! A kill mid-append can leave a half-written trailing line. [`SweepJournal::open`]
//! detects it (the line does not parse as a row, or lacks its terminating
//! newline) and truncates the file back to the last complete row; the torn
//! cell simply re-runs. A malformed line *followed by* complete rows is not
//! a torn tail but real corruption, and `open` refuses the file instead of
//! silently dropping data.
//!
//! # Bit-identical aggregation
//!
//! Each row stores a run's [`CellMetrics`]: exactly the per-run scalars
//! the seed averaging consumes. Live runs are reduced to the same
//! [`CellMetrics`] before they are averaged, and [`aggregate_rows`] and
//! [`crate::sweep::run_averaged`] call one aggregation (same seed order,
//! same summation order). Because [`wsn_json`] round-trips `f64`s
//! losslessly, an average recomputed from archived rows is bit-identical
//! to the one computed from live runs — there is a test for that.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::pool;
use crate::sweep::{aggregate, seed_configs, AveragedOutcome};
use wsn_core::experiment::{run_experiment, ExperimentConfig, ExperimentOutcome};
use wsn_core::persist::{bool_field, config_hash, f64_field, field, str_field, u64_field};
use wsn_core::{CoreError, PersistError};
use wsn_json::JsonValue;

/// Rows appended to any journal this process runs.
static OBS_JOURNAL_ROWS: wsn_obs::Counter = wsn_obs::Counter::new("persist.journal_rows");
/// Cells skipped because their row was already journaled.
static OBS_CELLS_SKIPPED: wsn_obs::Counter =
    wsn_obs::Counter::new("persist.cells_skipped_on_resume");

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

    fn from_json(value: &JsonValue) -> Result<CellMetrics, PersistError> {
        Ok(CellMetrics {
            tx_per_node_per_round: f64_field(value, "tx_per_node_per_round")?,
            rx_per_node_per_round: f64_field(value, "rx_per_node_per_round")?,
            total_energy_min: f64_field(value, "total_energy_min")?,
            total_energy_avg: f64_field(value, "total_energy_avg")?,
            total_energy_max: f64_field(value, "total_energy_max")?,
            accuracy: f64_field(value, "accuracy")?,
            mean_recall: f64_field(value, "mean_recall")?,
            label_precision: f64_field(value, "label_precision")?,
            label_recall: f64_field(value, "label_recall")?,
            estimates_agree: bool_field(value, "estimates_agree")?,
            quiescent: bool_field(value, "quiescent")?,
            data_points_sent: u64_field(value, "data_points_sent")?,
            packets_sent: u64_field(value, "packets_sent")?,
            traffic_imbalance: f64_field(value, "traffic_imbalance")?,
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
    /// [`PersistError::Schema`] if a field is missing or mistyped.
    pub fn from_json(value: &JsonValue) -> Result<JournalRow, PersistError> {
        Ok(JournalRow {
            cell: u64_field(value, "cell")?,
            config_hash: u64_field(value, "config_hash")?,
            seed: u64_field(value, "seed")?,
            label: str_field(value, "label")?.to_string(),
            toolchain: Toolchain::from_json(field(value, "toolchain")?)?,
            metrics: CellMetrics::from_json(field(value, "metrics")?)?,
        })
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
    /// [`PersistError::Io`] on filesystem failure; [`PersistError::Corrupt`]
    /// if a *non-trailing* line is malformed (real corruption, not a torn
    /// append — refusing beats silently dropping completed cells).
    pub fn open(path: impl Into<PathBuf>) -> Result<SweepJournal, PersistError> {
        let path = path.into();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(PersistError::Io(format!("cannot read {}: {e}", path.display()))),
        };
        let mut rows: Vec<JournalRow> = Vec::new();
        let mut valid_end = 0usize;
        let mut offset = 0usize;
        for line in text.split_inclusive('\n') {
            let start = offset;
            offset += line.len();
            let complete = line.ends_with('\n');
            let parsed = JsonValue::parse(line.trim_end_matches('\n'))
                .ok()
                .and_then(|v| JournalRow::from_json(&v).ok());
            match parsed {
                Some(row) if complete => {
                    rows.push(row);
                    valid_end = offset;
                }
                // A bad or unterminated line is only recoverable as a torn
                // append if nothing follows it.
                _ if offset == text.len() => break,
                _ => {
                    return Err(PersistError::Corrupt(format!(
                        "{}: malformed journal row at byte {start} is not the trailing line",
                        path.display()
                    )));
                }
            }
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| PersistError::Io(format!("cannot open {}: {e}", path.display())))?;
        if valid_end < text.len() {
            file.set_len(valid_end as u64).map_err(|e| {
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
        OBS_JOURNAL_ROWS.add(1);
        self.completed.insert(row.config_hash, self.rows.len());
        self.rows.push(row);
        Ok(())
    }

    /// The journaled counterpart of [`crate::sweep::run_averaged`]: runs
    /// `config` under `seeds` seeds, skipping every cell whose row is
    /// already in this journal, journaling every cell that completes (even
    /// if a later seed fails), and averaging from the rows.
    ///
    /// The fresh cells run in parallel on the shared worker pool; rows are
    /// appended and aggregated in ascending seed order, so the result is
    /// bit-identical to [`crate::sweep::run_averaged`] on the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// The first (lowest-seed) simulation error, or [`CoreError::Persist`]
    /// if journaling a completed cell fails. Completed cells stay journaled
    /// either way — a re-run resumes from them.
    pub fn run_averaged(
        &mut self,
        config: &ExperimentConfig,
        seeds: u64,
    ) -> Result<AveragedOutcome, CoreError> {
        let mut slots: Vec<Option<JournalRow>> = Vec::new();
        let mut pending = Vec::new();
        for c in seed_configs(config, seeds) {
            let hash = config_hash(&c);
            match self.completed.get(&hash) {
                Some(&index) => {
                    OBS_CELLS_SKIPPED.add(1);
                    slots.push(Some(self.rows[index].clone()));
                }
                None => {
                    let seed = c.sim_seed;
                    let slot = slots.len();
                    slots.push(None);
                    let handle = pool::global().submit(move || run_experiment(&c));
                    pending.push((slot, hash, seed, handle));
                }
            }
        }
        // Join every in-flight cell before surfacing the first error, so a
        // panic in any seed's job resurfaces and completed cells still get
        // journaled.
        let mut first_error: Option<CoreError> = None;
        for (slot, hash, seed, handle) in pending {
            match handle.join() {
                Ok(outcome) => {
                    let row = JournalRow::of(self.next_cell(), hash, seed, &outcome);
                    self.append(row.clone())?;
                    slots[slot] = Some(row);
                }
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let rows: Vec<JournalRow> = slots.into_iter().map(Option::unwrap).collect();
        Ok(aggregate_rows(&rows))
    }
}

/// Averages journal rows (in the given order) with the aggregation
/// [`crate::sweep::run_averaged`] applies to live runs.
///
/// # Panics
///
/// Panics on an empty slice — an average of nothing is a caller bug.
pub fn aggregate_rows(rows: &[JournalRow]) -> AveragedOutcome {
    assert!(!rows.is_empty(), "cannot aggregate zero journal rows");
    let cells: Vec<CellMetrics> = rows.iter().map(|r| r.metrics.clone()).collect();
    aggregate(&rows[0].label, &cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_averaged, run_averaged_sequential};
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

    #[test]
    fn journaled_average_is_bit_identical_to_the_live_path() {
        let config = tiny();
        let path = scratch("bitident");
        let journaled = SweepJournal::open(&path).unwrap().run_averaged(&config, 3).unwrap();
        assert_eq!(journaled, run_averaged(&config, 3).unwrap());
        assert_eq!(journaled, run_averaged_sequential(&config, 3).unwrap());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_rerun_skips_journaled_cells_and_reproduces_the_result() {
        let config = tiny();
        let path = scratch("skip");
        let first = SweepJournal::open(&path).unwrap().run_averaged(&config, 3).unwrap();

        // Reopen: all three cells are on disk; the rerun runs nothing new.
        let mut journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.rows().len(), 3);
        assert!(journal.rows().windows(2).all(|w| w[0].cell < w[1].cell));
        let again = journal.run_averaged(&config, 3).unwrap();
        assert_eq!(again, first);
        assert_eq!(journal.rows().len(), 3, "a full rerun must append nothing");

        // Widening the sweep only runs the two new seeds.
        let widened = journal.run_averaged(&config, 5).unwrap();
        assert_eq!(journal.rows().len(), 5);
        assert_eq!(widened, run_averaged_sequential(&config, 5).unwrap());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rows_survive_a_round_trip_through_disk() {
        let config =
            tiny().with_algorithm(AlgorithmConfig::Centralized { ranking: RankingChoice::Nn });
        let path = scratch("roundtrip");
        let mut journal = SweepJournal::open(&path).unwrap();
        journal.run_averaged(&config, 2).unwrap();
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
        let config = tiny();
        let path = scratch("torn");
        let baseline = SweepJournal::open(&path).unwrap().run_averaged(&config, 2).unwrap();

        // Tear the last row in half, as a kill mid-append would.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 25]).unwrap();
        let mut journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.rows().len(), 1, "the torn row must be dropped");
        assert_eq!(fs::read_to_string(&path).unwrap().len(), journal.rows()[0].byte_len());

        // The rerun redoes only the torn cell and matches the baseline.
        let recovered = journal.run_averaged(&config, 2).unwrap();
        assert_eq!(recovered, baseline);
        assert_eq!(journal.rows().len(), 2);
        fs::remove_file(&path).unwrap();
    }

    impl JournalRow {
        fn byte_len(&self) -> usize {
            self.to_json().to_compact_string().len() + 1
        }
    }

    #[test]
    fn corruption_before_the_tail_is_refused() {
        let config = tiny();
        let path = scratch("midfile");
        SweepJournal::open(&path).unwrap().run_averaged(&config, 3).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"cell\":1", "\"cell\",1", 1);
        assert_ne!(corrupted, text);
        fs::write(&path, corrupted).unwrap();
        assert!(matches!(SweepJournal::open(&path), Err(PersistError::Corrupt(_))));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn errors_propagate_but_leave_the_journal_reusable() {
        let mut bad = tiny();
        bad.transmission_range_m = 0.1;
        let path = scratch("error");
        let mut journal = SweepJournal::open(&path).unwrap();
        assert!(journal.run_averaged(&bad, 2).is_err());
        let good = journal.run_averaged(&tiny(), 2).unwrap();
        assert_eq!(good, run_averaged_sequential(&tiny(), 2).unwrap());
        fs::remove_file(&path).unwrap();
    }
}
