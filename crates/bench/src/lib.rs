//! # wsn-bench
//!
//! The figure-reproduction harness for *In-Network Outlier Detection in
//! Wireless Sensor Networks* (Branch et al., ICDCS 2006).
//!
//! Every figure and table of the paper's evaluation (§7.1–7.2, §8) is one
//! spec in [`campaign`], regenerated by the `campaign` binary
//! (`campaign [--quick] [FIGURE…]`) through one pipeline:
//!
//! * [`paper`] — the experiment configurations of §7.1 (53-sensor lab
//!   deployment, 1000 s of simulated time, Crossbow energy model, the sweeps
//!   over the window size `w` and the number of reported outliers `n`),
//! * [`campaign`] — one declarative spec per figure, compiled into a plan
//!   of cells and rendered as the markdown sections of `EXPERIMENTS.md`,
//! * [`journal`] — the plan runner: every `(configuration, seed)` cell runs
//!   on the shared worker pool and is journaled to JSONL, so sweeps resume
//!   and tables regenerate from the archive alone,
//! * [`sweep`] — the seed-averaged outcome and its sequential test oracle.
//!
//! The std-only benches in `benches/` (on [`harness`]) cover the
//! pure-algorithm costs (ranking, support sets, sufficient sets, per-event
//! node processing), end-to-end simulation throughput and the fleet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod check;
pub mod fleetload;
pub mod harness;
pub mod journal;
/// The JSON value model, re-exported from its own leaf crate (`wsn-json`)
/// so the long-standing `wsn_bench::json` paths keep working. The model
/// moved below `wsn-core` in the dependency order when the persistence
/// layer ([`wsn_core::persist`]) started serializing snapshots with it.
pub use wsn_json as json;
pub mod paper;
/// The worker pool, re-exported from its own leaf crate (`wsn-pool`) so the
/// long-standing `wsn_bench::pool` paths keep working. The pool moved below
/// `wsn-netsim` in the dependency order when the partitioned simulator
/// ([`wsn_netsim::region`]) started running regions on it.
pub use wsn_pool as pool;
pub mod sweep;
pub mod telemetry;

pub use journal::{JournalRow, SweepJournal};
pub use paper::PaperScenario;
pub use pool::WorkerPool;
pub use sweep::{run_averaged_sequential, AveragedOutcome};
