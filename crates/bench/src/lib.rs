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
//! Beside it: [`check`], the validators behind the `json_check` binary
//! that CI gates the committed and emitted JSON artifacts on, and
//! [`fleetload`], the tenant workload the repository benchmark
//! (`benchmark/run.sh`) serves as its fleet workloads. Performance is
//! measured by that benchmark alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod check;
pub mod fleetload;
pub mod journal;
pub mod paper;
pub mod sweep;

pub use journal::{JournalRow, SweepJournal};
pub use paper::PaperScenario;
pub use sweep::{run_averaged_sequential, AveragedOutcome};
