//! # wsn-trace
//!
//! Import and export of sensor traces in the formats surrounding the Intel
//! Berkeley Research Lab dataset the paper evaluates on (§7.1).
//!
//! The original dataset is distributed as two whitespace-separated text
//! files:
//!
//! * `data.txt` — one reading per line:
//!   `date time epoch moteid temperature humidity light voltage`,
//!   with missing measurements simply absent from the end of the line;
//! * `mote_locs.txt` — one mote per line: `moteid x y` (metres on the lab's
//!   floor plan).
//!
//! [`intel`] parses both formats and assembles a [`wsn_data`]
//! [`DeploymentTrace`](wsn_data::stream::DeploymentTrace) — so the
//! experiments in this repository can be driven by the *real* trace when a
//! copy is available, instead of the bundled synthetic substitute. [`csv`]
//! round-trips any `DeploymentTrace` (real or synthetic) through a simple,
//! self-describing CSV so experiment inputs can be archived next to their
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod error;
pub mod intel;

pub use error::TraceError;
pub use intel::{build_trace, parse_locations, parse_readings, IntelLabReading};

/// Parses one sensor coordinate on line `line` of a trace file. `inf` and
/// `NaN` parse as `f64`, but they would put the sensor at distance ∞ or NaN
/// from every other, where it can never link, so they are refused here
/// with the line number rather than surfacing later as a disconnected
/// network.
pub(crate) fn parse_coordinate(text: &str, line: usize, axis: &str) -> Result<f64, TraceError> {
    match text.parse::<f64>() {
        Ok(value) if value.is_finite() => Ok(value),
        _ => Err(TraceError::parse(line, format!("{axis} is not a finite number: {text:?}"))),
    }
}
