//! Parsing of the Intel Berkeley Research Lab dataset format.
//!
//! The dataset (the one the paper's evaluation uses) consists of a readings
//! file and a mote-locations file; both are plain whitespace-separated text.
//! Readings may be truncated (a mote that failed to report humidity, light
//! and voltage simply has a shorter line) and epochs may be missing entirely
//! for some motes — both situations are preserved as *missing* readings so
//! that the imputation step of §7.1 can fill them in downstream.

use std::collections::BTreeMap;
use std::path::Path;

use crate::error::TraceError;
use crate::parse_coordinate;
use wsn_data::stream::{DeploymentTrace, SensorReading, SensorSpec, SensorStream};
use wsn_data::{Epoch, Position, SensorId, Timestamp};

/// File name of the readings file within an Intel-lab dataset directory.
pub const READINGS_FILE: &str = "data.txt";

/// File name of the mote-locations file within an Intel-lab dataset
/// directory.
pub const LOCATIONS_FILE: &str = "mote_locs.txt";

/// One line of the Intel-lab readings file.
#[derive(Debug, Clone, PartialEq)]
pub struct IntelLabReading {
    /// Calendar date of the reading (kept verbatim, e.g. `2004-03-10`).
    pub date: String,
    /// Wall-clock time of the reading (kept verbatim, e.g. `03:06:33.5`).
    pub time: String,
    /// Epoch: the dataset's global sampling-round counter.
    pub epoch: u64,
    /// Identifier of the reporting mote.
    pub mote_id: u32,
    /// Temperature in °C, if reported.
    pub temperature: Option<f64>,
    /// Relative humidity in %, if reported.
    pub humidity: Option<f64>,
    /// Light level in lux, if reported.
    pub light: Option<f64>,
    /// Battery voltage in volts, if reported.
    pub voltage: Option<f64>,
}

fn parse_optional_number(
    field: Option<&str>,
    line: usize,
    name: &str,
) -> Result<Option<f64>, TraceError> {
    match field {
        None | Some("") => Ok(None),
        Some(text) => {
            let value: f64 = text.parse().map_err(|_| {
                TraceError::parse(line, format!("{name} is not a number: {text:?}"))
            })?;
            if value.is_finite() {
                Ok(Some(value))
            } else {
                Ok(None) // NaN/inf in the raw data are treated as missing
            }
        }
    }
}

/// Parses the whole readings file (the dataset's `data.txt`). Blank lines and
/// lines starting with `#` are skipped.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] with the offending 1-based line number when
/// a line has fewer than four fields or a field that should be numeric is
/// not.
pub fn parse_readings(text: &str) -> Result<Vec<IntelLabReading>, TraceError> {
    let mut readings = Vec::new();
    for (index, raw_line) in text.lines().enumerate() {
        let line_number = index + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 4 {
            return Err(TraceError::parse(
                line_number,
                format!(
                    "expected at least 4 fields (date time epoch moteid), found {}",
                    fields.len()
                ),
            ));
        }
        let epoch: u64 = fields[2].parse().map_err(|_| {
            TraceError::parse(line_number, format!("epoch is not an integer: {:?}", fields[2]))
        })?;
        let mote_id: u32 = fields[3].parse().map_err(|_| {
            TraceError::parse(line_number, format!("mote id is not an integer: {:?}", fields[3]))
        })?;
        readings.push(IntelLabReading {
            date: fields[0].to_string(),
            time: fields[1].to_string(),
            epoch,
            mote_id,
            temperature: parse_optional_number(fields.get(4).copied(), line_number, "temperature")?,
            humidity: parse_optional_number(fields.get(5).copied(), line_number, "humidity")?,
            light: parse_optional_number(fields.get(6).copied(), line_number, "light")?,
            voltage: parse_optional_number(fields.get(7).copied(), line_number, "voltage")?,
        });
    }
    Ok(readings)
}

/// Parses the mote-locations file (the dataset's `mote_locs.txt`): one
/// `moteid x y` triple per line.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] for malformed lines, including a
/// coordinate that is not a finite number, and [`TraceError::Invalid`] if
/// the same mote appears twice.
pub fn parse_locations(text: &str) -> Result<Vec<(SensorId, Position)>, TraceError> {
    let mut locations: Vec<(SensorId, Position)> = Vec::new();
    for (index, raw_line) in text.lines().enumerate() {
        let line_number = index + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 3 {
            return Err(TraceError::parse(
                line_number,
                format!("expected `moteid x y`, found {} fields", fields.len()),
            ));
        }
        let mote: u32 = fields[0].parse().map_err(|_| {
            TraceError::parse(line_number, format!("mote id is not an integer: {:?}", fields[0]))
        })?;
        let x = parse_coordinate(fields[1], line_number, "x")?;
        let y = parse_coordinate(fields[2], line_number, "y")?;
        if locations.iter().any(|(id, _)| *id == SensorId(mote)) {
            return Err(TraceError::Invalid(format!(
                "mote {mote} appears twice in the locations file"
            )));
        }
        locations.push((SensorId(mote), Position::new(x, y)));
    }
    Ok(locations)
}

/// Assembles a [`DeploymentTrace`] from parsed readings and locations.
///
/// * Only motes present in `locations` contribute streams (the dataset
///   contains a few readings from unknown motes, which are dropped).
/// * Epochs are normalised so the earliest epoch across all kept readings
///   becomes round 0; every stream then has one slot per round up to the
///   latest epoch, with slots no mote reported marked as missing.
/// * The reading's temperature is the value the outlier algorithms consume
///   (matching §7.1); other measurements are ignored here.
///
/// # Errors
///
/// Returns [`TraceError::Invalid`] if no location or no usable reading
/// exists, or if `sample_interval_secs` is not positive.
pub fn build_trace(
    readings: &[IntelLabReading],
    locations: &[(SensorId, Position)],
    sample_interval_secs: f64,
) -> Result<DeploymentTrace, TraceError> {
    if locations.is_empty() {
        return Err(TraceError::Invalid("no mote locations were provided".into()));
    }
    let kept: Vec<&IntelLabReading> =
        readings.iter().filter(|r| locations.iter().any(|(id, _)| id.raw() == r.mote_id)).collect();
    if kept.is_empty() {
        return Err(TraceError::Invalid(
            "no reading belongs to a mote with a known location".into(),
        ));
    }
    let first_epoch = kept.iter().map(|r| r.epoch).min().expect("kept is non-empty");
    let last_epoch = kept.iter().map(|r| r.epoch).max().expect("kept is non-empty");
    let rounds = (last_epoch - first_epoch + 1) as usize;

    // Latest temperature reported by each mote for each normalised round.
    let mut by_mote: BTreeMap<SensorId, BTreeMap<usize, Option<f64>>> = BTreeMap::new();
    for reading in &kept {
        let round = (reading.epoch - first_epoch) as usize;
        by_mote.entry(SensorId(reading.mote_id)).or_default().insert(round, reading.temperature);
    }

    let mut trace = DeploymentTrace::new(sample_interval_secs)?;
    for &(id, position) in locations {
        let mut stream = SensorStream::new(SensorSpec::new(id, position));
        let rounds_for_mote = by_mote.get(&id);
        for round in 0..rounds {
            let epoch = Epoch(round as u64);
            let timestamp = Timestamp::from_secs_f64(round as f64 * sample_interval_secs);
            let value = rounds_for_mote.and_then(|m| m.get(&round).copied()).flatten();
            stream.readings.push(match value {
                Some(v) => SensorReading::present(epoch, timestamp, v),
                None => SensorReading::missing(epoch, timestamp),
            });
        }
        trace.streams.push(stream);
    }
    Ok(trace)
}

/// Loads the Intel-lab dataset from a directory containing
/// [`READINGS_FILE`] and [`LOCATIONS_FILE`], if both are present.
///
/// The dataset is not redistributable with this repository, so its absence
/// is the *normal* case: this returns `Ok(None)` (rather than an error) when
/// either file is missing, letting examples and experiment drivers skip with
/// a message instead of panicking or bubbling an `Err`. A directory that
/// *does* carry both files but fails to parse is a real error and is
/// reported as one.
///
/// # Errors
///
/// Returns [`TraceError::Invalid`] if a present file cannot be read, and
/// propagates parse/assembly errors from [`parse_readings`],
/// [`parse_locations`] and [`build_trace`].
pub fn try_load_dir(
    dir: impl AsRef<Path>,
    sample_interval_secs: f64,
) -> Result<Option<DeploymentTrace>, TraceError> {
    let dir = dir.as_ref();
    let readings_path = dir.join(READINGS_FILE);
    let locations_path = dir.join(LOCATIONS_FILE);
    if !readings_path.is_file() || !locations_path.is_file() {
        return Ok(None);
    }
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| TraceError::Invalid(format!("cannot read {}: {e}", path.display())))
    };
    let readings = parse_readings(&read(&readings_path)?)?;
    let locations = parse_locations(&read(&locations_path)?)?;
    build_trace(&readings, &locations, sample_interval_secs).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    const READINGS: &str = "\
2004-03-10 03:06:33.5 2 1 19.98 37.09 45.08 2.69
2004-03-10 03:06:35.1 2 2 20.10 36.80 45.08 2.68

# a comment line
2004-03-10 03:07:03.5 3 1 19.99 37.10 45.08 2.69
2004-03-10 03:07:04.0 3 2
2004-03-10 03:07:33.5 4 1 20.02 37.12 45.08 2.69
2004-03-10 03:07:35.0 4 99 55.00 1.0 1.0 2.0
";

    const LOCATIONS: &str = "\
1 21.5 23.0
2 24.5 20.0
# 99 is intentionally absent
";

    #[test]
    fn readings_parse_including_truncated_lines() {
        let readings = parse_readings(READINGS).unwrap();
        assert_eq!(readings.len(), 6);
        assert_eq!(readings[0].mote_id, 1);
        assert_eq!(readings[0].epoch, 2);
        assert_eq!(readings[0].temperature, Some(19.98));
        assert_eq!(readings[0].voltage, Some(2.69));
        // The truncated line keeps its identity but has no measurements.
        let truncated = &readings[3];
        assert_eq!(truncated.mote_id, 2);
        assert_eq!(truncated.temperature, None);
        assert_eq!(truncated.light, None);
    }

    #[test]
    fn malformed_readings_report_the_line_number() {
        let err = parse_readings("2004-03-10 03:06:33.5 two 1 19.98").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err:?}");
        let err = parse_readings("2004-03-10 03:06:33.5 2\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = parse_readings("2004-03-10 03:06:33.5 2 1 hot").unwrap_err();
        assert!(err.to_string().contains("temperature"));
    }

    #[test]
    fn locations_parse_and_reject_duplicates() {
        let locations = parse_locations(LOCATIONS).unwrap();
        assert_eq!(locations.len(), 2);
        assert_eq!(locations[0].0, SensorId(1));
        assert!((locations[1].1.x - 24.5).abs() < 1e-12);

        assert!(parse_locations("1 2.0").is_err());
        assert!(parse_locations("1 a 3.0").is_err());
        let non_finite = parse_locations("1 inf 2.0\n2 NaN 1\n");
        assert!(matches!(non_finite, Err(TraceError::Parse { line: 1, .. })));
        let late = parse_locations("1 1.0 2.0\n2 NaN 1\n3 0 -inf\n");
        assert!(matches!(late, Err(TraceError::Parse { line: 2, .. })));
        let negative = parse_locations("# header\n1 0 -inf\n");
        assert!(matches!(negative, Err(TraceError::Parse { line: 2, .. })));
        let duplicated = "1 1.0 1.0\n1 2.0 2.0";
        assert!(matches!(parse_locations(duplicated), Err(TraceError::Invalid(_))));
    }

    #[test]
    fn trace_assembly_normalises_epochs_and_marks_gaps() {
        let readings = parse_readings(READINGS).unwrap();
        let locations = parse_locations(LOCATIONS).unwrap();
        let trace = build_trace(&readings, &locations, 31.0).unwrap();
        assert_eq!(trace.sensor_count(), 2);
        // Epochs 2..=4 normalise to rounds 0..=2.
        assert_eq!(trace.round_count(), 3);
        let mote1 = trace.stream(SensorId(1)).unwrap();
        assert!(mote1.readings.iter().all(|r| !r.is_missing()));
        let mote2 = trace.stream(SensorId(2)).unwrap();
        // Mote 2's epoch-3 line was truncated and epoch 4 is absent entirely.
        assert!(!mote2.readings[0].is_missing());
        assert!(mote2.readings[1].is_missing());
        assert!(mote2.readings[2].is_missing());
        // The unknown mote 99 contributed nothing.
        assert!(trace.stream(SensorId(99)).is_err());
        // Timestamps follow the sampling interval.
        assert_eq!(mote1.readings[2].timestamp, Timestamp::from_secs_f64(62.0));
    }

    #[test]
    fn trace_assembly_validates_inputs() {
        let readings = parse_readings(READINGS).unwrap();
        let locations = parse_locations(LOCATIONS).unwrap();
        assert!(matches!(build_trace(&readings, &[], 31.0), Err(TraceError::Invalid(_))));
        let strangers = vec![(SensorId(7), Position::new(0.0, 0.0))];
        assert!(matches!(build_trace(&readings, &strangers, 31.0), Err(TraceError::Invalid(_))));
        assert!(build_trace(&readings, &locations, 0.0).is_err());
    }

    #[test]
    fn non_finite_measurements_are_treated_as_missing() {
        let readings = parse_readings("2004-03-10 03:06:33.5 2 1 NaN 37.0 45.0 2.6").unwrap();
        assert_eq!(readings[0].temperature, None);
        assert_eq!(readings[0].humidity, Some(37.0));
    }
}
