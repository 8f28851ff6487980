//! CSV round-tripping of deployment traces.
//!
//! Experiments are only reproducible if their inputs can be archived next to
//! their results. This module serialises any
//! [`DeploymentTrace`] — whether imported
//! from the real Intel-lab files or produced by the synthetic generator — to
//! a small, self-describing CSV, and reads it back losslessly (sensor
//! positions, sampling interval, per-round values, missing readings and the
//! injected-anomaly flags all survive the round trip).
//!
//! Format, one record per line:
//!
//! ```text
//! # wsn-trace v1, interval=<seconds>
//! sensor,x,y,epoch,timestamp_micros,value,anomaly
//! 7,21.5,23.0,0,0,19.98,0
//! 7,21.5,23.0,1,31000000,,0          <- empty value = missing reading
//! ```

use crate::error::TraceError;
use wsn_data::stream::{DeploymentTrace, SensorReading, SensorSpec, SensorStream};
use wsn_data::{Epoch, Position, SensorId, Timestamp};

const HEADER_PREFIX: &str = "# wsn-trace v1, interval=";
const COLUMNS: &str = "sensor,x,y,epoch,timestamp_micros,value,anomaly";

/// Serialises a trace to the CSV format described in the module docs.
pub fn write_trace(trace: &DeploymentTrace) -> String {
    let mut out = String::new();
    out.push_str(HEADER_PREFIX);
    out.push_str(&format!("{}\n", trace.sample_interval_secs));
    out.push_str(COLUMNS);
    out.push('\n');
    for stream in &trace.streams {
        for reading in &stream.readings {
            let value = match reading.value {
                Some(v) => format!("{v}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                stream.spec.id.raw(),
                stream.spec.position.x,
                stream.spec.position.y,
                reading.epoch.raw(),
                reading.timestamp.as_micros(),
                value,
                u8::from(reading.injected_anomaly),
            ));
        }
    }
    out
}

/// Parses a trace previously produced by [`write_trace`].
///
/// # Errors
///
/// Returns [`TraceError::Parse`] (with the offending line) for malformed
/// headers or records, and [`TraceError::Invalid`] if the same
/// `(sensor, epoch)` pair appears twice or a sensor's position is
/// inconsistent between its records.
pub fn read_trace(text: &str) -> Result<DeploymentTrace, TraceError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| TraceError::Invalid("empty input".into()))?;
    let interval: f64 = header
        .strip_prefix(HEADER_PREFIX)
        .ok_or_else(|| {
            TraceError::parse(1, format!("expected header starting with {HEADER_PREFIX:?}"))
        })?
        .trim()
        .parse()
        .map_err(|_| TraceError::parse(1, "interval is not a number"))?;
    let (_, columns) =
        lines.next().ok_or_else(|| TraceError::Invalid("missing column header".into()))?;
    if columns.trim() != COLUMNS {
        return Err(TraceError::parse(2, format!("expected column header {COLUMNS:?}")));
    }

    let mut trace = DeploymentTrace::new(interval)?;
    for (index, raw_line) in lines {
        let line_number = index + 1;
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(TraceError::parse(
                line_number,
                format!("expected 7 comma-separated fields, found {}", fields.len()),
            ));
        }
        let sensor: u32 = fields[0]
            .parse()
            .map_err(|_| TraceError::parse(line_number, "sensor id is not an integer"))?;
        let x: f64 =
            fields[1].parse().map_err(|_| TraceError::parse(line_number, "x is not a number"))?;
        let y: f64 =
            fields[2].parse().map_err(|_| TraceError::parse(line_number, "y is not a number"))?;
        let epoch: u64 = fields[3]
            .parse()
            .map_err(|_| TraceError::parse(line_number, "epoch is not an integer"))?;
        let micros: u64 = fields[4]
            .parse()
            .map_err(|_| TraceError::parse(line_number, "timestamp is not an integer"))?;
        let value: Option<f64> = if fields[5].is_empty() {
            None
        } else {
            Some(
                fields[5]
                    .parse()
                    .map_err(|_| TraceError::parse(line_number, "value is not a number"))?,
            )
        };
        let anomaly = match fields[6] {
            "0" => false,
            "1" => true,
            other => {
                return Err(TraceError::parse(
                    line_number,
                    format!("anomaly flag must be 0 or 1, found {other:?}"),
                ))
            }
        };

        let id = SensorId(sensor);
        let position = Position::new(x, y);
        let stream_index = match trace.streams.iter().position(|s| s.spec.id == id) {
            Some(found) => {
                let existing = trace.streams[found].spec.position;
                if (existing.x - x).abs() > 1e-9 || (existing.y - y).abs() > 1e-9 {
                    return Err(TraceError::Invalid(format!(
                        "sensor {sensor} has inconsistent positions across records"
                    )));
                }
                found
            }
            None => {
                trace.streams.push(SensorStream::new(SensorSpec::new(id, position)));
                trace.streams.len() - 1
            }
        };
        let stream = &mut trace.streams[stream_index];
        if stream.readings.iter().any(|r| r.epoch == Epoch(epoch)) {
            return Err(TraceError::Invalid(format!(
                "sensor {sensor} has two records for epoch {epoch}"
            )));
        }
        let timestamp = Timestamp::from_micros(micros);
        let reading = match value {
            Some(v) => SensorReading::present(Epoch(epoch), timestamp, v),
            None => SensorReading::missing(Epoch(epoch), timestamp),
        }
        .with_anomaly_flag(anomaly);
        stream.readings.push(reading);
    }
    if trace.streams.is_empty() {
        return Err(TraceError::Invalid("the input contains no records".into()));
    }
    for stream in &mut trace.streams {
        stream.readings.sort_by_key(|r| r.epoch);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_data::lab::LabDeployment;
    use wsn_data::rng::SeededRng;
    use wsn_data::synth::SyntheticTraceConfig;

    fn sample_trace() -> DeploymentTrace {
        let deployment = LabDeployment::with_sensor_count(6, 3).unwrap();
        let config = SyntheticTraceConfig { rounds: 5, ..Default::default() };
        deployment.generate_trace(&config, 11).unwrap()
    }

    #[test]
    fn synthetic_traces_round_trip_losslessly() {
        let original = sample_trace();
        let text = write_trace(&original);
        let restored = read_trace(&text).unwrap();
        assert_eq!(restored.sample_interval_secs, original.sample_interval_secs);
        assert_eq!(restored.sensor_count(), original.sensor_count());
        assert_eq!(restored.round_count(), original.round_count());
        for stream in &original.streams {
            let back = restored.stream(stream.spec.id).unwrap();
            assert_eq!(back.spec, stream.spec);
            assert_eq!(back.readings.len(), stream.readings.len());
            for (a, b) in back.readings.iter().zip(&stream.readings) {
                assert_eq!(a.epoch, b.epoch);
                assert_eq!(a.timestamp, b.timestamp);
                assert_eq!(a.injected_anomaly, b.injected_anomaly);
                match (a.value, b.value) {
                    (Some(x), Some(y)) => assert!((x - y).abs() < 1e-12),
                    (None, None) => {}
                    other => panic!("missing-ness changed in the round trip: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn malformed_inputs_are_rejected_with_context() {
        assert!(read_trace("").is_err());
        assert!(read_trace("nonsense\nsensor,x,y\n").is_err());
        let missing_columns = format!("{HEADER_PREFIX}31\nwrong,columns\n");
        assert!(read_trace(&missing_columns).is_err());
        let bad_row = format!("{HEADER_PREFIX}31\n{COLUMNS}\n1,2,3\n");
        assert!(matches!(read_trace(&bad_row), Err(TraceError::Parse { line: 3, .. })));
        let bad_flag = format!("{HEADER_PREFIX}31\n{COLUMNS}\n1,0,0,0,0,1.5,7\n");
        assert!(read_trace(&bad_flag).is_err());
        let no_records = format!("{HEADER_PREFIX}31\n{COLUMNS}\n");
        assert!(matches!(read_trace(&no_records), Err(TraceError::Invalid(_))));
    }

    #[test]
    fn duplicate_epochs_and_moving_sensors_are_rejected() {
        let duplicate =
            format!("{HEADER_PREFIX}31\n{COLUMNS}\n1,0,0,0,0,1.5,0\n1,0,0,0,31000000,1.6,0\n");
        assert!(matches!(read_trace(&duplicate), Err(TraceError::Invalid(_))));
        let moved =
            format!("{HEADER_PREFIX}31\n{COLUMNS}\n1,0,0,0,0,1.5,0\n1,5,5,1,31000000,1.6,0\n");
        assert!(matches!(read_trace(&moved), Err(TraceError::Invalid(_))));
    }

    /// Round-tripping preserves every value for arbitrary small traces: a
    /// seeded-loop property over the in-repo PRNG (256 cases, fixed seed,
    /// failing cases print their generated inputs).
    #[test]
    fn csv_round_trip_is_lossless() {
        const SEED: u64 = 0x5EED_A004;
        let mut rng = SeededRng::seed_from_u64(SEED);
        for case in 0..256 {
            let trace_seed = rng.gen_range(0u64..1_000);
            let rounds = rng.gen_range(1usize..8);
            let deployment = LabDeployment::with_sensor_count(4, trace_seed).unwrap();
            let config = SyntheticTraceConfig { rounds, ..Default::default() };
            let original = deployment.generate_trace(&config, trace_seed).unwrap();
            let restored = read_trace(&write_trace(&original)).unwrap();
            assert_eq!(
                restored.round_count(),
                original.round_count(),
                "case {case} (seed {SEED:#x}): trace_seed={trace_seed} rounds={rounds}"
            );
            assert_eq!(
                restored.all_points().unwrap().len(),
                original.all_points().unwrap().len(),
                "case {case} (seed {SEED:#x}): trace_seed={trace_seed} rounds={rounds}"
            );
        }
    }
}
