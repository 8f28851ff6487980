//! Sensor streams and whole-deployment traces.
//!
//! The paper's workload is a set of per-sensor data streams: each sensor
//! periodically samples an environmental value (temperature in the
//! experiments), stamped with an epoch number and a timestamp, together with
//! the sensor's location coordinates. Readings may be missing (the original
//! Intel trace lost samples to packet loss); missing readings are represented
//! explicitly and later filled in by [`crate::impute`].

use std::collections::BTreeMap;

use crate::error::DataError;
use crate::geometry::Position;
use crate::point::{DataPoint, Epoch, PointKey, SensorId, Timestamp};

/// Static description of one deployed sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorSpec {
    /// The sensor's identifier.
    pub id: SensorId,
    /// Where the sensor sits on the terrain.
    pub position: Position,
}

impl SensorSpec {
    /// Creates a new sensor description.
    pub fn new(id: SensorId, position: Position) -> Self {
        SensorSpec { id, position }
    }
}

/// One periodic reading of a sensor. `value` is `None` when the reading was
/// lost (missing data in the trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReading {
    /// Epoch (sequence number) of the reading within the sensor's stream.
    pub epoch: Epoch,
    /// Sampling time.
    pub timestamp: Timestamp,
    /// Measured value, or `None` if the reading is missing.
    pub value: Option<f64>,
    /// Whether the generator injected this reading as a ground-truth anomaly.
    /// Only used for accuracy book-keeping; the detection algorithms never
    /// look at this flag.
    pub injected_anomaly: bool,
}

impl SensorReading {
    /// Creates a present (non-missing) reading.
    pub fn present(epoch: Epoch, timestamp: Timestamp, value: f64) -> Self {
        SensorReading { epoch, timestamp, value: Some(value), injected_anomaly: false }
    }

    /// Creates a missing reading.
    pub fn missing(epoch: Epoch, timestamp: Timestamp) -> Self {
        SensorReading { epoch, timestamp, value: None, injected_anomaly: false }
    }

    /// Marks the reading as an injected ground-truth anomaly.
    pub fn with_anomaly_flag(mut self, flag: bool) -> Self {
        self.injected_anomaly = flag;
        self
    }

    /// Returns `true` if the reading is missing.
    pub fn is_missing(&self) -> bool {
        self.value.is_none()
    }
}

/// The stream of readings produced by one sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorStream {
    /// The sensor that produced the stream.
    pub spec: SensorSpec,
    /// The readings, in epoch order.
    pub readings: Vec<SensorReading>,
}

impl SensorStream {
    /// Creates an empty stream for the given sensor.
    pub fn new(spec: SensorSpec) -> Self {
        SensorStream { spec, readings: Vec::new() }
    }

    /// Number of readings (present or missing).
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Returns `true` if the stream has no readings.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// Fraction of readings that are missing.
    pub fn missing_fraction(&self) -> f64 {
        if self.readings.is_empty() {
            return 0.0;
        }
        self.readings.iter().filter(|r| r.is_missing()).count() as f64 / self.readings.len() as f64
    }

    /// Converts the reading at `epoch` into a [`DataPoint`] with the
    /// `[value, x, y]` feature layout. Returns `None` when the reading is
    /// missing or out of range.
    ///
    /// # Errors
    ///
    /// Propagates [`DataError::NonFiniteFeature`] if the stored value is not
    /// finite (which indicates a corrupted trace).
    pub fn point_at(&self, index: usize) -> Result<Option<DataPoint>, DataError> {
        let Some(reading) = self.readings.get(index) else {
            return Ok(None);
        };
        let Some(value) = reading.value else {
            return Ok(None);
        };
        DataPoint::from_reading(
            self.spec.id,
            reading.epoch,
            reading.timestamp,
            value,
            self.spec.position,
        )
        .map(Some)
    }
}

/// A whole-deployment trace: one stream per sensor, sharing a common sampling
/// schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentTrace {
    /// Interval between consecutive samples of a sensor, in seconds.
    pub sample_interval_secs: f64,
    /// One stream per sensor.
    pub streams: Vec<SensorStream>,
}

impl DeploymentTrace {
    /// Creates a trace with the given sampling interval and no streams.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if the interval is not
    /// strictly positive.
    pub fn new(sample_interval_secs: f64) -> Result<Self, DataError> {
        if !sample_interval_secs.is_finite() || sample_interval_secs <= 0.0 {
            return Err(DataError::InvalidParameter(
                "sample interval must be strictly positive".to_string(),
            ));
        }
        Ok(DeploymentTrace { sample_interval_secs, streams: Vec::new() })
    }

    /// Number of sensors in the trace.
    pub fn sensor_count(&self) -> usize {
        self.streams.len()
    }

    /// Number of sampling rounds (the longest stream length).
    pub fn round_count(&self) -> usize {
        self.streams.iter().map(|s| s.readings.len()).max().unwrap_or(0)
    }

    /// The static specs of all sensors.
    pub fn sensor_specs(&self) -> Vec<SensorSpec> {
        self.streams.iter().map(|s| s.spec).collect()
    }

    /// Looks up a sensor's stream by id. Each call scans the streams;
    /// callers that look up many sensors use
    /// [`DeploymentTrace::streams_by_id`].
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownSensor`] when no stream has that id.
    pub fn stream(&self, id: SensorId) -> Result<&SensorStream, DataError> {
        self.streams.iter().find(|s| s.spec.id == id).ok_or(DataError::UnknownSensor(id.raw()))
    }

    /// Every sensor's stream keyed by its id, built in one pass: the stream
    /// [`DeploymentTrace::stream`] returns for each id.
    pub fn streams_by_id(&self) -> BTreeMap<SensorId, &SensorStream> {
        // Inserted last to first, so the first stream of a repeated id wins.
        self.streams.iter().rev().map(|s| (s.spec.id, s)).collect()
    }

    /// All present data points of sampling round `round` (one per sensor that
    /// has a non-missing reading in that round), as `[value, x, y]` points.
    ///
    /// # Errors
    ///
    /// Propagates trace corruption errors from [`SensorStream::point_at`].
    pub fn points_at_round(&self, round: usize) -> Result<Vec<DataPoint>, DataError> {
        let mut out = Vec::new();
        for s in &self.streams {
            if let Some(p) = s.point_at(round)? {
                out.push(p);
            }
        }
        Ok(out)
    }

    /// Every present point in the whole trace.
    ///
    /// # Errors
    ///
    /// Propagates trace corruption errors from [`SensorStream::point_at`].
    pub fn all_points(&self) -> Result<Vec<DataPoint>, DataError> {
        let mut out = Vec::new();
        for round in 0..self.round_count() {
            out.extend(self.points_at_round(round)?);
        }
        Ok(out)
    }

    /// The identities of every **present** reading flagged as an injected
    /// ground-truth anomaly, across the whole trace — the label set the
    /// accuracy metrics grade estimates against. (A flag on a missing
    /// reading labels nothing: no data point is ever built from it.)
    pub fn anomaly_keys(&self) -> Vec<PointKey> {
        let mut keys = Vec::new();
        for stream in &self.streams {
            for reading in &stream.readings {
                if reading.injected_anomaly && !reading.is_missing() {
                    keys.push(PointKey::new(stream.spec.id, reading.epoch));
                }
            }
        }
        keys
    }

    /// The labelled anomaly identities of one sampling round (present
    /// readings only). Round-local labels for per-round consumers (e.g. a
    /// naive one-round detector); note the streaming driver instead scopes
    /// the whole-trace [`DeploymentTrace::anomaly_keys`] set by what each
    /// node's window currently holds.
    pub fn labels_at_round(&self, round: usize) -> Vec<PointKey> {
        self.streams
            .iter()
            .filter_map(|s| {
                let reading = s.readings.get(round)?;
                (reading.injected_anomaly && !reading.is_missing())
                    .then(|| PointKey::new(s.spec.id, reading.epoch))
            })
            .collect()
    }

    /// Fraction of readings across all streams that carry the injected
    /// ground-truth-anomaly flag.
    pub fn anomaly_fraction(&self) -> f64 {
        let total: usize = self.streams.iter().map(|s| s.readings.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let anomalies: usize = self
            .streams
            .iter()
            .map(|s| s.readings.iter().filter(|r| r.injected_anomaly).count())
            .sum();
        anomalies as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32, x: f64, y: f64) -> SensorSpec {
        SensorSpec::new(SensorId(id), Position::new(x, y))
    }

    fn stream_with(values: &[Option<f64>]) -> SensorStream {
        let mut s = SensorStream::new(spec(1, 2.0, 3.0));
        for (i, v) in values.iter().enumerate() {
            let epoch = Epoch(i as u64);
            let ts = Timestamp::from_secs(i as u64);
            s.readings.push(match v {
                Some(val) => SensorReading::present(epoch, ts, *val),
                None => SensorReading::missing(epoch, ts),
            });
        }
        s
    }

    #[test]
    fn trace_rejects_non_positive_interval() {
        assert!(DeploymentTrace::new(0.0).is_err());
        assert!(DeploymentTrace::new(-1.0).is_err());
        assert!(DeploymentTrace::new(f64::NAN).is_err());
        assert!(DeploymentTrace::new(2.0).is_ok());
    }

    #[test]
    fn missing_fraction_counts_gaps() {
        let s = stream_with(&[Some(1.0), None, Some(2.0), None]);
        assert!((s.missing_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        let empty = SensorStream::new(spec(2, 0.0, 0.0));
        assert_eq!(empty.missing_fraction(), 0.0);
    }

    #[test]
    fn point_at_skips_missing_and_out_of_range() {
        let s = stream_with(&[Some(20.0), None]);
        let p = s.point_at(0).unwrap().unwrap();
        assert_eq!(p.features, vec![20.0, 2.0, 3.0]);
        assert_eq!(p.key.origin, SensorId(1));
        assert!(s.point_at(1).unwrap().is_none());
        assert!(s.point_at(99).unwrap().is_none());
    }

    #[test]
    fn trace_round_access_collects_present_points() {
        let mut trace = DeploymentTrace::new(1.0).unwrap();
        trace.streams.push(stream_with(&[Some(1.0), None]));
        let mut s2 = SensorStream::new(spec(2, 0.0, 0.0));
        s2.readings.push(SensorReading::present(Epoch(0), Timestamp::ZERO, 5.0));
        s2.readings.push(SensorReading::present(Epoch(1), Timestamp::from_secs(1), 6.0));
        trace.streams.push(s2);

        assert_eq!(trace.sensor_count(), 2);
        assert_eq!(trace.round_count(), 2);
        assert_eq!(trace.points_at_round(0).unwrap().len(), 2);
        assert_eq!(trace.points_at_round(1).unwrap().len(), 1);
        assert_eq!(trace.all_points().unwrap().len(), 3);
        assert_eq!(trace.sensor_specs().len(), 2);
        assert!(trace.stream(SensorId(2)).is_ok());
        assert_eq!(trace.stream(SensorId(9)).unwrap_err(), DataError::UnknownSensor(9));
        let by_id = trace.streams_by_id();
        assert_eq!(by_id.len(), trace.sensor_count());
        for s in &trace.streams {
            assert!(std::ptr::eq(by_id[&s.spec.id], trace.stream(s.spec.id).unwrap()));
        }
    }

    #[test]
    fn anomaly_keys_cover_present_flagged_readings_only() {
        let mut trace = DeploymentTrace::new(1.0).unwrap();
        let mut s = SensorStream::new(spec(3, 0.0, 0.0));
        s.readings
            .push(SensorReading::present(Epoch(0), Timestamp::ZERO, 1.0).with_anomaly_flag(true));
        s.readings.push(SensorReading::present(Epoch(1), Timestamp::from_secs(1), 2.0));
        // A flagged-but-missing reading labels nothing.
        s.readings.push(
            SensorReading::missing(Epoch(2), Timestamp::from_secs(2)).with_anomaly_flag(true),
        );
        trace.streams.push(s);
        assert_eq!(trace.anomaly_keys(), vec![PointKey::new(SensorId(3), Epoch(0))]);
        assert_eq!(trace.labels_at_round(0), vec![PointKey::new(SensorId(3), Epoch(0))]);
        assert!(trace.labels_at_round(1).is_empty());
        assert!(trace.labels_at_round(2).is_empty());
        assert!(trace.labels_at_round(9).is_empty());
    }

    #[test]
    fn anomaly_fraction_reflects_flags() {
        let mut trace = DeploymentTrace::new(1.0).unwrap();
        let mut s = SensorStream::new(spec(1, 0.0, 0.0));
        s.readings
            .push(SensorReading::present(Epoch(0), Timestamp::ZERO, 1.0).with_anomaly_flag(true));
        s.readings.push(SensorReading::present(Epoch(1), Timestamp::from_secs(1), 1.0));
        trace.streams.push(s);
        assert!((trace.anomaly_fraction() - 0.5).abs() < 1e-12);
        let empty = DeploymentTrace::new(1.0).unwrap();
        assert_eq!(empty.anomaly_fraction(), 0.0);
    }
}
