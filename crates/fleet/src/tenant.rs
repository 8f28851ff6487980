//! One tenant: a deployment's detectors, windows and adjacency. A slide
//! drains the protocol through [`wsn_core::transport::run_to_quiescence`],
//! the deterministic loss-free transport that replaces the radio simulator.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use wsn_core::experiment::AlgorithmConfig;
use wsn_core::message::PROTOCOL_HEADER_BYTES;
use wsn_core::persist::{
    self, array_field, expect_kind, snapshot_window, u64_field, PersistError, PointRows, PointTable,
};
use wsn_core::{transport, DetectorNode};
use wsn_data::stream::SensorSpec;
use wsn_data::window::{SlidingWindow, WindowConfig};
use wsn_data::{DataPoint, SensorId, Timestamp};
use wsn_json::JsonValue;
use wsn_ranking::{top_n_outliers, OutlierEstimate, RankingFunction};

use crate::service::FleetError;

/// Snapshot `kind` discriminator of a per-tenant checkpoint file.
pub(crate) const TENANT_SNAPSHOT_KIND: &str = "fleet-tenant";

/// Full description of one tenant's deployment — the fleet analogue of
/// [`wsn_core::experiment::ExperimentConfig`] minus everything that only
/// exists inside the simulator (loss model, backend, fault plan, clock
/// stagger).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The deployed sensors (ids and positions). Ids must be unique.
    pub sensors: Vec<SensorSpec>,
    /// Two sensors are adjacent when their distance is at most this.
    pub transmission_range_m: f64,
    /// Which detection algorithm the tenant runs.
    pub algorithm: AlgorithmConfig,
    /// Number of reported outliers `n`.
    pub n: usize,
    /// Sliding-window length in samples (`w`).
    pub window_samples: u64,
    /// Seconds between consecutive epochs (the trace's sampling period).
    pub sample_interval_secs: f64,
}

impl TenantSpec {
    /// FNV-1a-64 over the spec's debug form — the per-tenant `config_hash`
    /// stamped into checkpoints, mirroring
    /// [`wsn_core::persist::config_hash`].
    pub fn config_hash(&self) -> u64 {
        persist::fnv1a64(format!("{self:?}").as_bytes())
    }

    fn validate(&self) -> Result<(), FleetError> {
        let invalid = |msg: &str| Err(FleetError::InvalidSpec(msg.to_string()));
        if self.sensors.is_empty() {
            return invalid("a tenant needs at least one sensor");
        }
        let ids: BTreeSet<SensorId> = self.sensors.iter().map(|s| s.id).collect();
        if ids.len() != self.sensors.len() {
            return invalid("sensor ids must be unique");
        }
        if self.n == 0 {
            return invalid("n must be at least 1");
        }
        if self.window_samples == 0 {
            return invalid("window must hold at least one sample");
        }
        if !self.sample_interval_secs.is_finite() || self.sample_interval_secs <= 0.0 {
            return invalid("sample interval must be positive");
        }
        if !self.transmission_range_m.is_finite() || self.transmission_range_m <= 0.0 {
            return invalid("transmission range must be positive");
        }
        if let AlgorithmConfig::SemiGlobal { hop_diameter, .. } = self.algorithm {
            if hop_diameter == 0 {
                return invalid("semi-global hop diameter must be at least 1");
            }
        }
        Ok(())
    }
}

/// Cumulative message-traffic counters of one tenant. For the distributed
/// algorithms these count the protocol broadcasts the transport delivered;
/// for the centralized baseline they count per-hop forwards of the readings
/// shipped to the sink (each point pays once per hop on its shortest path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantTraffic {
    /// Delivered protocol messages (distributed) or per-hop forwards
    /// (centralized).
    pub messages: u64,
    /// Data points carried by those messages, counting duplicates.
    pub points: u64,
    /// Estimated on-the-wire bytes (protocol header + point payloads).
    pub bytes: u64,
}

impl TenantTraffic {
    /// Counts traffic. The counters saturate, so a damaged snapshot that
    /// restores one near its maximum cannot make a slide overflow.
    fn add(&mut self, messages: u64, points: u64, bytes: u64) {
        self.messages = self.messages.saturating_add(messages);
        self.points = self.points.saturating_add(points);
        self.bytes = self.bytes.saturating_add(bytes);
    }
}

/// The outcome of one executed slide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSlide {
    /// The epoch this slide applied.
    pub epoch: u64,
    /// Traffic generated while draining this slide to quiescence.
    pub traffic: TenantTraffic,
}

/// Per-node detector state: the distributed algorithms keep one
/// [`DetectorNode`] per sensor; the centralized baseline keeps the sink's
/// union window and recomputes the sink answer on demand.
enum Nodes {
    Distributed(BTreeMap<SensorId, DetectorNode<Arc<dyn RankingFunction>>>),
    Centralized {
        /// Shortest-path hop count from each sensor to the sink (the
        /// lowest sensor id).
        hops: BTreeMap<SensorId, u64>,
        window: SlidingWindow,
    },
}

/// One deployment's runtime: detectors, adjacency, reading buffer, epoch
/// cursor and traffic counters. See the crate docs for the slide and
/// checkpoint contracts.
pub struct TenantRuntime {
    spec: TenantSpec,
    hash: u64,
    ranking: Arc<dyn RankingFunction>,
    /// Adjacency lists in ascending id order (the transport's delivery
    /// order).
    neighbors: BTreeMap<SensorId, Vec<SensorId>>,
    nodes: Nodes,
    /// Buffered readings: epoch → origin → points, exactly as ingested.
    buffer: BTreeMap<u64, BTreeMap<SensorId, Vec<DataPoint>>>,
    /// The next epoch to execute.
    next_epoch: u64,
    slides: u64,
    traffic: TenantTraffic,
}

impl TenantRuntime {
    /// Builds a fresh runtime: validates the spec, derives the adjacency
    /// from sensor positions, and instantiates one detector per sensor (or
    /// the centralized sink at the lowest id).
    pub fn new(spec: TenantSpec) -> Result<Self, FleetError> {
        spec.validate()?;
        let hash = spec.config_hash();
        let window = WindowConfig::from_samples(spec.window_samples, spec.sample_interval_secs)
            .map_err(|e| FleetError::InvalidSpec(e.to_string()))?;
        let mut neighbors: BTreeMap<SensorId, Vec<SensorId>> = BTreeMap::new();
        for a in &spec.sensors {
            let mut adjacent: Vec<SensorId> = spec
                .sensors
                .iter()
                .filter(|b| {
                    b.id != a.id && a.position.distance(&b.position) <= spec.transmission_range_m
                })
                .map(|b| b.id)
                .collect();
            adjacent.sort_unstable();
            neighbors.insert(a.id, adjacent);
        }
        let ranking = spec.algorithm.ranking().build();
        let nodes = match spec.algorithm {
            AlgorithmConfig::Global { .. } | AlgorithmConfig::SemiGlobal { .. } => {
                Nodes::Distributed(
                    neighbors
                        .keys()
                        .map(|&id| {
                            let scope = spec.algorithm.hop_diameter();
                            (id, DetectorNode::new(id, ranking.clone(), spec.n, scope, window))
                        })
                        .collect(),
                )
            }
            AlgorithmConfig::Centralized { .. } => {
                let sink = *neighbors.keys().next().expect("non-empty roster");
                let hops = bfs_hops(&neighbors, sink);
                Nodes::Centralized { hops, window: SlidingWindow::new(window) }
            }
        };
        Ok(TenantRuntime {
            spec,
            hash,
            ranking,
            neighbors,
            nodes,
            buffer: BTreeMap::new(),
            next_epoch: 0,
            slides: 0,
            traffic: TenantTraffic::default(),
        })
    }

    /// The spec this runtime was built from.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// The per-tenant `config_hash` stamped into checkpoints.
    pub fn config_hash(&self) -> u64 {
        self.hash
    }

    /// The next epoch this tenant will execute.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Slides executed so far.
    pub fn slides(&self) -> u64 {
        self.slides
    }

    /// Cumulative traffic counters.
    pub fn traffic(&self) -> TenantTraffic {
        self.traffic
    }

    /// Buffers a batch of readings. Points for epochs the cursor already
    /// passed, or from sensors outside the roster, are dropped and counted
    /// (the at-least-once re-ingestion contract after a resume). So is a
    /// point whose feature count differs from the points the tenant holds or
    /// buffers (the first reading of an empty tenant sets it): the ranking
    /// functions measure distances between feature vectors, and a mismatch
    /// would panic the next slide. Returns `(buffered, dropped)`.
    pub fn ingest(&mut self, batch: Vec<DataPoint>) -> (usize, usize) {
        let mut buffered = 0;
        let mut dropped = 0;
        let mut dimension = self.dimension();
        for p in batch {
            let origin = p.key.origin;
            if p.key.epoch.0 < self.next_epoch
                || !self.neighbors.contains_key(&origin)
                || *dimension.get_or_insert(p.dimension()) != p.dimension()
            {
                dropped += 1;
                continue;
            }
            self.buffer.entry(p.key.epoch.0).or_default().entry(origin).or_default().push(p);
            buffered += 1;
        }
        (buffered, dropped)
    }

    /// The feature count of the points this tenant buffers or holds, if
    /// any: every node's window holds points of one count (ingest and
    /// restore both enforce it), so one point per node decides.
    fn dimension(&self) -> Option<usize> {
        let buffered = self.buffer.values().flat_map(BTreeMap::values).flatten().next();
        let held = match &self.nodes {
            Nodes::Distributed(nodes) => {
                nodes.values().find_map(|det| det.held_points().iter().next())
            }
            Nodes::Centralized { window, .. } => window.contents().iter().next(),
        };
        buffered.or(held).map(DataPoint::dimension)
    }

    /// Whether the next epoch is executable without forcing: either every
    /// sensor has reported for it, or a later epoch's readings have arrived
    /// (the watermark that closes a round with missing sensors).
    pub fn due(&self) -> bool {
        let Some((&max_epoch, _)) = self.buffer.iter().next_back() else {
            return false;
        };
        if max_epoch > self.next_epoch {
            return true;
        }
        self.buffer
            .get(&self.next_epoch)
            .is_some_and(|by_origin| by_origin.len() == self.neighbors.len())
    }

    /// Whether any readings are buffered at all (flushable work).
    pub fn has_buffered(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// Executes every due slide; with `force`, also drains the final
    /// (possibly incomplete) buffered epoch. Returns one [`TenantSlide`]
    /// per executed epoch, in order.
    pub fn run_due(&mut self, force: bool) -> Vec<TenantSlide> {
        let mut out = Vec::new();
        while self.due() {
            out.push(self.execute_slide());
        }
        if force {
            while self.has_buffered() {
                out.push(self.execute_slide());
            }
        }
        out
    }

    /// Applies the next epoch's readings and drains the protocol to its
    /// fixed point over the loss-free transport.
    fn execute_slide(&mut self) -> TenantSlide {
        let epoch = self.next_epoch;
        let mut batch = self.buffer.remove(&epoch).unwrap_or_default();
        // One common clock for the whole slide: the epoch's nominal time or
        // the latest reading timestamp, whichever is later. Every node's
        // window advances to the same instant, so the window-skew
        // divergence the staggered simulator exhibits cannot occur here.
        let nominal = Timestamp::from_secs_f64(epoch as f64 * self.spec.sample_interval_secs);
        let now = batch.values().flatten().map(|p| p.timestamp).fold(nominal, |acc, t| {
            if t > acc {
                t
            } else {
                acc
            }
        });

        let before = self.traffic;
        match &mut self.nodes {
            Nodes::Distributed(nodes) => {
                // Every node advances its window to the common instant and
                // folds in its own readings; the transport then drains the
                // protocol.
                for (id, det) in nodes.iter_mut() {
                    det.advance_time(now);
                    det.add_local_points(batch.remove(id).unwrap_or_default());
                }
                let carried = transport::run_to_quiescence(nodes.values_mut(), &self.neighbors);
                self.traffic.add(carried.messages, carried.points, carried.bytes);
            }
            Nodes::Centralized { hops, window } => {
                window.advance_to(now);
                for (origin, points) in batch {
                    let hop_count = hops.get(&origin).copied().unwrap_or(0);
                    for p in points {
                        let bytes = hop_count * (PROTOCOL_HEADER_BYTES + p.wire_size()) as u64;
                        self.traffic.add(hop_count, hop_count, bytes);
                        window.insert(p);
                    }
                }
            }
        }
        self.next_epoch = epoch + 1;
        self.slides = self.slides.saturating_add(1);
        let traffic = TenantTraffic {
            messages: self.traffic.messages - before.messages,
            points: self.traffic.points - before.points,
            bytes: self.traffic.bytes - before.bytes,
        };
        TenantSlide { epoch, traffic }
    }

    /// Every node's current outlier estimate. The centralized baseline
    /// reports the sink's answer for every sensor (the loss-free transport
    /// delivers result broadcasts exactly).
    pub fn estimates(&self) -> BTreeMap<SensorId, OutlierEstimate> {
        match &self.nodes {
            Nodes::Distributed(nodes) => {
                nodes.iter().map(|(&id, det)| (id, det.estimate())).collect()
            }
            Nodes::Centralized { window, .. } => {
                let answer = top_n_outliers(self.ranking.as_ref(), self.spec.n, window.contents());
                self.neighbors.keys().map(|&id| (id, answer.clone())).collect()
            }
        }
    }

    /// The checkpoint payload: epoch cursor, traffic counters, and every
    /// detector's own persistence dump (or the sink window), stamped with
    /// the per-tenant [`TenantSpec::config_hash`]. The reading buffer is
    /// deliberately excluded — see the crate docs' at-least-once contract.
    pub fn snapshot_payload(&self) -> JsonValue {
        let mut fields = vec![
            ("kind".to_string(), JsonValue::from(TENANT_SNAPSHOT_KIND)),
            ("config_hash".to_string(), JsonValue::from(self.hash)),
            ("next_epoch".to_string(), JsonValue::from(self.next_epoch)),
            ("slides".to_string(), JsonValue::from(self.slides)),
            ("messages".to_string(), JsonValue::from(self.traffic.messages)),
            ("points".to_string(), JsonValue::from(self.traffic.points)),
            ("bytes".to_string(), JsonValue::from(self.traffic.bytes)),
        ];
        match &self.nodes {
            Nodes::Distributed(nodes) => {
                let dumps: Vec<JsonValue> = nodes
                    .iter()
                    .map(|(id, det)| {
                        JsonValue::Array(vec![JsonValue::from(id.raw()), det.persist_snapshot()])
                    })
                    .collect();
                fields.push(("nodes".to_string(), JsonValue::Array(dumps)));
            }
            Nodes::Centralized { window, .. } => {
                let mut table = PointTable::new();
                fields.push(("sink_window".to_string(), snapshot_window(window, &mut table)));
                fields.push(table.into_field());
            }
        }
        JsonValue::Object(fields)
    }

    /// Restores this runtime from a checkpoint payload. Refuses payloads of
    /// the wrong kind, a different `config_hash`, or a node roster that does
    /// not match the spec — all as typed [`PersistError`]s, leaving the
    /// runtime **unmodified** on any error (the fleet restores into a fresh
    /// runtime and swaps on success).
    pub fn restore(&mut self, payload: &JsonValue) -> Result<(), PersistError> {
        expect_kind(payload, TENANT_SNAPSHOT_KIND)?;
        let hash = u64_field(payload, "config_hash")?;
        if hash != self.hash {
            return Err(PersistError::Mismatch(format!(
                "tenant config hash mismatch: snapshot {hash:#018x}, runtime {:#018x}",
                self.hash
            )));
        }
        let next_epoch = u64_field(payload, "next_epoch")?;
        let slides = u64_field(payload, "slides")?;
        let traffic = TenantTraffic {
            messages: u64_field(payload, "messages")?,
            points: u64_field(payload, "points")?,
            bytes: u64_field(payload, "bytes")?,
        };
        let mut staged = TenantRuntime::new(self.spec.clone())
            .map_err(|e| PersistError::Schema(format!("spec no longer builds: {e}")))?;
        match &mut staged.nodes {
            Nodes::Distributed(nodes) => {
                let dumps = array_field(payload, "nodes")?;
                if dumps.len() != nodes.len() {
                    return Err(PersistError::Schema(format!(
                        "snapshot holds {} nodes, roster has {}",
                        dumps.len(),
                        nodes.len()
                    )));
                }
                for entry in dumps {
                    let pair = entry.as_array().ok_or_else(|| {
                        PersistError::Schema("node entry is not an [id, dump] pair".into())
                    })?;
                    let [id_value, dump] = pair else {
                        return Err(PersistError::Schema(
                            "node entry is not an [id, dump] pair".into(),
                        ));
                    };
                    let raw = id_value.as_u64().ok_or_else(|| {
                        PersistError::Schema("node id is not an unsigned integer".into())
                    })?;
                    let id = SensorId(
                        u32::try_from(raw)
                            .map_err(|_| PersistError::Schema("node id overflows u32".into()))?,
                    );
                    let det = nodes.get_mut(&id).ok_or_else(|| {
                        PersistError::Schema(format!("snapshot node {id:?} is not in the roster"))
                    })?;
                    det.persist_restore(dump)?;
                }
                // Each node dump is refused if it mixes feature counts, but
                // points of different nodes meet on the next slide too.
                let mut counts = nodes
                    .values()
                    .filter_map(|det| det.held_points().iter().next())
                    .map(DataPoint::dimension);
                if let Some(first) = counts.next() {
                    if let Some(other) = counts.find(|&count| count != first) {
                        return Err(PersistError::Schema(format!(
                            "snapshot nodes hold {first}- and {other}-feature points"
                        )));
                    }
                }
            }
            Nodes::Centralized { window, .. } => {
                let mut rows = PointRows::of(payload)?;
                *window =
                    persist::restore_window(persist::field(payload, "sink_window")?, &mut rows)?;
            }
        }
        staged.next_epoch = next_epoch;
        staged.slides = slides;
        staged.traffic = traffic;
        *self = staged;
        Ok(())
    }
}

/// Shortest-path hop counts from `root` over the adjacency (unreachable
/// sensors count 0 hops — they cannot ship anything anywhere).
fn bfs_hops(
    neighbors: &BTreeMap<SensorId, Vec<SensorId>>,
    root: SensorId,
) -> BTreeMap<SensorId, u64> {
    let mut hops: BTreeMap<SensorId, u64> = BTreeMap::new();
    hops.insert(root, 0);
    let mut queue = VecDeque::from([root]);
    while let Some(at) = queue.pop_front() {
        let next = hops[&at] + 1;
        for &n in &neighbors[&at] {
            if let std::collections::btree_map::Entry::Vacant(e) = hops.entry(n) {
                e.insert(next);
                queue.push_back(n);
            }
        }
    }
    for &id in neighbors.keys() {
        hops.entry(id).or_insert(0);
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_core::experiment::RankingChoice;
    use wsn_data::{Epoch, Position};

    fn grid_spec(side: u32, algorithm: AlgorithmConfig) -> TenantSpec {
        let sensors = (0..side * side)
            .map(|i| {
                SensorSpec::new(
                    SensorId(i),
                    Position { x: f64::from(i % side) * 10.0, y: f64::from(i / side) * 10.0 },
                )
            })
            .collect();
        TenantSpec {
            sensors,
            transmission_range_m: 15.0,
            algorithm,
            n: 2,
            window_samples: 8,
            sample_interval_secs: 31.0,
        }
    }

    fn point(origin: u32, epoch: u64, value: f64) -> DataPoint {
        DataPoint::new(
            SensorId(origin),
            Epoch(epoch),
            Timestamp::from_secs_f64(epoch as f64 * 31.0),
            vec![value],
        )
        .unwrap()
    }

    #[test]
    fn watermark_and_completeness_scheduling() {
        let spec = grid_spec(2, AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        let mut rt = TenantRuntime::new(spec).unwrap();
        assert!(!rt.due());
        // Three of four sensors: not complete, no watermark.
        rt.ingest(vec![point(0, 0, 20.0), point(1, 0, 20.1), point(2, 0, 19.9)]);
        assert!(!rt.due());
        // Fourth sensor completes epoch 0.
        rt.ingest(vec![point(3, 0, 20.2)]);
        assert!(rt.due());
        let slides = rt.run_due(false);
        assert_eq!(slides.len(), 1);
        assert_eq!(rt.next_epoch(), 1);
        // Epoch 2 readings arrive while epoch 1 is missing a sensor: the
        // watermark closes epoch 1 (and epoch 2 stays pending, incomplete).
        rt.ingest(vec![point(0, 1, 20.0), point(0, 2, 20.0)]);
        assert!(rt.due());
        let slides = rt.run_due(false);
        assert_eq!(slides.len(), 1, "only the watermarked epoch runs");
        assert_eq!(rt.next_epoch(), 2);
        assert!(rt.has_buffered());
        // Forcing drains the incomplete tail.
        let slides = rt.run_due(true);
        assert_eq!(slides.len(), 1);
        assert!(!rt.has_buffered());
    }

    #[test]
    fn stale_and_foreign_points_are_dropped() {
        let spec = grid_spec(2, AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        let mut rt = TenantRuntime::new(spec).unwrap();
        rt.ingest((0..4).map(|i| point(i, 0, 20.0)).collect());
        rt.run_due(false);
        let (buffered, dropped) = rt.ingest(vec![point(0, 0, 20.0), point(99, 1, 20.0)]);
        assert_eq!((buffered, dropped), (0, 2));
    }

    #[test]
    fn distributed_slide_reaches_agreement_on_the_outlier() {
        let spec = grid_spec(3, AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        let mut rt = TenantRuntime::new(spec).unwrap();
        for e in 0..4u64 {
            let batch: Vec<DataPoint> = (0..9)
                .map(|i| {
                    let v = if i == 4 && e == 3 { 35.0 } else { 20.0 + 0.01 * f64::from(i) };
                    point(i, e, v)
                })
                .collect();
            rt.ingest(batch);
        }
        let slides = rt.run_due(true);
        assert_eq!(slides.len(), 4);
        let estimates = rt.estimates();
        assert!(wsn_core::metrics::estimates_agree(&estimates), "Theorem 1 at the fixed point");
        let any = estimates.values().next().unwrap();
        assert!(
            any.keys().iter().any(|k| k.origin == SensorId(4) && k.epoch == Epoch(3)),
            "the injected spike is reported: {:?}",
            any.keys()
        );
        assert!(rt.traffic().messages > 0, "agreement required traffic");
        // Any delivery order reaches the same estimates but moves different
        // traffic, so these counts pin the transport's order.
        let pinned = TenantTraffic { messages: 159, points: 608, bytes: 21_788 };
        assert_eq!(rt.traffic(), pinned, "the transport's delivery order changed");
    }

    #[test]
    fn centralized_slide_reports_the_sink_answer_everywhere() {
        let spec = grid_spec(3, AlgorithmConfig::Centralized { ranking: RankingChoice::Nn });
        let mut rt = TenantRuntime::new(spec).unwrap();
        for e in 0..4u64 {
            rt.ingest(
                (0..9)
                    .map(|i| {
                        let v = if i == 8 && e == 2 { 35.0 } else { 20.0 + 0.01 * f64::from(i) };
                        point(i, e, v)
                    })
                    .collect(),
            );
        }
        rt.run_due(true);
        let estimates = rt.estimates();
        assert!(wsn_core::metrics::estimates_agree(&estimates));
        assert!(estimates[&SensorId(0)]
            .keys()
            .iter()
            .any(|k| k.origin == SensorId(8) && k.epoch == Epoch(2)));
        // Corner sensor 8 is 4 grid hops from the sink at 0: shipping pays
        // per hop.
        assert!(rt.traffic().bytes > 0);
    }

    #[test]
    fn snapshot_restore_round_trips_and_isolates_mismatches() {
        let spec = grid_spec(2, AlgorithmConfig::Global { ranking: RankingChoice::Nn });
        let mut rt = TenantRuntime::new(spec.clone()).unwrap();
        for e in 0..3u64 {
            rt.ingest((0..4).map(|i| point(i, e, 20.0 + f64::from(i))).collect());
        }
        rt.run_due(true);
        let payload = rt.snapshot_payload();

        let mut restored = TenantRuntime::new(spec.clone()).unwrap();
        restored.restore(&payload).unwrap();
        assert_eq!(restored.next_epoch(), rt.next_epoch());
        assert_eq!(restored.slides(), rt.slides());
        assert_eq!(restored.traffic(), rt.traffic());
        assert_eq!(restored.estimates(), rt.estimates());

        // A different spec refuses the payload with a typed mismatch.
        let mut other_spec = spec;
        other_spec.n = 3;
        let mut other = TenantRuntime::new(other_spec).unwrap();
        let before = other.next_epoch();
        match other.restore(&payload) {
            Err(PersistError::Mismatch(_)) => {}
            other => panic!("expected a config-hash mismatch, got {other:?}"),
        }
        assert_eq!(other.next_epoch(), before, "failed restore leaves the runtime untouched");
    }

    #[test]
    fn restored_runtime_continues_bit_for_bit() {
        let spec = grid_spec(
            3,
            AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 },
        );
        let later: Vec<DataPoint> =
            (0..9).map(|i| point(i, 3, if i == 2 { 40.0 } else { 21.0 })).collect();

        let mut baseline = TenantRuntime::new(spec.clone()).unwrap();
        for e in 0..3u64 {
            baseline.ingest((0..9).map(|i| point(i, e, 20.0 + 0.1 * f64::from(i))).collect());
        }
        baseline.run_due(true);
        let payload = baseline.snapshot_payload();
        baseline.ingest(later.clone());
        baseline.run_due(true);

        let mut resumed = TenantRuntime::new(spec).unwrap();
        resumed.restore(&payload).unwrap();
        resumed.ingest(later);
        resumed.run_due(true);

        assert_eq!(resumed.estimates(), baseline.estimates());
        assert_eq!(resumed.traffic(), baseline.traffic());
        assert_eq!(resumed.next_epoch(), baseline.next_epoch());
        let pinned = TenantTraffic { messages: 94, points: 415, bytes: 14_654 };
        assert_eq!(baseline.traffic(), pinned, "the transport's delivery order changed");
    }
}
