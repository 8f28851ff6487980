//! The centralized baseline of the evaluation (§7.1).
//!
//! "All nodes periodically sent their sliding window contents to a central
//! node which detected outliers based on the unioned data sets and returned
//! the outliers back to the nodes." Transport is the AODV-style multi-hop
//! routing layer of [`wsn_netsim::routing`] with end-to-end acknowledgements;
//! every hop of every report is unicast, every in-range node overhears it,
//! and all of it is charged to the energy model — which is exactly the
//! traffic-funnel effect around the sink that the paper's figures expose.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::app::SamplingSchedule;
use crate::cache::RevisionCache;
use crate::persist::{self, PersistError, PointRows, PointTable};
use wsn_data::stream::SensorStream;
use wsn_data::window::WindowConfig;
use wsn_data::{DataPoint, PointSet, SensorId, SlidingWindow};
use wsn_json::JsonValue;
use wsn_netsim::routing::{AodvMessage, AodvRouter};
use wsn_netsim::sim::{Application, NodeContext, TimerId};
use wsn_ranking::index::{AnyIndex, IndexStrategy};
use wsn_ranking::{top_n_outliers, top_n_outliers_indexed, OutlierEstimate, RankingFunction};

/// Fixed header bytes of a centralized-protocol payload (type tag, source id,
/// point count).
pub const CENTRALIZED_HEADER_BYTES: usize = 8;

/// Timer-id offset distinguishing the sink's per-round "return the outliers
/// to the nodes" timers from the sampling timers (whose ids are the round
/// numbers).
const REPLY_TIMER_BASE: TimerId = 1 << 32;

/// Fraction of the sampling interval the sink waits after sampling before
/// computing the round's answer and returning it, leaving time for the
/// round's multi-hop reports to arrive.
const REPLY_DELAY_FRACTION: f64 = 0.6;

/// Application payload carried over the routing layer by the centralized
/// baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum CentralizedPayload {
    /// A node's full sliding-window contents, shipped to the sink.
    WindowReport {
        /// The reporting sensor.
        source: SensorId,
        /// Every point currently in the reporter's window.
        points: Vec<DataPoint>,
    },
    /// The sink's current outlier answer, returned to a reporting node.
    OutlierResult {
        /// The outliers, in descending rank order.
        points: Vec<DataPoint>,
    },
}

impl CentralizedPayload {
    /// Bytes this payload occupies on the air (before routing headers).
    pub fn wire_size(&self) -> usize {
        let points = match self {
            CentralizedPayload::WindowReport { points, .. } => points,
            CentralizedPayload::OutlierResult { points } => points,
        };
        CENTRALIZED_HEADER_BYTES + points.iter().map(DataPoint::wire_size).sum::<usize>()
    }
}

/// The centralized baseline application run by every node (sink included).
///
/// Non-sink nodes sample their stream, keep a sliding window of their own
/// data, and ship the whole window to the sink every sampling round. The sink
/// keeps the latest reported window of every node, recomputes `O_n` over the
/// union after each report, and routes the answer back to the reporter.
#[derive(Debug, Clone)]
pub struct CentralizedApp<R> {
    id: SensorId,
    sink: SensorId,
    ranking: R,
    n: usize,
    window: SlidingWindow,
    stream: SensorStream,
    schedule: SamplingSchedule,
    router: AodvRouter<CentralizedPayload>,
    /// `true` once [`crate::app::install_sampling`] took over the sampling
    /// timers; until then the app self-schedules them (the safe fallback).
    batch_sampling: bool,
    /// Sink only: the latest window reported by each node (the sink's own
    /// window is merged in incrementally as well).
    collected: BTreeMap<SensorId, PointSet>,
    /// Sink only: the union of the sink's own window and every collected
    /// window, maintained incrementally — points are inserted or evicted as
    /// reports arrive and the sink's own window slides, never rebuilt from
    /// scratch. All points are shared with `collected` / the window.
    union: PointSet,
    /// Non-sink only: the most recent answer returned by the sink.
    last_result: Option<Vec<DataPoint>>,
    reports_sent: u64,
    reports_received: u64,
    results_sent: u64,
    results_received: u64,
    /// Bumped whenever the sink's detection input changes (own window
    /// mutation or a fresh report); keys `index_cache`.
    state_revision: u64,
    /// Sink only: the neighbour index over `union`, rebuilt lazily when
    /// `state_revision` moves.
    index_cache: RevisionCache<AnyIndex>,
}

impl<R: RankingFunction> CentralizedApp<R> {
    /// Creates the application for one node of the deployment.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(
        id: SensorId,
        sink: SensorId,
        ranking: R,
        n: usize,
        window: WindowConfig,
        stream: SensorStream,
        schedule: SamplingSchedule,
    ) -> Self {
        assert!(n > 0, "the number of reported outliers n must be at least 1");
        CentralizedApp {
            id,
            sink,
            ranking,
            n,
            window: SlidingWindow::new(window),
            stream,
            schedule,
            router: AodvRouter::new(id),
            batch_sampling: false,
            collected: BTreeMap::new(),
            union: PointSet::new(),
            last_result: None,
            reports_sent: 0,
            reports_received: 0,
            results_sent: 0,
            results_received: 0,
            state_revision: 0,
            index_cache: RevisionCache::new(),
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> SensorId {
        self.id
    }

    /// Returns `true` if this node is the sink / base station.
    pub fn is_sink(&self) -> bool {
        self.id == self.sink
    }

    /// The routing state (route tables, ack bookkeeping).
    pub fn router(&self) -> &AodvRouter<CentralizedPayload> {
        &self.router
    }

    /// Number of window reports this node has sent to the sink.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// Number of window reports delivered to this node (sink only).
    pub fn reports_received(&self) -> u64 {
        self.reports_received
    }

    /// Number of outlier answers this node has sent back (sink only).
    pub fn results_sent(&self) -> u64 {
        self.results_sent
    }

    /// Number of outlier answers delivered to this node.
    pub fn results_received(&self) -> u64 {
        self.results_received
    }

    /// The points currently in this node's own sliding window (`D_i`).
    pub fn local_window(&self) -> &PointSet {
        self.window.contents()
    }

    /// The node's current outlier estimate.
    ///
    /// The sink computes it over the union of every collected window plus its
    /// own; other nodes report the last answer the sink returned to them (or
    /// an estimate over their own window if no answer has arrived yet).
    pub fn estimate(&self) -> OutlierEstimate {
        if self.is_sink() {
            if let Some(index) = self.index_cache.get(self.state_revision) {
                top_n_outliers_indexed(&self.ranking, self.n, &self.union, index.as_ref())
            } else {
                top_n_outliers(&self.ranking, self.n, &self.union)
            }
        } else if let Some(points) = &self.last_result {
            let set: PointSet = points.iter().cloned().collect();
            top_n_outliers(&self.ranking, self.n, &set)
        } else {
            top_n_outliers(&self.ranking, self.n, self.window.contents())
        }
    }

    /// Sink only: the incrementally maintained union of the sink's own
    /// window and every collected report (empty on non-sink nodes).
    pub fn sink_union(&self) -> &PointSet {
        &self.union
    }

    /// Serializes this node's canonical baseline state for
    /// [`crate::persist`]: window, the sink's collected windows and union,
    /// the last returned answer and the report/result counters. Transport
    /// state (routes, pending acks) is *not* snapshotted — a resumed run
    /// replays the simulation up to the checkpoint, which reconstructs it
    /// deterministically.
    pub fn persist_snapshot(&self) -> JsonValue {
        let mut table = PointTable::new();
        let window = persist::snapshot_window(&self.window, &mut table);
        let collected = table.sets_by_id(&self.collected);
        let union = table.set(&self.union);
        let last_result = match &self.last_result {
            Some(points) => {
                let points: Vec<Arc<DataPoint>> = points.iter().cloned().map(Arc::new).collect();
                table.refs(&points)
            }
            None => JsonValue::Null,
        };
        JsonValue::Object(vec![
            ("kind".into(), JsonValue::from("centralized")),
            ("id".into(), JsonValue::from(self.id.raw())),
            ("sink".into(), JsonValue::from(self.sink.raw())),
            ("n".into(), JsonValue::from(self.n)),
            ("window".into(), window),
            ("collected".into(), collected),
            ("union".into(), union),
            ("last_result".into(), last_result),
            ("reports_sent".into(), JsonValue::from(self.reports_sent)),
            ("reports_received".into(), JsonValue::from(self.reports_received)),
            ("results_sent".into(), JsonValue::from(self.results_sent)),
            ("results_received".into(), JsonValue::from(self.results_received)),
            ("state_revision".into(), JsonValue::from(self.state_revision)),
            table.into_field(),
        ])
    }

    /// Installs a [`CentralizedApp::persist_snapshot`], refusing snapshots
    /// from a node with a different id, sink, `n` or window length.
    ///
    /// # Errors
    ///
    /// [`PersistError::Schema`] for malformed dumps,
    /// [`PersistError::Mismatch`] for configuration disagreements. On error
    /// the application is left untouched.
    pub fn persist_restore(&mut self, dump: &JsonValue) -> Result<(), PersistError> {
        persist::expect_kind(dump, "centralized")?;
        let id = persist::u32_field(dump, "id")?;
        if id != self.id.raw() {
            return Err(PersistError::Mismatch(format!(
                "snapshot is for sensor {id}, restoring into sensor {}",
                self.id.raw()
            )));
        }
        let sink = persist::u32_field(dump, "sink")?;
        if sink != self.sink.raw() {
            return Err(PersistError::Mismatch(format!(
                "snapshot reports to sink {sink}, this node to {}",
                self.sink.raw()
            )));
        }
        let n = persist::usize_field(dump, "n")?;
        if n != self.n {
            return Err(PersistError::Mismatch(format!(
                "snapshot reports top-{n}, this node reports top-{}",
                self.n
            )));
        }
        let mut rows = PointRows::of(dump)?;
        let window = persist::restore_window(persist::field(dump, "window")?, &mut rows)?;
        if window.config().length_micros != self.window.config().length_micros {
            return Err(PersistError::Mismatch(format!(
                "snapshot window is {}µs long, this node's is {}µs",
                window.config().length_micros,
                self.window.config().length_micros
            )));
        }
        let collected = rows.sets_by_id(persist::field(dump, "collected")?)?;
        let union = rows.set(persist::field(dump, "union")?)?;
        let last_result = match persist::field(dump, "last_result")? {
            JsonValue::Null => None,
            refs => Some(rows.points(refs)?.iter().map(|p| DataPoint::clone(p)).collect()),
        };
        let reports_sent = persist::u64_field(dump, "reports_sent")?;
        let reports_received = persist::u64_field(dump, "reports_received")?;
        let results_sent = persist::u64_field(dump, "results_sent")?;
        let results_received = persist::u64_field(dump, "results_received")?;
        let state_revision = persist::u64_field(dump, "state_revision")?;
        self.window = window;
        self.collected = collected;
        self.union = union;
        self.last_result = last_result;
        self.reports_sent = reports_sent;
        self.reports_received = reports_received;
        self.results_sent = results_sent;
        self.results_received = results_received;
        self.state_revision = state_revision;
        self.index_cache.invalidate();
        Ok(())
    }

    /// Sink only: re-folds the sink's own window into `union` after the
    /// window changed (advance + fresh sample). The window holds only
    /// sink-origin points, so dropping that origin and re-inserting the
    /// current contents applies exactly the window's eviction/insertion
    /// delta to the union.
    fn refresh_own_contribution(&mut self) {
        self.union.remove_origin(self.id);
        self.union.extend_from(self.window.contents());
    }

    fn sample_round(
        &mut self,
        ctx: &mut NodeContext<AodvMessage<CentralizedPayload>>,
        round: usize,
    ) {
        self.window.advance_to(ctx.now());
        if let Ok(Some(point)) = self.stream.point_at(round) {
            self.window.insert(point);
        }
        self.state_revision += 1;
        if self.is_sink() {
            self.refresh_own_contribution();
            // The sink's own data never touches the radio; it is folded into
            // the union locally. Once this round's reports have had time to
            // arrive, detect outliers over the unioned data sets and return
            // them to the nodes (§7.1).
            ctx.set_timer_after_secs(
                self.schedule.sample_interval_secs * REPLY_DELAY_FRACTION,
                REPLY_TIMER_BASE + round as TimerId,
            );
        } else if !self.window.is_empty() {
            let payload = CentralizedPayload::WindowReport {
                source: self.id,
                points: self.window.contents().to_vec(),
            };
            let bytes = payload.wire_size();
            self.router.send(ctx, self.sink, payload, bytes);
            self.reports_sent += 1;
        }
        let next = round + 1;
        if !self.batch_sampling && next < self.schedule.rounds {
            ctx.set_timer_after_secs(self.schedule.sample_interval_secs, next as TimerId);
        }
    }

    /// Sink only: computes the outliers of the unioned data sets and routes
    /// the answer back to every node that has reported so far.
    fn reply_round(&mut self, ctx: &mut NodeContext<AodvMessage<CentralizedPayload>>) {
        if !self.is_sink() || self.collected.is_empty() {
            return;
        }
        let union = &self.union;
        let index = self
            .index_cache
            .get_or_build(self.state_revision, || AnyIndex::build(IndexStrategy::Auto, union));
        let answer = top_n_outliers_indexed(&self.ranking, self.n, &self.union, index.as_ref());
        let points = answer.to_point_set().to_vec();
        let reporters: Vec<SensorId> = self.collected.keys().copied().collect();
        for reporter in reporters {
            let result = CentralizedPayload::OutlierResult { points: points.clone() };
            let bytes = result.wire_size();
            self.router.send(ctx, reporter, result, bytes);
            self.results_sent += 1;
        }
    }

    fn handle_delivered(
        &mut self,
        ctx: &mut NodeContext<AodvMessage<CentralizedPayload>>,
        source: SensorId,
        payload: CentralizedPayload,
    ) {
        let _ = ctx;
        match payload {
            CentralizedPayload::WindowReport { source: reporter, points } => {
                if !self.is_sink() {
                    return; // mis-routed report; only the sink aggregates
                }
                self.reports_received += 1;
                // Swap the reporter's contribution in the union: evict the
                // previous report's points, then insert the fresh ones. The
                // collected set and the union share each allocation.
                if let Some(previous) = self.collected.remove(&reporter) {
                    for key in previous.keys() {
                        self.union.discard(key);
                    }
                }
                let mut report = PointSet::new();
                for p in points {
                    let p = Arc::new(p);
                    self.union.insert_arc(Arc::clone(&p));
                    report.insert_arc(p);
                }
                self.collected.insert(reporter, report);
                self.state_revision += 1;
            }
            CentralizedPayload::OutlierResult { points } => {
                let _ = source;
                self.results_received += 1;
                self.last_result = Some(points);
            }
        }
    }
}

impl<R: RankingFunction> crate::app::ScheduleDriven for CentralizedApp<R> {
    fn sampling_installed(&mut self) {
        self.batch_sampling = true;
    }
}

impl<R: RankingFunction> Application for CentralizedApp<R> {
    type Message = AodvMessage<CentralizedPayload>;

    fn on_start(&mut self, ctx: &mut NodeContext<Self::Message>) {
        // With [`crate::app::install_sampling`], the sampling timers arrive
        // as one batched queue entry per round and only the sink's reply
        // timers are scheduled ad hoc. Without it, fall back to the
        // self-scheduled first sample so a plain `Simulator::new` never
        // silently runs zero rounds.
        if self.batch_sampling {
            return;
        }
        let first = self.schedule.sample_time(0, ctx.id());
        let delay = first.saturating_since(ctx.now());
        ctx.set_timer_after_micros(delay, 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<Self::Message>, timer: TimerId) {
        if timer >= REPLY_TIMER_BASE {
            self.reply_round(ctx);
        } else {
            self.sample_round(ctx, timer as usize);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut NodeContext<Self::Message>,
        from: SensorId,
        message: Self::Message,
    ) {
        let delivered = self.router.handle(ctx, from, message);
        for data in delivered {
            self.handle_delivered(ctx, data.source, data.payload);
        }
    }

    fn on_neighborhood_change(&mut self, ctx: &mut NodeContext<Self::Message>) {
        // Routes through a vanished neighbour will be rediscovered on the
        // next report; nothing to do immediately.
        let _ = ctx;
    }
}

/// Advances the window clock used when converting window lengths expressed in
/// samples (`w`) into the time-based [`WindowConfig`] the applications use.
///
/// The paper parameterises experiments by `w`, the number of samples in the
/// sliding window; with one sample per `sample_interval_secs` this is a
/// window of `w × interval` seconds.
pub fn window_from_samples(
    w: u64,
    sample_interval_secs: f64,
) -> Result<WindowConfig, wsn_data::DataError> {
    WindowConfig::from_samples(w, sample_interval_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_data::stream::{SensorReading, SensorSpec};
    use wsn_data::{Epoch, Position, Timestamp};
    use wsn_netsim::sim::{SimConfig, Simulator};
    use wsn_netsim::topology::Topology;
    use wsn_ranking::NnDistance;

    /// Builds a `count`-node chain running the centralized baseline with the
    /// sink at node 0. Node `count - 1` samples one wild value in round 1.
    fn build_sim(count: u32, rounds: usize) -> Simulator<CentralizedApp<NnDistance>> {
        let specs: Vec<SensorSpec> = (0..count)
            .map(|i| SensorSpec::new(SensorId(i), Position::new(i as f64 * 5.0, 0.0)))
            .collect();
        let topo = Topology::from_specs(&specs, 6.0);
        let schedule = SamplingSchedule::new(10.0, rounds);
        let window = WindowConfig::from_samples(rounds as u64 + 5, 10.0).unwrap();
        let sim =
            crate::app::simulator_with_sampling(SimConfig::default(), topo, &schedule, |id| {
                let spec = specs.iter().find(|s| s.id == id).copied().unwrap();
                let mut stream = SensorStream::new(spec);
                for r in 0..rounds {
                    let ts = Timestamp::from_secs_f64(r as f64 * 10.0);
                    let value = if id == SensorId(count - 1) && r == 1 {
                        500.0
                    } else {
                        20.0 + id.raw() as f64 + r as f64 * 0.01
                    };
                    stream.readings.push(SensorReading::present(Epoch(r as u64), ts, value));
                }
                CentralizedApp::new(id, SensorId(0), NnDistance, 1, window, stream, schedule)
            });
        sim
    }

    #[test]
    fn constructor_rejects_zero_outliers() {
        let spec = SensorSpec::new(SensorId(1), Position::new(0.0, 0.0));
        let result = std::panic::catch_unwind(|| {
            CentralizedApp::new(
                SensorId(1),
                SensorId(0),
                NnDistance,
                0,
                WindowConfig::from_secs(10).unwrap(),
                SensorStream::new(spec),
                SamplingSchedule::new(1.0, 1),
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn payload_wire_size_scales_with_points() {
        let p = DataPoint::new(SensorId(1), Epoch(0), Timestamp::ZERO, vec![1.0]).unwrap();
        let empty = CentralizedPayload::OutlierResult { points: vec![] };
        let one = CentralizedPayload::WindowReport { source: SensorId(1), points: vec![p.clone()] };
        let two = CentralizedPayload::WindowReport {
            source: SensorId(1),
            points: vec![p.clone(), p.clone()],
        };
        assert_eq!(empty.wire_size(), CENTRALIZED_HEADER_BYTES);
        assert_eq!(one.wire_size(), CENTRALIZED_HEADER_BYTES + p.wire_size());
        assert_eq!(two.wire_size(), CENTRALIZED_HEADER_BYTES + 2 * p.wire_size());
    }

    #[test]
    fn sink_collects_every_window_and_finds_the_outlier() {
        let mut sim = build_sim(4, 3);
        assert!(sim.run_until_quiescent(Timestamp::from_secs(400)));
        let sink = sim.app(SensorId(0)).unwrap();
        assert!(sink.is_sink());
        assert_eq!(sink.collected.len(), 3, "the sink heard from every other node");
        assert_eq!(sink.estimate().points()[0].features[0], 500.0);
        assert!(sink.reports_received() >= 3);
        assert!(sink.results_sent() >= 3);
    }

    #[test]
    fn reporting_nodes_learn_the_global_answer_from_the_sink() {
        let mut sim = build_sim(4, 3);
        sim.run_until_quiescent(Timestamp::from_secs(400));
        for (id, app) in sim.apps() {
            if id == SensorId(0) {
                continue;
            }
            assert!(app.results_received() > 0, "node {id} never heard back from the sink");
            assert_eq!(
                app.estimate().points()[0].features[0],
                500.0,
                "node {id} does not know the global outlier"
            );
        }
    }

    #[test]
    fn incremental_union_matches_a_full_rebuild() {
        let mut sim = build_sim(5, 4);
        sim.run_until_quiescent(Timestamp::from_secs(500));
        let sink = sim.app(SensorId(0)).unwrap();
        let mut rebuilt: PointSet = sink.local_window().clone();
        for report in sink.collected.values() {
            for p in report.iter() {
                rebuilt.insert(p.clone());
            }
        }
        assert_eq!(sink.sink_union(), &rebuilt, "insert/evict maintenance must equal a rebuild");
        assert!(!sink.sink_union().is_empty());
        // Non-sink nodes maintain no union.
        assert!(sim.app(SensorId(1)).unwrap().sink_union().is_empty());
    }

    #[test]
    fn sink_never_transmits_window_reports() {
        let mut sim = build_sim(3, 2);
        sim.run_until_quiescent(Timestamp::from_secs(300));
        assert_eq!(sim.app(SensorId(0)).unwrap().reports_sent(), 0);
        for (id, app) in sim.apps() {
            if id != SensorId(0) {
                assert!(app.reports_sent() > 0);
                assert_eq!(app.reports_received(), 0, "only the sink aggregates");
            }
        }
    }

    #[test]
    fn traffic_funnels_around_the_sink() {
        let mut sim = build_sim(6, 3);
        sim.run_until_quiescent(Timestamp::from_secs(600));
        let stats = sim.network_stats();
        // Node 1 relays everything the chain produces; the far end only sends
        // its own reports. This is the §8 traffic-imbalance observation.
        let near = stats.nodes[&SensorId(1)].packets_sent;
        let far = stats.nodes[&SensorId(5)].packets_sent;
        assert!(near > far, "near-sink node sent {near}, far node sent {far}");
        assert!(stats.traffic_imbalance() > 1.0);
    }

    #[test]
    fn persist_snapshot_round_trips_the_sink_state() {
        let mut sim = build_sim(4, 3);
        sim.run_until_quiescent(Timestamp::from_secs(400));
        let sink = sim.app(SensorId(0)).unwrap();
        let dump = sink.persist_snapshot();
        let fresh_app = |id: u32| {
            let spec = SensorSpec::new(SensorId(id), Position::new(0.0, 0.0));
            CentralizedApp::new(
                SensorId(id),
                SensorId(0),
                NnDistance,
                1,
                WindowConfig::from_samples(8, 10.0).unwrap(),
                SensorStream::new(spec),
                SamplingSchedule::new(10.0, 3),
            )
        };
        let mut fresh = fresh_app(0);
        fresh.persist_restore(&dump).unwrap();
        assert_eq!(fresh.persist_snapshot(), dump, "restore is lossless");
        assert_eq!(fresh.sink_union(), sink.sink_union());
        assert_eq!(fresh.estimate().points()[0].features[0], 500.0);
        // A different node refuses the sink's snapshot.
        let mut other = fresh_app(2);
        assert!(matches!(other.persist_restore(&dump), Err(PersistError::Mismatch(_))));
    }

    #[test]
    fn estimate_before_any_result_uses_the_local_window() {
        let spec = SensorSpec::new(SensorId(3), Position::new(0.0, 0.0));
        let mut stream = SensorStream::new(spec);
        stream.readings.push(SensorReading::present(Epoch(0), Timestamp::ZERO, 7.0));
        let mut app = CentralizedApp::new(
            SensorId(3),
            SensorId(0),
            NnDistance,
            1,
            WindowConfig::from_secs(100).unwrap(),
            stream,
            SamplingSchedule::new(10.0, 1),
        );
        assert!(app.estimate().is_empty(), "no data sampled yet");
        // Manually fold the first reading into the window.
        if let Ok(Some(p)) = app.stream.point_at(0) {
            app.window.insert(p);
        }
        assert_eq!(app.estimate().points()[0].features[0], 7.0);
        assert!(!app.is_sink());
        assert_eq!(app.local_window().len(), 1);
    }
}
