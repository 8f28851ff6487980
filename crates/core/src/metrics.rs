//! Ground truth, convergence and accuracy metrics (§7.2).
//!
//! The evaluation's headline accuracy claim is that "nodes converged upon the
//! correct results approximately 99% of the time", with any error attributed
//! to dropped packets. To measure the same quantity we need
//!
//! * the **global ground truth** `O_n(D)` over the union of every sensor's
//!   window contents at a given moment,
//! * the **semi-global ground truth** `O_n(D_i^{≤d})` per sensor, built from
//!   the hop distances of the communication topology, and
//! * per-node comparison of each detector's estimate against its own ground
//!   truth, summarised as the fraction of nodes whose estimate is exactly
//!   correct (the paper's detection accuracy).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use wsn_data::{DataPoint, PointKey, PointSet, SensorId};
use wsn_netsim::topology::Topology;
use wsn_ranking::{top_n_outliers, OutlierEstimate, RankingFunction};

/// The correct answers a deployment's detectors are measured against.
///
/// For the global algorithm every sensor shares the single answer
/// `O_n(⋃_i D_i)`; for the semi-global algorithm each sensor `p_i` has its own
/// answer `O_n(D_i^{≤d})` computed over the data sampled within `d` hops.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// The answers are held behind [`Arc`]s: the global ground truth is one
    /// estimate shared by every node, not one deep copy per node.
    per_node: BTreeMap<SensorId, Arc<OutlierEstimate>>,
}

impl GroundTruth {
    /// Computes the global ground truth: every sensor listed in `sensors` is
    /// assigned the same (shared, not copied) `O_n` over the union of all
    /// `local_data`.
    pub fn global<R: RankingFunction + ?Sized>(
        ranking: &R,
        n: usize,
        local_data: &BTreeMap<SensorId, Vec<DataPoint>>,
    ) -> Self {
        let answer = Arc::new(global_answer(ranking, n, local_data));
        let per_node = local_data.keys().map(|id| (*id, Arc::clone(&answer))).collect();
        GroundTruth { per_node }
    }

    /// Computes the semi-global ground truth: sensor `p_i`'s answer is the
    /// `O_n` of the union of the local data of every sensor within
    /// `hop_diameter` hops of `p_i` in `topology` (including `p_i` itself).
    pub fn semi_global<R: RankingFunction + ?Sized>(
        ranking: &R,
        n: usize,
        local_data: &BTreeMap<SensorId, Vec<DataPoint>>,
        topology: &Topology,
        hop_diameter: u32,
    ) -> Self {
        let per_node = local_data
            .keys()
            .map(|&id| {
                let union = hop_scoped_union(id, local_data, topology, hop_diameter);
                (id, Arc::new(top_n_outliers(ranking, n, &union)))
            })
            .collect();
        GroundTruth { per_node }
    }

    /// The correct answer for one sensor, if it is part of the deployment.
    pub fn answer_for(&self, id: SensorId) -> Option<&OutlierEstimate> {
        self.per_node.get(&id).map(|answer| answer.as_ref())
    }

    /// Number of sensors the ground truth covers.
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// Iterates over `(sensor, correct answer)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (SensorId, &OutlierEstimate)> {
        self.per_node.iter().map(|(id, est)| (*id, est.as_ref()))
    }

    /// Grades a set of per-node estimates against this ground truth.
    pub fn grade(&self, estimates: &BTreeMap<SensorId, OutlierEstimate>) -> AccuracyReport {
        let mut report = AccuracyReport::default();
        for (id, truth) in &self.per_node {
            report.total_nodes += 1;
            match estimates.get(id) {
                Some(estimate) => {
                    if estimate.same_outliers_as(truth) {
                        report.correct_nodes += 1;
                    } else {
                        report.incorrect.push(*id);
                    }
                    let truth_keys = truth.keys();
                    if !truth_keys.is_empty() {
                        let found =
                            truth_keys.iter().filter(|key| estimate.contains_key(key)).count();
                        report.recall_sum += found as f64 / truth_keys.len() as f64;
                    } else {
                        report.recall_sum += 1.0;
                    }
                }
                None => report.missing.push(*id),
            }
        }
        report
    }
}

/// The result of grading every node's estimate against the ground truth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccuracyReport {
    /// Number of sensors graded.
    pub total_nodes: usize,
    /// Number of sensors whose estimate exactly matched the correct answer.
    pub correct_nodes: usize,
    /// Sensors whose estimate differed from the correct answer.
    pub incorrect: Vec<SensorId>,
    /// Sensors for which no estimate was supplied.
    pub missing: Vec<SensorId>,
    /// Sum over graded sensors of the fraction of their true outliers that
    /// appear in their estimate (used by [`AccuracyReport::mean_recall`]).
    pub recall_sum: f64,
}

impl AccuracyReport {
    /// Fraction of graded sensors with the exactly correct estimate (the
    /// paper's detection accuracy). Returns 1.0 for an empty deployment.
    pub fn accuracy(&self) -> f64 {
        if self.total_nodes == 0 {
            return 1.0;
        }
        self.correct_nodes as f64 / self.total_nodes as f64
    }

    /// Mean, over sensors, of the fraction of each sensor's true outliers
    /// that its estimate contains. A gentler measure than exact-set equality:
    /// a node that reports three of its four true outliers scores 0.75 here
    /// and 0 under [`AccuracyReport::accuracy`]. Sensors that supplied no
    /// estimate count as 0.
    pub fn mean_recall(&self) -> f64 {
        if self.total_nodes == 0 {
            return 1.0;
        }
        self.recall_sum / self.total_nodes as f64
    }

    /// Returns `true` if every graded sensor is exactly correct — the state
    /// Theorems 1 and 2 guarantee at termination on static data with no
    /// packet loss.
    pub fn all_correct(&self) -> bool {
        self.correct_nodes == self.total_nodes
    }
}

/// The **label-based** ground truth: which of the injected-anomaly labels
/// are *in scope* for each sensor — i.e. carried by a point of the dataset
/// its estimate is computed over (everyone's union for the global algorithm,
/// the `d`-hop union for the semi-global one).
///
/// Complements [`GroundTruth`], which grades against what a perfectly
/// informed ranking would report: `LabelTruth` instead grades against what
/// the workload *generator* injected, yielding the precision/recall numbers
/// a deployment operator would see.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelTruth {
    /// Per-sensor in-scope label sets, shared where identical (global).
    per_node: BTreeMap<SensorId, Arc<BTreeSet<PointKey>>>,
}

impl LabelTruth {
    /// Global scope: every sensor is graded against the labels carried by
    /// the union of all sensors' local data (one shared set).
    pub fn global(
        labels: &BTreeSet<PointKey>,
        local_data: &BTreeMap<SensorId, Vec<DataPoint>>,
    ) -> Self {
        let in_scope = Arc::new(labels_among(labels, local_data.values().flatten()));
        let per_node = local_data.keys().map(|id| (*id, Arc::clone(&in_scope))).collect();
        LabelTruth { per_node }
    }

    /// Semi-global scope: sensor `p_i` is graded against the labels carried
    /// by the local data of sensors within `hop_diameter` hops of it.
    pub fn semi_global(
        labels: &BTreeSet<PointKey>,
        local_data: &BTreeMap<SensorId, Vec<DataPoint>>,
        topology: &Topology,
        hop_diameter: u32,
    ) -> Self {
        let per_node = local_data
            .keys()
            .map(|&id| {
                let union = hop_scoped_union(id, local_data, topology, hop_diameter);
                (id, Arc::new(labels_among(labels, union.iter())))
            })
            .collect();
        LabelTruth { per_node }
    }

    /// The in-scope labels of one sensor.
    pub fn scope_for(&self, id: SensorId) -> Option<&BTreeSet<PointKey>> {
        self.per_node.get(&id).map(|s| s.as_ref())
    }

    /// Grades per-node estimates against the injected labels.
    ///
    /// Per node, with `hits = |estimate ∩ in-scope labels|`:
    /// precision is `hits / |estimate|` and recall is
    /// `hits / |in-scope labels|`. Both are vacuously 1.0 when they have
    /// nothing to measure — an empty estimate for precision (no false
    /// positives), an empty label scope for both (on unlabelled data the
    /// protocol still legitimately reports its `O_n`; only
    /// agreement-based accuracy is meaningful there, see
    /// [`LabelReport::has_labels`]). A sensor that supplied no estimate
    /// counts as an empty one. Note the recall of a correctly working
    /// protocol is capped below 1.0 whenever more than `n` labelled
    /// anomalies are in scope — the protocol reports `O_n`, not every
    /// anomaly.
    pub fn grade(&self, estimates: &BTreeMap<SensorId, OutlierEstimate>) -> LabelReport {
        let mut report = LabelReport::default();
        for (id, scope) in &self.per_node {
            report.total_nodes += 1;
            if !scope.is_empty() {
                report.labelled_nodes += 1;
            }
            let (est_len, hits) = match estimates.get(id) {
                Some(estimate) => {
                    let hits = estimate.keys().iter().filter(|key| scope.contains(key)).count();
                    (estimate.len(), hits)
                }
                None => (0, 0),
            };
            report.precision_sum +=
                if scope.is_empty() || est_len == 0 { 1.0 } else { hits as f64 / est_len as f64 };
            report.recall_sum +=
                if scope.is_empty() { 1.0 } else { hits as f64 / scope.len() as f64 };
        }
        report
    }
}

/// The result of grading estimates against injected ground-truth labels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabelReport {
    /// Number of sensors graded.
    pub total_nodes: usize,
    /// Number of sensors with at least one labelled anomaly in scope.
    pub labelled_nodes: usize,
    /// Sum over sensors of the per-node label precision.
    pub precision_sum: f64,
    /// Sum over sensors of the per-node label recall.
    pub recall_sum: f64,
}

impl LabelReport {
    /// Mean per-node precision: of the outliers reported, the fraction that
    /// are injected anomalies. 1.0 for an empty deployment.
    pub fn mean_precision(&self) -> f64 {
        if self.total_nodes == 0 {
            return 1.0;
        }
        self.precision_sum / self.total_nodes as f64
    }

    /// Mean per-node recall: of the in-scope injected anomalies, the
    /// fraction reported. 1.0 for an empty deployment.
    pub fn mean_recall(&self) -> f64 {
        if self.total_nodes == 0 {
            return 1.0;
        }
        self.recall_sum / self.total_nodes as f64
    }

    /// Returns `true` if any graded sensor had labelled anomalies in scope
    /// (without which the recall numbers are vacuous).
    pub fn has_labels(&self) -> bool {
        self.labelled_nodes > 0
    }
}

/// Collects `points` into one set, a lower-hop copy of an observation
/// winning (the rule `PointSet`'s `collect` applies). Owned points are each
/// copied behind a new [`Arc`]; handles are shared, so a union of handles
/// copies no point.
fn union_of<'a, P: Clone + Into<Arc<DataPoint>> + 'a>(
    points: impl IntoIterator<Item = &'a P>,
) -> PointSet {
    let mut union = PointSet::new();
    for p in points {
        union.insert_min_hop_arc(p.clone().into());
    }
    union
}

/// The union of the local data of every sensor within `hop_diameter` hops
/// of `id` — the single source of the semi-global scoping rule shared by
/// [`GroundTruth`], [`LabelTruth`] and [`paired_truths`].
fn hop_scoped_union<P: Clone + Into<Arc<DataPoint>>>(
    id: SensorId,
    local_data: &BTreeMap<SensorId, Vec<P>>,
    topology: &Topology,
    hop_diameter: u32,
) -> PointSet {
    let peers = topology.within_hops(id, hop_diameter);
    union_of(peers.iter().filter_map(|peer| local_data.get(peer)).flatten())
}

/// The label keys carried by `points`.
fn labels_among<'a>(
    labels: &BTreeSet<PointKey>,
    points: impl IntoIterator<Item = &'a DataPoint>,
) -> BTreeSet<PointKey> {
    points.into_iter().filter(|p| labels.contains(&p.key)).map(|p| p.key).collect()
}

/// Builds the detection-accuracy and label ground truths over **identical**
/// scoping in one pass: the global union (or, semi-globally, each node's
/// `d`-hop BFS and union) is computed once and feeds both the `O_n` answer
/// and the label scope. This is what the batch and streaming runners call —
/// it halves the per-slide scoping cost of the streaming driver and keeps
/// the two metrics guaranteed-consistent. `hop_scope` is `None` for global
/// (and centralized) scoping, `Some((topology, d))` for semi-global.
///
/// `local_data` holds each sensor's points either owned ([`DataPoint`]) or
/// as the shared handles of the windows they were read from
/// (`Arc<DataPoint>`, what the runners pass): every union is then built
/// from reference-count bumps, and each point of a truth shares its
/// allocation with its window. Both forms give the truths
/// [`GroundTruth`]'s and [`LabelTruth`]'s constructors give over owned
/// points.
pub fn paired_truths<R: RankingFunction + ?Sized, P: Clone + Into<Arc<DataPoint>>>(
    ranking: &R,
    n: usize,
    labels: &BTreeSet<PointKey>,
    local_data: &BTreeMap<SensorId, Vec<P>>,
    hop_scope: Option<(&Topology, u32)>,
) -> (GroundTruth, LabelTruth) {
    match hop_scope {
        None => {
            let union = union_of(local_data.values().flatten());
            let answer = Arc::new(top_n_outliers(ranking, n, &union));
            let scope = Arc::new(labels_among(labels, union.iter()));
            (
                GroundTruth {
                    per_node: local_data.keys().map(|id| (*id, Arc::clone(&answer))).collect(),
                },
                LabelTruth {
                    per_node: local_data.keys().map(|id| (*id, Arc::clone(&scope))).collect(),
                },
            )
        }
        Some((topology, hop_diameter)) => {
            let mut truth = BTreeMap::new();
            let mut scopes = BTreeMap::new();
            for &id in local_data.keys() {
                let union = hop_scoped_union(id, local_data, topology, hop_diameter);
                scopes.insert(id, Arc::new(labels_among(labels, union.iter())));
                truth.insert(id, Arc::new(top_n_outliers(ranking, n, &union)));
            }
            (GroundTruth { per_node: truth }, LabelTruth { per_node: scopes })
        }
    }
}

/// Returns `true` if every pair of estimates reports the same outlier set —
/// the agreement property of Theorem 1.
///
/// The map's key set defines the population: agreement is judged over
/// exactly the estimates passed in. Under churn the runners collect
/// estimates from the **live** node set only (dead nodes are removed from
/// the simulator and never snapshotted), so this is Theorem 1 restricted to
/// the surviving network — a dead node's last opinion neither helps nor
/// hurts.
pub fn estimates_agree(estimates: &BTreeMap<SensorId, OutlierEstimate>) -> bool {
    let mut iter = estimates.values();
    let Some(first) = iter.next() else {
        return true;
    };
    iter.all(|e| e.same_outliers_as(first))
}

/// Convenience: collects the union of every sensor's local data and computes
/// `O_n(D)` directly (what a perfectly informed centralized node would report).
pub fn global_answer<R: RankingFunction + ?Sized>(
    ranking: &R,
    n: usize,
    local_data: &BTreeMap<SensorId, Vec<DataPoint>>,
) -> OutlierEstimate {
    top_n_outliers(ranking, n, &union_of(local_data.values().flatten()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_data::stream::SensorSpec;
    use wsn_data::{Epoch, Position, Timestamp};
    use wsn_ranking::NnDistance;

    fn pt(origin: u32, epoch: u64, v: f64) -> DataPoint {
        DataPoint::new(SensorId(origin), Epoch(epoch), Timestamp::ZERO, vec![v]).unwrap()
    }

    /// Three sensors on a chain; sensor 0 holds the only extreme value.
    fn local_data() -> BTreeMap<SensorId, Vec<DataPoint>> {
        let mut data = BTreeMap::new();
        data.insert(SensorId(0), vec![pt(0, 0, -100.0), pt(0, 1, 10.0), pt(0, 2, 10.2)]);
        data.insert(SensorId(1), vec![pt(1, 0, 11.0), pt(1, 1, 11.3), pt(1, 2, 11.5)]);
        data.insert(SensorId(2), vec![pt(2, 0, 12.0), pt(2, 1, 12.4), pt(2, 2, 12.7)]);
        data
    }

    fn chain_topology() -> Topology {
        let specs: Vec<SensorSpec> = (0..3)
            .map(|i| SensorSpec::new(SensorId(i), Position::new(i as f64 * 5.0, 0.0)))
            .collect();
        Topology::from_specs(&specs, 6.0)
    }

    #[test]
    fn global_truth_is_shared_by_every_node() {
        let truth = GroundTruth::global(&NnDistance, 1, &local_data());
        assert_eq!(truth.node_count(), 3);
        for (_, answer) in truth.iter() {
            assert_eq!(answer.points()[0].features, vec![-100.0]);
        }
        assert_eq!(global_answer(&NnDistance, 1, &local_data()).points()[0].features, vec![-100.0]);
    }

    #[test]
    fn global_truth_shares_one_answer_across_nodes() {
        let truth = GroundTruth::global(&NnDistance, 1, &local_data());
        let answers: Vec<_> = truth.per_node.values().collect();
        assert!(answers.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])), "one shared Arc, not copies");
    }

    #[test]
    fn semi_global_truth_respects_hop_distance() {
        let truth = GroundTruth::semi_global(&NnDistance, 1, &local_data(), &chain_topology(), 1);
        // Node 2 is two hops from node 0: its ground truth must not contain
        // node 0's extreme value.
        let answer_2 = truth.answer_for(SensorId(2)).unwrap();
        assert_ne!(answer_2.points()[0].features, vec![-100.0]);
        // Node 1 is adjacent to node 0: the extreme value is its answer.
        let answer_1 = truth.answer_for(SensorId(1)).unwrap();
        assert_eq!(answer_1.points()[0].features, vec![-100.0]);
        assert!(truth.answer_for(SensorId(9)).is_none());
    }

    #[test]
    fn semi_global_with_large_diameter_equals_global() {
        let data = local_data();
        let topo = chain_topology();
        let semi = GroundTruth::semi_global(&NnDistance, 2, &data, &topo, 10);
        let global = GroundTruth::global(&NnDistance, 2, &data);
        for (id, answer) in global.iter() {
            assert!(semi.answer_for(id).unwrap().same_outliers_as(answer));
        }
    }

    #[test]
    fn grading_counts_correct_incorrect_and_missing() {
        let data = local_data();
        let truth = GroundTruth::global(&NnDistance, 1, &data);
        let correct = global_answer(&NnDistance, 1, &data);
        let wrong = top_n_outliers(&NnDistance, 1, &data[&SensorId(1)].iter().cloned().collect());

        let mut estimates = BTreeMap::new();
        estimates.insert(SensorId(0), correct.clone());
        estimates.insert(SensorId(1), wrong);
        // Node 2 supplies nothing.
        let report = truth.grade(&estimates);
        assert_eq!(report.total_nodes, 3);
        assert_eq!(report.correct_nodes, 1);
        assert_eq!(report.incorrect, vec![SensorId(1)]);
        assert_eq!(report.missing, vec![SensorId(2)]);
        assert!((report.accuracy() - 1.0 / 3.0).abs() < 1e-12);
        assert!(!report.all_correct());
        // Recall: node 0 found its single true outlier (1.0), node 1 found
        // none of it (0.0), node 2 supplied nothing (0.0) — mean 1/3.
        assert!((report.mean_recall() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_counts_as_fully_accurate() {
        let report = AccuracyReport::default();
        assert_eq!(report.accuracy(), 1.0);
        assert_eq!(report.mean_recall(), 1.0);
        assert!(report.all_correct());
    }

    #[test]
    fn label_truth_grades_precision_and_recall() {
        let data = local_data();
        // The single injected anomaly is node 0's extreme value.
        let labels: BTreeSet<PointKey> = [pt(0, 0, -100.0).key].into_iter().collect();
        let truth = LabelTruth::global(&labels, &data);
        assert_eq!(truth.scope_for(SensorId(1)).unwrap().len(), 1);
        assert!(truth.scope_for(SensorId(9)).is_none());

        let correct = global_answer(&NnDistance, 1, &data); // reports the -100 point
        let wrong = top_n_outliers(&NnDistance, 1, &data[&SensorId(1)].iter().cloned().collect());
        let mut estimates = BTreeMap::new();
        estimates.insert(SensorId(0), correct);
        estimates.insert(SensorId(1), wrong);
        // Node 2 supplies nothing: empty estimate, precision 1, recall 0.
        let report = truth.grade(&estimates);
        assert_eq!(report.total_nodes, 3);
        assert_eq!(report.labelled_nodes, 3);
        assert!(report.has_labels());
        // Precision: node 0 = 1.0, node 1 = 0.0, node 2 (empty) = 1.0.
        assert!((report.mean_precision() - 2.0 / 3.0).abs() < 1e-12);
        // Recall: node 0 = 1.0, nodes 1 and 2 = 0.0.
        assert!((report.mean_recall() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn label_truth_semi_global_restricts_scope_by_hops() {
        let data = local_data();
        let labels: BTreeSet<PointKey> = [pt(0, 0, -100.0).key].into_iter().collect();
        let truth = LabelTruth::semi_global(&labels, &data, &chain_topology(), 1);
        // Node 2 is two hops from the label's origin: nothing in scope.
        assert!(truth.scope_for(SensorId(2)).unwrap().is_empty());
        assert_eq!(truth.scope_for(SensorId(1)).unwrap().len(), 1);
        // With nothing in scope and an empty estimate, node 2 scores 1/1.
        let report = truth.grade(&BTreeMap::new());
        assert_eq!(report.labelled_nodes, 2);
        assert!((report.recall_sum - 1.0).abs() < 1e-12, "only node 2 recalls vacuously");
    }

    #[test]
    fn paired_truths_match_the_individual_constructors() {
        let data = local_data();
        let labels: BTreeSet<PointKey> = [pt(0, 0, -100.0).key].into_iter().collect();
        let (truth, label_truth) = paired_truths(&NnDistance, 1, &labels, &data, None);
        assert_eq!(truth, GroundTruth::global(&NnDistance, 1, &data));
        assert_eq!(label_truth, LabelTruth::global(&labels, &data));
        let topo = chain_topology();
        let (truth, label_truth) = paired_truths(&NnDistance, 1, &labels, &data, Some((&topo, 1)));
        assert_eq!(truth, GroundTruth::semi_global(&NnDistance, 1, &data, &topo, 1));
        assert_eq!(label_truth, LabelTruth::semi_global(&labels, &data, &topo, 1));
    }

    #[test]
    fn empty_label_report_is_perfect() {
        let report = LabelReport::default();
        assert_eq!(report.mean_precision(), 1.0);
        assert_eq!(report.mean_recall(), 1.0);
        assert!(!report.has_labels());
    }

    #[test]
    fn agreement_check_detects_disagreement() {
        let data = local_data();
        let correct = global_answer(&NnDistance, 1, &data);
        let wrong = top_n_outliers(&NnDistance, 1, &data[&SensorId(1)].iter().cloned().collect());
        let mut estimates = BTreeMap::new();
        assert!(estimates_agree(&estimates), "an empty map trivially agrees");
        estimates.insert(SensorId(0), correct.clone());
        estimates.insert(SensorId(1), correct);
        assert!(estimates_agree(&estimates));
        estimates.insert(SensorId(2), wrong);
        assert!(!estimates_agree(&estimates));
    }

    #[test]
    fn agreement_is_judged_over_the_live_set_only() {
        // A dead node's stale estimate must not break agreement: the churn
        // runners simply never include it. Removing the disagreeing entry
        // (what remove_node does to the snapshot) restores agreement.
        let data = local_data();
        let correct = global_answer(&NnDistance, 1, &data);
        let stale = top_n_outliers(&NnDistance, 1, &data[&SensorId(1)].iter().cloned().collect());
        let mut estimates = BTreeMap::new();
        estimates.insert(SensorId(0), correct.clone());
        estimates.insert(SensorId(1), correct);
        estimates.insert(SensorId(2), stale);
        assert!(!estimates_agree(&estimates));
        estimates.remove(&SensorId(2));
        assert!(estimates_agree(&estimates), "agreement over the survivors");
    }
}
