//! Network topology: who can hear whom, hop distances, connectivity.
//!
//! The topology is derived from sensor positions and the radio range
//! (unit-disc connectivity). It also provides the hop-distance matrix used to
//! define the semi-global ground truth `D_i^{≤d}` (§6) and the diameter used
//! to relate the semi-global and global problems.
//!
//! [`Topology::from_specs`] builds the graph from a range-sized spatial grid:
//! it bins the sensors into [`GridTiling`] cells at least two radio ranges
//! wide and tests only pairs in the same or adjacent cells, so the number of
//! distance tests grows linearly with the sensor count at constant density
//! (about 35 per sensor on [`LabDeployment::city`]) instead of as N²/2. Its
//! result equals [`Topology::from_specs_reference`], the all-pairs loop it
//! replaced, for every input; `tests/property_topology.rs` checks this.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wsn_data::lab::LabDeployment;
use wsn_data::stream::SensorSpec;
use wsn_data::{GridTiling, Position, SensorId};

/// Hop distance that denotes "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// Telemetry ([`wsn_obs`]): the distance tests [`Topology::from_specs`]
/// made, added once per build. A build that tests every pair shows here as
/// N(N−1)/2 long before it shows in a wall-clock benchmark.
static OBS_PAIR_CHECKS: wsn_obs::Counter = wsn_obs::Counter::new("topology.pair_checks");

/// The most cells the build grid lays along one axis. It keeps the
/// row-major index of `cols × rows` cells below 2⁴⁰ and the rounding of a
/// cell coordinate below 2⁻³⁰ of a cell; a wider extent gets wider cells.
const MAX_GRID_CELLS_PER_AXIS: usize = 1 << 20;

/// An undirected communication graph over a set of sensors.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    positions: BTreeMap<SensorId, Position>,
    neighbors: BTreeMap<SensorId, BTreeSet<SensorId>>,
    range_m: f64,
}

impl Topology {
    /// Builds the topology induced by a radio range over sensor positions:
    /// two sensors are linked when `distance <= range_m`. When two specs
    /// share an id, the later one wins.
    ///
    /// The predicate is the reference's, evaluated on the same operands, but
    /// only on pairs that can pass it. The sensors are binned into a
    /// [`GridTiling`] over their bounding box whose cells are at least
    /// `2 · range_m` wide (an axis narrower than that is one cell), and a
    /// pair is tested only if its cells are the same or adjacent. At
    /// constant density that is a constant number of tests per sensor, so
    /// the build is linear in the sensor count apart from sorting the
    /// sensors by cell; memory is O(N) whatever the extent, because no
    /// per-cell storage exists. The result equals
    /// [`Topology::from_specs_reference`] for every input:
    ///
    /// * A pair that passes the predicate is at most one range apart on each
    ///   axis, up to one rounding of the coordinate difference — or closer
    ///   than `√f64::MIN_POSITIVE` ≈ 1.5·10⁻¹⁵⁴ m, where the squares
    ///   underflow, so cells are at least twice that wide too. A linked pair
    ///   therefore spans at most half a cell on each axis. (On cells one
    ///   range wide, a pair just over one range apart whose difference
    ///   rounds down to the range can land two cells apart.)
    /// * A cell coordinate is the position's offset from the grid origin
    ///   divided by the cell width, two roundings off by at most 2⁻⁵² of the
    ///   extent, which is under 2⁻³⁰ of a cell with at most 2²⁰ cells per
    ///   axis. Half a cell of slack absorbs that, so a linked pair never
    ///   lands two cells apart; no epsilon is involved.
    /// * A sensor with a non-finite coordinate is at distance ∞ or NaN from
    ///   every other, so it can link only at an infinite range, where the
    ///   grid is one cell holding every sensor. At a NaN or negative range
    ///   nothing links and nothing is tested.
    ///
    /// With the `telemetry` feature the number of distance tests is added to
    /// the `topology.pair_checks` counter.
    pub fn from_specs(specs: &[SensorSpec], range_m: f64) -> Self {
        let positions: BTreeMap<SensorId, Position> =
            specs.iter().map(|s| (s.id, s.position)).collect();
        let points: Vec<Position> = positions.values().copied().collect();
        let mut linked: Vec<Vec<usize>> = vec![Vec::new(); points.len()];
        let mut checks = 0u64;
        for_each_candidate_pair(&points, range_m, |a, b| {
            checks += 1;
            if points[a].distance(&points[b]) <= range_m {
                linked[a].push(b);
                linked[b].push(a);
            }
        });
        OBS_PAIR_CHECKS.add(checks);
        let ids: Vec<SensorId> = positions.keys().copied().collect();
        let neighbors = ids
            .iter()
            .zip(linked)
            .map(|(id, near)| (*id, near.into_iter().map(|i| ids[i]).collect()))
            .collect();
        Topology { positions, neighbors, range_m }
    }

    /// The all-pairs build [`Topology::from_specs`] replaced, kept verbatim
    /// as its executable specification: every pair of distinct ids, in
    /// ascending order, is tested with `distance <= range_m`. It makes
    /// N(N−1)/2 distance tests and is called only by tests, which assert
    /// that the bucketed build equals it.
    pub fn from_specs_reference(specs: &[SensorSpec], range_m: f64) -> Self {
        let positions: BTreeMap<SensorId, Position> =
            specs.iter().map(|s| (s.id, s.position)).collect();
        let mut neighbors: BTreeMap<SensorId, BTreeSet<SensorId>> =
            positions.keys().map(|id| (*id, BTreeSet::new())).collect();
        let ids: Vec<SensorId> = positions.keys().copied().collect();
        for (i, a) in ids.iter().enumerate() {
            for b in ids.iter().skip(i + 1) {
                if positions[a].distance(&positions[b]) <= range_m {
                    neighbors.get_mut(a).unwrap().insert(*b);
                    neighbors.get_mut(b).unwrap().insert(*a);
                }
            }
        }
        Topology { positions, neighbors, range_m }
    }

    /// Builds the topology of a lab deployment at the given range.
    pub fn from_deployment(deployment: &LabDeployment, range_m: f64) -> Self {
        Topology::from_specs(deployment.sensors(), range_m)
    }

    /// The radio range the topology was built with, in metres.
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// All sensor ids, in ascending order.
    pub fn sensor_ids(&self) -> Vec<SensorId> {
        self.positions.keys().copied().collect()
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if the topology has no sensors.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of a sensor, if it exists.
    pub fn position(&self, id: SensorId) -> Option<Position> {
        self.positions.get(&id).copied()
    }

    /// The single-hop neighbours of a sensor (empty if the id is unknown).
    pub fn neighbors(&self, id: SensorId) -> Vec<SensorId> {
        self.neighbors_iter(id).collect()
    }

    /// Iterates over the single-hop neighbours of a sensor without
    /// allocating (empty if the id is unknown). This is the form the
    /// per-transmission hot paths use; [`Topology::neighbors`] remains for
    /// callers that want an owned list.
    pub fn neighbors_iter(&self, id: SensorId) -> impl Iterator<Item = SensorId> + '_ {
        self.neighbors.get(&id).into_iter().flat_map(|s| s.iter().copied())
    }

    /// Returns `true` if `a` and `b` are within radio range of each other.
    pub fn are_neighbors(&self, a: SensorId, b: SensorId) -> bool {
        self.neighbors.get(&a).map(|s| s.contains(&b)).unwrap_or(false)
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.values().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Average node degree.
    pub fn average_degree(&self) -> f64 {
        if self.positions.is_empty() {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / self.positions.len() as f64
    }

    /// Hop distances from `source` to every sensor (BFS). Unreachable sensors
    /// get [`UNREACHABLE`].
    pub fn hop_distances_from(&self, source: SensorId) -> BTreeMap<SensorId, u32> {
        let mut dist: BTreeMap<SensorId, u32> =
            self.positions.keys().map(|id| (*id, UNREACHABLE)).collect();
        if !self.positions.contains_key(&source) {
            return dist;
        }
        let mut queue = VecDeque::new();
        dist.insert(source, 0);
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            let d = dist[&v];
            for w in self.neighbors_iter(v) {
                if dist[&w] == UNREACHABLE {
                    dist.insert(w, d + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Hop distance between two sensors, or [`UNREACHABLE`].
    pub fn hop_distance(&self, a: SensorId, b: SensorId) -> u32 {
        *self.hop_distances_from(a).get(&b).unwrap_or(&UNREACHABLE)
    }

    /// The sensors within `d` hops of `source` (including `source` itself),
    /// in ascending id order.
    ///
    /// Runs a depth-bounded BFS that stops expanding at `d` hops, so the
    /// cost is proportional to the `d`-hop ball rather than to the whole
    /// network — the distinction that keeps semi-global ground-truth grading
    /// (one small-`d` ball per sensor) affordable at city scale.
    pub fn within_hops(&self, source: SensorId, d: u32) -> Vec<SensorId> {
        if !self.positions.contains_key(&source) {
            return Vec::new();
        }
        let mut dist: BTreeMap<SensorId, u32> = BTreeMap::new();
        let mut queue = VecDeque::new();
        dist.insert(source, 0);
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            let dv = dist[&v];
            if dv == d {
                continue;
            }
            for w in self.neighbors_iter(v) {
                if let std::collections::btree_map::Entry::Vacant(slot) = dist.entry(w) {
                    slot.insert(dv + 1);
                    queue.push_back(w);
                }
            }
        }
        dist.into_keys().collect()
    }

    /// Returns `true` if every sensor can reach every other sensor.
    pub fn is_connected(&self) -> bool {
        match self.positions.keys().next() {
            None => true,
            Some(first) => self.hop_distances_from(*first).values().all(|d| *d != UNREACHABLE),
        }
    }

    /// The network diameter in hops (largest finite pairwise hop distance).
    /// Returns 0 for empty or single-node networks.
    pub fn diameter(&self) -> u32 {
        let mut max = 0;
        for id in self.positions.keys() {
            for d in self.hop_distances_from(*id).values() {
                if *d != UNREACHABLE && *d > max {
                    max = *d;
                }
            }
        }
        max
    }

    /// Removes a sensor and all its links (used to model node failure).
    ///
    /// Links are symmetric (every build and join inserts both directions),
    /// so only the removed sensor's own neighbours hold it: the cost is
    /// O(degree), not O(N).
    pub fn remove_sensor(&mut self, id: SensorId) {
        self.positions.remove(&id);
        for other in self.neighbors.remove(&id).unwrap_or_default() {
            if let Some(set) = self.neighbors.get_mut(&other) {
                set.remove(&id);
            }
        }
    }

    /// Adds (or re-adds) a sensor at `position`, linking it to every sensor
    /// within radio range — the dual of [`Topology::remove_sensor`], used to
    /// model late joins and rejoins after failure. Returns the sensor's new
    /// single-hop neighbours in ascending order.
    pub fn add_sensor(&mut self, id: SensorId, position: Position) -> Vec<SensorId> {
        // Re-adding an existing id replaces it wholesale (links included).
        self.remove_sensor(id);
        let linked: BTreeSet<SensorId> = self
            .positions
            .iter()
            .filter(|(_, p)| p.distance(&position) <= self.range_m)
            .map(|(other, _)| *other)
            .collect();
        for other in &linked {
            self.neighbors.get_mut(other).unwrap().insert(id);
        }
        let result: Vec<SensorId> = linked.iter().copied().collect();
        self.positions.insert(id, position);
        self.neighbors.insert(id, linked);
        result
    }
}

/// Calls `visit(a, b)`, `a < b`, once on every pair of indices into
/// `points` that [`Topology::from_specs`] tests: the pairs whose cells of
/// [`range_grid`] are the same or adjacent.
fn for_each_candidate_pair(points: &[Position], range_m: f64, mut visit: impl FnMut(usize, usize)) {
    // A distance is never negative. (`-0.0 < 0.0` is false: co-located
    // sensors link at a range of −0.)
    if range_m.is_nan() || range_m < 0.0 {
        return;
    }
    let grid = range_grid(points, range_m);
    // Sorted by (cell, index), each cell is one run of ascending indices.
    let mut binned: Vec<(usize, usize)> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_finite() || range_m == f64::INFINITY)
        .map(|(i, p)| (grid.cell_of(p), i))
        .collect();
    binned.sort_unstable();
    fn run_of(binned: &[(usize, usize)], cell: usize) -> &[(usize, usize)] {
        let start = binned.partition_point(|(c, _)| *c < cell);
        let len = binned[start..].partition_point(|(c, _)| *c == cell);
        &binned[start..start + len]
    }
    let cols = grid.cols();
    let mut start = 0;
    while start < binned.len() {
        let cell = binned[start].0;
        let here = run_of(&binned, cell);
        for (k, &(_, a)) in here.iter().enumerate() {
            for &(_, b) in &here[k + 1..] {
                visit(a, b);
            }
        }
        // The four adjacent cells after this one in row-major order; the
        // four before it visit this cell themselves.
        let (col, row) = (cell % cols, cell / cols);
        let (right, down) = (col + 1 < cols, row + 1 < grid.rows());
        let later = [
            right.then(|| cell + 1),
            (down && col > 0).then(|| cell + cols - 1),
            down.then(|| cell + cols),
            (down && right).then(|| cell + cols + 1),
        ];
        for there in later.into_iter().flatten().map(|c| run_of(&binned, c)) {
            for &(_, a) in here {
                for &(_, b) in there {
                    visit(a.min(b), a.max(b));
                }
            }
        }
        start += here.len();
    }
}

/// The grid of [`Topology::from_specs`]: the bounding box of the finite
/// `points` tiled into cells at least `2 · max(range_m, √f64::MIN_POSITIVE)`
/// wide, at most [`MAX_GRID_CELLS_PER_AXIS`] per axis.
fn range_grid(points: &[Position], range_m: f64) -> GridTiling {
    let cell = 2.0 * range_m.max(f64::MIN_POSITIVE.sqrt());
    let finite = || points.iter().filter(|p| p.is_finite());
    let (x0, width, cols) = grid_axis(finite().map(|p| p.x), cell);
    let (y0, height, rows) = grid_axis(finite().map(|p| p.y), cell);
    GridTiling::new(Position::new(x0, y0), width, height, cols, rows)
}

/// One axis of [`range_grid`]: the origin, extent and number of cells at
/// least `cell` wide that cover `values`. An empty axis, or one whose extent
/// exceeds `f64::MAX`, is a single cell of zero width.
fn grid_axis(values: impl Iterator<Item = f64>, cell: f64) -> (f64, f64, usize) {
    let (lo, hi) = extent(values);
    let span = hi - lo;
    if !span.is_finite() {
        return (0.0, 0.0, 1);
    }
    // `as` saturates, so a quotient beyond `usize::MAX` still clamps.
    let cells = ((span / cell).floor() as usize).clamp(1, MAX_GRID_CELLS_PER_AXIS);
    (lo, span, cells)
}

/// The smallest and largest of `values`: `(∞, −∞)` when there are none.
pub(crate) fn extent(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_data::lab::PAPER_TRANSMISSION_RANGE_M;

    fn line_specs(n: u32, spacing: f64) -> Vec<SensorSpec> {
        (0..n)
            .map(|i| SensorSpec::new(SensorId(i), Position::new(i as f64 * spacing, 0.0)))
            .collect()
    }

    #[test]
    fn line_topology_has_chain_neighbors() {
        let t = Topology::from_specs(&line_specs(5, 5.0), 6.0);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.edge_count(), 4);
        assert!(t.are_neighbors(SensorId(0), SensorId(1)));
        assert!(!t.are_neighbors(SensorId(0), SensorId(2)));
        assert_eq!(t.neighbors(SensorId(2)), vec![SensorId(1), SensorId(3)]);
        assert_eq!(t.neighbors(SensorId(99)), vec![]);
        assert!((t.average_degree() - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn hop_distances_follow_the_chain() {
        let t = Topology::from_specs(&line_specs(5, 5.0), 6.0);
        assert_eq!(t.hop_distance(SensorId(0), SensorId(0)), 0);
        assert_eq!(t.hop_distance(SensorId(0), SensorId(4)), 4);
        assert_eq!(t.hop_distance(SensorId(4), SensorId(0)), 4);
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.within_hops(SensorId(2), 1).len(), 3);
        assert_eq!(t.within_hops(SensorId(0), 2).len(), 3);
    }

    #[test]
    fn disconnected_graph_is_detected() {
        // Two pairs far apart.
        let specs = vec![
            SensorSpec::new(SensorId(0), Position::new(0.0, 0.0)),
            SensorSpec::new(SensorId(1), Position::new(1.0, 0.0)),
            SensorSpec::new(SensorId(2), Position::new(100.0, 0.0)),
            SensorSpec::new(SensorId(3), Position::new(101.0, 0.0)),
        ];
        let t = Topology::from_specs(&specs, 5.0);
        assert!(!t.is_connected());
        assert_eq!(t.hop_distance(SensorId(0), SensorId(2)), UNREACHABLE);
        let connected = Topology::from_specs(&specs, 200.0);
        assert!(connected.is_connected());
        assert_eq!(connected.diameter(), 1);
    }

    #[test]
    fn empty_and_unknown_sources_are_handled() {
        let t = Topology::from_specs(&[], 5.0);
        assert!(t.is_connected());
        assert!(t.is_empty());
        assert_eq!(t.diameter(), 0);
        let t = Topology::from_specs(&line_specs(2, 1.0), 5.0);
        let d = t.hop_distances_from(SensorId(42));
        assert!(d.values().all(|v| *v == UNREACHABLE));
    }

    #[test]
    fn removing_a_cut_vertex_disconnects_the_chain() {
        let mut t = Topology::from_specs(&line_specs(5, 5.0), 6.0);
        t.remove_sensor(SensorId(2));
        assert_eq!(t.len(), 4);
        assert!(!t.is_connected());
        assert!(!t.neighbors(SensorId(1)).contains(&SensorId(2)));
    }

    #[test]
    fn adding_a_sensor_restores_links_in_both_directions() {
        let mut t = Topology::from_specs(&line_specs(5, 5.0), 6.0);
        let position = t.position(SensorId(2)).unwrap();
        t.remove_sensor(SensorId(2));
        assert!(!t.is_connected());
        let linked = t.add_sensor(SensorId(2), position);
        assert_eq!(linked, vec![SensorId(1), SensorId(3)]);
        assert!(t.is_connected());
        assert!(t.are_neighbors(SensorId(1), SensorId(2)));
        assert!(t.are_neighbors(SensorId(2), SensorId(3)));
        assert_eq!(t, Topology::from_specs(&line_specs(5, 5.0), 6.0));
    }

    #[test]
    fn adding_a_sensor_at_a_new_position_relinks_it() {
        let mut t = Topology::from_specs(&line_specs(3, 5.0), 6.0);
        // Move sensor 0 next to sensor 2: its old link to 1 must vanish.
        let linked = t.add_sensor(SensorId(0), Position::new(11.0, 0.0));
        assert_eq!(linked, vec![SensorId(1), SensorId(2)]);
        let far = t.add_sensor(SensorId(0), Position::new(1000.0, 0.0));
        assert!(far.is_empty());
        assert!(!t.are_neighbors(SensorId(0), SensorId(1)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn lab_deployment_topology_matches_the_paper_description() {
        let d = LabDeployment::standard(0);
        let t = Topology::from_deployment(&d, PAPER_TRANSMISSION_RANGE_M);
        assert_eq!(t.len(), 53);
        assert!(t.is_connected());
        assert!(t.diameter() >= 4, "53 nodes on a 50 m floor at 6.77 m range are multi-hop");
        assert!((t.range_m() - PAPER_TRANSMISSION_RANGE_M).abs() < 1e-12);
        assert_eq!(t.sensor_ids().len(), 53);
        assert!(t.position(SensorId(0)).is_some());
        assert!(t.position(SensorId(999)).is_none());
    }
}
