//! The bucketed topology build equals the all-pairs reference.
//!
//! `Topology::from_specs` tests only the sensor pairs in the same or
//! adjacent cells of a grid sized by the radio range;
//! `Topology::from_specs_reference` tests every pair. These seeded suites
//! assert that the two builds return the same topology on every layout
//! family, every kind of range (zero, tiny, the paper's, wider than the
//! extent, infinite, NaN, negative), pairs exactly one range apart at
//! offsets where rounding decides whether they link, and non-finite
//! coordinates. A last suite checks that joins and leaves patched into a
//! built topology equal a rebuild of the surviving sensors.

use std::collections::BTreeMap;

use wsn_data::lab::{LabDeployment, PAPER_TRANSMISSION_RANGE_M};
use wsn_data::rng::SeededRng;
use wsn_data::stream::SensorSpec;
use wsn_data::{Position, SensorId};
use wsn_netsim::topology::Topology;

/// Asserts that the bucketed build of `specs` equals the reference build.
/// Where a NaN coordinate or range defeats `==`, the two are compared
/// through their sensor ids, every neighbour list and the bits of every
/// position and of the range.
fn assert_builds_agree(specs: &[SensorSpec], range_m: f64, ctx: &str) -> Topology {
    let fast = Topology::from_specs(specs, range_m);
    let reference = Topology::from_specs_reference(specs, range_m);
    let comparable =
        !range_m.is_nan() && specs.iter().all(|s| !s.position.x.is_nan() && !s.position.y.is_nan());
    if comparable {
        assert_eq!(fast, reference, "{ctx}");
    } else {
        let ids = reference.sensor_ids();
        assert_eq!(fast.sensor_ids(), ids, "{ctx}");
        for id in ids {
            assert_eq!(fast.neighbors(id), reference.neighbors(id), "{ctx}: neighbours of {id:?}");
            let bits = |t: &Topology| t.position(id).map(|p| (p.x.to_bits(), p.y.to_bits()));
            assert_eq!(bits(&fast), bits(&reference), "{ctx}: position of {id:?}");
        }
        assert_eq!(fast.range_m().to_bits(), reference.range_m().to_bits(), "{ctx}");
    }
    fast
}

fn specs_at(positions: impl IntoIterator<Item = Position>) -> Vec<SensorSpec> {
    positions.into_iter().enumerate().map(|(i, p)| SensorSpec::new(SensorId(i as u32), p)).collect()
}

/// One seeded layout of `n` sensors from one of four families, placed at
/// an offset that is sometimes far from the origin.
fn layout(rng: &mut SeededRng, family: usize, n: usize) -> Vec<SensorSpec> {
    if n == 0 {
        return Vec::new();
    }
    let offset = [0.0, -250.0, 1e5, -3e6, 1e7][rng.gen_index(5)];
    let origin = Position::new(offset, -offset / 2.0);
    let pitch = rng.gen_range(2.0..12.0);
    let side = (n as f64).sqrt() * pitch;
    let positions: Vec<Position> = match family {
        // Uniform over a square.
        0 => (0..n)
            .map(|_| {
                Position::new(
                    origin.x + rng.gen_range(0.0..side),
                    origin.y + rng.gen_range(0.0..side),
                )
            })
            .collect(),
        // Tight Gaussian clusters around a few centres, some co-located.
        1 => {
            let centres: Vec<Position> = (0..rng.gen_range(1usize..6))
                .map(|_| Position::new(rng.gen_range(0.0..4.0 * side), rng.gen_range(0.0..side)))
                .collect();
            (0..n)
                .map(|_| {
                    let c = centres[rng.gen_index(centres.len())];
                    let spread = if rng.gen_bool(0.1) { 0.0 } else { side / 3.0 };
                    Position::new(
                        origin.x + rng.gen_gaussian(c.x, spread),
                        origin.y + rng.gen_gaussian(c.y, spread),
                    )
                })
                .collect()
        }
        // A horizontal, vertical or slanted line at a near-range spacing.
        2 => {
            let (dx, dy) = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)][rng.gen_index(3)];
            let step = [PAPER_TRANSMISSION_RANGE_M, pitch][rng.gen_index(2)];
            (0..n)
                .map(|i| {
                    let t = i as f64 * step;
                    Position::new(origin.x + t * dx, origin.y + t * dy)
                })
                .collect()
        }
        // The city-scale deployment, as the streaming benchmark builds it.
        _ => LabDeployment::city(n, rng.next_u64())
            .expect("a positive sensor count")
            .sensors()
            .iter()
            .map(|s| s.position)
            .collect(),
    };
    specs_at(positions)
}

/// Adds the awkward specs to a layout: duplicate ids (the later spec must
/// win), co-located sensors under fresh ids and, sometimes, non-finite
/// coordinates.
fn perturb(rng: &mut SeededRng, specs: &mut Vec<SensorSpec>) {
    if specs.is_empty() {
        return;
    }
    let n = specs.len();
    let next_id = n as u32;
    if rng.gen_bool(0.3) {
        for _ in 0..rng.gen_range(1usize..4) {
            let mut moved = specs[rng.gen_index(n)];
            moved.position = specs[rng.gen_index(n)].position;
            specs.push(moved);
        }
    }
    if rng.gen_bool(0.3) {
        for k in 0..rng.gen_range(1u32..4) {
            let twin = specs[rng.gen_index(n)].position;
            specs.push(SensorSpec::new(SensorId(next_id + k), twin));
        }
    }
    if rng.gen_bool(0.15) {
        let strange = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for _ in 0..rng.gen_range(1usize..3) {
            let i = rng.gen_index(specs.len());
            let bad = strange[rng.gen_index(3)];
            if rng.gen_bool(0.5) {
                specs[i].position.x = bad;
            } else {
                specs[i].position.y = bad;
            }
        }
    }
    rng.shuffle(specs);
}

/// The bounding-box diagonal of the finite positions (0 when there are
/// none), for ranges wider than the whole layout.
fn finite_extent(specs: &[SensorSpec]) -> f64 {
    let finite: Vec<Position> =
        specs.iter().map(|s| s.position).filter(|p| p.is_finite()).collect();
    let span = |coord: fn(&Position) -> f64| {
        let lo = finite.iter().map(coord).fold(f64::INFINITY, f64::min);
        let hi = finite.iter().map(coord).fold(f64::NEG_INFINITY, f64::max);
        (hi - lo).max(0.0)
    };
    span(|p| p.x).hypot(span(|p| p.y))
}

/// 320 seeded cases: four layout families × sizes 0, 1, 2 and up to 2 000
/// sensors × every kind of range, with duplicate ids, co-located sensors
/// and non-finite coordinates mixed in.
#[test]
fn bucketed_build_equals_the_reference_across_320_cases() {
    const SEED: u64 = 0x70B0_1001;
    const CASES: usize = 320;
    let mut rng = SeededRng::seed_from_u64(SEED);
    let mut edges = 0usize;
    for case in 0..CASES {
        let family = case % 4;
        let n = match (case / 4) % 10 {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => rng.gen_range(300usize..2_001),
            _ => rng.gen_range(3usize..300),
        };
        let mut specs = layout(&mut rng, family, n);
        perturb(&mut rng, &mut specs);
        let extent = finite_extent(&specs);
        let ranges = [
            0.0,
            -0.0,
            1e-9,
            PAPER_TRANSMISSION_RANGE_M,
            rng.gen_range(0.1..20.0),
            2.0 * extent + 1.0,
            f64::INFINITY,
            f64::NAN,
            -1.0,
        ];
        let range_m = ranges[rng.gen_index(ranges.len())];
        // A range that links everything would make a 2 000-sensor case a
        // complete graph of 2 million edges; the smaller sizes cover it.
        let range_m = if specs.len() > 300 && range_m >= extent {
            PAPER_TRANSMISSION_RANGE_M
        } else {
            range_m
        };
        let ctx = format!(
            "case {case} (seed {SEED:#x}): family {family}, {} specs, range {range_m:e}",
            specs.len()
        );
        edges += assert_builds_agree(&specs, range_m, &ctx).edge_count();
    }
    assert!(edges > 0, "the cases must build some links");
}

/// Pairs exactly one range apart, placed at and around every multiple of
/// the range from an anchor (so they straddle the borders of any grid whose
/// cells are a whole number of ranges wide), along an axis or a diagonal,
/// at offsets up to 10⁷ m where the rounding of `a + range` and of the
/// distance decides whether the pair links. Both builds must decide alike,
/// and the rounding must go both ways somewhere, or the suite tests nothing.
#[test]
fn pairs_one_range_apart_link_alike_across_cell_borders() {
    let mut rng = SeededRng::seed_from_u64(0x70B0_1002);
    let (mut linked, mut pairs) = (0usize, 0usize);
    for &offset in &[0.0, 1.0, -1e3, 1e5, 1e7, -1e7] {
        for &range_m in &[PAPER_TRANSMISSION_RANGE_M, 1.0, 0.1, 3.3e-3] {
            // Anchors fix the extent at 16 ranges on both axes.
            let span = 16.0 * range_m;
            let mut positions =
                vec![Position::new(offset, offset), Position::new(offset + span, offset + span)];
            let mut members = Vec::new();
            for j in 0..16 {
                for &shift in &[0.0, -1e-12, 1e-12, 0.5, rng.gen_range(-0.5..0.5)] {
                    let (dx, dy) =
                        [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.8, -0.6)][rng.gen_index(4)];
                    let at = |t: f64| offset + t * range_m;
                    // The pair's far coordinate is the near one plus the
                    // range's component, rounded at the offset's scale.
                    let lane = rng.gen_range(1.0..15.0);
                    let a = if dx == 0.0 {
                        Position::new(at(lane), at(j as f64 + shift))
                    } else {
                        Position::new(at(j as f64 + shift), at(lane))
                    };
                    let b = Position::new(a.x + range_m * dx, a.y + range_m * dy);
                    members.push((positions.len(), positions.len() + 1));
                    positions.push(a);
                    positions.push(b);
                }
            }
            let specs = specs_at(positions);
            let ctx = format!("offset {offset:e}, range {range_m}");
            let built = assert_builds_agree(&specs, range_m, &ctx);
            for (a, b) in members {
                pairs += 1;
                linked += usize::from(built.are_neighbors(SensorId(a as u32), SensorId(b as u32)));
            }
        }
    }
    assert!(
        linked > 0 && linked < pairs,
        "{linked} of {pairs} pairs linked: rounding never decided"
    );
}

/// Extents the grid must survive without allocating per cell or
/// panicking: two sensors 10⁹ m apart at a 1 m range, gaps far beyond any
/// cell budget at tiny ranges, coordinates whose difference overflows
/// `f64`, subnormal separations that underflow in the distance, and layouts
/// made only of non-finite coordinates. Each of the first two cases holds
/// a pair slightly more than one range apart whose difference rounds down
/// to exactly the range, so it links; on a grid of cells one range wide
/// from the left anchor, its sensors fall two cells apart and the link
/// would be missed.
#[test]
fn extreme_extents_and_coordinates_build_like_the_reference() {
    let far = |x: f64, y: f64| vec![Position::new(0.0, 0.0), Position::new(x, y)];
    let on_x = |xs: &[f64]| xs.iter().map(|x| Position::new(*x, 0.0)).collect::<Vec<_>>();
    let cases: Vec<(Vec<Position>, f64)> = vec![
        (on_x(&[0.0, 1.0 - f64::EPSILON / 2.0, 2.0, 4.0]), 1.0),
        (on_x(&[0.0, 13.539999999999996, 20.309999999999995, 23.0 * 6.77]), 6.77),
        (far(1e9, 0.0), 1.0),
        (far(1e9, 1e9), 1.0),
        (far(1e300, -1e300), 1e-300),
        (far(1e-300, 0.0), 0.0),
        (far(5e-324, 5e-324), 0.0),
        (far(1e-160, 0.0), 1e-200),
        (
            vec![
                Position::new(-1.5e308, 0.0),
                Position::new(1.5e308, 0.0),
                Position::new(1.5e308, 1.0),
            ],
            2.0,
        ),
        (vec![Position::new(-1.5e308, 0.0), Position::new(1.5e308, 0.0)], f64::INFINITY),
        (vec![Position::new(f64::NAN, 0.0), Position::new(f64::INFINITY, 1.0)], f64::INFINITY),
        (
            vec![
                Position::new(f64::INFINITY, 0.0),
                Position::new(f64::NEG_INFINITY, 0.0),
                Position::new(0.0, f64::INFINITY),
                Position::new(f64::INFINITY, 0.0),
                Position::new(3.0, 4.0),
            ],
            f64::INFINITY,
        ),
        (vec![Position::new(f64::INFINITY, 0.0), Position::new(1.0, 0.0)], 1e300),
        (vec![Position::new(0.0, 0.0); 50], -0.0),
        (vec![Position::new(0.0, 0.0); 50], f64::NAN),
    ];
    for (i, (positions, range_m)) in cases.into_iter().enumerate() {
        let specs = specs_at(positions);
        assert_builds_agree(&specs, range_m, &format!("extreme case {i}, range {range_m:e}"));
    }
}

/// A built topology patched by joins and leaves equals a fresh build of the
/// surviving sensors after every step: random removals, rejoins at the old
/// position, moves and brand-new ids, 64 steps on each of four seeded
/// layouts. Every join's returned list must equal the joined sensor's
/// neighbours.
#[test]
fn joins_and_leaves_agree_with_a_rebuild_across_256_steps() {
    const SEED: u64 = 0x70B0_1003;
    let mut rng = SeededRng::seed_from_u64(SEED);
    let mut steps = 0;
    for family in 0..4 {
        let specs = layout(&mut rng, family, 120);
        let range_m = PAPER_TRANSMISSION_RANGE_M;
        let mut topology = Topology::from_specs(&specs, range_m);
        let mut live: BTreeMap<SensorId, Position> =
            specs.iter().map(|s| (s.id, s.position)).collect();
        let mut departed: BTreeMap<SensorId, Position> = BTreeMap::new();
        let mut next_id = specs.len() as u32;
        let near = |rng: &mut SeededRng, live: &BTreeMap<SensorId, Position>| {
            let anchor = *live.values().nth(rng.gen_index(live.len())).expect("a live sensor");
            Position::new(
                anchor.x + rng.gen_range(-range_m..range_m),
                anchor.y + rng.gen_range(-range_m..range_m),
            )
        };
        for step in 0..64 {
            let ctx = format!("family {family}, step {step} (seed {SEED:#x})");
            let joined = match rng.gen_index(4) {
                0 if live.len() > 1 => {
                    let id = *live.keys().nth(rng.gen_index(live.len())).expect("a live sensor");
                    let position = live.remove(&id).expect("live");
                    topology.remove_sensor(id);
                    departed.insert(id, position);
                    None
                }
                1 if !departed.is_empty() => {
                    let id = *departed.keys().nth(rng.gen_index(departed.len())).expect("departed");
                    Some((id, departed.remove(&id).expect("departed")))
                }
                2 => {
                    let id = *live.keys().nth(rng.gen_index(live.len())).expect("a live sensor");
                    Some((id, near(&mut rng, &live)))
                }
                _ => {
                    next_id += 1;
                    Some((SensorId(next_id), near(&mut rng, &live)))
                }
            };
            if let Some((id, position)) = joined {
                let returned = topology.add_sensor(id, position);
                live.insert(id, position);
                assert_eq!(returned, topology.neighbors(id), "{ctx}: join of {id:?}");
            }
            let surviving: Vec<SensorSpec> =
                live.iter().map(|(id, p)| SensorSpec::new(*id, *p)).collect();
            assert_eq!(topology, Topology::from_specs(&surviving, range_m), "{ctx}");
            steps += 1;
        }
    }
    assert_eq!(steps, 256);
}
