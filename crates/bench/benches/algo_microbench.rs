//! Micro-benchmarks of the pure-algorithm building blocks: ranking, top-n
//! selection, support sets, sufficient sets, and per-event node processing.
//! These are the per-event costs a real mote's CPU would pay, independent of
//! the radio. Runs on the std-only harness in `wsn_bench::harness` and writes
//! `BENCH_algo_microbench.json`.

use std::hint::black_box;

use wsn_bench::harness::Harness;
use wsn_core::detector::OutlierDetector;
use wsn_core::node::DetectorNode;
use wsn_core::sufficient::{
    sufficient_set, sufficient_set_indexed, sufficient_set_rebuild_reference, FixedPointEngine,
};
use wsn_data::rng::SeededRng;
use wsn_data::window::WindowConfig;
use wsn_data::{DataPoint, Epoch, PointSet, SensorId, Timestamp};
use wsn_ranking::function::support_of_set;
use wsn_ranking::index::{AnyIndex, IndexStrategy, NeighborIndex};
use wsn_ranking::{
    top_n_outliers, top_n_outliers_indexed, KnnAverageDistance, NnDistance, RankingFunction,
};

/// Builds a clustered dataset of `size` points with a handful of outliers,
/// mimicking one sensor neighbourhood's [temperature, x, y] feature vectors.
fn dataset(size: usize, seed: u64) -> PointSet {
    let mut rng = SeededRng::seed_from_u64(seed);
    (0..size)
        .map(|i| {
            let outlier = i % 97 == 0;
            let temp = if outlier {
                100.0 + rng.gen_range(0.0..10.0)
            } else {
                21.0 + rng.gen_range(-1.0..1.0)
            };
            let x = rng.gen_range(0.0..50.0);
            let y = rng.gen_range(0.0..50.0);
            DataPoint::new(
                SensorId((i % 53) as u32),
                Epoch(i as u64),
                Timestamp::from_secs(i as u64),
                vec![temp, x, y],
            )
            .unwrap()
        })
        .collect()
}

fn bench_top_n(h: &mut Harness) {
    for &size in &[64usize, 256, 1024] {
        let data = dataset(size, 1);
        h.bench("top_n_outliers", &format!("nn/{size}"), || {
            black_box(top_n_outliers(&NnDistance, black_box(4), &data));
        });
        h.bench("top_n_outliers", &format!("knn4/{size}"), || {
            black_box(top_n_outliers(&KnnAverageDistance::new(4), black_box(4), &data));
        });
    }
}

fn bench_support_sets(h: &mut Harness) {
    for &size in &[64usize, 256, 1024] {
        let data = dataset(size, 2);
        let query = top_n_outliers(&NnDistance, 4, &data).to_point_set();
        h.bench("support_of_set", &format!("nn/{size}"), || {
            black_box(support_of_set(&NnDistance, &data, &query));
        });
        h.bench("support_of_set", &format!("knn4/{size}"), || {
            black_box(support_of_set(&KnnAverageDistance::new(4), &data, &query));
        });
    }
}

fn bench_sufficient_set(h: &mut Harness) {
    for &size in &[64usize, 256, 1024] {
        let pi = dataset(size, 3);
        // The neighbour already shares roughly half of P_i.
        let known: PointSet = pi.iter().take(size / 2).cloned().collect();
        h.bench("sufficient_set", &format!("nn_empty_known/{size}"), || {
            black_box(sufficient_set(&NnDistance, 4, &pi, &PointSet::new()));
        });
        h.bench("sufficient_set", &format!("nn_half_known/{size}"), || {
            black_box(sufficient_set(&NnDistance, 4, &pi, &known));
        });
        h.bench("sufficient_set", &format!("knn4_half_known/{size}"), || {
            black_box(sufficient_set(&KnnAverageDistance::new(4), 4, &pi, &known));
        });
    }
}

/// Head-to-head comparison of the three index strategies on the hot-path
/// kernels, at the window sizes of the figure sweeps. `nn_brute` is the
/// pre-index baseline (the original per-query full sort); the auto strategy
/// used by the public entry points picks `kd` at these sizes.
fn bench_index_strategies(h: &mut Harness) {
    let strategies = [
        ("brute", IndexStrategy::Brute),
        ("grid", IndexStrategy::Grid),
        ("kd", IndexStrategy::KdTree),
    ];
    for &size in &[64usize, 256, 1024] {
        let pi = dataset(size, 6);
        for (label, strategy) in strategies {
            h.bench("index_build", &format!("{label}/{size}"), || {
                black_box(AnyIndex::build(strategy, &pi));
            });
            let index = AnyIndex::build(strategy, &pi);
            h.bench("index_knn_query", &format!("{label}/{size}"), || {
                for x in pi.iter().take(16) {
                    black_box(index.k_nearest(black_box(x), 4));
                }
            });
            h.bench("top_n_strategy", &format!("knn4_{label}/{size}"), || {
                black_box(top_n_outliers_indexed(&KnnAverageDistance::new(4), 4, &pi, &index));
            });
            h.bench("sufficient_set_strategy", &format!("nn_{label}/{size}"), || {
                black_box(sufficient_set_indexed(&NnDistance, 4, &pi, &index, &PointSet::new()));
            });
        }
    }
}

/// The equation (2) fixed point head-to-head: the incremental
/// [`FixedPointEngine`] (one dynamic index seeded per call, zero throwaway
/// builds) against the rebuild-per-iteration reference it replaced, at the
/// figure sweeps' window sizes and three shared-knowledge regimes — the
/// neighbour knows nothing, a quarter of `P_i`, or all of it (`|known| ∈
/// {0, w/4, w}`). `engine_cold` pays the per-revision seed/support caching
/// on every call; `engine_warm` reuses one engine at a fixed revision, the
/// way the detectors call it for every neighbour after the first.
fn bench_fixed_point(h: &mut Harness) {
    for &size in &[64usize, 256, 1024] {
        let pi = dataset(size, 7);
        let index = AnyIndex::build(IndexStrategy::Auto, &pi);
        for (label, count) in [("none", 0usize), ("quarter", size / 4), ("all", size)] {
            let known: PointSet = pi.iter().take(count).cloned().collect();
            h.bench("fixed_point", &format!("reference_nn_{label}/{size}"), || {
                black_box(sufficient_set_rebuild_reference(
                    &NnDistance,
                    4,
                    &pi,
                    &index,
                    black_box(&known),
                ));
            });
            h.bench("fixed_point", &format!("engine_cold_nn_{label}/{size}"), || {
                let mut engine = FixedPointEngine::new();
                black_box(engine.sufficient_set(
                    &NnDistance,
                    4,
                    &pi,
                    Some(&index),
                    SensorId(1),
                    black_box(&known),
                    (0, 0),
                ));
            });
            let mut warm = FixedPointEngine::new();
            h.bench("fixed_point", &format!("engine_warm_nn_{label}/{size}"), || {
                black_box(warm.sufficient_set(
                    &NnDistance,
                    4,
                    &pi,
                    Some(&index),
                    SensorId(1),
                    black_box(&known),
                    (0, 0),
                ));
            });
        }
    }
}

fn bench_ranking_functions(h: &mut Harness) {
    let data = dataset(512, 4);
    let x = data.iter().next().unwrap().clone();
    h.bench("rank_single_point", "nn", || {
        black_box(NnDistance.rank(black_box(&x), &data));
    });
    h.bench("rank_single_point", "knn4", || {
        black_box(KnnAverageDistance::new(4).rank(black_box(&x), &data));
    });
}

fn bench_node_processing(h: &mut Harness) {
    let window = WindowConfig::from_secs(1_000_000).unwrap();
    for &size in &[64usize, 256] {
        let points: Vec<DataPoint> = dataset(size, 5).to_vec();
        h.bench_with_setup(
            "node_process_event",
            &format!("global_nn/{size}"),
            || {
                let mut node = DetectorNode::new(SensorId(0), NnDistance, 4, None, window);
                node.add_local_points(points.clone());
                node
            },
            |mut node| {
                black_box(node.process(&[SensorId(1), SensorId(2), SensorId(3)]));
            },
        );
        h.bench_with_setup(
            "node_process_event",
            &format!("semiglobal_nn_d2/{size}"),
            || {
                let mut node = DetectorNode::new(SensorId(0), NnDistance, 4, Some(2), window);
                node.add_local_points(points.clone());
                node
            },
            |mut node| {
                black_box(node.process(&[SensorId(1), SensorId(2), SensorId(3)]));
            },
        );
    }
}

fn main() {
    let mut h = Harness::from_args("algo_microbench");
    bench_top_n(&mut h);
    bench_support_sets(&mut h);
    bench_sufficient_set(&mut h);
    bench_index_strategies(&mut h);
    bench_fixed_point(&mut h);
    bench_ranking_functions(&mut h);
    bench_node_processing(&mut h);
    h.finish();
}
