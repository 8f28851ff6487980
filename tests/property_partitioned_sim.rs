//! Bit-for-bit equality of the partitioned and sequential simulation
//! backends, as a seeded 256-case property suite.
//!
//! The partitioned engine's whole claim (see `wsn_netsim::region`) is that
//! spatial parallelism is **observationally free**: every outcome — packet
//! counters, energy floats, detector estimates, accuracy grades, quiescence —
//! is identical to the sequential backend's, not merely statistically close.
//! The sequential backend is a one-region partition, whose single region
//! runs its engine straight to each deadline with no epoch loop. This suite
//! sweeps the experiment space (algorithm × loss × missing-data × deployment
//! size × trace/sim seeds) crossed with `Partitioned` region counts
//! {1, 2, 4, 9} and asserts exact equality of the full outcome on every one
//! of the 256 cases. Floats are compared with `==` deliberately: the determinism recipe
//! promises identical accumulation order, and a tolerance would let a real
//! ordering bug hide inside it.

use in_network_outlier::detection::experiment::{
    run_experiment, AlgorithmConfig, ExperimentConfig, RankingChoice,
};
use in_network_outlier::prelude::*;
use wsn_netsim::region::SimBackend;

/// The region counts each base configuration is replayed under. One region
/// must build the same single-region engine as the sequential backend; nine
/// on a 9-sensor deployment exercises the region-count cap.
const REGION_COUNTS: [usize; 4] = [1, 2, 4, 9];

fn base_configs() -> Vec<ExperimentConfig> {
    let mut configs = Vec::new();
    for &algorithm in &[
        AlgorithmConfig::Global { ranking: RankingChoice::Nn },
        AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 },
    ] {
        for &loss in &[LossModel::Reliable, LossModel::bernoulli(0.1)] {
            for &missing in &[0.0, 0.05] {
                for &sensor_count in &[9, 16] {
                    for &(trace_seed, sim_seed) in &[(7, 1), (11, 2), (13, 3), (17, 5)] {
                        let mut config = ExperimentConfig::small().with_algorithm(algorithm);
                        config.loss = loss;
                        config.trace.missing_probability = missing;
                        config.sensor_count = sensor_count;
                        config.trace_seed = trace_seed;
                        config.sim_seed = sim_seed;
                        configs.push(config);
                    }
                }
            }
        }
    }
    configs
}

#[test]
fn partitioned_experiments_match_sequential_bit_for_bit_across_256_cases() {
    let mut cases = 0usize;
    for base in base_configs() {
        let sequential = run_experiment(&base).expect("sequential run succeeds");
        for regions in REGION_COUNTS {
            let partitioned =
                run_experiment(&base.clone().with_backend(SimBackend::Partitioned { regions }))
                    .expect("partitioned run succeeds");
            cases += 1;
            let ctx = format!(
                "case {cases}: {} loss={:?} missing={} sensors={} trace_seed={} sim_seed={} regions={regions}",
                sequential.label,
                base.loss,
                base.trace.missing_probability,
                base.sensor_count,
                base.trace_seed,
                base.sim_seed,
            );
            // Exact equality of every observable, floats included.
            assert_eq!(sequential.stats, partitioned.stats, "stats diverged: {ctx}");
            assert_eq!(sequential.accuracy, partitioned.accuracy, "accuracy diverged: {ctx}");
            assert_eq!(sequential.labels, partitioned.labels, "labels diverged: {ctx}");
            assert_eq!(
                sequential.all_estimates_agree, partitioned.all_estimates_agree,
                "agreement diverged: {ctx}"
            );
            assert_eq!(sequential.quiescent, partitioned.quiescent, "quiescence diverged: {ctx}");
            assert_eq!(
                sequential.data_points_sent, partitioned.data_points_sent,
                "protocol traffic diverged: {ctx}"
            );
        }
    }
    assert_eq!(cases, 256, "the sweep is meant to cover exactly 256 cases");
}
