//! # in-network-outlier
//!
//! A from-scratch Rust reproduction of *In-Network Outlier Detection in
//! Wireless Sensor Networks* (Branch, Giannella, Szymanski, Wolff, Kargupta —
//! ICDCS 2006; extended journal version arXiv:0909.0685).
//!
//! The paper's contribution is a distributed algorithm by which every sensor
//! of a wireless sensor network converges — using only single-hop broadcasts
//! of carefully chosen *sufficient* points — on the exact top-`n` outliers of
//! the union of all sensors' sliding windows, for any outlier ranking
//! function satisfying two axioms (anti-monotonicity and smoothness). A
//! hop-limited ("semi-global") variant confines detection to each sensor's
//! `d`-hop neighbourhood.
//!
//! This crate is a facade over the four workspace crates that implement the
//! paper and every substrate it depends on:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`data`] | `wsn-data` | data points, tie-breaking total order, sliding windows, sensor streams, the 53-sensor Intel-lab-like deployment and its synthetic trace |
//! | [`ranking`] | `wsn-ranking` | the outlier ranking functions (NN, average k-NN, k-th-NN, inverse neighbour count), support sets, top-`n` selection, axiom checks |
//! | [`netsim`] | `wsn-netsim` | the discrete-event WSN simulator: unit-disc radio, broadcast MAC with promiscuous listening, Crossbow-mote energy model, AODV-style routing, packet loss |
//! | [`detection`] | `wsn-core` | Algorithms 1 and 2 (global and semi-global detection), the centralized baseline, accuracy metrics, and the batch + streaming experiment runners behind every figure |
//! | [`trace`] | `wsn-trace` | import of the real Intel-lab trace files and lossless CSV archiving of any deployment trace |
//! | [`workload`] | `wsn-workload` | scenario/anomaly-injection layer: the sensor-fault taxonomy, correlated bursts, adversarial rank-boundary placements, multi-field stacks and Intel-trace replay |
//! | [`obs`] | `wsn-obs` | zero-cost metrics + span tracing woven through the simulator, detectors and streaming driver; compiled out unless the `telemetry` cargo feature is on |
//! | [`fleet`] | `wsn-fleet` | the simulator-free serving layer: a [`fleet::DetectorFleet`] multiplexing thousands of independent deployments over the worker pool, with batched ingestion, deterministic sharded dispatch and per-tenant checkpoints |
//!
//! # Building and verifying
//!
//! The workspace is **hermetic**: it depends on the standard library only
//! (no crates.io access required), with randomness provided by the in-repo
//! seeded generator [`data::rng`] and JSON by `wsn-json`. From the
//! repository root:
//!
//! ```text
//! cargo build --release          # builds all six crates + this facade
//! cargo test -q                  # unit, integration, property and doc tests
//! cargo run --release --example quickstart
//! ./ci.sh                        # the full offline gate: build, tests, lints, smokes, benchmark
//! bash benchmark/run.sh --workload lab53_global_nn   # one benchmark workload's metrics
//! ```
//!
//! The paper's figures and tables are reproduced by one binary in
//! `wsn-bench` (for example `cargo run --release -p wsn-bench --bin
//! campaign -- --quick fig4`); it prints each figure's table and journals
//! every simulated cell under `results/`.
//!
//! # Quickstart
//!
//! The two-sensor walk-through of the paper's §5.1: each sensor holds a
//! one-dimensional dataset, and after a handful of point exchanges both agree
//! on the global outlier `0.5` — far less communication than centralizing
//! either dataset. The loop spells out each step of the event API;
//! [`detection::transport::run_to_quiescence`] runs the same exchange in
//! one call.
//!
//! ```
//! use in_network_outlier::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let window = WindowConfig::from_secs(1_000)?;
//! let mut pi = DetectorNode::new(SensorId(1), NnDistance, 1, None, window);
//! let mut pj = DetectorNode::new(SensorId(2), NnDistance, 1, None, window);
//!
//! let point = |s: u32, e: u64, v: f64| {
//!     DataPoint::new(SensorId(s), Epoch(e), Timestamp::ZERO, vec![v]).unwrap()
//! };
//! let di: Vec<f64> = [0.5, 3.0, 6.0].into_iter().chain((10..=20).map(f64::from)).collect();
//! let dj: Vec<f64> = [4.0, 5.0, 7.0, 8.0, 9.0].into_iter().chain((21..=30).map(f64::from)).collect();
//! pi.add_local_points(di.iter().enumerate().map(|(e, v)| point(1, e as u64, *v)).collect());
//! pj.add_local_points(dj.iter().enumerate().map(|(e, v)| point(2, e as u64, *v)).collect());
//!
//! // Alternate the two sensors' event handlers until neither wants to send.
//! for _ in 0..10 {
//!     let mut progress = false;
//!     if let Some(m) = pi.process(&[SensorId(2)]) {
//!         pj.receive(SensorId(1), m.points_for(SensorId(2)));
//!         progress = true;
//!     }
//!     if let Some(m) = pj.process(&[SensorId(1)]) {
//!         pi.receive(SensorId(2), m.points_for(SensorId(1)));
//!         progress = true;
//!     }
//!     if !progress {
//!         break;
//!     }
//! }
//! assert_eq!(pi.estimate().points()[0].features, vec![0.5]);
//! assert!(pi.estimate().same_outliers_as(&pj.estimate()));
//! # Ok(())
//! # }
//! ```
//!
//! For whole-network simulations, use
//! [`detection::experiment::run_experiment`] (the paper's evaluation, graded
//! once at the end of the run) or
//! [`detection::streaming::StreamingExperiment`] (the same simulation,
//! graded at every window slide); the `examples/` directory and the
//! `wsn-bench` figure harness show every configuration of §7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wsn_core as detection;
pub use wsn_data as data;
pub use wsn_fleet as fleet;
pub use wsn_netsim as netsim;
pub use wsn_obs as obs;
pub use wsn_ranking as ranking;
pub use wsn_trace as trace;
pub use wsn_workload as workload;

/// The most commonly used types, re-exported for `use
/// in_network_outlier::prelude::*`.
pub mod prelude {
    pub use wsn_core::experiment::{
        run_experiment, AlgorithmConfig, ExperimentConfig, RankingChoice,
    };
    pub use wsn_core::node::{DetectorNode, Scope};
    pub use wsn_core::streaming::{SlideReport, StreamingExperiment, StreamingOutcome};
    pub use wsn_core::{CoreError, OutlierBroadcast};
    pub use wsn_data::window::WindowConfig;
    pub use wsn_data::{DataPoint, Epoch, PointSet, SensorId, Timestamp};
    pub use wsn_fleet::{DetectorFleet, FleetError, TenantId, TenantRuntime, TenantSpec};
    pub use wsn_netsim::{LossModel, NetworkStats, SimConfig, Simulator, Topology};
    pub use wsn_ranking::{
        top_n_outliers, top_n_outliers_indexed, AnyIndex, KnnAverageDistance, NeighborIndex,
        NnDistance, OutlierEstimate, RankingFunction,
    };
    pub use wsn_workload::{FieldStack, Injector, Scenario, TraceReplay};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_core_types() {
        let window = WindowConfig::from_secs(10).unwrap();
        let node = DetectorNode::new(SensorId(1), NnDistance, 1, None, window);
        assert_eq!(node.id(), SensorId(1));
        let config = ExperimentConfig::small();
        assert!(config.validate().is_ok());
    }
}
