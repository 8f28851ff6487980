//! # wsn-core
//!
//! The primary contribution of *In-Network Outlier Detection in Wireless
//! Sensor Networks* (Branch et al., ICDCS 2006), reproduced as a Rust
//! library:
//!
//! * [`node`] — the distributed detector, [`DetectorNode`], one event loop
//!   over a runtime [`node::Scope`]:
//!   * the **global algorithm** (§5, Algorithm 1): every sensor converges,
//!     using only single-hop broadcasts of carefully chosen *sufficient*
//!     points, to the exact top-`n` outliers `O_n(D)` of the union of all
//!     sensors' data;
//!   * the **semi-global algorithm** (§6, Algorithm 2): each sensor computes
//!     the outliers of the data held within `d` hops of it, using
//!     hop-annotated points.
//! * [`sufficient`] — the sufficient-set computation of equation (2), the
//!   kernel both algorithms share. It runs on the spatial neighbour indexes
//!   of [`wsn_ranking::index`]; [`cache`] keeps one index per window
//!   revision so a protocol step's per-neighbour fixed points share it and
//!   it is invalidated exactly when the window slides.
//! * [`centralized`] — the **centralized baseline** of the evaluation (§7.1):
//!   every node periodically ships its sliding window to a sink over AODV,
//!   the sink computes the outliers and sends them back.
//! * [`app`] — the adapter that runs a [`DetectorNode`] on the
//!   [`wsn_netsim`] simulator with periodic sampling from a trace and
//!   sliding-window eviction (§5.3).
//! * [`transport`] — the loss-free synchronous transport:
//!   [`transport::run_to_quiescence`] drives `DetectorNode`s to the fixed
//!   point without the radio model, in one fixed delivery order (the fleet's
//!   slides, and the tests and examples that drive nodes directly).
//! * [`metrics`] — ground truth, convergence and accuracy metrics (§7.2).
//! * [`streaming`] — the one experiment driver (deployment → trace →
//!   simulation → grading), used by the examples and by the
//!   figure-reproduction harness in `wsn-bench`. [`StreamingExperiment`]
//!   grades at every window slide; [`experiment::run_experiment`], the
//!   paper's batch evaluation, grades once after the quiescent tail.
//!   [`experiment`] holds the configuration both entry points take.
//! * [`persist`] — crash-safe, checksummed snapshots of every node's state.
//!
//! # Example: the two-sensor walk-through of §5.1
//!
//! ```
//! use wsn_core::node::DetectorNode;
//! use wsn_data::window::WindowConfig;
//! use wsn_data::{DataPoint, Epoch, SensorId, Timestamp};
//! use wsn_ranking::NnDistance;
//!
//! let mk = |sensor: u32, epoch: u64, v: f64| {
//!     DataPoint::new(SensorId(sensor), Epoch(epoch), Timestamp::ZERO, vec![v]).unwrap()
//! };
//! let window = WindowConfig::from_secs(1_000).unwrap();
//! let mut pi = DetectorNode::new(SensorId(1), NnDistance, 1, None, window);
//! let di: Vec<f64> = [0.5, 3.0, 6.0].iter().copied().chain((10..=15).map(f64::from)).collect();
//! pi.add_local_points(di.iter().enumerate().map(|(e, v)| mk(1, e as u64, *v)).collect());
//!
//! // Before exchanging anything, p_i believes the outlier is 6.
//! assert_eq!(pi.estimate().points()[0].features, vec![6.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod cache;
pub mod centralized;
pub mod error;
pub mod experiment;
mod ledger;
pub mod message;
pub mod metrics;
pub mod node;
pub mod persist;
pub mod streaming;
pub mod sufficient;
mod telemetry;
pub mod transport;

pub use error::CoreError;
pub use message::OutlierBroadcast;
pub use node::{DetectorNode, Scope};
pub use persist::PersistError;
pub use streaming::{SlideReport, StreamingExperiment, StreamingOutcome};
