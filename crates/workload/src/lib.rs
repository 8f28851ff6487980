//! # wsn-workload
//!
//! The scenario and anomaly-injection subsystem for the reproduction of
//! *In-Network Outlier Detection in Wireless Sensor Networks* (Branch et
//! al., ICDCS 2006).
//!
//! The paper evaluates on one workload: a temperature-like field with a
//! per-reading Bernoulli anomaly model, judged once at the end of a batch.
//! This crate opens the scenario-diversity axis on top of
//! `wsn_data::synth` / `wsn_data::stream`:
//!
//! * [`injector`] — the [`Injector`] trait plus seeded,
//!   deterministic implementations of the classic sensor-fault taxonomy and
//!   two structured attacks:
//!
//!   | injector | what it models |
//!   |----------|----------------|
//!   | [`SpikeInjector`] | isolated point spikes ("SHORT" faults) |
//!   | [`StuckAtInjector`] | stuck-at / constant faults |
//!   | [`DriftInjector`] | offset / calibration drift |
//!   | [`NoiseFaultInjector`] | noise-variance faults |
//!   | [`CorrelatedBurstInjector`] | a moving hot region: spatially/temporally correlated, locally dense outliers — the hard case for rank-based detection |
//!   | [`AdversarialInjector`] | points placed just inside/outside the top-`n` rank boundary of a configured ranking function |
//!
//!   Every injector emits per-point ground-truth labels
//!   (`SensorReading::injected_anomaly`), so accuracy can be measured
//!   against labels and not only against protocol agreement.
//!
//! * [`scenario`] — named, composable [`Scenario`]s
//!   (base field + injector stack, with a taxonomy-wide
//!   [`catalog`](scenario::Scenario::catalog)) and
//!   [`FieldStack`]: multi-dimensional
//!   temperature × humidity × voltage feature spaces built from stacked
//!   `FieldModel`s.
//!
//! * [`replay`] — [`TraceReplay`]: drive experiments
//!   from the real Intel-lab trace when a copy is present, falling back
//!   gracefully (message, not panic) to a committed Intel-shaped fixture.
//!
//! The consumer side lives in `wsn-core`: `wsn_core::streaming` runs any
//! scenario through the network simulator *continuously*, evaluating
//! precision/recall, convergence and cost at every window slide instead of
//! only at the deadline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod injector;
pub mod replay;
pub mod scenario;

pub use injector::{
    AdversarialInjector, CorrelatedBurstInjector, DriftInjector, Injector, NoiseFaultInjector,
    SpikeInjector, StuckAtInjector,
};
pub use replay::{ReplaySource, TraceReplay};
pub use scenario::{FaultProfile, FieldStack, Scenario};
