//! # `wsn-obs` — zero-cost observability for the WSN workspace
//!
//! A std-only, dependency-free metrics registry and span tracer shared by the
//! simulator core, the detectors, the streaming driver, the fleet, and the
//! benchmark's layer budget.
//!
//! ## Feature flags
//!
//! The whole subsystem sits behind the `telemetry` cargo feature:
//!
//! * **`telemetry` off (the default):** every public type still exists, but
//!   [`Counter`], [`Gauge`], [`Histogram`] and [`SpanGuard`] are zero-sized,
//!   every method is an `#[inline(always)]` empty body, and [`enabled`]
//!   returns a constant `false`. Call sites like
//!   `if wsn_obs::enabled() { ... }` are dead code the optimizer removes, so
//!   instrumented builds without the feature are bit-identical in behaviour
//!   *and* cost to never-instrumented ones.
//! * **`telemetry` on:** the machinery is compiled in but stays dormant
//!   behind a single process-wide `AtomicBool` until [`set_enabled`]`(true)`
//!   is called. A disabled-at-runtime metric touch is one relaxed atomic
//!   load and a predictable branch.
//!
//! ## Overhead contract
//!
//! Instrumentation must never change results. The rules every call site in
//! the workspace follows:
//!
//! 1. Nothing downstream may branch on a metric value — telemetry is
//!    write-only from the instrumented code's point of view.
//! 2. Any extra computation beyond a plain counter bump (building a
//!    histogram value, reading a clock) is wrapped in
//!    `if wsn_obs::enabled() { ... }` so the compiled-out build erases it.
//! 3. Span timing uses the monotonic [`std::time::Instant`] clock only; the
//!    simulated clock is never consulted, so simulation outcomes cannot
//!    depend on telemetry.
//!
//! Under this contract, runs with telemetry compiled in and enabled are
//! bit-identical to runs with it compiled out (a 256-case property suite in
//! the facade crate enforces this).
//!
//! ## How to add a counter
//!
//! ```ignore
//! static CACHE_MISSES: wsn_obs::Counter = wsn_obs::Counter::new("engine.cache_misses");
//!
//! fn lookup(&mut self) {
//!     if miss {
//!         CACHE_MISSES.add(1);
//!     }
//! }
//! ```
//!
//! Metrics are `static`s that lazily self-register into a process-wide
//! registry on first touch, so there is no init step and no central list to
//! maintain. Names are dot-separated `layer.metric` slugs; keep them unique
//! — the merged report sorts and dedupes by name. [`Gauge`] and
//! [`Histogram`] work the same way ([`Histogram`] has fixed power-of-two
//! buckets; record nanoseconds, bytes, or counts directly).
//!
//! ## Spans
//!
//! ```ignore
//! let _span = wsn_obs::span("slide");
//! {
//!     let _inner = wsn_obs::span("sim");   // reported as "slide/sim"
//!     step();
//! }
//! ```
//!
//! Span guards time a named scope and record it under its `/`-joined
//! ancestor path into a per-thread buffer. [`report`] drains every thread's
//! buffer into one merged, path-sorted [`TelemetryReport`]; the structure
//! and counts of that report are deterministic across worker-pool
//! executions (only the timings vary).

use std::collections::BTreeMap;

#[cfg(feature = "telemetry")]
mod active;
#[cfg(feature = "telemetry")]
pub use active::{enabled, reset, set_enabled, span, Counter, Gauge, Histogram, SpanGuard};

#[cfg(not(feature = "telemetry"))]
mod inert;
#[cfg(not(feature = "telemetry"))]
pub use inert::{enabled, reset, set_enabled, span, Counter, Gauge, Histogram, SpanGuard};

/// `true` when the crate was built with the `telemetry` feature.
pub const fn compiled() -> bool {
    cfg!(feature = "telemetry")
}

/// Point-in-time value of one histogram: `counts[i]` values fell in
/// `(bounds[i-1], bounds[i]]` (the first bucket starts at zero). Bounds are
/// strictly increasing; trailing empty buckets are trimmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

/// Aggregated timings for one span path (`parent/child/...`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

/// A deterministic merged snapshot of every registered metric and every
/// thread's span buffer. Maps are keyed (and therefore ordered) by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: Vec<HistogramSnapshot>,
    pub spans: Vec<SpanStat>,
}

impl TelemetryReport {
    /// `true` when no metric or span recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Aggregated stats for one span path, if it was recorded.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Value of one counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Snapshot every registered metric and drain-merge every thread's span
/// buffer. Empty when telemetry is compiled out or was never enabled.
pub fn report() -> TelemetryReport {
    #[cfg(feature = "telemetry")]
    {
        active::build_report()
    }
    #[cfg(not(feature = "telemetry"))]
    {
        TelemetryReport::default()
    }
}
