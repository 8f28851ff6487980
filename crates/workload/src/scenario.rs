//! Composable, named workload scenarios and multi-field feature stacks.
//!
//! A [`Scenario`] is a clean base field (a [`SyntheticTraceConfig`] with no
//! Bernoulli anomalies) plus an ordered stack of [`Injector`]s. Generating it
//! for a sensor layout yields a labelled [`DeploymentTrace`] ready for the
//! streaming experiment driver in `wsn-core` or the one-shot runner. The
//! [`Scenario::catalog`] presets cover every injector of the taxonomy, which
//! is what `wsn-bench`'s `fig_scenarios` binary sweeps.
//!
//! [`FieldStack`] opens the non-temperature axis: it synthesises several
//! correlated environmental fields (temperature × humidity × voltage by
//! default) over the same sensors and zips them into multi-dimensional
//! [`DataPoint`]s (`[f_1, …, f_k, x, y]`), which every ranking function and
//! detector in the workspace consumes unchanged.

use std::sync::Arc;

use crate::injector::{
    AdversarialInjector, CorrelatedBurstInjector, DriftInjector, Injector, NoiseFaultInjector,
    SpikeInjector, StuckAtInjector,
};
use wsn_data::rng::SeededRng;
use wsn_data::stream::{DeploymentTrace, SensorSpec};
use wsn_data::synth::{generate_trace, AnomalyModel, FieldModel, SyntheticTraceConfig};
use wsn_data::{DataError, DataPoint, Timestamp};
use wsn_netsim::fault::{DutyCycle, FaultPlan};
use wsn_ranking::NnDistance;

/// Mixing constant for deriving per-injector / per-field sub-seeds.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A named, reproducible workload: base field + injector stack.
#[derive(Clone)]
pub struct Scenario {
    /// Human-readable scenario name (also the bench / figure label).
    pub name: String,
    /// The clean base trace configuration the injectors act on.
    pub trace: SyntheticTraceConfig,
    /// The injectors, applied in order with derived sub-seeds.
    pub injectors: Vec<Arc<dyn Injector>>,
    /// Optional dynamic-network profile (churn, duty-cycling). Declarative —
    /// it becomes a concrete [`FaultPlan`] only once the sensor layout is
    /// known, via [`FaultProfile::instantiate`].
    pub faults: Option<FaultProfile>,
}

/// A layout-independent description of network dynamics: what fraction of
/// the nodes die, how many of the dead come back, and how aggressively the
/// radios duty-cycle. [`FaultProfile::instantiate`] turns it into a concrete
/// [`FaultPlan`] for a given sensor layout and sampling schedule — a pure
/// function of `(profile, specs, schedule, seed)`, so the same scenario seed
/// always produces the same churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Fraction of the deployed nodes that die, spread evenly over the
    /// middle half of the run.
    pub death_fraction: f64,
    /// Fraction of the dead nodes that rejoin, each a quarter of the run
    /// after its death.
    pub rejoin_fraction: f64,
    /// Radio duty cycle applied to every node as `(period_secs, awake
    /// fraction)`, with a per-node phase offset. `None` keeps every radio
    /// always on.
    pub duty_cycle: Option<(f64, f64)>,
}

impl FaultProfile {
    /// Instantiates the profile for a concrete layout: victims are drawn
    /// from a [`SeededRng`] keyed by `seed` alone, death times are staggered
    /// across rounds `rounds/4 .. rounds/2`, and rejoins follow half a
    /// death-window later. Deaths land mid-round (on the half-interval) so
    /// they never race a sampling timer.
    pub fn instantiate(
        &self,
        specs: &[SensorSpec],
        sample_interval_secs: f64,
        rounds: usize,
        seed: u64,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let mut rng = SeededRng::seed_from_u64(seed ^ MIX);
        let mut ids: Vec<usize> = (0..specs.len()).collect();
        rng.shuffle(&mut ids);
        let deaths = ((specs.len() as f64 * self.death_fraction).round() as usize)
            .min(specs.len().saturating_sub(1));
        let rejoins = (deaths as f64 * self.rejoin_fraction).round() as usize;
        let first_round = rounds / 4;
        let span = (rounds / 4).max(1);
        for (k, &victim) in ids.iter().take(deaths).enumerate() {
            let spec = specs[victim];
            let death_round = first_round + k % span;
            let at = Timestamp::from_secs_f64((death_round as f64 + 0.5) * sample_interval_secs);
            plan = plan.with_death(at, spec.id);
            if k < rejoins {
                let back = Timestamp::from_secs_f64(
                    (death_round as f64 + span as f64 + 0.5) * sample_interval_secs,
                );
                plan = plan.with_join(back, spec.id, spec.position);
            }
        }
        if let Some((period_secs, awake_fraction)) = self.duty_cycle {
            let period = (period_secs * 1e6).round() as u64;
            let awake = ((period as f64) * awake_fraction.clamp(0.0, 1.0)).round() as u64;
            for (k, spec) in specs.iter().enumerate() {
                // Stagger phases so the network is never globally asleep.
                let offset = (period / specs.len().max(1) as u64) * k as u64;
                plan = plan.with_duty_cycle(
                    spec.id,
                    DutyCycle::from_micros(period.max(1), awake.min(period.max(1)), offset),
                );
            }
        }
        plan
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("rounds", &self.trace.rounds)
            .field("injectors", &self.injectors.iter().map(|i| i.name()).collect::<Vec<_>>())
            .field("faults", &self.faults)
            .finish()
    }
}

impl Scenario {
    /// A clean scenario (no anomalies, no missing readings) of `rounds`
    /// sampling rounds, ready for injectors to be stacked onto.
    pub fn clean(name: impl Into<String>, rounds: usize) -> Self {
        Scenario {
            name: name.into(),
            trace: SyntheticTraceConfig {
                rounds,
                anomalies: AnomalyModel::none(),
                missing_probability: 0.0,
                ..Default::default()
            },
            injectors: Vec::new(),
            faults: None,
        }
    }

    /// Appends an injector to the stack.
    pub fn with(mut self, injector: impl Injector + 'static) -> Self {
        self.injectors.push(Arc::new(injector));
        self
    }

    /// Attaches a dynamic-network profile (churn / duty-cycling).
    pub fn with_faults(mut self, faults: FaultProfile) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Generates the labelled trace for `sensors` under `seed`: the clean
    /// base trace first, then every injector with its derived sub-seed.
    ///
    /// # Errors
    ///
    /// Propagates [`DataError::InvalidParameter`] from the base generator.
    pub fn generate(
        &self,
        sensors: &[SensorSpec],
        seed: u64,
    ) -> Result<DeploymentTrace, DataError> {
        let mut trace = generate_trace(&self.trace, sensors, seed)?;
        self.apply_injectors(&mut trace, seed);
        Ok(trace)
    }

    /// Applies the injector stack to an existing trace (e.g. a replayed
    /// Intel trace, to obtain a labelled replay scenario).
    ///
    /// Each injector's sub-seed mixes in its **name** as well as its stack
    /// position: two injector types draw from decorrelated RNG streams even
    /// under the same scenario seed. (With a shared stream, "no draw fell
    /// below 0.03" would imply "no draw fell below 0.015" — one unlucky
    /// sequence would simultaneously silence every low-rate injector of the
    /// catalog.)
    pub fn apply_injectors(&self, trace: &mut DeploymentTrace, seed: u64) {
        for (index, injector) in self.injectors.iter().enumerate() {
            let mut mixed = seed ^ ((index as u64 + 1).wrapping_mul(MIX));
            for byte in injector.name().bytes() {
                // FNV-1a style fold of the injector name.
                mixed = (mixed ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            injector.inject(trace, mixed);
        }
    }

    /// The preset catalog: one scenario per taxonomy entry, each `rounds`
    /// sampling rounds long. Rates are tuned so that short quick-scale runs
    /// still contain anomalies while full-scale runs stay realistic.
    pub fn catalog(rounds: usize) -> Vec<Scenario> {
        let burst_start = rounds / 4;
        let burst_duration = (rounds / 2).max(1);
        vec![
            Scenario::clean("point_spikes", rounds)
                .with(SpikeInjector { probability: 0.03, magnitude: 50.0 }),
            Scenario::clean("stuck_at", rounds)
                .with(StuckAtInjector { probability: 0.025, duration: 4 }),
            Scenario::clean("offset_drift", rounds).with(DriftInjector {
                probability: 0.015,
                rate: 4.0,
                duration: 6,
            }),
            Scenario::clean("noise_variance", rounds).with(NoiseFaultInjector {
                probability: 0.02,
                duration: 5,
                noise_std: 25.0,
            }),
            Scenario::clean("correlated_burst", rounds).with(CorrelatedBurstInjector {
                start_round: burst_start,
                duration: burst_duration,
                radius_m: 10.0,
                offset: 45.0,
                velocity_m_per_round: (2.5, 1.5),
            }),
            Scenario::clean("adversarial_inside", rounds).with(AdversarialInjector::new(
                Arc::new(NnDistance),
                4,
                true,
                0.5,
                0.02,
            )),
            Scenario::clean("adversarial_outside", rounds).with(AdversarialInjector::new(
                Arc::new(NnDistance),
                4,
                false,
                0.5,
                0.02,
            )),
            // Dynamic-network rows: the same point-spike workload, but the
            // network itself is unreliable — nodes die mid-run (some come
            // back), or every radio sleeps a quarter of the time.
            Scenario::clean("node_churn", rounds)
                .with(SpikeInjector { probability: 0.03, magnitude: 50.0 })
                .with_faults(FaultProfile {
                    death_fraction: 0.25,
                    rejoin_fraction: 0.5,
                    duty_cycle: None,
                }),
            Scenario::clean("duty_cycle", rounds)
                .with(SpikeInjector { probability: 0.03, magnitude: 50.0 })
                .with_faults(FaultProfile {
                    death_fraction: 0.0,
                    rejoin_fraction: 0.0,
                    duty_cycle: Some((2.0, 0.75)),
                }),
        ]
    }
}

/// A stack of correlated environmental fields sampled by the same sensors —
/// the multi-dimensional (non-temperature) feature axis.
///
/// Each field is generated as its own [`DeploymentTrace`] (sharing the
/// sampling schedule), and [`FieldStack::stacked_points_at_round`] zips the
/// layers into `[f_1, …, f_k, x, y]` points with a combined ground-truth
/// label (anomalous in *any* layer).
///
/// ```
/// use wsn_data::stream::SensorSpec;
/// use wsn_data::synth::SyntheticTraceConfig;
/// use wsn_data::{Position, SensorId};
/// use wsn_ranking::{top_n_outliers, NnDistance};
/// use wsn_workload::scenario::FieldStack;
///
/// let stack = FieldStack::intel_like();
/// let sensors: Vec<SensorSpec> = (0..6)
///     .map(|i| SensorSpec::new(SensorId(i), Position::new(i as f64 * 5.0, 0.0)))
///     .collect();
/// let config = SyntheticTraceConfig { rounds: 4, ..Default::default() };
/// let layers = stack.generate(&config, &sensors, 3).unwrap();
/// assert_eq!(layers.len(), 3); // temperature, humidity, voltage
/// let points = FieldStack::stacked_points_at_round(&layers, 0).unwrap();
/// // 3 field values + 2 coordinates = 5-dimensional points.
/// assert!(points.iter().all(|(p, _)| p.dimension() == 5));
/// // Any ranking function consumes them unchanged.
/// let data = points.into_iter().map(|(p, _)| p).collect();
/// assert_eq!(top_n_outliers(&NnDistance, 2, &data).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FieldStack {
    /// The stacked fields, in feature order.
    pub fields: Vec<FieldModel>,
}

impl FieldStack {
    /// The Intel-lab-like stack: indoor temperature (the default field),
    /// relative humidity (anti-correlated diurnal swing, noisier), and
    /// battery voltage (almost flat, tiny noise) — the three measurements
    /// the real `data.txt` carries besides light.
    pub fn intel_like() -> Self {
        let temperature = FieldModel::default();
        let humidity = FieldModel {
            base_value: 38.0,
            diurnal_amplitude: -5.0, // humidity drops as temperature peaks
            gradient_x: -0.05,
            gradient_y: -0.03,
            noise_std: 0.6,
            ..FieldModel::default()
        };
        let voltage = FieldModel {
            base_value: 2.68,
            diurnal_amplitude: 0.01,
            gradient_x: 0.0,
            gradient_y: 0.0,
            noise_std: 0.004,
            ar1_coefficient: 0.98,
            ..FieldModel::default()
        };
        FieldStack { fields: vec![temperature, humidity, voltage] }
    }

    /// Generates one trace per field over the same sensors and sampling
    /// schedule, each from an independent derived seed.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors from the generator.
    pub fn generate(
        &self,
        config: &SyntheticTraceConfig,
        sensors: &[SensorSpec],
        seed: u64,
    ) -> Result<Vec<DeploymentTrace>, DataError> {
        self.fields
            .iter()
            .enumerate()
            .map(|(index, field)| {
                let layer = SyntheticTraceConfig { field: *field, ..config.clone() };
                generate_trace(&layer, sensors, seed ^ ((index as u64 + 1).wrapping_mul(MIX)))
            })
            .collect()
    }

    /// Zips the layers' readings of one sampling round into
    /// multi-dimensional points (`[f_1, …, f_k, x, y]`), each paired with its
    /// combined ground-truth label (anomalous in any layer). Sensors missing
    /// a reading in *any* layer contribute nothing that round.
    ///
    /// # Errors
    ///
    /// Propagates [`DataError::NonFiniteFeature`] for corrupted layer values
    /// and [`DataError::UnknownSensor`] if the layers disagree on sensors.
    pub fn stacked_points_at_round(
        layers: &[DeploymentTrace],
        round: usize,
    ) -> Result<Vec<(DataPoint, bool)>, DataError> {
        let Some(first) = layers.first() else {
            return Ok(Vec::new());
        };
        let by_id: Vec<_> = layers.iter().map(DeploymentTrace::streams_by_id).collect();
        let mut out = Vec::new();
        'sensors: for stream in &first.streams {
            let spec = stream.spec;
            let mut features = Vec::with_capacity(layers.len() + 2);
            let mut anomalous = false;
            let mut epoch = None;
            let mut timestamp = None;
            for streams in &by_id {
                let layer_stream =
                    streams.get(&spec.id).ok_or(DataError::UnknownSensor(spec.id.raw()))?;
                let Some(reading) = layer_stream.readings.get(round) else {
                    continue 'sensors;
                };
                let Some(value) = reading.value else {
                    continue 'sensors;
                };
                features.push(value);
                anomalous |= reading.injected_anomaly;
                epoch.get_or_insert(reading.epoch);
                timestamp.get_or_insert(reading.timestamp);
            }
            features.push(spec.position.x);
            features.push(spec.position.y);
            let point = DataPoint::new(
                spec.id,
                epoch.expect("at least one layer exists"),
                timestamp.expect("at least one layer exists"),
                features,
            )?;
            out.push((point, anomalous));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_data::{Position, SensorId};

    fn sensors(n: u32) -> Vec<SensorSpec> {
        (0..n)
            .map(|i| {
                SensorSpec::new(
                    SensorId(i),
                    Position::new((i % 4) as f64 * 5.0, (i / 4) as f64 * 5.0),
                )
            })
            .collect()
    }

    #[test]
    fn catalog_covers_the_taxonomy_and_generates_labelled_traces() {
        let scenarios = Scenario::catalog(24);
        assert!(scenarios.len() >= 6);
        let specs = sensors(12);
        let mut labelled_scenarios = 0;
        for scenario in &scenarios {
            let trace = scenario.generate(&specs, 7).unwrap();
            assert_eq!(trace.sensor_count(), 12);
            assert_eq!(trace.round_count(), 24);
            if trace.anomaly_fraction() > 0.0 {
                labelled_scenarios += 1;
            }
        }
        // Every scenario except adversarial_outside (camouflage) should have
        // produced at least some labelled anomalies at catalog rates; allow
        // slack for unlucky draws but require a clear majority.
        assert!(labelled_scenarios >= 4, "only {labelled_scenarios} scenarios were labelled");
    }

    #[test]
    fn fault_profile_instantiates_deterministically_and_in_bounds() {
        let profile = FaultProfile {
            death_fraction: 0.25,
            rejoin_fraction: 0.5,
            duty_cycle: Some((2.0, 0.6)),
        };
        let specs = sensors(12);
        let plan = profile.instantiate(&specs, 30.0, 16, 9);
        assert_eq!(plan, profile.instantiate(&specs, 30.0, 16, 9), "same seed, same plan");
        assert_ne!(plan, profile.instantiate(&specs, 30.0, 16, 10), "seed moves the victims");
        let deaths = plan
            .events()
            .iter()
            .filter(|e| matches!(e.action, wsn_netsim::fault::FaultAction::Death(_)))
            .count();
        assert_eq!(deaths, 3, "25% of 12 nodes die");
        let joins = plan.events().len() - deaths;
        assert_eq!(joins, 2, "half of the dead rejoin (rounded)");
        assert_eq!(plan.duty_cycles().len(), 12);
        for event in plan.events() {
            let secs = event.at.as_secs_f64();
            assert!(secs > 0.0 && secs < 16.0 * 30.0, "event at {secs}s is inside the run");
        }
        // Every rejoiner was initially present (its first event is a death).
        assert!(plan.initially_absent().is_empty());
    }

    #[test]
    fn catalog_includes_dynamic_network_scenarios() {
        let scenarios = Scenario::catalog(16);
        let churn = scenarios.iter().find(|s| s.name == "node_churn").expect("churn row");
        assert!(churn.faults.is_some());
        let duty = scenarios.iter().find(|s| s.name == "duty_cycle").expect("duty row");
        assert!(duty.faults.unwrap().duty_cycle.is_some());
        // Both still inject labelled anomalies for grading.
        let trace = churn.generate(&sensors(10), 5).unwrap();
        assert!(trace.anomaly_fraction() > 0.0);
    }

    #[test]
    fn scenario_generation_is_deterministic() {
        let scenario = &Scenario::catalog(12)[0];
        let specs = sensors(6);
        assert_eq!(scenario.generate(&specs, 3).unwrap(), scenario.generate(&specs, 3).unwrap());
        assert_ne!(scenario.generate(&specs, 3).unwrap(), scenario.generate(&specs, 4).unwrap());
    }

    #[test]
    fn injector_stacks_compose() {
        let scenario = Scenario::clean("stacked", 30)
            .with(SpikeInjector { probability: 0.05, magnitude: 40.0 })
            .with(StuckAtInjector { probability: 0.02, duration: 3 });
        assert_eq!(scenario.injectors.len(), 2);
        let trace = scenario.generate(&sensors(5), 1).unwrap();
        assert!(trace.anomaly_fraction() > 0.0);
        let debug = format!("{scenario:?}");
        assert!(debug.contains("point_spikes") && debug.contains("stuck_at"));
    }

    #[test]
    fn field_stack_layers_share_schedule_but_differ_in_values() {
        let stack = FieldStack::intel_like();
        let config = SyntheticTraceConfig { rounds: 6, ..Default::default() };
        let layers = stack.generate(&config, &sensors(4), 11).unwrap();
        assert_eq!(layers.len(), 3);
        for layer in &layers {
            assert_eq!(layer.round_count(), 6);
            assert_eq!(layer.sensor_count(), 4);
        }
        // Temperature ~21 °C, humidity ~38 %, voltage ~2.7 V.
        let value = |l: usize| layers[l].streams[0].readings[0].value.unwrap();
        assert!((value(0) - 21.0).abs() < 10.0);
        assert!((value(1) - 38.0).abs() < 15.0);
        assert!((value(2) - 2.68).abs() < 0.5);
    }

    #[test]
    fn stacked_points_skip_sensors_with_any_missing_layer() {
        let stack = FieldStack::intel_like();
        let config = SyntheticTraceConfig { rounds: 3, ..Default::default() };
        let mut layers = stack.generate(&config, &sensors(4), 2).unwrap();
        // Punch a hole into one layer for sensor 2, round 1.
        layers[1].streams[2].readings[1].value = None;
        let full = FieldStack::stacked_points_at_round(&layers, 0).unwrap();
        let holed = FieldStack::stacked_points_at_round(&layers, 1).unwrap();
        assert_eq!(full.len(), 4);
        assert_eq!(holed.len(), 3);
        assert!(holed.iter().all(|(p, _)| p.key.origin != SensorId(2)));
        assert!(FieldStack::stacked_points_at_round(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn stacked_labels_combine_across_layers() {
        let stack = FieldStack::intel_like();
        let config = SyntheticTraceConfig { rounds: 2, ..Default::default() };
        let mut layers = stack.generate(&config, &sensors(3), 5).unwrap();
        layers[2].streams[1].readings[0].injected_anomaly = true;
        let points = FieldStack::stacked_points_at_round(&layers, 0).unwrap();
        let flagged: Vec<bool> = points.iter().map(|(_, a)| *a).collect();
        assert!(flagged.iter().any(|f| *f));
        let (point, label) = points.iter().find(|(p, _)| p.key.origin == SensorId(1)).unwrap();
        assert!(*label);
        assert_eq!(point.dimension(), 5);
    }
}
