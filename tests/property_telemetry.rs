//! Telemetry is observationally free: the `wsn-obs` instrumentation woven
//! through the simulator, the detectors and the streaming driver must never
//! change what an experiment computes — only record it.
//!
//! The suite compiles and passes in both feature modes. With the default
//! features the instrumentation is compiled out (`wsn_obs::compiled()` is
//! false) and the paired runs compare two identical uninstrumented
//! executions; with `--features telemetry` the same 256 seeded cases prove
//! bit-identical stats/accuracy/labels between collection on and off, the
//! merged span report is shown to be deterministic across the partitioned
//! backend's worker pool, and the steady-state regression gate on the
//! fixed-point engine's desync rebuilds becomes live.
//!
//! Telemetry state is process-global, so every test serialises on one lock
//! before toggling or reading it.

use std::sync::Mutex;

use in_network_outlier::detection::experiment::{
    run_experiment, AlgorithmConfig, ExperimentConfig, RankingChoice,
};
use in_network_outlier::prelude::*;
use wsn_data::synth::SyntheticTraceConfig;
use wsn_netsim::region::SimBackend;

/// Serialises the tests of this binary: the metric registry, the span sinks
/// and the enabled flag are process-wide.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The seeded experiment space: algorithm × loss × missing-data × size ×
/// seeds, the same axes the partitioned-backend equality suite sweeps.
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

/// Satellite of the zero-cost contract, as a 256-run seeded property: every
/// configuration executed once with collection off and once with collection
/// on must produce bit-identical stats, accuracy grades and label reports.
/// Floats are compared with `==` deliberately — telemetry that perturbed any
/// accumulation would show up here.
#[test]
fn telemetry_on_and_off_runs_are_bit_identical_across_256_cases() {
    let _guard = lock();
    let mut runs = 0usize;
    for base in base_configs() {
        for backend in [SimBackend::Sequential, SimBackend::Partitioned { regions: 4 }] {
            let config = base.clone().with_backend(backend);

            wsn_obs::set_enabled(false);
            let off = run_experiment(&config).expect("uninstrumented run succeeds");
            runs += 1;

            wsn_obs::reset();
            wsn_obs::set_enabled(true);
            let on = run_experiment(&config).expect("instrumented run succeeds");
            wsn_obs::set_enabled(false);
            runs += 1;

            let ctx = format!(
                "{} loss={:?} missing={} sensors={} trace_seed={} sim_seed={} backend={backend:?}",
                off.label,
                base.loss,
                base.trace.missing_probability,
                base.sensor_count,
                base.trace_seed,
                base.sim_seed,
            );
            assert_eq!(off.stats, on.stats, "stats diverged: {ctx}");
            assert_eq!(off.accuracy, on.accuracy, "accuracy diverged: {ctx}");
            assert_eq!(off.labels, on.labels, "labels diverged: {ctx}");
            assert_eq!(
                off.all_estimates_agree, on.all_estimates_agree,
                "agreement diverged: {ctx}"
            );
            assert_eq!(off.quiescent, on.quiescent, "quiescence diverged: {ctx}");
            assert_eq!(
                off.data_points_sent, on.data_points_sent,
                "protocol traffic diverged: {ctx}"
            );
        }
    }
    assert_eq!(runs, 256, "the sweep is meant to cover exactly 256 runs");
}

/// The sensor count of the streaming inputs below.
const SENSORS: u64 = 12;

/// A streaming run of `SENSORS` sensors under `algorithm`, `rounds` rounds
/// with a `window_samples`-sample window, that must observe every slide.
fn streaming(algorithm: AlgorithmConfig, rounds: usize, window_samples: u64) -> impl Fn() {
    let config = ExperimentConfig {
        sensor_count: SENSORS as usize,
        trace: SyntheticTraceConfig { rounds, ..Default::default() },
        window_samples,
        n: 4,
        transmission_range_m: 18.0,
        ..Default::default()
    }
    .with_algorithm(algorithm);
    move || {
        let outcome = StreamingExperiment::new(config.clone()).run().expect("streaming run");
        assert_eq!(outcome.slides.len(), rounds, "every slide must be observed");
    }
}

/// The steady-state regression gate on the incremental fixed point: it must
/// perform **zero** desync rebuilds, whether or not the windows slide —
/// every record and every eviction reaches the engines as a delta note, so
/// no sync chain breaks — and every engine must build its window state
/// exactly once, at its first call: every window change reaches it as a
/// window note. A regression that re-introduced full rebuilds on the hot
/// path would trip this before it tripped a benchmark. In the
/// global scope every estimate read must come from the engine, too, with
/// **zero** fallbacks to `top_n_outliers`: each node processed its window's
/// last revision before it is read (every hop-scope estimate falls back by
/// design). Four Global-NN inputs:
///
/// * a 12-sensor streaming run whose window (10 samples) is wider than its
///   4-round trace: nothing is ever evicted;
/// * the same deployment over 8 rounds with a 3-sample window: every slide
///   from the fourth evicts;
/// * one 3×3 fleet tenant (10 m grid, 15 m range, `n = 2`, `w = 8`, the
///   shape of the benchmark's fleet tenants) served 12 epochs through
///   [`TenantRuntime`], every node's estimate read after each epoch: its
///   windows evict from the ninth epoch on;
/// * the same tenant restored from its payload after those 12 epochs into
///   a fresh runtime, counted over the one epoch it serves next: a restore
///   starts every chain cold, so that step builds exactly one chain per
///   directed link (40 on the grid, whose diagonals are in range) and still
///   rebuilds none and serves every estimate.
///
/// And one semi-global input, the first deployment at `d = 1`, whose gate
/// is the forwarded-prefix key: a receipt (always of hop-1 copies) leaves
/// other neighbours' quiet memos valid, so the memo must hit, and a node
/// builds its one engine's seed at most once per change of its own points,
/// at most `rounds + 1` times.
#[test]
fn steady_state_streaming_performs_zero_desync_rebuilds() {
    use wsn_data::rng::SeededRng;
    use wsn_data::stream::SensorSpec;
    use wsn_data::Position;

    let _guard = lock();
    let global_nn = AlgorithmConfig::Global { ranking: RankingChoice::Nn };
    let semi_global_d1 =
        AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 1 };
    let spec = TenantSpec {
        sensors: (0..9u32)
            .map(|i| {
                let position = Position { x: f64::from(i % 3) * 10.0, y: f64::from(i / 3) * 10.0 };
                SensorSpec::new(SensorId(i), position)
            })
            .collect(),
        transmission_range_m: 15.0,
        algorithm: global_nn,
        n: 2,
        window_samples: 8,
        sample_interval_secs: 31.0,
    };
    // Clustered readings with a rare spike, so the protocol works.
    let readings = |epoch: u64| -> Vec<DataPoint> {
        let mut rng = SeededRng::seed_from_u64(epoch);
        (0..9u32)
            .map(|i| {
                let spike = if rng.gen_bool(0.05) { rng.gen_range(10.0..30.0) } else { 0.0 };
                let value = rng.gen_gaussian(20.0, 0.5) + spike;
                let at = Timestamp::from_secs_f64(epoch as f64 * 31.0);
                DataPoint::new(SensorId(i), Epoch(epoch), at, vec![value]).expect("finite")
            })
            .collect()
    };
    let tenant = || {
        let mut runtime = TenantRuntime::new(spec.clone()).expect("a valid tenant");
        let mut read = 0;
        for epoch in 0..12u64 {
            runtime.ingest(readings(epoch));
            assert_eq!(runtime.run_due(true).len(), 1, "every epoch must slide");
            read += runtime.estimates().len();
        }
        assert_eq!(read, 12 * 9, "every node's estimate is read after every epoch");
    };
    let restored_tenant = || {
        let mut live = TenantRuntime::new(spec.clone()).expect("a valid tenant");
        for epoch in 0..12u64 {
            live.ingest(readings(epoch));
            live.run_due(true);
        }
        let mut restored = TenantRuntime::new(spec.clone()).expect("a valid tenant");
        restored.restore(&live.snapshot_payload()).expect("the tenant's own payload restores");
        // Only the first step after the restore is counted.
        wsn_obs::reset();
        restored.ingest(readings(12));
        assert_eq!(restored.run_due(true).len(), 1, "the epoch must slide");
        assert_eq!(restored.estimates().len(), 9, "every node's estimate is read");
        if wsn_obs::compiled() {
            let report = wsn_obs::report();
            assert_eq!(
                report.counter("engine.cold_builds"),
                40,
                "a restore starts every chain cold: one build per directed link; report: {:?}",
                report.counters,
            );
        }
    };
    // Each input with its engine count: one per node (a `d = 1` node has
    // one engine, over `P_i^{≤0}`).
    let inputs: [(&str, &dyn Fn(), Scope, u64); 5] = [
        (
            "streaming, no eviction (w = 10, 4 rounds)",
            &streaming(global_nn, 4, 10),
            Scope::Global,
            SENSORS,
        ),
        (
            "streaming, evicting (w = 3, 8 rounds)",
            &streaming(global_nn, 8, 3),
            Scope::Global,
            SENSORS,
        ),
        ("fleet tenant, evicting (w = 8, 12 epochs)", &tenant, Scope::Global, 9),
        ("fleet tenant, first step after a restore", &restored_tenant, Scope::Global, 9),
        (
            "semi-global d = 1 (w = 10, 4 rounds)",
            &streaming(semi_global_d1, 4, 10),
            Scope::Hops(1),
            SENSORS,
        ),
    ];
    for (what, run, scope, engines) in inputs {
        wsn_obs::reset();
        wsn_obs::set_enabled(true);
        run();
        wsn_obs::set_enabled(false);
        if wsn_obs::compiled() {
            let report = wsn_obs::report();
            assert!(
                report.counter("engine.calls") > 0,
                "{what}: the gate is vacuous unless the fixed-point engine actually ran"
            );
            assert_eq!(
                report.counter("engine.desync_rebuilds"),
                0,
                "{what}: the fixed point must never desync-rebuild; report: {:?}",
                report.counters,
            );
            assert_eq!(
                report.counter("engine.window_builds"),
                engines,
                "{what}: every engine builds its window state once; report: {:?}",
                report.counters,
            );
            if scope == Scope::Global {
                assert_eq!(
                    report.counter("detector.estimate_fallbacks"),
                    0,
                    "{what}: the engine must serve every estimate; report: {:?}",
                    report.counters,
                );
            } else {
                assert!(
                    report.counter("ledger.quiet_hits") > 0,
                    "{what}: a receipt at hop d must leave other neighbours quiet; report: {:?}",
                    report.counters,
                );
                let rounds = 4; // the semi-global input's
                assert!(
                    report.counter("engine.seed_builds") <= SENSORS * (rounds + 1),
                    "{what}: a d = 1 node's seed is built once per change of its own points; \
                     report: {:?}",
                    report.counters,
                );
            }
        }
    }
}

/// The window-state gate on an evicting hop-scope input: the first
/// deployment above at `d = 2` over 8 rounds with a 3-sample window, so
/// points at every hop age out. Every one of a node's two engines (over
/// `P_i^{≤0}` and `P_i^{≤1}`) builds its window state once and follows
/// every slide through the window notes. This input is not one of the
/// zero-desync gate's: the per-neighbour chains of an evicting hop-scope
/// window still desync-rebuild. A node records what it sends at the
/// incremented hop, outside the frame of `known` the sending engine ranks
/// against, so the eviction of a sent point never reaches the chain that
/// holds it.
#[test]
fn evicting_hop_scope_windows_slide_without_a_rebuild() {
    let _guard = lock();
    let semi_global_d2 =
        AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 };
    wsn_obs::reset();
    wsn_obs::set_enabled(true);
    streaming(semi_global_d2, 8, 3)();
    wsn_obs::set_enabled(false);
    if wsn_obs::compiled() {
        let report = wsn_obs::report();
        assert!(report.counter("engine.calls") > 0, "the gate is vacuous unless the engines ran");
        assert_eq!(
            report.counter("engine.window_builds"),
            2 * SENSORS,
            "every engine builds its window state once; report: {:?}",
            report.counters,
        );
    }
}

/// Runs `run` with collection off, then on from a reset registry, asserts
/// that the two outcomes are bit-identical, and returns the instrumented
/// outcome with its report.
fn off_and_on<T: PartialEq + std::fmt::Debug>(
    what: &str,
    run: impl Fn() -> T,
) -> (T, wsn_obs::TelemetryReport) {
    wsn_obs::set_enabled(false);
    let off = run();
    wsn_obs::reset();
    wsn_obs::set_enabled(true);
    let on = run();
    wsn_obs::set_enabled(false);
    assert_eq!(off, on, "{what}: the outcome diverged between collection off and on");
    (on, wsn_obs::report())
}

/// The deaths and joins a fault plan schedules.
fn churn(plan: &wsn_netsim::fault::FaultPlan) -> (u64, u64) {
    use wsn_netsim::fault::FaultAction;
    let count = |is: fn(&FaultAction) -> bool| {
        plan.events().iter().filter(|e| is(&e.action)).count() as u64
    };
    (
        count(|a| matches!(a, FaultAction::Death(_))),
        count(|a| matches!(a, FaultAction::Join { .. })),
    )
}

/// The fault-model counters, on two inputs: a churned, duty-cycled run must
/// stay bit-identical between collection on and off (the zero-cost contract
/// extends to the fault layer), and when telemetry is compiled in, the
/// counters must report exactly the plan's churn — every scheduled death
/// and join counted once — plus live evidence of stale-neighbour pruning.
///
/// * A 12-sensor lab, Global-NN, 8 rounds: a quarter of the sensors die,
///   half of those rejoin, and radios are awake 75% of each 2 s cycle; the
///   sleep-drop counter must agree with the per-node statistics.
/// * The 2 000-sensor city on 4 partitioned regions, semi-global NN ε = 1,
///   2 slides, checkpointed every slide: 1% of the sensors die, half of
///   those rejoin, and radios are awake 90% of each 2 s cycle. The liveness
///   timeout of 0.7 sample intervals is short enough that a mid-run death
///   is pruned by the last round. One snapshot is written per slide.
#[test]
fn fault_counters_report_the_plan_and_stay_observationally_free() {
    use wsn_data::lab::LabDeployment;
    use wsn_workload::FaultProfile;

    let _guard = lock();
    let profile =
        FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.5, duty_cycle: Some((2.0, 0.75)) };
    let mut config = ExperimentConfig::small()
        .with_algorithm(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
    config.sensor_count = 12;
    config.trace.rounds = 8;
    let deployment = LabDeployment::with_sensor_count(config.sensor_count, config.deployment_seed)
        .expect("deployment builds");
    let plan = profile.instantiate(
        deployment.sensors(),
        config.trace.sample_interval_secs,
        config.trace.rounds,
        3,
    );
    let (deaths, joins) = churn(&plan);
    assert!(deaths > 0 && joins > 0, "the profile must schedule real churn");
    let timeout = 2.0 * config.trace.sample_interval_secs;
    let config = config.with_fault_plan(plan).with_liveness_timeout(timeout);

    let ((stats, ..), report) = off_and_on("12-sensor lab", || {
        let outcome = run_experiment(&config).expect("faulted run succeeds");
        (outcome.stats, outcome.accuracy, outcome.labels, outcome.quiescent)
    });
    if wsn_obs::compiled() {
        assert_eq!(report.counter("sim.node_deaths"), deaths, "every scheduled death counted");
        assert_eq!(report.counter("sim.node_joins"), joins, "every scheduled join counted");
        assert_eq!(
            report.counter("sim.dropped_asleep"),
            stats.total_packets_dropped_asleep(),
            "the counter and the per-node statistics must agree on sleep drops"
        );
        assert!(
            report.counter("sim.dropped_asleep") > 0,
            "a 75%-awake network must have slept through some receptions"
        );
        assert!(
            report.counter("detector.stale_neighbors_pruned") > 0,
            "dead neighbours must age out through the liveness timeout; report: {:?}",
            report.counters,
        );
    }

    let sensors = 2_000;
    let city = LabDeployment::city(sensors, 1).expect("the city deploys");
    let trace_config = SyntheticTraceConfig { rounds: 2, ..Default::default() };
    let trace = city.generate_trace(&trace_config, 7).expect("the city trace generates");
    let profile =
        FaultProfile { death_fraction: 0.01, rejoin_fraction: 0.5, duty_cycle: Some((2.0, 0.9)) };
    let plan = profile.instantiate(
        city.sensors(),
        trace_config.sample_interval_secs,
        trace_config.rounds,
        41,
    );
    let (deaths, joins) = churn(&plan);
    assert!(deaths > 0 && joins > 0, "the city profile must schedule real churn");
    let config =
        ExperimentConfig { sensor_count: sensors, window_samples: 10, n: 4, ..Default::default() }
            .with_algorithm(AlgorithmConfig::SemiGlobal {
                ranking: RankingChoice::Nn,
                hop_diameter: 1,
            })
            .with_backend(SimBackend::Partitioned { regions: 4 })
            .with_fault_plan(plan)
            .with_liveness_timeout(0.7 * trace_config.sample_interval_secs);
    let dir = std::env::temp_dir().join(format!("wsn-tel-city-ckpt-{}", std::process::id()));
    let (outcome, report) = off_and_on("2 000-sensor city", || {
        let _ = std::fs::remove_dir_all(&dir);
        StreamingExperiment::new(config.clone())
            .checkpoint_every_slides(1, &dir)
            .run_on_trace(&trace)
            .expect("faulted city run succeeds")
    });
    std::fs::remove_dir_all(&dir).expect("the city run checkpointed");
    assert_eq!(outcome.slides.len(), trace_config.rounds, "one slide per round");
    if wsn_obs::compiled() {
        assert_eq!(report.counter("sim.node_deaths"), deaths, "every scheduled city death counted");
        assert_eq!(report.counter("sim.node_joins"), joins, "every scheduled city join counted");
        assert!(
            report.counter("detector.stale_neighbors_pruned") > 0,
            "a mid-run city death must be pruned through the liveness timeout; report: {:?}",
            report.counters,
        );
        assert_eq!(
            report.counter("persist.snapshots_written"),
            outcome.slides.len() as u64,
            "one checkpoint per slide"
        );
    }
}

/// The crash-safety layer under the zero-cost contract: checkpointing a
/// streaming run changes nothing about what it computes, telemetry
/// collection changes nothing about a checkpointed run, a resume from the
/// checkpoints reproduces the uninterrupted outcome bit for bit — and when
/// telemetry is compiled in, the `persist.*` counters and the
/// `slide/checkpoint` span report exactly the persistence work performed.
#[test]
fn checkpointing_is_observationally_free_and_counted() {
    let _guard = lock();
    let mut config = ExperimentConfig::small()
        .with_algorithm(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
    config.trace.rounds = 6;
    let dir_off = std::env::temp_dir().join(format!("wsn-tel-ckpt-off-{}", std::process::id()));
    let dir_on = std::env::temp_dir().join(format!("wsn-tel-ckpt-on-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_off);
    let _ = std::fs::remove_dir_all(&dir_on);

    wsn_obs::set_enabled(false);
    let plain = StreamingExperiment::new(config.clone()).run().expect("plain run succeeds");
    let off = StreamingExperiment::new(config.clone())
        .checkpoint_every_slides(2, &dir_off)
        .run()
        .expect("checkpointed uninstrumented run succeeds");

    wsn_obs::reset();
    wsn_obs::set_enabled(true);
    let on = StreamingExperiment::new(config.clone())
        .checkpoint_every_slides(2, &dir_on)
        .run()
        .expect("checkpointed instrumented run succeeds");
    let resumed = StreamingExperiment::new(config.clone())
        .resume_from(&dir_on)
        .run()
        .expect("instrumented resume succeeds");
    wsn_obs::set_enabled(false);

    assert_eq!(plain, off, "checkpointing must not change what the run computes");
    assert_eq!(off, on, "telemetry must not change what a checkpointed run computes");
    assert_eq!(resumed, plain, "a resumed run must reproduce the uninterrupted outcome");

    if wsn_obs::compiled() {
        let report = wsn_obs::report();
        assert_eq!(
            report.counter("persist.snapshots_written"),
            3,
            "6 slides at every=2 must write exactly 3 checkpoints; report: {:?}",
            report.counters,
        );
        assert!(
            report.counter("persist.snapshot_bytes") > 0,
            "written checkpoints must account their bytes"
        );
        let checkpoint_span =
            report.span("slide/checkpoint").expect("the checkpoint span must nest under slide");
        assert_eq!(checkpoint_span.count, 3, "one checkpoint span per checkpoint written");
        assert!(report.span("resume").is_some(), "the resume fast-forward must be spanned");
    }

    std::fs::remove_dir_all(&dir_off).expect("off-run checkpoint dir exists");
    std::fs::remove_dir_all(&dir_on).expect("on-run checkpoint dir exists");
}

/// The topology build's complexity gate: `Topology::from_specs` on the
/// 10 000-sensor city must make a number of distance tests linear in the
/// sensor count, about 35 per sensor, where the all-pairs build made
/// N(N−1)/2 ≈ 5·10⁷. A quadratic build creeping back fails this count
/// exactly, on a workload where a wall-clock bound would not resolve it.
#[test]
fn the_city_topology_build_makes_a_linear_number_of_distance_tests() {
    use wsn_data::lab::{LabDeployment, PAPER_TRANSMISSION_RANGE_M};

    let _guard = lock();
    let sensors = 10_000;
    let city = LabDeployment::city(sensors, 1).expect("the city deploys");
    wsn_obs::reset();
    wsn_obs::set_enabled(true);
    let topology = Topology::from_deployment(&city, PAPER_TRANSMISSION_RANGE_M);
    wsn_obs::set_enabled(false);
    assert_eq!(topology.len(), sensors);
    assert!(topology.is_connected(), "the city is connected at the paper's range");

    if wsn_obs::compiled() {
        let checks = wsn_obs::report().counter("topology.pair_checks");
        assert!(
            checks > 0 && checks < 50 * sensors as u64,
            "{checks} distance tests to build a {sensors}-sensor topology"
        );
    }
}

/// The event core's counter, from which the benchmark derives
/// `netsim.events` and `netsim.ns_per_event`: `sim.events_popped` must equal
/// the events the engine processed, on one region and on four. A 4×4 grid
/// (5 m spacing, 6 m range: 24 links) of beacons, each broadcasting once on
/// one external timer: 16 starts, 16 timers and 48 receptions.
#[test]
fn the_events_popped_counter_equals_the_events_processed() {
    use wsn_data::stream::SensorSpec;
    use wsn_data::Position;
    use wsn_netsim::radio::RadioConfig;
    use wsn_netsim::region::PartitionedSimulator;
    use wsn_netsim::sim::{Application, NodeContext, TimerId};

    struct Beacon;
    impl Application for Beacon {
        type Message = ();
        fn on_start(&mut self, _ctx: &mut NodeContext<()>) {}
        fn on_message(&mut self, _ctx: &mut NodeContext<()>, _from: SensorId, _message: ()) {}
        fn on_timer(&mut self, ctx: &mut NodeContext<()>, _timer: TimerId) {
            ctx.broadcast((), 8);
        }
    }

    let _guard = lock();
    let specs: Vec<SensorSpec> = (0..16u32)
        .map(|i| {
            let position = Position::new(f64::from(i % 4) * 5.0, f64::from(i / 4) * 5.0);
            SensorSpec::new(SensorId(i), position)
        })
        .collect();
    let topology = Topology::from_specs(&specs, 6.0);
    let config = SimConfig { radio: RadioConfig::with_range(6.0), ..Default::default() };
    for regions in [1, 4] {
        let mut sim = PartitionedSimulator::new(config, topology.clone(), regions, |_| Beacon);
        for i in 0..16u32 {
            sim.schedule_timer(SensorId(i), Timestamp::from_secs(u64::from(i) + 1), u64::from(i));
        }
        wsn_obs::reset();
        wsn_obs::set_enabled(true);
        assert!(sim.run_until_quiescent(Timestamp::from_secs(60)), "{regions} region(s)");
        wsn_obs::set_enabled(false);
        assert_eq!(sim.events_processed(), 16 + 16 + 48, "{regions} region(s)");
        if wsn_obs::compiled() {
            assert_eq!(
                wsn_obs::report().counter("sim.events_popped"),
                sim.events_processed(),
                "{regions} region(s)"
            );
        }
    }
}

/// The merged span report is deterministic: two identical instrumented runs
/// on the partitioned backend (which drains per-thread span buffers from
/// the worker pool) must agree on every counter value, every span path and
/// count, and every value-distribution histogram. Only wall-clock-valued
/// fields (span timings, `*_ns` histograms) may differ between runs.
#[test]
fn merged_span_reports_are_deterministic_across_the_worker_pool() {
    let _guard = lock();
    let mut config = ExperimentConfig::small()
        .with_algorithm(AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 1 })
        .with_backend(SimBackend::Partitioned { regions: 4 });
    config.sensor_count = 16;
    let experiment = StreamingExperiment::new(config);

    let observe = || {
        wsn_obs::reset();
        wsn_obs::set_enabled(true);
        experiment.run().expect("instrumented streaming run succeeds");
        wsn_obs::set_enabled(false);
        wsn_obs::report()
    };
    let first = observe();
    let second = observe();

    assert_eq!(first.counters, second.counters, "counter values must be deterministic");
    assert_eq!(first.gauges, second.gauges, "gauge values must be deterministic");

    let structure = |r: &wsn_obs::TelemetryReport| -> Vec<(String, u64)> {
        r.spans.iter().map(|s| (s.path.clone(), s.count)).collect()
    };
    assert_eq!(
        structure(&first),
        structure(&second),
        "span paths and counts must be deterministic"
    );

    // Histograms of *values* (queue depths, batch sizes, wire bytes) are
    // deterministic; histograms of *durations* are not and are skipped.
    let value_histograms = |r: &wsn_obs::TelemetryReport| {
        r.histograms.iter().filter(|h| !h.name.ends_with("_ns")).cloned().collect::<Vec<_>>()
    };
    assert_eq!(
        value_histograms(&first),
        value_histograms(&second),
        "value-distribution histograms must be deterministic"
    );

    if wsn_obs::compiled() {
        assert!(!first.counters.is_empty(), "an instrumented run must record counters");
        assert!(!first.spans.is_empty(), "an instrumented streaming run must record spans");
    }
}
