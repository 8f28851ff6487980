//! Crash-safe persistence, as seeded properties: snapshots taken mid-
//! protocol restore into fresh nodes that behave **identically** from then
//! on, and a streaming run killed at a checkpoint and resumed from disk is
//! bit-for-bit the run that was never stopped — on both simulator backends,
//! under active fault plans (presumed-dead neighbours, pending rejoins,
//! duty-cycled sleepers).
//!
//! The suite covers exactly 256 seeded cases: 96 global-node round-trips,
//! 96 semi-global-node round-trips, and 64 kill/resume streaming pairs
//! across {sequential, partitioned} × fault plans × algorithms × seeds.
//! Alongside the property loops, the crash harness is swept exhaustively:
//! a kill injected at *every* checkpoint boundary (and inside the atomic
//! write protocol) must always either resume exactly or report a typed
//! error — torn state is never loaded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use in_network_outlier::detection::persist::{arm_crash_point, disarm_crash_points, CRASH_MARKER};
use in_network_outlier::detection::PersistError;
use in_network_outlier::prelude::*;
use wsn_data::rng::SeededRng;
use wsn_data::HopCount;
use wsn_netsim::region::SimBackend;
use wsn_workload::FaultProfile;

/// Fixed seed for the property loops.
const SEED: u64 = 0x5EED_0009;
/// Node-level round-trip cases per detector (96 + 96), plus the streaming
/// kill/resume grid (64): 256 cases in total.
const NODE_CASES: usize = 96;
const STREAM_CASES: usize = 64;

fn point(sensor: u32, epoch: u64, value: f64) -> DataPoint {
    DataPoint::new(SensorId(sensor), Epoch(epoch), Timestamp::ZERO, vec![value]).unwrap()
}

/// A random per-sensor dataset (the mixture the protocol property suite
/// uses: a tight cluster with occasional extremes).
fn gen_datasets(rng: &mut SeededRng, sensors: usize) -> Vec<Vec<f64>> {
    let count = rng.gen_range(2usize..sensors + 1);
    (0..count)
        .map(|_| {
            let len = rng.gen_range(1usize..8);
            (0..len)
                .map(|_| {
                    if rng.gen_bool(0.8) {
                        rng.gen_range(18.0..24.0)
                    } else {
                        rng.gen_range(-100.0..150.0)
                    }
                })
                .collect()
        })
        .collect()
}

/// A random connected neighbour list over `count` nodes: a random spanning
/// tree plus a few random extra edges.
fn gen_neighbors(rng: &mut SeededRng, count: usize) -> Vec<Vec<usize>> {
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); count];
    let link = |a: usize, b: usize, neighbors: &mut Vec<Vec<usize>>| {
        if a != b && !neighbors[a].contains(&b) {
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
    };
    for child in 1..count {
        let parent = rng.gen_range(0u64..child as u64) as usize;
        link(parent, child, &mut neighbors);
    }
    for _ in 0..rng.gen_range(0usize..count) {
        let a = rng.gen_range(0usize..count);
        let b = rng.gen_range(0usize..count);
        link(a, b, &mut neighbors);
    }
    neighbors
}

/// Runs up to `rounds` synchronous exchange rounds of the broadcast
/// protocol; stops early once no node has anything left to send. It keeps
/// its own loop because the properties stop the protocol mid-run on purpose.
fn run_rounds(
    nodes: &mut [DetectorNode<NnDistance>],
    ids: &[SensorId],
    neighbors: &[Vec<usize>],
    rounds: usize,
) {
    for _ in 0..rounds {
        let mut progress = false;
        for index in 0..nodes.len() {
            let neighbor_ids: Vec<SensorId> = neighbors[index].iter().map(|&j| ids[j]).collect();
            if let Some(message) = nodes[index].process(&neighbor_ids) {
                progress = true;
                for &peer in &neighbors[index] {
                    let points = message.points_for(ids[peer]);
                    if !points.is_empty() {
                        nodes[peer].receive(ids[index], points);
                    }
                }
            }
        }
        if !progress {
            return;
        }
    }
}

/// The core node-level property, shared by the global and semi-global
/// loops: interrupt the protocol mid-run, snapshot every node, restore each
/// snapshot into a factory-fresh node, and demand (a) the restored node
/// re-serializes to the identical dump and (b) the restored network,
/// continued to termination, stays state-for-state identical to the
/// original network continued the same way.
fn assert_network_round_trips(
    mut nodes: Vec<DetectorNode<NnDistance>>,
    ids: Vec<SensorId>,
    neighbors: Vec<Vec<usize>>,
    partial_rounds: usize,
    fresh: impl Fn(SensorId) -> DetectorNode<NnDistance>,
    context: &str,
) {
    run_rounds(&mut nodes, &ids, &neighbors, partial_rounds);

    let mut restored = Vec::with_capacity(nodes.len());
    for (index, node) in nodes.iter().enumerate() {
        let dump = node.persist_snapshot();
        let mut twin = fresh(ids[index]);
        twin.persist_restore(&dump).unwrap_or_else(|e| panic!("restore failed: {e}\n{context}"));
        assert_eq!(
            twin.persist_snapshot(),
            dump,
            "restored node re-serializes differently\n{context}"
        );
        restored.push(twin);
    }

    // Both networks now continue to termination; every final byte of node
    // state (and therefore every message along the way) must match.
    run_rounds(&mut nodes, &ids, &neighbors, 500);
    run_rounds(&mut restored, &ids, &neighbors, 500);
    for (original, twin) in nodes.iter().zip(&restored) {
        assert_eq!(
            original.persist_snapshot(),
            twin.persist_snapshot(),
            "continuations diverged after restore\n{context}"
        );
        assert!(
            original.estimate().same_outliers_as(&twin.estimate()),
            "estimates diverged after restore\n{context}"
        );
    }
}

/// 96 seeded cases: the global detector's canonical state — window,
/// shared-knowledge sets, liveness, traffic counters — survives a snapshot
/// taken at a random point mid-protocol, and the restored node, whose
/// engine, quiet memo and revisions start cold, continues identically.
#[test]
fn global_node_snapshots_round_trip_mid_protocol() {
    let mut rng = SeededRng::seed_from_u64(SEED);
    for case in 0..NODE_CASES {
        let datasets = gen_datasets(&mut rng, 6);
        let count = datasets.len();
        let neighbors = gen_neighbors(&mut rng, count);
        let n = rng.gen_range(1usize..4);
        let partial = rng.gen_range(0usize..4);
        let context = format!(
            "global case {case} (seed {SEED:#x}), n={n}, partial_rounds={partial}\n\
             datasets: {datasets:?}\nneighbors: {neighbors:?}"
        );

        let window = WindowConfig::from_secs(1_000_000).unwrap();
        let ids: Vec<SensorId> = (0..count).map(|s| SensorId(s as u32)).collect();
        let mut nodes = Vec::with_capacity(count);
        for (sensor, values) in datasets.iter().enumerate() {
            let mut node = DetectorNode::new(ids[sensor], NnDistance, n, None, window);
            node.add_local_points(
                values
                    .iter()
                    .enumerate()
                    .map(|(e, v)| point(sensor as u32, e as u64, *v))
                    .collect(),
            );
            nodes.push(node);
        }
        assert_network_round_trips(
            nodes,
            ids,
            neighbors,
            partial,
            |id| DetectorNode::new(id, NnDistance, n, None, window),
            &context,
        );
    }
}

/// 96 seeded cases: the same property for the semi-global detector, which
/// runs one fixed-point engine per hop prefix, each restored cold.
#[test]
fn semiglobal_node_snapshots_round_trip_mid_protocol() {
    let mut rng = SeededRng::seed_from_u64(SEED ^ 1);
    for case in 0..NODE_CASES {
        let datasets = gen_datasets(&mut rng, 6);
        let count = datasets.len();
        let neighbors = gen_neighbors(&mut rng, count);
        let n = rng.gen_range(1usize..4);
        let d = rng.gen_range(1u64..4) as HopCount;
        let partial = rng.gen_range(0usize..4);
        let context = format!(
            "semiglobal case {case} (seed {SEED:#x}), n={n}, d={d}, partial_rounds={partial}\n\
             datasets: {datasets:?}\nneighbors: {neighbors:?}"
        );

        let window = WindowConfig::from_secs(1_000_000).unwrap();
        let ids: Vec<SensorId> = (0..count).map(|s| SensorId(s as u32)).collect();
        let mut nodes = Vec::with_capacity(count);
        for (sensor, values) in datasets.iter().enumerate() {
            let mut node = DetectorNode::new(ids[sensor], NnDistance, n, Some(d), window);
            node.add_local_points(
                values
                    .iter()
                    .enumerate()
                    .map(|(e, v)| point(sensor as u32, e as u64, *v))
                    .collect(),
            );
            nodes.push(node);
        }
        assert_network_round_trips(
            nodes,
            ids,
            neighbors,
            partial,
            |id| DetectorNode::new(id, NnDistance, n, Some(d), window),
            &context,
        );
    }
}

/// The fault plans of the streaming grid: none, deaths only (leaving
/// presumed-dead neighbour state live at checkpoint time), deaths with
/// rejoins pending, and the full dynamic profile with duty-cycled radios.
fn fault_profiles() -> [Option<FaultProfile>; 4] {
    [
        None,
        Some(FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.0, duty_cycle: None }),
        Some(FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.5, duty_cycle: None }),
        Some(FaultProfile {
            death_fraction: 0.25,
            rejoin_fraction: 0.5,
            duty_cycle: Some((2.0, 0.75)),
        }),
    ]
}

fn streaming_config(
    algorithm: AlgorithmConfig,
    backend: SimBackend,
    profile: Option<&FaultProfile>,
    trace_seed: u64,
    sim_seed: u64,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::small().with_algorithm(algorithm).with_backend(backend);
    config.trace.rounds = 6;
    config.trace_seed = trace_seed;
    config.sim_seed = sim_seed;
    if let Some(profile) = profile {
        let deployment = wsn_data::lab::LabDeployment::with_sensor_count(
            config.sensor_count,
            config.deployment_seed,
        )
        .expect("deployment builds");
        let plan = profile.instantiate(
            deployment.sensors(),
            config.trace.sample_interval_secs,
            config.trace.rounds,
            sim_seed,
        );
        let liveness = 2.0 * config.trace.sample_interval_secs;
        config = config.with_fault_plan(plan).with_liveness_timeout(liveness);
    }
    config
}

fn scratch_dir(tag: &str, case: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wsn-prop-persist-{tag}-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kills a checkpointing run at its `nth` `persist.after_checkpoint` hook
/// and asserts the panic came from the harness, not a real bug.
fn kill_at_checkpoint(config: &ExperimentConfig, dir: &PathBuf, every: usize, nth: u32) {
    arm_crash_point("persist.after_checkpoint", nth);
    let killed = catch_unwind(AssertUnwindSafe(|| {
        StreamingExperiment::new(config.clone()).checkpoint_every_slides(every, dir).run().unwrap()
    }));
    disarm_crash_points();
    let payload = killed.expect_err("the armed crash point must kill the run");
    let message = payload.downcast::<String>().expect("crash panics carry a String");
    assert!(message.contains(CRASH_MARKER), "unexpected panic: {message:?}");
}

/// 64 seeded cases — {sequential, partitioned} × 4 fault plans × 2
/// algorithms × 4 seeds: a streaming run killed right after its first
/// checkpoint and resumed from disk equals the never-stopped run on every
/// slide report, every accuracy grade, every energy figure and the final
/// network statistics, bit for bit.
#[test]
fn resumed_streaming_runs_equal_never_stopped_runs() {
    let mut cases = 0usize;
    for backend in [SimBackend::Sequential, SimBackend::Partitioned { regions: 2 }] {
        for profile in &fault_profiles() {
            for algorithm in [
                AlgorithmConfig::Global { ranking: RankingChoice::Nn },
                AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 },
            ] {
                for (trace_seed, sim_seed) in [(7, 1), (11, 2), (13, 3), (17, 5)] {
                    let config = streaming_config(
                        algorithm,
                        backend,
                        profile.as_ref(),
                        trace_seed,
                        sim_seed,
                    );
                    let context = format!(
                        "case {cases}: backend={backend:?} faults={} algorithm={algorithm:?} \
                         trace_seed={trace_seed} sim_seed={sim_seed}",
                        profile.is_some(),
                    );
                    let baseline = StreamingExperiment::new(config.clone())
                        .run()
                        .unwrap_or_else(|e| panic!("baseline failed: {e}\n{context}"));

                    let dir = scratch_dir("grid", cases);
                    kill_at_checkpoint(&config, &dir, 2, 1);
                    let resumed = StreamingExperiment::new(config)
                        .resume_from(&dir)
                        .run()
                        .unwrap_or_else(|e| panic!("resume failed: {e}\n{context}"));
                    assert_eq!(resumed, baseline, "resume diverged\n{context}");
                    std::fs::remove_dir_all(&dir).expect("checkpoint dir exists");
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, STREAM_CASES, "the grid is meant to cover exactly 64 kill/resume cases");
    assert_eq!(2 * NODE_CASES + STREAM_CASES, 256, "the suite is meant to total 256 cases");
}

/// The kill-at-every-checkpoint sweep: with a checkpoint after every slide,
/// inject the kill at each of the six boundaries in turn — plus inside the
/// atomic write protocol (before the write, between write and rename, after
/// the rename). Every variant must either resume to the exact baseline or
/// fail with a typed error; no variant may load partial state.
#[test]
fn a_kill_at_every_checkpoint_boundary_recovers_exactly() {
    let config = streaming_config(
        AlgorithmConfig::Global { ranking: RankingChoice::Nn },
        SimBackend::Sequential,
        fault_profiles()[3].as_ref(),
        7,
        1,
    );
    let baseline = StreamingExperiment::new(config.clone()).run().unwrap();

    for nth in 1..=6u32 {
        let dir = scratch_dir("every", nth as usize);
        kill_at_checkpoint(&config, &dir, 1, nth);
        let resumed = StreamingExperiment::new(config.clone()).resume_from(&dir).run().unwrap();
        assert_eq!(resumed, baseline, "kill after checkpoint {nth} did not resume exactly");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Killed before the very first write: no checkpoint exists, and resume
    // says so with a typed I/O error instead of fabricating state.
    let dir = scratch_dir("before-write", 0);
    arm_crash_point("persist.before_write", 1);
    let killed = catch_unwind(AssertUnwindSafe(|| {
        StreamingExperiment::new(config.clone()).checkpoint_every_slides(1, &dir).run().unwrap()
    }));
    disarm_crash_points();
    assert!(killed.is_err());
    let err = StreamingExperiment::new(config.clone()).resume_from(&dir).run().unwrap_err();
    assert!(
        matches!(err, CoreError::Persist(PersistError::Io(_))),
        "a missing checkpoint must be a typed I/O error, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Killed inside the atomic write protocol of the *second* checkpoint:
    // before the rename the first checkpoint is still the live file (the
    // half-written state sits in the tmp file the rename never promoted),
    // and after the rename the second one is fully durable. Either way,
    // resume finds an intact file.
    for (crash_point, nth) in [("persist.before_rename", 2), ("persist.after_rename", 2)] {
        let dir = scratch_dir(crash_point, nth as usize);
        arm_crash_point(crash_point, nth);
        let killed = catch_unwind(AssertUnwindSafe(|| {
            StreamingExperiment::new(config.clone()).checkpoint_every_slides(1, &dir).run().unwrap()
        }));
        disarm_crash_points();
        assert!(killed.is_err());
        let resumed = StreamingExperiment::new(config.clone()).resume_from(&dir).run().unwrap();
        assert_eq!(resumed, baseline, "kill at {crash_point} did not resume exactly");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Torn and tampered checkpoints are refused with typed errors at every
/// truncation point — the preflight (header, declared length, checksum)
/// rejects the file before any state is installed, so a corrupted resume
/// can never produce a silently-wrong run.
#[test]
fn torn_checkpoints_are_always_refused_never_loaded() {
    let config = streaming_config(
        AlgorithmConfig::Global { ranking: RankingChoice::Nn },
        SimBackend::Sequential,
        None,
        7,
        1,
    );
    let baseline = StreamingExperiment::new(config.clone()).run().unwrap();
    let dir = scratch_dir("torn", 0);
    let done =
        StreamingExperiment::new(config.clone()).checkpoint_every_slides(2, &dir).run().unwrap();
    assert_eq!(done, baseline);
    let path = dir.join("checkpoint.json");
    let intact = std::fs::read(&path).unwrap();

    // Every truncation (sampled across the file, from the empty file up to
    // one byte into the payload tail) must yield a typed corruption error.
    let mut lengths: Vec<usize> = (0..10).map(|i| intact.len() * i / 10).collect();
    lengths.push(intact.len() - 2);
    for len in lengths {
        std::fs::write(&path, &intact[..len]).unwrap();
        let err = StreamingExperiment::new(config.clone())
            .resume_from(&dir)
            .run()
            .expect_err("a truncated checkpoint must never load");
        assert!(
            matches!(err, CoreError::Persist(PersistError::Corrupt(_))),
            "truncation to {len} bytes gave {err:?}, expected Corrupt"
        );
    }

    // A single flipped payload bit fails the checksum.
    let mut rotted = intact.clone();
    let flip = rotted.len() - 10;
    rotted[flip] ^= 0x01;
    std::fs::write(&path, &rotted).unwrap();
    let err = StreamingExperiment::new(config.clone()).resume_from(&dir).run().unwrap_err();
    assert!(matches!(err, CoreError::Persist(PersistError::Corrupt(_))), "bit rot gave {err:?}");

    // The intact file still resumes — the refusals above were the file's
    // fault, not the loader's.
    std::fs::write(&path, &intact).unwrap();
    let resumed = StreamingExperiment::new(config).resume_from(&dir).run().unwrap();
    assert_eq!(resumed, baseline);
    std::fs::remove_dir_all(&dir).unwrap();
}
