//! `crash_resume`: the kill-and-resume acceptance harness, runnable end to
//! end as a CI smoke.
//!
//! Four checks, each fatal on failure:
//!
//! 1. **Checkpoint/resume** — a faulted streaming run (node deaths, rejoins,
//!    duty-cycled radios, partitioned backend) is killed by an injected
//!    crash right after a mid-run checkpoint. The on-disk snapshot must pass
//!    `json_check`'s snapshot schema ([`wsn_bench::check::check_file`]),
//!    then the run resumes from it; the resumed
//!    [`StreamingOutcome`](wsn_core::streaming::StreamingOutcome) must
//!    equal the run that was never stopped, field for field.
//! 2. **Fleet checkpoint/resume** — a two-shard [`DetectorFleet`] of
//!    fleetload tenants, checkpointing every epoch, is killed inside a
//!    shard write of its third round (`persist.before_rename`: the shard's
//!    new file is written but not installed). Every shard file left behind
//!    must pass the same schema; the resumed fleet, re-fed the whole stream,
//!    must equal the never-stopped fleet in estimates, traffic and cursors.
//! 3. **Journaled sweep** — a seed sweep is journaled to JSONL, then re-run
//!    against the same journal; the second pass must skip every completed
//!    cell and reproduce the identical averaged outcome, which must in turn
//!    be bit-identical to the sequential oracle
//!    ([`wsn_bench::run_averaged_sequential`]).
//! 4. **Artifact** — the journal is left behind (default
//!    `target/crash_resume_journal.jsonl`, override with
//!    `WSN_CRASH_RESUME_OUT`) for `json_check` to validate downstream.
//!
//! The injected kill is a real panic through the `wsn_core::persist` crash
//! points — the same mechanism the `property_persist` suite sweeps over
//! every checkpoint boundary.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

use wsn_bench::fleetload::{epoch_batch, tenant_spec};
use wsn_core::experiment::{AlgorithmConfig, ExperimentConfig, RankingChoice};
use wsn_core::persist::{arm_crash_point, disarm_crash_points, CRASH_MARKER};
use wsn_core::streaming::StreamingExperiment;
use wsn_data::lab::LabDeployment;
use wsn_fleet::{DetectorFleet, FleetError, TenantId};
use wsn_workload::FaultProfile;

/// Slides in the streaming run; checkpoints land every [`EVERY`] slides and
/// the kill strikes at the second one (slide 4 of 6).
const ROUNDS: usize = 6;
const EVERY: usize = 2;
const KILL_AT_CHECKPOINT: u32 = 2;

/// The fleet leg: tenants, shards and epochs; every epoch is a checkpoint
/// round, and the kill strikes in round [`FLEET_KILL_ROUND`] (1-based).
const FLEET_TENANTS: u64 = 6;
const FLEET_SHARDS: usize = 2;
const FLEET_EPOCHS: u64 = 6;
const FLEET_KILL_ROUND: u64 = 3;

/// Churn plus duty-cycling, so the checkpoint carries presumed-dead
/// neighbour state, pending rejoins and sleeping radios across the kill.
const FAULTS: FaultProfile =
    FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.5, duty_cycle: Some((2.0, 0.75)) };

fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::small()
        .with_algorithm(AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 })
        .with_backend(wsn_netsim::region::SimBackend::Partitioned { regions: 2 });
    config.trace.rounds = ROUNDS;
    let deployment = LabDeployment::with_sensor_count(config.sensor_count, config.deployment_seed)
        .expect("deployment builds");
    let plan = FAULTS.instantiate(
        deployment.sensors(),
        config.trace.sample_interval_secs,
        config.trace.rounds,
        config.sim_seed,
    );
    let liveness = 2.0 * config.trace.sample_interval_secs;
    config.with_fault_plan(plan).with_liveness_timeout(liveness)
}

/// Runs `run` with the crash site `site` armed for its `nth` hit, and
/// returns the injected panic's message, or `None` if the run completed.
fn killed_at(site: &str, nth: u32, run: impl FnOnce()) -> Option<String> {
    arm_crash_point(site, nth);
    // The injected panic is expected; keep its backtrace out of the log.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let killed = catch_unwind(AssertUnwindSafe(run));
    std::panic::set_hook(default_hook);
    disarm_crash_points();
    let payload = killed.err()?;
    Some(*payload.downcast::<String>().expect("crash panics carry a String"))
}

/// Runs the checkpointing experiment until the armed crash point kills it,
/// verifying the panic really came from the injection harness.
fn kill_mid_run(config: &ExperimentConfig, dir: &Path) {
    let message = killed_at("persist.after_checkpoint", KILL_AT_CHECKPOINT, || {
        StreamingExperiment::new(config.clone())
            .checkpoint_every_slides(EVERY, dir)
            .run()
            .map(drop)
            .expect("checkpointed run failed before the injected kill");
    })
    .expect("the armed crash point must kill the run");
    assert!(message.contains(CRASH_MARKER), "unexpected panic: {message:?}");
}

/// A fleet of fleetload tenants, checkpointing every epoch under `dir`.
fn fleet(dir: Option<&Path>) -> DetectorFleet {
    let mut fleet = DetectorFleet::new(FLEET_SHARDS);
    for t in 0..FLEET_TENANTS {
        fleet.add_tenant(TenantId(t), tenant_spec()).expect("the fleetload tenant registers");
    }
    if let Some(dir) = dir {
        fleet.checkpoint_every_epochs(1, dir);
    }
    fleet
}

/// Ingests one epoch for every tenant, then steps.
fn feed(fleet: &mut DetectorFleet, epoch: u64) -> Result<(), FleetError> {
    for t in 0..FLEET_TENANTS {
        fleet.ingest(TenantId(t), epoch_batch(t, epoch))?;
    }
    fleet.step().map(drop)
}

/// Check 2: kill a checkpointing fleet inside a shard write, validate what
/// it left behind, resume and compare with the fleet that never stopped.
fn fleet_leg(dir: &Path) -> Result<(), String> {
    let mut baseline = fleet(None);
    for epoch in 0..FLEET_EPOCHS {
        feed(&mut baseline, epoch).map_err(|e| e.to_string())?;
    }

    // Each round writes one file per shard (every shard holds tenants, and
    // every tenant is due every epoch), so this is the kill round's first.
    let hit = (FLEET_KILL_ROUND - 1) as u32 * FLEET_SHARDS as u32 + 1;
    let round = Cell::new(0);
    let message = killed_at("persist.before_rename", hit, || {
        let mut live = fleet(Some(dir));
        for epoch in 0..FLEET_EPOCHS {
            round.set(epoch + 1);
            feed(&mut live, epoch).expect("checkpointed fleet failed before the injected kill");
        }
    })
    .ok_or("the armed crash point did not kill the fleet")?;
    if !message.contains(CRASH_MARKER) || round.get() != FLEET_KILL_ROUND {
        return Err(format!("unexpected kill in round {}: {message:?}", round.get()));
    }
    println!("fleet: killed by injected crash at persist.before_rename in round {}", round.get());

    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .map(|entry| entry.map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    names.sort();
    if !names.iter().any(|name| name.ends_with(".tmp")) {
        return Err(format!("the kill left no torn shard behind: {names:?}"));
    }
    for name in names.iter().filter(|name| name.ends_with(".json")) {
        println!("{}", wsn_bench::check::check_file(&dir.join(name).to_string_lossy())?);
    }

    let mut resumed = fleet(Some(dir));
    let report = resumed.resume_from(dir);
    if !report.failed.is_empty() || report.restored.len() as u64 != FLEET_TENANTS {
        return Err(format!("the fleet did not resume cleanly: {report:?}"));
    }
    // The kill struck before any shard of its round was installed, so every
    // tenant resumes at the previous round's cursor; re-fed from epoch 0, a
    // fresh fleet would also end equal, so the cursors are checked first.
    for id in resumed.tenant_ids() {
        if resumed.next_epoch(id).ok() != Some(FLEET_KILL_ROUND - 1) {
            return Err(format!("{id} did not resume at the previous round's cursor"));
        }
    }
    for epoch in 0..FLEET_EPOCHS {
        feed(&mut resumed, epoch).map_err(|e| e.to_string())?;
    }
    for id in baseline.tenant_ids() {
        let same = resumed.estimates(id).ok() == baseline.estimates(id).ok()
            && resumed.traffic(id).ok() == baseline.traffic(id).ok()
            && resumed.next_epoch(id).ok() == baseline.next_epoch(id).ok();
        if !same {
            return Err(format!("resumed {id} diverges from the never-stopped fleet"));
        }
    }
    println!(
        "fleet resume == never-stopped: {FLEET_TENANTS} tenants, {FLEET_SHARDS} shards, \
         {FLEET_EPOCHS} epochs"
    );
    Ok(())
}

fn main() -> ExitCode {
    let config = config();

    println!(
        "crash_resume: streaming {} sensors, semi-global NN d=2, {ROUNDS} slides, \
         faulted + partitioned...",
        config.sensor_count
    );
    let baseline =
        StreamingExperiment::new(config.clone()).run().expect("uninterrupted run failed");

    let dir = std::env::temp_dir().join(format!("crash_resume_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    kill_mid_run(&config, &dir);
    println!(
        "killed by injected crash at checkpoint {KILL_AT_CHECKPOINT} (slide {})",
        KILL_AT_CHECKPOINT as usize * EVERY
    );

    // The checkpoint the current writer produced, validated as json_check
    // would validate any snapshot artifact, before it is trusted.
    match wsn_bench::check::check_file(&dir.join("checkpoint.json").to_string_lossy()) {
        Ok(summary) => println!("{summary}"),
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            eprintln!("crash_resume: {e}");
            return ExitCode::FAILURE;
        }
    }
    let resumed = StreamingExperiment::new(config.clone())
        .resume_from(&dir)
        .run()
        .expect("resume from the checkpoint failed");
    let _ = std::fs::remove_dir_all(&dir);
    if resumed != baseline {
        eprintln!("crash_resume: resumed outcome diverges from the uninterrupted run");
        return ExitCode::FAILURE;
    }
    println!(
        "resume == never-stopped: {} slides, {} packets, quiescent={}",
        resumed.slides.len(),
        resumed.final_stats.total_packets_sent(),
        resumed.quiescent_tail,
    );

    let dir = std::env::temp_dir().join(format!("crash_resume_fleet_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = fleet_leg(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = fleet {
        eprintln!("crash_resume: fleet: {e}");
        return ExitCode::FAILURE;
    }

    // The journaled sweep: run, re-run (all cells skipped), and cross-check
    // against the sequential oracle.
    let journal_path = std::env::var("WSN_CRASH_RESUME_OUT")
        .unwrap_or_else(|_| "target/crash_resume_journal.jsonl".into());
    let _ = std::fs::remove_file(&journal_path);
    let mut sweep_config = ExperimentConfig::small();
    sweep_config.trace.rounds = 2;
    let seeds = 3u64;

    let mut journal = wsn_bench::SweepJournal::open(&journal_path).expect("sweep journal opens");
    let plan = [sweep_config];
    let first = journal.run_plan(&plan, seeds).expect("journaled sweep runs");
    let rows_after_first = journal.rows().len();

    let mut reopened = wsn_bench::SweepJournal::open(&journal_path).expect("journal reopens");
    let second = reopened.run_plan(&plan, seeds).expect("journaled re-run runs");
    if reopened.rows().len() != rows_after_first {
        eprintln!(
            "crash_resume: the re-run appended rows ({} -> {}) instead of skipping",
            rows_after_first,
            reopened.rows().len()
        );
        return ExitCode::FAILURE;
    }
    if second != first {
        eprintln!("crash_resume: the journaled re-run does not reproduce the first sweep");
        return ExitCode::FAILURE;
    }
    let oracle =
        wsn_bench::run_averaged_sequential(&plan[0], seeds).expect("the sequential oracle runs");
    if first != vec![oracle] {
        eprintln!("crash_resume: the journaled aggregate diverges from the sequential oracle");
        return ExitCode::FAILURE;
    }
    println!(
        "journaled sweep: {rows_after_first} rows, re-run skipped all cells, \
         aggregate == sequential oracle"
    );
    println!("journal -> {journal_path}");
    ExitCode::SUCCESS
}
