//! `crash_resume`: the kill-and-resume acceptance harness, runnable end to
//! end as a CI smoke.
//!
//! Three checks, each fatal on failure:
//!
//! 1. **Checkpoint/resume** — a faulted streaming run (node deaths, rejoins,
//!    duty-cycled radios, partitioned backend) is killed by an injected
//!    crash right after a mid-run checkpoint. The on-disk snapshot must pass
//!    `json_check`'s snapshot schema ([`wsn_bench::check::check_file`]),
//!    then the run resumes from it; the resumed [`StreamingOutcome`] must
//!    equal the run that was never stopped, field for field.
//! 2. **Journaled sweep** — a seed sweep is journaled to JSONL, then re-run
//!    against the same journal; the second pass must skip every completed
//!    cell and reproduce the identical averaged outcome, which must in turn
//!    be bit-identical to the sequential oracle
//!    ([`wsn_bench::run_averaged_sequential`]).
//! 3. **Artifact** — the journal is left behind (default
//!    `target/crash_resume_journal.jsonl`, override with
//!    `WSN_CRASH_RESUME_OUT`) for `json_check` to validate downstream.
//!
//! The injected kill is a real panic through the `wsn_core::persist` crash
//! points — the same mechanism the `property_persist` suite sweeps over
//! every checkpoint boundary.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use wsn_core::experiment::{AlgorithmConfig, ExperimentConfig, RankingChoice};
use wsn_core::persist::{arm_crash_point, disarm_crash_points, CRASH_MARKER};
use wsn_core::streaming::{StreamingExperiment, StreamingOutcome};
use wsn_data::lab::LabDeployment;
use wsn_workload::FaultProfile;

/// Slides in the streaming run; checkpoints land every [`EVERY`] slides and
/// the kill strikes at the second one (slide 4 of 6).
const ROUNDS: usize = 6;
const EVERY: usize = 2;
const KILL_AT_CHECKPOINT: u32 = 2;

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

/// Runs the checkpointing experiment until the armed crash point kills it,
/// verifying the panic really came from the injection harness.
fn kill_mid_run(config: &ExperimentConfig, dir: &std::path::Path) {
    arm_crash_point("persist.after_checkpoint", KILL_AT_CHECKPOINT);
    // The injected panic is expected; keep its backtrace out of the log.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let killed: Result<StreamingOutcome, _> = catch_unwind(AssertUnwindSafe(|| {
        StreamingExperiment::new(config.clone())
            .checkpoint_every_slides(EVERY, dir)
            .run()
            .expect("checkpointed run failed before the injected kill")
    }));
    std::panic::set_hook(default_hook);
    disarm_crash_points();
    let payload = killed.expect_err("the armed crash point must kill the run");
    let message = payload.downcast::<String>().expect("crash panics carry a String");
    assert!(message.contains(CRASH_MARKER), "unexpected panic: {message:?}");
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
