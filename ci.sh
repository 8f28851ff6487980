#!/usr/bin/env bash
# Tier-1 verification for the workspace, fully offline.
#
# The workspace is hermetic: no external registry crates anywhere in the
# dependency graph, so `--offline` must always succeed. Any attempt to
# reintroduce a crates.io dependency fails here first.
set -euo pipefail
cd "$(dirname "$0")"

# This default-features build doubles as the telemetry-off proof: the
# `wsn-obs` instrumentation compiles to zero-sized no-ops unless the
# `telemetry` feature is requested, and every crate must build that way.
echo "== cargo build --release --offline =="
cargo build --release --offline --workspace

echo "== cargo test -q --offline =="
cargo test -q --offline --workspace

echo "== cargo fmt --check =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "rustfmt not installed; skipping"
fi

echo "== cargo clippy -D warnings =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping"
fi

# Rustdoc gate: intra-doc links to renamed or deleted items fail here
# instead of silently rendering as plain text.
echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# The benchmark package is a workspace of its own, so the root `cargo test`
# never compiles it: a core API change could break `benchmark/run.sh`
# unnoticed. Its unit tests drive all six workloads at tiny scale.
echo "== benchmark unit tests =="
CARGO_TARGET_DIR=target/benchmark cargo test --offline --locked --manifest-path benchmark/Cargo.toml

# Campaign smoke: every figure and table spec of the paper's evaluation at
# --quick scale, through the one journaled pipeline, gated on the exit
# status and on json_check of the quick journal (which the binary recreates
# on every run, so it can only hold this run's rows). The quick run must
# leave the committed archive alone: results/journal.jsonl and
# EXPERIMENTS.md are checksummed before and compared after.
echo "== campaign smoke (all figures --quick; the archive stays untouched) =="
archive_before=$(cksum results/journal.jsonl EXPERIMENTS.md)
cargo run --release --offline -p wsn-bench --bin campaign -- --quick
cargo run --release --offline -p wsn-bench --bin json_check -- results/journal_quick.jsonl
archive_after=$(cksum results/journal.jsonl EXPERIMENTS.md)
[ "$archive_before" = "$archive_after" ] \
    || { echo "campaign --quick modified results/journal.jsonl or EXPERIMENTS.md"; exit 1; }

# Simulation-bench smoke: run one quick group with a tiny measurement budget
# and gate its JSON through json_check (non-empty groups, finite medians).
# WSN_BENCH_OUT redirects the output so the committed full-run
# BENCH_simulation_bench.json is never overwritten by the smoke numbers.
echo "== simulation_bench smoke (fig4 group) =="
rm -f target/bench_smoke.json
WSN_BENCH_WARMUP_MS=1 WSN_BENCH_MEASURE_MS=25 WSN_BENCH_OUT="$PWD/target/bench_smoke.json" \
    cargo bench --offline -p wsn-bench --bench simulation_bench -- fig4_global_vs_centralized
cargo run --release --offline -p wsn-bench --bin json_check -- target/bench_smoke.json

# Scaling smoke: the 200-sensor distributed deployment end to end, once,
# with the minimum measurement budget — the regime where the sufficient-set
# fixed point used to go super-linear. Gated through json_check so the
# scaling path cannot silently regress into not completing (the harness
# would hang or die, leaving no valid JSON behind).
echo "== scaling smoke (200-sensor Global-NN) =="
rm -f target/bench_scaling_smoke.json
WSN_BENCH_WARMUP_MS=1 WSN_BENCH_MEASURE_MS=1 WSN_BENCH_OUT="$PWD/target/bench_scaling_smoke.json" \
    cargo bench --offline -p wsn-bench --bench simulation_bench -- scaling/global_nn/200
cargo run --release --offline -p wsn-bench --bin json_check -- target/bench_scaling_smoke.json

# Partitioned-backend smoke: the 10 000-sensor city deployment streamed end
# to end on both backends (sequential oracle and spatially partitioned
# regions), once each with the minimum measurement budget. This is the
# city-scale acceptance path: it proves the partitioned epoch protocol
# completes at four orders of magnitude more sensors than the paper's 53,
# and json_check gates it the same way as the other smokes.
echo "== partitioned smoke (10k-sensor city, both backends) =="
rm -f target/bench_partitioned_smoke.json
WSN_BENCH_WARMUP_MS=1 WSN_BENCH_MEASURE_MS=1 WSN_BENCH_OUT="$PWD/target/bench_partitioned_smoke.json" \
    cargo bench --offline -p wsn-bench --bench simulation_bench -- scaling/partitioned/10000
cargo run --release --offline -p wsn-bench --bin json_check -- target/bench_partitioned_smoke.json

# Streaming-scenario smoke: the scenario bench group (workload generation +
# streaming window-slide driver + per-slide grading) with a tiny measurement
# budget, then the fig_scenarios sweep at --quick scale. Both are gated
# through json_check (non-empty rows/results, finite positive medians), and
# both write to scratch paths so the committed bench/figure JSONs stay
# intact.
echo "== streaming scenario smoke (scenario bench group + fig_scenarios --quick) =="
rm -f target/bench_scenario_smoke.json
WSN_BENCH_WARMUP_MS=1 WSN_BENCH_MEASURE_MS=25 WSN_BENCH_OUT="$PWD/target/bench_scenario_smoke.json" \
    cargo bench --offline -p wsn-bench --bench simulation_bench -- scenario/
cargo run --release --offline -p wsn-bench --bin json_check -- target/bench_scenario_smoke.json
rm -f results/fig_scenarios.json
cargo run --release --offline -p wsn-bench --bin fig_scenarios -- --quick
cargo run --release --offline -p wsn-bench --bin json_check -- results/fig_scenarios.json

# Churn smoke: the dynamic-network rows (battery-death churn with rejoins,
# radio duty-cycling) must be present in the validated quick sweep — they run
# the fault plan end to end through the streaming driver on every algorithm.
# The figure keys rows by scenario index and names the scenarios in its
# legend string, so presence in the legend means the scenario was swept.
# (Their correctness properties — per-seed determinism, partitioned ≡
# sequential under faults, no dead-neighbour state — are the
# `property_churn` suite in the default test pass above.)
echo "== churn smoke (fig_scenarios dynamic-network rows) =="
for scenario in node_churn duty_cycle; do
    grep -q "=$scenario" results/fig_scenarios.json \
        || { echo "fig_scenarios --quick output is missing the $scenario scenario"; exit 1; }
done

# Crash-resume smoke: the kill-and-resume harness end to end — a faulted
# partitioned streaming run killed by an injected crash at a checkpoint
# boundary leaves a checkpoint that must pass json_check's snapshot schema
# (the binary calls the same validator) and must resume from disk to the
# exact never-stopped outcome, and a
# journaled seed sweep re-run against its own journal must skip every
# completed cell while reproducing the live sweep's aggregate bit for bit.
# The journal artifact is gated through json_check (strictly increasing
# cells, finite metrics) like every other machine-readable output. (The
# exhaustive versions — kill at every boundary, torn-file refusal, the
# 256-case resume grid — are the `property_persist` suite in the default
# test pass above.)
echo "== crash-resume smoke (kill at a checkpoint, resume, journaled sweep) =="
rm -f target/crash_resume_journal.jsonl
WSN_CRASH_RESUME_OUT="$PWD/target/crash_resume_journal.jsonl" \
    cargo run --release --offline -p wsn-bench --bin crash_resume
cargo run --release --offline -p wsn-bench --bin json_check -- target/crash_resume_journal.jsonl

# Archive gate: EXPERIMENTS.md must regenerate from the committed journal
# alone. campaign runs the archived figures where a copy of the journal
# sits at its default relative path, so the output names the journal as the
# committed file does; the copy must keep its row count (a pure re-read, no
# cell re-simulated). `crates/bench/tests/archive_reproduces.rs` checks that
# archived rows are what the batch runner computes today.
echo "== archive gate (EXPERIMENTS.md from the committed journal) =="
rm -rf target/archive_check
mkdir -p target/archive_check/results
cp results/journal.jsonl target/archive_check/results/
archived_rows=$(wc -l < target/archive_check/results/journal.jsonl)
(cd target/archive_check && cargo run --release --offline -q -p wsn-bench --bin campaign -- \
    fig4 fig5 fig6 fig7 imbalance)
rows=$(wc -l < target/archive_check/results/journal.jsonl)
[ "$rows" -eq "$archived_rows" ] \
    || { echo "campaign appended to the journal copy: $archived_rows -> $rows rows"; exit 1; }
diff EXPERIMENTS.md target/archive_check/EXPERIMENTS.md
cargo run --release --offline -p wsn-bench --bin json_check -- results/journal.jsonl

# Fleet smoke: the multi-tenant detection service end to end — a small
# fleet of grid tenants with per-tenant checkpoints enabled, driven by the
# fig_fleet throughput binary at --quick scale and gated through json_check
# (the `kind: "fleet"` schema: positive tenant/shard/slide counts, finite
# positive tenant-slides/sec). The output goes to a scratch path so a
# committed full-run results/fig_fleet.json stays intact. (The correctness
# properties — fleet-over-pool ≡ sequential bit for bit, kill-at-checkpoint
# resume ≡ never-stopped — are the `property_fleet` suite in the default
# test pass above.)
echo "== fleet smoke (fig_fleet --quick, checkpoints on) =="
rm -f target/fig_fleet_smoke.json
WSN_FIG_FLEET_OUT="$PWD/target/fig_fleet_smoke.json" \
    cargo run --release --offline -p wsn-bench --bin fig_fleet -- --quick
cargo run --release --offline -p wsn-bench --bin json_check -- target/fig_fleet_smoke.json

# Telemetry gate: build the instrumented configuration, prove it is
# observationally free (the property suite pairs collection-on and
# collection-off runs and asserts bit-identical outcomes), then run the
# instrumented 2k-city streaming profile end to end. fig_telemetry exits
# non-zero if the per-slide stage breakdown does not reconcile within 10%,
# and json_check validates the sidecar schema (non-empty registries, finite
# non-negative values, strictly increasing histogram bounds).
echo "== telemetry build + property suite (--features telemetry) =="
cargo build --release --offline --features telemetry
cargo test -q --offline --features telemetry --test property_telemetry

echo "== telemetry smoke (fig_telemetry -> TELEMETRY json) =="
rm -f target/TELEMETRY_smoke.json
WSN_TELEMETRY_OUT="$PWD/target/TELEMETRY_smoke.json" \
    cargo run --release --offline --features telemetry -p wsn-bench --bin fig_telemetry
cargo run --release --offline -p wsn-bench --bin json_check -- target/TELEMETRY_smoke.json

echo "CI OK"
