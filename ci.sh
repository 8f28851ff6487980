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

# The benchmark package is a workspace of its own, so the root `cargo test`,
# fmt, clippy and rustdoc steps never see it: a core API change could break
# `benchmark/run.sh` unnoticed. Its unit tests drive all six workloads at
# tiny scale; it gets the same lints as the workspace, on both its builds.
echo "== benchmark unit tests =="
CARGO_TARGET_DIR=target/benchmark cargo test --offline --locked --manifest-path benchmark/Cargo.toml

echo "== benchmark fmt, clippy (untraced and traced), rustdoc =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --manifest-path benchmark/Cargo.toml --check
else
    echo "rustfmt not installed; skipping"
fi
if cargo clippy --version >/dev/null 2>&1; then
    CARGO_TARGET_DIR=target/benchmark cargo clippy --offline --locked \
        --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
    CARGO_TARGET_DIR=target/benchmark cargo clippy --offline --locked \
        --manifest-path benchmark/Cargo.toml --all-targets --features telemetry -- -D warnings
else
    echo "clippy not installed; skipping"
fi
CARGO_TARGET_DIR=target/benchmark RUSTDOCFLAGS="-D warnings" \
    cargo doc --offline --locked --no-deps --manifest-path benchmark/Cargo.toml

# Example smoke: the examples that drive detector nodes end to end.
# `cargo test` only compiles examples, so a transport that panics or stops
# converging would pass it; quickstart must end with the two sensors in
# agreement, and semi_global_tracking runs the loss-free transport
# (`wsn_core::transport::run_to_quiescence`) on a chain for three hop
# diameters: its three result lines (which sensors flag the phantom, and
# how many points moved) must read exactly as below, so any change to
# hop-scope answers or traffic fails here. lab_deployment simulates the
# paper's 53-sensor lab with Global-NN, whose estimates the fixed-point
# engine serves: every node must agree and hold the exact O_n.
# energy_comparison runs Centralized, Global-NN and Global-KNN through
# `run_experiment` on the default backend, a one-region partition: its
# three result rows (energy per round, the busiest node, accuracy) must
# read exactly as below, so a change to that path's energy, traffic or
# answers fails here. streaming_scenarios drives the simulator through the
# per-slide driver (`StreamingExperiment`) over two labelled workload
# scenarios and, with INTEL_LAB_DIR unset, the committed Intel-shaped
# fixture: the fallback notice and three slide rows (accuracy, precision,
# recall, agreement, packets, points) must read exactly as below.
echo "== example smoke (quickstart, semi_global_tracking, lab_deployment, energy_comparison, streaming_scenarios) =="
quickstart=$(cargo run --release --offline --example quickstart)
printf '%s\n' "$quickstart"
grep -q "estimates agree: true" <<<"$quickstart" \
    || { echo "quickstart: the two sensors did not agree"; exit 1; }
tracking=$(cargo run --release --offline --example semi_global_tracking)
printf '%s\n' "$tracking"
for line in \
    "epsilon = 1: sensors flagging the phantom: s1 s2 s3   (data points moved: 30)" \
    "epsilon = 2: sensors flagging the phantom: s0 s1 s2 s3 s4   (data points moved: 42)" \
    "epsilon = 3: sensors flagging the phantom: s0 s1 s2 s3 s4 s5   (data points moved: 48)"; do
    grep -qxF "$line" <<<"$tracking" \
        || { echo "semi_global_tracking: missing the line \"$line\""; exit 1; }
done
lab=$(cargo run --release --offline --example lab_deployment)
printf '%s\n' "$lab"
grep -q "all estimates agree (Theorem 1):   true" <<<"$lab" \
    || { echo "lab_deployment: the estimates did not agree"; exit 1; }
grep -q "53/53" <<<"$lab" \
    || { echo "lab_deployment: not every node holds the exact O_n"; exit 1; }
energy=$(cargo run --release --offline --example energy_comparison)
printf '%s\n' "$energy"
for line in \
    "Centralized             0.0093          0.0530         2.724          2.73        1.00" \
    "Global-NN               0.0080          0.0521         1.533          1.59        1.00" \
    "Global-KNN              0.0145          0.0950         2.814          1.60        1.00"; do
    grep -qxF "$line" <<<"$energy" \
        || { echo "energy_comparison: missing the line \"$line\""; exit 1; }
done
scenarios=$(env -u INTEL_LAB_DIR cargo run --release --offline --example streaming_scenarios)
printf '%s\n' "$scenarios"
for line in \
    "  Intel-lab dataset not found; replaying the committed Intel-shaped fixture instead (8 motes, 12 rounds)" \
    "      1    1.000     0.250     1.000     yes      133       448" \
    "      3    1.000     0.000     0.000     yes       80       280" \
    "      5    1.000     1.000     1.000     yes       38       228"; do
    grep -qxF "$line" <<<"$scenarios" \
        || { echo "streaming_scenarios: missing the line \"$line\""; exit 1; }
done

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

# Streaming-scenario smoke: the fig_scenarios sweep at --quick scale (every
# workload catalog scenario × a grid of algorithms through the streaming
# window-slide driver and its per-slide grading), gated through json_check
# (a non-empty rows array). It writes a gitignored results/ file.
echo "== streaming scenario smoke (fig_scenarios --quick) =="
rm -f results/fig_scenarios.json
cargo run --release --offline -p wsn-bench --bin fig_scenarios -- --quick
cargo run --release --offline -p wsn-bench --bin json_check -- results/fig_scenarios.json

# Churn smoke: the dynamic-network rows (battery-death churn with rejoins,
# radio duty-cycling) must be present in the validated quick sweep — they run
# the fault plan end to end through the streaming driver on every algorithm.
# The figure keys rows by scenario index and names the scenarios in its
# legend string, so presence in the legend means the scenario was swept.
# (Their correctness properties — per-seed determinism, two and four
# regions ≡ the sequential backend's one region under faults, no
# dead-neighbour state — are the `property_churn` suite in the default test
# pass above.)
echo "== churn smoke (fig_scenarios dynamic-network rows) =="
for scenario in node_churn duty_cycle; do
    grep -q "=$scenario" results/fig_scenarios.json \
        || { echo "fig_scenarios --quick output is missing the $scenario scenario"; exit 1; }
done

# Crash-resume smoke: the kill-and-resume harness end to end — a faulted
# partitioned streaming run killed by an injected crash at a checkpoint
# boundary leaves a checkpoint that must pass json_check's snapshot schema
# (the binary calls the same validator) and must resume from disk to the
# exact never-stopped outcome; a two-shard fleet killed inside a shard
# write of its third checkpoint round (before the rename) leaves shard
# files that must each pass the same schema, and, resumed and re-fed the
# whole stream, must equal the never-stopped fleet in estimates, traffic
# and cursors; and a
# journaled seed sweep re-run against its own journal must skip every
# completed cell while reproducing the live sweep's aggregate bit for bit.
# Its three result lines must read exactly as below: a restore rebuilds
# the detectors' engine chains, quiet memo and revisions cold, so these
# lines pin that the cold restore changes no packet count, no resumed
# outcome and no sweep aggregate.
# The journal artifact is gated through json_check, which reads it under
# the journal's one rule (the parse SweepJournal::open loads with) and
# refuses a torn tail, like every other machine-readable output. (The
# exhaustive versions — kill at every boundary, torn-file refusal, the
# 256-case resume grid — are the `property_persist` suite in the default
# test pass above.)
echo "== crash-resume smoke (kill at a checkpoint, resume, journaled sweep) =="
rm -f target/crash_resume_journal.jsonl
resume=$(WSN_CRASH_RESUME_OUT="$PWD/target/crash_resume_journal.jsonl" \
    cargo run --release --offline -p wsn-bench --bin crash_resume)
printf '%s\n' "$resume"
for line in \
    "resume == never-stopped: 6 slides, 98 packets, quiescent=true" \
    "fleet resume == never-stopped: 6 tenants, 2 shards, 6 epochs" \
    "journaled sweep: 3 rows, re-run skipped all cells, aggregate == sequential oracle"; do
    grep -qxF "$line" <<<"$resume" \
        || { echo "crash_resume: missing the line \"$line\""; exit 1; }
done
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

# Telemetry gate: build the instrumented configuration and prove it is
# observationally free: the property suite pairs collection-on and
# collection-off runs and asserts bit-identical outcomes, and with the
# counters compiled in it checks the fault plan's churn and the checkpoints
# on the faulted, checkpointed 2 000-sensor city among its inputs, and that
# the fixed point never desync-rebuilds, on streaming runs with and without
# window evictions and on an evicting fleet tenant.
echo "== telemetry build + property suite (--features telemetry) =="
cargo build --release --offline --features telemetry
cargo test -q --offline --features telemetry --test property_telemetry

# Benchmark gate: every workload BENCHMARK.json lists, at full size, with
# its minimum repetitions (--seconds 0), untraced and traced. The benchmark
# exits 0 even when a check fails and reports it as "correct":false in its
# result line, the last line of its standard output, so the step gates on
# that line. Each run grades its outputs against the exact answer (the
# fleets also against a sequential reference); a traced run also checks
# that the layer budget reconciles, each parent span within 10% of its
# children (slide = sim + collect + evaluate, among others). The builds go
# under target/, beside the unit tests'.
echo "== benchmark gate (every workload, --trace 0 and 1) =="
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
[ -n "$workloads" ] || { echo "BENCHMARK.json lists no workloads"; exit 1; }
for workload in $workloads; do
    for trace in 0 1; do
        started=$SECONDS
        output=$(CARGO_TARGET_DIR=target/benchmark \
            bash benchmark/run.sh --workload "$workload" --seconds 0 --trace "$trace") \
            || { echo "benchmark $workload --trace $trace exited non-zero"; exit 1; }
        printf '%s\n' "$output" | sed '$d'
        result=$(printf '%s\n' "$output" | tail -n 1)
        case "$result" in
            '{"correct":true,'*)
                echo "benchmark $workload --trace $trace: correct, $((SECONDS - started)) s" ;;
            *)
                echo "benchmark $workload --trace $trace failed: $result"
                exit 1 ;;
        esac
    done
done

echo "CI OK"
