#!/usr/bin/env bash
# Builds the benchmark (untraced and traced) and runs one workload.
#
#   bash benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the repository root. `--trace 0` runs the `release` build, where
# the wsn-obs telemetry is compiled out; `--trace 1` runs the `traced` build
# (`--features telemetry`). Both are built on every call, so only the first
# call in a fresh checkout compiles; later calls find them fresh. The build
# goes to `$CARGO_TARGET_DIR`, `.bench_build` by default. Cargo's output goes
# to standard error; the benchmark's result is the last line of standard
# output.
set -euo pipefail

manifest="benchmark/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
target="$CARGO_TARGET_DIR"

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && $((i + 1)) -lt ${#args[@]} ]]; then
        trace="${args[i + 1]}"
    fi
done

cargo build --quiet --offline --manifest-path "$manifest" --release >&2
cargo build --quiet --offline --manifest-path "$manifest" --profile traced --features telemetry >&2

if [[ "$trace" == "1" ]]; then
    exec "$target/traced/benchmark" "$@"
fi
exec "$target/release/benchmark" "$@"
