#!/usr/bin/env python3
"""Records a benchmark baseline and checks the benchmark's own steadiness.

Runs every workload of BENCHMARK.json once per seed 1..SEEDS, in SETS full
sets (untraced), plus TRACED traced runs per workload. For each end-to-end
metric it reports, per set, the median and the spread: the distance between
the first and third quartiles (statistics.quantiles(n=4)) as a share of the
median. It then checks that every spread stays within the metric's bound,
and that the last set's median is not worse than the first's by more than
the bound. It also records whether every median moved by at most GOAL
between the sets. The medians, spreads and a host fingerprint are written to
benchmark/BASELINE.json.

Run from the repository root:

    python3 benchmark/baseline.py

Exits 1 if a check fails.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

SEEDS = 10
SETS = 2
TRACED = 2
OUT = "benchmark/BASELINE.json"
# The set-to-set agreement every end-to-end metric should reach. The bounds
# sit above it while this host's noise does not allow it; the baseline
# records whether it was met.
GOAL = 0.10


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / q2 if q2 else 0.0


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def command_output(args):
    try:
        return subprocess.run(args, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def fingerprint():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "os": platform.platform(),
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release (untraced); traced = release + --features telemetry",
        "git_revision": command_output(["git", "describe", "--always", "--dirty"]),
    }


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, SEEDS + 1))

    runs = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for seed in seeds:
                result = run_once(command, w, seed, seconds, 0)
                runs[w].append((s, result))
                print(f"set {s + 1} {w} seed {seed}: {result['elapsed_s']:.1f} s, "
                      f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    traced = {w: [run_once(command, w, seed, seconds, 1) for seed in seeds[:TRACED]]
              for w in workloads}

    ok = steady = True
    doc = {"claim": None, "fingerprint": fingerprint(), "run_seconds": seconds,
           "seeds": seeds, "sets": SETS, "workloads": {}}
    for w in workloads:
        entry = {"attempted": 0, "failed": 0, "run_elapsed_s": [], "end_to_end": {}, "per_layer": {}}
        for _, r in runs[w]:
            entry["attempted"] += r["attempted"]
            entry["failed"] += r["failed"]
            entry["run_elapsed_s"].append(round(r["elapsed_s"], 2))
        ok &= entry["failed"] == 0
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for i, r in runs[w] if i == s]
                q1, q3, share = spread(values)
                sets.append({"median": statistics.median(values), "q1": q1, "q3": q3,
                             "spread": share, "values": values})
            drift = worse_by(sets[0]["median"], sets[-1]["median"], m["better"])
            worst = max(x["spread"] for x in sets)
            entry["end_to_end"][name] = {"unit": m["unit"], "bound": bound, "sets": sets,
                                         "drift": drift}
            flags = []
            if worst > bound:
                flags.append("SPREAD>BOUND")
            elif worst > bound / 3:
                flags.append("spread>bound/3")
            if drift > bound:
                flags.append("DRIFT>BOUND")
            if abs(drift) > GOAL:
                flags.append("drift>goal")
                steady = False
            ok &= not any(f.isupper() for f in flags)
            print(f"{w:20} {name:26} median {sets[0]['median']:14.6g} spread {worst:7.2%} "
                  f"drift {drift:+7.2%} bound {bound:.0%} {' '.join(flags)}")
        for m in bench["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for r in traced[w]]
            entry["per_layer"][m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                                             "values": values}
        entry["traced_failed"] = sum(r["failed"] for r in traced[w])
        ok &= entry["traced_failed"] == 0
        doc["workloads"][w] = entry
        total = sum(entry["run_elapsed_s"])
        print(f"{w:20} {len(entry['run_elapsed_s'])} runs, {total:.0f} s, "
              f"mean {total / len(entry['run_elapsed_s']):.1f} s per run")

    doc["drifts_within_goal"] = steady
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {OUT}; checks {'pass' if ok else 'FAIL'}; "
          f"every drift within {GOAL:.0%}: {'yes' if steady else 'NO'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
