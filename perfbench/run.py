#!/usr/bin/env python3
"""The repository benchmark: solve_paper, serve_exact and serve_durable.

BENCHMARK.json names solve_paper and serve_exact; serve_durable runs by name
(and in --workload all) but is not one of its workloads, because its latency
is too unsteady on a shared VM to hold a regression bound (README.md).

Builds perfbench_harness from the checkout's sources (into .bench_build/),
runs one workload per process, checks that the workload's gates passed and
prints one JSON object as the last line of standard output:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off.  With --trace 1 the workload runs twice, each for
half the window -- once untraced, once traced -- and the metrics are the
per-layer metrics plus the tracing overhead (traced minus untraced).  A
per-layer metric of a layer the workload never calls reads 0.

  python3 perfbench/run.py --workload serve_exact --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all          # each workload in its own process
  python3 perfbench/run.py --test                  # the benchmark's own tests

Exit status: 0 when every gate passed, 1 when one failed (the result line
says correct=false), 2 when nothing could be measured (no sources, build
failure, harness crash or timeout) -- then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
STATE = ROOT / ".bench_build" / "state"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ("solve_paper", "serve_exact", "serve_durable")
DEFAULT_SEED = 1
# Measuring (everything after the build) must end within 180 s.
DEADLINE_S = 170.0


class Unmeasurable(Exception):
    """Nothing valid could be measured; exit 2 without a result line."""


def log(message: str) -> None:
    print(f"perfbench: {message}", flush=True)


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def build(targets: list[str]) -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise Unmeasurable(f"no repository sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets])
    with open(BUILD / "build.log", "w", encoding="utf-8") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                raise Unmeasurable(f"build failed; see {BUILD / 'build.log'}")


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding `path`, from /proc/self/mounts."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def harness(workload: str, seed: int, seconds: float, trace_out: Path | None,
            deadline: float) -> dict:
    """Runs one workload in its own process and returns its JSON report."""
    state = STATE / f"{workload}-{os.getpid()}"
    command = [str(BUILD / "perfbench_harness"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--state-dir", str(state)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, check=False,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as error:
        raise Unmeasurable(f"{workload} did not finish in time") from error
    finally:
        for leftover in state.glob("*"):
            leftover.unlink()
        if state.is_dir():
            state.rmdir()
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr)
        raise Unmeasurable(f"{workload} exited {done.returncode} without a report")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        sys.stderr.write(done.stderr)
        raise Unmeasurable(f"{workload} printed no JSON report") from error
    if report["correct"] != (done.returncode == 0):
        raise Unmeasurable(f"{workload} exit status {done.returncode} contradicts its report")
    info = report.get("info", {})
    log(f"{workload} seed={seed} {'traced' if trace_out else 'untraced'}: "
        f"attempted={report['attempted']} failed={report['failed']} "
        + " ".join(f"{key}={value}" for key, value in info.items()))
    for error in report["errors"]:
        log(f"{workload} GATE FAILED: {error}")
    return report


def with_units(values: dict, metrics: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def measure(workload: str, seed: int, seconds: float, traced: bool,
            deadline: float) -> dict:
    benchmark = spec()
    log(f"{workload}: snapshots in {STATE} ({filesystem_of(STATE.parent)})")
    if traced:
        seconds /= 2  # two runs share the window
    plain = harness(workload, seed, seconds, None, deadline)
    if not traced:
        values = plain["metrics"]
        missing = [m["name"] for m in benchmark["end_to_end"] if m["name"] not in values]
        if missing:
            raise Unmeasurable(f"{workload} reported no {', '.join(missing)}")
        return {"correct": plain["correct"], "attempted": plain["attempted"],
                "failed": plain["failed"],
                "metrics": with_units(values, benchmark["end_to_end"])}

    TRACES.mkdir(parents=True, exist_ok=True)
    trace_file = TRACES / f"{workload}-seed{seed}.json"
    traced_run = harness(workload, seed, seconds, trace_file, deadline)
    log(f"{workload}: Chrome trace written to {trace_file}")
    values = dict(traced_run["metrics"])
    before, after = plain["metrics"], traced_run["metrics"]
    if before["latency_p50_us"] > 0 and before["throughput_per_s"] > 0:
        values["trace.overhead_latency_p50_pct"] = 100.0 * (
            after["latency_p50_us"] - before["latency_p50_us"]) / before["latency_p50_us"]
        values["trace.overhead_throughput_pct"] = 100.0 * (
            before["throughput_per_s"] - after["throughput_per_s"]) / before["throughput_per_s"]
    for metric in benchmark["per_layer"]:
        values.setdefault(metric["name"], 0.0)  # a layer this workload never calls
    return {"correct": plain["correct"] and traced_run["correct"],
            "attempted": plain["attempted"] + traced_run["attempted"],
            "failed": plain["failed"] + traced_run["failed"],
            "metrics": with_units(values, benchmark["per_layer"])}


def run_tests() -> int:
    build(["perfbench_harness", "perfbench_test"])
    return subprocess.run(["ctest", "--test-dir", str(BUILD), "--output-on-failure"],
                          check=False).returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="run the benchmark's own tests")
    args = parser.parse_args()
    try:
        if args.test:
            return run_tests()
        seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
        build(["perfbench_harness"])
        # The first run in a checkout also builds; the measuring must still
        # end within 180 s of the build.
        deadline = time.monotonic() + DEADLINE_S
        if args.workload != "all":
            result = measure(args.workload, args.seed, seconds, args.trace == 1, deadline)
        else:
            # Each workload in its own process, one after another; the combined
            # line prefixes every metric with its workload.
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                part = measure(workload, args.seed, seconds, args.trace == 1,
                               time.monotonic() + DEADLINE_S)
                print(json.dumps({"workload": workload, **part}), flush=True)
                result["correct"] = result["correct"] and part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                for name, metric in part["metrics"].items():
                    result["metrics"][f"{workload}.{name}"] = metric
    except Unmeasurable as error:
        log(f"error: {error}")
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
