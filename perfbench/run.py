#!/usr/bin/env python3
"""Build the treecode benchmark and run one of its workloads.

    python3 perfbench/run.py --workload bem_cube --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which builds the library from src/ with the repository's own
CMakeLists.txt) into .bench_build/; later calls only re-check the build.
Build output goes to standard error. Each workload runs in its own process
with the thread layout below, so that serve workers x OpenMP threads and
dist ranks x OpenMP threads stay within 4 cores.

Standard output carries the run's metric table and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The full record (machine metadata, sample
counts, notes) and, for traced runs, the spans as a Chrome trace are written
to .bench_build/records/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RECORDS = os.path.join(ROOT, ".bench_build", "records")
BINARY = os.path.join(BUILD, "bltc_perf")

# OpenMP threads per workload process. bem_cube, plummer_md and serve_storm
# (1 frontend worker) use 2 of the 4 cores: with 4 threads a single busy
# core elsewhere on the machine stalled every parallel region, and latencies
# swung by up to 50 % between runs of one seed. let_gpusim runs 2 in-process
# ranks of 1 thread each.
THREADS = {"bem_cube": 2, "plummer_md": 2, "serve_storm": 2, "let_gpusim": 1}
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "bltc_perf", "-j", jobs],
    ]
    # Configure once; a configure that failed left no build system behind
    # and runs again.
    if any(os.path.exists(os.path.join(BUILD, name))
           for name in ("Makefile", "build.ninja")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the files the benchmark builds, so records of a
    checkout without git history still identify the code they measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    if not build():
        return 1
    os.makedirs(RECORDS, exist_ok=True)
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(
        min(THREADS[args.workload], os.cpu_count() or 1))
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", RECORDS]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if run.returncode != 0:
        log(f"bltc_perf exited with {run.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("bltc_perf did not end with a JSON result")
        return 1
    expected = expected_metrics(args.trace)
    if expected is not None and list(result["metrics"]) != expected:
        log("metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(expected))}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
