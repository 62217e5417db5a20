#!/usr/bin/env python3
"""Build and run the fbedge end-to-end benchmark.

Usage (from anywhere; paths are resolved against the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form configures and builds fbedge_perfbench
(perfbench/CMakeLists.txt, which compiles the library from ../src) into
.bench_build/, then runs one workload. Build output goes to stderr; the binary's stdout, whose last line
is the JSON result, passes through unchanged, and its exit code is ours.

--self-test runs every workload once at a small size (1 day), untraced
and traced, and checks that each prints every
metric of BENCHMARK.json with its unit, reports correct outputs, and that
the traced and untraced runs agree on the output digests.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "fbedge_perfbench")
WORKLOADS = ["monitor_stream", "edge_warm", "whatif_sweep", "edge_faulted"]
RUN_TIMEOUT_S = 170

# Per-layer metrics that must be nonzero in a traced run of each workload:
# the self-test's proof that each workload reaches the layers it is for.
LAYERS_REACHED = {
    "monitor_stream": ["workload.generate_s", "sampler.coalesce_s", "goodput.hd_s",
                       "stream.deliver_s", "agg.verdict_s"],
    "edge_warm": ["analysis.artifact_read_s", "analysis.reduce_s",
                  "agg.series_load_s", "agg.degradation_s", "runtime.utilization"],
    "whatif_sweep": ["analysis.artifact_write_s", "scenario.apply_s",
                     "agg.series_save_s", "scenario.reuse_frac"],
    "edge_faulted": ["analysis.edge_call_s", "faultsim.stage_s",
                     "faultsim.rejected_records"],
}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "fbedge", "fbedge.h")):
        fail(f"fbedge sources not found under {os.path.join(ROOT, 'src')}")
    for tool in ("cmake", "ninja"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found on PATH")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step = subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                               "-DCMAKE_BUILD_TYPE=Release"],
                              stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("build failed")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def bench_command(extra):
    return [BINARY, "--packs-dir", os.path.join(HERE, "packs"), "--out-dir", OUT_DIR,
            "--commit", git_commit()] + extra


def run_bench(extra, capture):
    """Runs fbedge_perfbench to completion (killing it on timeout)."""
    try:
        return subprocess.run(bench_command(extra), cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=capture)
    except subprocess.TimeoutExpired:
        fail(f"fbedge_perfbench exceeded {RUN_TIMEOUT_S} s")


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        references = {}
        for trace in (0, 1):
            proc = run_bench(["--workload", workload, "--seed", "7", "--seconds", "0",
                              "--trace", str(trace), "--days", "1",
                              "--setups", "1"], capture=True)
            tag = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: incorrect result {lines[-1]}")
            units = {name: m["unit"] for name, m in metrics.items()}
            if units != expected[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json")
            if trace:
                for name in LAYERS_REACHED[workload]:
                    if not metrics[name]["value"] > 0:
                        problems.append(f"{tag}: {name} is not positive")
            ref = re.search(r"^reference: .*\((.*)\)$", proc.stdout, re.M)
            references[trace] = ref.group(1) if ref else None
            print(f"self-test {tag}: ok, digests {references[trace]}")
        if references.get(0) is None or references.get(0) != references.get(1):
            problems.append(f"{workload}: traced and untraced digests differ: {references}")
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    print("self-test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args, extra = parser.parse_known_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    proc = run_bench(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra,
                     capture=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
