#!/usr/bin/env python3
"""Repository benchmark: build the benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--scale full|tiny] [--pin]

Workloads: soa-large, soa-faulted, engine-mix, sweepd-job (see
perfbench/README.md). m2hew_perfbench is compiled from ../src and perfbench/cpp
into .bench_build/perfbench on first use (cmake, Release), then rebuilt
incrementally. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json for --trace 0 and every
per-layer metric for --trace 1. Besides the program's own cross-checks, the
outcome digest is compared with perfbench/digests.json when that file pins
the (workload, scale, seconds, seed) combination; a mismatch counts as one
failed operation. --pin records the run's digest there instead.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
PROGRAM = BUILD_DIR / "m2hew_perfbench"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("soa-large", "soa-faulted", "engine-mix", "sweepd-job")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digest in digests.json")
    return parser.parse_args()


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} is missing")
    return json.loads(spec_path.read_text())


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (ROOT / "src").is_dir():
        die("library sources (src/) are missing from this checkout; "
            "the benchmark builds the program from source")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            die("build timed out", 1)
        if done.returncode != 0:
            die(f"build step failed: {' '.join(step)}", 1)


def run_program(args):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(PROGRAM), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scale", args.scale,
               "--out-dir", str(OUT_DIR)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die(f"m2hew_perfbench exited with code {done.returncode}", 1)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def digest_key(args):
    return f"{args.workload}|{args.scale}|{args.seconds}|{args.seed}"


def main():
    args = parse_args()
    spec = load_spec()
    build()
    raw = run_program(args)

    kind = "per_layer" if args.trace == "1" else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        measured = raw["metrics"].get(metric["name"])
        if measured is None or measured["unit"] != metric["unit"]:
            die(f"m2hew_perfbench did not report {metric['name']} in {metric['unit']}", 1)
        metrics[metric["name"]] = measured

    attempted, failed = raw["attempted"], raw["failed"]
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    key = digest_key(args)
    print(f"perfbench: digest {key} = {raw['digest']}", file=sys.stderr)
    if args.pin:
        pins[key] = raw["digest"]
        DIGESTS.write_text(json.dumps(dict(sorted(pins.items())), indent=2) + "\n")
    elif key in pins:
        attempted += 1
        if pins[key] != raw["digest"]:
            failed += 1
            print(f"perfbench: digest mismatch: pinned {pins[key]}",
                  file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
