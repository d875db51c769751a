#!/usr/bin/env python3
"""Artifact determinism gate: regenerate every checked-in results/ artifact
and compare it with the committed copy.

    python3 tools/check_artifacts.py <build-dir>

Runs each bench binary (one per bench/bench_*.cpp) with no arguments, and
m2hew_experiment on each experiments/*.ini behind a committed CSV
(EXPERIMENTS below), every run in a fresh temporary working directory with
the M2HEW_E<n>_* cap variables unset. Every produced file is compared with
its namesake in results/; a committed file that no run produced, or a
produced file that is not committed, fails too.

The only fields allowed to differ are the host-dependent ones declared
below: JSON keys (at any depth, with everything under them) and CSV columns
(by header name). Any other difference, including a changed CSV header or
row count, fails. Exits 0 when every artifact matches, 1 otherwise. A full
regeneration takes about two minutes on a 4-core box in a Release build.
"""

import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

# Host-dependent fields: wall-clock timings and the thread fan-out.
IGNORED_JSON_KEYS = frozenset({"elapsed_seconds", "threads", "throughput"})
IGNORED_CSV_COLUMNS = frozenset({
    "elapsed_s", "trials_per_s", "slots_per_s", "cold_s", "cold_specs_per_s",
    "cold_trials_per_s", "warm_s", "warm_specs_per_s", "trials_per_sec",
})

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
# The experiment specs whose CSVs are committed under results/.
EXPERIMENTS = ("rho_sweep.ini", "tournament.ini")
CAP_VARIABLE = re.compile(r"^M2HEW_E\d+_")


def masked_json(value):
    """The JSON value with every ignored key removed, at any depth."""
    if isinstance(value, dict):
        return {k: masked_json(v) for k, v in value.items()
                if k not in IGNORED_JSON_KEYS}
    if isinstance(value, list):
        return [masked_json(v) for v in value]
    return value


def first_json_difference(expected, produced, path="$"):
    """Path and both values of the first difference, or None."""
    if isinstance(expected, dict) and isinstance(produced, dict):
        if list(expected) != list(produced):
            return path, sorted(expected), sorted(produced)
        for key in expected:
            found = first_json_difference(expected[key], produced[key],
                                          f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(produced, list):
        if len(expected) != len(produced):
            return f"{path}.length", len(expected), len(produced)
        for i, (a, b) in enumerate(zip(expected, produced)):
            found = first_json_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(expected) is not type(produced) or expected != produced:
        return path, expected, produced
    return None


def compare_json(expected_text, produced_text):
    try:
        expected = masked_json(json.loads(expected_text))
        produced = masked_json(json.loads(produced_text))
    except json.JSONDecodeError as error:
        return f"not valid JSON: {error}"
    found = first_json_difference(expected, produced)
    if found:
        path, a, b = found
        return f"{path}: committed {a!r}, produced {b!r}"
    return None


def compare_csv(expected_text, produced_text):
    expected = list(csv.reader(io.StringIO(expected_text)))
    produced = list(csv.reader(io.StringIO(produced_text)))
    if not expected or not produced or expected[0] != produced[0]:
        return (f"header: committed {expected[:1]!r}, "
                f"produced {produced[:1]!r}")
    header = expected[0]
    if len(expected) != len(produced):
        return (f"row count: committed {len(expected) - 1}, "
                f"produced {len(produced) - 1}")
    kept = [i for i, name in enumerate(header)
            if name not in IGNORED_CSV_COLUMNS]
    for row, (a, b) in enumerate(zip(expected[1:], produced[1:]), start=1):
        if len(a) != len(b):
            return f"row {row}: committed {len(a)} cells, produced {len(b)}"
        for i in kept:
            if i < len(a) and a[i] != b[i]:
                return (f"row {row} column {header[i]}: committed {a[i]!r}, "
                        f"produced {b[i]!r}")
    return None


def compare_file(expected_path, produced_path):
    """One line describing the first difference, or None if they match."""
    expected = expected_path.read_text()
    produced = produced_path.read_text()
    if expected_path.suffix == ".json":
        return compare_json(expected, produced)
    if expected_path.suffix == ".csv":
        return compare_csv(expected, produced)
    return None if expected == produced else "contents differ"


def compare_dirs(expected_dir, produced_dir):
    """Every mismatch between two artifact directories, one line each."""
    expected = {p.name for p in expected_dir.iterdir() if p.is_file()}
    produced = {p.name for p in produced_dir.iterdir() if p.is_file()}
    problems = [f"{name}: committed but not produced"
                for name in sorted(expected - produced)]
    problems += [f"{name}: produced but not committed"
                 for name in sorted(produced - expected)]
    for name in sorted(expected & produced):
        difference = compare_file(expected_dir / name, produced_dir / name)
        if difference:
            problems.append(f"{name}: {difference}")
    return problems


def runs(build_dir):
    """(label, command) of every run that regenerates results/."""
    for source in sorted((ROOT / "bench").glob("bench_*.cpp")):
        binary = build_dir / "bench" / source.stem
        yield source.stem, [str(binary)]
    experiment = build_dir / "tools" / "m2hew_experiment"
    for spec in EXPERIMENTS:
        yield spec, [str(experiment), str(ROOT / "experiments" / spec)]


def regenerate(build_dir, collected):
    """Runs every producer and moves its results/ files into `collected`.
    Returns the problems met on the way (failed runs, clashing names)."""
    env = {k: v for k, v in os.environ.items() if not CAP_VARIABLE.match(k)}
    problems = []
    for label, command in runs(build_dir):
        with tempfile.TemporaryDirectory(prefix="m2hew_artifacts_") as cwd:
            print(f"[run] {label}", flush=True)
            done = subprocess.run(command, cwd=cwd, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  check=False)
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
            out_dir = pathlib.Path(cwd) / "results"
            if not out_dir.is_dir():
                continue
            for path in sorted(out_dir.iterdir()):
                target = collected / path.name
                if target.exists():
                    problems.append(f"{path.name}: produced by two runs")
                    continue
                path.replace(target)
    return problems


def main(argv):
    if len(argv) != 2:
        print("usage: check_artifacts.py <build-dir>", file=sys.stderr)
        return 2
    build_dir = pathlib.Path(argv[1]).resolve()
    with tempfile.TemporaryDirectory(prefix="m2hew_collected_") as collected:
        collected = pathlib.Path(collected)
        problems = regenerate(build_dir, collected)
        problems += compare_dirs(RESULTS, collected)
        count = sum(1 for _ in collected.iterdir())
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{count} artifacts produced, {len(problems)} problems: "
          f"{'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
