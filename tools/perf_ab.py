#!/usr/bin/env python3
"""Paired A/B of the repository benchmark: parent ref against this checkout.

    python3 tools/perf_ab.py --parent <git ref> --workload <name>
                             [--rounds 6] [--trace 0|1] [--workdir DIR]
                             [--label TEXT] [--no-record]

Exports <git ref> into a temporary directory (git archive, so the
repository's own worktree list is never touched), then runs the unchanged
perfbench/run.py alternately in that tree and in this checkout: for every
round and seed (1 and 7919) one parent run and one change run of the
benchmark's run_seconds, the order flipping each round so slow drift of the
host falls on both sides alike. Each tree builds its own .bench_build/ on
first use.

For every end-to-end metric of BENCHMARK.json (per-layer with --trace 1)
it prints, per seed, the median change/parent ratio over the pairs with a
bootstrap 95 % interval, how many pairs moved in the metric's better
direction, the parent's median and interquartile range, and the failed
operation counts of both sides. Each end-to-end metric also gets a verdict
against its BENCHMARK.json bound:

    worse       the median ratio is past the bound in the worse direction
                (above 1 + bound for lower-is-better, below 1 - bound for
                higher-is-better);
    unresolved  otherwise, if the parent's IQR/median exceeds the bound,
                unless every change run beats every parent run;
    ok          otherwise.

Unless --no-record is given the result is appended to
BENCH_perf_trajectory.json at the repository root.
"""

import argparse
import datetime
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_perf_trajectory.json"
BOOTSTRAP_RESAMPLES = 2000
SEEDS = (1, 7919)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(ref, into):
    """Writes the files of `ref` into `into`/parent (no .git, nothing
    registered in the repository)."""
    tree = pathlib.Path(into) / "parent"
    tree.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", ref],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"perf_ab: git archive {ref} failed")
    return tree


def run_bench(tree, args, seed, seconds, scale="full"):
    """One perfbench/run.py call in `tree`; returns its result JSON."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--trace", args.trace, "--scale", scale,
               "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perf_ab: run.py failed in {tree} (exit {done.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def bootstrap_median(ratios, rng):
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(BOOTSTRAP_RESAMPLES))
    return (medians[int(0.025 * BOOTSTRAP_RESAMPLES)],
            medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1])


def verdict(parent, change, summary, bound):
    """ok / worse / unresolved of one metric's summary, as in the module
    docstring."""
    ratio = summary["median_ratio"]
    lower = summary["better"] == "lower"
    if (ratio > 1 + bound) if lower else (ratio < 1 - bound):
        return "worse"
    clean_win = (max(change) < min(parent)) if lower else (
        min(change) > max(parent))
    spread = summary["parent_iqr"] / abs(summary["parent_median"])
    return "unresolved" if spread > bound and not clean_win else "ok"


def summarize(pairs, directions, bounds, rng):
    """Per metric over (parent, change) result pairs of one seed."""
    out = {}
    for name, better in directions.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        if any(v == 0 for v in parent):
            continue
        ratios = [c / p for p, c in zip(parent, change)]
        wins = sum((r > 1) if better == "higher" else (r < 1) for r in ratios)
        q1, q3 = quartiles(parent)
        lo, hi = bootstrap_median(ratios, rng)
        out[name] = {
            "better": better,
            "median_ratio": statistics.median(ratios),
            "ci95": [lo, hi],
            "better_pairs": wins,
            "pairs": len(ratios),
            "parent_median": statistics.median(parent),
            "parent_iqr": q3 - q1,
            "change_median": statistics.median(change),
        }
        if name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["verdict"] = verdict(parent, change, out[name],
                                           bounds[name])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--workdir", help="where to export the parent tree "
                        "(default: a fresh temporary directory)")
    parser.add_argument("--label", default="", help="what the change is")
    parser.add_argument("--no-record", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    directions = {m["name"]: m["better"] for m in spec[kind]}
    bounds = {m["name"]: m["bound"] for m in spec[kind] if "bound" in m}
    seconds = spec["run_seconds"]
    parent_sha = git("rev-parse", args.parent)

    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        parent_tree = export_tree(parent_sha, scratch)
        trees = {"parent": parent_tree, "change": ROOT}
        for side, tree in trees.items():
            print(f"perf_ab: building {side} ({tree})", file=sys.stderr)
            run_bench(tree, args, SEEDS[0], 1, scale="tiny")

        results = {seed: [] for seed in SEEDS}
        failed = {"parent": 0, "change": 0}
        attempted = {"parent": 0, "change": 0}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for seed in SEEDS:
                pair = {}
                for side in order:
                    pair[side] = run_bench(trees[side], args, seed, seconds)
                    failed[side] += pair[side]["failed"]
                    attempted[side] += pair[side]["attempted"]
                results[seed].append((pair["parent"], pair["change"]))
                print(f"perf_ab: round {r + 1}/{args.rounds} seed {seed} done",
                      file=sys.stderr)

    rng = random.Random(0xAB)
    per_seed = {str(seed): summarize(pairs, directions, bounds, rng)
                for seed, pairs in results.items()}

    print(f"{args.workload}: change/parent over {args.rounds} pairs per seed "
          f"(parent {parent_sha[:10]})")
    for seed, metrics in per_seed.items():
        print(f"  seed {seed}")
        for name, s in metrics.items():
            print(f"    {name:32s} {s.get('verdict', '-'):10s} "
                  f"{s['median_ratio']:.3f} "
                  f"[{s['ci95'][0]:.3f}, {s['ci95'][1]:.3f}]  "
                  f"better {s['better_pairs']}/{s['pairs']}  "
                  f"parent {s['parent_median']:.4g} (IQR {s['parent_iqr']:.3g})"
                  f"  change {s['change_median']:.4g}")
    print(f"  failed operations: parent {failed['parent']}/{attempted['parent']}, "
          f"change {failed['change']}/{attempted['change']}")

    if args.no_record:
        return
    entry = {
        "date": datetime.date.today().isoformat(),
        "label": args.label,
        "parent": parent_sha,
        "workload": args.workload,
        "seconds": seconds,
        "trace": args.trace,
        "rounds": args.rounds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "failed": failed,
        "attempted": attempted,
        "seeds": per_seed,
    }
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")
    print(f"perf_ab: appended to {TRAJECTORY.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
