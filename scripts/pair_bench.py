"""Compare two checkouts on the benchmark in alternating pairs of runs.

For each workload and each seed, runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, back to back, the parent first in every other pair,
and prints the ``results`` block of a ``BENCH_<n>.json`` record: per
workload the seeds, which side ran first, whether every run was correct, the
summed attempted and failed operations, and per end-to-end metric of
``BENCHMARK.json`` the runs, their quartiles and the comparison with its
bound.  Run from the root of a checkout (its ``BENCHMARK.json`` is read):

    python3 scripts/pair_bench.py PARENT_DIR CHANGE_DIR \\
        --workload grid_stack_pool --workload serve_predict --seeds 3101-3110

Each run's result line also goes to standard error as it arrives.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    """``"3101-3103,3107"`` -> [3101, 3102, 3103, 3107]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced ``perfbench/run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(seeds: list, parent_first: list, parent: list, change: list,
              end_to_end: list) -> dict:
    """One workload's ``results`` entry from its paired result lines.

    ``parent[i]`` and ``change[i]`` ran with ``seeds[i]``.  Per metric of
    ``end_to_end`` (BENCHMARK.json entries) that the runs report: ratio is
    the change's median over the parent's; a pair counts as better when the
    change reads strictly better; the median gap is beyond the parent's
    interquartile distance when larger than it; and the metric is worse than
    its bound when the ratio is off by more than the bound in the worse
    direction.
    """
    def failed(runs):
        return [sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)]

    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        if name not in parent[0]["metrics"]:
            continue
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = np.percentile(p, [25, 50, 75]), np.percentile(c, [25, 50, 75])
        ratio = cq[1] / pq[1]
        metrics[name] = {
            "better": spec["better"], "bound": spec["bound"], "parent": p, "change": c,
            "parent_quartiles": pq.tolist(), "change_quartiles": cq.tolist(),
            "ratio": ratio,
            "change_better_pairs": sum((b < a) if lower else (b > a) for a, b in zip(p, c)),
            "median_gap_beyond_parent_iqr": bool(abs(cq[1] - pq[1]) > pq[2] - pq[0]),
            "worse_than_bound": bool(ratio - 1 > spec["bound"] if lower
                                     else 1 - ratio > spec["bound"]),
        }
    return {
        "pairs": len(seeds), "seeds": seeds, "parent_first": parent_first,
        "all_correct": {"parent": all(r["correct"] for r in parent),
                        "change": all(r["correct"] for r in change)},
        "attempted_failed": {"parent": failed(parent), "change": failed(change)},
        "metrics": metrics,
    }


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    args = p.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results = {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        parent_first = [i % 2 == 0 for i in range(len(args.seeds))]
        for seed, first in zip(args.seeds, parent_first):
            for side in ("parent", "change") if first else ("change", "parent"):
                line = run_once(getattr(args, side), workload, seed, args.seconds)
                print(f"{workload} {seed} {side}: {json.dumps(line)}", file=sys.stderr, flush=True)
                runs[side].append(line)
        results[workload] = summarize(args.seeds, parent_first, runs["parent"],
                                      runs["change"], end_to_end)
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
