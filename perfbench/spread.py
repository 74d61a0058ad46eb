#!/usr/bin/env python3
"""Run workloads k times each and print each end-to-end metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --runs 10 --first-seed 1
    python3 perfbench/spread.py --workload serve-stream --runs 5

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...).
For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json`` (a spread under a third of the
bound is steady).  It also prints each run's wall time and the share
of failed operations, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import quartiles  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, action="append", help="default: those in BENCHMARK.json")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results, walls = [], []
        for i in range(args.runs):
            result, wall = run_once(workload, args.first_seed + i, seconds)
            results.append(result)
            walls.append(wall)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(
            f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
            f"{seconds:g} s each; wall {min(walls):.1f}-{max(walls):.1f} s; "
            f"correct {sum(r['correct'] for r in results)}/{len(results)}; "
            f"failed share {' / '.join(f'{s:.6f}' for s in shares)}"
        )
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  steady")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(name)
            verdict = "" if bound is None or name == "setup_s" else ("yes" if spread < bound / 3 else "NO")
            print(
                f"  {name:<28} {q2:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f} "
                f"{bound if bound is not None else '':>6}  {verdict}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
