#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-epochs --seed 1 --seconds 30 --trace 0

Workloads: ``sim-epochs``, ``serve-stream``, ``serve-lifecycle`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics instead, writes the recorded
spans to ``.perfbench-run/`` and reports the closure check and the
tracing overhead.  ``--smoke`` shrinks every size for a quick check of
the benchmark itself.  Lines before the last describe the run (record
digests, checks, closure); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sim-epochs", "serve-stream", "serve-lifecycle")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True, help="BENCHMARK.json gives run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
            "is missing; run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

    from common import Outcome, make_workdir, remove_workdir, write_spans

    if args.workload == "sim-epochs":
        from simload import run_sim_epochs as run_workload
    else:
        from serveload import run_serve as run_workload
    # Interpreter start-up is not visible from here; imports are.
    import_s = time.perf_counter() - T_START

    out = Outcome()
    args.workdir = make_workdir(args.workload)
    spans = [] if args.trace else None
    try:
        run_workload(args, out, import_s, spans)
    finally:
        remove_workdir(args.workdir)
    if spans is not None:
        out.note(f"spans: {len(spans)} written to {write_spans(args.workload, args.seed, spans)}")
    for line in out.notes:
        print(line)
    for error in out.errors[:20]:
        print(f"CHECK FAILED: {error}")
    if len(out.errors) > 20:
        print(f"CHECK FAILED: ... {len(out.errors) - 20} more")
    print(out.result_line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
