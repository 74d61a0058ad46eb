#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks, then a smoke run of each workload.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py            # checks + smoke runs (~1 min)
    python3 perfbench/selftest.py --checks   # checks only

Every check must pass a correct output and reject a crafted wrong
one: a perturbed epoch record, a duplicated or dropped frame, a seq
gap, a History hitrate above the true-oracle bound, a resumed frame
with the wrong epoch count, and stage times that do not sum to the
epoch's wall time (the closure check).  The smoke runs use ``--smoke``
sizes and require exit 0, ``correct: true``, exactly the metric names
of ``BENCHMARK.json``, and on serve-lifecycle one failed operation per
resumed session.  Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import catalog  # noqa: E402
import checks  # noqa: E402
from common import APPS, WORK_ROOT, Outcome  # noqa: E402
from serveload import SESSION_KW, check_tail  # noqa: E402
from simload import AppLayers, build_sim, emit_sim_layers, run_epochs  # noqa: E402
from tracing import EPOCH_STAGES  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def passes(errors: list[str]) -> bool:
    return not errors


def rejects(errors: list[str]) -> bool:
    return bool(errors)


def frames_of(records: list[dict], first_seq: int = 0) -> list[dict]:
    return [
        {"event": "epoch", "session": "s1", "subscription": "sub1", "seq": first_seq + i, "dropped": 0, "data": r}
        for i, r in enumerate(records)
    ]


def test_checks() -> None:
    app = "gups"
    accesses = SESSION_KW["accesses_per_epoch"]
    sim = build_sim(app, 5, **SESSION_KW)
    sim.start()
    history, _ = run_epochs(sim, 4)
    oracle_sim = build_sim(app, 5, policy="true-oracle", **SESSION_KW)
    oracle_sim.start()
    oracle, _ = run_epochs(oracle_sim, 4)
    capacity = checks.tier1_capacity(SESSION_KW["footprint_pages"])

    # Epoch properties.
    good = history[1]
    expect(passes(checks.check_epoch_properties(good, app, accesses, capacity)), "epoch properties: real record passes")
    for field, value in (("accesses", good["accesses"] + 1), ("mem_accesses", good["accesses"] + 1),
                         ("hitrate", 1.5), ("promoted", capacity + 1), ("demoted", -1)):
        bad = dict(good, **{field: value})
        expect(rejects(checks.check_epoch_properties(bad, app, accesses, capacity)), f"epoch properties: rejects {field}={value}")
    expect(checks.expected_accesses("data-caching", 4000) == 1460, "expected accesses: data-caching split")

    # A perturbed epoch record against the direct run.
    expect(passes(checks.check_records("replies", history, copy.deepcopy(history))), "records: identical replies pass")
    perturbed = copy.deepcopy(history)
    perturbed[2]["hitrate"] = perturbed[2]["hitrate"] + 1e-12
    expect(rejects(checks.check_records("replies", history, perturbed)), "records: rejects a perturbed hitrate")
    perturbed = copy.deepcopy(history)
    perturbed[0]["latency"]["total_s"] *= 1.0000001
    expect(rejects(checks.check_records("replies", history, perturbed)), "records: rejects a perturbed latency")

    # Stream delivery: exactly once, in order, nothing dropped.
    frames = frames_of(history)
    expect(passes(checks.check_stream("stream", frames, history)), "stream: in-order frames pass")
    duplicated = frames[:2] + [frames[1]] + frames[2:]
    expect(rejects(checks.check_stream("stream", duplicated, history)), "stream: rejects a duplicated frame")
    expect(rejects(checks.check_stream("stream", frames[:1] + frames[2:], history)), "stream: rejects a dropped frame")
    gap = copy.deepcopy(frames)
    for f in gap[2:]:
        f["seq"] += 1
    expect(rejects(checks.check_stream("stream", gap, history)), "stream: rejects a seq gap")
    reported = copy.deepcopy(frames)
    reported[3]["dropped"] = 1
    expect(rejects(checks.check_stream("stream", reported, history)), "stream: rejects dropped > 0")
    swapped = copy.deepcopy(frames)
    swapped[0]["data"], swapped[1]["data"] = swapped[1]["data"], swapped[0]["data"]
    expect(rejects(checks.check_stream("stream", swapped, history)), "stream: rejects payloads out of order")

    # No policy beats ground truth.
    expect(passes(checks.check_oracle_bound(app, history, oracle)), "oracle bound: real History run passes")
    above = copy.deepcopy(history)
    above[1]["hitrate"] = oracle[1]["hitrate"] + 1e-9
    expect(rejects(checks.check_oracle_bound(app, above, oracle)), "oracle bound: rejects History above the true oracle")
    other_stream = copy.deepcopy(history)
    other_stream[0]["mem_accesses"] += 1
    expect(rejects(checks.check_oracle_bound(app, other_stream, oracle)), "oracle bound: rejects a different access stream")

    # Eviction goodbye and resumed frame.
    goodbye = {"event": "error", "seq": 4, "dropped": 0, "data": {"code": "evicted", "message": "idle", "resumable": True}}
    resumed = {"event": "resumed", "seq": 5, "dropped": 0, "data": {"epochs_resumed": 4, "message": "back"}}
    expect(passes(checks.check_goodbye("goodbye", goodbye)), "goodbye: resumable eviction passes")
    expect(rejects(checks.check_goodbye("goodbye", dict(goodbye, data=dict(goodbye["data"], resumable=False)))), "goodbye: rejects resumable=false")
    expect(passes(checks.check_resumed("resumed", resumed, 4)), "resumed: right epoch count passes")
    expect(rejects(checks.check_resumed("resumed", resumed, 3)), "resumed: rejects a wrong epoch count")
    nxt = frames_of(oracle[:1], 6)[0]
    expect(passes(check_tail("s1", [goodbye, resumed, nxt], 4, 4, oracle[0])), "resume tail: goodbye, resumed, next epoch pass")
    expect(rejects(check_tail("s1", [resumed, goodbye, nxt], 4, 4, oracle[0])), "resume tail: rejects frames out of order")
    expect(rejects(check_tail("s1", [goodbye, resumed, nxt], 4, 4, oracle[1])), "resume tail: rejects a wrong next epoch")
    expect(rejects(check_tail("s1", [goodbye, resumed, nxt], 4, 5, oracle[0])), "resume tail: rejects a wrong resumed epoch count")


def closure_outcome(stage_share: float) -> Outcome:
    """``emit_sim_layers`` over stage totals summing to ``stage_share`` of the epoch."""
    layers = {}
    for app in APPS:
        lay = layers[app] = AppLayers()
        lay.epochs = 10
        lay.totals["sim.epoch"] = 1.0
        for stage in EPOCH_STAGES:
            lay.totals[stage] = stage_share / len(EPOCH_STAGES)
    out = Outcome()
    emit_sim_layers(out, layers)
    return out


def test_closure() -> None:
    expect(passes(closure_outcome(0.95).errors), "closure: stages summing to 95% of the epoch pass")
    expect(rejects(closure_outcome(0.80).errors), "closure: rejects stages summing to 80% of the epoch")
    expect(rejects(closure_outcome(1.20).errors), "closure: rejects stages summing to 120% of the epoch")
    expect('"correct": false' in closure_outcome(0.80).result_line(), "closure: a failed closure makes the run incorrect")


def test_catalog() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    expect(listed == catalog.END_TO_END, "BENCHMARK.json end_to_end matches the catalog")
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect(listed == catalog.PER_LAYER, "BENCHMARK.json per_layer matches the catalog")


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_smoke() -> None:
    names = {0: {n for n, _, _ in catalog.END_TO_END}, 1: {n for n, _, _ in catalog.PER_LAYER}}
    for workload in ("sim-epochs", "serve-stream", "serve-lifecycle"):
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"], ROOT)
            what = f"smoke {workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"], f"{what}: correct")
            expect(set(result["metrics"]) == names[trace], f"{what}: prints exactly the listed metrics")
            if workload == "serve-lifecycle":
                resumes = [line for line in proc.stdout.splitlines() if "resumes," in line]
                count = int(resumes[0].split(" resumes,")[0].rsplit(" ", 1)[1]) if resumes else -1
                expect(result["failed"] == count > 0, f"{what}: one failed operation per resumed session")
            else:
                expect(result["failed"] == 0, f"{what}: no failed operations")

    # Without the program next to it, the benchmark must fail without a result.
    bare = os.path.join(WORK_ROOT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "sim-epochs", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "bare directory: exits non-zero without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checks", action="store_true", help="skip the smoke runs")
    args = p.parse_args(argv)
    test_checks()
    test_closure()
    test_catalog()
    if not args.checks:
        test_smoke()
    print(f"\n{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
