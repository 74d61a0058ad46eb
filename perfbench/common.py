"""Shared helpers: statistics, /proc readers, run directory, result line."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (ledgers, server logs, span files).
WORK_ROOT = os.path.join(ROOT, ".perfbench-run")

#: The three simulated applications every workload runs.  gups is
#: uniform random, data-caching is Zipf-skewed, lulesh is a stencil.
APPS = ("gups", "data-caching", "lulesh")

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def median(values) -> float:
    return float(statistics.median(values))


def p99(values) -> float:
    """The 99th percentile (inclusive interpolation)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[98])


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def make_workdir(name: str) -> str:
    path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def write_spans(workload: str, seed: int, spans: list) -> str:
    """Write recorded spans as JSON lines; returns the file path."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = os.path.join(WORK_ROOT, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as f:
        for name, start, end, parent, request in spans:
            f.write(
                json.dumps(
                    {
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "request": request,
                    }
                )
                + "\n"
            )
    return path


# ----------------------------------------------------------------- /proc


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14, stime 15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def children(pid: int) -> list[int]:
    """Direct children of ``pid`` (scans ``/proc/*/stat``)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            out.append(int(entry))
    return out


def descendants(pid: int) -> list[int]:
    out = []
    frontier = [pid]
    while frontier:
        kids = children(frontier.pop())
        out.extend(kids)
        frontier.extend(kids)
    return out


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


# ---------------------------------------------------------------- result


class Outcome:
    """Operation counts, check failures and metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: Failed operations by the error code the server replied with.
        self.failure_codes: dict[str, int] = {}
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def op(self, ok: bool, code: str | None = None) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            key = str(code)
            self.failure_codes[key] = self.failure_codes.get(key, 0) + 1
        return ok

    def check(self, errors) -> None:
        self.errors.extend(errors)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": not self.errors,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


class Stopwatch:
    """Wall-clock deadline for the measured window."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline
