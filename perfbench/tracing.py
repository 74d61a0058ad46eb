"""Spans timed from outside, around the program's public calls.

:class:`Tracer` replaces a method on one object (or a function in one
module) with a wrapper that records a span — name, start, end, parent
span and request id — and adds the duration to a per-name total.
:meth:`Tracer.restore` puts every original back.  Nothing inside the
program is changed; spans are kept in memory and written out by the
caller when the run ends.
"""

from __future__ import annotations

import threading
import time
import types
from collections import defaultdict

from repro.memsim import BatchResult
from repro.tiering import simulator as sim_module

#: Stages of one simulator epoch whose times must sum to the epoch's
#: wall time (the closure check).  Each is a top-level call made by
#: ``TieredSimulator._run_epoch``.
EPOCH_STAGES = (
    "workloads.epoch",
    "memsim.run_batch",
    "memsim.counts",
    "core.observe",
    "core.end_epoch",
    "tiering.place",
    "tiering.policy",
    "tiering.migrate",
    "tiering.score",
)
#: Children of ``Machine.run_batch``; its self time is the remainder.
RUN_BATCH_PARTS = (
    "memsim.cache",
    "memsim.walk",
    "memsim.tlb",
    "memsim.frame_stats",
    "memsim.samplers",
)


class Tracer:
    def __init__(self, spans: list | None = None):
        self.totals: dict[str, float] = defaultdict(float)
        #: ``[name, start, end, parent index, request]`` rows; tracers
        #: may share one list so parent indices stay valid across them.
        self.spans: list = [] if spans is None else spans
        self.request = None
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.request])
        stack.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack().pop()
        elapsed = span[2] - span[1]
        self.totals[span[0]] += elapsed
        return elapsed

    def add_span(self, name: str, start: float, end: float, parent: int = -1, request=None) -> int:
        """Record a span measured elsewhere (e.g. from reply timestamps)."""
        self.spans.append([name, start, end, parent, request])
        self.totals[name] += end - start
        return len(self.spans) - 1

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(result)
            return result

        had_own = isinstance(owner, types.ModuleType) or attr in getattr(owner, "__dict__", {})
        self._patched.append((owner, attr, original, had_own))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class SimLayers:
    """Per-layer times and counts of one simulator, epoch by epoch."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.tlb_misses = 0
        self.mem_accesses = 0
        self.pages_moved = 0

    def attach(self, sim) -> None:
        """Wrap the simulator's layer entry points (call after ``start``)."""
        t = self.tracer
        m = sim.machine
        t.wrap(sim.workload, "epoch", "workloads.epoch")
        t.wrap(m, "run_batch", "memsim.run_batch", on_result=self._batch)
        t.wrap(m.caches, "access", "memsim.cache")
        t.wrap(m.ptw, "fill_walks", "memsim.walk")
        t.wrap(m.ptw, "dirty_updates", "memsim.walk")
        t.wrap(m.tlb, "access", "memsim.tlb")
        t.wrap(m.frame_stats, "record", "memsim.frame_stats")
        for sampler in (m.ibs, m.pebs, m.lwp):
            t.wrap(sampler, "observe", "memsim.samplers")
        # Per-page counts the epoch loop takes from each batch result;
        # only the simulator calls them, so the class is patched.
        for attr in ("page_access_counts", "page_mem_access_counts", "page_tlb_miss_counts"):
            t.wrap(BatchResult, attr, "memsim.counts")
        t.wrap(sim.profiler, "observe_batch", "core.observe")
        t.wrap(sim.profiler, "end_epoch", "core.end_epoch")
        # Placement and hot-set ranking are module functions the
        # simulator imported by name; patch them where it looks them up.
        t.wrap(sim_module, "fcfa_place_new", "tiering.place")
        t.wrap(sim.policy, "target_tier1", "tiering.policy")
        t.wrap(sim.mover, "apply_target", "tiering.migrate", on_result=self._moved)
        t.wrap(sim.latency_model, "epoch_latency", "tiering.score")
        t.wrap(sim_module, "top_k_pages", "tiering.score")

    def _batch(self, result) -> None:
        self.tlb_misses += result.raw_events.get("dtlb_miss", 0)
        self.mem_accesses += result.raw_events.get("llc_miss", 0)

    def _moved(self, moved) -> None:
        self.pages_moved += int(moved.moved)
