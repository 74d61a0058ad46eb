"""The simulator path, and the ``sim-epochs`` workload.

``sim-epochs`` runs batch ``TieredSimulator`` epochs in the benchmark
process, with no service: History policy, combined rank, tier-1 = 1/8,
50K accesses/epoch, on gups, data-caching and lulesh at their registry
footprints.  One round builds and populates a fresh simulator per app
and steps it ``epochs`` times; every round repeats the same inputs, so
every round's records must equal the first round's.  Each round also
rebuilds data-caching to its last epoch (the in-process catch-up a
resume performs) and replays every app's records from a
``repro.ledger`` session ledger (the offline ``repro ledger replay``
path).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
import time
from collections import defaultdict

from repro.ledger import Ledger, replay_result
from repro.memsim import MachineConfig
from repro.tiering import TieredSimulator
from repro.tiering.policies import POLICIES
from repro.workloads import make_workload

import catalog
from checks import (
    check_epoch_properties,
    check_oracle_bound,
    check_records,
    record,
    tier1_capacity,
)
from common import APPS, Stopwatch, median, p99
from tracing import EPOCH_STAGES, RUN_BATCH_PARTS, SimLayers, Tracer

SIZES = {
    # epochs per app per round, accesses per epoch, replays per app per round
    "full": {"epochs": 30, "accesses": 50_000, "replays": 10},
    "smoke": {"epochs": 3, "accesses": 50_000, "replays": 1},
}
#: App whose rebuild the in-process resume measures (the app whose
#: sessions the service resumes in ``serve-lifecycle``).
RESUME_APP = "data-caching"
#: The closure check: wrapped stage times must sum to the epoch's wall
#: time to within this share of it.
CLOSURE_TOLERANCE_PCT = 10.0


def build_sim(app: str, seed: int, policy: str = "history", **workload_kwargs) -> TieredSimulator:
    """The simulator a service session with these parameters runs."""
    return TieredSimulator(
        make_workload(app, **workload_kwargs),
        POLICIES[policy](),
        tier1_ratio=1 / 8,
        rank_source="combined",
        machine_config=MachineConfig.scaled(ibs_period=16),
        seed=seed,
    )


def app_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


def digest(records: list[dict]) -> str:
    """A short hash of the simulated per-epoch records."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


#: Digests regenerated by ``digest.py --write``.  A change meant only
#: for speed must leave them as they are.
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_digests() -> dict:
    try:
        with open(DIGEST_FILE) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def digest_line(workload: str, app: str, seed: int, n: int, records: list[dict], recorded: dict) -> str:
    key = f"{workload} {app} seed={seed} epochs={n}"
    value = digest(records)
    known = recorded.get(key)
    if known is None:
        status = "not recorded"
    else:
        status = "matches recorded" if known == value else f"DIFFERS from recorded {known}"
    return f"digest {key} {value} ({status})"


class AppLayers:
    """Per-layer totals of one app's traced epochs."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.epochs = 0
        self.tlb_misses = 0
        self.mem_accesses = 0
        self.pages_moved = 0
        self.reports_retained = 0
        self.pickle_mb = 0.0
        self.epoch_s: dict[bool, list[float]] = {True: [], False: []}


class _ByteCount:
    def __init__(self):
        self.n = 0

    def write(self, blob) -> int:
        size = memoryview(blob).nbytes
        self.n += size
        return size


def pickled_mb(sim) -> float:
    sink = _ByteCount()
    pickle.dump(sim, sink, protocol=pickle.HIGHEST_PROTOCOL)
    return sink.n / 1e6


def run_epochs(sim, n: int, layers: AppLayers | None = None, spans: list | None = None, label: str = ""):
    """Step ``sim`` ``n`` epochs; returns (records, per-epoch seconds).

    With ``layers``, every layer entry point is wrapped for the run and
    its time added to ``layers``; the originals are restored after.
    """
    tracer = layers_obj = None
    if layers is not None:
        tracer = Tracer(spans)
        layers_obj = SimLayers(tracer)
        layers_obj.attach(sim)
    records, seconds = [], []
    try:
        for _ in range(n):
            if tracer is not None:
                tracer.request = f"{label}/{sim.epochs_run}"
                index = tracer.begin("sim.epoch")
            t0 = time.perf_counter()
            m = sim.step(1)[0]
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(index)
            seconds.append(elapsed)
            records.append(record(m))
    finally:
        if tracer is not None:
            tracer.restore()
    if layers is not None:
        for name, total in tracer.totals.items():
            layers.totals[name] += total
        layers.epochs += n
        layers.tlb_misses += layers_obj.tlb_misses
        layers.mem_accesses += layers_obj.mem_accesses
        layers.pages_moved += layers_obj.pages_moved
        layers.reports_retained = len(sim.profiler.reports)
        layers.pickle_mb = pickled_mb(sim)
    return records, seconds


def emit_sim_layers(out, layers: dict[str, AppLayers]) -> None:
    """Per-app layer metrics (ms per epoch) plus the closure check."""
    for app in APPS:
        lay = layers[app]
        n = max(lay.epochs, 1)
        ms = {name: lay.totals.get(name, 0.0) * 1e3 / n for name in lay.totals}
        epoch_ms = ms.get("sim.epoch", 0.0)
        for stage in EPOCH_STAGES + RUN_BATCH_PARTS:
            out.metric(f"{stage}_ms.{app}", ms.get(stage, 0.0), "ms")
        parts = sum(ms.get(p, 0.0) for p in RUN_BATCH_PARTS)
        out.metric(f"memsim.run_batch_self_ms.{app}", ms.get("memsim.run_batch", 0.0) - parts, "ms")
        unattributed = epoch_ms - sum(ms.get(s, 0.0) for s in EPOCH_STAGES)
        share = 100.0 * unattributed / epoch_ms if epoch_ms else 0.0
        out.metric(f"sim.epoch_ms.{app}", epoch_ms, "ms")
        out.metric(f"sim.unattributed_ms.{app}", unattributed, "ms")
        out.metric(f"sim.unattributed_pct.{app}", share, "%")
        out.metric(f"memsim.tlb_misses.{app}", lay.tlb_misses / n, "count")
        out.metric(f"memsim.mem_accesses.{app}", lay.mem_accesses / n, "count")
        out.metric(f"tiering.pages_moved.{app}", lay.pages_moved / n, "count")
        out.metric(f"core.reports_retained.{app}", lay.reports_retained, "count")
        out.metric(f"tiering.sim_pickle_mb.{app}", lay.pickle_mb, "MB")
        closed = abs(share) <= CLOSURE_TOLERANCE_PCT
        if not closed:
            out.check([f"closure {app}: {share:.1f}% of the epoch unattributed, over {CLOSURE_TOLERANCE_PCT:g}%"])
        out.note(
            f"closure {app}: epoch {epoch_ms:.3f} ms, stages sum to "
            f"{epoch_ms - unattributed:.3f} ms, unattributed {unattributed:.3f} ms "
            f"= {share:.1f}% of the epoch (tolerance {CLOSURE_TOLERANCE_PCT:g}%): {'ok' if closed else 'FAIL'}"
        )


def reference_records(configs: dict, epochs: int, layers: dict[str, AppLayers] | None = None, spans=None) -> dict:
    """Direct in-process runs: ``{key: records}`` for ``{key: (app, seed, kwargs)}``.

    With ``layers`` (traced runs of the serve workloads), each app's
    first config is run with its layers wrapped.
    """
    out = {}
    traced_apps = set()
    for key, (app, seed, kwargs) in configs.items():
        sim = build_sim(app, seed, **kwargs)
        sim.start()
        lay = None
        if layers is not None and app not in traced_apps:
            traced_apps.add(app)
            lay = layers[app]
        out[key], _ = run_epochs(sim, epochs, lay, spans, label=f"ref/{app}")
    return out


def run_sim_epochs(args, out, import_s: float, spans: list | None) -> None:
    size = SIZES["smoke" if args.smoke else "full"]
    n, accesses, replays = size["epochs"], size["accesses"], size["replays"]
    traced_run = spans is not None
    seeds = {app: app_seed(args.seed, i) for i, app in enumerate(APPS)}
    capacity = {}
    first: dict[str, list[dict]] = {}
    app_step_s: dict[str, list[float]] = {app: [] for app in APPS}
    round_p99: list[float] = []
    layers = {app: AppLayers() for app in APPS}
    setup_s, resume_s, replay_s, replay_rate = [], [], [], []

    ledger = Ledger(os.path.join(args.workdir, "ledger"), fsync="never")
    session_ledgers = {}

    # A traced run alternates traced and untraced rounds, so it needs two.
    min_rounds = 2 if traced_run else 1
    clock = Stopwatch(args.seconds)
    rounds = 0
    while rounds < min_rounds or not clock.expired():
        traced = traced_run and rounds % 2 == 1
        round_setup = 0.0
        round_step_s = []
        for app in APPS:
            t0 = time.perf_counter()
            sim = build_sim(app, seeds[app], accesses_per_epoch=accesses)
            sim.start()
            round_setup += time.perf_counter() - t0
            capacity[app] = tier1_capacity(sim.workload.footprint_pages)
            recs, secs = run_epochs(sim, n, layers[app] if traced else None, spans, label=app)
            del sim
            for _ in range(n):
                out.op(True)
            if app not in first:
                first[app] = recs
            else:
                out.check(check_records(f"{app} round {rounds}", first[app], recs))
            layers[app].epoch_s[traced].append(sum(secs) / n)
            if not traced:
                app_step_s[app].extend(secs)
                round_step_s.extend(secs)
        setup_s.append(round_setup)
        if round_step_s:
            round_p99.append(p99(round_step_s))

        # In-process resume: rebuild and catch up to the last epoch, then
        # the next epoch must equal the straight run's.
        t0 = time.perf_counter()
        sim = build_sim(RESUME_APP, seeds[RESUME_APP], accesses_per_epoch=accesses)
        sim.start()
        if n > 1:
            sim.step(n - 1)
        resume_s.append(time.perf_counter() - t0)
        last = record(sim.step(1)[0])
        del sim
        out.op(True)
        out.check(check_records(f"{RESUME_APP} resumed at epoch {n - 1}", first[RESUME_APP][-1:], [last]))

        # Offline replay of each app's records from a session ledger.
        # One replay takes well under a millisecond, so the round's
        # replays are timed together.
        for app in APPS:
            if app not in session_ledgers:
                sl = ledger.create_session(app, {"workload": app, "seed": seeds[app]})
                for rec in first[app]:
                    sl.append("epoch", rec)
                session_ledgers[app] = sl
        t0 = time.perf_counter()
        results = [(app, replay_result(session_ledgers[app])) for app in APPS for _ in range(replays)]
        elapsed = time.perf_counter() - t0
        replay_s.append(elapsed / len(results))
        replay_rate.append(sum(len(r.epochs) for _, r in results) / elapsed)
        for app, result in results:
            out.op(True)
            out.check(check_records(f"{app} ledger replay", first[app], [record(m) for m in result.epochs]))
        rounds += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger_bytes = {app: sl.stats()["bytes"] for app, sl in session_ledgers.items()}
    for sl in session_ledgers.values():
        sl.close()

    # Checks apart from the code under test.
    recorded = load_digests()
    for app in APPS:
        for rec in first[app]:
            out.check(check_epoch_properties(rec, app, accesses, capacity[app]))
        oracle = build_sim(app, seeds[app], policy="true-oracle", accesses_per_epoch=accesses)
        oracle.start()
        oracle_recs, _ = run_epochs(oracle, n)
        del oracle
        out.check(check_oracle_bound(app, first[app], oracle_recs))
        out.note(digest_line("sim-epochs", app, seeds[app], n, first[app], recorded))
    out.note(f"sim-epochs: {rounds} rounds of {n} epochs per app")

    if not traced_run:
        out.metric("setup_s", import_s + median(setup_s), "s")
        out.metric("peak_rss_mb", peak_rss_mb, "MB")
        for app in APPS:
            out.metric(f"epochs_per_s.{app}", 1.0 / median(app_step_s[app]), "1/s")
        out.metric("step_p50_ms", median([t for app in APPS for t in app_step_s[app]]) * 1e3, "ms")
        out.metric("step_p99_ms", median(round_p99) * 1e3, "ms")
        out.metric("resume_p50_ms", median(resume_s) * 1e3, "ms")
        out.metric("replay_frames_per_s", median(replay_rate), "1/s")
        return

    emit_sim_layers(out, layers)
    traced_ms = sum(median(layers[a].epoch_s[True]) for a in APPS)
    plain_ms = sum(median(layers[a].epoch_s[False]) for a in APPS)
    overhead = 100.0 * (traced_ms / plain_ms - 1.0)
    out.metric("trace.overhead_pct", overhead, "%")
    out.note(
        f"tracing overhead sim-epochs: traced rounds {traced_ms * 1e3:.2f} ms vs "
        f"untraced {plain_ms * 1e3:.2f} ms per epoch (summed over apps) = {overhead:+.1f}%"
    )
    total_bytes = sum(ledger_bytes.values())
    out.metric("ledger.replay_ms", median(replay_s) * 1e3, "ms")
    out.metric("ledger.replay_bytes_per_frame", total_bytes / (n * len(APPS)), "B")
    out.metric("ledger.session_kb", median(list(ledger_bytes.values())) / 1024.0, "kB")
    out.metric("ledger.bytes_per_epoch", total_bytes / (n * len(APPS)), "B")
    present = {name for name in out.metrics}
    for name, unit, _ in catalog.SERVICE:
        if name not in present:
            out.metric(name, 0.0, unit)
