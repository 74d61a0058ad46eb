"""Output checks.  Each returns a list of error strings (empty = pass).

The checks compare the program's outputs with values computed here,
apart from the code under test (expected access counts, tier-1
capacity, a direct in-process simulator run), or with properties the
method must have (no policy beats ground truth, each epoch delivered
exactly once and in order).  ``selftest.py`` feeds each check a
crafted wrong output and requires it to be rejected.
"""

from __future__ import annotations

#: Processes per app at the registry defaults (workload constructors).
_PROCESSES = {"gups": 8, "lulesh": 8}
_DC_SERVERS, _DC_CLIENTS = 4, 8

#: Fields of an epoch record the checks compare.
RECORD_KEYS = (
    "epoch",
    "accesses",
    "mem_accesses",
    "hitrate",
    "promoted",
    "demoted",
    "profiler_overhead_s",
    "runtime_s",
)
LATENCY_KEYS = ("base_s", "slow_fault_s", "hot_slow_extra_s", "migration_s", "total_s")


def record(m) -> dict:
    """One ``EpochMetrics`` as a plain dict, in the wire record's shape."""
    lat = m.latency
    return {
        "epoch": int(m.epoch),
        "accesses": int(m.accesses),
        "mem_accesses": int(m.mem_accesses),
        "hitrate": float(m.hitrate),
        "promoted": int(m.promoted),
        "demoted": int(m.demoted),
        "profiler_overhead_s": float(m.profiler_overhead_s),
        "runtime_s": float(m.runtime_s),
        "latency": {
            "base_s": float(lat.base_s),
            "slow_fault_s": float(lat.slow_fault_s),
            "hot_slow_extra_s": float(lat.hot_slow_extra_s),
            "migration_s": float(lat.migration_s),
            "total_s": float(lat.total_s),
        },
    }


def expected_accesses(app: str, accesses_per_epoch: int) -> int:
    """Accesses one epoch must contain, from the generators' split rules.

    Each process gets ``accesses_per_epoch // processes``; data-caching
    clients issue only ``max(16, share // 32)`` request-buffer touches.
    """
    if app == "data-caching":
        share = accesses_per_epoch // (_DC_SERVERS + _DC_CLIENTS)
        return _DC_SERVERS * share + _DC_CLIENTS * max(16, share // 32)
    n = _PROCESSES[app]
    return n * (accesses_per_epoch // n)


def tier1_capacity(footprint_pages: int, ratio: float = 1 / 8) -> int:
    return max(1, int(round(footprint_pages * ratio)))


def check_epoch_properties(rec: dict, app: str, accesses_per_epoch: int, capacity: int) -> list[str]:
    where = f"{app} epoch {rec.get('epoch')}"
    errors = []
    want = expected_accesses(app, accesses_per_epoch)
    if rec["accesses"] != want:
        errors.append(f"{where}: accesses {rec['accesses']} != configured {want}")
    if not 0 <= rec["mem_accesses"] <= rec["accesses"]:
        errors.append(f"{where}: mem_accesses {rec['mem_accesses']} outside [0, accesses]")
    if not 0.0 <= rec["hitrate"] <= 1.0:
        errors.append(f"{where}: hitrate {rec['hitrate']} outside [0, 1]")
    for key in ("promoted", "demoted"):
        if not 0 <= rec[key] <= capacity:
            errors.append(f"{where}: {key} {rec[key]} outside [0, tier-1 capacity {capacity}]")
    return errors


def check_oracle_bound(app: str, history: list[dict], oracle: list[dict]) -> list[str]:
    """A ground-truth oracle sees the same stream and never loses to History."""
    if len(history) != len(oracle):
        return [f"{app}: {len(history)} History epochs vs {len(oracle)} oracle epochs"]
    errors = []
    for h, o in zip(history, oracle):
        where = f"{app} epoch {h['epoch']}"
        if (h["accesses"], h["mem_accesses"]) != (o["accesses"], o["mem_accesses"]):
            errors.append(f"{where}: access stream differs from the true-oracle run")
        if h["hitrate"] > o["hitrate"]:
            errors.append(
                f"{where}: History hitrate {h['hitrate']} above the true-oracle bound {o['hitrate']}"
            )
    return errors


def same_record(expected: dict, got: dict) -> bool:
    if not isinstance(got, dict):
        return False
    if any(got.get(k) != expected[k] for k in RECORD_KEYS):
        return False
    lat = got.get("latency")
    if not isinstance(lat, dict):
        return False
    return all(lat.get(k) == expected["latency"][k] for k in LATENCY_KEYS)


def check_records(what: str, expected: list[dict], got: list[dict]) -> list[str]:
    """Served records equal the benchmark's own direct-run records."""
    if len(expected) != len(got):
        return [f"{what}: {len(got)} records, expected {len(expected)}"]
    for i, (e, g) in enumerate(zip(expected, got)):
        if not same_record(e, g):
            return [f"{what}: record {i} differs from the direct run ({g!r} != {e!r})"]
    return []


def check_stream(what: str, frames: list[dict], expected: list[dict], first_seq: int = 0) -> list[str]:
    """Every epoch exactly once, seqs contiguous from ``first_seq``, nothing dropped."""
    errors = []
    seqs = [f.get("seq") for f in frames]
    want = list(range(first_seq, first_seq + len(expected)))
    if seqs != want:
        errors.append(f"{what}: seqs {_brief(seqs)} != {_brief(want)}")
    dropped = [f.get("dropped") for f in frames if f.get("dropped") != 0]
    if dropped:
        errors.append(f"{what}: frames report dropped={dropped[0]}")
    events = {f.get("event") for f in frames}
    if frames and events != {"epoch"}:
        errors.append(f"{what}: unexpected events {sorted(map(str, events))}")
    if not errors:
        errors += check_records(what, expected, [f.get("data") for f in frames])
    return errors


def check_goodbye(what: str, frame: dict) -> list[str]:
    data = frame.get("data") or {}
    if frame.get("event") != "error" or data.get("code") != "evicted":
        return [f"{what}: expected an evicted goodbye, got {frame!r}"]
    if data.get("resumable") is not True:
        return [f"{what}: evicted goodbye is not resumable: {data!r}"]
    return []


def check_resumed(what: str, frame: dict, epochs: int) -> list[str]:
    data = frame.get("data") or {}
    if frame.get("event") != "resumed":
        return [f"{what}: expected a resumed frame, got {frame!r}"]
    if data.get("epochs_resumed") != epochs:
        return [f"{what}: resumed frame reports {data.get('epochs_resumed')} epochs, checkpointed {epochs}"]
    return []


def _brief(seqs: list) -> str:
    if len(seqs) <= 6:
        return str(seqs)
    return f"[{seqs[0]}, {seqs[1]}, ..., {seqs[-1]}] (n={len(seqs)})"
