"""Every metric the benchmark prints, with unit and better direction.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that
the two agree.  A workload that has no such layer (the service layers
in ``sim-epochs``) prints 0 for that layer's metrics.
"""

from __future__ import annotations

from common import APPS

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    *[(f"epochs_per_s.{app}", "1/s", "higher") for app in APPS],
    ("step_p50_ms", "ms", "lower"),
    ("step_p99_ms", "ms", "lower"),
    ("resume_p50_ms", "ms", "lower"),
    ("replay_frames_per_s", "1/s", "higher"),
]

#: Per-app simulator layers: ms per epoch inside the wrapped call.
SIM_TIMES = [
    "workloads.epoch_ms",
    "memsim.run_batch_ms",
    "memsim.cache_ms",
    "memsim.walk_ms",
    "memsim.tlb_ms",
    "memsim.frame_stats_ms",
    "memsim.samplers_ms",
    "memsim.run_batch_self_ms",
    "memsim.counts_ms",
    "core.observe_ms",
    "core.end_epoch_ms",
    "tiering.place_ms",
    "tiering.policy_ms",
    "tiering.migrate_ms",
    "tiering.score_ms",
    "sim.epoch_ms",
    "sim.unattributed_ms",
]
SIM_OTHER = [
    ("sim.unattributed_pct", "%", "lower"),
    ("memsim.tlb_misses", "count", "lower"),
    ("memsim.mem_accesses", "count", "lower"),
    ("tiering.pages_moved", "count", "lower"),
    ("core.reports_retained", "count", "lower"),
    ("tiering.sim_pickle_mb", "MB", "lower"),
]

SERVICE = [
    ("service.worker_step_ms", "ms", "lower"),
    ("service.path_ms", "ms", "lower"),
    ("service.path_p99_ms", "ms", "lower"),
    ("client.delivery_lag_ms", "ms", "lower"),
    ("service.server_cpu_ms_per_epoch", "ms", "lower"),
    ("service.worker_cpu_ms_per_epoch", "ms", "lower"),
    ("client.cpu_ms_per_epoch", "ms", "lower"),
    ("ledger.bytes_per_epoch", "B", "lower"),
    ("ledger.fsync_ms", "ms", "lower"),
    ("service.frames_delivered", "count", "higher"),
    ("client.wire_bytes_per_epoch", "B", "lower"),
    ("service.create_ms", "ms", "lower"),
    ("service.resume_epochs", "count", "lower"),
    ("service.resume_ms_per_epoch", "ms", "lower"),
    ("service.server_cpu_ms_per_resume", "ms", "lower"),
    ("ledger.session_kb", "kB", "lower"),
    ("ledger.replay_ms", "ms", "lower"),
    ("ledger.replay_bytes_per_frame", "B", "lower"),
    ("service.sessions_checkpointed", "count", "higher"),
    ("service.sessions_resumed", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

PER_LAYER = [
    *[
        (f"{name}.{app}", "ms", "lower")
        for app in APPS
        for name in SIM_TIMES
    ],
    *[
        (f"{name}.{app}", unit, better)
        for app in APPS
        for name, unit, better in SIM_OTHER
    ],
    *SERVICE,
]
