"""The service workloads: ``serve-stream`` and ``serve-lifecycle``.

Both drive a ``repro serve`` subprocess in closed loops (a client sends
its next step only after the previous step's reply and telemetry frame
arrived) and check every output against a direct in-process
``TieredSimulator`` run of the same session config, made here.

``serve-stream`` (``--workers 1``, default fsync): two connections,
each stepping its own three small subscribed sessions (gups,
data-caching, lulesh) one epoch per request.  After ``epochs`` epochs a
late subscriber replays each session from seq 0 and the sessions are
closed.  After the measured window, with no other session live, a set
of data-caching sessions is aged, evicted to disk by the idle TTL and
resumed, several times over.

``serve-lifecycle`` (``--workers 0 --evict-to-disk``, short TTL): one
connection takes three sessions through age → several late replays →
idle eviction → ``resume_session`` → a pause shorter than the TTL but
longer than the reap interval → one step.
"""

from __future__ import annotations

import os
import threading
import time

from repro.ledger import Ledger

import catalog
from checks import check_goodbye, check_records, check_resumed, check_stream, same_record
from common import APPS, Outcome, Stopwatch, median, p99, proc_cpu_s, proc_hwm_mb
from simload import AppLayers, app_seed, digest_line, emit_sim_layers, load_digests, reference_records
from tracing import Tracer
from wire import Conn, Server

#: Per-session workload size: small, so the service path (decode,
#: admission, executor, IPC, fan-out, ledger) is about half of a step.
SESSION_KW = {"footprint_pages": 512, "accesses_per_epoch": 4000}

SIZES = {
    "serve-stream": {
        "full": {"epochs": 40, "spawns": 3, "ttl": 1.0, "reap": 0.05, "resume_sessions": 12, "resume_passes": 3},
        "smoke": {"epochs": 3, "spawns": 1, "ttl": 1.0, "reap": 0.05, "resume_sessions": 2, "resume_passes": 2},
    },
    "serve-lifecycle": {
        # Catch-up of 120 small epochs takes 0.6-0.7 s, over twice the
        # TTL; the pause sits between the reap interval and the TTL.
        "full": {"epochs": 120, "replays": 4, "spawns": 3, "ttl": 0.3, "reap": 0.05, "pause": 0.15},
        "smoke": {"epochs": 120, "replays": 1, "spawns": 1, "ttl": 0.3, "reap": 0.05, "pause": 0.15},
    },
}
#: serve-lifecycle session seeds.  Fixed, not drawn from ``--seed``: the
#: one operation expected to fail there must fail on inputs that do not
#: depend on the seed.
LIFECYCLE_SEEDS = {app: 7 + i for i, app in enumerate(APPS)}
#: App of the sessions ``serve-stream`` resumes after its window (the
#: app whose rebuild ``sim-epochs`` times in process).
RESUME_APP = "data-caching"
#: Wait after an evicted session leaves the registry before resuming
#: it in the worker pool: eviction pops the session before it closes
#: the old facade, and a resume in between loses its routing entry.
EVICT_SETTLE_S = 0.25
#: Steps per p99 sample.  The reported p99 is the median over blocks of
#: consecutive steps (a serve-stream round is one block), so a slow
#: stretch of the machine moves a few blocks rather than the run.
P99_BLOCK = 120


def session_params(app: str, seed: int) -> dict:
    return {
        "workload": app,
        "seed": seed,
        "policy": "history",
        "tier1_ratio": 1 / 8,
        "rank_source": "combined",
        "workload_kwargs": dict(SESSION_KW),
    }


class Session:
    def __init__(self, app: str, sid: str, sub: str, ref: list[dict]):
        self.app = app
        self.sid = sid
        self.sub = sub
        #: The direct run's records for this session's config.
        self.ref = ref
        self.replies: list[dict] = []
        self.frames: list[dict] = []


class Load:
    """What one client connection measured and counted."""

    def __init__(self):
        self.out = Outcome()
        self.spans: list = []
        self.step_s: list[float] = []
        self.step_s_traced: list[float] = []
        #: Untraced step latencies per app, and each stream round's p99.
        self.app_step_s: dict[str, list[float]] = {app: [] for app in APPS}
        self.round_p99: list[float] = []
        self.epochs = 0
        self.worker_s: list[float] = []
        self.path_s: list[float] = []
        self.lag_s: list[float] = []
        self.replay_s: list[float] = []
        self.replay_rate: list[float] = []
        self.replay_frames = 0
        self.replay_bytes = 0
        self.live_frames = 0
        self.rx_bytes = 0
        self.resume_s: list[float] = []
        self.resume_cpu_s: list[float] = []
        self.resume_epochs: list[int] = []
        self.resumed: list[str] = []
        self.error: BaseException | None = None

    def merge(self, other: "Load") -> None:
        self.out.attempted += other.out.attempted
        self.out.failed += other.out.failed
        self.out.errors += other.out.errors
        for code, count in other.out.failure_codes.items():
            self.out.failure_codes[code] = self.out.failure_codes.get(code, 0) + count
        offset = len(self.spans)
        self.spans += [[n, a, b, p + offset if p >= 0 else p, r] for n, a, b, p, r in other.spans]
        for name in (
            "step_s", "step_s_traced", "worker_s", "path_s", "lag_s",
            "replay_s", "replay_rate", "resume_s", "resume_cpu_s", "resume_epochs", "resumed", "round_p99",
        ):
            getattr(self, name).extend(getattr(other, name))
        for app in APPS:
            self.app_step_s[app].extend(other.app_step_s[app])
        for name in ("epochs", "replay_frames", "replay_bytes", "live_frames", "rx_bytes"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def wait_event(conn: Conn, subscription: str):
    """The next event frame of one subscription (others stay buffered)."""
    for i, event in enumerate(conn.events):
        if event.frame.get("subscription") == subscription:
            del conn.events[i]
            return event
    while True:
        event = conn.next_event()
        if event.frame.get("subscription") == subscription:
            return event
        conn.events.append(event)


def open_session(conn: Conn, load: Load, app: str, seed: int, ref: list[dict]) -> Session | None:
    r = conn.request("create_session", **session_params(app, seed))
    if not load.out.op(r.ok, r.code):
        return None
    sub = conn.request("subscribe", session=r.result["session"], max_queue=256)
    if not load.out.op(sub.ok, sub.code):
        return None
    return Session(app, r.result["session"], sub.result["subscription"], ref)


def step(conn: Conn, load: Load, s: Session, tracer: Tracer | None) -> None:
    """One closed-loop step: send, then wait for the reply and the frame."""
    r = conn.request("step", session=s.sid, epochs=1)
    if not load.out.op(r.ok, r.code):
        return
    event = wait_event(conn, s.sub)
    done = max(r.t_reply, event.t)
    worker = float(r.result.get("step_seconds", 0.0))
    if tracer is None:
        load.step_s.append(done - r.t_send)
        load.app_step_s[s.app].append(done - r.t_send)
    else:
        load.step_s_traced.append(done - r.t_send)
    load.epochs += 1
    load.worker_s.append(worker)
    load.path_s.append(r.seconds - worker)
    load.lag_s.append(event.t - r.t_reply)
    load.live_frames += 1
    s.replies.extend(r.result.get("epochs") or [])
    s.frames.append(event.frame)
    if tracer is not None:
        request = f"{s.sid}/{len(s.replies) - 1}"
        root = tracer.add_span("client.step", r.t_send, done, request=request)
        tracer.add_span("service.reply", r.t_send, r.t_reply, root, request)
        tracer.add_span("client.delivery", r.t_reply, event.t, root, request)


def replay(conn: Conn, load: Load, s: Session, n: int, tracer: Tracer | None) -> None:
    """A late subscriber replays the session from seq 0, then leaves."""
    r = conn.request("subscribe", session=s.sid, from_seq=0, max_queue=256)
    if not load.out.op(r.ok, r.code):
        return
    sub = r.result["subscription"]
    # Replayed frames are written before the subscribe reply.
    events = conn.take_events(sub)
    load.replay_s.append(r.seconds)
    load.replay_rate.append(len(events) / r.seconds)
    load.replay_frames += len(events)
    load.replay_bytes += sum(e.nbytes for e in events)
    if r.result.get("replayed") != n:
        load.out.check([f"{s.sid}: replayed {r.result.get('replayed')} frames, expected {n}"])
    load.out.check(check_stream(f"{s.sid} replay", [e.frame for e in events], s.replies[:n]))
    if tracer is not None:
        tracer.add_span("client.replay", r.t_send, r.t_reply, request=f"{s.sid}/replay")
    load.out.op(conn.request("unsubscribe", subscription=sub).ok)
    leftover = conn.take_events(sub)
    if leftover:
        load.out.check([f"{s.sid}: {len(leftover)} more frames after its replay"])


def check_served(load: Load, s: Session, n: int) -> None:
    """Step replies equal the direct run; the live stream has each epoch once."""
    load.out.check(check_records(f"{s.sid} step replies", s.ref[:n], s.replies))
    load.out.check(check_stream(f"{s.sid} live stream", s.frames, s.ref[:n]))


def wait_gone(conn: Conn, sids: list[str], timeout_s: float = 30.0) -> None:
    """Poll until none of ``sids`` is live (evicted by the idle TTL)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        r = conn.request("list_sessions")
        live = {info["session"] for info in r.result.get("sessions", [])}
        if not live.intersection(sids):
            return
        time.sleep(0.02)
    raise RuntimeError(f"sessions {sids} were not evicted within {timeout_s}s")


def cpu_s(server: Server) -> tuple[float, float]:
    """CPU seconds of (the server process, its worker processes)."""
    pids = server.pids()
    return proc_cpu_s(pids[0]), sum(proc_cpu_s(p) for p in pids[1:])


def counter(snapshot: dict, name: str, field: str = "value") -> float:
    entry = snapshot.get(name) or {}
    return float(sum(sample.get(field, 0) for sample in entry.get("samples", [])))


def dir_kb(path: str) -> float:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total / 1024.0


def set_up(args, size: dict, server_args: list[str]):
    """Spawn the server ``spawns`` times and keep the last one.

    Set-up runs from spawning the server until its first session is
    created and stepped; the median over the spawns is reported.
    Set-up operations are not counted as measured operations.
    """
    setup_s, create_s = [], []
    server = None
    for i in range(size["spawns"]):
        if server is not None:
            server.stop()
        t0 = time.perf_counter()
        server = Server(args.workdir, f"server{i}", server_args)
        conn = Conn(server.address)
        try:
            r = conn.request("create_session", **session_params("gups", app_seed(args.seed, 99)))
            st = conn.request("step", session=r.result.get("session"), epochs=1)
            if not (r.ok and st.ok):
                raise RuntimeError(f"set-up session failed: {r.code or st.code}")
            setup_s.append(time.perf_counter() - t0)
            create_s.append(r.seconds)
            conn.request("close_session", session=r.result["session"])
        except BaseException:
            server.stop()
            raise
        finally:
            conn.close()
    return server, setup_s, create_s


# ------------------------------------------------------------ serve-stream


def stream_client(address, refs: dict, n: int, clock: Stopwatch, traced_run: bool, load: Load) -> None:
    """One connection's closed loop over super-rounds of three sessions.

    A traced run alternates traced and untraced super-rounds, so it
    runs at least two.
    """
    min_rounds = 2 if traced_run else 1
    try:
        conn = Conn(address)
        rounds = 0
        while True:
            tracer = Tracer(load.spans) if traced_run and rounds % 2 == 1 else None
            sessions = [open_session(conn, load, app, seed, ref) for (app, seed), ref in refs.items()]
            sessions = [s for s in sessions if s is not None]
            first = len(load.step_s)
            for _ in range(n):
                for s in sessions:
                    step(conn, load, s, tracer)
            if len(load.step_s) > first:
                load.round_p99.append(p99(load.step_s[first:]))
            for s in sessions:
                replay(conn, load, s, n, tracer)
            for s in sessions:
                load.out.op(conn.request("unsubscribe", subscription=s.sub).ok)
                s.frames.extend(e.frame for e in conn.take_events(s.sub))
                check_served(load, s, n)
                c = conn.request("close_session", session=s.sid)
                if load.out.op(c.ok, c.code) and c.result["result"]["epochs_run"] != n:
                    load.out.check([f"{s.sid}: closed at epoch {c.result['result']['epochs_run']}, stepped {n}"])
            rounds += 1
            if rounds >= min_rounds and clock.expired():
                break
        load.rx_bytes = conn.rx_bytes
        conn.close()
    except BaseException as exc:  # noqa: BLE001 — re-raised by the caller
        load.error = exc


def check_tail(sid: str, frames: list[dict], seq: int, epochs: int, next_record: dict) -> list[str]:
    """Frames from ``seq`` after a resume: goodbye, resumed at ``epochs``, next epoch."""
    seqs = [f.get("seq") for f in frames]
    want = [seq, seq + 1, seq + 2]
    if seqs != want:
        return [f"{sid}: frames from seq {seq} have seqs {seqs}, expected {want}"]
    errors = check_goodbye(f"{sid} goodbye", frames[0]) + check_resumed(sid, frames[1], epochs)
    if not same_record(next_record, frames[2].get("data")):
        errors.append(f"{sid}: post-resume epoch frame differs from the direct run")
    return errors


def resume_probe(conn: Conn, server: Server, load: Load, key: tuple[str, int], ref: list[dict], n: int, size: dict) -> None:
    """Age ``resume_sessions`` sessions of one config, then resume each ``resume_passes`` times.

    Each session is aged to ``n`` epochs by one request.  Each pass
    waits until every session has been evicted, then resumes each one,
    steps it once and reads its frames since the eviction; the last
    pass closes them.
    """
    sids = []
    for _ in range(size["resume_sessions"]):
        r = conn.request("create_session", **session_params(*key))
        if not load.out.op(r.ok, r.code):
            continue
        sid = r.result["session"]
        st = conn.request("step", session=sid, epochs=n)
        if load.out.op(st.ok, st.code):
            load.out.check(check_records(f"{sid} aged", ref[:n], st.result.get("epochs") or []))
            sids.append(sid)
    epochs = {sid: n for sid in sids}
    seq = {sid: n for sid in sids}
    for p in range(size["resume_passes"]):
        wait_gone(conn, sids)
        time.sleep(EVICT_SETTLE_S)
        for sid in sids:
            k = epochs[sid]
            cpu0 = sum(cpu_s(server))
            r = conn.request("resume_session", session=sid)
            if not load.out.op(r.ok, r.code):
                continue
            load.resume_s.append(r.seconds)
            load.resume_cpu_s.append(sum(cpu_s(server)) - cpu0)
            load.resume_epochs.append(k)
            load.resumed.append(sid)
            if r.result.get("epochs_run") != k:
                load.out.check([f"{sid}: resumed at epoch {r.result.get('epochs_run')}, checkpointed {k}"])
            st = conn.request("step", session=sid, epochs=1)
            if load.out.op(st.ok, st.code):
                load.out.check(check_records(f"{sid} post-resume step", ref[k:k + 1], st.result.get("epochs") or []))
            sub = conn.request("subscribe", session=sid, from_seq=seq[sid], max_queue=16)
            if load.out.op(sub.ok, sub.code):
                tail = [e.frame for e in conn.take_events(sub.result["subscription"])]
                load.out.check(check_tail(sid, tail, seq[sid], k, ref[k]))
                load.out.op(conn.request("unsubscribe", subscription=sub.result["subscription"]).ok)
            epochs[sid] = k + 1
            seq[sid] += 3
            if p == size["resume_passes"] - 1:
                load.out.op(conn.request("close_session", session=sid).ok)


def stream_seeds(seed: int) -> list[list[tuple[str, int]]]:
    """Per client connection: the (app, seed) of each of its sessions."""
    return [[(app, app_seed(seed, 10 * c + i)) for i, app in enumerate(APPS)] for c in range(2)]


def run_stream(args, size: dict, traced_run: bool, layers) -> dict:
    n = size["epochs"]
    seeds = stream_seeds(args.seed)
    configs = {key: (key[0], key[1], SESSION_KW) for client in seeds for key in client}
    refs = reference_records(configs, n, layers, args.spans)
    client_refs = [{key: refs[key] for key in client} for client in seeds]
    recorded = load_digests()
    for (app, seed), recs in refs.items():
        args.notes.append(digest_line("serve-stream", app, seed, n, recs, recorded))
    resume_key = (RESUME_APP, app_seed(args.seed, 50))
    resume_ref = reference_records({resume_key: (*resume_key, SESSION_KW)}, n + size["resume_passes"])[resume_key]
    ledger_dir = os.path.join(args.workdir, "ledger")
    server_args = [
        "--workers", "1",
        "--ledger-dir", ledger_dir,
        "--evict-to-disk",
        "--idle-ttl", str(size["ttl"]),
        "--reap-interval", str(size["reap"]),
    ]
    server, setup_s, create_s = set_up(args, size, server_args)
    loads = [Load(), Load()]
    load = Load()
    try:
        probe = Conn(server.address)
        m0 = probe.request("metrics").result["metrics"]
        cpu0 = cpu_s(server)
        c0 = time.process_time()
        clock = Stopwatch(args.seconds)
        threads = [
            threading.Thread(target=stream_client, args=(server.address, client_refs[i], n, clock, traced_run, loads[i]))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for other in loads:
            if other.error is not None:
                raise other.error
            load.merge(other)
        client_cpu = time.process_time() - c0
        cpu1 = cpu_s(server)
        m1 = probe.request("metrics").result["metrics"]
        # The window's peak, before the resumed sessions are built.
        peak = sum(proc_hwm_mb(p) for p in server.pids())
        resume_probe(probe, server, load, resume_key, resume_ref, n, size)
        m2 = probe.request("metrics").result["metrics"]
        probe.close()
    finally:
        server.stop()
    epochs = load.epochs
    if load.live_frames != epochs:
        load.out.check([f"{load.live_frames} live frames for {epochs} epochs stepped"])
    return {
        "load": load,
        "setup_s": setup_s,
        "create_s": create_s,
        "epochs": epochs,
        "step_p99_s": median(load.round_p99),
        "cpu": (cpu1[0] - cpu0[0], cpu1[1] - cpu0[1], client_cpu),
        "metrics": (m0, m1, m2),
        "peak_mb": peak,
        "session_kb": [dir_kb(os.path.join(ledger_dir, sid)) for sid in sorted(set(load.resumed))],
    }


# --------------------------------------------------------- serve-lifecycle


def run_lifecycle(args, size: dict, traced_run: bool, layers) -> dict:
    n, replays, pause = size["epochs"], size["replays"], size["pause"]
    configs = {(app, seed): (app, seed, SESSION_KW) for app, seed in LIFECYCLE_SEEDS.items()}
    refs = reference_records(configs, n + 1, layers, args.spans)
    ledger_dir = os.path.join(args.workdir, "ledger")
    server_args = [
        "--workers", "0",
        "--ledger-dir", ledger_dir,
        "--evict-to-disk",
        "--idle-ttl", str(size["ttl"]),
        "--reap-interval", str(size["reap"]),
    ]
    server, setup_s, create_s = set_up(args, size, server_args)
    load = Load()
    sessions_by_id: dict[str, Session] = {}
    try:
        conn = Conn(server.address)
        m0 = conn.request("metrics").result["metrics"]
        cpu0 = cpu_s(server)
        c0 = time.process_time()
        clock = Stopwatch(args.seconds)
        rounds = 0
        while rounds < (2 if traced_run else 1) or not clock.expired():
            tracer = Tracer(load.spans) if traced_run and rounds % 2 == 1 else None
            sessions = [open_session(conn, load, key[0], key[1], ref) for key, ref in refs.items()]
            sessions = [s for s in sessions if s is not None]
            # 1. Age each session to ``n`` epochs, one epoch per request.
            first = len(load.step_s)
            for _ in range(n):
                for s in sessions:
                    step(conn, load, s, tracer)
            for b in range(first, len(load.step_s), P99_BLOCK):
                load.round_p99.append(p99(load.step_s[b:b + P99_BLOCK]))
            for s in sessions:
                check_served(load, s, n)
                sessions_by_id[s.sid] = s
            # 2. Late subscribers replay each history in turn.
            for s in sessions:
                for _ in range(replays):
                    replay(conn, load, s, n, tracer)
            # 3. Idle until the evicted goodbye arrives, resumable.
            for s in sessions:
                goodbye = wait_event(conn, s.sub).frame
                load.out.check(check_goodbye(f"{s.sid} goodbye", goodbye))
                if goodbye.get("seq") != n:
                    load.out.check([f"{s.sid}: goodbye at seq {goodbye.get('seq')}, expected {n}"])
                # Leaving releases the server's last reference to the session.
                load.out.op(conn.request("unsubscribe", subscription=s.sub).ok)
            wait_gone(conn, [s.sid for s in sessions])
            # 4-6. Resume, pause (reap interval < pause < TTL), step once.
            for s in sessions:
                cpu_before = sum(cpu_s(server))
                r = conn.request("resume_session", session=s.sid)
                if load.out.op(r.ok, r.code):
                    load.resume_s.append(r.seconds)
                    load.resume_cpu_s.append(sum(cpu_s(server)) - cpu_before)
                    load.resume_epochs.append(n)
                    load.resumed.append(s.sid)
                    if r.result.get("epochs_run") != n:
                        load.out.check([f"{s.sid}: resumed at epoch {r.result.get('epochs_run')}, checkpointed {n}"])
                time.sleep(pause)
                st = conn.request("step", session=s.sid, epochs=1)
                if load.out.op(st.ok, st.code):
                    load.out.check(check_records(f"{s.sid} post-resume step", s.ref[n:n + 1], st.result.get("epochs") or []))
            rounds += 1
        client_cpu = time.process_time() - c0
        cpu1 = cpu_s(server)
        m1 = m2 = conn.request("metrics").result["metrics"]
        peak = sum(proc_hwm_mb(p) for p in server.pids())
        load.rx_bytes = conn.rx_bytes
        conn.close()
    finally:
        server.stop()
    # The resumed frames, read back from each session's ledger.
    ledger = Ledger(ledger_dir)
    for sid in load.resumed:
        sl = ledger.open_session(sid)
        try:
            resumed = [rec for rec in sl.read() if rec.get("event") == "resumed"]
        finally:
            sl.close()
        if len(resumed) != 1:
            load.out.check([f"{sid}: {len(resumed)} resumed records in its ledger, expected 1"])
        for rec in resumed:
            load.out.check(check_resumed(f"{sid} ledger", rec, n))
    epochs = load.epochs
    if load.live_frames != epochs:
        load.out.check([f"{load.live_frames} live frames for {epochs} epochs stepped"])
    args.notes.append(f"serve-lifecycle: {rounds} rounds of {len(refs)} sessions aged to {n} epochs")
    return {
        "load": load,
        "setup_s": setup_s,
        "create_s": create_s,
        "epochs": epochs,
        "step_p99_s": median(load.round_p99),
        "cpu": (cpu1[0] - cpu0[0], cpu1[1] - cpu0[1], client_cpu),
        "metrics": (m0, m1, m2),
        "peak_mb": peak,
        "session_kb": [dir_kb(os.path.join(ledger_dir, sid)) for sid in load.resumed],
    }


# ------------------------------------------------------------------ entry


def run_serve(args, out: Outcome, import_s: float, spans: list | None) -> None:
    size = SIZES[args.workload]["smoke" if args.smoke else "full"]
    traced_run = spans is not None
    layers = {app: AppLayers() for app in APPS} if traced_run else None
    args.spans = spans
    args.notes = out.notes
    runner = run_stream if args.workload == "serve-stream" else run_lifecycle
    m = runner(args, size, traced_run, layers)
    load: Load = m["load"]
    out.attempted += load.out.attempted
    out.failed += load.out.failed
    out.errors += load.out.errors
    out.failure_codes = load.out.failure_codes
    out.note(
        f"{args.workload}: {m['epochs']} epochs stepped, {len(load.step_s) + len(load.step_s_traced)} steps, "
        f"{len(load.replay_s)} replays, {len(load.resume_s)} resumes, {load.out.failed} failed operations {load.out.failure_codes}"
    )
    if not traced_run:
        out.metric("setup_s", median(m["setup_s"]), "s")
        out.metric("peak_rss_mb", m["peak_mb"], "MB")
        for app in APPS:
            out.metric(f"epochs_per_s.{app}", 1.0 / median(load.app_step_s[app]), "1/s")
        out.metric("step_p50_ms", median(load.step_s) * 1e3, "ms")
        out.metric("step_p99_ms", m["step_p99_s"] * 1e3, "ms")
        out.metric("resume_p50_ms", median(load.resume_s) * 1e3, "ms")
        out.metric("replay_frames_per_s", median(load.replay_rate), "1/s")
        return

    if spans is not None:
        offset = len(spans)
        spans += [[nm, a, b, p + offset if p >= 0 else p, r] for nm, a, b, p, r in load.spans]
    emit_sim_layers(out, layers)
    epochs = m["epochs"]
    server_cpu, worker_cpu, client_cpu = m["cpu"]
    m0, m1, m2 = m["metrics"]
    fsyncs = counter(m1, "repro_ledger_fsync_seconds", "count") - counter(m0, "repro_ledger_fsync_seconds", "count")
    fsync_s = counter(m1, "repro_ledger_fsync_seconds", "sum") - counter(m0, "repro_ledger_fsync_seconds", "sum")
    out.metric("service.worker_step_ms", median(load.worker_s) * 1e3, "ms")
    out.metric("service.path_ms", median(load.path_s) * 1e3, "ms")
    out.metric("service.path_p99_ms", p99(load.path_s) * 1e3, "ms")
    out.metric("client.delivery_lag_ms", median(load.lag_s) * 1e3, "ms")
    out.metric("service.server_cpu_ms_per_epoch", server_cpu * 1e3 / epochs, "ms")
    out.metric("service.worker_cpu_ms_per_epoch", worker_cpu * 1e3 / epochs, "ms")
    out.metric("client.cpu_ms_per_epoch", client_cpu * 1e3 / epochs, "ms")
    ledger_bytes = counter(m1, "repro_ledger_bytes_total") - counter(m0, "repro_ledger_bytes_total")
    out.metric("ledger.bytes_per_epoch", ledger_bytes / epochs, "B")
    out.metric(
        "ledger.fsync_ms",
        fsync_s * 1e3 / fsyncs if fsyncs else 0.0,
        "ms",
    )
    out.metric("service.frames_delivered", load.live_frames, "count")
    out.metric("client.wire_bytes_per_epoch", load.rx_bytes / epochs, "B")
    out.metric("service.create_ms", median(m["create_s"]) * 1e3, "ms")
    out.metric("service.resume_epochs", median(load.resume_epochs), "count")
    out.metric(
        "service.resume_ms_per_epoch",
        median([t * 1e3 / k for t, k in zip(load.resume_s, load.resume_epochs)]),
        "ms",
    )
    out.metric("service.server_cpu_ms_per_resume", median(load.resume_cpu_s) * 1e3, "ms")
    out.metric("ledger.session_kb", median(m["session_kb"]), "kB")
    out.metric("ledger.replay_ms", median(load.replay_s) * 1e3, "ms")
    out.metric("ledger.replay_bytes_per_frame", load.replay_bytes / load.replay_frames, "B")
    checkpointed = counter(m2, "repro_service_sessions_checkpointed_total")
    resumed = counter(m2, "repro_service_sessions_resumed_total")
    out.metric("service.sessions_checkpointed", checkpointed, "count")
    out.metric("service.sessions_resumed", resumed, "count")
    if resumed != len(load.resumed):
        out.check([f"metrics count {resumed:g} resumed sessions, the client resumed {len(load.resumed)}"])
    traced, plain = median(load.step_s_traced), median(load.step_s)
    overhead = 100.0 * (traced / plain - 1.0)
    out.metric("trace.overhead_pct", overhead, "%")
    out.note(
        f"tracing overhead {args.workload}: step p50 {traced * 1e3:.2f} ms traced vs "
        f"{plain * 1e3:.2f} ms untraced = {overhead:+.1f}%"
    )
    present = set(out.metrics)
    missing = [name for name, _, _ in catalog.PER_LAYER if name not in present]
    if missing:
        out.check([f"per-layer metrics not produced: {missing}"])
