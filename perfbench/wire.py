"""A timestamping JSON-lines client and a ``repro serve`` subprocess.

The client records the arrival time and size of every frame, which
the program's own blocking client does not expose: step latency runs
from the send until the step's last telemetry frame arrives.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass

from common import ROOT, SRC, descendants, pid_alive

REQUEST_TIMEOUT_S = 60.0


@dataclass
class Reply:
    ok: bool
    result: dict
    code: str | None
    t_send: float
    t_reply: float

    @property
    def seconds(self) -> float:
        return self.t_reply - self.t_send


@dataclass
class Event:
    frame: dict
    t: float
    nbytes: int


class Conn:
    """One connection: synchronous requests, buffered event frames."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.next_id = 0
        self.events: deque[Event] = deque()
        self.rx_bytes = 0

    def close(self) -> None:
        try:
            self.rfile.close()
        finally:
            self.sock.close()

    def _read(self) -> tuple[dict, float, int]:
        line = self.rfile.readline()
        t = time.perf_counter()
        if not line:
            raise ConnectionError("server closed the connection")
        self.rx_bytes += len(line)
        return json.loads(line), t, len(line)

    def request(self, op: str, **params) -> Reply:
        self.next_id += 1
        rid = self.next_id
        line = json.dumps({"id": rid, "op": op, "params": params}).encode() + b"\n"
        t_send = time.perf_counter()
        self.sock.sendall(line)
        while True:
            frame, t, nbytes = self._read()
            if "event" in frame:
                self.events.append(Event(frame, t, nbytes))
                continue
            if frame.get("id") != rid:
                continue
            error = frame.get("error") or {}
            return Reply(bool(frame.get("ok")), frame.get("result") or {}, error.get("code"), t_send, t)

    def next_event(self) -> Event:
        if self.events:
            return self.events.popleft()
        while True:
            frame, t, nbytes = self._read()
            if "event" in frame:
                return Event(frame, t, nbytes)

    def take_events(self, subscription: str) -> list[Event]:
        """Remove and return the buffered events of one subscription."""
        mine = [e for e in self.events if e.frame.get("subscription") == subscription]
        if mine:
            self.events = deque(e for e in self.events if e.frame.get("subscription") != subscription)
        return mine


class Server:
    """A ``repro serve`` subprocess on a free localhost TCP port."""

    def __init__(self, workdir: str, name: str, args: list[str]):
        self.log_path = os.path.join(workdir, f"{name}.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("REPRO_SERVICE_WORKERS", None)
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0", *args],
                cwd=ROOT,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.pid = self.proc.pid
        self.address = self._wait_listening()

    def _wait_listening(self, timeout_s: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        pattern = re.compile(rb"listening on ([0-9.]+):([0-9]+)")
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as f:
                found = pattern.search(f.read())
            if found:
                return found.group(1).decode(), int(found.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        with open(self.log_path, "rb") as f:
            tail = f.read()[-2000:].decode(errors="replace")
        raise RuntimeError(f"repro serve did not start listening:\n{tail}")

    def pids(self) -> list[int]:
        """The server and every process it started (its workers)."""
        return [self.pid, *descendants(self.pid)]

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL; waits for every process."""
        kids = descendants(self.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + timeout_s
        for pid in kids:
            while pid_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                while pid_alive(pid) and time.monotonic() < deadline + 5:
                    time.sleep(0.01)
