"""The ``repro serve --socket`` subprocess and the load that drives it.

One client process drives the server: the main thread both sends and
receives over ``connections`` sockets (a ``select`` loop), so the client
never runs more threads than the machine has cores, counting the
process-tree RSS sampler.  Open-loop phases send each request at its
seeded due time whether or not earlier ones were answered, and time every
request from that due time; how late the loop actually sent is reported
separately.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: How long a phase may wait for its last answers before the missing ones
#: count as timed out.
DRAIN_TIMEOUT_S = 30.0
#: SIGTERM → exit longer than this kills the server and fails the run.
EXIT_TIMEOUT_S = 60.0


# ------------------------------------------------------------ process tree
def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (from ``/proc/*/task/*/children``)."""
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tids = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    children = [int(c) for c in fh.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def vm_rss_bytes(pid: int) -> int:
    """Resident set size of one process, 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class TreeRssSampler:
    """Background thread: peak summed VmRSS of this process and its descendants."""

    def __init__(self, interval_s: float = 0.02):  # noqa: D107
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._paused = False
        self._lock = threading.Lock()
        #: What the run is doing; noted with each new peak.
        self.phase = "start"
        self.peak_phase = self.phase
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler", daemon=True)

    def sample(self) -> None:
        """Take one sample now (none while paused)."""
        with self._lock:
            if self._paused:
                return
            me = os.getpid()
            total = sum(vm_rss_bytes(p) for p in [me, *descendants(me)])
            if total > self.peak_bytes:
                self.peak_bytes, self.peak_phase = total, self.phase

    @contextmanager
    def paused(self):
        """No samples inside the block; a sample in flight finishes first."""
        with self._lock:
            self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "TreeRssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# ------------------------------------------------------------------ client
@dataclass
class PhaseResult:
    """What one load phase sent and got back."""

    latencies_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    responses: Dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    answered_at: List[float] = field(default_factory=list)


class ServeClient:
    """JSON-lines client over ``connections`` unix sockets, one thread."""

    def __init__(self, path: str, connections: int, timeout_s: float = 5.0):  # noqa: D107
        self.socks: List[socket.socket] = []
        for _ in range(connections):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout_s)
            sock.connect(path)
            self.socks.append(sock)
        self._bufs = {s.fileno(): b"" for s in self.socks}

    def close(self) -> None:
        """Close every connection."""
        for sock in self.socks:
            sock.close()

    def _send(self, conn: int, request: dict) -> None:
        self.socks[conn].sendall((json.dumps(request) + "\n").encode())

    def _receive(self, timeout: float) -> List[dict]:
        """Complete response lines that arrive within ``timeout``."""
        readable, _, _ = select.select(self.socks, [], [], max(timeout, 0.0))
        out = []
        for sock in readable:
            chunk = sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed a connection")
            buf = self._bufs[sock.fileno()] + chunk
            *lines, self._bufs[sock.fileno()] = buf.split(b"\n")
            out.extend(json.loads(line) for line in lines if line)
        return out

    def ask(self, request: dict, timeout_s: float = 60.0) -> dict:
        """One request on the first connection; waits for its answer."""
        self._send(0, request)
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            for response in self._receive(deadline - time.perf_counter()):
                if response.get("id") == request.get("id"):
                    return response
        raise TimeoutError(f"no answer to {request.get('id')!r}")

    def _settle(self, result: PhaseResult, sent: Dict[str, float], responses) -> None:
        now = time.perf_counter()
        for response in responses:
            due = sent.pop(response.get("id"), None)
            if due is None:
                continue
            result.responses[response["id"]] = response
            if "error" in response:
                result.failed += 1
            else:
                result.latencies_s.append(now - due)
                result.answered_at.append(now)

    def _drain(self, result: PhaseResult, sent: Dict[str, float]) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while sent and time.perf_counter() < deadline:
            self._settle(result, sent, self._receive(deadline - time.perf_counter()))
        result.failed += len(sent)  # never answered: timed out

    def open_loop(self, requests: Sequence[dict], offsets: Sequence[float]) -> PhaseResult:
        """Send ``requests[i]`` at ``offsets[i]`` s from now, round-robin."""
        result = PhaseResult(attempted=len(requests))
        sent: Dict[str, float] = {}
        start = time.perf_counter()
        for i, (request, offset) in enumerate(zip(requests, offsets)):
            due = start + offset
            while True:
                now = time.perf_counter()
                if now >= due:
                    break
                self._settle(result, sent, self._receive(due - now))
            sent[request["id"]] = due
            result.late_s.append(time.perf_counter() - due)
            self._send(i % len(self.socks), request)
        self._drain(result, sent)
        return result

    def windowed(self, requests: Sequence[dict], window: int) -> PhaseResult:
        """Keep ``window`` requests outstanding until every one is answered.

        ``answered_at`` holds the arrival time of each answer, in order.  A
        phase that gets no answer for ``DRAIN_TIMEOUT_S`` gives up; what is
        left counts as timed out.
        """
        result = PhaseResult(attempted=len(requests))
        sent: Dict[str, float] = {}
        pending = list(reversed(requests))
        progress = time.perf_counter()
        while pending or sent:
            while pending and len(sent) < window:
                request = pending.pop()
                sent[request["id"]] = time.perf_counter()
                self._send(len(pending) % len(self.socks), request)
            answered = len(result.responses)
            self._settle(result, sent, self._receive(progress + DRAIN_TIMEOUT_S - time.perf_counter()))
            if len(result.responses) > answered:
                progress = time.perf_counter()
            elif time.perf_counter() - progress > DRAIN_TIMEOUT_S:
                break
        result.failed += len(sent) + len(pending)
        return result


# ------------------------------------------------------------------ server
class ServeProcess:
    """``python -m repro serve --socket unix:PATH`` as a child process."""

    def __init__(self, root: Path, checkpoint: Path, index: Path, socket_path: Path,
                 workers: int, log_path: Path):  # noqa: D107
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.socket_path = socket_path
        self.terminated_at: Optional[float] = None
        self.exited_at: Optional[float] = None
        self._log = open(log_path, "wb")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(checkpoint), str(index),
             "--socket", f"unix:{socket_path}", "--workers", str(workers)],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def connect(self, connections: int, timeout_s: float = 120.0) -> ServeClient:
        """Wait for the socket to accept, then connect ``connections`` times."""
        deadline = time.perf_counter() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                return ServeClient(str(self.socket_path), connections)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > deadline:
                    raise TimeoutError("repro serve never started listening")
                time.sleep(0.005)

    def terminate(self) -> None:
        """Send SIGTERM; a waiter thread notes when the process exits.

        The benchmark keeps working while the server shuts down; the
        server is idle by then, so that work does not compete with it.
        """
        self._waiter = threading.Thread(target=self._wait, name="serve-reaper", daemon=True)
        self.terminated_at = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        self._waiter.start()

    def _wait(self) -> None:
        self.proc.wait()
        self.exited_at = time.perf_counter()

    def exit_seconds(self) -> Tuple[float, bool]:
        """``(SIGTERM → exit seconds, exited by itself)``; kills on timeout."""
        remaining = self.terminated_at + EXIT_TIMEOUT_S - time.perf_counter()
        self._waiter.join(max(remaining, 0.0))
        if self.exited_at is None:
            self.kill()
            self._waiter.join()
            return time.perf_counter() - self.terminated_at, False
        return self.exited_at - self.terminated_at, True

    def kill(self) -> None:
        """Make sure the server and its workers are gone and reaped."""
        if self.proc.poll() is None:
            for pid in descendants(self.proc.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.kill()
        self.proc.wait()
        self._log.close()
