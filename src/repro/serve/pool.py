"""Worker pool dispatcher: N serve processes under one supervisor thread.

The dispatcher owns the process-level concurrency of the service:

* N worker processes (``spawn`` context — no inherited locks or fds, safe
  alongside the front end's threads), each running :func:`_worker_main`
  over the same checkpoint and the same on-disk sharded index, spawned,
  stopped and respawned through the :class:`~repro.exec.pool.Worker`
  handle that :class:`~repro.exec.pool.WarmPool` runs on: one process,
  one duplex pipe;
* at most one message on each worker's pipe.  Everything else waits in a
  parent-side FIFO per worker, so batch → swap ordering is exact
  (everything dispatched before a swap runs on the old index) and a send
  never blocks behind a busy worker;
* least-loaded dispatch: a batch goes to the worker with the fewest
  unfinished batches;
* one supervisor thread blocked in ``connection.wait`` on every pipe,
  every process sentinel and the nearest batch deadline — no polling
  interval.  Crash containment falls out of the one-message rule: the
  batch a dead or hung worker was running is the one on its pipe, so
  exactly that batch fails (error responses, not silence), the slot
  respawns with its FIFO intact — batches queued behind the dead worker
  survive — and the service keeps running.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import socket
import threading
import time
from collections import deque
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Sequence

from repro.exec.pool import STOP_GRACE_SECONDS, Worker, messages, stop_workers

#: Deaths before "ready" after which a slot stops respawning.
MAX_START_FAILURES = 3


def _worker_main(
    conn, checkpoint: str, index_path: str, store_root, enable_test_hooks: bool,
    server_kwargs: dict,
) -> None:
    """Entry point for one spawned worker: load, report, serve the pipe.

    Messages in: ``("batch", batch_id, requests)`` runs the same
    :meth:`RetrievalServer.handle_batch` the stdin service runs and
    replies with the ordered responses; ``("swap", index_path, token)``
    re-opens the index manifest and acks; ``("stop",)`` exits.  A failing
    batch never kills the worker (errors become per-request error
    responses); a *crashing* worker is noticed by the parent through the
    pipe's EOF or the process sentinel.
    """
    try:
        from repro import faults
        from repro.artifacts import ArtifactStore
        from repro.core.trainer import MatchTrainer
        from repro.index import open_index
        from repro.serve.core import RetrievalServer

        trainer = MatchTrainer.load(checkpoint)
        # Degraded open: a corrupt shard quarantines instead of killing the
        # worker, and a corrupt quantizer payload records why so the server
        # can fall back from ANN to the exact path (allow_degraded below).
        index = open_index(index_path, trainer, degraded=True)
        store = ArtifactStore(store_root) if store_root else None
        server = RetrievalServer(
            trainer, index, store=store, allow_degraded=True, **server_kwargs
        )
    except Exception as exc:  # pragma: no cover - startup failure path
        # Process boundary: there is no caller to re-raise to, so the
        # exception crosses as a ("fatal", message) report — with
        # context, never swallowed — and the pool surfaces it at start().
        conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        return
    conn.send(("ready",))
    for msg in messages(conn):
        if msg[0] == "swap":
            _, path, token = msg
            try:
                server.index = open_index(path, trainer, degraded=True)
                conn.send(("swapped", token, None))
            except Exception as exc:
                # Same boundary rule as startup: the swap ack carries the
                # typed error message back; the old index stays in service.
                conn.send(("swapped", token, f"{type(exc).__name__}: {exc}"))
            continue
        _, batch_id, requests = msg
        if enable_test_hooks:
            _run_test_hooks(requests)
        try:
            # Fault-injection chokepoint: REPRO_FAULTS specs targeting the
            # `worker.batch` site fire here, inside the real spawned worker
            # — crash faults die mid-batch (exercising respawn), hang
            # faults stall against the pool's deadline, IO faults surface
            # as the descriptive batch error below.
            faults.hit("worker.batch")
            responses = server.handle_batch(requests)
        except Exception as exc:
            # handle_batch turns per-request failures into error responses
            # already; anything that still escapes fails the batch without
            # poisoning the worker for later batches.
            responses = [
                {"id": r.get("id"), "error": f"batch failed: {exc}"} for r in requests
            ]
        conn.send(("batch", batch_id, responses))


def _run_test_hooks(requests) -> None:
    """Fault-injection hooks, honored only under ``enable_test_hooks``.

    ``test_sleep_ms`` holds the batch in flight (deterministic backpressure
    and hot-swap tests); ``test_crash`` hard-exits mid-batch (crash
    recovery tests).  Production servers never enable these.
    """
    for req in requests:
        delay = req.get("test_sleep_ms")
        if isinstance(delay, (int, float)) and delay > 0:
            time.sleep(delay / 1000.0)
        if req.get("test_crash"):
            os._exit(13)


class _Slot(Worker):
    """One worker slot: the process handle, its FIFO and start accounting.

    ``token`` is the one message on the pipe, ``("batch", id, requests)``
    or ``("swap", path, token)``; ``queue`` holds those waiting behind it.
    """

    def __init__(self, slot: int):  # noqa: D107
        self.slot = slot
        self.queue: deque = deque()
        self.ready = False
        self.start_failures = 0  # consecutive deaths before reporting ready

    def load(self) -> int:
        """Unfinished batches: queued plus the one on the pipe."""
        held = self.token is not None and self.token[0] == "batch"
        return held + sum(1 for msg in self.queue if msg[0] == "batch")


class WorkerPool:
    """Dispatcher over N spawned retrieval workers sharing one index."""

    def __init__(
        self,
        checkpoint: str,
        index_path: str,
        *,
        workers: int = 2,
        default_k: Optional[int] = 5,
        max_batch: int = 8,
        mode: str = "exact",
        nprobe: int = 8,
        store_root: Optional[str] = None,
        enable_test_hooks: bool = False,
        batch_timeout_s: Optional[float] = None,
        on_batch_done: Callable[[int, List[dict]], None],
        on_batch_failed: Callable[..., None],
    ):  # noqa: D107
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if batch_timeout_s is not None and batch_timeout_s <= 0:
            raise ValueError(f"batch_timeout_s must be > 0, got {batch_timeout_s}")
        self.checkpoint = checkpoint
        self.index_path = index_path
        self._worker_args = (store_root, enable_test_hooks, dict(
            batch_size=max_batch, default_k=default_k, mode=mode, nprobe=nprobe
        ))
        self.batch_timeout_s = batch_timeout_s
        self.timeouts = 0
        self.crashes = 0
        self._on_batch_done = on_batch_done
        self._on_batch_failed = on_batch_failed
        self._ctx = multiprocessing.get_context("spawn")
        self._slots = [_Slot(slot) for slot in range(workers)]
        # Everything below is owned by the supervisor thread, except the
        # inbox: submit()/swap() append to it under the lock and wake the
        # supervisor through the socket pair.
        self._lock = threading.Lock()
        self._inbox: deque = deque()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        # batch id → monotonic deadline, ticking from submission (covers
        # queue wait + execution — a per-request deadline, not a CPU one).
        self._deadlines: Dict[int, float] = {}
        self._swap_tokens = itertools.count(1)
        self._swap_waiters: Dict[int, dict] = {}
        self._ready_event = threading.Event()
        self._stop = False
        self._fatal: Optional[str] = None
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-pool-supervisor", daemon=True
        )

    # ----------------------------------------------------------- lifecycle
    def start(self, timeout: float = 120.0) -> None:
        """Spawn every worker and block until all report ready."""
        for slot in self._slots:
            self._spawn(slot)
        self._supervisor.start()
        if not self._ready_event.wait(timeout):
            self.close()
            raise RuntimeError(
                f"worker pool did not become ready within {timeout:.0f}s"
            )
        if self._fatal:
            self.close()
            raise RuntimeError(f"worker failed to start: {self._fatal}")

    def _spawn(self, slot: _Slot) -> None:
        slot.ready = False
        slot.start(self._ctx, _worker_main, self.checkpoint, self.index_path,
                   *self._worker_args, name=f"serve-worker-{slot.slot}")

    def close(self) -> None:
        """Stop the supervisor, shut every worker down, terminate stragglers."""
        with self._lock:
            if self._stop:
                return
            self._stop = True
        self._wake()
        if self._supervisor.is_alive():
            self._supervisor.join(STOP_GRACE_SECONDS)
        stop_workers([s for s in self._slots if s.proc is not None])
        self._wake_r.close()
        self._wake_w.close()

    @property
    def num_workers(self) -> int:
        """How many worker slots the pool runs."""
        return len(self._slots)

    # ------------------------------------------------------------ dispatch
    def submit(self, batch_id: int, requests: Sequence[dict]) -> None:
        """Queue one batch on the least-loaded worker (FIFO per worker)."""
        deadline = None
        if self.batch_timeout_s is not None:
            deadline = time.monotonic() + self.batch_timeout_s
        with self._lock:
            if not self._stop:
                self._inbox.append(("batch", batch_id, list(requests), deadline))
                self._wake()
                return
        self._on_batch_failed(batch_id, "server shutting down")

    def swap(self, index_path: str, timeout: float = 60.0) -> Dict[str, object]:
        """Hot-swap every worker onto the index at ``index_path``.

        Each worker re-opens the manifest after the batches already in its
        FIFO, so in-flight queries finish on the old index and later ones
        see the new.  Blocks until every live worker acks (a worker that
        crashes mid-swap is counted as such).  Respawned workers open
        ``self.index_path``, which is updated first so crash recovery
        lands on the new index too.
        """
        waiter = {"event": threading.Event(), "errors": []}
        with self._lock:
            if self._stop:
                raise RuntimeError("worker pool is closed")
            self.index_path = index_path
            self._inbox.append(("swap", index_path, next(self._swap_tokens), waiter))
            self._wake()
        if not waiter["event"].wait(timeout):
            raise RuntimeError(f"index hot-swap did not complete within {timeout:.0f}s")
        return {"workers": self.num_workers, "errors": list(waiter["errors"])}

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except BlockingIOError:
            pass  # the buffer is full: a wakeup is already pending

    # ----------------------------------------------------------- supervisor
    def _supervise(self) -> None:
        """The one loop that talks to workers: route, feed, wait, react.

        Callbacks (responses to clients) run on this thread, after the
        state they report has been updated; no lock is held.
        """
        while True:
            with self._lock:
                if self._stop:
                    return
                inbox, self._inbox = self._inbox, deque()
            for msg in inbox:
                self._route(msg)
            live = [s for s in self._slots if s.proc is not None]
            waitables = [self._wake_r]
            for slot in live:
                self._feed(slot)
                waitables += [slot.conn, slot.proc.sentinel]
            timeout = None
            if self._deadlines:
                timeout = max(0.0, min(self._deadlines.values()) - time.monotonic())
            ready = set(connection.wait(waitables, timeout))
            if self._wake_r in ready:
                self._wake_r.recv(4096)
            for slot in live:
                if slot.conn in ready or slot.proc.sentinel in ready:
                    self._service(slot)
            self._expire_deadlines()

    def _route(self, msg: tuple) -> None:
        """Place one submitted batch or swap on the workers' FIFOs."""
        live = [s for s in self._slots if s.proc is not None]
        if msg[0] == "swap":
            _, path, token, waiter = msg
            waiter["pending"] = {s.slot for s in live}
            if not live:
                waiter["event"].set()
                return
            self._swap_waiters[token] = waiter
            for slot in live:
                slot.queue.append(("swap", path, token))
            return
        _, batch_id, requests, deadline = msg
        if not live:
            self._on_batch_failed(batch_id, f"worker pool is down: {self._fatal}")
            return
        min(live, key=_Slot.load).queue.append(("batch", batch_id, requests))
        if deadline is not None:
            self._deadlines[batch_id] = deadline

    def _feed(self, slot: _Slot) -> None:
        """Put the next queued message on an idle, ready worker's pipe."""
        if slot.ready and slot.token is None and slot.queue:
            slot.token = slot.queue.popleft()
            slot.send(slot.token)  # if dead, the sentinel fails it

    def _service(self, slot: _Slot) -> None:
        """Read what the worker sent; reap and respawn it if it died."""
        try:
            while slot.conn.poll():
                self._on_message(slot, slot.conn.recv())
            dead = not slot.proc.is_alive()
        except (EOFError, OSError):
            dead = True
        if dead:
            self._on_death(slot)

    def _on_message(self, slot: _Slot, msg: tuple) -> None:
        kind = msg[0]
        if kind == "ready":
            slot.ready = True
            slot.start_failures = 0
            if all(s.ready for s in self._slots):
                self._ready_event.set()
        elif kind == "fatal":
            self._fatal = msg[1]
            self._ready_event.set()
        elif kind == "batch":
            slot.token = None
            self._deadlines.pop(msg[1], None)
            self._feed(slot)  # keep the worker busy while clients are answered
            self._on_batch_done(msg[1], msg[2])
        elif kind == "swapped":
            slot.token = None
            self._feed(slot)
            self._ack_swap(slot.slot, msg[1], msg[2])

    def _ack_swap(self, slot: int, token: int, error) -> None:
        waiter = self._swap_waiters.get(token)
        if waiter is None or slot not in waiter["pending"]:
            return
        if error:
            waiter["errors"].append(f"worker {slot}: {error}")
        waiter["pending"].discard(slot)
        if not waiter["pending"]:
            del self._swap_waiters[token]
            waiter["event"].set()

    def _expire_deadlines(self) -> None:
        """Fail every batch past its deadline; kill the worker hung on one.

        A deadline miss on the batch on a worker's pipe means that worker
        is stuck (a hang fault, a wedged syscall): the process is killed
        and respawned, and batches queued behind it survive in its FIFO.
        A miss on a merely *queued* batch just answers it early — either
        way the client gets a prompt retryable error instead of a
        connection that never responds.
        """
        now = time.monotonic()
        for batch_id in [b for b, t in self._deadlines.items() if t <= now]:
            del self._deadlines[batch_id]
            self.timeouts += 1
            for slot in self._slots:
                if slot.token is not None and slot.token[:2] == ("batch", batch_id):
                    slot.token = None  # answered below, not as a crash
                    self._on_death(slot)
                slot.queue = deque(m for m in slot.queue if m[:2] != ("batch", batch_id))
            self._on_batch_failed(
                batch_id,
                f"deadline exceeded: batch not answered within "
                f"{self.batch_timeout_s:g}s",
                retryable=True,
            )

    def _on_death(self, slot: _Slot) -> None:
        """Reap a dead (or hung) worker: fail its one batch, then respawn."""
        slot.kill()
        self.crashes += 1
        held, slot.token = slot.token, None
        # A crash mid-swap must not hang the swap barrier.
        for token in list(self._swap_waiters):
            self._ack_swap(slot.slot, token, "worker crashed during swap")
        if held is not None and held[0] == "batch":
            self._deadlines.pop(held[1], None)
            self._on_batch_failed(held[1], "worker crashed mid-batch; request not served")
        # A worker that keeps dying before it ever comes up will never
        # serve anything: cap the respawn loop instead of storming.  The
        # slot stays empty (proc is None) and its queued batches fail.
        if not slot.ready:
            slot.start_failures += 1
            if slot.start_failures >= MAX_START_FAILURES:
                self._fatal = self._fatal or (
                    f"worker {slot.slot} died "
                    f"{slot.start_failures} times before becoming ready"
                )
                self._ready_event.set()
                for msg in slot.queue:
                    if msg[0] == "batch":
                        self._deadlines.pop(msg[1], None)
                        self._on_batch_failed(msg[1], f"worker pool is down: {self._fatal}")
                slot.queue.clear()
                return
        self._spawn(slot)
