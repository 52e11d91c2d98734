"""A persistent warm worker pool for grid training and corpus builds.

``multiprocessing.Pool`` answers a different question than a training
grid asks.  A grid submits a handful of long jobs over and over (one
batch per table), and the throwaway pool charges the full warmup —
process start, interpreter + NumPy + ``repro`` import under spawn, and a
pickled copy of the shared dataset *per job* — to every batch.  This
module keeps the workers.

* **Warm workers** — processes start once, import once, and stay resident
  across :meth:`WarmPool.run` batches; :func:`get_pool` keeps one pool
  per (size, start method) for the life of the parent process.
* **Shared read-only data** — :meth:`WarmPool.share` publishes an object
  under a key; job payloads reference it with :class:`SharedRef` instead
  of carrying it.  Fork workers resolve the key through inherited memory
  (copy-on-write: zero copies, zero serialization); spawn workers attach
  a shared-memory segment holding one pickle of the object and
  deserialize it once, caching it for every later job.
* **Fault tolerance** — each worker runs ``faults.hit("pool.worker.job")``
  before a job, so the PR 9 fault grammar reaches inside real workers
  (``crash:pool.worker.job@0.5~7``).  A worker that dies or hangs is
  respawned and its job retried up to ``max_job_retries`` times; a job
  that keeps failing raises :class:`JobFailed` with the worker's story.
  Results flow back over per-worker pipes — never ``mp.Queue``, whose
  feeder thread can lose a message when a process dies hard — and
  workers never touch any store: the parent commits results, so a
  killed worker cannot corrupt anything.  The :class:`Worker` handle
  behind this is shared with the serve tier's worker pool.

Scheduling cannot change results: pool users (``run_grid``,
``build_parallel``) only use workers to *fill caches*, and materialize
their outputs through the serial path afterwards.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import time
from collections import deque
from multiprocessing import connection
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import faults
from repro.utils.shm import SharedBlock

#: Fault-injection site fired by a worker before every job it runs.
WORKER_JOB_SITE = "pool.worker.job"

#: Seconds to wait for a worker to exit after a "stop" message.
STOP_GRACE_SECONDS = 5.0

# Parent-side registry of shared objects.  Fork workers inherit this dict
# (copy-on-write — never serialized, never copied until written, which
# read-only datasets are not); spawn workers start with it empty and fall
# back to the shared-memory pickle.
_COW_REGISTRY: Dict[str, object] = {}

# Worker-side cache of objects resolved from shared-memory segments, so
# each worker deserializes a shared object exactly once.
_WORKER_CACHE: Dict[str, object] = {}


class SharedRef:
    """A placeholder for a shared object inside a job payload.

    The parent sends ``SharedRef(key)`` where the object would go; the
    worker swaps the real object back in before calling the job function.
    """

    __slots__ = ("key",)

    def __init__(self, key: str):  # noqa: D107
        self.key = key

    def __repr__(self) -> str:  # noqa: D105
        return f"SharedRef({self.key!r})"


class JobFailed(RuntimeError):
    """A pool job could not be completed (retries exhausted or clean error)."""


def ping(value=None):
    """Trivial job: returns its argument (health checks, dispatch benches)."""
    return value


def _resolve_shares(args: Tuple, shares: Dict[str, Tuple[str, int]]) -> Tuple:
    """Replace every :class:`SharedRef` in ``args`` with the real object."""
    return tuple(
        _lookup_shared(a.key, shares) if isinstance(a, SharedRef) else a for a in args
    )


def _lookup_shared(key: str, shares: Dict[str, Tuple[str, int]]):
    cached = _WORKER_CACHE.get(key)
    if cached is not None:
        return cached
    obj = _COW_REGISTRY.get(key)  # fork: inherited, zero-copy
    if obj is None:
        try:
            name, nbytes = shares[key]
        except KeyError:
            raise JobFailed(f"shared object {key!r} is not published") from None
        block = SharedBlock.attach(name, nbytes)
        try:
            obj = pickle.loads(bytes(block.buf))
        finally:
            block.close()
    _WORKER_CACHE[key] = obj
    return obj


def messages(conn) -> Iterator[tuple]:
    """Worker side of the pipe: each message until ``("stop",)`` or EOF."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # parent is gone; nothing left to serve
        if msg[0] == "stop":
            return
        yield msg


def _worker_main(conn) -> None:
    """Worker loop: resolve shares, run jobs, report over the pipe.

    Job exceptions are *reported*, not fatal — the worker stays warm for
    the next job.  Only parent death (EOF on the pipe) or an injected
    crash/kill ends the process.
    """
    for msg in messages(conn):
        if msg[0] == "drop":
            _WORKER_CACHE.pop(msg[1], None)
            _COW_REGISTRY.pop(msg[1], None)
            continue
        token, func, args, shares = msg[1], msg[2], msg[3], msg[4]
        try:
            faults.hit(WORKER_JOB_SITE)
            result = func(*_resolve_shares(args, shares))
        except Exception as exc:  # boundary: report to the parent, stay warm
            conn.send(("err", token, f"{type(exc).__name__}: {exc}"))
        else:
            conn.send(("ok", token, result))


class Worker:
    """Parent-side handle on one worker process and its end of a duplex pipe.

    The one supervision primitive for every process pool in the package:
    :class:`WarmPool` and the serve tier's
    :class:`~repro.serve.pool.WorkerPool` both spawn, stop and respawn
    workers through it, and both learn of a death from EOF on the pipe or
    from the process sentinel.  ``token`` names what is on the pipe right
    now (a job, a batch) or is ``None`` while the worker is idle.
    """

    proc = conn = token = None  # empty until start(), and again after kill()

    def start(self, ctx, target: Callable, *args, name: Optional[str] = None) -> "Worker":
        """Run ``target(conn, *args)`` in a fresh process on a fresh pipe."""
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=target, args=(child_conn, *args), daemon=True, name=name
        )
        self.proc.start()
        child_conn.close()
        self.conn, self.token = parent_conn, None
        return self

    def send(self, msg) -> bool:
        """Put ``msg`` on the pipe; False if the worker is already gone."""
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            return False  # boundary: the sentinel reports the death
        return True

    def kill(self) -> None:
        """Terminate the process if it still runs, reap it, release its fds."""
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(STOP_GRACE_SECONDS)
            if self.proc.is_alive():
                self.proc.kill()
        self.proc.join()
        self.proc.close()  # the sentinel fd is otherwise held until GC
        self.conn.close()
        self.proc = self.conn = None


def stop_workers(workers: Sequence[Worker]) -> None:
    """Ask every worker to stop; terminate any that outlive the grace."""
    for worker in workers:
        worker.send(("stop",))
    for worker in workers:
        worker.proc.join(STOP_GRACE_SECONDS)
        worker.kill()


class WarmPool:
    """Persistent worker processes with shared data and crash recovery.

    ``start_method`` is ``fork``/``spawn``/``forkserver`` or ``None`` for
    the platform default.  ``job_timeout`` (seconds) turns a hung worker
    into a kill + respawn + retry; ``max_job_retries`` bounds how many
    times one job survives its worker dying before :class:`JobFailed`.
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        job_timeout: Optional[float] = None,
        max_job_retries: int = 2,
    ):  # noqa: D107
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.start_method = start_method or multiprocessing.get_start_method()
        self.job_timeout = job_timeout
        self.max_job_retries = int(max_job_retries)
        self._ctx = multiprocessing.get_context(self.start_method)
        self._pool: List[Worker] = []
        self._shares: Dict[str, SharedBlock] = {}
        self._tokens = itertools.count(1)
        self._closed = False
        self.respawns = 0
        self.jobs_done = 0

    # ------------------------------------------------------------ lifecycle
    def _spawn_worker(self, worker: Optional[Worker] = None) -> Worker:
        return (worker or Worker()).start(self._ctx, _worker_main)

    def _ensure_workers(self, need: int) -> None:
        while len(self._pool) < min(self.workers, max(need, 1)):
            self._pool.append(self._spawn_worker())

    def _respawn(self, worker: Worker) -> None:
        """Replace a dead (or killed) worker with a fresh one, in place."""
        worker.kill()
        self._spawn_worker(worker)
        self.respawns += 1

    def close(self) -> None:
        """Stop every worker and release every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        stop_workers(self._pool)
        self._pool.clear()
        for key in list(self._shares):
            block = self._shares.pop(key)
            block.close()
            block.unlink()
            _COW_REGISTRY.pop(key, None)

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --------------------------------------------------------- shared data
    def share(self, key: str, obj: object) -> None:
        """Publish ``obj`` under ``key`` for :class:`SharedRef` payloads.

        Registers the object for fork copy-on-write *and* stages one
        pickle of it in a shared-memory segment — the spawn-safe fallback,
        and what a fork worker started before this call attaches.  Safe to
        call again with the same key (no-op).
        """
        if key in self._shares:
            return
        _COW_REGISTRY[key] = obj
        self._shares[key] = SharedBlock.from_bytes(
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def unshare(self, key: str) -> None:
        """Retire a shared object: unlink its segment, evict worker caches."""
        block = self._shares.pop(key, None)
        if block is None:
            return
        block.close()
        block.unlink()
        _COW_REGISTRY.pop(key, None)
        for worker in self._pool:
            if worker.proc.is_alive() and worker.token is None:
                worker.send(("drop", key))  # a dying worker forgets it anyway

    def _share_descriptors(self) -> Dict[str, Tuple[str, int]]:
        return {key: (b.name, b.nbytes) for key, b in self._shares.items()}

    # ---------------------------------------------------------------- jobs
    def run(self, func: Callable, payloads: Sequence[Tuple]) -> List[object]:
        """Run ``func(*payload)`` for every payload; results in order.

        Jobs are handed to idle workers as they free up.  A worker that
        dies mid-job is respawned and the job requeued (``max_job_retries``
        deaths per job, then :class:`JobFailed`); a job that raises cleanly
        fails the whole batch immediately — that is a real error, not a
        fault to retry.  On failure, workers still running other jobs are
        recycled so the pool comes back clean.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        payloads = [tuple(p) for p in payloads]
        if not payloads:
            return []
        self._ensure_workers(len(payloads))
        results: List[object] = [None] * len(payloads)
        queue = deque((i, 0) for i in range(len(payloads)))
        # token → (worker, payload index, attempts, deadline)
        pending: Dict[int, Tuple[Worker, int, int, Optional[float]]] = {}
        shares = self._share_descriptors()
        try:
            while queue or pending:
                self._assign(func, payloads, queue, pending, shares)
                self._collect(results, queue, pending)
        except BaseException:
            self._abort_inflight(pending)
            raise
        return results

    def _assign(self, func, payloads, queue, pending, shares) -> None:
        for worker in self._pool:
            if not queue:
                return
            if worker.token is not None:
                continue
            if not worker.proc.is_alive():
                self._respawn(worker)
            index, attempts = queue.popleft()
            token = next(self._tokens)
            deadline = (
                time.monotonic() + self.job_timeout if self.job_timeout else None
            )
            if not worker.send(("job", token, func, payloads[index], shares)):
                # The worker died between the liveness check and the send:
                # recycle it and put the job back for the next pass.
                self._requeue(queue, pending, index, attempts, "died on dispatch")
                self._respawn(worker)
                continue
            worker.token = token
            pending[token] = (worker, index, attempts, deadline)

    def _collect(self, results, queue, pending) -> None:
        if not pending:
            return
        waitables = []
        for worker, _, _, _ in pending.values():
            waitables.append(worker.conn)
            waitables.append(worker.proc.sentinel)
        timeout = None
        now = time.monotonic()
        deadlines = [d for _, _, _, d in pending.values() if d is not None]
        if deadlines:
            timeout = max(0.0, min(deadlines) - now)
        ready = connection.wait(waitables, timeout)
        ready_set = set(ready)
        for token in list(pending):
            worker, index, attempts, deadline = pending[token]
            if worker.conn in ready_set:
                try:
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    self._on_death(queue, pending, token, "died mid-job")
                    continue
                if msg[1] != token:
                    continue  # stale result from an aborted batch: drop it
                del pending[token]
                worker.token = None
                if msg[0] == "err":
                    raise JobFailed(f"pool job {index} failed cleanly: {msg[2]}")
                results[index] = msg[2]
                self.jobs_done += 1
            elif worker.proc.sentinel in ready_set and not worker.proc.is_alive():
                self._on_death(queue, pending, token, "was killed")
            elif deadline is not None and time.monotonic() >= deadline:
                self._on_death(
                    queue, pending, token,
                    f"hung past the {self.job_timeout:.1f}s job timeout",
                )

    def _on_death(self, queue, pending, token, why: str) -> None:
        worker, index, attempts, _ = pending.pop(token)
        self._respawn(worker)
        self._requeue(queue, pending, index, attempts, why)

    def _requeue(self, queue, pending, index, attempts, why: str) -> None:
        if attempts >= self.max_job_retries:
            self._abort_inflight(pending)
            raise JobFailed(
                f"pool job {index} {why} and exhausted its "
                f"{self.max_job_retries} retries"
            )
        queue.append((index, attempts + 1))

    def _abort_inflight(self, pending) -> None:
        """Recycle every worker still running a job of an aborted batch."""
        for worker, _, _, _ in pending.values():
            self._respawn(worker)
        pending.clear()


# ------------------------------------------------------- process-wide pool
_POOLS: Dict[Tuple[int, str], WarmPool] = {}
_atexit_registered = False


def get_pool(workers: int, start_method: Optional[str] = None) -> WarmPool:
    """The process-wide warm pool for (``workers``, ``start_method``).

    Created on first use and kept resident — this is what makes the
    second grid of a bench run warm.  Closed automatically at interpreter
    exit; call :func:`shutdown_pools` to do it sooner.
    """
    global _atexit_registered
    method = start_method or multiprocessing.get_start_method()
    key = (int(workers), method)
    pool = _POOLS.get(key)
    if pool is None or pool._closed:
        pool = _POOLS[key] = WarmPool(workers, start_method=method)
        if not _atexit_registered:
            _atexit_registered = True
            atexit.register(shutdown_pools)
    return pool


def shutdown_pools() -> None:
    """Close every process-wide pool (workers stopped, segments unlinked)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()
