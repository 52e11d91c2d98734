"""Shared test utilities: finite-difference gradient checking, leak checks."""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
from multiprocessing import resource_tracker
from typing import Callable, Dict, Iterator, Sequence

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.shm import leaked_segments


def numeric_grad(
    fn: Callable[[], Tensor], param: Tensor, eps: float = 1e-2
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``param``.

    ``fn`` must re-run the full forward pass reading ``param.data``.
    float32 arithmetic limits accuracy, so callers compare with loose
    tolerances (rtol ~ 1e-2).
    """
    grad = np.zeros_like(param.data, dtype=np.float64)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(fn().data)
        flat[i] = orig - eps
        lo = float(fn().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradients(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    rtol: float = 5e-2,
    atol: float = 5e-3,
) -> None:
    """Assert autograd gradients match finite differences for each param."""
    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()
    for p in params:
        assert p.grad is not None, "parameter received no gradient"
        num = numeric_grad(fn, p)
        np.testing.assert_allclose(p.grad, num, rtol=rtol, atol=atol)


def _open_fds() -> Dict[int, str]:
    fds = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            fds[int(name)] = os.readlink(f"/proc/self/fd/{name}")
        except OSError:
            pass  # the listing's own descriptor, closed by now
    return fds


@contextlib.contextmanager
def assert_no_leaks() -> Iterator[None]:
    """Fail if the block leaves a thread, child process, fd or shm segment.

    Snapshots ``threading.enumerate()``, ``multiprocessing.active_children()``,
    ``/proc/self/fd`` and :func:`repro.utils.shm.leaked_segments` before and
    after the block; anything new afterwards outlived its owner.  The
    multiprocessing resource tracker is started first: it is one helper
    per interpreter, started by the first spawn and kept until exit.
    """
    resource_tracker.ensure_running()
    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    fds = _open_fds()
    segments = set(leaked_segments())
    yield
    leaks = {
        "threads": [t.name for t in set(threading.enumerate()) - threads],
        "children": [p.name for p in set(multiprocessing.active_children()) - children],
        "fds": sorted(set(_open_fds().items()) - set(fds.items())),
        "shm": sorted(set(leaked_segments()) - segments),
    }
    assert not any(leaks.values()), leaks
