"""Lifecycle tests: bounded, leak-free start/close for servers and pools.

Every scenario runs inside :func:`tests.helpers.assert_no_leaks`, so a
thread, child process, fd or shared-memory segment that outlives its
owner fails the test, and every clean ``close()`` must return in under a
second — shutdown is woken, never waited out on a timeout.  Also pins the
construction-time validation of :class:`ServerConfig`.
"""

import base64
import json
import math
import os
import signal
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs
from repro.exec import WarmPool
from repro.exec.pool import ping
from repro.index import EmbeddingIndex, ShardedEmbeddingIndex
from repro.serve import ServerConfig, SocketFrontend, create_server
from tests.helpers import assert_no_leaks

TIMEOUT = 120.0
CLOSE_BUDGET_S = 1.0


@pytest.fixture(scope="module")
def corpus():
    samples = CorpusBuilder(tiny_data_config()).build(["c", "java"])
    c = [s for s in samples if s.language == "c"]
    j = [s for s in samples if s.language == "java"]
    return c, j


@pytest.fixture(scope="module")
def assets(corpus, tmp_path_factory):
    """On-disk checkpoint + two sharded indexes (A and B) to swap between."""
    c, j = corpus
    ds = build_pairs(c, j, "binary", "source", seed=0, max_pairs_per_task=1)
    cfg = scaled(cpu_config(), epochs=1, hidden_dim=16, embed_dim=16, num_layers=1)
    trainer = MatchTrainer(cfg)
    trainer.train(ds)
    root = tmp_path_factory.mktemp("serve_lifecycle")
    trainer.save(root / "model.npz")
    paths = {"checkpoint": str(root / "model.npz")}
    for tag in ("A", "B"):
        idx = EmbeddingIndex(trainer)
        idx.add([s.source_graph for s in j], metas=[{"id": s.identifier} for s in j])
        ShardedEmbeddingIndex.from_index(idx, root / f"index{tag}", 3)
        paths[tag] = str(root / f"index{tag}")
    return paths


def _config(assets, **overrides):
    kw = dict(
        checkpoint=assets["checkpoint"],
        index_path=assets["A"],
        port=0,
        workers=2,
        max_batch=2,
        max_delay_ms=2.0,
        default_k=2,
    )
    kw.update(overrides)
    return ServerConfig(**kw)


def _exchange(address, requests):
    """Pipeline ``requests`` on one connection; return their responses."""
    family = socket.AF_UNIX if isinstance(address, str) else socket.AF_INET
    with socket.socket(family, socket.SOCK_STREAM) as sock:
        sock.settimeout(TIMEOUT)
        sock.connect(address if isinstance(address, str) else tuple(address))
        sock.sendall(b"".join((json.dumps(r) + "\n").encode() for r in requests))
        buf = b""
        while buf.count(b"\n") < len(requests):
            chunk = sock.recv(65536)
            assert chunk, "server closed the connection"
            buf += chunk
    return [json.loads(line) for line in buf.splitlines()]


def _ask(address, request: dict) -> dict:
    return _exchange(address, [request])[0]


def _binary_request(sample, **extra):
    return dict(
        {"binary_b64": base64.b64encode(sample.binary_bytes).decode()}, **extra
    )


def _timed_close(closeable) -> float:
    start = time.monotonic()
    closeable.close()
    return time.monotonic() - start


class TestServerLifecycle:
    def test_idle_tcp_server_closes_fast_and_clean(self, assets):
        with assert_no_leaks():
            server = create_server(_config(assets))
            server.start()
            assert _timed_close(server) < CLOSE_BUDGET_S

    def test_idle_unix_server_closes_fast_and_removes_its_socket(
        self, assets, tmp_path
    ):
        path = str(tmp_path / "serve.sock")
        with assert_no_leaks():
            server = create_server(_config(assets, unix_socket=path))
            assert server.start() == path
            assert _timed_close(server) < CLOSE_BUDGET_S
        assert not os.path.exists(path)

    def test_close_after_crash_respawn(self, assets, corpus):
        c, _ = corpus
        with assert_no_leaks():
            server = create_server(_config(assets, enable_test_hooks=True))
            server.start()
            try:
                boom = _ask(server.address, _binary_request(c[0], id="boom", test_crash=True))
                assert "crashed" in boom["error"]
                ok = _ask(server.address, _binary_request(c[1], id="ok"))
                assert "hits" in ok
                assert server.pool.crashes == 1
            finally:
                assert _timed_close(server) < CLOSE_BUDGET_S

    @pytest.mark.parametrize("timeout_s", [None, 0.1])
    def test_queued_batch_outlives_a_crash_or_expires_without_a_kill(
        self, assets, corpus, timeout_s
    ):
        """Only the batch on the dead worker's pipe fails.  The batch queued
        behind it is served by the respawned worker — or, with a deadline
        shorter than the respawn's model load, expires in the queue and is
        answered with a retryable error without killing anything."""
        c, _ = corpus
        with assert_no_leaks():
            server = create_server(_config(
                assets, workers=1, max_batch=1, enable_test_hooks=True,
                batch_timeout_s=timeout_s,
            ))
            server.start()
            try:
                boom, queued = _exchange(server.address, [
                    _binary_request(c[0], id="boom", test_crash=True),
                    _binary_request(c[1], id="queued"),
                ])
                assert server.pool.crashes == 1  # the queued expiry killed nothing
                if timeout_s is None:
                    assert "crashed" in boom["error"]
                    assert "hits" in queued, queued
                else:
                    assert "deadline exceeded" in queued["error"], queued
                    assert queued["retryable"] is True
            finally:
                assert _timed_close(server) < CLOSE_BUDGET_S

    def test_close_after_hot_swap(self, assets, corpus):
        c, _ = corpus
        with assert_no_leaks():
            server = create_server(_config(assets))
            server.start()
            try:
                ack = _ask(server.address, {"control": "reload", "index": assets["B"]})
                assert ack["reloaded"] is True and ack["errors"] == []
                assert "hits" in _ask(server.address, _binary_request(c[0], id="q"))
            finally:
                assert _timed_close(server) < CLOSE_BUDGET_S


class TestFrontendLifecycle:
    def test_unix_socket_path_can_be_rebound_after_close(self, tmp_path):
        path = str(tmp_path / "front.sock")
        for _ in range(2):  # the second bind fails with EADDRINUSE on a leftover
            with assert_no_leaks():
                frontend = SocketFrontend(path, lambda conn, seq, line: None)
                assert frontend.start() == path
                assert _timed_close(frontend) < CLOSE_BUDGET_S
            assert not os.path.exists(path)


class TestWarmPoolLifecycle:
    def test_close_after_killed_worker_respawn(self):
        with assert_no_leaks():
            pool = WarmPool(1)
            try:
                assert pool.run(ping, [(1,)]) == [1]
                victim = pool._pool[0].proc
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(TIMEOUT)
                assert pool.run(ping, [(2,)]) == [2]
                assert pool.respawns == 1
            finally:
                assert _timed_close(pool) < CLOSE_BUDGET_S


# Out-of-range values per ServerConfig field; each must raise ValueError.
_NAN = st.just(math.nan)
_BAD_FIELDS = {
    "workers": st.integers(max_value=0),
    "max_batch": st.integers(max_value=0),
    "queue_depth": st.integers(max_value=0),
    "max_line_bytes": st.integers(max_value=0),
    "nprobe": st.integers(max_value=0),
    "max_delay_ms": st.floats(max_value=-1e-9) | _NAN,
    "drain_timeout_s": st.floats(max_value=-1e-9) | _NAN,
    "batch_timeout_s": st.floats(max_value=0.0) | _NAN,
    "mode": st.text(max_size=8).filter(lambda m: m not in ("exact", "ann")),
    "default_k": st.integers(max_value=0) | st.booleans() | st.floats(),
}


class TestServerConfigValidation:
    def test_defaults_are_valid(self):
        ServerConfig(checkpoint="model.npz", index_path="index")

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(sorted(_BAD_FIELDS)).flatmap(
            lambda name: st.tuples(st.just(name), _BAD_FIELDS[name])
        )
    )
    def test_out_of_range_value_is_rejected(self, case):
        name, value = case
        with pytest.raises(ValueError):
            ServerConfig(checkpoint="model.npz", index_path="index", **{name: value})
