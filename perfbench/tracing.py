"""In-memory span tracer that wraps the program's public entry points.

The program is not instrumented: :class:`Tracer` replaces each entry point
*where it is looked up* (``repro.pipeline.staged.build_graph``, the
``ShardedEmbeddingIndex.topk_batch`` class attribute, ...) with a wrapper
that records one span per call, and puts the originals back on exit.

A span is ``[name, start, end, parent, request id]``.  Spans are kept in a
list and written out once, after the run.  A layer's self time is the wall
time during which its span is the innermost open one; when several
innermost spans are open at once (the index fans shard work out over
threads) the interval is split between them, so the self times of one
phase always add up to the phase's wall time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    """Span recorder plus the counters the per-layer ratios need."""

    def __init__(self):  # noqa: D107
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.request_id: Optional[str] = None
        self._local = threading.local()
        # The index scores shards on a thread pool: spans and counters are
        # updated from several threads at once.
        self._lock = threading.Lock()
        self._main_stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        # Work a fan-out thread runs belongs to the span that dispatched it.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        span = [name, time.perf_counter(), 0.0, parent, self.request_id]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack().pop()
        span[2] = time.perf_counter()

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None):
        """Record one span around a block (phase roots, replayed requests)."""
        if request_id is not None:
            self.request_id = request_id
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        name,
        fn: Callable,
        opaque: bool = False,
        on_result: Optional[Callable] = None,
        request_of: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``name`` is a string or ``name(args, kwargs)``.  An ``opaque`` span
        records no spans inside it, so its whole duration is its self time.
        ``on_result(counts, args, kwargs, result)`` updates counters, and
        ``request_of(args, kwargs)`` names the request the call serves (its
        spans and those below it carry that id).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(tracer._local, "opaque", False):
                return fn(*args, **kwargs)
            outer = tracer.request_id
            if request_of is not None:
                tracer.request_id = request_of(args, kwargs)
            span = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            if opaque:
                tracer._local.opaque = True
            try:
                result = fn(*args, **kwargs)
            finally:
                if opaque:
                    tracer._local.opaque = False
                tracer._close(span)
                tracer.request_id = outer
            if on_result is not None:
                with tracer._lock:
                    on_result(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------------- patching
    def patch(self, owner, attr: str, name, **kwargs) -> None:
        """Replace ``owner.attr`` (a module global, class attribute or dict
        entry) with its traced wrapper until :meth:`restore`."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, **kwargs)
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, **kwargs))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched entry point back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """``{root span name: {layer: self seconds}}`` over finished spans."""
        spans = self.spans
        events = []
        for i, span in enumerate(spans):
            events.append((span[1], 1, i))
            events.append((span[2], 0, i))
        events.sort()
        root = self._roots()
        own = [0.0] * len(spans)
        open_children = [0] * len(spans)
        is_open = [False] * len(spans)
        leaves: set = set()
        prev = None
        for t, kind, i in events:
            if prev is not None and leaves and t > prev:
                share = (t - prev) / len(leaves)
                for j in leaves:
                    own[j] += share
            prev = t
            parent = spans[i][3]
            if kind == 1:
                is_open[i] = True
                leaves.add(i)
                if parent >= 0:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                is_open[i] = False
                leaves.discard(i)
                if parent >= 0:
                    open_children[parent] -= 1
                    if open_children[parent] == 0 and is_open[parent]:
                        leaves.add(parent)
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(spans):
            out[spans[root[i]][0]][span[0]] += own[i]
        return {phase: dict(layers) for phase, layers in out.items()}

    def _roots(self) -> List[int]:
        root = [0] * len(self.spans)
        for i, span in enumerate(self.spans):
            root[i] = i if span[3] < 0 else root[span[3]]
        return root

    def durations(self, name: str, phase: str) -> List[float]:
        """Wall seconds of every ``name`` span under the ``phase`` root."""
        roots = self._roots()
        return [
            s[2] - s[1]
            for s, r in zip(self.spans, roots)
            if s[0] == name and self.spans[r][0] == phase
        ]

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "request": rid}
                    )
                    + "\n"
                )


# ----------------------------------------------------------------- the layers
def _count_graph(counts, args, kwargs, graph) -> None:
    counts["graphs.built"] += 1
    counts["graphs.nodes"] += graph.num_nodes


def _count_unique_rows(counts, args, kwargs, tokens) -> None:
    counts["tokenize.unique_rows"] += tokens.unique_ids.shape[0]
    counts["tokenize.rows"] += tokens.inverse.shape[0]


def _count_encode(counts, args, kwargs, result) -> None:
    counts["core.encode_calls"] += 1
    counts["core.graphs_encoded"] += result.shape[0]


def _count_scored(counts, args, kwargs, result) -> None:
    counts["index.scored_pairs"] += result.size


def _topk_span(args, kwargs) -> str:
    return "index.ann_probe" if kwargs.get("mode") == "ann" else "index.topk"


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on.

    Each name is patched where the caller looks it up: module globals in
    the module that imported them, class attributes on the defining class.
    """
    import repro.core.trainer as trainer_mod
    import repro.index.embedding_index as flat_mod
    import repro.index.sharded as sharded_mod
    import repro.lang.generator as generator
    import repro.pipeline.staged as staged
    from repro.artifacts.store import ArtifactStore
    from repro.core.model import GraphBinMatch
    from repro.nn.optim import Adam, Optimizer
    from repro.nn.tensor import Tensor
    from repro.serve.core import RetrievalServer

    # Corpus generation parses through the generator's own table; compiles
    # of request text parse through the pipeline's.
    for table in (generator._PARSERS, staged.FRONTENDS):
        for language in list(table):
            tracer.patch(table, language, "lang.parse")
    tracer.patch(staged, "lower_program", "ir.lower")
    tracer.patch(staged, "optimize", "ir.optimize")
    tracer.patch(staged, "compile_module", "binary.codegen")
    tracer.patch(staged, "decompile_bytes", "binary.decompile")
    tracer.patch(staged, "build_graph", "graphs.build", on_result=_count_graph)
    tracer.patch(trainer_mod, "encode_nodes", "tokenize.encode")
    tracer.patch(trainer_mod, "encode_nodes_unique", "tokenize.encode",
                 on_result=_count_unique_rows)
    tracer.patch(trainer_mod.MatchTrainer, "encode_graphs", "core.encode",
                 on_result=_count_encode)
    tracer.patch(trainer_mod.MatchTrainer, "_encode_batch", "core.batch_prep")
    tracer.patch(trainer_mod.MatchTrainer, "_predict_encoded", "core.valid", opaque=True)
    for module in (flat_mod, sharded_mod):
        tracer.patch(module, "score_pairs_tiled", "index.score", on_result=_count_scored)
        tracer.patch(module, "ranked_hits", "index.topk")
    tracer.patch(sharded_mod.ShardedEmbeddingIndex, "topk_batch", _topk_span)
    tracer.patch(sharded_mod.ShardedEmbeddingIndex, "add_shard", "index.add_shard")
    tracer.patch(sharded_mod.ShardedEmbeddingIndex, "train_quantizer", "index.quantizer_fit")
    tracer.patch(ArtifactStore, "put", "artifacts.put")
    tracer.patch(ArtifactStore, "get", "artifacts.get")
    tracer.patch(GraphBinMatch, "forward", "nn.forward")
    tracer.patch(Tensor, "backward", "nn.backward")
    tracer.patch(Adam, "step", "nn.optim")
    tracer.patch(Optimizer, "clip_grad_norm", "nn.optim")
    tracer.patch(RetrievalServer, "handle_batch", "serve.handle_batch",
                 request_of=lambda args, kwargs: ",".join(str(r.get("id")) for r in args[1]))
