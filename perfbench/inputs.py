"""Seeded benchmark inputs: corpus coordinates, query streams, scan rows.

Everything here is a function of the workload seed.  The program under test
only ever sees what these helpers generate: the corpus config it builds,
request lines on its socket, and embedding rows for the large index.
"""

from __future__ import annotations

import base64
import hashlib
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.binary.codegen import compile_module
from repro.config import DataConfig
from repro.ir.lowering import lower_program
from repro.ir.passes import optimize
from repro.lang.generator import SolutionGenerator
from repro.lang.tasks import TASK_REGISTRY

#: The offline phase builds variants 0..CORPUS_VARIANTS-1 of every task;
#: queries are drawn from later variants, so no query is a corpus program.
CORPUS_VARIANTS = 1
QUERY_LANGUAGES = ("c", "cpp")


def corpus_config(seed: int) -> DataConfig:
    """The corpus the offline phase builds: all tasks, C, C++ and Java."""
    return DataConfig(
        num_tasks=len(TASK_REGISTRY), variants=CORPUS_VARIANTS, seed=seed,
        max_pairs_per_task=1,
    )


class HeldOutPrograms:
    """An endless stream of distinct held-out C/C++ programs.

    Coordinates run variant by variant from ``CORPUS_VARIANTS`` upward, in a
    seeded order within each variant.  Binaries are compiled at the corpus
    default (``Oz``, clang) straight to bytes; duplicate bytes or texts are
    skipped, so every item the stream yields is new to the server.
    """

    def __init__(self, seed: int):  # noqa: D107
        self.generator = SolutionGenerator(seed=seed, independent=True)
        self._coords = self._coordinates(np.random.default_rng([seed, 11]))
        self._seen: set = set()

    @staticmethod
    def _coordinates(rng) -> Iterator[Tuple[str, int, str]]:
        grid = [(task, lang) for task in sorted(TASK_REGISTRY) for lang in QUERY_LANGUAGES]
        variant = CORPUS_VARIANTS
        while True:
            for i in rng.permutation(len(grid)):
                task, lang = grid[i]
                yield task, variant, lang
            variant += 1

    def _fresh(self, render) -> bytes:
        while True:
            payload = render(self.generator.generate(*next(self._coords)))
            digest = hashlib.sha256(payload).digest()
            if digest not in self._seen:
                self._seen.add(digest)
                return payload

    def binary(self) -> bytes:
        """A binary this stream has not yielded before."""
        def compiled(source) -> bytes:
            module = lower_program(source.program, name=f"{source.identifier}.bin")
            optimize(module, "Oz")
            return compile_module(module, style="clang").encode()

        return self._fresh(compiled)

    def source(self) -> Tuple[str, str]:
        """A ``(source text, language)`` this stream has not yielded before."""
        languages = {}

        def text(source) -> bytes:
            languages[source.text] = source.language
            return source.text.encode()

        rendered = self._fresh(text).decode()
        return rendered, languages[rendered]


def binary_request(rid: str, raw: bytes, k: int) -> dict:
    """One binary lookup request line (as a dict)."""
    return {"id": rid, "binary_b64": base64.b64encode(raw).decode(), "k": k}


class QueryMix:
    """Request generator: fresh binaries, fresh source fragments, repeats.

    Each request is, independently, a repeat of one of the ``recent`` last
    requests with probability ``repeat_share`` (a new id, the same payload,
    so the server's query cache can hit), else a fresh source-fragment
    query with probability ``source_share``, else a fresh binary.
    """

    def __init__(self, programs: HeldOutPrograms, seed: int, *, source_share: float,
                 repeat_share: float, k: int, recent: int = 16):  # noqa: D107
        self.programs = programs
        self.rng = np.random.default_rng([seed, 12])
        self.source_share = source_share
        self.repeat_share = repeat_share
        self.k = k
        self.recent: List[dict] = []
        self.recent_size = recent
        self.kinds: Dict[str, int] = {"binary": 0, "source": 0, "repeat": 0}

    def request(self, rid: str) -> dict:
        """The next request, with id ``rid``."""
        if self.recent and self.rng.random() < self.repeat_share:
            payload = dict(self.recent[self.rng.integers(len(self.recent))], id=rid)
            self.kinds["repeat"] += 1
            return payload
        if self.rng.random() < self.source_share:
            text, language = self.programs.source()
            req = {"id": rid, "source": text, "language": language, "k": self.k}
            self.kinds["source"] += 1
        else:
            req = binary_request(rid, self.programs.binary(), self.k)
            self.kinds["binary"] += 1
        self.recent.append(req)
        del self.recent[: -self.recent_size]
        return req


def poisson_offsets(seed: int, stream: int, rate: float, seconds: float) -> List[float]:
    """Seeded Poisson arrival times (seconds from phase start) in ``[0, seconds)``."""
    rng = np.random.default_rng([seed, stream])
    offsets, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= seconds:
            return offsets
        offsets.append(t)


def clustered_rows(seed: int, count: int, like: np.ndarray, cells: int) -> np.ndarray:
    """``bench_index_scale``'s synthetic corpus recipe, centred on real rows.

    Tight blobs around ``cells`` centres give the coarse quantizer a cell
    structure to recover.  The centres are drawn around rows of ``like``
    (spread by its per-dimension deviation), so padding looks like more of
    the real corpus; unit-normal centres would leave the real rows as
    outliers in cells whose centroids no real query ranks high.
    """
    rng = np.random.default_rng([seed, 13])
    dim = like.shape[1]
    centers = like[rng.integers(len(like), size=cells)] + like.std(axis=0) * rng.standard_normal(
        (cells, dim))
    assign = np.arange(count) % cells
    return (centers[assign] + 0.05 * rng.standard_normal((count, dim))).astype(np.float32)
