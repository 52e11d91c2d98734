"""The benchmark's phases, in the order one run executes them.

``offline``         round 0 of the offline work (cold ``build_parallel``,
                    warm rebuilds, ingest), with the serial-build check,
                    research-model training and test F1.
``prepare``         set-up (counted in ``setup_s``): serving model and
                    index, every request stream, the scan queries.
``offline_round``   round 1.
``serve``           ``repro serve --socket`` under open-loop light and
                    heavy load, pipelined saturation, SIGTERM; the parity
                    replays run while it shuts down.
``offline_round``   round 2, while the idle server shuts down.
``determinism``     the serving model trained again: same loss curve.
``prepare_scan``    set-up: the padded 65,536-entry float32 and int8 indexes.
``reap``            the server's exit: ``shutdown_s``.
``scan``            closed-loop ``handle_batch`` batches: exact over the
                    float32 shards, then ANN over the int8 shards.

Rates are medians: the offline ones over three rounds spread over the
run (on a shared machine a slow stretch then moves one round, not all),
the scan ones over batches.  Every phase records its
end-to-end metrics and output checks on the :class:`Run`; trace mode then
replays the in-process work under the span tracer (see
:func:`replay_traced`).
"""

from __future__ import annotations

import base64
import gc
import itertools
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
from scipy.stats.mstats import hdquantiles

from repro.artifacts import ArtifactStore
from repro.config import cpu_config, scaled
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder, _compiles
from repro.data.pairs import build_pairs
from repro.eval.experiments import run_graphbinmatch
from repro.exec.pool import shutdown_pools
from repro.index import EmbeddingIndex, ShardedEmbeddingIndex, graph_fingerprint
from repro.pipeline import CompilationPipeline
from repro.serve import RetrievalServer

from perfbench import inputs
from perfbench.serve_load import PhaseResult, ServeProcess

LANGUAGES = ["c", "cpp", "java"]
CANDIDATE_LANGUAGES = ["java", "cpp"]
#: Epochs of both the research and the serving model.
EPOCHS = 2
#: Tasks the serial build compiles for the fingerprint check.
SERIAL_CHECK_TASKS = 4
#: The repeated offline work (a cold build, warm rebuilds, an ingest) runs
#: in three rounds spread over the run; each rate is the median over them.
REBUILDS_PER_ROUND = 2
INGEST_SHARD_ENTRIES = 32
INGEST_CELLS = 8

SERVE_K = 5
SERVE_BATCH = 8  # the server's --max-batch default
SERVE_SHARD_ENTRIES = 32
#: Shares of ``--seconds`` for the open-loop phases.
LIGHT_SHARE = HEAVY_SHARE = 0.35
#: The saturation phase sends a fixed number of requests, SATURATION_WINDOW
#: outstanding at a time; the first and last window's answers are the
#: pipeline filling and draining and are not counted.
SATURATION_REQUESTS = 160
SATURATION_WINDOW = 32
#: Light-phase requests replayed in-process for the parity check.
REPLAY_QUERIES = 32

SCAN_K = 10
SCAN_ENTRIES = 65536
SCAN_CELLS = 512
SCAN_SHARD_ENTRIES = 8192
SCAN_NPROBE = 32
SCAN_WARM = 2
SCAN_BATCH = 8
SCAN_QUERIES = SCAN_WARM + 8 * SCAN_BATCH
#: Share of ``--seconds`` for the exact phase (at least two batches).
EXACT_SHARE = 0.15
#: Last-bit float32 differences in a pair-head score (~1e-7 near 0.6).
SCORE_ROUNDING = 1e-6


def percentile(values: List[float], q: float) -> float:
    """Harrell–Davis estimate of the ``q``-th percentile (``q`` in [0, 100]).

    A weighted mean of the order statistics around the percentile: with a
    few hundred samples a p99 is otherwise one or two single samples.
    """
    return float(hdquantiles(np.asarray(values), prob=[q / 100.0])[0])


@dataclass
class Run:
    """State shared by the phases of one benchmark run."""

    root: Path
    work: Path
    seed: int
    seconds: float
    design: dict
    workload: dict
    nproc: int = field(default_factory=lambda: os.cpu_count() or 1)
    metrics: Dict[str, float] = field(default_factory=dict)
    checks: List[tuple] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: Dict[str, object] = field(default_factory=dict)
    #: Per-repetition rates of the repeated phases, reported as medians.
    rates: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    # Hand-offs between phases.
    samples: list = field(default_factory=list)
    dataset: object = None
    research: Optional[MatchTrainer] = None
    research_report: object = None
    candidates: list = field(default_factory=list)
    artifacts: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one output check."""
        self.checks.append((name, bool(ok), detail))

    def count(self, attempted: int, failed: int = 0) -> None:
        """Add operations to the run's attempted/failed totals."""
        self.attempted += attempted
        self.failed += failed


def _fingerprints(samples) -> List[tuple]:
    return [
        (s.identifier, graph_fingerprint(s.source_graph), graph_fingerprint(s.decompiled_graph))
        for s in samples
    ]


def research_config(run: Run):
    """The ``cpu_config`` research model, trained for a fixed epoch count."""
    return scaled(cpu_config(seed=run.seed), epochs=EPOCHS)


def serve_config(run: Run):
    """The serving-scale model ``bench_serve`` uses."""
    return scaled(cpu_config(seed=run.seed), epochs=EPOCHS,
                  hidden_dim=16, embed_dim=16, num_layers=1)


# ------------------------------------------------------------------ offline
def compile_corpus(run: Run, store_dir: Path):
    """Serial build into a fresh store: what the build workers do."""
    return CorpusBuilder(inputs.corpus_config(run.seed),
                         store=ArtifactStore(store_dir)).build(LANGUAGES)


def ingest(run: Run, trainer: MatchTrainer, index_dir: Path) -> int:
    """Compile the candidates, encode them in bulk and write int8 shards,
    then fit the coarse quantizer; returns the entries written."""
    candidates = CorpusBuilder(inputs.corpus_config(run.seed)).build(CANDIDATE_LANGUAGES)
    index = ShardedEmbeddingIndex.create(trainer, index_dir, codec="int8")
    for start in range(0, len(candidates), INGEST_SHARD_ENTRIES):
        chunk = candidates[start:start + INGEST_SHARD_ENTRIES]
        index.add_shard([s.source_graph for s in chunk], [{"id": s.identifier} for s in chunk])
    index.train_quantizer(INGEST_CELLS, seed=run.seed)
    return len(index)


def timed_call(rates: List[float], units, work):
    """``work()`` after a full garbage collection, so earlier garbage is not
    collected on its clock; appends its units per second to ``rates``.
    ``units`` is a number or a function of the result."""
    gc.collect()
    start = time.perf_counter()
    result = work()
    seconds = time.perf_counter() - start
    rates.append((units(result) if callable(units) else units) / seconds)
    return result


def build_round(run: Run, i: int):
    """A cold ``build_parallel`` on a fresh store and worker pool, then warm
    rebuilds from that store; returns the cold build."""
    cfg = inputs.corpus_config(run.seed)
    store = run.work / f"store{i}"
    built = timed_call(run.rates["build_programs_per_s"], len, lambda: CorpusBuilder(
        cfg, store=ArtifactStore(store)).build_parallel(LANGUAGES, workers=run.nproc))
    shutdown_pools()
    prints = run.artifacts.setdefault("build_prints", [])
    prints.append(_fingerprints(built))
    for _ in range(REBUILDS_PER_ROUND):
        prints.append(_fingerprints(timed_call(
            run.rates["rebuild_programs_per_s"], len,
            lambda: CorpusBuilder(cfg, store=ArtifactStore(store)).build(LANGUAGES))))
    return built


def ingest_round(run: Run, i: int) -> None:
    """One timed ingest of the candidates into a fresh int8 index."""
    written = timed_call(run.rates["ingest_entries_per_s"], lambda n: n,
                         lambda: ingest(run, run.research, run.work / f"ingest{i}"))
    run.artifacts.setdefault("ingested", []).append(written)


def offline(run: Run) -> None:
    """Round 0 of the offline work, with the serial-build check, research
    training and test F1 between its builds and its ingest."""
    built = build_round(run, 0)
    cfg = inputs.corpus_config(run.seed)
    serial = CorpusBuilder(replace(cfg, num_tasks=SERIAL_CHECK_TASKS)).build(LANGUAGES)
    run.check("offline.serial_build",
              _fingerprints(serial) == run.artifacts["build_prints"][0][: len(serial)],
              f"a serial build of {SERIAL_CHECK_TASKS} tasks agrees with build_parallel")
    run.samples = built
    run.candidates = [s for s in built if s.language in CANDIDATE_LANGUAGES]

    binaries = [s for s in built if s.language in ("c", "cpp")]
    sources = [s for s in built if s.language == "java"]
    run.dataset = build_pairs(binaries, sources, "binary", "source", cfg.seed,
                              max_pairs_per_task=cfg.max_pairs_per_task)
    config = research_config(run)
    trainer = MatchTrainer(config)
    gc.collect()
    report = trainer.train(run.dataset, early_stopping=True)
    # Training-only epoch time: the per-epoch validation pass scores a
    # split whose size varies with the seed.
    epochs_s = sum(report.epoch_seconds) - sum(report.epoch_valid_seconds)
    run.metrics["train_pairs_per_s"] = len(run.dataset.train) * config.epochs / epochs_s
    run.count(len(run.dataset.train) * config.epochs)
    f1 = run_graphbinmatch(run.dataset, config, trainer=trainer).metrics.f1
    run.notes["test_f1"] = f1
    floor = run.design["limits"]["test_f1_floor"]
    run.check("offline.test_f1", f1 >= floor, f"test F1 {f1:.3f} (floor {floor})")
    run.research, run.research_report = trainer, report
    ingest_round(run, 0)


def offline_round(run: Run, i: int) -> None:
    """Round ``i`` > 0 of the repeated offline work."""
    build_round(run, i)
    ingest_round(run, i)


def offline_results(run: Run) -> None:
    """The offline rates (medians over the rounds), op counts and checks."""
    for name in ("build_programs_per_s", "rebuild_programs_per_s", "ingest_entries_per_s"):
        run.metrics[name] = statistics.median(run.rates[name])
    cfg = inputs.corpus_config(run.seed)
    expected = sum(
        _compiles(cfg.seed, f"{t}/v{v}.{lang}", cfg.compile_failure_pct)
        for t in CorpusBuilder(cfg).tasks()
        for v in range(cfg.variants)
        for lang in LANGUAGES
    )
    prints = run.artifacts["build_prints"]
    run.count(len(prints) * expected, len(prints) * expected - sum(map(len, prints)))
    run.check("offline.build", len(prints[0]) == expected and all(p == prints[0] for p in prints),
              f"{len(prints[0])} of {expected} compilable programs built; "
              f"{len(run.rates['build_programs_per_s'])} build_parallel runs and "
              f"{len(run.rates['rebuild_programs_per_s'])} warm rebuilds agree")
    written = run.artifacts["ingested"]
    run.count(len(run.candidates) * len(written), len(run.candidates) * len(written) - sum(written))
    run.check("offline.ingest", all(w == len(run.candidates) for w in written),
              f"{len(written)} ingests wrote {written} of {len(run.candidates)} candidates")


def determinism(run: Run) -> None:
    """Train the serving model again: the loss curve must repeat bit for bit."""
    again = MatchTrainer(serve_config(run)).train(run.dataset, early_stopping=True)
    first = run.artifacts["serve_report"].epoch_losses
    run.check("offline.loss_deterministic", again.epoch_losses == first,
              f"two trainings, loss curves {first!r} and {again.epoch_losses!r}")


# ------------------------------------------------------------------ set-up
def fresh_requests(programs: inputs.HeldOutPrograms, prefix: str, count: int) -> List[dict]:
    """``count`` never-seen requests, every fourth a source fragment."""
    out = []
    for i in range(count):
        if i % 4 == 3:
            text, language = programs.source()
            out.append({"id": f"{prefix}{i}", "source": text, "language": language,
                        "k": SERVE_K})
        else:
            out.append(inputs.binary_request(f"{prefix}{i}", programs.binary(), SERVE_K))
    return out


def prepare(run: Run) -> None:
    """Serving model and index, every request stream and the scan queries."""
    workload = run.workload
    trainer = MatchTrainer(serve_config(run))
    run.artifacts["serve_report"] = trainer.train(run.dataset, early_stopping=True)
    checkpoint = run.work / "serve-model.npz"
    trainer.save(checkpoint)
    serving = MatchTrainer.load(checkpoint)
    mono = EmbeddingIndex(serving)
    mono.add([s.source_graph for s in run.candidates],
             metas=[{"id": s.identifier} for s in run.candidates])
    ShardedEmbeddingIndex.from_index(mono, run.work / "serve-index", SERVE_SHARD_ENTRIES)

    programs = inputs.HeldOutPrograms(run.seed)
    mix = inputs.QueryMix(programs, run.seed, source_share=workload["source_share"],
                          repeat_share=workload["repeat_share"], k=SERVE_K)
    streams = {"warmup": fresh_requests(programs, "w", 2 * SERVE_BATCH * run.nproc),
               "probes": fresh_requests(programs, "p", 16)}
    shares = {"light": LIGHT_SHARE, "heavy": HEAVY_SHARE}
    for stream, name in enumerate(("light", "heavy"), start=1):
        offsets = inputs.poisson_offsets(run.seed, stream, workload["rates_qps"][name],
                                         shares[name] * run.seconds)
        streams[name] = (offsets, [mix.request(f"{name[0]}{i}") for i in range(len(offsets))])
    streams["saturation"] = [mix.request(f"s{i}") for i in range(SATURATION_REQUESTS)]
    run.notes["mix"] = dict(mix.kinds)

    queries = [inputs.binary_request(f"q{i}", programs.binary(), SCAN_K)
               for i in range(SCAN_QUERIES)]
    run.artifacts.update(checkpoint=checkpoint, serving=serving, serve_index=mono,
                         streams=streams, scan_queries=queries)


def prepare_scan(run: Run) -> None:
    """The scan indexes: the serving model's real candidate rows padded
    with seeded clustered rows around them, as float32 shards and as int8
    shards with a trained coarse quantizer."""
    mono = run.artifacts["serve_index"]
    pad = SCAN_ENTRIES - len(mono)
    rows = np.concatenate([mono.embeddings,
                           inputs.clustered_rows(run.seed, pad, mono.embeddings, SCAN_CELLS)])
    keys = list(mono.keys) + [f"pad{i:06d}" for i in range(pad)]
    metas = mono.metas + [{"id": f"pad/{i}"} for i in range(pad)]
    scan_mono = EmbeddingIndex(run.artifacts["serving"])
    scan_mono.add_precomputed(keys, rows, metas)
    ShardedEmbeddingIndex.from_index(scan_mono, run.work / "scan-flat", SCAN_SHARD_ENTRIES)
    ShardedEmbeddingIndex.from_index(scan_mono, run.work / "scan-int8", SCAN_SHARD_ENTRIES,
                                     codec="int8", cells=SCAN_CELLS, quantizer_seed=run.seed)
    run.artifacts["scan_mono"] = scan_mono


# ------------------------------------------------------------------- serve
def replay_server(run: Run) -> RetrievalServer:
    """A fresh in-process twin of one serve worker (same checkpoint, index)."""
    trainer = MatchTrainer.load(run.artifacts["checkpoint"])
    index = ShardedEmbeddingIndex.open(run.work / "serve-index", trainer)
    return RetrievalServer(trainer, index, batch_size=SERVE_BATCH, default_k=SERVE_K)


def replay(server: RetrievalServer, requests: List[dict], batch: int) -> List[dict]:
    """``handle_batch`` over ``requests`` in consecutive batches of ``batch``."""
    out = []
    for start in range(0, len(requests), batch):
        out.extend(server.handle_batch(requests[start:start + batch]))
    return out


def _latency_metrics(run: Run, name: str, result: PhaseResult) -> None:
    run.metrics[f"{name}_p50_ms"] = 1000 * percentile(result.latencies_s, 50)
    run.metrics[f"{name}_p99_ms"] = 1000 * percentile(result.latencies_s, 99)
    run.notes[f"{name}_samples"] = len(result.latencies_s)


def serve(run: Run) -> None:
    """Launch, open-loop light + heavy, saturation, then SIGTERM.

    The server shuts down in the background while the parity replays
    and later phases run; :func:`reap` collects its exit, and
    :func:`kill_server` kills it when the run fails first.
    """
    streams = run.artifacts["streams"]
    socket_path = Path(os.path.relpath(run.work, run.root)) / "serve.sock"
    server = ServeProcess(run.root, run.artifacts["checkpoint"], run.work / "serve-index",
                          socket_path, run.nproc, run.work / "serve.log")
    run.artifacts["server"] = server
    client = server.connect(run.nproc)
    client.ask(streams["warmup"][0])
    run.metrics["ready_s"] = time.perf_counter() - server.launched
    # Full batches on every worker, both query kinds: lazy set-up in the
    # workers finishes before any timed request.
    results = {"warmup": client.windowed(streams["warmup"][1:], len(streams["warmup"]))}
    for name in ("light", "heavy"):
        offsets, requests = streams[name]
        results[name] = client.open_loop(requests, offsets)
        _latency_metrics(run, name, results[name])
    limit = run.design["limits"]["p99_limit_ms"]
    run.check("serve.p99_limit",
              max(run.metrics["light_p99_ms"], run.metrics["heavy_p99_ms"]) <= limit,
              f"light p99 {run.metrics['light_p99_ms']:.0f} ms, heavy p99 "
              f"{run.metrics['heavy_p99_ms']:.0f} ms (limit {limit} ms)")
    results["saturation"] = sat = client.windowed(streams["saturation"], SATURATION_WINDOW)
    steady = sat.answered_at[SATURATION_WINDOW:-SATURATION_WINDOW]
    run.metrics["peak_qps"] = (len(steady) - 1) / (steady[-1] - steady[0])
    probes = {r["id"]: client.ask(r) for r in streams["probes"]}
    stats = client.ask({"control": "stats", "id": "stats"})["stats"]
    client.close()
    server.terminate()
    for result in results.values():
        run.count(result.attempted, result.failed)
    run.count(len(probes), sum("error" in r for r in probes.values()))
    run.notes["late_ms_p99"] = 1000 * percentile(results["light"].late_s + results["heavy"].late_s, 99)
    run.artifacts.update(serve_results=results, serve_stats=stats)

    # Parity, part 1: fresh queries one at a time, so socket and replay
    # score each in a batch of one — the same batch composition.
    local = replay(replay_server(run), streams["probes"], 1)
    run.check("serve.socket_parity_exact", [probes[r["id"]] for r in streams["probes"]] == local,
              f"{len(local)} closed-loop answers bit-identical to handle_batch([request])")
    # Part 2: light-phase requests in-process, in batches of the server's
    # mean batch size.  The server's real batch composition is not
    # observable, and a pair-head score can change in its last float32 bit
    # with the number of queries sharing a scoring pass, so answers must
    # match up to that rounding.
    light = streams["light"][1][:REPLAY_QUERIES]
    batch = max(1, round(stats["responses"] / max(stats["batches"], 1)))
    local = replay(replay_server(run), light, batch)
    socket = [results["light"].responses.get(r["id"]) for r in light]
    run.notes["light_bit_identical"] = f"{sum(a == b for a, b in zip(socket, local))}/{len(light)}"
    run.check("serve.socket_parity", all(map(same_hits, socket, local)),
              f"{len(light)} light answers match the in-process replay within "
              f"{SCORE_ROUNDING} (bit-identical: {run.notes['light_bit_identical']})")
    run.artifacts.update(replay_requests=light, replay_batch=batch)


def reap(run: Run) -> None:
    """Wait for the SIGTERMed server: ``shutdown_s`` and a clean exit."""
    server = run.artifacts["server"]
    run.metrics["shutdown_s"], exited = server.exit_seconds()
    server.kill()
    run.notes["socket_file_left"] = (run.root / server.socket_path).exists()
    run.check("serve.clean_exit", exited and server.proc.returncode == 0,
              f"repro serve exit code {server.proc.returncode} after SIGTERM")


def kill_server(run: Run) -> None:
    """Make sure the server is gone, also when the run failed before SIGTERM."""
    server = run.artifacts.get("server")
    if server is not None:
        server.kill()


def same_hits(a: Optional[dict], b: dict) -> bool:
    """Equal responses up to float32 rounding of the scores.

    Positions may hold different entries only where scores tie within
    that rounding: a rank swap, or a near-tie at the k-th place.
    """
    if a is None or "hits" not in a or "hits" not in b:
        return a == b
    ha, hb = a["hits"], b["hits"]
    if len(ha) != len(hb) or {**a, "hits": None} != {**b, "hits": None}:
        return False
    if any(abs(x["score"] - y["score"]) > SCORE_ROUNDING for x, y in zip(ha, hb)):
        return False
    by_index = {y["index"]: y for y in hb}
    for x in ha:
        y = by_index.get(x["index"])
        if y is None:
            if abs(x["score"] - hb[-1]["score"]) > SCORE_ROUNDING:
                return False
        elif {**x, "rank": 0, "score": 0} != {**y, "rank": 0, "score": 0} or abs(
            x["score"] - y["score"]
        ) > SCORE_ROUNDING:
            return False
    return True


# -------------------------------------------------------------------- scan
def scan_server(run: Run, mode: str) -> RetrievalServer:
    """``handle_batch`` over the padded float32 (exact) or int8 (ANN) index."""
    serving = run.artifacts["serving"]
    if mode == "exact":
        index = ShardedEmbeddingIndex.open(run.work / "scan-flat", serving)
        return RetrievalServer(serving, index, batch_size=SCAN_BATCH, default_k=SCAN_K)
    index = ShardedEmbeddingIndex.open(run.work / "scan-int8", serving)
    return RetrievalServer(serving, index, batch_size=SCAN_BATCH, default_k=SCAN_K,
                           mode="ann", nprobe=SCAN_NPROBE)


def scan_batches(server: RetrievalServer, batches: List[List[dict]]) -> tuple:
    """Closed loop: each batch of 8 starts when the previous one answered.

    Returns the answers and each batch's queries per second.
    """
    answers, rates = [], []
    for batch in batches:
        start = time.perf_counter()
        answers.extend(server.handle_batch(batch))
        rates.append(len(batch) / (time.perf_counter() - start))
    return answers, rates


def scan(run: Run) -> None:
    """Exact then ANN over held-out binaries; parity and recall.

    A phase's rate is the median of its batches' rates, so a stall on a
    shared machine moves one batch, not the figure.
    """
    queries = run.artifacts["scan_queries"]
    warm, timed = queries[:SCAN_WARM], queries[SCAN_WARM:]
    batches = [timed[i:i + SCAN_BATCH] for i in range(0, len(timed), SCAN_BATCH)]
    server = scan_server(run, "exact")
    mono = RetrievalServer(run.artifacts["serving"], run.artifacts["scan_mono"],
                           batch_size=SCAN_BATCH, default_k=SCAN_K)
    # The untimed warm-up batch loads the shards and doubles as the parity probe.
    run.check("scan.exact_parity", server.handle_batch(warm) == mono.handle_batch(warm),
              "sharded float32 hits equal the monolithic EmbeddingIndex's")
    answers, exact_batches = [], []
    start = time.perf_counter()
    while len(exact_batches) < len(batches) and (
            len(exact_batches) < 2 or time.perf_counter() - start < EXACT_SHARE * run.seconds):
        batch = batches[len(exact_batches)]
        answers += timed_call(run.rates["exact_qps"], len(batch), lambda: server.handle_batch(batch))
        exact_batches.append(batch)
    run.metrics["exact_qps"] = statistics.median(run.rates["exact_qps"])

    server = scan_server(run, "ann")
    server.handle_batch(warm)
    for batch in batches:
        answers += timed_call(run.rates["ann_qps"], len(batch), lambda: server.handle_batch(batch))
    run.metrics["ann_qps"] = statistics.median(run.rates["ann_qps"])
    # The first ANN batch is judged against exact scores.
    recall = recall_at_10(run, batches[0], answers[-len(timed):])
    run.metrics["ann_recall_at_10"] = recall
    floor = run.design["limits"]["recall_floor"]
    run.check("scan.ann_recall", recall >= floor,
              f"recall@10 {recall:.3f} over {len(batches[0])} queries (floor {floor})")
    run.count(len(answers), sum("error" in r for r in answers))
    run.artifacts.update(exact_batches=exact_batches, ann_batches=batches)


def recall_at_10(run: Run, queries: List[dict], ann: List[dict]) -> float:
    """Tie-aware, as in ``bench_index_scale``: the truth is the exact path
    over the same int8 rows the ANN path rescores, so recall measures the
    cell pruning, not int8 rounding.  An ANN hit counts when its score
    reaches the 10th-best exact score minus float32 jitter."""
    pipeline = CompilationPipeline()
    graphs = [pipeline.binary_graph(base64.b64decode(q["binary_b64"]), name=q["id"])
              for q in queries]
    index = ShardedEmbeddingIndex.open(run.work / "scan-int8", run.artifacts["serving"])
    scores = index.scores_batch(graphs)
    kth = -np.partition(-scores, SCAN_K - 1, axis=1)[:, SCAN_K - 1]
    correct = sum(
        int(scores[qi, hit["index"]] >= kth[qi] - SCORE_ROUNDING)
        for qi, answer in enumerate(ann[: len(queries)])
        for hit in answer["hits"]
    )
    return correct / (len(queries) * SCAN_K)


# ------------------------------------------------------------------- trace
def _phase_plans(run: Run) -> Dict[str, tuple]:
    """Per traced phase: ``(make, work, units)``.

    ``make()`` builds fresh state (untimed: a fresh server has a cold query
    cache, a fresh store is empty); ``work(state)`` is the timed part.
    Work that ran in child processes during the untraced run is replayed
    here in-process: the serve workers as ``handle_batch`` over the light
    phase with the server's mean batch size, the build workers as a
    serial compile.
    """
    light, batch = run.artifacts["replay_requests"], run.artifacts["replay_batch"]
    exact_batches, ann_batches = run.artifacts["exact_batches"], run.artifacts["ann_batches"]
    fresh = itertools.count()
    programs = len(run.samples)
    pairs = len(run.dataset.train) * research_config(run).epochs
    cfg = inputs.corpus_config(run.seed)

    def warm_scan(mode):
        server = scan_server(run, mode)
        server.handle_batch(run.artifacts["scan_queries"][:SCAN_WARM])
        return server

    def ann_work(server):
        peak = 0
        for b in ann_batches:
            server.handle_batch(b)
            peak = max(peak, server.index.last_peak_dequant_bytes)
        run.notes["peak_dequant_bytes"] = peak

    return {
        "replay": (lambda: replay_server(run), lambda s: replay(s, light, batch), len(light)),
        "build": (lambda: run.work / f"build-{next(fresh)}", lambda d: compile_corpus(run, d),
                  programs),
        "rebuild": (lambda: CorpusBuilder(cfg, store=ArtifactStore(run.work / "store0")),
                    lambda b: b.build(LANGUAGES), programs),
        "train": (
            lambda: MatchTrainer(research_config(run)),
            lambda t: run.notes.setdefault("traced_losses", []).append(
                t.train(run.dataset, early_stopping=True).epoch_losses),
            pairs,
        ),
        "ingest": (lambda: run.work / f"ingest-{next(fresh)}",
                   lambda d: ingest(run, run.research, d), len(run.candidates)),
        "exact": (lambda: warm_scan("exact"), lambda s: scan_batches(s, exact_batches),
                  sum(map(len, exact_batches))),
        "ann": (lambda: warm_scan("ann"), ann_work, sum(map(len, ann_batches))),
    }


def replay_traced(run: Run, tracer) -> Dict[str, tuple]:
    """Each in-process phase untraced, then traced, on fresh state.

    Returns ``{phase: (untraced s, traced s, units, counter deltas)}``;
    the tracer holds one root span per phase.
    """
    from perfbench.tracing import instrument

    out = {}
    for phase, (make, work, units) in _phase_plans(run).items():
        state = make()
        start = time.perf_counter()
        work(state)
        untraced_s = time.perf_counter() - start
        state = make()
        before = dict(tracer.counts)
        instrument(tracer)
        try:
            with tracer.span(phase, request_id=phase) as span:
                work(state)
        finally:
            tracer.restore()
        deltas = {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()}
        out[phase] = (untraced_s, span[2] - span[1], units, deltas)
    shutdown_pools()
    losses = run.notes.pop("traced_losses")
    run.check("offline.loss_deterministic_traced",
              all(curve == run.research_report.epoch_losses for curve in losses),
              "untraced and traced retraining give bit-identical loss curves")
    return out
