"""GraphBinMatch benchmark: one seeded run of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 12 --trace 0

A run walks the system's whole life on inputs generated from ``--seed``:
it builds and trains (``offline``), sets up a serving model and indexes,
serves socket traffic (``serve``) and scans a 65,536-entry index
(``scan``); see :mod:`perfbench.phases`.  Workloads differ in the query
traffic (``perfbench/design.json``).  ``--seconds`` is split between the
time-boxed phases.

Every run measures and prints (``end-to-end`` lines) all sixteen
end-to-end metrics.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  ``per_layer`` also lists the
end-to-end metrics too noisy on a shared machine to bound (see
``unbounded_end_to_end`` in ``design.json``).  Trace mode runs
everything untraced first, then replays the in-process work under
:mod:`perfbench.tracing` and writes its spans next to the results.  Each
result is also appended, with its provenance, to ``perfbench/results/``,
in a file keyed by workload, ``--seconds`` and trace mode, so a shorter
run never lands in the history of a longer one.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------- provenance
def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> Optional[str]:
    """HEAD of the repository rooted here, if this checkout is one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def code_sha() -> str:
    """Content hash of the program's sources (a checkout may have no git)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "code_sha": code_sha(),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def append_record(args, record: dict) -> Path:
    """Append-only history, one file per (workload, seconds, trace)."""
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-s{args.seconds:g}-trace{args.trace}.jsonl"
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def machine_loop_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes here (median of three).

    The program is not involved: this records how fast the machine ran at
    that point of the run, to read results from a shared machine by.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


# ---------------------------------------------------------------- per layer
def layer_metrics(run, tracer, traced: Dict[str, tuple], pool_start_s: float) -> dict:
    """Per-layer self times per unit of each phase, plus the layer ratios."""
    from perfbench import phases

    m: Dict[str, float] = {}
    self_times = tracer.self_times()
    untraced_total = traced_total = 0.0
    for phase, (untraced_s, traced_s, units, _) in traced.items():
        for layer, seconds in self_times[phase].items():
            label = "other" if layer == phase else layer
            m[f"{phase}.{label}_ms"] = 1000 * seconds / units
        untraced_total += untraced_s
        traced_total += traced_s
    m["trace.overhead_pct"] = 100 * (traced_total - untraced_total) / untraced_total

    _, _, queries, counts = traced["replay"]
    m["graphs.nodes_per_graph"] = counts["graphs.nodes"] / counts["graphs.built"]
    m["tokenize.unique_row_ratio"] = counts["tokenize.unique_rows"] / counts["tokenize.rows"]
    m["core.graphs_per_encode"] = counts["core.graphs_encoded"] / counts["core.encode_calls"]
    m["core.encoded_per_query"] = counts["core.graphs_encoded"] / queries

    _, _, queries, counts = traced["ann"]
    probed = counts["index.scored_pairs"] - queries * phases.SCAN_CELLS
    m["index.rescored_ratio"] = probed / (queries * phases.SCAN_ENTRIES)
    m["index.peak_dequant_bytes"] = run.notes["peak_dequant_bytes"]
    m["index.quantizer_fit_s"] = sum(tracer.durations("index.quantizer_fit", "ingest"))

    m["serve.service_ms"] = 1000 * statistics.median(
        tracer.durations("serve.handle_batch", "replay"))
    m["serve.overhead_ms"] = run.metrics["light_p50_ms"] - m["serve.service_ms"]
    stats = run.artifacts["serve_stats"]
    m["serve.batch_size"] = stats["responses"] / stats["batches"]
    m["serve.deadline_flush_ratio"] = stats["flushed_on_deadline"] / stats["batches"]
    m["serve.shed"] = stats["shed"]
    m["serve.crashed_batches"] = stats["crashed_batches"]
    m["exec.pool_start_s"] = pool_start_s
    m["gen.late_ms"] = run.notes["late_ms_p99"]
    return m


# --------------------------------------------------------------------- main
def offline_round(run, rss, i: int) -> None:
    """A repeated offline round, not RSS-sampled: its build workers fork
    from the benchmark process after it holds the serving state, and
    summed VmRSS would count those shared pages once per worker.  Round
    0, at the start of the run, is sampled."""
    from perfbench import phases

    with rss.paused():
        timed(run, phases.offline_round, i)


def timed(run, phase, *args) -> float:
    """Run one phase; its wall time goes into the run's notes."""
    rss = run.artifacts.get("rss")
    if rss is not None:
        rss.phase = phase.__name__
    start = time.perf_counter()
    phase(run, *args)
    elapsed = time.perf_counter() - start
    key = f"{phase.__name__}_s"
    run.notes[key] = round(run.notes.get(key, 0.0) + elapsed, 3)
    return elapsed


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    args = parse_args(argv, design["workloads"])
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.exec.pool import WarmPool, shutdown_pools

    from perfbench import phases
    from perfbench.serve_load import TreeRssSampler, descendants
    from perfbench.tracing import Tracer

    # SIGTERM unwinds like an exception, so the finally blocks below stop
    # the server and the build pool and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Everything the run (and the program) writes stays in the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    shm_before = set(os.listdir("/dev/shm"))
    run = phases.Run(root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
                     design=design, workload=design["workloads"][args.workload])
    pool_tracer = None
    try:
        with TreeRssSampler() as rss:
            run.artifacts["rss"] = rss
            setup_s = time.perf_counter() - STARTED
            if args.trace:
                pool_tracer = Tracer()
                pool_tracer.patch(WarmPool, "_spawn_worker", "exec.pool_start")
            loop_ms = [machine_loop_ms()]
            try:
                timed(run, phases.offline)
                setup_s += timed(run, phases.prepare)
                offline_round(run, rss, 1)
                timed(run, phases.serve)
                # The idle server takes about ten seconds to exit after
                # SIGTERM; round 2, the determinism check and the scan
                # set-up run meanwhile.
                offline_round(run, rss, 2)
                timed(run, phases.determinism)
                setup_s += timed(run, phases.prepare_scan)
                loop_ms.append(machine_loop_ms())
                timed(run, phases.reap)
                timed(run, phases.scan)
                loop_ms.append(machine_loop_ms())
            finally:
                phases.kill_server(run)
                if pool_tracer is not None:
                    pool_tracer.restore()
        phases.offline_results(run)
        run.notes["machine_loop_ms"] = [round(ms, 2) for ms in loop_ms]
        run.metrics["setup_s"] = setup_s
        run.metrics["peak_rss_mb"] = rss.peak_bytes / 2**20
        run.notes["peak_rss_phase"] = rss.peak_phase
        if args.trace:
            tracer = Tracer()
            traced = phases.replay_traced(run, tracer)
            pool_start_s = sum(s[2] - s[1] for s in pool_tracer.spans) / len(
                run.rates["build_programs_per_s"])
            layers = layer_metrics(run, tracer, traced, pool_start_s)
    finally:
        shutdown_pools()
        shutil.rmtree(work, ignore_errors=True)
    run.check("hygiene.no_children", not descendants(os.getpid()),
              "no child process outlives the run")
    leaked = sorted(set(os.listdir("/dev/shm")) - shm_before)
    run.check("hygiene.no_shm", not leaked, f"new /dev/shm entries: {leaked}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    # End-to-end figures too noisy to bound are per-layer metrics of the traced run.
    values = {**run.metrics, **layers} if args.trace else run.metrics
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if args.trace:
        # A layer a workload never enters (no source queries, say) spent 0 ms there.
        missing = [name for name in missing if not name.endswith("_ms")]
        values = {**{m["name"]: 0.0 for m in wanted}, **values}
    if missing:
        print(f"benchmark bug: no value for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    correct = all(ok for _, ok, _ in run.checks)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}

    prov = provenance(args)
    run.notes["run_s"] = round(time.perf_counter() - STARTED, 3)
    for name, ok, detail in run.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, value in sorted(run.notes.items()):
        print(f"note {name} = {value}")
    if args.trace:
        for name, (untraced_s, traced_s, units, _) in traced.items():
            print(f"trace {name}: {units} units, untraced {untraced_s:.3f} s, traced "
                  f"{traced_s:.3f} s ({100 * (traced_s - untraced_s) / untraced_s:+.1f}%)")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in run.metrics.items():
        print(f"end-to-end {name:<32} {value:>14.4f} {units[name]}")
    for name, entry in metrics.items():
        print(f"metric {name:<32} {entry['value']:>14.4f} {entry['unit']}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    path = append_record(args, {"provenance": prov, "result": result, "notes": {
        k: v for k, v in run.notes.items() if isinstance(v, (int, float, str, dict))},
        "checks": run.checks})
    print(f"recorded in {path.relative_to(ROOT)}")
    if args.trace:
        spans = path.with_name(f"{args.workload}-seed{args.seed}-{os.getpid()}.spans.jsonl")
        tracer.dump(spans)
        print(f"spans in {spans.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
