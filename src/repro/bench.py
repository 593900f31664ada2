"""Benchmark harness + the repo's own longitudinal performance record.

The paper's method is longitudinal measurement with drift detection
against known anchors; this module applies the same discipline to the
reproduction itself.  ``python -m repro bench``:

1. runs a configurable subset of benchmarks — substrate micro-benches
   (hello encode/decode, negotiation, fingerprint extraction), engine
   runs (serial, parallel, warm cache load), observability overhead,
   the query-path micro-bench (cold record scan vs shape tier vs
   vector tier vs index over packed months, plus the full-window
   ``query.vector`` acceptance bench), and *scientific anchors*
   (figure values on a fixed window, which are fully deterministic and
   therefore drift-detectable to 1e-6);
2. appends one dated record to ``BENCH_<YYYYMMDD>.json`` — the
   trajectory file that accumulates the repo's own measurement history;
3. diffs the run against the committed ``benchmarks/baseline.json``
   with per-metric-class tolerances and reports regressions (the CI
   ``perf-gate`` job fails on them).

Metric classes and their gate rules (tolerances live in the baseline
file and can be overridden there):

* ``wall_seconds`` — regression when current > baseline × (1 + tol).
  Wall clocks vary across machines, so the default tolerance is wide;
  the gate catches cliffs, not jitter.
* ``records_per_second`` — regression when current < baseline × (1 − tol).
* ``anchors`` — scientific outputs; deterministic, so the tolerance is
  relative 1e-6: *any* drift is a regression (this is the longitudinal
  anchor check, the repo-level analogue of the paper's §3 method).
* ``metrics`` — other ratios (e.g. observability overhead); regression
  when current > baseline × (1 + tol).

No pytest here: benches are plain timed loops so the harness runs in a
bare interpreter (CI installs nothing beyond the repo itself).
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import platform
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs import profile

#: Version of the trajectory / baseline record layout.
TRAJECTORY_SCHEMA = 1

#: The fixed measurement window every engine/anchor bench uses — small
#: enough for CI, late enough that TLS 1.2 dominates (so the anchors
#: have comfortable dynamic range).
WINDOW_START = _dt.date(2016, 4, 1)
WINDOW_END = _dt.date(2016, 6, 1)

_REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_BASELINE = _REPO_ROOT / "benchmarks" / "baseline.json"

#: Gate tolerances by metric class (baseline file may override).
DEFAULT_TOLERANCES = {
    "wall_seconds": 1.5,        # current may be up to 2.5x baseline wall
    "records_per_second": 0.6,  # current may drop to 40% of baseline
    "anchors": 1e-6,            # relative: any real drift fails
    "metrics": 0.5,             # ratios may grow up to 1.5x baseline
}


@contextmanager
def _env(name: str, value: str | None):
    """Temporarily set/unset one environment variable."""
    old = os.environ.get(name)
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


class BenchContext:
    """Shared state across one harness invocation.

    The serial window store is built once and reused by every bench
    that needs it, so adding an anchor bench costs nothing extra.
    """

    def __init__(self, scale: float = 1.0):
        self.scale = max(scale, 1e-3)
        self._store = None
        self._store_wall: float | None = None
        self._store_counters: dict | None = None

    def iterations(self, base: int) -> int:
        return max(1, int(base * self.scale))

    def window_store(self):
        if self._store is None:
            from repro.clients.population import default_population
            from repro.engine import runner
            from repro.engine.perf import PERF
            from repro.servers import ServerPopulation

            started = time.perf_counter()
            self._store = runner.run_expectation(
                default_population(), ServerPopulation(),
                WINDOW_START, WINDOW_END, workers=0,
            )
            self._store_wall = time.perf_counter() - started
            self._store_counters = PERF.snapshot()
        return self._store, self._store_wall, self._store_counters


# ---- individual benches -----------------------------------------------------


def _timed_loop(fn, iterations: int) -> dict:
    """Run ``fn`` in a loop; report per-op wall and throughput."""
    started = time.perf_counter()
    for _ in range(iterations):
        fn()
    wall = time.perf_counter() - started
    per_op = wall / iterations
    return {
        "wall_seconds": per_op,
        "records_per_second": (1.0 / per_op) if per_op > 0 else None,
        "counters": {"iterations": iterations},
        "anchors": None,
    }


def _substrate_fixture():
    import random

    from repro.clients import chrome
    from repro.tls.wire import encode_client_hello

    hello = chrome.family().release("49").build_hello(rng=random.Random(1))
    return hello, encode_client_hello(hello)


def bench_encode_hello(ctx: BenchContext) -> dict:
    from repro.tls.wire import encode_client_hello

    hello, _wire = _substrate_fixture()
    return _timed_loop(lambda: encode_client_hello(hello), ctx.iterations(2000))


def bench_decode_hello(ctx: BenchContext) -> dict:
    from repro.tls.wire import decode_client_hello

    _hello, wire = _substrate_fixture()
    return _timed_loop(lambda: decode_client_hello(wire), ctx.iterations(2000))


def bench_negotiate(ctx: BenchContext) -> dict:
    from repro.servers.archetypes import TLS12_ECDHE_GCM

    hello, _wire = _substrate_fixture()
    return _timed_loop(lambda: TLS12_ECDHE_GCM.respond(hello), ctx.iterations(2000))


def bench_fingerprint(ctx: BenchContext) -> dict:
    from repro.core.fingerprint import Fingerprint

    hello, _wire = _substrate_fixture()
    return _timed_loop(
        lambda: Fingerprint.from_client_hello(hello), ctx.iterations(2000)
    )


def bench_engine_serial(ctx: BenchContext) -> dict:
    store, wall, counters = ctx.window_store()
    records = len(store)
    return {
        "wall_seconds": wall,
        "records_per_second": records / wall if wall and wall > 0 else None,
        "counters": {
            k: v for k, v in (counters or {}).items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        },
        "anchors": {"records": float(records)},
    }


def bench_engine_parallel(ctx: BenchContext) -> dict:
    from repro.clients.population import default_population
    from repro.engine import runner
    from repro.servers import ServerPopulation

    if not runner.fork_available():
        return {"skipped": "no fork start method on this platform"}
    started = time.perf_counter()
    store = runner.run_expectation(
        default_population(), ServerPopulation(),
        WINDOW_START, WINDOW_END, workers=2,
    )
    wall = time.perf_counter() - started
    return {
        "wall_seconds": wall,
        "records_per_second": len(store) / wall if wall > 0 else None,
        "counters": {"workers": 2},
        "anchors": {"records": float(len(store))},
    }


def bench_cache_warm(ctx: BenchContext) -> dict:
    from repro.clients.population import default_population
    from repro.engine import cache as dataset_cache
    from repro.servers import ServerPopulation

    store, _wall, _counters = ctx.window_store()
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        with _env("REPRO_CACHE_DIR", tmp):
            key = dataset_cache.dataset_key(
                default_population(), ServerPopulation(),
                WINDOW_START, WINDOW_END,
            )
            dataset_cache.save_store(store, key)
            started = time.perf_counter()
            warm = dataset_cache.load_store(key)
            wall = time.perf_counter() - started
    if warm is None:
        return {"skipped": "cache round-trip failed"}
    return {
        "wall_seconds": wall,
        "records_per_second": len(warm) / wall if wall > 0 else None,
        "counters": {"records": len(warm)},
        "anchors": None,
    }


def bench_anchors_fig1(ctx: BenchContext) -> dict:
    """Scientific anchors: negotiated-version shares on the fixed window.

    Deterministic to the last bit, so the baseline diff is the repo's
    drift detector — the analogue of the paper's anchor re-measurement
    (see ``benchmarks/_paper.py`` for the paper-side values these track
    in spirit; the absolute numbers differ because the window is a
    2-month slice, not the full study).
    """
    from repro.core import figures

    store, _wall, _counters = ctx.window_store()
    started = time.perf_counter()
    fig1 = figures.fig1_negotiated_versions(store)
    fig6 = figures.fig6_rc4_advertised(store)
    wall = time.perf_counter() - started
    on = WINDOW_END
    anchors = {
        "tls12_negotiated_pct": figures.value_at(fig1["TLSv12"], on),
        "tls10_negotiated_pct": figures.value_at(fig1["TLSv10"], on),
        "rc4_advertised_pct": figures.value_at(
            fig6[next(iter(fig6))], on
        ),
        "months": float(len(store.months())),
    }
    return {
        "wall_seconds": wall,
        "records_per_second": None,
        "counters": None,
        "anchors": anchors,
    }


def _query_workload(store, months) -> list:
    """A non-indexable aggregate workload (the shape tier's target).

    Fresh lambdas every call, so each invocation pays its own predicate
    compilation — the honest cold-query cost on whichever path answers.
    """
    is_tls12 = lambda r: r.negotiated_version == "TLSv12"
    rc4_est = lambda r: "rc4" in r.advertised and r.established
    est = lambda r: r.established
    aead_pos = lambda r: r.positions.get("aead")
    results = []
    for month in months:
        results.append(store.fraction(month, is_tls12))
        results.append(store.fraction(month, rc4_est, within=est))
        results.append(store.weighted_mean(month, aead_pos))
        results.append(store.weight_where(month, is_tls12))
    return results


def _vector_workload(store, months) -> list:
    """The ``_query_workload`` questions as structured predicates.

    Same aggregate questions, but phrased with the query-module
    combinators the vector tier compiles (none of them simplify to a
    single index key, so the fastest tier that can answer is vector →
    shape → scan depending on the store's switches).
    """
    from repro.notary.query import (
        ESTABLISHED,
        All,
        Advertises,
        AnyOf,
        Established,
        NegotiatedVersion,
        PositionOf,
    )

    modern = AnyOf(NegotiatedVersion("TLSv12"), NegotiatedVersion("TLSv13"))
    rc4_est = All(Advertises("rc4"), Established())
    aead_pos = PositionOf("aead")
    results = []
    for month in months:
        results.append(store.fraction(month, modern))
        results.append(store.fraction(month, rc4_est, within=ESTABLISHED))
        results.append(store.weighted_mean(month, aead_pos))
        results.append(store.weight_where(month, modern))
    return results


def _reset_query_state(dataset) -> None:
    """Drop every dataset-level compilation memo (cold-query honesty).

    Structured predicates are value-hashable, so without this each
    timing iteration after the first would answer from the shape/vector
    memos and the arm would time a dict lookup, not the tier.  The
    per-shape templates stay (building them is pack-time work, not
    query-time work).
    """
    dataset._match_cache.clear()
    dataset._value_cache.clear()
    for attr in ("_shape_view_cache", "_vector_view_cache", "_vector_matrix"):
        if hasattr(dataset, attr):
            delattr(dataset, attr)


def bench_query_paths(ctx: BenchContext) -> dict:
    """Cold aggregate queries over packed months: scan vs shape vs index.

    Every arm starts from a freshly attached packed dataset (the state a
    warm cache load leaves the store in).  The scan arm forces
    ``use_index = False`` — the pre-shape-tier behaviour of
    materializing record objects and scanning them — while the shape
    arm answers the identical workload from per-shape evaluation plus
    column folds.  The index arm times the O(1) counter path on the
    standard indexable queries as the floor reference.  The two
    non-indexed arms must return byte-identical results; the bench
    fails loudly if they diverge.

    A second loop times the same questions as *structured* predicates
    (the vector tier's input form) on three arms — scan, shape
    (``use_vector = False``), and vector — with every dataset-level
    compilation memo dropped per iteration, so each arm pays its full
    cold cost each time.  The gated ``vector_vs_scan_ratio`` comes from
    here; when numpy is unavailable the vector arm and its metric are
    simply omitted (the baseline gate skips missing metrics).
    """
    from repro.engine.partition import PackedDataset, pack_records
    from repro.notary import vector
    from repro.notary.query import ESTABLISHED, NegotiatedVersion
    from repro.notary.store import NotaryStore

    store, _wall, _counters = ctx.window_store()
    dataset = PackedDataset(pack_records(store.records()))
    months = store.months()

    def cold_store(use_index: bool) -> NotaryStore:
        fresh = NotaryStore()
        fresh.attach_packed(dataset)
        fresh.use_index = use_index
        return fresh

    def scan_run():
        return _query_workload(cold_store(False), months)

    def shape_run():
        return _query_workload(cold_store(True), months)

    indexed = cold_store(True)

    def index_run():
        return [
            indexed.fraction(month, NegotiatedVersion("TLSv12"), ESTABLISHED)
            for month in months
        ]

    shape_results = shape_run()
    if scan_run() != shape_results:
        raise RuntimeError("shape tier diverged from the record scan")
    index_run()  # warm the index build; the arm times lookups

    iterations = ctx.iterations(10)
    scan_walls: list[float] = []
    shape_walls: list[float] = []
    index_walls: list[float] = []
    for _ in range(iterations):
        started = time.perf_counter()
        scan_run()
        scan_walls.append(time.perf_counter() - started)
        started = time.perf_counter()
        shape_run()
        shape_walls.append(time.perf_counter() - started)
        started = time.perf_counter()
        index_run()
        index_walls.append(time.perf_counter() - started)
    scan_wall = min(scan_walls)
    shape_wall = min(shape_walls)
    index_wall = min(index_walls)

    counters = {
        "iterations": iterations,
        "months": len(months),
        "scan_wall_seconds": scan_wall,
        "index_wall_seconds": index_wall,
        "shape_speedup": scan_wall / shape_wall if shape_wall > 0 else 0.0,
    }
    # Gated ratios: smaller is better, growth past tolerance fails —
    # this is the ">= Nx over scan" criterion in baseline form.
    metrics = {
        "shape_vs_scan_ratio": shape_wall / scan_wall if scan_wall > 0 else 1.0
    }

    # ---- structured-predicate arms (the vector tier's input form) ----
    def structured_store(use_vector: bool, use_index: bool = True) -> NotaryStore:
        fresh = NotaryStore()
        fresh.attach_packed(dataset)
        fresh.use_index = use_index
        fresh.use_vector = use_vector
        return fresh

    def structured_scan_run():
        _reset_query_state(dataset)
        return _vector_workload(structured_store(True, use_index=False), months)

    def structured_shape_run():
        _reset_query_state(dataset)
        return _vector_workload(structured_store(False), months)

    def vector_run():
        _reset_query_state(dataset)
        return _vector_workload(structured_store(True), months)

    structured_results = structured_scan_run()
    if structured_shape_run() != structured_results:
        raise RuntimeError("shape tier diverged from the scan (structured)")
    with_vector = vector.available()
    if with_vector and vector_run() != structured_results:
        raise RuntimeError("vector tier diverged from the scan")

    s_scan_walls: list[float] = []
    s_shape_walls: list[float] = []
    vector_walls: list[float] = []
    for _ in range(iterations):
        started = time.perf_counter()
        structured_scan_run()
        s_scan_walls.append(time.perf_counter() - started)
        started = time.perf_counter()
        structured_shape_run()
        s_shape_walls.append(time.perf_counter() - started)
        if with_vector:
            started = time.perf_counter()
            vector_run()
            vector_walls.append(time.perf_counter() - started)
    s_scan_wall = min(s_scan_walls)
    s_shape_wall = min(s_shape_walls)
    counters["structured_scan_wall_seconds"] = s_scan_wall
    counters["structured_shape_wall_seconds"] = s_shape_wall
    if with_vector:
        vector_wall = min(vector_walls)
        counters["vector_wall_seconds"] = vector_wall
        counters["vector_speedup"] = (
            s_scan_wall / vector_wall if vector_wall > 0 else 0.0
        )
        metrics["vector_vs_scan_ratio"] = (
            vector_wall / s_scan_wall if s_scan_wall > 0 else 1.0
        )

    return {
        "wall_seconds": shape_wall,
        "records_per_second": None,
        "counters": counters,
        "anchors": {
            "tls12_fraction_m0": shape_results[0],
            "aead_position_mean_m0": shape_results[2],
        },
        "metrics": metrics,
    }


def bench_query_vector(ctx: BenchContext) -> dict:
    """Vector vs shape vs scan on the full 76-month study window.

    This is the acceptance bench for the vectorized tier: the standard
    dataset (``STUDY_START``..``STUDY_END``), the structured workload,
    every arm cold per iteration, byte-identity asserted against the
    scan before any timing.  The build reuses the persistent dataset
    cache when one is warm; the simulation otherwise runs serially
    once (~tens of seconds), which is why this bench is not in the
    ``--quick`` subset.
    """
    from repro.clients.population import default_population
    from repro.engine import runner
    from repro.engine.partition import PackedDataset, pack_records
    from repro.notary import vector
    from repro.notary.store import NotaryStore
    from repro.simulation.ecosystem import STUDY_END, STUDY_START

    if not vector.available():
        return {"skipped": "numpy unavailable (install the 'fast' extra)"}

    from repro.servers import ServerPopulation

    store = runner.run_expectation(
        default_population(), ServerPopulation(),
        STUDY_START, STUDY_END, workers=0,
    )
    dataset = PackedDataset(pack_records(store.records()))
    months = store.months()

    def arm_store(use_vector: bool, use_index: bool = True) -> NotaryStore:
        fresh = NotaryStore()
        fresh.attach_packed(dataset)
        fresh.use_index = use_index
        fresh.use_vector = use_vector
        return fresh

    def scan_run():
        _reset_query_state(dataset)
        return _vector_workload(arm_store(True, use_index=False), months)

    def shape_run():
        _reset_query_state(dataset)
        return _vector_workload(arm_store(False), months)

    def vector_run():
        _reset_query_state(dataset)
        return _vector_workload(arm_store(True), months)

    scan_results = scan_run()
    if shape_run() != scan_results:
        raise RuntimeError("shape tier diverged from the record scan")
    vector_results = vector_run()
    if vector_results != scan_results:
        raise RuntimeError("vector tier diverged from the record scan")

    iterations = ctx.iterations(3)
    scan_walls, shape_walls, vector_walls = [], [], []
    for _ in range(iterations):
        started = time.perf_counter()
        scan_run()
        scan_walls.append(time.perf_counter() - started)
        started = time.perf_counter()
        shape_run()
        shape_walls.append(time.perf_counter() - started)
        started = time.perf_counter()
        vector_run()
        vector_walls.append(time.perf_counter() - started)
    scan_wall = min(scan_walls)
    shape_wall = min(shape_walls)
    vector_wall = min(vector_walls)
    return {
        "wall_seconds": vector_wall,
        "records_per_second": None,
        "counters": {
            "iterations": iterations,
            "months": len(months),
            "records": len(store),
            "scan_wall_seconds": scan_wall,
            "shape_wall_seconds": shape_wall,
            "vector_vs_shape_speedup": (
                shape_wall / vector_wall if vector_wall > 0 else 0.0
            ),
            "vector_vs_scan_speedup": (
                scan_wall / vector_wall if vector_wall > 0 else 0.0
            ),
        },
        "anchors": {
            "modern_fraction_m0": vector_results[0],
            "aead_position_mean_m0": vector_results[2],
        },
        # Gated: the ">= 5x over shape / ~75x over scan" acceptance
        # criterion in baseline form (smaller is better).
        "metrics": {
            "vector_vs_scan_ratio": (
                vector_wall / scan_wall if scan_wall > 0 else 1.0
            ),
            "vector_vs_shape_ratio": (
                vector_wall / shape_wall if shape_wall > 0 else 1.0
            ),
        },
    }


def measure_obs_overhead(rounds: int = 3, months: int = 2) -> dict:
    """Instrumented-vs-bare serial engine run, min-of-N each.

    "Instrumented" is the full PR 3+4 surface: spans live, the JSONL
    sink enabled (so run/chunk/span events all hit disk), and the new
    analyzer attribution fields being populated.  Rounds interleave so
    machine drift hits both sides equally; min-of-N discards scheduler
    noise.  Runs under ``faults.suppressed`` so an ambient
    ``REPRO_FAULTS`` (the CI fault-matrix job) cannot skew the timing.
    """
    import datetime as dt

    from repro import obs
    from repro.clients.population import default_population
    from repro.engine import faults, runner
    from repro.servers import ServerPopulation

    clients = default_population()
    servers = ServerPopulation()
    start = WINDOW_START
    end = WINDOW_START + dt.timedelta(days=31 * (months - 1))
    end = end.replace(day=1)

    def one_run() -> float:
        obs.TRACE.reset()
        began = time.perf_counter()
        runner.run_expectation(clients, servers, start, end, workers=0)
        return time.perf_counter() - began

    bare: list[float] = []
    instrumented: list[float] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        sink = str(Path(tmp) / "metrics.jsonl")
        with faults.suppressed():
            # One discarded warmup run: the generator's process-global
            # hello/handshake caches and lazy imports must not bill
            # their cold-start cost to whichever arm runs first.
            with _env("REPRO_METRICS_PATH", None):
                one_run()
            for _ in range(max(1, rounds)):
                with _env("REPRO_METRICS_PATH", None):
                    bare.append(one_run())
                with _env("REPRO_METRICS_PATH", sink):
                    instrumented.append(one_run())
    bare_min = min(bare)
    instr_min = min(instrumented)
    return {
        "bare_seconds": bare_min,
        "instrumented_seconds": instr_min,
        "overhead_ratio": instr_min / bare_min if bare_min > 0 else 1.0,
    }


def bench_obs_overhead(ctx: BenchContext) -> dict:
    measured = measure_obs_overhead(rounds=2, months=2)
    return {
        "wall_seconds": measured["instrumented_seconds"],
        "records_per_second": None,
        "counters": None,
        "anchors": None,
        "metrics": {"obs_overhead_ratio": measured["overhead_ratio"]},
    }


def bench_serve_loadtest(ctx: BenchContext) -> dict:
    """The resident server under concurrent load: p50/p99 and RPS.

    The bench window packed and served from a port-0 in-process server,
    hammered by the real ``repro loadtest`` client (16 threads of
    keep-alive connections over the default figure/query/stats mix).
    Zero tolerance for errors — a 5xx or a divergent transport failure
    fails the bench outright, not just the gate.  ``records_per_second``
    carries the sustained request RPS (the unit the "millions of users"
    north star is priced in), and the gated metrics are the p50/p99
    latencies in milliseconds (smaller is better, like every other
    gated ratio).

    Client and server share one interpreter here, so the numbers are
    GIL-conservative: a real deployment with remote clients clears
    them.  That is the right direction for a regression gate to err.
    """
    from repro.engine.partition import PackedDataset, pack_records
    from repro.notary.store import NotaryStore
    from repro.serve.loadtest import run_loadtest
    from repro.serve.server import start_server

    store, _wall, _counters = ctx.window_store()
    served = NotaryStore()
    served.attach_packed(PackedDataset(pack_records(store.records())))
    handle = start_server(store=served)
    try:
        report = run_loadtest(
            handle.url, requests=ctx.iterations(800), concurrency=16
        )
    finally:
        handle.close()
    if report["errors"]:
        raise RuntimeError(
            f"serve.loadtest saw {report['errors']} error(s): "
            f"{report['statuses']}"
        )
    if (report["max_in_flight"] or 0) <= 1:
        raise RuntimeError("serve.loadtest never overlapped requests")
    return {
        "wall_seconds": report["wall_seconds"],
        "records_per_second": report["rps"],
        "counters": {
            "requests": report["requests"],
            "concurrency": report["concurrency"],
            "max_in_flight": report["max_in_flight"],
        },
        "anchors": None,
        "metrics": {
            "serve_p50_ms": report["p50_ms"],
            "serve_p99_ms": report["p99_ms"],
        },
    }


def _mp_query_workload(store) -> list:
    """A CPU-bound ``POST /query`` mix for the mp-speedup bench.

    Full-study series over composite predicates and a ``weighted_mean``
    position fold: each request does real per-month evaluation work, so
    the threaded path serializes on the GIL while the query pool
    genuinely parallelizes — exactly the contrast the metric prices.
    """
    months = store.months()
    documents = [
        {
            "kind": "fraction",
            "predicate": {"op": "any", "args": [
                {"op": "version", "value": "TLSv12"},
                {"op": "version", "value": "TLSv13"},
            ]},
            "within": {"op": "established", "value": True},
            "month": None,
        },
        {
            "kind": "weight",
            "predicate": {"op": "all", "args": [
                {"op": "established", "value": True},
                {"op": "not", "arg": {"op": "advertises", "value": "rc4"}},
            ]},
            "month": None,
        },
        {
            "kind": "weighted_mean",
            "value": {"op": "position_of", "tag": "aead"},
            "month": None,
        },
        {
            "kind": "fraction",
            "predicate": {"op": "mode", "value": "AEAD"},
            "within": {"op": "established", "value": True},
            "month": months[len(months) // 2].isoformat(),
        },
    ]
    return [("POST", "/query", json.dumps(doc)) for doc in documents]


def bench_serve_mp_speedup(ctx: BenchContext) -> dict:
    """Multi-process vs threaded serve RPS on a CPU-bound query mix.

    The same packed store served twice — once on the threaded path,
    once with ``--query-workers 2`` replica processes — and hammered
    with the identical CPU-bound workload.  The gated metric is
    ``threaded_vs_mp_ratio`` (threaded RPS / mp RPS, smaller is
    better), held to the ratio one real run measured on the gating
    host — on a 2-CPU host the query pool does not beat the threaded
    path (ratio above 1), which is what the baseline records.
    Single-core hosts skip — there is no parallelism to measure, only
    pool overhead.
    """
    from repro.engine import executors
    from repro.engine.partition import PackedDataset, pack_records
    from repro.notary.store import NotaryStore
    from repro.serve.loadtest import run_loadtest
    from repro.serve.server import start_server

    if (os.cpu_count() or 1) < 2:
        return {"skipped": "needs >= 2 CPUs to measure mp speedup"}
    if not executors.fork_available():
        return {"skipped": "query pool needs the fork start method"}
    store, _wall, _counters = ctx.window_store()
    served = NotaryStore()
    served.attach_packed(PackedDataset(pack_records(store.records())))
    workload = _mp_query_workload(served)
    requests = ctx.iterations(400)
    reports = {}
    for mode, workers in (("threaded", 0), ("mp", 2)):
        handle = start_server(store=served, query_workers=workers)
        try:
            # One warm-up pass per mode fills the store's compile memos
            # so both arms measure steady-state evaluation.
            run_loadtest(
                handle.url, requests=len(workload), concurrency=1,
                workload=workload,
            )
            reports[mode] = run_loadtest(
                handle.url, requests=requests, concurrency=8,
                workload=workload,
            )
        finally:
            handle.close()
        if reports[mode]["errors"]:
            raise RuntimeError(
                f"serve.mp_speedup {mode} arm saw "
                f"{reports[mode]['errors']} error(s): "
                f"{reports[mode]['statuses']}"
            )
    threaded, mp = reports["threaded"], reports["mp"]
    speedup = mp["rps"] / threaded["rps"] if threaded["rps"] else None
    return {
        "wall_seconds": mp["wall_seconds"],
        "records_per_second": mp["rps"],
        "counters": {
            "requests": requests,
            "threaded_rps": threaded["rps"],
            "mp_rps": mp["rps"],
            "mp_speedup": speedup,
            "query_workers": 2,
        },
        "anchors": None,
        "metrics": {
            "threaded_vs_mp_ratio": (
                threaded["rps"] / mp["rps"] if mp["rps"] else None
            ),
        },
    }


def _bench_engine_backend(backend: str) -> callable:
    """One ``engine.run.<backend>`` arm: the bench window through the
    scheduler on that backend, anchored on the record count (which must
    not move by a single record across backends)."""

    def bench(ctx: BenchContext) -> dict:
        from repro.clients.population import default_population
        from repro.engine import executors, runner
        from repro.servers import ServerPopulation

        if backend == "fork" and not executors.fork_available():
            return {"skipped": "no fork start method on this platform"}
        started = time.perf_counter()
        store = runner.run_expectation(
            default_population(), ServerPopulation(),
            WINDOW_START, WINDOW_END, workers=2, backend=backend,
        )
        wall = time.perf_counter() - started
        return {
            "wall_seconds": wall,
            "records_per_second": len(store) / wall if wall > 0 else None,
            "counters": {"workers": 2, "backend": backend},
            "anchors": {"records": float(len(store))},
        }

    bench.__name__ = f"bench_engine_run_{backend}"
    return bench


def _scale_ingest_probe(scale: int, conn) -> None:
    """Child half of ``scale.ingest``: pack one month at ``scale``.

    Runs in a **spawned** process so ``ru_maxrss`` is this run's own
    peak (a forked child would inherit the parent's high-water mark and
    the ratio would always read 1).
    """
    import resource

    from repro.clients.population import default_population
    from repro.engine import runner
    from repro.servers import ServerPopulation

    started = time.perf_counter()
    store = runner.run_expectation(
        default_population(), ServerPopulation(),
        WINDOW_START, WINDOW_START, workers=0, scale=scale,
    )
    wall = time.perf_counter() - started
    conn.send({
        "records": len(store),
        "wall_seconds": wall,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    conn.close()


def bench_scale_ingest(ctx: BenchContext) -> dict:
    """Streaming-ingest throughput and memory under dataset scale.

    Two spawned probes each pack one month serially through the
    generator → ``StreamPacker`` stream — at scale 1 and at scale 50.
    Gated numbers: packed records/second at scale 50 (throughput of
    the ingest path itself) and the scale-50 / scale-1 peak-RSS ratio.
    Streaming keeps the ratio near 1 because only the packed columns
    grow; materializing a month's record objects first would push it
    toward the scale factor, which is exactly the regression this
    bench exists to catch.
    """
    import multiprocessing as mp

    mp_ctx = mp.get_context("spawn")
    probes: dict[int, dict] = {}
    for scale in (1, 50):
        parent, child = mp_ctx.Pipe(duplex=False)
        proc = mp_ctx.Process(
            target=_scale_ingest_probe, args=(scale, child), daemon=True
        )
        proc.start()
        child.close()
        result = parent.recv() if parent.poll(600) else None
        proc.join(timeout=30)
        if proc.is_alive():
            proc.terminate()
        parent.close()
        if result is None:
            return {"skipped": f"scale-{scale} ingest probe died"}
        probes[scale] = result
    base, scaled = probes[1], probes[50]
    wall = scaled["wall_seconds"]
    return {
        "wall_seconds": wall,
        "records_per_second": scaled["records"] / wall if wall > 0 else None,
        "counters": {
            "records_scale1": base["records"],
            "records_scale50": scaled["records"],
            "rss_kb_scale1": base["rss_kb"],
            "rss_kb_scale50": scaled["rss_kb"],
        },
        "anchors": None,
        "metrics": {
            "scale_rss_ratio": scaled["rss_kb"] / max(base["rss_kb"], 1),
        },
    }


#: name -> (in the --quick subset, callable).  Order is run order.
BENCHES: dict[str, tuple[bool, callable]] = {
    "substrate.encode_hello": (True, bench_encode_hello),
    "substrate.decode_hello": (True, bench_decode_hello),
    "substrate.negotiate": (True, bench_negotiate),
    "substrate.fingerprint": (True, bench_fingerprint),
    "engine.serial": (True, bench_engine_serial),
    "engine.cache_warm": (True, bench_cache_warm),
    "anchors.fig1": (True, bench_anchors_fig1),
    "query.paths": (True, bench_query_paths),
    "serve.loadtest": (True, bench_serve_loadtest),
    "serve.mp_speedup": (True, bench_serve_mp_speedup),
    "scale.ingest": (True, bench_scale_ingest),
    "engine.parallel": (False, bench_engine_parallel),
    "engine.run.fork": (False, _bench_engine_backend("fork")),
    "engine.run.inline": (False, _bench_engine_backend("inline")),
    "engine.run.spawn": (False, _bench_engine_backend("spawn")),
    "obs.overhead": (False, bench_obs_overhead),
    "query.vector": (False, bench_query_vector),
}


def select_benches(names: list[str] | None = None, quick: bool = False) -> list[str]:
    """Resolve a bench selection; unknown names raise ValueError."""
    if names:
        unknown = [n for n in names if n not in BENCHES]
        if unknown:
            raise ValueError(
                f"unknown bench(es) {unknown}; choose from {sorted(BENCHES)}"
            )
        return list(names)
    if quick:
        return [name for name, (in_quick, _fn) in BENCHES.items() if in_quick]
    return list(BENCHES)


# ---- the harness ------------------------------------------------------------


def run_benches(
    names: list[str] | None = None,
    quick: bool = False,
    scale: float = 1.0,
    profile_mode: str | None = None,
) -> dict:
    """Run a bench selection; returns one trajectory run record."""
    selected = select_benches(names, quick)
    if profile_mode is not None:
        profile.configure(profile_mode)
    ctx = BenchContext(scale=scale)
    records = []
    for name in selected:
        _in_quick, fn = BENCHES[name]
        with profile.profiled(f"bench:{name}"):
            record = fn(ctx)
        record["bench"] = name
        records.append(record)
    return {
        "schema": TRAJECTORY_SCHEMA,
        "timestamp": _dt.datetime.now().isoformat(timespec="seconds"),
        "quick": quick,
        "scale": scale,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "records": records,
        "profile": profile.snapshot(),
    }


# ---- trajectory file --------------------------------------------------------


def trajectory_path(run: dict, out_dir: str | Path = ".") -> Path:
    tag = run["timestamp"][:10].replace("-", "")
    return Path(out_dir) / f"BENCH_{tag}.json"


def write_trajectory(run: dict, out_dir: str | Path = ".") -> Path:
    """Append one run record to the day's trajectory file."""
    path = trajectory_path(run, out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(document, dict) or "runs" not in document:
            document = {"schema": TRAJECTORY_SCHEMA, "runs": []}
    else:
        document = {
            "schema": TRAJECTORY_SCHEMA,
            "date": run["timestamp"][:10].replace("-", ""),
            "runs": [],
        }
    document["runs"].append(run)
    path.write_text(json.dumps(document, indent=2), encoding="utf-8")
    return path


# ---- baseline gate ----------------------------------------------------------


def load_baseline(path: str | Path = DEFAULT_BASELINE) -> dict | None:
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def make_baseline(run: dict) -> dict:
    """A baseline document pinned to one run's numbers."""
    return {
        "schema": TRAJECTORY_SCHEMA,
        "recorded": run["timestamp"],
        "python": run["python"],
        "tolerances": dict(DEFAULT_TOLERANCES),
        "records": [
            {
                # Copy nested dicts so later mutation of the run record
                # (or the baseline) cannot alias into the other.
                k: (dict(v) if isinstance(v := record.get(k), dict) else v)
                for k in ("bench", "wall_seconds", "records_per_second",
                          "anchors", "metrics", "skipped")
            }
            for record in run["records"]
        ],
    }


def diff_baseline(run: dict, baseline: dict) -> list[str]:
    """Regressions of ``run`` vs ``baseline``; empty list = gate passes.

    Every wall, rate and metric the baseline records must be measured:
    a missing, ``None`` or zero value fails the gate, because a bench
    whose work silently never ran reads as infinitely fast.  Anchors are
    exact values (zero included), so only a missing or ``None`` anchor
    fails that way; any other value is held to the drift tolerance.
    """
    tolerances = {**DEFAULT_TOLERANCES, **(baseline.get("tolerances") or {})}
    by_name = {r["bench"]: r for r in baseline.get("records", [])}
    failures: list[str] = []
    for record in run["records"]:
        name = record["bench"]
        base = by_name.get(name)
        if base is None or record.get("skipped") or base.get("skipped"):
            continue
        base_wall, wall = base.get("wall_seconds"), record.get("wall_seconds")
        if base_wall is not None:
            if not wall:
                failures.append(
                    f"{name}: wall_seconds is {wall!r} (baseline {base_wall:.6f})"
                )
            elif wall > base_wall * (1 + tolerances["wall_seconds"]):
                failures.append(
                    f"{name}: wall_seconds {wall:.6f} > "
                    f"{base_wall:.6f} * {1 + tolerances['wall_seconds']:.2f}"
                )
        base_rps = base.get("records_per_second")
        rps = record.get("records_per_second")
        if base_rps is not None:
            if not rps:
                failures.append(
                    f"{name}: records_per_second is {rps!r} "
                    f"(baseline {base_rps:,.0f})"
                )
            elif rps < base_rps * (1 - tolerances["records_per_second"]):
                failures.append(
                    f"{name}: records_per_second {rps:,.0f} < "
                    f"{base_rps:,.0f} * {1 - tolerances['records_per_second']:.2f}"
                )
        current_anchors = record.get("anchors") or {}
        for key, base_value in (base.get("anchors") or {}).items():
            value = current_anchors.get(key)
            if value is None:
                failures.append(f"{name}: anchor {key!r} missing from run")
            elif abs(value - base_value) > tolerances["anchors"] * max(
                1.0, abs(base_value)
            ):
                failures.append(
                    f"{name}: anchor {key!r} drifted {base_value!r} -> {value!r}"
                )
        current_metrics = record.get("metrics") or {}
        for key, base_value in (base.get("metrics") or {}).items():
            if base_value is None:
                continue
            value = current_metrics.get(key)
            if not value:
                failures.append(
                    f"{name}: metric {key!r} is {value!r} "
                    f"(baseline {base_value:.4f})"
                )
            elif value > base_value * (1 + tolerances["metrics"]):
                failures.append(
                    f"{name}: metric {key!r} {value:.4f} > "
                    f"{base_value:.4f} * {1 + tolerances['metrics']:.2f}"
                )
    return failures


def render_run(run: dict, failures: list[str] | None = None) -> str:
    """Human-readable harness report."""
    lines = ["BENCH TRAJECTORY RUN", "--------------------"]
    lines.append(f"timestamp : {run['timestamp']}   python {run['python']}")
    for record in run["records"]:
        if record.get("skipped"):
            lines.append(f"{record['bench']:<24} SKIPPED ({record['skipped']})")
            continue
        wall = record.get("wall_seconds")
        rps = record.get("records_per_second")
        parts = [f"wall={wall:.6f}s" if wall is not None else "wall=-"]
        if rps:
            parts.append(f"{rps:,.0f}/s")
        for group in ("metrics", "anchors"):
            for key, value in (record.get(group) or {}).items():
                parts.append(f"{key}=-" if value is None else f"{key}={value:.4f}")
        lines.append(f"{record['bench']:<24} " + "  ".join(parts))
    if failures is not None:
        if failures:
            lines.append("")
            lines.append(f"REGRESSIONS ({len(failures)}):")
            lines.extend(f"  - {failure}" for failure in failures)
        else:
            lines.append("")
            lines.append("gate: OK (no regression vs baseline)")
    return "\n".join(lines)
