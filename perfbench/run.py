"""The repository benchmark: four workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload study_cold --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in turn.  Each timed repetition
is a fresh interpreter with every ``REPRO_*`` (and ``PYTHON*``) variable
scrubbed, ``PYTHONPATH`` pointing at this checkout's ``src`` and a
benchmark-owned ``REPRO_CACHE_DIR`` / ``TMPDIR`` under ``.perfbench/``,
deleted when the run ends; the warm fixture is built inside that
directory by the code under test, once per invocation.

With ``--trace 0`` the last line of standard output is the result with
every end-to-end metric named in ``BENCHMARK.json``; with ``--trace 1``
it carries every per-layer metric instead (a layer the workload does
not exercise reads 0).  Any wrong answer is a failed operation; a failed
operation, a missing, ``None`` or zero metric, or a crashed child makes
the exit code non-zero.  Workloads, metrics and their rationale:
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import arith  # noqa: E402
import loadgen  # noqa: E402

WORKLOADS = ("study_cold", "study_warm", "study_sampled", "serve_api")

#: A study workload's repetitions: enough to fill ``--seconds`` at each
#: repetition's typical wall on a 2-CPU host, and at least ``MIN_REPS``
#: (2, 3 and 3 at 15 s).  The count never depends on how fast the host
#: happens to run, so every run does the same work.  The work is
#: deterministic and the host only ever slows it (``study_warm`` ran
#: 7.6-8.7 s in fast stretches, 10-12 s in slow ones lasting up to a
#: minute), so the timings come from the fastest repetition.
REP_SECONDS = {"study_cold": 10.0, "study_warm": 8.0, "study_sampled": 5.0}
MIN_REPS = {"study_cold": 2, "study_warm": 3, "study_sampled": 3}
#: Set-up samples taken before each study repetition and after the last,
#: besides each repetition's own: ``setup_s`` is a median over samples
#: spread across the run, not over one burst (ten back-to-back samples
#: had medians of 0.17-0.26 s within one minute).
SETUP_PER_GAP = 1
#: Server launches per ``serve_api`` run before the load (the last one
#: serves it) and after it.
LAUNCHES_BEFORE = 3
LAUNCHES_AFTER = 2

#: Open loop: the nominal rate (p50/p99 are measured here) and the rate
#: ladder above it.  Nominal sits well under the threaded server's
#: capacity (600-900 req/s for this mix on a 2-CPU host, varying with the
#: host's speed): at 150 req/s two requests overlap often enough on the
#: GIL that p99 swung 6.6-13 ms between 10 s phases, at 100 req/s
#: 6.9-7.4 ms.  The ladder brackets the knee widely so the top passing
#: step does not flip between runs.  See README.md.
NOMINAL_RPS = 100.0
LADDER_RPS = (300.0, 1200.0)
#: The ladder's p99 limit: where p99 climbs steeply with rate.
LIMIT_MS = 60.0
#: The nominal rate runs as back-to-back windows of ``WINDOW_SHARE`` of
#: ``--seconds`` each (1,000 requests at 15 s, ten beyond p99).  p50 and
#: p99 come from the window with the lower p99: the host only ever slows
#: the server, and in ten single-window runs two slow stretches took p99
#: from 6.2-7.9 ms to 9.7 and 33.6 ms.
NOMINAL_WINDOWS = 2
WINDOW_SHARE = 2.0 / 3.0
#: Share of ``--seconds`` spent per ladder step.
STEP_SHARE = 2.0 / 15.0
CONNECTIONS = 2

STUDY_REQUIRED = {
    "study_cold": (
        "notary.events.make_record_calls", "notary.events.make_record_s",
        "servers.respond_calls", "servers.respond_s",
        "clients.build_hello_calls", "clients.build_hello_s",
        "engine.partition.pack_s",
        "engine.runner.chunks", "engine.runner.worker_busy_s",
        "engine.runner.parent_busy_s", "engine.runner.parent_idle_s",
        "engine.runner.worker_peak_rss_mb",
        "engine.cache.checkpoint_save_s", "engine.cache.spill_s",
        "engine.cache.save_s", "engine.cache.bytes_written",
        "notary.store.index_build_s", "notary.store.vector_hits",
        "core.figures.all_s", "core.figures.fig4_s", "core.figures.fig5_s",
        "core.figures.other_s", "obs.trace_overhead",
    ),
    "study_warm": (
        "engine.partition.materialize_s", "engine.partition.records_materialized",
        "engine.cache.load_s", "notary.store.vector_hits",
        "notary.store.shape_hits", "notary.store.shape_evals",
        "core.figures.all_s", "core.figures.fig4_s", "core.figures.fig5_s",
        "core.figures.other_s", "core.report.build_s", "core.tables.table2_s",
        "obs.trace_overhead",
    ),
    "study_sampled": (
        "notary.events.make_record_calls", "notary.events.make_record_s",
        "servers.respond_calls", "servers.respond_s",
        "clients.build_hello_calls", "clients.build_hello_s",
        "notary.monitor.observe_s", "scanner.censys_s", "scanner.hosts_probed",
        "obs.trace_overhead",
    ),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


# ---- environment -------------------------------------------------------------


class Context:
    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.spec = json.loads((root / "BENCHMARK.json").read_text())
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.work = root / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
        self.cache = self.work / "cache"
        self.tmp = self.work / "tmp"
        self.out = root / ".perfbench" / "out"
        for path in (self.cache, self.tmp, self.out):
            path.mkdir(parents=True, exist_ok=True)
        self.children = 0

    def env(self) -> dict:
        """The hermetic child environment."""
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("REPRO_", "PYTHON"))
        }
        env.update(
            REPRO_CACHE_DIR=str(self.cache),
            TMPDIR=str(self.tmp),
            PYTHONPATH=str(self.root / "src"),
            PYTHONHASHSEED="0",
        )
        return env

    def child(self, mode: str, *extra: str, timeout: float = 170.0) -> dict:
        """Run ``study.py`` in a fresh interpreter; return its JSON."""
        self.children += 1
        out = self.work / f"child-{self.children}.json"
        cmd = [sys.executable, str(HERE / "study.py"), mode, "--out", str(out), *extra]
        launched = time.time()
        if mode == "rep":
            cmd += ["--launched", repr(launched)]
        # A process group of its own, so a timeout also takes down the
        # child's fork workers.
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env(), process_group=0,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child {mode} timed out after {timeout} s") from None
        if proc.returncode != 0:
            raise BenchError(
                f"child {mode} {' '.join(extra)} exited {proc.returncode}:\n"
                + stderr[-4000:]
            )
        result = json.loads(out.read_text())
        src = (self.root / "src").resolve()
        if not Path(result["repro_file"]).resolve().is_relative_to(src):
            raise BenchError(f"child imported repro from {result['repro_file']}, not {src}")
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def host_probe() -> float:
    """Milliseconds for a fixed pure-Python loop (best of three);
    reported next to the result, never used to normalise it."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def host_info(ctx: Context) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, sys; print(numpy.__version__)"],
        env=ctx.env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=60,
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": probe.stdout.strip() or None,
        "platform": platform.platform(),
    }


# ---- study workloads ---------------------------------------------------------


def check_failures(checks) -> list[str]:
    return [
        f"{c['name']}: got {c['got']!r}, want {c['want']!r}" for c in checks if not c["ok"]
    ]


def run_study(ctx: Context, workload: str) -> dict:
    args = ctx.args
    reference = json.dumps(ctx.reference)
    attempted, failed, problems = 0, 0, []
    extra = ["--workload", workload, "--seed", str(args.seed), "--reference", reference]
    if workload == "study_warm":
        fixture = ctx.child("fixture")
        attempted += 1
        if fixture["figures_sha256"] != ctx.reference["figures_sha256"]:
            failed += 1
            problems.append("fixture figures differ from the reference digest")
        extra += ["--cold-figures", fixture["figures_sha256"]]

    reps = []
    setups = []
    traced = None
    if args.trace:
        # One untraced and one traced repetition on the same inputs; their
        # ratio is the tracing overhead.
        reps.append(ctx.child("rep", *extra))
        trace_path = ctx.out / f"trace-{workload}-seed{args.seed}.json"
        traced = ctx.child("rep", *extra, "--trace-out", str(trace_path))
    else:
        def setup_samples() -> None:
            for _ in range(SETUP_PER_GAP):
                setups.append(ctx.child("rep", *extra, "--setup-only")["setup_s"])

        count = max(MIN_REPS[workload], math.ceil(args.seconds / REP_SECONDS[workload]))
        for _ in range(count):
            setup_samples()
            rep = ctx.child("rep", *extra)
            reps.append(rep)
            setups.append(rep["setup_s"])
        setup_samples()
    for rep in reps + ([traced] if traced else []):
        attempted += 1
        bad = check_failures(rep["checks"])
        if bad:
            failed += 1
            problems.extend(bad)

    walls = [rep["wall_s"] for rep in reps]
    best = min(walls)
    records = reps[0]["records"]
    e2e = {
        "setup_s": statistics.median(setups or [reps[0]["setup_s"]]),
        "wall_s": best,
        "peak_rss_mb": statistics.median([rep["peak_rss_mb"] for rep in reps]),
        # A batch run is one request, so its latency is the run's wall.  A
        # few runs support no p99 (ten beyond it), so p99 is the workload's
        # slowest operation.
        "p50_ms": best * 1e3,
        "p99_ms": min(arith.slowest_operation(rep["steps_s"]) for rep in reps) * 1e3,
        # Work completed per second at the stated input size.
        "max_ok_rps": records / best,
    }
    detail = {
        "reps": len(reps),
        "walls_s": walls,
        "steps_s": [rep["steps_s"] for rep in reps],
        "setups_s": setups,
        "records": records,
    }
    layers = study_layers(workload, traced, statistics.median(walls)) if traced else None
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "e2e": e2e,
        "layers": layers,
        "detail": detail,
    }


def study_layers(workload: str, rep: dict, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced repetition."""
    lay = rep["layers"]

    def self_s(*names):
        return sum(lay.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        return lay.get(name, {}).get("calls", 0)

    def items(name):
        return lay.get(name, {}).get("items", 0)

    perf = rep["perf"]
    figs = [f"core.figures.fig{i}" for i in range(1, 11)] + ["core.figures.all"]
    out = {
        "notary.events.make_record_calls": calls("notary.events.make_record"),
        "notary.events.make_record_s": self_s("notary.events.make_record"),
        "servers.respond_calls": calls("servers.respond"),
        "servers.respond_s": self_s("servers.respond"),
        "clients.build_hello_calls": calls("clients.build_hello"),
        "clients.build_hello_s": self_s("clients.build_hello"),
        "notary.monitor.observe_s": self_s("notary.monitor.observe"),
        "scanner.censys_s": self_s("scanner.censys", "scanner.grab"),
        "scanner.hosts_probed": calls("scanner.grab"),
        "engine.partition.pack_s": self_s("engine.partition.pack"),
        "engine.partition.materialize_s": self_s("engine.partition.materialize"),
        "engine.partition.records_materialized": items("engine.partition.materialize"),
        "engine.cache.checkpoint_save_s": self_s("engine.cache.checkpoint_save"),
        "engine.cache.spill_s": self_s("engine.cache.spill"),
        "engine.cache.save_s": self_s("engine.cache.save"),
        "engine.cache.bytes_written": items("engine.cache.save"),
        "engine.cache.load_s": self_s("engine.cache.load"),
        "notary.store.index_build_s": self_s("notary.store.index_build"),
        "notary.store.vector_hits": perf["vector_path_hits"],
        "notary.store.shape_hits": perf["shape_path_hits"],
        "notary.store.shape_evals": perf["shape_evals"],
        "notary.store.scan_fallbacks": perf["scan_fallbacks"],
        "core.figures.all_s": self_s(*figs),
        "core.figures.fig4_s": self_s("core.figures.fig4"),
        "core.figures.fig5_s": self_s("core.figures.fig5"),
        "core.report.build_s": self_s("core.report.build"),
        "core.tables.table2_s": self_s("core.tables.table2"),
        "engine.runner.chunks": perf["chunks"],
        "engine.runner.retries": perf["chunk_retries"],
        "engine.runner.worker_busy_s": sum(perf["worker_wall_times"]),
        "engine.runner.worker_peak_rss_mb": (
            rep["children_peak_rss_mb"] if perf["chunks"] else 0.0
        ),
        "obs.trace_overhead": rep["wall_s"] / untraced_wall,
    }
    out["core.figures.other_s"] = (
        out["core.figures.all_s"] - out["core.figures.fig4_s"] - out["core.figures.fig5_s"]
    )
    if workload == "study_cold":
        out["engine.runner.parent_busy_s"] = rep["build_cpu_s"]
        out["engine.runner.parent_idle_s"] = max(0.0, rep["build_wall_s"] - rep["build_cpu_s"])
    return out


# ---- serve_api ----------------------------------------------------------------


class Server:
    """``python -m repro serve`` as a child process on the warm blob."""

    def __init__(self, ctx: Context, index: int) -> None:
        self.ctx = ctx
        self.log = ctx.work / f"serve-{index}.out"
        self.err = ctx.work / f"serve-{index}.err"
        self.launched = time.perf_counter()
        with open(self.log, "w") as out, open(self.err, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve"],
                cwd=ctx.root, env=ctx.env(), stdout=out, stderr=err,
            )
        self.port = None

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from launch to the first 200 from ``/healthz``."""
        deadline = self.launched + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited {self.proc.returncode}: {self.err.read_text()[-2000:]}"
                )
            if self.port is None:
                for line in self.log.read_text().splitlines():
                    if line.startswith("serving on http://"):
                        self.port = int(line.rsplit(":", 1)[1])
            if self.port is not None:
                try:
                    status, _ = self.get("/healthz", timeout=2.0)
                except OSError:
                    status = None
                if status == 200:
                    return time.perf_counter() - self.launched
            time.sleep(0.002)
        raise BenchError("server not ready in time")

    def get(self, path: str, timeout: float = 10.0):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.get("/stats")
        if status != 200:
            raise BenchError(f"/stats answered {status}")
        return json.loads(body)

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)


def route_totals(stats: dict) -> tuple[int, float]:
    """(requests, handler seconds) over every route but ``/stats``."""
    count, seconds = 0, 0.0
    for route, ledger in stats["server"]["routes"].items():
        if route != "/stats":
            count += ledger["count"]
            seconds += ledger["total_seconds"]
    return count, seconds


def check_bodies(phases, expected: dict) -> tuple[int, list[str]]:
    """Responses whose body differs from the in-process answer."""
    bad, problems = 0, []
    for phase in phases:
        for kind, bodies in phase.bodies.items():
            for body, count in bodies.items():
                try:
                    ok = json.loads(body) == expected[kind]
                except (ValueError, KeyError):
                    ok = False
                if not ok:
                    bad += count
                    problems.append(f"{kind}: {count} response(s) differ from in-process")
    return bad, problems


def run_serve(ctx: Context) -> dict:
    args = ctx.args
    fixture = ctx.child("fixture")
    attempted, failed, problems = 1, 0, []
    if fixture["figures_sha256"] != ctx.reference["figures_sha256"]:
        failed += 1
        problems.append("fixture figures differ from the reference digest")
    window_s = args.seconds * WINDOW_SHARE
    step_s = args.seconds * STEP_SHARE
    if not arith.supports(round(NOMINAL_RPS * window_s), 99):
        raise BenchError(f"--seconds {args.seconds} too short for a p99 at the nominal rate")

    setups = []
    server = None
    try:
        for index in range(LAUNCHES_BEFORE):
            if server is not None:
                server.stop()
            server = Server(ctx, index)
            setups.append(server.wait_ready())
        untraced = None
        if args.trace:
            untraced = loadgen.run_phase(
                "127.0.0.1", server.port, NOMINAL_RPS, window_s, args.seed + 1000,
                CONNECTIONS,
            )

        def window(k: int):
            return loadgen.run_phase(
                "127.0.0.1", server.port, NOMINAL_RPS, window_s, args.seed + 500 * k,
                CONNECTIONS,
            )

        # The traced numbers cover the first window.
        sample = bool(args.trace)
        before = (server.stats(), server.cpu_seconds()) if sample else None
        phases = [window(0)]
        after = (server.stats(), server.cpu_seconds()) if sample else None
        phases += [window(k) for k in range(1, NOMINAL_WINDOWS)]
        for k, rate in enumerate(LADDER_RPS, start=1):
            phases.append(
                loadgen.run_phase("127.0.0.1", server.port, rate, step_s,
                                  args.seed + k, CONNECTIONS)
            )
        final_stats = server.stats() if sample else None
        peak_rss = server.peak_rss_mb()
        for index in range(LAUNCHES_BEFORE, LAUNCHES_BEFORE + LAUNCHES_AFTER):
            server.stop()
            server = Server(ctx, index)
            setups.append(server.wait_ready())
    finally:
        if server is not None:
            server.stop()

    summaries = [loadgen.summarize(p) for p in phases]
    for summary in summaries:
        summary["ok_step"] = arith.step_passes(
            offered_rps=summary["offered_rps"],
            achieved_rps=summary["achieved_rps"],
            p99_ms=summary["p99_ms"],
            late_tail_ms=summary["late_tail_ms"],
            failed=summary["failed"],
            limit_ms=LIMIT_MS,
        )
    checked = phases + ([untraced] if untraced else [])
    for phase in checked:
        attempted += phase.scheduled
        failed += len(phase.failed)
        for kind, due, reason in phase.failed[:5]:
            problems.append(f"{kind} at rate {phase.rate}: {reason}")
    bad_bodies, body_problems = check_bodies(checked, fixture["expected"])
    failed += bad_bodies
    problems += body_problems

    traced_window, ladder = summaries[0], summaries[NOMINAL_WINDOWS:]
    for summary in summaries[:NOMINAL_WINDOWS]:
        if not arith.supports(summary["ok"] + summary["failed"], 99):
            raise BenchError("nominal window too short: fewer than 10 samples beyond p99")
    nom = min(summaries[:NOMINAL_WINDOWS], key=lambda s: s["p99_ms"])
    best = arith.max_ok_step(
        [{"offered_rps": s["offered_rps"], "ok": s["ok_step"], "s": s} for s in [nom] + ladder]
    )
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": nom["wall_s"],
        "peak_rss_mb": peak_rss,
        "p50_ms": nom["p50_ms"],
        "p99_ms": nom["p99_ms"],
        "max_ok_rps": best["s"]["achieved_rps"] if best else 0.0,
    }
    layers = None
    if args.trace:
        (s0, cpu0), (s1, cpu1) = before, after
        n0, h0 = route_totals(s0)
        n1, h1 = route_totals(s1)
        served = n1 - n0
        handler_ms = (h1 - h0) / served * 1e3 if served else 0.0
        c0, c1 = s0["counters"], s1["counters"]
        layers = {
            "serve.handler_ms_mean": handler_ms,
            "serve.wait_ms_mean": traced_window["mean_ms"] - handler_ms,
            "serve.ttfb_ms_p50": traced_window["ttfb_p50_ms"],
            "serve.bytes_per_req": traced_window["bytes"] / traced_window["ok"],
            "serve.server_cpu_ms_per_req": (cpu1 - cpu0) / served * 1e3 if served else 0.0,
            "serve.max_in_flight": final_stats["server"]["max_in_flight"],
            "serve.max_queries_in_flight": final_stats["server"]["max_queries_in_flight"],
            "serve.loadgen_late_ms": traced_window["late_mean_ms"],
            "notary.store.vector_hits": c1["vector_path_hits"] - c0["vector_path_hits"],
            "notary.store.shape_hits": c1["shape_path_hits"] - c0["shape_path_hits"],
            "notary.store.shape_evals": c1["shape_evals"] - c0["shape_evals"],
            "notary.store.scan_fallbacks": c1["scan_fallbacks"] - c0["scan_fallbacks"],
            "obs.trace_overhead": (
                traced_window["mean_ms"] / loadgen.summarize(untraced)["mean_ms"]
            ),
        }
        for summary in [traced_window] + ladder:
            layers[f"serve.p99_ms_at_{int(summary['offered_rps'])}"] = summary["p99_ms"]
    detail = {
        "setups_s": setups,
        "phases": [
            {k: v for k, v in s.items() if k not in ("scheduled",)} for s in summaries
        ],
        "max_ok_offered_rps": best["offered_rps"] if best else None,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "e2e": e2e,
        "layers": layers,
        "detail": detail,
    }


# ---- result ---------------------------------------------------------------------


def serve_required(spec) -> tuple:
    names = [m["name"] for m in spec["per_layer"] if m["name"].startswith("serve.")]
    return tuple(names) + ("notary.store.vector_hits", "obs.trace_overhead")


def run_workload(ctx: Context, workload: str) -> dict:
    outcome = run_serve(ctx) if workload == "serve_api" else run_study(ctx, workload)
    spec = ctx.spec
    if ctx.args.trace:
        declared = spec["per_layer"]
        values = {m["name"]: 0 for m in declared}
        values.update(outcome["layers"])
        required = (
            serve_required(spec) if workload == "serve_api" else STUDY_REQUIRED[workload]
        )
    else:
        declared = spec["end_to_end"]
        values = outcome["e2e"]
        required = [m["name"] for m in declared]
    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {unknown}")
    arith.require_metrics(values, names, set(required))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
        "problems": outcome["problems"],
        "detail": outcome["detail"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("BENCHMARK.json", "src/repro/__init__.py") if not (root / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout root, missing {missing}", file=sys.stderr)
        return 2
    ctx = Context(root, args)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        host = host_info(ctx)
        for workload in workloads:
            speed_before = host_probe()
            started = time.perf_counter()
            result = run_workload(ctx, workload)
            result["host"] = {
                **host,
                "speed_probe_ms_before": speed_before,
                "speed_probe_ms_after": host_probe(),
                "run_s": time.perf_counter() - started,
                "children_peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_CHILDREN
                ).ru_maxrss / 1024.0,
            }
            results[workload] = result
            record = ctx.out / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(result, indent=1))
            print(f"== {workload} (seed {args.seed}, trace {args.trace})")
            for name, metric in result["metrics"].items():
                print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
            for problem in result["problems"]:
                print(f"  FAILED: {problem}")
            print(f"  host: {json.dumps(result['host'])}")
    except (BenchError, ValueError, AssertionError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        ctx.close()

    if len(results) == 1:
        (result,) = results.values()
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
