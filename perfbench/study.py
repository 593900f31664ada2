"""Child process of the benchmark: one study run in a fresh interpreter.

``run.py`` launches this file once per timed repetition, with the
``REPRO_*`` environment scrubbed and a benchmark-owned cache directory,
and reads the JSON it writes to ``--out``.  Modes:

* ``fixture`` -- build the full-study blob with the default configuration
  (the warm fixture of ``study_warm`` and ``serve_api``), and record the
  figure digest and the in-process ``serve.wire`` answer to every served
  request of the mix.
* ``rep`` -- one repetition of a study workload; ``--setup-only`` stops
  once the model is constructed (extra ``setup_s`` samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

#: Records per month of the ``study_sampled`` Monte-Carlo store.
SAMPLED_CONNECTIONS = 150


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def figures_digest(figs: dict) -> str:
    """Digest of every figure series; floats print as ``repr``, so equal
    digests mean byte-identical figures."""
    from repro.serve import wire

    return sha256_json({name: wire.encode_series(s) for name, s in figs.items()})


def sampled_digest(store, archive) -> str:
    records = [
        [
            r.month.isoformat(),
            r.day.isoformat() if r.day is not None else None,
            r.weight,
            r.client_family,
            r.client_version,
            r.server_profile,
            r.established,
            r.negotiated_version,
            r.negotiated_suite,
            r.negotiated_curve,
            r.suite_count,
            sorted(r.advertised),
        ]
        for r in store.records()
    ]
    scans = [
        [probe, day.isoformat(), snap.hosts, snap.handshakes, sorted(snap.chose.items())]
        for (probe, day), snap in sorted(archive.snapshots.items())
    ]
    return sha256_json({"records": records, "scans": scans})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Checks:
    """Named pass/fail outcomes; a failed one is a failed operation."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def expect(self, name: str, got, want) -> None:
        self.items.append({"name": name, "ok": got == want, "got": got, "want": want})


# ---- fixture --------------------------------------------------------------------


def run_fixture(args) -> dict:
    from loadgen import SERVE_FIGURES, SERVE_QUERIES
    from repro.core import figures
    from repro.serve import wire
    from repro.simulation.ecosystem import EcosystemModel

    store = EcosystemModel().passive_store()
    expected = {}
    for name in SERVE_FIGURES:
        series = figures.FIGURE_GENERATORS[name](store)
        expected[f"figures/{name}"] = {
            "api": wire.API_VERSION,
            "figure": name,
            "series": wire.encode_series(series),
        }
    for name, doc in SERVE_QUERIES.items():
        expected[f"query/{name}"] = {
            "api": wire.API_VERSION,
            **wire.execute_query(store, doc),
        }
    expected["healthz"] = {
        "api": wire.API_VERSION,
        "status": "ok",
        "ready": True,
        "months": len(store.months()),
        "records": len(store),
    }
    return {
        "records": len(store),
        "figures_sha256": figures_digest(figures.evaluate_all(store)),
        "expected": json.loads(json.dumps(expected)),
    }


# ---- one repetition --------------------------------------------------------------


def run_rep(args) -> dict:
    from repro.engine.perf import PERF
    from repro.simulation.ecosystem import EcosystemModel

    if args.workload == "study_cold":
        model = EcosystemModel(rebuild=True)
    elif args.workload == "study_warm":
        model = EcosystemModel()
    elif args.workload == "study_sampled":
        model = EcosystemModel(seed=args.seed)
    else:
        raise SystemExit(f"unknown study workload {args.workload!r}")
    setup_s = time.time() - args.launched
    out = {"setup_s": setup_s}
    if args.setup_only:
        return out

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer(worker_sink=tracing.perf_sink(PERF))
        tracing.install_repro(tracer)

    reference = json.loads(args.reference)
    checks = Checks()
    steps = {}
    cpu0 = cpu_seconds()
    started = last = time.perf_counter()

    def step(name: str) -> None:
        nonlocal last
        now = time.perf_counter()
        steps[name] = now - last
        last = now

    if args.workload == "study_sampled":
        count = SAMPLED_CONNECTIONS
        store = model.montecarlo_store(connections_per_month=count)
        step("montecarlo")
        archive = model.censys()
        step("censys")
        months = store.months()
        records = len(store)
        checks.expect("months", len(months), 76)
        checks.expect("records", records, 76 * count)
        checks.expect(
            "total_weight", sum(store.total_weight(m) for m in months), 76.0 * count
        )
        # Digest every seed, so every seed times the same work; only the
        # reference seed has a digest to match.
        digest = sampled_digest(store, archive)
        if args.seed == reference["sampled_seed"]:
            checks.expect(
                "reference_connections", reference["sampled_connections"], count
            )
            checks.expect("sampled_sha256", digest, reference["sampled_sha256"])
        build_s = None
    else:
        from repro.core import figures

        store = model.passive_store()
        build_s = time.perf_counter() - started
        build_cpu = cpu_seconds() - cpu0
        step("passive_store")
        figs = figures.evaluate_all(store)
        step("figures")
        records = len(store)
        digest = figures_digest(figs)
        checks.expect("records", records, reference["records"])
        checks.expect("figures_sha256", digest, reference["figures_sha256"])
        if args.workload == "study_warm":
            from repro.core import report, tables

            text = report.build_report(model)
            step("report")
            rows = tables.table2_fingerprint_summary(model.database(), store.records())
            step("table2")
            checks.expect("figures_vs_cold", digest, args.cold_figures)
            checks.expect(
                "report_sha256",
                hashlib.sha256(text.encode("utf-8")).hexdigest(),
                reference["report_sha256"],
            )
            checks.expect("table2_sha256", sha256_json(rows), reference["table2_sha256"])
            checks.expect("cache_hits", PERF.dataset_cache_hits, 1)
            checks.expect("negotiations", PERF.negotiations, 0)
    step("check")
    out["wall_s"] = time.perf_counter() - started
    out["steps_s"] = steps
    out["records"] = records
    out["peak_rss_mb"] = peak_rss_mb()
    out["checks"] = checks.items

    if tracer is not None:
        snap = PERF.snapshot()
        tracer.fold_histograms(snap["duration_histograms"])
        tracer.write(args.trace_out)
        out["layers"] = {name: tracer.layer(name) for name in tracer.totals}
        out["perf"] = {
            key: snap[key]
            for key in (
                "vector_path_hits",
                "shape_path_hits",
                "shape_evals",
                "scan_fallbacks",
                "chunk_retries",
                "worker_wall_times",
            )
        }
        out["perf"]["chunks"] = len(snap["chunk_attribution"])
        if build_s is not None:
            out["build_wall_s"] = build_s
            out["build_cpu_s"] = build_cpu
        out["children_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("fixture", "rep"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--launched", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--reference", default="{}")
    parser.add_argument("--cold-figures", default=None)
    args = parser.parse_args(argv)
    if args.launched is None:
        args.launched = time.time()
    result = run_fixture(args) if args.mode == "fixture" else run_rep(args)
    import repro

    result["repro_file"] = repro.__file__
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
