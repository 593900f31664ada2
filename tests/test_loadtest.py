"""Self-test for the load-test harness against an ephemeral server.

A tiny window (5 packed months) on a port-0 server, a small budget of
real concurrent requests, and the three assertions that make the bench
trustworthy: the report carries the full percentile/RPS schema, zero
requests errored, and the server-side max-in-flight gauge proves the
load actually overlapped instead of serializing at the client.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.partition import PackedDataset, pack_records
from repro.notary.store import NotaryStore
from repro.serve import loadtest
from repro.serve.server import start_server

#: Every key a loadtest report must carry (bench + CLI consumers).
REPORT_KEYS = {
    "url",
    "requests",
    "concurrency",
    "errors",
    "wall_seconds",
    "rps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "max_ms",
    "statuses",
    "max_in_flight",
}


@pytest.fixture(scope="module")
def tiny_server(early_window_store):
    store = NotaryStore()
    store.attach_packed(
        PackedDataset(pack_records(early_window_store.records()))
    )
    handle = start_server(store=store)
    yield handle
    handle.close()


def test_report_schema_zero_errors_real_concurrency(tiny_server):
    report = loadtest.run_loadtest(
        tiny_server.url, requests=400, concurrency=8
    )
    assert set(report) == REPORT_KEYS
    assert report["requests"] == 400
    assert report["concurrency"] == 8
    assert report["errors"] == 0
    assert report["statuses"] == {"200": 400}
    assert report["wall_seconds"] > 0
    assert report["rps"] > 0
    # Percentiles are real latencies in sane order.
    assert 0 < report["p50_ms"] <= report["p95_ms"] <= report["p99_ms"]
    assert report["p99_ms"] <= report["max_ms"]
    # The server saw overlapping requests — the client really was
    # concurrent, not a loop with extra threads.
    assert report["max_in_flight"] > 1


def test_loadtest_counts_http_errors(tiny_server):
    report = loadtest.run_loadtest(
        tiny_server.url,
        requests=10,
        concurrency=2,
        workload=[("GET", "/no-such-route", None)],
    )
    assert report["errors"] == 10
    assert report["statuses"] == {"404": 10}


def test_request_exceptions_are_counted_errors(tiny_server):
    """A request that raises something other than a transport error — a
    ``dict`` body makes ``http.client`` raise ``TypeError`` — used to end
    its thread uncounted, leaving a clean-looking report with no requests
    behind it.  Every such request is now one error."""
    report = loadtest.run_loadtest(
        tiny_server.url,
        requests=20,
        concurrency=2,
        workload=[("POST", "/query", {"kind": "fraction"})],
    )
    assert report["errors"] == 20
    assert report["statuses"] == {}


def test_unaccounted_requests_raise(tiny_server, monkeypatch):
    def run_nothing(worker):
        worker.barrier.wait()  # a thread that dies right after the start

    monkeypatch.setattr(loadtest._Worker, "run", run_nothing)
    with pytest.raises(RuntimeError, match="0 of 6 request"):
        loadtest.run_loadtest(tiny_server.url, requests=6, concurrency=2)


def test_requests_split_exactly_across_threads():
    assert loadtest._split_shares(10, 3) == [4, 3, 3]
    assert loadtest._split_shares(3, 8) == [1, 1, 1, 0, 0, 0, 0, 0]
    assert sum(loadtest._split_shares(2001, 32)) == 2001


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert loadtest.percentile(values, 50) == 50.0
    assert loadtest.percentile(values, 95) == 95.0
    assert loadtest.percentile(values, 99) == 99.0
    assert loadtest.percentile(values, 100) == 100.0
    assert loadtest.percentile([7.0], 99) == 7.0
    assert loadtest.percentile([], 99) == 0.0


def test_cli_loadtest_json_report(tiny_server, capsys):
    from repro.cli import main

    code = main(
        [
            "loadtest",
            tiny_server.url,
            "--requests",
            "64",
            "--concurrency",
            "4",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == REPORT_KEYS
    assert report["errors"] == 0


def test_cli_loadtest_exit_code_on_errors(tiny_server, capsys):
    from repro.cli import main
    from repro.serve import loadtest as lt

    # Point the default workload at a 404 for this invocation only.
    original = lt.default_workload
    lt.default_workload = lambda: [("GET", "/broken", None)]
    try:
        code = main(
            ["loadtest", tiny_server.url, "--requests", "8",
             "--concurrency", "2"]
        )
    finally:
        lt.default_workload = original
    out = capsys.readouterr().out
    assert code == 1
    assert "errors" in out


def test_unreachable_target_reports_errors_instead_of_hanging():
    """A refused connect used to kill worker threads before the start
    barrier, hanging the main thread forever — an operator typo'ing a
    port froze the CLI.  Now every request in the share counts as an
    error and the run returns."""
    import socket as socket_module

    # A port that is bound but never accepted would block; a *closed*
    # port refuses instantly.  Grab one and release it.
    probe = socket_module.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    report = loadtest.run_loadtest(
        f"127.0.0.1:{dead_port}", requests=6, concurrency=2, timeout=5.0
    )
    assert report["errors"] == 6
    assert report["statuses"] == {}


# ---- SLO evaluation ----------------------------------------------------------


def test_parse_slo_units_and_objectives():
    assert loadtest.parse_slo("p99=50ms") == {"p99_ms": 50.0}
    assert loadtest.parse_slo("p99=50") == {"p99_ms": 50.0}  # bare = ms
    assert loadtest.parse_slo("p95=0.25s") == {"p95_ms": 250.0}
    assert loadtest.parse_slo("error_rate=0.1%") == {"error_rate": 0.001}
    assert loadtest.parse_slo("error_rate=0.02") == {"error_rate": 0.02}
    assert loadtest.parse_slo(
        "p50=5ms, p99=50ms, error_rate=1%, max=2s"
    ) == {
        "p50_ms": 5.0,
        "p99_ms": 50.0,
        "error_rate": 0.01,
        "max_ms": 2000.0,
    }


@pytest.mark.parametrize(
    "spec",
    ["", ",", "p99", "p99=", "p42=5ms", "latency=5ms", "p99=fast"],
)
def test_parse_slo_rejects_malformed_specs(spec):
    with pytest.raises(ValueError):
        loadtest.parse_slo(spec)


def test_evaluate_slo_burn_and_verdict():
    report = {"requests": 1000, "errors": 5, "p99_ms": 40.0, "p50_ms": 2.0}
    verdict = loadtest.evaluate_slo(
        report, {"p99_ms": 50.0, "error_rate": 0.001}
    )
    assert verdict["ok"] is False
    p99 = verdict["objectives"]["p99_ms"]
    assert p99["ok"] is True
    assert p99["observed"] == 40.0
    assert p99["burn"] == pytest.approx(0.8)
    err = verdict["objectives"]["error_rate"]
    assert err["ok"] is False
    assert err["observed"] == pytest.approx(0.005)
    assert err["burn"] == pytest.approx(5.0)
    # A zero target is violated by any non-zero observation, not a
    # division crash.
    verdict = loadtest.evaluate_slo(report, {"error_rate": 0.0})
    assert verdict["objectives"]["error_rate"]["burn"] == float("inf")
    assert verdict["ok"] is False


def test_report_gains_slo_key_only_when_asked(tiny_server):
    """SLO-less reports keep the exact historical schema (REPORT_KEYS
    stays pinned above); the ``slo`` verdict appears only on request."""
    plain = loadtest.run_loadtest(
        tiny_server.url, requests=16, concurrency=2
    )
    assert set(plain) == REPORT_KEYS
    gated = loadtest.run_loadtest(
        tiny_server.url,
        requests=16,
        concurrency=2,
        slo={"p99_ms": 60_000.0, "error_rate": 0.5},
    )
    assert set(gated) == REPORT_KEYS | {"slo"}
    assert gated["slo"]["ok"] is True
    # The server's own sliding-window view rides along for burn
    # triage: client-side violation vs server-side latency.
    window = gated["slo"]["window"]
    assert window is not None
    assert window["count"] >= 16
    assert window["p50_ms"] <= window["p99_ms"]


def test_cli_loadtest_slo_gate_exit_codes(tiny_server, capsys):
    from repro.cli import main

    # A generous SLO passes: exit 0, PASS in the human report.
    code = main(
        ["loadtest", tiny_server.url, "--requests", "16",
         "--concurrency", "2", "--slo", "p99=60s,error_rate=50%"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    # An impossible SLO fails the run even with zero HTTP errors.
    code = main(
        ["loadtest", tiny_server.url, "--requests", "16",
         "--concurrency", "2", "--slo", "max=0.000001ms"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "burn" in out
    # A malformed spec is a usage error (2), not a silent no-op gate.
    code = main(
        ["loadtest", tiny_server.url, "--requests", "1", "--slo",
         "p42=1ms"]
    )
    assert code == 2


def test_cli_loadtest_slo_json_report(tiny_server, capsys):
    from repro.cli import main

    code = main(
        ["loadtest", tiny_server.url, "--requests", "16",
         "--concurrency", "2", "--json", "--slo", "p99=60s"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["slo"]["ok"] is True
    assert set(report["slo"]["objectives"]) == {"p99_ms"}
