"""The open-loop generator against a stub server: every scheduled request
is counted, failures are loud, latency runs from the due time."""

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import loadgen


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    fail_kind = None

    def log_message(self, *args):
        pass

    def _answer(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        status = 500 if self.path == self.fail_path else 200
        body = b"# metrics\n" if self.path == "/metrics" else b'{"api": 1}'
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _answer


@pytest.fixture
def stub():
    servers = []

    def start(fail_path=None):
        handler = type("H", (Handler,), {"fail_path": fail_path})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return server.server_address[1]

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(5)


def test_mix_shares_and_seeded_shuffle():
    kinds = loadgen.mix_kinds(1000, seed=3)
    assert len(kinds) == 1000
    assert kinds.count("metrics") == 10
    assert kinds.count("figures/fig1") == 80
    assert kinds.count("query/position_series") == 20
    assert kinds == loadgen.mix_kinds(1000, seed=3)
    assert kinds != loadgen.mix_kinds(1000, seed=4)
    assert len(loadgen.mix_kinds(37, seed=1)) == 37


def test_every_request_answered(stub):
    port = stub()
    phase = loadgen.run_phase("127.0.0.1", port, rate=200, duration=0.5, seed=1)
    assert phase.scheduled == 100
    assert len(phase.ok) == 100 and phase.failed == []
    summary = loadgen.summarize(phase)
    assert summary["ok"] == 100 and summary["failed"] == 0
    assert 0 < summary["p50_ms"] <= summary["p99_ms"]
    assert set(phase.bodies) <= set(loadgen.MIX)


def test_non_200_counts_as_failed(stub):
    port = stub(fail_path="/healthz")
    phase = loadgen.run_phase("127.0.0.1", port, rate=400, duration=0.5, seed=2)
    healthz = [f for f in phase.failed if f[0] == "healthz"]
    assert healthz and all(reason == "HTTP 500" for _, _, reason in healthz)
    assert len(phase.ok) + len(phase.failed) == phase.scheduled
    assert loadgen.summarize(phase)["failed"] == len(healthz)


def test_refused_connect_fails_every_request():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    phase = loadgen.run_phase("127.0.0.1", port, rate=200, duration=0.2, seed=1)
    assert phase.ok == [] and len(phase.failed) == phase.scheduled == 40
    summary = loadgen.summarize(phase)
    assert summary["p50_ms"] == float("inf")


def test_summary_times_latency_from_due():
    phase = loadgen.Phase(rate=10.0, scheduled=2, t0=0.0)
    # Due at 0.0, sent 0.5 s late (connections busy), answered at 1.0.
    phase.ok.append(("healthz", 0.0, 0.5, 0.6, 1.0, 200, 10))
    phase.ok.append(("healthz", 0.1, 0.1, 0.15, 0.2, 200, 10))
    summary = loadgen.summarize(phase)
    assert summary["p99_ms"] == pytest.approx(1000.0)
    assert summary["p50_ms"] == pytest.approx(100.0)
    assert summary["late_mean_ms"] == pytest.approx(250.0)
    assert summary["ttfb_p50_ms"] == pytest.approx(50.0)
    assert summary["achieved_rps"] == pytest.approx(2.0)
