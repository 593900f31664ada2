"""Open-loop HTTP load generator for the ``serve_api`` workload.

Requests arrive on a fixed schedule (evenly spaced at the phase's rate)
whether or not earlier ones have been answered, the way independent
users arrive.  Two worker threads each hold one keep-alive connection
and take the next due request; when both are busy the request waits,
and that wait is charged to it: latency runs from the request's *due*
time, and the generator's lateness (sent minus due) is reported, so a
stall shows up in every request queued behind it.

Every scheduled request ends as exactly one of: answered with status
200 (``ok``), or failed -- an exception, a refused connect, a non-200
status, a ``/metrics`` body that is not a Prometheus exposition, or
never sent before the phase's hard deadline.
``run_phase`` asserts ``ok + failed == scheduled``.

The module imports nothing from ``repro``: the generator must not
share an interpreter (or a GIL) with the program it measures.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field

import arith

#: Figures served in the mix.  fig4 (~150 ms, shape-template walk) and
#: fig5 (~20 ms) are left out on purpose: one 150 ms request class in a
#: mix of 1 ms requests makes the threaded server's p50 swing with GIL
#: head-of-line blocking (see README.md); their cost is measured by
#: ``study_warm``.
SERVE_FIGURES = ("fig1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10")

#: The four ``POST /query`` documents of the mix.
SERVE_QUERIES = {
    "composite_series": {
        "kind": "fraction",
        "predicate": {
            "op": "all",
            "args": [
                {"op": "version", "value": "TLSv12"},
                {"op": "any", "args": [
                    {"op": "mode", "value": "AEAD"},
                    {"op": "kex", "value": "ECDHE"},
                ]},
            ],
        },
        "within": {"op": "established"},
        "month": None,
    },
    "weight": {
        "kind": "weight",
        "predicate": {"op": "advertises", "value": "rc4"},
        "month": None,
    },
    "position_series": {
        "kind": "weighted_mean",
        "value": {"op": "position_of", "tag": "aead"},
        "month": None,
    },
    "month_fraction": {
        "kind": "fraction",
        "predicate": {"op": "not", "arg": {"op": "mode", "value": "RC4"}},
        "within": {"op": "established"},
        "month": "2015-06-01",
    },
}

#: Request kind -> share of the mix in percent.  The slowest class (the
#: ``position_series`` query, ~6 ms) holds 2%, so the nominal p99 falls at
#: that class's median instead of in its tail, where the host's stalls
#: live.  Alternating 15 s phases on one server, p99 read 6.4-7.7 ms at 2%
#: but 6.8-14.7 ms at 9%.
MIX = {
    **{f"figures/{name}": 8 for name in SERVE_FIGURES},
    "query/composite_series": 9,
    "query/weight": 9,
    "query/month_fraction": 9,
    "query/position_series": 2,
    "healthz": 6,
    "metrics": 1,
}
assert sum(MIX.values()) == 100


def request_bytes(kind: str, host: str) -> bytes:
    """The raw HTTP/1.1 keep-alive request for one mix kind."""
    if kind.startswith("query/"):
        body = json.dumps(SERVE_QUERIES[kind[len("query/"):]]).encode("utf-8")
        head = (
            f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("ascii") + body
    path = "/" + kind
    return f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")


def mix_kinds(count: int, seed: int) -> list[str]:
    """``count`` request kinds in the mix's shares (largest remainder),
    shuffled by ``seed``."""
    exact = {kind: share * count / 100.0 for kind, share in MIX.items()}
    kinds = {kind: int(value) for kind, value in exact.items()}
    left = count - sum(kinds.values())
    for kind in sorted(exact, key=lambda k: (kinds[k] - exact[k], k))[:left]:
        kinds[kind] += 1
    out = [kind for kind in sorted(kinds) for _ in range(kinds[kind])]
    random.Random(seed).shuffle(out)
    return out


# ---- one connection ----------------------------------------------------------


class HttpError(Exception):
    """A malformed or truncated response."""


class Connection:
    """One keep-alive HTTP/1.1 connection with first/last byte stamps."""

    def __init__(self, host: str, port: int, timeout: float, clock) -> None:
        self.clock = clock
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        self.sock.close()

    def exchange(self, raw: bytes):
        """Send one request; return ``(status, body, first_byte, last_byte)``."""
        self.sock.sendall(raw)
        buf = b""
        first = None
        while b"\r\n\r\n" not in buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise HttpError("connection closed before the headers")
            if first is None:
                first = self.clock()
            buf += chunk
        head, _, rest = buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        parts = lines[0].split(b" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise HttpError(f"bad status line {lines[0][:80]!r}")
        length = None
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        if length is None:
            raise HttpError("response without Content-Length")
        body = bytearray(rest)
        while len(body) < length:
            chunk = self.sock.recv(max(65536, length - len(body)))
            if not chunk:
                raise HttpError("connection closed inside the body")
            body += chunk
        if len(body) != length:
            raise HttpError("response longer than its Content-Length")
        return int(parts[1]), bytes(body), first, self.clock()


# ---- one phase ---------------------------------------------------------------


@dataclass
class Phase:
    """The outcome of one open-loop phase."""

    rate: float
    scheduled: int
    t0: float = 0.0
    #: (kind, due, sent, first_byte, last_byte, status, nbytes) per ok request
    ok: list = field(default_factory=list)
    #: (kind, due, reason) per failed request
    failed: list = field(default_factory=list)
    #: kind -> {body: count}, checked against the in-process answers
    #: (``/metrics`` changes with every scrape; only its format is checked)
    bodies: dict = field(default_factory=dict)


def run_phase(
    host: str,
    port: int,
    rate: float,
    duration: float,
    seed: int,
    connections: int = 2,
    timeout: float = 30.0,
    clock=time.perf_counter,
) -> Phase:
    """Drive ``rate * duration`` requests of the mix at ``rate``."""
    count = max(1, round(rate * duration))
    kinds = mix_kinds(count, seed)
    hostname = f"{host}:{port}"
    raws = {kind: request_bytes(kind, hostname) for kind in MIX}
    phase = Phase(rate=rate, scheduled=count)
    lock = threading.Lock()
    cursor = [0]
    deadline_after = 2.0 * duration + 10.0

    def take() -> int | None:
        with lock:
            i = cursor[0]
            if i >= count:
                return None
            cursor[0] += 1
            return i

    def fail(kind: str, due: float, reason: str) -> None:
        with lock:
            phase.failed.append((kind, due, reason))

    def worker() -> None:
        conn = None
        try:
            while True:
                i = take()
                if i is None:
                    return
                kind = kinds[i]
                due = phase.t0 + i / rate
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                if clock() - phase.t0 > deadline_after:
                    fail(kind, due, "unsent: phase deadline passed")
                    continue
                try:
                    if conn is None:
                        conn = Connection(host, port, timeout, clock)
                    sent = clock()
                    status, body, first, last = conn.exchange(raws[kind])
                except (OSError, HttpError, ValueError) as exc:
                    fail(kind, due, f"{type(exc).__name__}: {exc}")
                    if conn is not None:
                        conn.close()
                        conn = None
                    continue
                if status != 200:
                    fail(kind, due, f"HTTP {status}")
                    continue
                if kind == "metrics" and not body.startswith(b"# "):
                    fail(kind, due, "not a Prometheus exposition")
                    continue
                with lock:
                    phase.ok.append((kind, due, sent, first, last, status, len(body)))
                    if kind != "metrics":
                        seen = phase.bodies.setdefault(kind, {})
                        seen[body] = seen.get(body, 0) + 1
        except BaseException as exc:  # counted, never silent
            fail("?", clock(), f"worker died: {type(exc).__name__}: {exc}")
            raise
        finally:
            if conn is not None:
                conn.close()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{n}", daemon=True)
        for n in range(connections)
    ]
    phase.t0 = clock() + 0.05
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(deadline_after + timeout + 5.0)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    # A dead worker recorded its own request as failed; requests no
    # worker took are failed too.  Then the books must balance.
    for i in range(cursor[0], count):
        fail(kinds[i], phase.t0 + i / rate, "unsent: no live worker")
    arith.check_accounting(count, len(phase.ok), len(phase.failed))
    return phase


def summarize(phase: Phase) -> dict:
    """Latency percentiles, achieved rate and generator lateness."""
    lat_ms = [arith.latency(due, last) * 1e3 for _, due, _, _, last, _, _ in phase.ok]
    sample = arith.latencies_with_failures(lat_ms, len(phase.failed))
    late_ms = sorted(
        (due, arith.lateness(due, sent) * 1e3) for _, due, sent, *_ in phase.ok
    )
    tail = [late for _, late in late_ms[int(len(late_ms) * 0.9):]] or [0.0]
    ends = [last for *_, last, _, _ in phase.ok]
    span = (max(ends) - phase.t0) if ends else float("inf")
    ttfb_ms = [(first - sent) * 1e3 for _, _, sent, first, *_ in phase.ok]
    return {
        "offered_rps": phase.rate,
        "scheduled": phase.scheduled,
        "ok": len(phase.ok),
        "failed": len(phase.failed),
        "p50_ms": arith.nearest_rank(sample, 50),
        "p99_ms": arith.nearest_rank(sample, 99),
        "beyond_p99": arith.beyond(len(sample), 99),
        "mean_ms": sum(lat_ms) / len(lat_ms) if lat_ms else float("inf"),
        "achieved_rps": len(phase.ok) / span if span > 0 else 0.0,
        "wall_s": span,
        "late_mean_ms": sum(l for _, l in late_ms) / len(late_ms) if late_ms else 0.0,
        "late_tail_ms": max(tail),
        "ttfb_p50_ms": arith.nearest_rank(ttfb_ms, 50) if ttfb_ms else 0.0,
        "bytes": sum(n for *_, n in phase.ok),
    }
