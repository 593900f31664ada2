"""Trace analyzer tests: reconstruct real parallel faulted runs from
their JSONL sink and verify the tree, critical path, utilization,
fault attribution, and Chrome-trace export.

The acceptance fixture is the real thing — a 4-worker run with
injected crashes whose sink a module-scoped fixture produces once —
plus synthetic event streams for the edge cases (orphans, trace
selection, torn files) that a healthy engine never emits.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

import pytest

from repro import obs
from repro.engine import faults, runner
from repro.engine.perf import PERF
from repro.obs import analyze

START = dt.date(2014, 6, 1)
END = dt.date(2014, 9, 1)


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_METRICS_PATH", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    obs.TRACE.reset()
    faults.clear()
    yield
    obs.TRACE.reset()
    faults.clear()


@pytest.fixture(scope="module")
def faulted_sink(tmp_path_factory, client_population, server_population):
    """One real parallel faulted run's metrics sink + its store size."""
    base = tmp_path_factory.mktemp("analyze")
    sink = base / "metrics.jsonl"
    import os

    os.environ["REPRO_METRICS_PATH"] = str(sink)
    os.environ["REPRO_CACHE_DIR"] = str(base / "cache")
    obs.TRACE.reset()
    try:
        store = runner.run_expectation(
            client_population, server_population, START, END,
            workers=4, chunk_months=1, faults_spec="worker_crash:0.25,seed:5",
        )
    finally:
        os.environ.pop("REPRO_METRICS_PATH", None)
        faults.clear()
    return sink, len(store)


@pytest.fixture(scope="module")
def analysis(faulted_sink):
    sink, _records = faulted_sink
    return analyze.analyze(analyze.load_events(sink))


# ---- loading & trace selection ----------------------------------------------


class TestLoading:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(analyze.TraceError, match="does not exist"):
            analyze.load_events(tmp_path / "absent.jsonl")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(analyze.TraceError, match="no events"):
            analyze.load_events(path)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"ts": 1.0, "event": "run_start", "trace_id": "t1", "pid": 1}\n'
            '{"ts": 2.0, "event": "run_comp'
        )
        events = analyze.load_events(path)
        assert [e["event"] for e in events] == ["run_start"]

    def test_malformed_middle_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"ts": 1.0, "event": "a", "trace_id": "t1", "pid": 1}\n'
            "not json\n"
            '{"ts": 2.0, "event": "b", "trace_id": "t1", "pid": 1}\n'
        )
        with pytest.raises(analyze.TraceError, match=":2"):
            analyze.load_events(path)

    def test_select_trace_prefers_last_run_start(self):
        events = [
            {"event": "run_start", "trace_id": "old", "ts": 1.0},
            {"event": "run_complete", "trace_id": "old", "ts": 2.0},
            {"event": "run_start", "trace_id": "new", "ts": 3.0},
        ]
        assert analyze.select_trace(events) == "new"
        assert analyze.select_trace(events, "old") == "old"

    def test_select_unknown_trace_raises(self):
        events = [{"event": "run_start", "trace_id": "t1", "ts": 1.0}]
        with pytest.raises(analyze.TraceError, match="not present"):
            analyze.select_trace(events, "nope")


# ---- tree reconstruction on the real run ------------------------------------


class TestRealRunTree:
    def test_rooted_tree_with_no_orphans(self, analysis):
        assert analysis.root is not None
        assert analysis.root.name == "run_expectation"
        assert analysis.orphans == 0
        # Every reconstructed span is reachable from the root.
        reachable = sum(1 for _ in analysis.root.walk())
        assert reachable == analysis.span_count()

    def test_worker_subtrees_grafted_under_root(self, analysis):
        chunk_nodes = [
            n for n in analysis.root.children if n.name == "run_chunk"
        ]
        assert chunk_nodes, "no worker chunk spans under the run root"
        assert {n.pid for n in chunk_nodes} != {analysis.root.pid}
        for node in chunk_nodes:
            months = [c for c in node.children if c.name == "simulate_month"]
            assert months, f"chunk span {node.key} has no month children"
            for month in months:
                assert month.pid == node.pid

    def test_summary_reconciles_with_run(self, analysis, faulted_sink):
        _sink, records = faulted_sink
        summary = analyze.summarize(analysis)
        assert summary["records"] == records
        assert summary["retries"] > 0  # the fault schedule did fire
        assert summary["faults"] > 0
        assert summary["orphans"] == 0
        assert summary["workers"] >= 2
        assert summary["wall_seconds"] > 0

    def test_critical_path_descends_to_a_leaf(self, analysis):
        path = analyze.critical_path(analysis)
        assert path[0] is analysis.root
        assert not path[-1].children
        # Monotone containment: every hop starts within its parent's
        # window and the path is the last-finishing descent.
        for parent, child in zip(path, path[1:]):
            assert child in parent.children
            assert child.end == max(n.end for n in parent.children)

    def test_utilization_ledger(self, analysis):
        util = analyze.utilization(analysis)
        workers = [r for r in util["workers"] if r["kind"] == "worker"]
        assert len(workers) >= 2
        assert util["straggler_pid"] in {r["pid"] for r in workers}
        # A 4-month window is dominated by pool startup, so the ratio
        # is small — but it must be positive and consistent with the
        # per-worker ledger.
        busy_total = sum(r["busy_seconds"] for r in util["workers"])
        assert util["effective_parallelism"] == pytest.approx(
            busy_total / util["window_seconds"], rel=1e-9
        )
        assert util["effective_parallelism"] > 0.0
        for row in workers:
            assert row["busy_seconds"] > 0
            assert row["busy_seconds"] + row["idle_seconds"] == pytest.approx(
                util["window_seconds"], rel=1e-6
            )
            assert 0.0 <= row["utilization"] <= 1.0 + 1e-9

    def test_fault_attribution_joins_chunks_to_months(self, analysis):
        attribution = analyze.fault_attribution(analysis)
        assert attribution["chunks"], "faulted run attributed no chunks"
        assert attribution["months"], "faulted run attributed no months"
        total_chunk_retries = sum(
            row["retries"] for row in attribution["chunks"].values()
        )
        events = [e for e in analysis.events if e.get("event") == "chunk_retry"]
        assert total_chunk_retries == len(events)
        # Months attributed through the chunk->months join are real
        # months of the run window.
        for iso in attribution["months"]:
            month = dt.date.fromisoformat(iso)
            assert START <= month <= END


# ---- synthetic edge cases ---------------------------------------------------


def _span_event(tid, pid, sid, parent, name, start, dur, depth=0):
    return {
        "ts": start, "event": "span", "trace_id": tid, "pid": pid,
        "id": sid, "parent_id": parent, "name": name, "start": start,
        "duration": dur, "depth": depth, "span_pid": pid,
        "origin": "parent", "attrs": {},
    }


class TestSyntheticTrees:
    def test_missing_parent_is_adopted_and_counted(self):
        events = [
            {"event": "run_start", "trace_id": "t", "ts": 0.0, "pid": 10},
            _span_event("t", 10, 0, None, "root", 0.0, 10.0),
            # Recorded parent id 99 never shipped: a torn worker trace.
            _span_event("t", 11, 3, 99, "stray", 2.0, 1.0, depth=2),
        ]
        analysis = analyze.analyze(events)
        assert analysis.root.name == "root"
        assert analysis.orphans == 1
        (stray,) = [n for n in analysis.root.children if n.name == "stray"]
        assert stray.adopted

    def test_duplicate_names_resolve_by_id(self):
        events = [
            {"event": "run_start", "trace_id": "t", "ts": 0.0, "pid": 10},
            _span_event("t", 10, 0, None, "root", 0.0, 10.0),
            _span_event("t", 10, 1, 0, "work", 1.0, 2.0, depth=1),
            _span_event("t", 10, 2, 0, "work", 4.0, 2.0, depth=1),
            _span_event("t", 10, 3, 2, "step", 4.5, 1.0, depth=2),
        ]
        analysis = analyze.analyze(events)
        works = [n for n in analysis.root.children if n.name == "work"]
        assert [w.id for w in works] == [1, 2]
        assert works[0].children == []
        assert [c.name for c in works[1].children] == ["step"]

    def test_serial_run_has_no_worker_rows(self):
        events = [
            {"event": "run_start", "trace_id": "t", "ts": 0.0, "pid": 10},
            _span_event("t", 10, 0, None, "run_expectation", 0.0, 5.0),
        ]
        analysis = analyze.analyze(events)
        util = analyze.utilization(analysis)
        assert util["workers"] == []
        assert util["straggler_pid"] is None


# ---- Chrome-trace export ----------------------------------------------------


class TestChromeTrace:
    def test_structure_is_valid_trace_event_format(self, analysis, tmp_path):
        out = tmp_path / "trace.json"
        analyze.write_chrome_trace(analysis, out)
        document = json.loads(out.read_text())
        assert set(document) >= {"traceEvents", "displayTimeUnit"}
        events = document["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        for event in events:
            assert {"ph", "name", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
                assert isinstance(event["args"]["span_id"], int)
            if event["ph"] == "i":
                assert event["s"] == "p"
        # One X event per reconstructed span; one M lane per process.
        x_events = [e for e in events if e["ph"] == "X"]
        assert len(x_events) == analysis.span_count()
        lanes = {e["pid"] for e in events if e["ph"] == "M"}
        assert lanes == {n.pid for n in analysis.spans.values()}

    def test_fault_markers_are_instants(self, analysis):
        document = analyze.chrome_trace(analysis)
        markers = [
            e for e in document["traceEvents"]
            if e["ph"] == "i" and e["name"] == "fault"
        ]
        assert markers, "faulted run exported no fault markers"
        for marker in markers:
            assert "token" in marker["args"]


# ---- the CLI entry point ----------------------------------------------------


class TestTraceCli:
    def test_all_report_modes(self, faulted_sink, capsys):
        from repro.cli import main

        sink, _records = faulted_sink
        assert main([
            "trace", str(sink), "--summary", "--critical-path",
            "--utilization", "--faults-report",
        ]) == 0
        out = capsys.readouterr().out
        assert "TRACE SUMMARY" in out
        assert "CRITICAL PATH" in out
        assert "WORKER UTILIZATION" in out
        assert "FAULT / RETRY ATTRIBUTION" in out

    def test_default_mode_is_summary(self, faulted_sink, capsys):
        from repro.cli import main

        sink, _records = faulted_sink
        assert main(["trace", str(sink)]) == 0
        assert "TRACE SUMMARY" in capsys.readouterr().out

    def test_run_then_trace_pair(self, tmp_path, capsys, monkeypatch):
        """The documented two-command flow: run --metrics, then trace it."""
        from repro.cli import main
        from repro.simulation import ecosystem

        small = ecosystem.EcosystemModel(
            start=dt.date(2014, 6, 1),
            end=dt.date(2014, 7, 1),
            use_cache=False,
            workers=0,
        )
        monkeypatch.setattr(ecosystem, "_DEFAULT_MODEL", small)
        sink = tmp_path / "m.jsonl"
        # ``run --metrics`` exports the sink path into os.environ; set it
        # through monkeypatch so teardown removes it, or every later test
        # in the session keeps appending its events to this file.
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        assert main(["run", "--metrics", str(sink)]) == 0
        run_out = capsys.readouterr().out
        assert "run complete" in run_out
        assert str(sink) in run_out
        assert main(["trace", str(sink), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "TRACE SUMMARY" in out
        assert "orphans reattached   0" in out or "orphan" in out

    def test_chrome_export(self, faulted_sink, tmp_path, capsys):
        from repro.cli import main

        sink, _records = faulted_sink
        out = tmp_path / "chrome.json"
        assert main(["trace", str(sink), "--chrome", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["traceEvents"]

    def test_trace_never_rotates_the_sink(self, faulted_sink, monkeypatch):
        """A reader invoked with REPRO_METRICS_PATH pointing at the file
        it analyzes must not rotate it away."""
        from repro.cli import main
        from repro.obs import metrics

        sink, _records = faulted_sink
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        monkeypatch.setattr(metrics, "_ROTATED", False)
        before = sink.read_bytes()
        assert main(["trace", str(sink)]) == 0
        assert sink.exists() and sink.read_bytes() == before
        assert not Path(f"{sink}.1").exists()

    def test_missing_sink_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err
