"""Layer spans recorded from outside the program, by wrapping the public
functions each layer exposes.

The tracer replaces a function with a wrapper that opens a span, calls
the original and closes the span.  A span's *self time* is its duration
minus the time its child spans cover; children run on the same thread
inside their parent, so that is the parent's duration minus the sum of
its children's.

Spans closed in the process that installed the tracer stay in memory
(``spans``) and are written out when the run ends.  Fork workers inherit
the wrappers; there a span folds into named histograms of the program's
own ``PERF.observe_duration``, which the run engine already ships back
and merges from every worker, so no second channel is needed.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

#: Prefix of the worker-side duration histograms this tracer feeds.
HIST_PREFIX = "perfbench:"


class Tracer:
    """Per-layer call counts, total and self time, plus the span list."""

    def __init__(self, clock=time.perf_counter, worker_sink=None) -> None:
        self.clock = clock
        #: False in a process forked after the tracer was made.
        self.in_owner = True
        os.register_at_fork(after_in_child=self._forked)
        #: Called as ``worker_sink(name, total_s, self_s, items)`` for a
        #: span closed in another process than the owner.
        self.worker_sink = worker_sink
        #: Completed spans of the owner process:
        #: ``(id, parent_id, name, start, end)``.
        self.spans: list[tuple] = []
        #: name -> [calls, total_s, self_s, items]
        self.totals: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _forked(self) -> None:
        self.in_owner = False

    # ---- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][3] if stack else None
        frame = [name, self.clock(), 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def end(self, frame: list, items: int = 0) -> None:
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, start, children = frame[0], frame[1], frame[2]
        total = end - start
        own = total - children
        if stack:
            stack[-1][2] += total
        if not self.in_owner:
            if self.worker_sink is not None:
                self.worker_sink(name, total, own, items)
            return
        self.spans.append((frame[3], frame[4], name, start, end))
        with self._lock:
            row = self.totals.get(name)
            if row is None:
                row = self.totals[name] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += total
            row[2] += own
            row[3] += items

    # ---- wrapping --------------------------------------------------------------

    def wrap(self, target, attr, name: str, count=None) -> None:
        """Replace ``target.attr`` (or ``target[attr]`` for a dict) with a
        spanned wrapper; ``count(result)`` adds to the layer's items."""
        is_map = isinstance(target, dict)
        original = target[attr] if is_map else getattr(target, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name)
            items = 0
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    items = count(result)
                return result
            finally:
                tracer.end(frame, items)

        if is_map:
            target[attr] = wrapper
        else:
            setattr(target, attr, wrapper)

    # ---- results ---------------------------------------------------------------

    def fold_histograms(self, histograms: dict) -> None:
        """Add the worker-side totals that came back as duration
        histograms (``PERF.snapshot()["duration_histograms"]``)."""
        for key, hist in histograms.items():
            if not key.startswith(HIST_PREFIX):
                continue
            name, _, part = key[len(HIST_PREFIX):].partition("|")
            row = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            if part == "total":
                row[0] += hist["count"]
                row[1] += hist["sum"]
            elif part == "self":
                row[2] += hist["sum"]
            elif part == "items":
                row[3] += int(round(hist["sum"]))

    def layer(self, name: str) -> dict:
        calls, total, own, items = self.totals.get(name, (0, 0.0, 0.0, 0))
        return {"calls": calls, "total_s": total, "self_s": own, "items": items}

    def write(self, path) -> None:
        """Write the owner's spans (columnar) and the layer totals."""
        names: dict[str, int] = {}
        columns = {"id": [], "parent": [], "name": [], "start": [], "end": []}
        base = self.spans[0][3] if self.spans else 0.0
        for span_id, parent, name, start, end in self.spans:
            columns["id"].append(span_id)
            columns["parent"].append(parent)
            columns["name"].append(names.setdefault(name, len(names)))
            columns["start"].append(round(start - base, 7))
            columns["end"].append(round(end - base, 7))
        doc = {
            "names": sorted(names, key=names.get),
            "spans": columns,
            "layers": {name: self.layer(name) for name in sorted(self.totals)},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def perf_sink(perf):
    """A worker sink feeding the program's duration histograms."""

    def sink(name: str, total: float, own: float, items: int) -> None:
        perf.observe_duration(f"{HIST_PREFIX}{name}|total", total)
        perf.observe_duration(f"{HIST_PREFIX}{name}|self", own)
        if items:
            perf.observe_duration(f"{HIST_PREFIX}{name}|items", items)

    return sink


def install_repro(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured ``repro`` layer."""
    from pathlib import Path

    from repro.clients.profile import ClientRelease
    from repro.core import figures, report, tables
    from repro.engine import cache, partition
    from repro.notary import events, monitor
    from repro.notary import store as notary_store
    from repro.scanner import censys
    from repro.servers.config import ServerProfile

    def blob_bytes(path) -> int:
        return Path(path).stat().st_size if path is not None else 0

    wrap = tracer.wrap
    wrap(events, "make_record", "notary.events.make_record")
    wrap(monitor, "make_record", "notary.events.make_record")
    wrap(ServerProfile, "respond", "servers.respond")
    wrap(ClientRelease, "build_hello", "clients.build_hello")
    wrap(monitor.PassiveMonitor, "observe", "notary.monitor.observe")
    wrap(partition.StreamPacker, "add", "engine.partition.pack")
    wrap(partition.StreamPacker, "finish", "engine.partition.pack")
    wrap(partition.PackedDataset, "materialize", "engine.partition.materialize", len)
    wrap(cache.Checkpoint, "save_months", "engine.cache.checkpoint_save")
    wrap(cache.BlobSpill, "add_payload", "engine.cache.spill")
    wrap(notary_store, "build_index_payloads", "notary.store.index_build")
    wrap(cache, "save_store", "engine.cache.save", blob_bytes)
    wrap(cache, "load_store", "engine.cache.load")
    for fig, generator in list(figures.FIGURE_GENERATORS.items()):
        wrap(figures.FIGURE_GENERATORS, fig, f"core.figures.{fig}")
        wrap(figures, generator.__name__, f"core.figures.{fig}")
    wrap(figures, "evaluate_all", "core.figures.all")
    wrap(report, "build_report", "core.report.build")
    wrap(tables, "table2_fingerprint_summary", "core.tables.table2")
    wrap(censys.CensysArchive, "run_schedule", "scanner.censys")
    wrap(censys, "grab", "scanner.grab")
