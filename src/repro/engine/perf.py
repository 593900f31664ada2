"""Lightweight perf counters for the run engine.

One process-global :data:`PERF` instance collects negotiation and cache
statistics as the substrate runs.  Worker processes reset their copy
after the fork, run their month chunk, and ship a snapshot back with
the month partition; the parent folds those into its own counters so a
parallel run reports fleet-wide totals.

Almost no imports from the rest of :mod:`repro` — the generator and
monitor increment these counters from the hot loop, and this module
sitting at the bottom of the import graph keeps that cycle-free.  The
one exception is :mod:`repro.obs.live` (the histogram primitive behind
the route ledger and duration counters), which itself imports nothing
from :mod:`repro` and sits at the same bottom layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.live import Histogram


#: Fields scoped to the parent run as a whole — never folded from a
#: worker snapshot.  ``workers`` and the wall clocks describe the merged
#: run, and ``worker_wall_times`` is appended explicitly by
#: :meth:`PerfCounters.merge_worker`.  Every field NOT named here is a
#: summable fleet counter and merges from every worker by default, so a
#: newly added counter is fleet-accurate without touching the merge
#: (the old hand-kept six-name list silently dropped everything else).
#: ``duration_histograms`` is NOT parent-only: histogram snapshots are
#: mergeable by design, and :meth:`PerfCounters.merge_worker` folds them
#: bucket-by-bucket instead of summing them as ints.
PARENT_ONLY_FIELDS = frozenset(
    {
        "run_seconds",
        "load_seconds",
        "workers",
        "worker_wall_times",
        "chunk_attribution",
        "http_route_latency",
    }
)

#: Fields holding name -> :class:`Histogram` dicts.  These DO merge
#: from workers — bucket-by-bucket via :meth:`Histogram.merge_snapshot`
#: rather than as summed ints.  The classification test in
#: ``tests/test_obs.py`` enforces every dataclass field is exactly one
#: of: summable int, parent-only, or histogram-valued.
HISTOGRAM_FIELDS = frozenset({"duration_histograms"})


@dataclass
class PerfCounters:
    """Counters for one process (or one merged fleet)."""

    #: Real ``ServerProfile.respond`` negotiations performed.
    negotiations: int = 0
    #: Handshakes answered from the generator's result cache.  Like the
    #: hello cache, it is consulted only when the template memo misses,
    #: so hits count template builds, never rows.
    handshake_cache_hits: int = 0
    #: Client Hellos actually built.
    hello_builds: int = 0
    #: Hellos answered from the generator's hello cache (per template
    #: build, see ``handshake_cache_hits``).
    hello_cache_hits: int = 0
    #: Connection records observed into stores.
    records: int = 0
    #: Records attached from a persistent-cache load (a warm run
    #: observes nothing, so this is its throughput numerator).
    records_loaded: int = 0
    #: Persistent dataset-cache hits / misses (load attempts).
    dataset_cache_hits: int = 0
    dataset_cache_misses: int = 0
    #: Chunk attempts re-queued after a worker failure or bad partition.
    chunk_retries: int = 0
    #: Chunks killed by the per-chunk timeout (then resharded).
    chunk_timeouts: int = 0
    #: Chunks that exhausted pool attempts and re-ran inline in the parent.
    inline_fallbacks: int = 0
    #: Months restored from checkpoint files instead of re-simulated.
    resumed_months: int = 0
    #: Months spilled to checkpoint files as their chunks finished.
    checkpointed_months: int = 0
    #: Cache blobs evicted by the size-capped LRU sweep.
    cache_evictions: int = 0
    #: Corrupt/stale cache and checkpoint files deleted on rejection.
    cache_corrupt_deleted: int = 0
    #: Cache writes that failed (disk errors are swallowed, counted).
    cache_write_failures: int = 0
    #: Faults fired by the injection plan (parent-side sites only count
    #: here; a crashed worker's counters die with it).
    faults_injected: int = 0
    #: Worker exceptions observed by the parent scheduler (each one is
    #: logged with its chunk context and re-queued as a retry).
    worker_errors: int = 0
    #: Partition payloads whose structural validation itself raised
    #: (damage severe enough to explode the checks, not just fail them).
    validation_errors: int = 0
    #: Sealed blobs that failed the read/verify path (then culled).
    cache_read_errors: int = 0
    #: Predicate/value evaluations against shape templates (one per
    #: template per compilation; memoization keeps this O(shapes) per
    #: distinct callable per dataset, not per month).
    shape_evals: int = 0
    #: Aggregate queries answered by the shape-compiled tier.
    shape_path_hits: int = 0
    #: Aggregate queries on packed months that fell back to a record
    #: scan (predicate or value function not shape-evaluable).
    scan_fallbacks: int = 0
    #: Aggregate queries answered by the vectorized (numpy) tier.
    vector_path_hits: int = 0
    #: Vector-tier attempts that didn't compile and dropped to the
    #: shape tier (numpy-absent months never count; the tier was off).
    vector_compile_misses: int = 0
    #: Explicit worker/chunk-span knob values beyond the CPU-reasonable
    #: bound (honored, but no longer silent — see
    #: :func:`repro.engine.runner._warn_oversubscribed`).
    oversubscription_warnings: int = 0
    #: HTTP requests answered by the resident server (any status).
    http_requests: int = 0
    #: HTTP responses with status >= 400 (client and server errors).
    http_errors: int = 0
    #: Served queries dispatched to the multi-process query-worker pool
    #: (``repro serve --query-workers``); 0 means the threaded path.
    query_pool_dispatches: int = 0
    #: Query-pool dispatches that failed and fell back to in-thread
    #: evaluation (a replica died or timed out; the answer is still
    #: served, byte-identically, by the parent).
    query_pool_fallbacks: int = 0
    #: Per-route latency ledger of the resident server: route ->
    #: ``{count, errors, total_seconds, max_seconds, histogram}`` where
    #: ``histogram`` is a bounded :class:`repro.obs.live.Histogram`
    #: (O(buckets) state forever — the fix for the old grow-per-request
    #: samples list).  Parent-only: a served process never merges
    #: another fleet's ledger.
    http_route_latency: dict = field(default_factory=dict)
    #: Named duration histograms: name -> :class:`Histogram`.  The batch
    #: runner observes ``simulate_month_seconds`` / ``chunk_seconds``
    #: here; workers ship snapshots and :meth:`merge_worker` folds them
    #: bucket-by-bucket, so ``stats --json`` reports fleet-wide latency
    #: *distributions*, not just totals.
    duration_histograms: dict = field(default_factory=dict)
    #: Wall seconds of the last full expectation run (serial or merged).
    run_seconds: float = 0.0
    #: Wall seconds of the last persistent-cache load.
    load_seconds: float = 0.0
    #: Workers used by the last engine run (0 = serial fallback).
    workers: int = 0
    #: Per-chunk wall seconds of the last parallel run (one entry per
    #: successfully merged chunk, in merge order).
    worker_wall_times: list[float] = field(default_factory=list)
    #: Which process ran which chunk attempt over which months (one
    #: entry per merged chunk: ``{chunk, attempt, months, pid, worker,
    #: wall, inline}``) — the parent-side join table the trace analyzer
    #: and ``stats --json`` consumers use for worker attribution.
    chunk_attribution: list[dict] = field(default_factory=list)

    # ---- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        fresh = PerfCounters()
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(fresh, name))

    def snapshot(self) -> dict:
        """A picklable copy of the counters (workers ship these back).

        Histogram values flatten to their :meth:`Histogram.snapshot`
        dicts, so the result stays pure JSON-safe data — what the pickle
        channel, ``stats --json``, and :meth:`merge_worker` all expect.
        """

        def _copy(value):
            if isinstance(value, Histogram):
                return value.snapshot()
            if isinstance(value, list):
                return [_copy(v) for v in value]
            if isinstance(value, dict):
                return {k: _copy(v) for k, v in value.items()}
            return value

        return {
            name: _copy(getattr(self, name))
            for name in self.__dataclass_fields__
        }

    def snapshot_ints(self) -> dict:
        """Just the summable int counters (the non-parent-only, non-
        histogram fields).  The serve-path query pool samples this
        before and after each dispatched query; the delta ships back
        and :meth:`add_ints` folds it, so pooled counters reconcile
        exactly with what an in-thread evaluation would have counted.
        """
        return {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if name not in PARENT_ONLY_FIELDS and name not in HISTOGRAM_FIELDS
        }

    def add_ints(self, delta: dict) -> None:
        """Fold a per-query int-counter delta from a pool replica."""
        for name, value in delta.items():
            if (
                name in self.__dataclass_fields__
                and name not in PARENT_ONLY_FIELDS
                and name not in HISTOGRAM_FIELDS
            ):
                setattr(self, name, getattr(self, name) + int(value))

    def observe_http(
        self,
        route: str,
        seconds: float,
        status: int,
        exemplar: dict | None = None,
    ) -> None:
        """Fold one served request into the counters and route ledger.

        Callers serialize (the server holds its perf lock); this method
        itself does no locking, matching every other counter here.  An
        ``exemplar`` (trace/span identity of this request) is pinned to
        the histogram bucket the duration lands in, most-recent-wins.
        """
        self.http_requests += 1
        error = status >= 400
        if error:
            self.http_errors += 1
        ledger = self.http_route_latency.get(route)
        if ledger is None:
            ledger = self.http_route_latency[route] = {
                "count": 0,
                "errors": 0,
                "total_seconds": 0.0,
                "max_seconds": 0.0,
                "histogram": Histogram(),
            }
        ledger["count"] += 1
        if error:
            ledger["errors"] += 1
        ledger["total_seconds"] += seconds
        if seconds > ledger["max_seconds"]:
            ledger["max_seconds"] = seconds
        ledger["histogram"].observe(seconds, exemplar=exemplar)

    def observe_duration(self, name: str, seconds: float) -> None:
        """Fold one duration into the named histogram (creating it on
        first sight).  Engine callers are single-threaded per process;
        like every other counter here, no locking."""
        hist = self.duration_histograms.get(name)
        if hist is None:
            hist = self.duration_histograms[name] = Histogram()
        hist.observe(seconds)

    def merge_worker(self, snap: dict, wall: float) -> None:
        """Fold one worker's snapshot into the fleet totals.

        Every summable field merges by default; only
        :data:`PARENT_ONLY_FIELDS` are excluded.  Summing by exclusion
        rather than inclusion is the fix for a long-standing accounting
        hole: the old explicit six-name list silently dropped worker-side
        ``cache_write_failures``, ``dataset_cache_hits``/``misses``,
        ``cache_corrupt_deleted`` — and every counter added since.
        ``duration_histograms`` merges bucket-by-bucket (histogram
        snapshots are mergeable by construction) instead of as an int.
        """
        for name in self.__dataclass_fields__:
            if name in PARENT_ONLY_FIELDS:
                continue
            if name in HISTOGRAM_FIELDS:
                for hist_name, hist_snap in (snap.get(name) or {}).items():
                    mine = self.duration_histograms.get(hist_name)
                    if mine is None:
                        mine = self.duration_histograms[hist_name] = Histogram(
                            tuple(hist_snap["bounds"])
                        )
                    mine.merge_snapshot(hist_snap)
                continue
            setattr(self, name, getattr(self, name) + int(snap.get(name, 0)))
        self.worker_wall_times.append(wall)

    # ---- derived ------------------------------------------------------------

    def records_per_second(self) -> float | None:
        """Throughput of however the records actually arrived.

        A simulated run reports against ``run_seconds``; a warm-cache
        run has ``run_seconds == 0`` but a real load wall, so it reports
        load-path throughput instead of hiding the number entirely.
        """
        if self.records > 0 and self.run_seconds > 0:
            return self.records / self.run_seconds
        loaded = self.records or self.records_loaded
        if loaded > 0 and self.load_seconds > 0:
            return loaded / self.load_seconds
        return None

    def render(self) -> str:
        """Human-readable block for ``python -m repro stats``."""
        lines = ["ENGINE PERF COUNTERS", "--------------------"]
        lines.append(f"workers             : {self.workers}")
        lines.append(f"negotiations        : {self.negotiations}")
        lines.append(f"handshake cache hits: {self.handshake_cache_hits}")
        lines.append(f"hello builds        : {self.hello_builds}")
        lines.append(f"hello cache hits    : {self.hello_cache_hits}")
        lines.append(f"records observed    : {self.records}")
        if self.records_loaded:
            lines.append(f"records loaded      : {self.records_loaded}")
        lines.append(f"dataset cache hits  : {self.dataset_cache_hits}")
        lines.append(f"dataset cache misses: {self.dataset_cache_misses}")
        lines.append(f"chunk retries       : {self.chunk_retries}")
        lines.append(f"chunk timeouts      : {self.chunk_timeouts}")
        lines.append(f"inline fallbacks    : {self.inline_fallbacks}")
        lines.append(f"resumed months      : {self.resumed_months}")
        lines.append(f"checkpointed months : {self.checkpointed_months}")
        lines.append(f"cache evictions     : {self.cache_evictions}")
        if self.cache_corrupt_deleted:
            lines.append(f"corrupt blobs culled: {self.cache_corrupt_deleted}")
        if self.cache_write_failures:
            lines.append(f"cache write failures: {self.cache_write_failures}")
        if self.faults_injected:
            lines.append(f"faults injected     : {self.faults_injected}")
        if self.worker_errors:
            lines.append(f"worker errors       : {self.worker_errors}")
        if self.validation_errors:
            lines.append(f"validation errors   : {self.validation_errors}")
        if self.cache_read_errors:
            lines.append(f"cache read errors   : {self.cache_read_errors}")
        if self.shape_evals or self.shape_path_hits or self.scan_fallbacks:
            lines.append(f"shape evals         : {self.shape_evals}")
            lines.append(f"shape path hits     : {self.shape_path_hits}")
            lines.append(f"scan fallbacks      : {self.scan_fallbacks}")
        if self.vector_path_hits or self.vector_compile_misses:
            lines.append(f"vector path hits    : {self.vector_path_hits}")
            lines.append(f"vector compile miss : {self.vector_compile_misses}")
        if self.http_requests:
            lines.append(f"http requests       : {self.http_requests}")
            lines.append(f"http errors         : {self.http_errors}")
            for route in sorted(self.http_route_latency):
                ledger = self.http_route_latency[route]
                mean_ms = ledger["total_seconds"] / ledger["count"] * 1e3
                hist = ledger["histogram"]
                lines.append(
                    f"  {route:<18}: {ledger['count']} req, "
                    f"mean {mean_ms:.2f} ms, "
                    f"p50 {hist.percentile(50) * 1e3:.2f} ms, "
                    f"p99 {hist.percentile(99) * 1e3:.2f} ms, "
                    f"max {ledger['max_seconds'] * 1e3:.2f} ms"
                )
        if self.duration_histograms:
            lines.append("duration histograms :")
            for name in sorted(self.duration_histograms):
                hist = self.duration_histograms[name]
                lines.append(
                    f"  {name:<18}: {hist.count} obs, "
                    f"p50 {hist.percentile(50) * 1e3:.2f} ms, "
                    f"p99 {hist.percentile(99) * 1e3:.2f} ms, "
                    f"max {hist.max * 1e3:.2f} ms"
                )
        if self.load_seconds > 0:
            lines.append(f"cache load seconds  : {self.load_seconds:.3f}")
        if self.run_seconds > 0:
            lines.append(f"run seconds         : {self.run_seconds:.3f}")
        rps = self.records_per_second()
        if rps is not None:
            lines.append(f"records/s           : {rps:,.0f}")
        if self.worker_wall_times:
            walls = ", ".join(f"{w:.2f}s" for w in self.worker_wall_times)
            lines.append(f"chunk wall times    : {walls}")
        return "\n".join(lines)


#: The process-global counter set.
PERF = PerfCounters()
