"""The engine scheduler: month-sharded expectation runs over pluggable
execution backends, resilient to worker crashes, hangs, and corrupted
partitions.

Months are independent in expectation mode — every record of month *m*
is a deterministic function of the populations and *m* alone (hello
seeds are stable across processes, see
:func:`repro.notary.generator._release_seed`) — so the full study
shards by month.  Months are split into small contiguous chunks (a few
per worker, so the pool balances dynamically and a lost chunk loses
little work); each worker runs its chunks with its own hello/result
caches, packs the resulting records into compact partitions
(:mod:`repro.engine.partition`), and the parent merges partitions into
one :class:`~repro.notary.store.NotaryStore`.  Because a month's
records always come from exactly one chunk, in generation order, the
merged store is *identical* to a serial run — including float summation
order in every aggregate — no matter how chunks are grouped, retried,
or resharded.

Failure handling, in escalation order:

* **Retry with backoff** — a chunk whose worker raises (or ships a
  partition that fails :func:`repro.engine.partition.validate_payload`)
  is re-queued with a capped exponential backoff between rounds.
* **Timeout, kill and reshard** — every chunk is collected through
  ``AsyncResult.get(timeout)`` (per-chunk submission rather than one
  ``map``, so one bad chunk cannot poison the batch); a round past its
  deadline terminates the pool — killing hung workers — and the
  unfinished chunks are split in half and re-queued.
* **Inline fallback** — a chunk that exhausts its pool attempts is
  re-run serially in the parent under :func:`repro.engine.faults.suppressed`,
  which is what guarantees termination even at 100% injected fault
  rates.

Finished chunks are immediately spilled as per-month checkpoint files
(:class:`repro.engine.cache.Checkpoint`), so a run killed outright can
resume (``resume=True`` / ``--resume`` / ``REPRO_RESUME=1``) and
re-simulate only the months that never completed.  Checkpoints are
cleared when a run finishes cleanly; ``REPRO_CHECKPOINT=0`` disables
the spill entirely.

This module is pure *policy*: chunking, sliding-window submission,
retry/backoff, deadlines with kill-and-reshard, checkpoint adoption,
and the fault-suppressed inline fallback.  *Placement* — where a chunk
actually executes — lives behind the executor interface
(:mod:`repro.engine.executors`): ``fork`` (pool workers inheriting
populations through fork memory), ``spawn`` (picklable payloads +
explicit worker init, the multi-node-shaped backend), or ``inline``
(synchronous in-parent execution).  Selection: ``backend=`` argument >
``REPRO_BACKEND`` > platform default.  The scheduling loop is
backend-agnostic; the differential and fault suites assert every
backend produces byte-identical stores.

Worker count resolution: explicit argument, else ``REPRO_WORKERS``,
else ``os.cpu_count()``.  ``0`` or ``1`` takes the serial fallback;
negative values are malformed and fall back to the CPU count.  A count
beyond twice the CPU count is honored but flagged — a diagnostic
warning plus the ``oversubscription_warnings`` counter — instead of
silently oversubscribing the host.
"""

from __future__ import annotations

import datetime as _dt
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.engine import executors, faults
from repro.engine.partition import (
    PackedDataset,
    StreamPacker,
    split_by_month,
    validate_payload,
)
from repro.engine.perf import PERF
from repro.notary.generator import TrafficGenerator
from repro.notary.monitor import PassiveMonitor
from repro.notary.store import NotaryStore, month_range

_log = obs.get_logger("repro.engine.runner")

#: Pool attempts per chunk before the inline fallback takes over.
DEFAULT_MAX_ATTEMPTS = 3

#: Per-round chunk deadline (seconds); ``REPRO_CHUNK_TIMEOUT`` overrides.
DEFAULT_CHUNK_TIMEOUT = 600.0

#: Capped exponential backoff between retry rounds.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


def fork_available() -> bool:
    return executors.fork_available()


#: The full study window (Jan 2012 – Apr 2018); the chunk-span sanity
#: bound below is "would leave fewer chunks than CPUs on the full run".
_STUDY_MONTHS = 76


def _warn_oversubscribed(knob: str, value: int, bound: int) -> None:
    """Flag an explicit knob value beyond the CPU-reasonable bound.

    Warn-only by design: the value is honored (an operator may know
    better — I/O-bound hosts, deliberate stress runs), but it is no
    longer *silent*: a diagnostic warning names the bound and the
    ``oversubscription_warnings`` counter makes it visible in
    ``stats --json`` and the JSONL sink.
    """
    PERF.oversubscription_warnings += 1
    _log.warning(
        "%s=%d exceeds the CPU-reasonable bound %d for %d CPU(s); "
        "honoring it, but expect oversubscription",
        knob,
        value,
        bound,
        os.cpu_count() or 1,
    )


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count: explicit > ``REPRO_WORKERS`` > ``os.cpu_count()``.

    Negative values — explicit or from the environment — are malformed,
    not "serial": silently clamping ``-3`` to 0 would hide a typo as a
    10x slowdown, so they fall through to the CPU-count default exactly
    like unparseable text.  Values beyond twice the CPU count (the
    headroom that tolerates I/O overlap) are honored but warned about —
    see :func:`_warn_oversubscribed`.
    """

    def checked(value: int) -> int:
        bound = 2 * (os.cpu_count() or 1)
        if value > bound:
            _warn_oversubscribed("workers", value, bound)
        return value

    if explicit is not None and int(explicit) >= 0:
        return checked(int(explicit))
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if explicit is None and env:
        try:
            value = int(env)
            if value >= 0:
                return checked(value)
        except ValueError:
            # A malformed env var must not kill a run; fall through to
            # the CPU-count default (same spirit as REPRO_CACHE parsing).
            pass
    return os.cpu_count() or 1


def resolve_scale(explicit: int | None = None) -> int:
    """Dataset scale: explicit > ``REPRO_SCALE`` > 1.

    The multiplier on per-month record counts (see
    :class:`repro.notary.generator.TrafficGenerator.scale`).  Values
    below 1 — explicit or from the environment — are malformed and fall
    through to the unscaled default, same policy as ``REPRO_WORKERS``.
    """
    if explicit is not None and int(explicit) >= 1:
        return int(explicit)
    env = os.environ.get("REPRO_SCALE", "").strip()
    if explicit is None and env:
        try:
            value = int(env)
            if value >= 1:
                return value
        except ValueError:
            pass
    return 1


def resolve_chunk_timeout(explicit: float | None = None) -> float:
    """Per-round chunk deadline: explicit > ``REPRO_CHUNK_TIMEOUT`` > default."""
    if explicit is not None and explicit > 0:
        return float(explicit)
    env = os.environ.get("REPRO_CHUNK_TIMEOUT", "").strip()
    if env:
        try:
            value = float(env)
            if value > 0:
                return value
        except ValueError:
            pass
    return DEFAULT_CHUNK_TIMEOUT


def resolve_chunk_months(explicit: int | None = None) -> int | None:
    """Months per chunk override (``REPRO_CHUNK_MONTHS``); None = auto.

    A span so wide that even the full 76-month study would yield fewer
    chunks than CPUs defeats the load balancing the chunking exists
    for; such values are honored but warned about (same warn-don't-
    clamp policy as :func:`resolve_workers`).
    """

    def checked(value: int) -> int:
        bound = max(1, _STUDY_MONTHS // (os.cpu_count() or 1))
        if value > bound:
            _warn_oversubscribed("chunk_months", value, bound)
        return value

    if explicit is not None and explicit > 0:
        return checked(int(explicit))
    env = os.environ.get("REPRO_CHUNK_MONTHS", "").strip()
    if env:
        try:
            value = int(env)
            if value > 0:
                return checked(value)
        except ValueError:
            pass
    return None


def _resume_enabled(explicit: bool | None) -> bool:
    if explicit is not None:
        return explicit
    return os.environ.get("REPRO_RESUME", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def _checkpoint_enabled() -> bool:
    return os.environ.get("REPRO_CHECKPOINT", "").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


@dataclass
class _Chunk:
    """One unit of schedulable work: a contiguous span of months."""

    id: int
    months: list[_dt.date]
    attempts: int = 0

    @property
    def token(self) -> str:
        return f"c{self.id}.a{self.attempts}"


def _make_chunks(
    months: list[_dt.date], count: int, per_chunk: int | None, scale: int = 1
) -> list[list[_dt.date]]:
    """Contiguous chunks, a few per worker by default.

    Finer-than-worker granularity serves three masters at once: dynamic
    load balancing (record counts grow over the study), small blast
    radius on a crashed/hung chunk, and checkpoints that start landing
    early in the run instead of all at the end.

    Scaled runs shrink the month span further: the worker→parent
    transfer and the adoption transients (pickle bytes, checkpoint
    copies) are O(chunk rows), and rows grow ×``scale`` — dividing the
    span by the scale keeps a chunk's row count near the unscaled
    profile, which is what keeps peak RSS flat as ``--scale`` climbs.
    """
    if per_chunk is None:
        per_chunk = max(1, -(-len(months) // (count * 3)))
        if scale > 1:
            per_chunk = max(1, per_chunk // scale)
    return [months[i : i + per_chunk] for i in range(0, len(months), per_chunk)]


@dataclass
class _SpillState:
    """Out-of-core adoption state for one parallel run.

    ``spill`` is the :class:`repro.engine.cache.BlobSpill` month columns
    stream into as chunks finish (None after a region-write failure —
    the run then degrades to in-memory adoption); ``indexes`` collects
    each month's aggregate-index payload, built while the chunk's
    columns are still resident so nothing ever pages the mapped region
    back in.
    """

    spill: object = None
    indexes: dict = field(default_factory=dict)


def _spill_enabled() -> bool:
    """Whether adopted chunks spill to an mmap-backed region file.

    Follows the cache wire format: ``REPRO_CACHE_FORMAT=pickle`` keeps
    the legacy all-in-memory adoption (whose save path needs the
    materialized payload anyway).  The spill itself writes to an
    anonymous temp file, so it works with the dataset cache disabled.
    """
    from repro.engine import cache as dataset_cache

    return dataset_cache._mmap_format_enabled()


def _spill_or_attach(store: NotaryStore, state: _SpillState | None, payload: dict) -> None:
    """Adopt one packed payload: out-of-core when spilling, else attach.

    The month's aggregate indexes are built first, while the payload's
    columns are ordinary resident arrays.  A region-write failure
    (:class:`repro.engine.cache.SpillError`) salvages every month
    already spilled — their mapped columns re-attach as a dataset — and
    permanently degrades this run to in-memory adoption.
    """
    if state is not None and state.spill is not None:
        from repro.engine import cache as dataset_cache
        from repro.notary.store import build_index_payloads

        state.indexes.update(build_index_payloads(payload))
        try:
            state.spill.add_payload(payload)
            return
        except dataset_cache.SpillError as exc:
            PERF.cache_write_failures += 1
            _log.warning(
                "month spill failed (%s); salvaging spilled months and "
                "continuing in memory",
                exc,
            )
            obs.emit_event("spill_failed", error=str(exc))
            salvaged = state.spill.finish_payload()
            state.spill = None
            if salvaged["months"]:
                store.attach_packed(PackedDataset(salvaged), idempotent=True)
    store.attach_packed(PackedDataset(payload), idempotent=True)


# Worker-side state, installed by the pool initializer.  Under fork the
# arguments are inherited through fork memory, never pickled; under
# spawn they are pickled across the process boundary, which is why the
# active fault plan ships explicitly — a spawned child starts with a
# fresh interpreter, so the parent's module-global ``faults.configure``
# state would otherwise silently vanish.
_WORKER: dict = {}


def _init_worker(
    clients,
    servers,
    trace_id: str | None = None,
    scale: int = 1,
    fault_plan=None,
) -> None:
    _WORKER["clients"] = clients
    _WORKER["servers"] = servers
    _WORKER["scale"] = scale
    if fault_plan is not None:
        faults.configure(fault_plan)
    PERF.reset()
    obs.TRACE.reset()
    if trace_id is not None:
        obs.adopt_trace(trace_id)


def _run_chunk(job: tuple[int, int, list[_dt.date]]) -> dict:
    """Run one month chunk; return a packed partition + perf snapshot.

    Fault-injection sites live here: a hang/crash at chunk start, a
    crash between months, and payload corruption after packing — each
    drawn deterministically from the (chunk, attempt) token so retries
    re-draw and schedules reproduce exactly.
    """
    chunk_id, attempt, months = job
    token = f"c{chunk_id}.a{attempt}"
    faults.hang_point(token)
    faults.crash_point("worker_crash", token)
    started = time.perf_counter()
    PERF.reset()
    obs.reset_spans()  # one snapshot per chunk, even when a worker reruns
    with obs.span("run_chunk", chunk=chunk_id, attempt=attempt, months=len(months)):
        generator = TrafficGenerator(
            _WORKER["clients"],
            _WORKER["servers"],
            PassiveMonitor(),
            scale=_WORKER.get("scale", 1),
        )
        # Rows stream straight into the packer and no record object is
        # built per row, so worker RSS stays bounded at any --scale
        # (the store-then-pack round trip would be O(records)).
        packer = StreamPacker()
        for month in months:
            faults.crash_point("month_crash", f"{token}.m{month.isoformat()}")
            month_started = time.perf_counter()
            with obs.span("simulate_month", month=month.isoformat()):
                packer.add_rows(month, generator.stream_expectation_month(month))
            # Worker-side duration histogram: ships in the perf snapshot
            # and folds bucket-by-bucket in the parent's merge, so the
            # fleet's per-month latency *distribution* survives into
            # stats --json (schema 6) instead of only chunk totals.
            PERF.observe_duration(
                "simulate_month_seconds",
                time.perf_counter() - month_started,
            )
        packed = packer.finish()
    if faults.fires("pack_corrupt", token):
        packed = faults.corrupt_partition(packed, token)
    return {
        "packed": packed,
        "perf": PERF.snapshot(),
        "spans": obs.snapshot_spans(),
        "wall": time.perf_counter() - started,
        # Attribution the trace analyzer joins on: which process ran
        # which chunk attempt over which months.
        "chunk": chunk_id,
        "attempt": attempt,
        "months": [m.isoformat() for m in months],
        "pid": os.getpid(),
        "worker": multiprocessing.current_process().name,
    }


def _run_chunk_inline(clients, servers, months: list[_dt.date], scale: int = 1) -> dict:
    """Last-resort serial re-run of one chunk in the parent process.

    Runs with fault injection suppressed — this is the path that makes
    recovery terminate no matter what the fault plan throws — and
    increments the parent's PERF counters directly (no snapshot merge).
    """
    started = time.perf_counter()
    with faults.suppressed(), obs.span("run_chunk_inline", months=len(months)):
        generator = TrafficGenerator(clients, servers, PassiveMonitor(), scale=scale)
        packer = StreamPacker()
        for month in months:
            month_started = time.perf_counter()
            with obs.span("simulate_month", month=month.isoformat()):
                packer.add_rows(month, generator.stream_expectation_month(month))
            PERF.observe_duration(
                "simulate_month_seconds",
                time.perf_counter() - month_started,
            )
    return {
        "packed": packer.finish(),
        "perf": None,
        "wall": time.perf_counter() - started,
        "chunk": None,
        "attempt": None,
        "months": [m.isoformat() for m in months],
        "pid": os.getpid(),
        "worker": "inline",
    }


def run_expectation(
    clients,
    servers,
    start: _dt.date,
    end: _dt.date,
    workers: int | None = None,
    *,
    resume: bool | None = None,
    chunk_timeout: float | None = None,
    chunk_months: int | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    faults_spec: str | None = None,
    scale: int | None = None,
    backend: str | None = None,
) -> NotaryStore:
    """Full expectation run, sharded across workers; returns the store."""
    if faults_spec is not None:
        faults.configure(faults_spec)
    months = month_range(start, end)
    count = resolve_workers(workers)
    factor = resolve_scale(scale)
    chosen = executors.resolve_backend(backend)
    serial = count <= 1 or len(months) < 2
    obs.begin_run(
        "expectation",
        start=start.isoformat(),
        end=end.isoformat(),
        months=len(months),
        workers=0 if serial else count,
        scale=factor,
        backend="serial" if serial else chosen,
    )
    _log.info(
        "expectation run %s..%s: %d month(s), %s, scale %d",
        start.isoformat(), end.isoformat(), len(months),
        "serial" if serial else f"{count} workers ({chosen})", factor,
    )
    with obs.profiled("run_expectation"), obs.span(
        "run_expectation", months=len(months), workers=0 if serial else count
    ):
        if serial:
            store = _run_serial(clients, servers, start, end, scale=factor)
        else:
            store = _run_parallel(
                clients,
                servers,
                start,
                end,
                months,
                count,
                resume=_resume_enabled(resume),
                timeout=resolve_chunk_timeout(chunk_timeout),
                per_chunk=resolve_chunk_months(chunk_months),
                max_attempts=max(1, max_attempts),
                scale=factor,
                backend=chosen,
            )
    obs.end_run(
        "expectation",
        records=len(store),
        run_seconds=PERF.run_seconds,
        chunk_retries=PERF.chunk_retries,
        chunk_timeouts=PERF.chunk_timeouts,
        inline_fallbacks=PERF.inline_fallbacks,
        worker_errors=PERF.worker_errors,
        resumed_months=PERF.resumed_months,
        faults_injected=PERF.faults_injected,
    )
    return store


def _run_parallel(
    clients,
    servers,
    start: _dt.date,
    end: _dt.date,
    months: list[_dt.date],
    count: int,
    *,
    resume: bool,
    timeout: float,
    per_chunk: int | None,
    max_attempts: int,
    scale: int = 1,
    backend: str = "fork",
) -> NotaryStore:
    started = time.perf_counter()
    PERF.workers = count
    PERF.worker_wall_times = []
    PERF.chunk_attribution = []
    store = NotaryStore()

    checkpoint = None
    if _checkpoint_enabled():
        from repro.engine import cache as dataset_cache

        checkpoint = dataset_cache.Checkpoint(
            dataset_cache.dataset_key(clients, servers, start, end, scale=scale)
        )

    state = None
    if _spill_enabled():
        from repro.engine import cache as dataset_cache

        state = _SpillState(spill=dataset_cache.BlobSpill())

    done: set[_dt.date] = set()
    if checkpoint is not None and resume:
        with obs.span("resume_checkpoints"):
            for month, payload in checkpoint.load_months(months):
                _spill_or_attach(store, state, payload)
                done.add(month)
                PERF.resumed_months += 1
                obs.emit_event("resume_month", month=month.isoformat())
        if done:
            _log.info("resumed %d month(s) from checkpoints", len(done))
    remaining = [m for m in months if m not in done]

    if remaining:
        if len(remaining) == 1 or count < 2:
            _adopt(
                store, checkpoint,
                _run_chunk_inline(clients, servers, remaining, scale=scale),
                inline=True, state=state,
            )
        else:
            _run_chunked(
                clients, servers, store, checkpoint, remaining,
                count=count, timeout=timeout, per_chunk=per_chunk,
                max_attempts=max_attempts, scale=scale, state=state,
                backend=backend,
            )

    if state is not None:
        if state.spill is not None:
            payload = state.spill.finish_payload()
            if payload["months"]:
                store.attach_packed(PackedDataset(payload), idempotent=True)
        if state.indexes:
            store.install_index_payloads(state.indexes)

    if checkpoint is not None:
        checkpoint.clear()
    PERF.run_seconds = time.perf_counter() - started
    return store


def _run_chunked(
    clients,
    servers,
    store: NotaryStore,
    checkpoint,
    months: list[_dt.date],
    *,
    count: int,
    timeout: float,
    per_chunk: int | None,
    max_attempts: int,
    scale: int = 1,
    state: _SpillState | None = None,
    backend: str = "fork",
) -> None:
    """The retry/timeout/reshard scheduling loop, one executor per round.

    Backend-agnostic by construction: the loop submits chunk jobs and
    collects results through :mod:`repro.engine.executors`; the only
    backend property it reads is ``preemptible`` (an inline executor
    cannot be killed past a deadline, so nothing here assumes timeouts
    fire).
    """
    next_id = 0

    def new_chunk(span: list[_dt.date], attempts: int = 0) -> _Chunk:
        nonlocal next_id
        chunk = _Chunk(id=next_id, months=span, attempts=attempts)
        next_id += 1
        return chunk

    def run_job_inline(job: tuple[int, int, list[_dt.date]]) -> dict:
        # The inline backend's parent-process twin of _run_chunk: the
        # fault-suppressed serial path with the job's attribution
        # grafted on (perf stays None — counters were incremented in
        # the parent directly, so there is no snapshot to merge).
        chunk_id, attempt, span = job
        part = _run_chunk_inline(clients, servers, span, scale=scale)
        part["chunk"] = chunk_id
        part["attempt"] = attempt
        return part

    spec = executors.WorkSpec(
        pool_fn=_run_chunk,
        initializer=_init_worker,
        initargs=(clients, servers, obs.trace_id(), scale, faults.shippable_plan()),
        inline_fn=run_job_inline,
    )

    queue: deque[_Chunk] = deque(
        new_chunk(span) for span in _make_chunks(months, count, per_chunk, scale)
    )

    while queue:
        batch: list[_Chunk] = []
        while queue:
            chunk = queue.popleft()
            if chunk.attempts >= max_attempts:
                # Out of pool attempts: this chunk's months are computed
                # inline, fault-free, before anything else is scheduled.
                PERF.inline_fallbacks += 1
                _log.warning(
                    "chunk %d (months %s..%s) out of pool attempts; "
                    "re-running inline with faults suppressed",
                    chunk.id,
                    chunk.months[0].isoformat(),
                    chunk.months[-1].isoformat(),
                )
                obs.emit_event(
                    "inline_fallback",
                    chunk=chunk.id,
                    months=[m.isoformat() for m in chunk.months],
                )
                _adopt(
                    store, checkpoint,
                    _run_chunk_inline(clients, servers, chunk.months, scale=scale),
                    inline=True, state=state,
                )
            else:
                batch.append(chunk)
        if not batch:
            break

        failed: list[_Chunk] = []
        timed_out: list[_Chunk] = []
        executor = executors.create_executor(
            backend, spec, slots=min(count, len(batch))
        )
        try:
            # Submission is a sliding window, not the whole batch: the
            # pool's result thread unpickles every finished chunk the
            # moment it arrives, so when workers outpace adoption an
            # eager submit buffers nearly the whole dataset in the
            # parent.  Capping in-flight chunks at ~2 per worker keeps
            # workers busy while bounding that backlog to O(window).
            window = max(2, 2 * min(count, len(batch)))
            to_submit = deque(batch)
            pending: deque[tuple[_Chunk, object]] = deque()
            deadline = time.monotonic() + timeout

            def top_up() -> None:
                while (
                    to_submit
                    and len(pending) < window
                    and time.monotonic() < deadline
                ):
                    chunk = to_submit.popleft()
                    pending.append(
                        (
                            chunk,
                            executor.submit(
                                (chunk.id, chunk.attempts, chunk.months)
                            ),
                        )
                    )

            top_up()
            while pending:
                chunk, result = pending.popleft()
                wait = max(0.001, deadline - time.monotonic())
                try:
                    part = result.result(wait)
                except executors.ChunkTimeout:
                    timed_out.append(chunk)
                    PERF.chunk_timeouts += 1
                    _log.warning(
                        "chunk %d (months %s..%s, attempt %d) timed out after %.1fs; "
                        "will kill and reshard",
                        chunk.id,
                        chunk.months[0].isoformat(),
                        chunk.months[-1].isoformat(),
                        chunk.attempts,
                        timeout,
                    )
                    obs.emit_event(
                        "chunk_timeout",
                        chunk=chunk.id,
                        attempt=chunk.attempts,
                        months=[m.isoformat() for m in chunk.months],
                        timeout=timeout,
                    )
                except Exception as exc:
                    # The worker's exception crossed the pipe; the chunk
                    # is re-queued, but the cause must not vanish.
                    failed.append(chunk)
                    PERF.worker_errors += 1
                    _log.warning(
                        "chunk %d (months %s..%s, attempt %d) failed in worker: %s: %s",
                        chunk.id,
                        chunk.months[0].isoformat(),
                        chunk.months[-1].isoformat(),
                        chunk.attempts,
                        type(exc).__name__,
                        exc,
                    )
                    obs.emit_event(
                        "chunk_failed",
                        chunk=chunk.id,
                        attempt=chunk.attempts,
                        months=[m.isoformat() for m in chunk.months],
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    if validate_payload(part["packed"], chunk.months):
                        # A part without a perf snapshot ran in the
                        # parent (inline backend): its counters are
                        # already live, only its wall gets recorded.
                        _adopt(
                            store, checkpoint, part,
                            inline=part.get("perf") is None, state=state,
                        )
                    else:
                        failed.append(chunk)
                        _log.warning(
                            "chunk %d (months %s..%s, attempt %d) shipped an "
                            "invalid partition; re-queued",
                            chunk.id,
                            chunk.months[0].isoformat(),
                            chunk.months[-1].isoformat(),
                            chunk.attempts,
                        )
                        obs.emit_event(
                            "chunk_invalid",
                            chunk=chunk.id,
                            attempt=chunk.attempts,
                            months=[m.isoformat() for m in chunk.months],
                        )
                top_up()
            # Chunks never submitted before the deadline expired go back
            # untouched: they did not run, so they cost no attempt and
            # are not resharded.
            queue.extend(to_submit)
        finally:
            # Closing the executor terminates pool workers, killing any
            # still hung past the deadline (a no-op for inline).
            executor.close()

        for chunk in failed:
            PERF.chunk_retries += 1
            obs.emit_event("chunk_retry", chunk=chunk.id, attempt=chunk.attempts + 1)
            queue.append(new_chunk(chunk.months, chunk.attempts + 1))
        for chunk in timed_out:
            # Kill-and-reshard: halve the span so a systematic hang
            # converges on single-month chunks (and then inline).
            PERF.chunk_retries += 1
            obs.emit_event(
                "chunk_retry", chunk=chunk.id, attempt=chunk.attempts + 1,
                resharded=True,
            )
            halves = [chunk.months[: len(chunk.months) // 2 or 1], chunk.months[len(chunk.months) // 2 or 1 :]]
            for half in halves:
                if half:
                    queue.append(new_chunk(half, chunk.attempts + 1))
        if (failed or timed_out) and queue:
            worst = max(c.attempts for c in queue)
            delay = min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** worst))
            _log.debug("backing off %.2fs before retry round", delay)
            time.sleep(delay)


def _adopt(
    store: NotaryStore,
    checkpoint,
    part: dict,
    inline: bool = False,
    state: _SpillState | None = None,
) -> None:
    """Merge one finished chunk: perf fold, span fold, attribution,
    checkpoint spill, then out-of-core spill (or lazy in-memory attach)."""
    if not inline and part["perf"] is not None:
        PERF.merge_worker(part["perf"], part["wall"])
    elif inline:
        PERF.worker_wall_times.append(part["wall"])
    PERF.observe_duration("chunk_seconds", part["wall"])
    if part.get("spans"):
        obs.merge_worker_spans(part["spans"])
    attribution = {
        "chunk": part.get("chunk"),
        "attempt": part.get("attempt"),
        "months": part.get("months", []),
        "pid": part.get("pid"),
        "worker": part.get("worker"),
        "wall": part["wall"],
        "inline": inline,
    }
    PERF.chunk_attribution.append(attribution)
    obs.emit_event("chunk_done", **attribution)
    if checkpoint is not None:
        checkpoint.save_months(split_by_month(part["packed"]))
    _spill_or_attach(store, state, part["packed"])


def _run_serial(
    clients, servers, start: _dt.date, end: _dt.date, scale: int = 1
) -> NotaryStore:
    """The zero-worker fallback: one generator, shared caches.

    Streams months straight into packed columnar form like the workers
    do, so serial runs keep the same bounded-memory profile at any
    ``scale`` — and the returned store answers from the same fast tiers
    a parallel (or cache-loaded) store does.
    """
    started = time.perf_counter()
    PERF.workers = 0
    PERF.worker_wall_times = []
    PERF.chunk_attribution = []
    with obs.span("run_serial"):
        generator = TrafficGenerator(clients, servers, PassiveMonitor(), scale=scale)
        packer = StreamPacker()
        for month in month_range(start, end):
            month_started = time.perf_counter()
            packer.add_rows(month, generator.stream_expectation_month(month))
            PERF.observe_duration(
                "simulate_month_seconds",
                time.perf_counter() - month_started,
            )
        store = NotaryStore()
        store.attach_packed(PackedDataset(packer.finish()))
    PERF.run_seconds = time.perf_counter() - started
    return store
