"""The benchmark's own arithmetic: percentiles, accounting, the ladder rule.

Everything here is pure and deterministic so ``tests/`` can pin it down
without a server or a study run.  Times are seconds unless a name says
``_ms``.
"""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie
#: beyond it (the highest percentile the sample supports).
MIN_BEYOND = 10


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``pct``."""
    return count - max(math.ceil(pct / 100.0 * count), 1)


def supports(count: int, pct: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when a sample of ``count`` has ``min_beyond`` samples past ``pct``."""
    return beyond(count, pct) >= min_beyond


def slowest_operation(steps_s: dict) -> float:
    """A batch run's tail: its longest operation (the build, the report,
    the Monte-Carlo store...) in seconds, leaving out the final ``check``.

    A few repetitions of a batch workload support no p99, and the slowest
    of them times the host's worst moment rather than the program."""
    return max(seconds for name, seconds in steps_s.items() if name != "check")


# ---- open-loop accounting ----------------------------------------------------


def latency(due: float, done: float) -> float:
    """Open-loop latency: from when the request was due, not when it was
    sent, so a stall is charged to every request queued behind it."""
    return done - due


def lateness(due: float, sent: float) -> float:
    """How late the generator sent a request (0 when on time)."""
    return max(0.0, sent - due)


def check_accounting(scheduled: int, sent: int, failed: int) -> None:
    """Every scheduled request is either answered correctly or counted as
    failed; anything else means the generator lost track of one."""
    if sent + failed != scheduled:
        raise AssertionError(
            f"load accounting broken: {sent} ok + {failed} failed "
            f"!= {scheduled} scheduled"
        )


def latencies_with_failures(ok_latencies, failed: int) -> list[float]:
    """The latency sample with every failed request counted as missing
    every limit (an infinite latency)."""
    return list(ok_latencies) + [math.inf] * failed


# ---- the rate ladder ---------------------------------------------------------

#: A step keeps up when it completes at least this share of its offered
#: rate over the step's schedule.
MIN_RATE_SHARE = 0.95


def step_passes(
    *,
    offered_rps: float,
    achieved_rps: float,
    p99_ms: float,
    late_tail_ms: float,
    failed: int,
    limit_ms: float,
) -> bool:
    """The ladder rule: p99 within the limit, no failures, and no growing
    backlog (achieved rate close to offered, lateness at the end of the
    step bounded by the same limit)."""
    return (
        failed == 0
        and p99_ms <= limit_ms
        and achieved_rps >= MIN_RATE_SHARE * offered_rps
        and late_tail_ms <= limit_ms
    )


def max_ok_step(steps):
    """The highest-rate passing step of an ascending ladder, or None.

    ``steps`` are dicts with ``offered_rps`` and a boolean ``ok``.  A
    step above a failing step does not count: once the backlog grows,
    a later pass is luck, not capacity.
    """
    best = None
    for step in sorted(steps, key=lambda s: s["offered_rps"]):
        if not step["ok"]:
            break
        best = step
    return best


# ---- metric gates ------------------------------------------------------------


def require_metrics(metrics: dict, names, nonzero) -> None:
    """Abort on a missing, ``None`` or non-finite metric, and on a zero
    where the workload must have done the work."""
    problems = []
    for name in names:
        if name not in metrics or metrics[name] is None:
            problems.append(f"{name}: missing")
            continue
        value = metrics[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}: not a number ({value!r})")
        elif not math.isfinite(value):
            problems.append(f"{name}: not finite ({value!r})")
        elif name in nonzero and value == 0:
            problems.append(f"{name}: zero")
    if problems:
        raise ValueError("bad metrics: " + "; ".join(problems))
