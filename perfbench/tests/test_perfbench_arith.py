"""The benchmark's own arithmetic."""

import math

import pytest

import arith


def test_nearest_rank_picks_a_sample():
    values = list(range(1, 101))  # 1..100
    assert arith.nearest_rank(values, 50) == 50
    assert arith.nearest_rank(values, 99) == 99
    assert arith.nearest_rank(values, 100) == 100
    assert arith.nearest_rank([7.0], 99) == 7.0
    assert arith.nearest_rank([3, 1, 2], 50) == 2


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        arith.nearest_rank([], 50)
    with pytest.raises(ValueError):
        arith.nearest_rank([1], 0)


def test_ten_samples_beyond_p99_needs_a_thousand():
    assert arith.beyond(1000, 99) == 10
    assert arith.supports(1000, 99)
    assert not arith.supports(999, 99)
    assert arith.beyond(1500, 99) == 15
    assert arith.supports(20, 50)
    assert not arith.supports(19, 50)


def test_batch_tail_is_the_slowest_operation_but_not_the_checks():
    steps = {"passive_store": 0.1, "report": 4.5, "table2": 3.0, "check": 9.0}
    assert arith.slowest_operation(steps) == 4.5


def test_latency_runs_from_due_time_and_lateness_is_clamped():
    # Sent 50 ms late, answered 20 ms after sending: 70 ms latency.
    assert arith.latency(due=1.0, done=1.07) == pytest.approx(0.07)
    assert arith.lateness(due=1.0, sent=1.05) == pytest.approx(0.05)
    assert arith.lateness(due=1.0, sent=0.99) == 0.0


def test_failed_requests_miss_every_limit():
    sample = arith.latencies_with_failures([1.0] * 990, failed=10)
    assert arith.nearest_rank(sample, 99) == 1.0
    sample = arith.latencies_with_failures([1.0] * 989, failed=11)
    assert arith.nearest_rank(sample, 99) == math.inf


def test_accounting_must_balance():
    arith.check_accounting(100, 97, 3)
    with pytest.raises(AssertionError):
        arith.check_accounting(100, 97, 2)


def step(**overrides):
    base = dict(
        offered_rps=300.0, achieved_rps=299.0, p99_ms=20.0, late_tail_ms=5.0,
        failed=0, limit_ms=60.0,
    )
    base.update(overrides)
    return arith.step_passes(**base)


def test_ladder_step_rule():
    assert step()
    assert not step(p99_ms=60.5)
    assert not step(failed=1)
    # A growing backlog: the step completes well under its offered rate ...
    assert not step(achieved_rps=250.0)
    # ... or the generator falls further behind as the step goes on.
    assert not step(late_tail_ms=200.0)


def test_max_ok_step_stops_at_the_first_failure():
    steps = [
        {"offered_rps": 150, "ok": True},
        {"offered_rps": 300, "ok": True},
        {"offered_rps": 450, "ok": False},
        {"offered_rps": 600, "ok": True},
    ]
    assert arith.max_ok_step(steps)["offered_rps"] == 300
    assert arith.max_ok_step([{"offered_rps": 150, "ok": False}]) is None


def test_require_metrics_rejects_missing_none_and_zero():
    arith.require_metrics({"a": 1.0, "b": 0}, ["a", "b"], nonzero={"a"})
    with pytest.raises(ValueError, match="a: missing"):
        arith.require_metrics({"b": 1.0}, ["a", "b"], nonzero=set())
    with pytest.raises(ValueError, match="a: missing"):
        arith.require_metrics({"a": None}, ["a"], nonzero=set())
    with pytest.raises(ValueError, match="a: zero"):
        arith.require_metrics({"a": 0.0}, ["a"], nonzero={"a"})
    with pytest.raises(ValueError, match="not finite"):
        arith.require_metrics({"a": math.inf}, ["a"], nonzero=set())
    with pytest.raises(ValueError, match="not a number"):
        arith.require_metrics({"a": True}, ["a"], nonzero=set())
