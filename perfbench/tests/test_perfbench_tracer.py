"""Self time from nested spans, and the wrappers the traced run installs."""

import types

import pytest

import tracer as tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    outer = t.begin("outer")
    clock.now = 1.0
    child = t.begin("child")
    clock.now = 3.0
    grandchild = t.begin("grandchild")
    clock.now = 3.5
    t.end(grandchild)
    clock.now = 4.0
    t.end(child)
    clock.now = 4.5
    second = t.begin("child")
    clock.now = 5.0
    t.end(second)
    clock.now = 6.0
    t.end(outer)

    assert t.layer("outer") == {"calls": 1, "total_s": 6.0, "self_s": 2.5, "items": 0}
    assert t.layer("child") == {"calls": 2, "total_s": 3.5, "self_s": 3.0, "items": 0}
    assert t.layer("grandchild")["self_s"] == 0.5
    # Self times add up to the outermost span.
    assert sum(t.layer(n)["self_s"] for n in t.totals) == 6.0
    by_id = {span[0]: span for span in t.spans}
    grand = next(s for s in t.spans if s[2] == "grandchild")
    assert by_id[grand[1]][2] == "child"
    assert by_id[by_id[grand[1]][1]][2] == "outer"


def test_spans_must_close_in_order():
    t = tracing.Tracer()
    a = t.begin("a")
    t.begin("b")
    with pytest.raises(RuntimeError):
        t.end(a)


def test_wrap_counts_items():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    module = types.SimpleNamespace()

    def materialize(n):
        clock.now += 0.25
        return list(range(n))

    module.materialize = materialize
    registry = {"fig": lambda: "done"}
    t.wrap(module, "materialize", "layer.materialize", count=len)
    t.wrap(registry, "fig", "layer.fig")
    assert module.materialize(3) == [0, 1, 2]
    assert module.materialize(2) == [0, 1]
    assert registry["fig"]() == "done"
    assert t.layer("layer.materialize") == {
        "calls": 2, "total_s": 0.5, "self_s": 0.5, "items": 5,
    }
    assert t.layer("layer.fig")["calls"] == 1
    assert module.materialize.__wrapped__ is materialize


def test_spans_closed_in_a_worker_go_to_the_sink():
    seen = []
    clock = FakeClock()
    t = tracing.Tracer(clock=clock, worker_sink=lambda *a: seen.append(a))
    t.in_owner = False  # what the fork hook sets in a child
    frame = t.begin("notary.events.make_record")
    clock.now = 0.5
    t.end(frame, items=2)
    assert seen == [("notary.events.make_record", 0.5, 0.5, 2)]
    assert t.totals == {} and t.spans == []


def test_worker_histograms_fold_into_the_layer_table():
    class Perf:
        def __init__(self):
            self.hists = {}

        def observe_duration(self, name, value):
            h = self.hists.setdefault(name, {"count": 0, "sum": 0.0})
            h["count"] += 1
            h["sum"] += value

    perf = Perf()
    sink = tracing.perf_sink(perf)
    sink("servers.respond", 0.3, 0.2, 0)
    sink("servers.respond", 0.1, 0.1, 0)
    sink("engine.partition.materialize", 1.0, 1.0, 7)
    perf.hists["simulate_month_seconds"] = {"count": 3, "sum": 9.0}
    t = tracing.Tracer()
    t.fold_histograms(perf.hists)
    respond = t.layer("servers.respond")
    assert respond["calls"] == 2
    assert respond["total_s"] == pytest.approx(0.4)
    assert respond["self_s"] == pytest.approx(0.3)
    assert t.layer("engine.partition.materialize")["items"] == 7
    assert "simulate_month_seconds" not in t.totals
