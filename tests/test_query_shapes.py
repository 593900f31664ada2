"""Differential suite for the shape-compiled and vectorized query tiers.

Every test here enforces one contract: the four answer tiers — index
counters, vectorized (numpy) masks, shape-compiled evaluation, and the
record scan — return **byte-identical** floats.  Comparisons are exact
``==``, never ``pytest.approx``: the fast tiers are only admissible
because their folds replay the scan's addition sequence, and an approx
assertion would hide a regression in that discipline.

Coverage map (PR 5's satellite #3 plus PR 6's three-way differential):

* randomized composite predicates over shape fields, seeded RNG —
  lambda-shaped (shape tier) and structured (vector tier, asserted
  vector ≡ shape ≡ scan);
* ``All`` / ``AnyOf`` / ``Not`` semantics, including simplify-to-index;
* ``weighted_mean`` (lambda + ``PositionOf``) and ``within=``
  restrictions (indexed + lambda + structured);
* fresh-packed vs cache-warm vs post-resume (``split_by_month``) vs
  incremental-ingest (month added after attach, no re-pack) stores;
* guarded fallback for predicates reading ``month`` / ``weight`` / day;
* numpy-absent fallback (monkeypatched ``vector._np``) and the
  ``use_vector`` / ``use_index`` escape hatches;
* transient materialization (packed months survive ``records()``) and
  the ``REPRO_MATERIALIZE_LRU`` bound override;
* batched figure evaluation and the packed figure fast paths;
* metrics events (``shape_view_build`` / ``scan_fallback`` /
  ``vector_path``) passing the CI validator in
  ``scripts/check_metrics_jsonl.py``.
"""

from __future__ import annotations

import importlib.util
import json
import logging
import random
from pathlib import Path

import pytest

from repro.core import figures
from repro.engine import cache as dataset_cache
from repro.engine import partition
from repro.engine.partition import PackedDataset, pack_records, split_by_month
from repro.engine.perf import PERF
from repro.notary import (
    ESTABLISHED,
    Advertises,
    All,
    AnyOf,
    Established,
    NegotiatedMode,
    NegotiatedVersion,
    Not,
    NotaryStore,
    PositionOf,
    vector,
)
from repro.notary.store import build_index_payloads

# ---------------------------------------------------------------------------
# Fixtures: one packed dataset shared module-wide (the templates and
# shape summaries memoize on it, as they would in a real session), a
# scan-only reference store, and fresh packed stores per test.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def payload(small_window_store):
    return pack_records(small_window_store.records())


@pytest.fixture(scope="module")
def dataset(payload):
    return PackedDataset(payload)


@pytest.fixture(scope="module")
def scan_store(small_window_store):
    """Reference store: same records, every answer from the record scan."""
    store = NotaryStore()
    store.extend(small_window_store.records())
    store.use_index = False
    return store


@pytest.fixture()
def packed_store(dataset):
    store = NotaryStore()
    store.attach_packed(dataset)
    return store


# Predicates built only from shape fields — the guarded-template tier
# must answer all of these.  Each entry is a *factory* so every test
# gets a fresh closure (compilation memoizes per code object; fresh
# closures keep the differential honest about compile costs too).
SHAPE_PREDICATES = [
    lambda: (lambda r: r.established),
    lambda: (lambda r: r.negotiated_version == "TLSv12"),
    lambda: (lambda r: "rc4" in r.advertised),
    lambda: (lambda r: r.suite_count > 20),
    lambda: (lambda r: r.client_family == "Chrome"),
    lambda: (lambda r: r.established and r.negotiated_kex is not None),
    lambda: (lambda r: bool(r.offered_tls13)),
    lambda: (lambda r: (r.server_port or 0) == 443),
    lambda: (lambda r: r.client_in_database and not r.established),
]


# Structured predicates (the vector tier's input form).  Factories for
# the same reason as SHAPE_PREDICATES; the instances are value-hashable,
# so fresh instances additionally prove the memoization keys correctly.
STRUCTURED_LEAVES = [
    lambda: NegotiatedVersion("TLSv12"),
    lambda: NegotiatedVersion("TLSv13"),
    lambda: NegotiatedMode("AEAD"),
    lambda: Advertises("rc4"),
    lambda: Advertises("aead"),
    lambda: Established(),
    lambda: Established(False),
]

#: A structured composite with no single index key — the vector tier is
#: the fastest tier that can answer it.
MODERN = AnyOf(NegotiatedVersion("TLSv12"), NegotiatedVersion("TLSv13"))


def _assert_identical(packed, scan, predicate, *, within=None):
    """Exact three-way agreement on every month plus the batched helper."""
    months = scan.months()
    assert packed.months() == months
    for month in months:
        assert packed.fraction(month, predicate, within) == scan.fraction(
            month, predicate, within
        )
        if within is None:
            assert packed.weight_where(month, predicate) == scan.weight_where(
                month, predicate
            )
    assert packed.monthly_fraction(predicate, within) == scan.monthly_fraction(
        predicate, within
    )


class TestShapeScanIdentity:
    def test_simple_predicates(self, packed_store, scan_store):
        for factory in SHAPE_PREDICATES:
            _assert_identical(packed_store, scan_store, factory())

    def test_within_established(self, packed_store, scan_store):
        for factory in SHAPE_PREDICATES:
            _assert_identical(
                packed_store, scan_store, factory(), within=ESTABLISHED
            )

    def test_within_lambda(self, packed_store, scan_store):
        within = lambda r: r.suite_count > 10  # noqa: E731
        for factory in SHAPE_PREDICATES[:4]:
            _assert_identical(packed_store, scan_store, factory(), within=within)

    def test_shape_tier_actually_served(self, packed_store, scan_store):
        PERF.reset()
        _assert_identical(packed_store, scan_store, lambda r: r.established)
        assert PERF.shape_path_hits > 0
        assert PERF.scan_fallbacks == 0

    def test_randomized_composites(self, packed_store, scan_store):
        rng = random.Random(20260806)

        def build(depth: int):
            if depth == 0 or rng.random() < 0.4:
                return rng.choice(SHAPE_PREDICATES)()
            kind = rng.randrange(3)
            if kind == 0:
                return Not(build(depth - 1))
            combiner = All if kind == 1 else AnyOf
            return combiner(*(build(depth - 1) for _ in range(rng.randrange(1, 4))))

        for _ in range(25):
            _assert_identical(packed_store, scan_store, build(3))

    def test_weighted_mean(self, packed_store, scan_store):
        values = [
            lambda r: r.positions.get("rc4"),
            lambda r: r.positions.get("aead"),
            lambda r: float(r.suite_count),
            lambda r: None,  # no rows -> None on every tier
        ]
        for value in values:
            for month in scan_store.months():
                assert packed_store.weighted_mean(
                    month, value
                ) == scan_store.weighted_mean(month, value)


class TestComposites:
    def test_semantics(self, packed_store):
        month = packed_store.months()[0]
        est = lambda r: r.established  # noqa: E731
        # Empty All is vacuously true, empty AnyOf vacuously false.
        assert packed_store.fraction(month, All()) == 1.0
        assert packed_store.weight_where(month, AnyOf()) == 0.0
        # Complement partitions the weight exactly.
        assert packed_store.weight_where(month, est) + packed_store.weight_where(
            month, Not(est)
        ) == pytest.approx(packed_store.total_weight(month))

    def test_simplify_to_index(self):
        # Not over an indexed boolean predicate is itself indexable.
        assert Not(ESTABLISHED).simplify() == Established(False)
        assert Not(Not(ESTABLISHED)).simplify() == ESTABLISHED
        inner = NegotiatedVersion("TLSv12")
        assert All(inner).simplify() is inner
        assert AnyOf(inner).simplify() is inner

    def test_indexable_composites_match_scan(self, packed_store, scan_store):
        for predicate in (
            Not(ESTABLISHED),
            All(NegotiatedVersion("TLSv12")),
            AnyOf(Established(False)),
            Not(Not(ESTABLISHED)),
        ):
            _assert_identical(packed_store, scan_store, predicate)

    def test_non_simplifiable_composites_match_scan(self, packed_store, scan_store):
        mixed = AnyOf(NegotiatedVersion("TLSv12"), lambda r: "rc4" in r.advertised)
        _assert_identical(packed_store, scan_store, mixed)
        _assert_identical(packed_store, scan_store, Not(mixed), within=ESTABLISHED)


class TestGuardedFallback:
    """Predicates the templates cannot answer must scan — and still agree."""

    def test_weight_reader_falls_back(self, packed_store, scan_store):
        PERF.reset()
        predicate = lambda r: r.weight > 0.5  # noqa: E731
        _assert_identical(packed_store, scan_store, predicate)
        assert PERF.scan_fallbacks > 0

    def test_month_reader_falls_back(self, packed_store, scan_store):
        predicate = lambda r: r.month.year >= 2015  # noqa: E731
        _assert_identical(packed_store, scan_store, predicate)

    def test_day_reader_falls_back(self, packed_store, scan_store):
        predicate = lambda r: r.day is not None  # noqa: E731
        _assert_identical(packed_store, scan_store, predicate)

    def test_raising_predicate_falls_back(self, packed_store, scan_store):
        # Guarded evaluation treats *any* template failure as "scan".
        predicate = lambda r: r.positions["rc4"] >= 0  # noqa: E731  (KeyError-prone)
        try:
            expected = scan_store.monthly_fraction(predicate)
        except KeyError:
            pytest.skip("predicate raises on the scan tier too")
        assert packed_store.monthly_fraction(predicate) == expected


class TestEscapeHatch:
    def test_use_index_false_disables_shape_tier(self, packed_store, scan_store):
        packed_store.use_index = False
        PERF.reset()
        _assert_identical(packed_store, scan_store, lambda r: r.established)
        assert PERF.shape_path_hits == 0
        assert PERF.shape_evals == 0

    def test_shape_templates_gated(self, packed_store):
        month = packed_store.months()[0]
        assert packed_store.shape_templates(month) is not None
        assert packed_store.packed_columns(month) is not None
        packed_store.use_index = False
        assert packed_store.shape_templates(month) is None
        assert packed_store.packed_columns(month) is None


class TestStoreLifecycles:
    """Fresh-packed vs cache-warm vs post-resume stores all agree."""

    def test_cache_warm_store(self, packed_store, scan_store, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = "f" * 64
        assert dataset_cache.save_store(packed_store, key) is not None
        warm = dataset_cache.load_store(key)
        assert warm is not None
        for factory in SHAPE_PREDICATES[:5]:
            _assert_identical(warm, scan_store, factory(), within=ESTABLISHED)
        PERF.reset()
        warm.fraction(warm.months()[0], lambda r: r.established)
        assert PERF.shape_path_hits == 1

    def test_post_resume_store(self, payload, scan_store):
        # The resume path re-attaches one partition per month, possibly
        # twice (idempotent re-adoption after a checkpoint replay).
        resumed = NotaryStore()
        for part in split_by_month(payload).values():
            resumed.attach_packed(PackedDataset(part), idempotent=True)
            resumed.attach_packed(PackedDataset(part), idempotent=True)
        assert resumed.months() == scan_store.months()
        for factory in SHAPE_PREDICATES[:5]:
            _assert_identical(resumed, scan_store, factory())
        for name, fig in figures.FIGURE_GENERATORS.items():
            assert fig(resumed) == fig(scan_store), name

    def test_montecarlo_day_months_stay_correct(self, montecarlo_store):
        # Day-resolution months carry a day column; the shape tier must
        # decline them (templates pin day=None) yet answers stay exact.
        reference = NotaryStore()
        reference.extend(montecarlo_store.records())
        reference.use_index = False
        packed = NotaryStore()
        packed.attach_packed(PackedDataset(pack_records(montecarlo_store.records())))
        month = packed.months()[0]
        assert packed.shape_templates(month) is None
        for factory in SHAPE_PREDICATES[:4]:
            _assert_identical(packed, reference, factory(), within=ESTABLISHED)


class TestTransientMaterialization:
    def test_records_keeps_month_packed(self, packed_store):
        month = packed_store.months()[0]
        records = packed_store.records(month)
        assert records
        assert month in packed_store._packed
        assert month in packed_store._mat_cache
        # Repeat reads come from the materialization cache, not a rebuild
        # (``records`` hands out defensive copies of one cached list).
        assert packed_store._month_records(month) is packed_store._month_records(
            month
        )
        assert packed_store.records(month) == records

    def test_materialize_cache_is_bounded(self, packed_store):
        packed_store.materialize_cache_months = 2
        for month in packed_store.months()[:4]:
            packed_store.records(month)
        assert len(packed_store._mat_cache) <= 2
        assert all(m in packed_store._packed for m in packed_store.months())

    def test_mutation_still_materializes_permanently(self, packed_store):
        month = packed_store.months()[0]
        record = packed_store.records(month)[0]
        packed_store.add(record)
        assert month not in packed_store._packed
        assert month not in packed_store._mat_cache

    def test_shape_answers_after_scan_traffic(self, packed_store, scan_store):
        # Interleaving scans (fallback predicates) with shape queries
        # must not degrade the shape tier.
        weight_reader = lambda r: r.weight >= 0.0  # noqa: E731
        for month in packed_store.months()[:3]:
            packed_store.fraction(month, weight_reader)
        PERF.reset()
        _assert_identical(packed_store, scan_store, lambda r: r.established)
        assert PERF.shape_path_hits > 0


class TestBatchedFigures:
    def test_evaluate_all_matches_individual(self, packed_store, scan_store):
        batched = figures.evaluate_all(packed_store)
        assert set(batched) == set(figures.FIGURE_GENERATORS)
        for name, fig in figures.FIGURE_GENERATORS.items():
            assert batched[name] == fig(packed_store), name
            assert batched[name] == fig(scan_store), name

    def test_months_subset(self, packed_store, scan_store):
        subset = scan_store.months()[2:5]
        for fig in figures.FIGURE_GENERATORS.values():
            assert fig(packed_store, months=subset) == fig(scan_store, months=subset)

    def test_tls13_mix_fast_path(self, late_window_store):
        scan = NotaryStore()
        scan.extend(late_window_store.records())
        scan.use_index = False
        packed = NotaryStore()
        packed.attach_packed(PackedDataset(pack_records(late_window_store.records())))
        saw_mix = False
        for month in scan.months():
            mix = figures.tls13_version_mix(packed, month)
            assert mix == figures.tls13_version_mix(scan, month)
            saw_mix = saw_mix or bool(mix)
        assert saw_mix, "late window should offer TLS 1.3"


class TestMetricsEvents:
    def _checker(self):
        spec = importlib.util.spec_from_file_location(
            "check_metrics_jsonl",
            Path(__file__).resolve().parent.parent
            / "scripts"
            / "check_metrics_jsonl.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_shape_events_pass_ci_validator(
        self, payload, tmp_path, monkeypatch
    ):
        sink = tmp_path / "metrics.jsonl"
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        store = NotaryStore()
        store.attach_packed(PackedDataset(payload))  # fresh dataset: view rebuilds
        month = store.months()[0]
        store.fraction(month, lambda r: r.established)
        store.fraction(month, lambda r: r.weight > 0.5)  # forces scan_fallback
        events = [
            json.loads(line)
            for line in sink.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        names = {event["event"] for event in events}
        assert "shape_view_build" in names
        assert "scan_fallback" in names
        checker = self._checker()
        last_ts: dict[int, float] = {}
        for event in events:
            assert checker.check_record(event, last_ts) is None, event

    @pytest.mark.skipif(not vector.available(), reason="numpy unavailable")
    def test_vector_events_pass_ci_validator(
        self, payload, tmp_path, monkeypatch
    ):
        sink = tmp_path / "metrics.jsonl"
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        store = NotaryStore()
        store.attach_packed(PackedDataset(payload))  # fresh dataset: view rebuilds
        month = store.months()[0]
        store.fraction(month, MODERN)  # vector hit -> view_build event
        store.fraction(month, lambda r: r.established)  # -> compile_miss
        events = [
            json.loads(line)
            for line in sink.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        outcomes = {
            event["outcome"]
            for event in events
            if event["event"] == "vector_path"
        }
        assert {"view_build", "compile_miss"} <= outcomes
        checker = self._checker()
        last_ts: dict[int, float] = {}
        for event in events:
            assert checker.check_record(event, last_ts) is None, event


@pytest.mark.skipif(not vector.available(), reason="numpy unavailable")
class TestVectorTier:
    """Three-way differential: vector ≡ shape ≡ scan, byte-identical."""

    def _stores(self, dataset) -> tuple[NotaryStore, NotaryStore]:
        vectorized = NotaryStore()
        vectorized.attach_packed(dataset)
        shaped = NotaryStore()
        shaped.attach_packed(dataset)
        shaped.use_vector = False
        return vectorized, shaped

    def _assert_three_way(self, dataset, scan, predicate, *, within=None):
        vectorized, shaped = self._stores(dataset)
        for month in scan.months():
            expected = scan.fraction(month, predicate, within)
            assert vectorized.fraction(month, predicate, within) == expected
            assert shaped.fraction(month, predicate, within) == expected
            if within is None:
                expected = scan.weight_where(month, predicate)
                assert vectorized.weight_where(month, predicate) == expected
                assert shaped.weight_where(month, predicate) == expected

    def test_structured_leaves(self, dataset, scan_store):
        for factory in STRUCTURED_LEAVES:
            self._assert_three_way(dataset, scan_store, factory())
            self._assert_three_way(
                dataset, scan_store, factory(), within=ESTABLISHED
            )

    def test_structured_within(self, dataset, scan_store):
        # A non-marker structured ``within`` exercises restrict_weights.
        self._assert_three_way(
            dataset, scan_store, MODERN, within=Advertises("cbc")
        )

    def test_randomized_structured_composites(self, dataset, scan_store):
        rng = random.Random(20260808)

        def build(depth: int):
            if depth == 0 or rng.random() < 0.4:
                return rng.choice(STRUCTURED_LEAVES)()
            kind = rng.randrange(3)
            if kind == 0:
                return Not(build(depth - 1))
            combiner = All if kind == 1 else AnyOf
            return combiner(*(build(depth - 1) for _ in range(rng.randrange(1, 4))))

        PERF.reset()
        for _ in range(25):
            self._assert_three_way(dataset, scan_store, build(3))
        assert PERF.vector_path_hits > 0

    def test_weighted_mean_positionof(self, dataset, scan_store):
        vectorized, shaped = self._stores(dataset)
        PERF.reset()
        for tag in ("rc4", "aead", "cbc", "no-such-tag"):
            value = PositionOf(tag)
            for month in scan_store.months():
                expected = scan_store.weighted_mean(month, value)
                assert vectorized.weighted_mean(month, value) == expected
                assert shaped.weighted_mean(month, value) == expected
        assert PERF.vector_path_hits > 0

    def test_vector_tier_actually_served(self, dataset, scan_store):
        vectorized, _ = self._stores(dataset)
        months = scan_store.months()
        PERF.reset()
        for month in months:
            vectorized.fraction(month, MODERN, ESTABLISHED)
        assert PERF.vector_path_hits == len(months)
        assert PERF.shape_path_hits == 0
        assert PERF.scan_fallbacks == 0

    def test_use_vector_false_disables_only_vector(self, dataset, scan_store):
        _, shaped = self._stores(dataset)
        PERF.reset()
        for month in scan_store.months():
            assert shaped.fraction(month, MODERN) == scan_store.fraction(
                month, MODERN
            )
        assert PERF.vector_path_hits == 0
        assert PERF.shape_path_hits > 0

    def test_cache_warm_store(self, packed_store, scan_store, tmp_path, monkeypatch):
        # The shape matrix rides the persistent dataset cache: a warm
        # load must serve the vector tier with zero recomputation.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = "e" * 64
        assert dataset_cache.save_store(packed_store, key) is not None
        warm = dataset_cache.load_store(key)
        assert warm is not None
        PERF.reset()
        for month in scan_store.months():
            assert warm.fraction(month, MODERN, ESTABLISHED) == scan_store.fraction(
                month, MODERN, ESTABLISHED
            )
        assert PERF.vector_path_hits > 0

    def test_post_resume_store(self, payload, scan_store):
        # split_by_month partitions predate the matrix field; the view
        # rebuilds it lazily and still answers identically.
        resumed = NotaryStore()
        for part in split_by_month(payload).values():
            resumed.attach_packed(PackedDataset(part), idempotent=True)
        PERF.reset()
        for month in scan_store.months():
            assert resumed.fraction(month, MODERN, ESTABLISHED) == scan_store.fraction(
                month, MODERN, ESTABLISHED
            )
            assert resumed.weighted_mean(
                month, PositionOf("aead")
            ) == scan_store.weighted_mean(month, PositionOf("aead"))
        assert PERF.vector_path_hits > 0

    def test_day_months_skip_vector(self, montecarlo_store):
        reference = NotaryStore()
        reference.extend(montecarlo_store.records())
        reference.use_index = False
        packed = NotaryStore()
        packed.attach_packed(PackedDataset(pack_records(montecarlo_store.records())))
        PERF.reset()
        for month in reference.months():
            assert packed.fraction(month, MODERN, ESTABLISHED) == reference.fraction(
                month, MODERN, ESTABLISHED
            )
        assert PERF.vector_path_hits == 0


class TestNumpyAbsentFallback:
    def test_queries_fall_back_to_shape_tier(self, dataset, scan_store, monkeypatch):
        monkeypatch.setattr(vector, "_np", None)
        assert not vector.available()
        store = NotaryStore()
        store.attach_packed(dataset)
        PERF.reset()
        for month in scan_store.months():
            assert store.fraction(month, MODERN, ESTABLISHED) == scan_store.fraction(
                month, MODERN, ESTABLISHED
            )
            assert store.weighted_mean(
                month, PositionOf("aead")
            ) == scan_store.weighted_mean(month, PositionOf("aead"))
        assert PERF.vector_path_hits == 0
        assert PERF.vector_compile_misses == 0  # tier off, not missing
        assert PERF.shape_path_hits > 0

    @pytest.mark.skipif(not vector.available(), reason="numpy unavailable")
    def test_scan_fold_pure_python_matches_numpy(self, scan_store, monkeypatch):
        """The scan oracle's vectorized weight fold is bit-equal to the
        pure-Python fold it replaced (PR 10 satellite: the last per-row
        scan hot loop) — on the fold helper directly and through every
        scan-path query method."""
        from repro.notary import store as store_mod

        rng = random.Random(1918)
        weights = [rng.random() * rng.choice([1e-9, 1.0, 1e9]) for _ in range(5000)]
        with_numpy = store_mod._scan_fold(weights)
        months = scan_store.months()
        vec = {
            m: (
                scan_store.total_weight(m),
                scan_store.fraction(m, MODERN, ESTABLISHED),
                scan_store.weight_where(m, Advertises("rc4")),
                scan_store.weighted_mean(m, PositionOf("aead")),
            )
            for m in months
        }
        monkeypatch.setattr(vector, "_np", None)
        assert not vector.available()
        assert store_mod._scan_fold(weights) == with_numpy
        for m in months:
            assert vec[m] == (
                scan_store.total_weight(m),
                scan_store.fraction(m, MODERN, ESTABLISHED),
                scan_store.weight_where(m, Advertises("rc4")),
                scan_store.weighted_mean(m, PositionOf("aead")),
            )

    def test_changepoint_pure_python_matches_numpy(self):
        import datetime as dt

        from repro.core import changepoint

        series = [
            (dt.date(2014, month, 1), value)
            for month, value in zip(
                range(1, 13),
                [1.0, 1.0, 1.1, 1.2, 1.5, 2.5, 4.0, 5.0, 5.5, 5.7, 5.8, 5.85],
            )
        ]
        with_numpy = changepoint.detect_changepoint(series)
        saved = changepoint.np
        changepoint.np = None
        try:
            pure = changepoint.detect_changepoint(series)
        finally:
            changepoint.np = saved
        assert pure.month == with_numpy.month
        assert pure.direction == with_numpy.direction
        assert pure.curvature == pytest.approx(with_numpy.curvature, abs=1e-12)


class TestIncrementalIngest:
    """add_batch on a new month never re-packs sealed months."""

    def _split(self, small_window_store):
        months = small_window_store.months()
        sealed, fresh = months[:-2], months[-2:]
        payload = pack_records(
            [r for m in sealed for r in small_window_store.records(m)]
        )
        return sealed, fresh, payload

    def test_append_counts_zero_pack_invocations(
        self, small_window_store, monkeypatch
    ):
        sealed, fresh, payload = self._split(small_window_store)
        store = NotaryStore()
        store.attach_packed(PackedDataset(payload))
        # Warm the fast tiers on sealed months first: the appends must
        # extend compiled state, not invalidate sealed months' answers.
        warm = [store.fraction(m, MODERN, ESTABLISHED) for m in sealed]

        calls = []
        real = partition.pack_records
        monkeypatch.setattr(
            partition,
            "pack_records",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        for month in fresh:
            store.add_batch(month, small_window_store.records(month))
        assert calls == [], "incremental ingest must not invoke pack_records"

        assert sorted(store.months()) == small_window_store.months()
        assert [store.fraction(m, MODERN, ESTABLISHED) for m in sealed] == warm
        # Both fresh months share the one store-local ingest dataset.
        assert store._packed[fresh[0]] is store._packed[fresh[1]]
        assert store._packed[fresh[0]] is store._ingest

    def test_ingested_months_answer_identically(self, small_window_store):
        _sealed, fresh, payload = self._split(small_window_store)
        store = NotaryStore()
        store.attach_packed(PackedDataset(payload))
        table_sizes = []
        for month in fresh:
            store.add_batch(month, small_window_store.records(month))
            # Index each month as it lands: the next append must drop the
            # index masks this caches on the grown dataset.
            store._index(month)
            table_sizes.append(len(store._ingest._shapes))
        assert table_sizes[0] < table_sizes[1]
        assert {
            month.toordinal(): store._index(month).to_payload() for month in fresh
        } == build_index_payloads(store._ingest._payload)
        scan = NotaryStore()
        scan.extend(small_window_store.records())
        scan.use_index = False
        for factory in SHAPE_PREDICATES[:4]:
            _assert_identical(store, scan, factory(), within=ESTABLISHED)
        _assert_identical(store, scan, MODERN)
        for month in fresh:
            assert store.weighted_mean(
                month, PositionOf("aead")
            ) == scan.weighted_mean(month, PositionOf("aead"))
        assert len(store) == len(scan)

    def test_colliding_month_materializes(self, small_window_store):
        sealed, _fresh, payload = self._split(small_window_store)
        store = NotaryStore()
        store.attach_packed(PackedDataset(payload))
        month = sealed[0]
        extra = small_window_store.records(month)[:5]
        store.add_batch(month, extra)
        assert month not in store._packed
        assert store._ingest is None
        assert len(store.records(month)) == len(
            small_window_store.records(month)
        ) + len(extra)

    def test_first_batch_into_empty_store_keeps_record_lists(
        self, small_window_store
    ):
        # No packed months attached -> the classic list-append behaviour
        # (fresh extend() stores are not silently packed).
        month = small_window_store.months()[0]
        store = NotaryStore()
        store.add_batch(month, small_window_store.records(month))
        assert store._ingest is None
        assert month in store._by_month


class TestMaterializeLruBound:
    def test_env_override_tightens_bound(self, packed_store, monkeypatch):
        monkeypatch.setenv("REPRO_MATERIALIZE_LRU", "1")
        for month in packed_store.months()[:3]:
            packed_store.records(month)
        assert len(packed_store._mat_cache) == 1

    def test_invalid_env_falls_back_to_default(self, packed_store, monkeypatch):
        monkeypatch.setenv("REPRO_MATERIALIZE_LRU", "not-a-number")
        for month in packed_store.months()[:3]:
            packed_store.records(month)
        assert len(packed_store._mat_cache) <= packed_store.materialize_cache_months

    def test_churn_logs_a_diagnostic(self, packed_store, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_MATERIALIZE_LRU", "1")
        months = packed_store.months()[:2]
        with caplog.at_level(logging.INFO, logger="repro.notary.store"):
            packed_store.records(months[0])
            packed_store.records(months[1])  # evicts months[0]
            packed_store.records(months[0])  # churn: re-materialization
        assert any("materialize LRU churn" in r.message for r in caplog.records)
