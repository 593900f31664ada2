"""Streaming-pack equivalence suite (the `--scale` byte-identity half).

The scaling architecture rests on three exact-equality claims, each
proven here rather than assumed:

* ``pack_stream`` over *any* chunking of a record sequence — one record
  per chunk, ragged chunks, one whole-sequence chunk, lazy generators —
  finishes with a payload **byte-identical** to ``pack_records`` over
  the concatenation.  Chunk boundaries bound how many record objects
  are alive at once; they must never leak into the output.
* The merge/remap machinery (``PackedMerge`` / ``remap_month``) that
  the out-of-core spill and the cache writer consume is byte-identical
  to re-packing the concatenated record streams sorted by month — the
  translated shape summaries carry the same floats bit for bit.
* The vectorized index construction (numpy ``cumsum`` folds) equals the
  pure-Python row loop equals the record-scan build — not approximately,
  ``==`` on every counter.

Comparisons use ``array.tobytes()`` and ``float.hex()`` so a ULP of
drift fails loudly instead of hiding inside ``pytest.approx``.
"""

from __future__ import annotations

import dataclasses
import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.notary.events import ConnectionRecord
from repro.notary.store import NotaryStore, _MonthIndex, month_of, month_range
from repro.notary import vector as _vector
from repro.engine.partition import (
    PackedDataset,
    PackedMerge,
    StreamPacker,
    merge_packed,
    pack_records,
    pack_stream,
    remap_month,
)


def _record(month, weight, established, variant=0, day=None):
    """A record whose shape varies with ``variant`` (so chunking and
    remapping exercise multi-shape tables, not a single-row degenerate)."""
    return ConnectionRecord(
        month=month,
        weight=weight,
        client_family="x",
        client_version=str(variant),
        client_category="",
        client_in_database=False,
        fingerprint=None,
        advertised=frozenset(),
        positions={},
        suite_count=1 + variant,
        offered_tls13=False,
        offered_tls13_versions=(),
        established=established,
        negotiated_version="TLSv12" if established else None,
        negotiated_wire=0x0303 if established else None,
        negotiated_suite=0x002F if established else None,
        negotiated_curve=None,
        heartbeat_negotiated=False,
        server_chose_unoffered=False,
        day=day,
    )


_months = st.dates(min_value=dt.date(2012, 1, 1), max_value=dt.date(2018, 4, 30)).map(
    month_of
)
_record_specs = st.lists(
    st.tuples(
        _months,
        st.floats(min_value=0.001, max_value=100),
        st.booleans(),
        st.integers(min_value=0, max_value=3),
        st.one_of(st.none(), st.integers(min_value=0, max_value=27)),
    ),
    min_size=0,
    max_size=60,
)


def _records_of(specs):
    return [
        _record(
            month,
            weight,
            established,
            variant,
            None if day_off is None else month + dt.timedelta(days=day_off),
        )
        for month, weight, established, variant, day_off in specs
    ]


def _chunk(records, sizes):
    """Cut ``records`` into chunks cycling through ``sizes`` (ragged)."""
    if not sizes:
        return [records]
    chunks, pos, i = [], 0, 0
    while pos < len(records):
        size = sizes[i % len(sizes)]
        chunks.append(records[pos : pos + size])
        pos += size
        i += 1
    return chunks


def _summary_blob(summary):
    return (
        summary["order"].tobytes(),
        summary["sums"].tobytes(),
        summary["last"].tobytes(),
        summary["total"].hex(),
        summary["established"].hex(),
    )


def _column_blob(columns):
    return (
        bytes(memoryview(columns["weights"])),
        bytes(memoryview(columns["shape_idx"])),
        columns["days"],
        _summary_blob(columns["shape_summary"]),
    )


def assert_payloads_identical(a, b):
    """Byte-identity between two packed payloads, component by component."""
    assert a["format"] == b["format"]
    assert a["shapes"] == b["shapes"]
    assert sorted(a["months"]) == sorted(b["months"])
    for month_ord in a["months"]:
        assert _column_blob(a["months"][month_ord]) == _column_blob(
            b["months"][month_ord]
        ), dt.date.fromordinal(month_ord)
    fields_a = a["shape_matrix"]["fields"]
    fields_b = b["shape_matrix"]["fields"]
    assert set(fields_a) == set(fields_b)
    for name in fields_a:
        assert fields_a[name]["vocab"] == fields_b[name]["vocab"], name
        assert (
            fields_a[name]["codes"].tobytes() == fields_b[name]["codes"].tobytes()
        ), name


class TestChunkingProperty:
    @given(_record_specs, st.lists(st.integers(min_value=1, max_value=9), max_size=8))
    @settings(max_examples=100)
    def test_any_chunking_matches_batch_pack(self, specs, sizes):
        records = _records_of(specs)
        streamed = pack_stream(_chunk(records, sizes))
        assert_payloads_identical(streamed, pack_records(records))

    @given(_record_specs)
    @settings(max_examples=50)
    def test_one_record_chunks(self, specs):
        records = _records_of(specs)
        streamed = pack_stream([r] for r in records)
        assert_payloads_identical(streamed, pack_records(records))

    @given(_record_specs)
    @settings(max_examples=50)
    def test_single_whole_chunk_and_generator_chunks(self, specs):
        records = _records_of(specs)
        batch = pack_records(records)
        assert_payloads_identical(pack_stream([records]), batch)
        # Generator chunks: records built on the fly, never a list.
        assert_payloads_identical(
            pack_stream((r for r in records[i : i + 3]) for i in range(0, len(records), 3)),
            batch,
        )

    def test_scaled_stream_replicas_share_the_identity_memo(self):
        # A scaled stream yields the *same* template object N times in a
        # row; the packer's identity memo must not change output.
        month = dt.date(2015, 1, 1)
        a = _record(month, 0.0, True)
        b = _record(month, 0.0, False)
        rows = [(0.25, a)] * 5 + [(0.5, b)] * 3 + [(0.125, a)]
        packer = StreamPacker()
        packer.add_rows(month, rows)
        records = [dataclasses.replace(t, weight=w) for w, t in rows]
        assert_payloads_identical(packer.finish(), pack_records(records))


class TestMergeProperty:
    @given(_record_specs)
    @settings(max_examples=60)
    def test_merge_of_per_month_packs_matches_sorted_batch(self, specs):
        records = _records_of(specs)
        by_month: dict[dt.date, list] = {}
        for record in records:
            by_month.setdefault(record.month, []).append(record)
        payloads = [pack_records(group) for group in by_month.values()]
        merged = merge_packed(payloads)
        flat = [r for month in sorted(by_month) for r in by_month[month]]
        assert_payloads_identical(merged, pack_records(flat))

    @given(_record_specs)
    @settings(max_examples=40)
    def test_streaming_merge_yields_the_materialized_merge(self, specs):
        records = _records_of(specs)
        by_month: dict[dt.date, list] = {}
        for record in records:
            by_month.setdefault(record.month, []).append(record)
        payloads = [pack_records(group) for group in by_month.values()]
        merged = merge_packed([dict(p) for p in payloads])
        merge = PackedMerge(payloads)
        streamed = dict(merge.months())
        assert sorted(streamed) == sorted(merged["months"])
        for month_ord, columns in streamed.items():
            assert _column_blob(columns) == _column_blob(merged["months"][month_ord])
        assert merge.shapes == merged["shapes"]

    def test_duplicate_month_across_payloads_rejected(self):
        payload = pack_records([_record(dt.date(2015, 1, 1), 1.0, True)])
        with pytest.raises(ValueError, match="more than one payload"):
            PackedMerge([payload, payload])


class TestRemapSummaryTranslation:
    @given(_record_specs)
    @settings(max_examples=60)
    def test_translated_summary_equals_rebuilt_summary(self, specs):
        # remap_month translates a pack-time summary through the index
        # remap (O(shapes)) instead of re-folding rows (O(rows)); the
        # two paths must produce identical bytes.
        records = _records_of(specs)
        by_month: dict[dt.date, list] = {}
        for record in records:
            by_month.setdefault(record.month, []).append(record)
        for group in by_month.values():
            payload = pack_records(group)
            (month_ord,) = payload["months"]
            columns = payload["months"][month_ord]
            shapes_a: list = []
            translated = remap_month(columns, payload["shapes"], shapes_a, {})
            stripped = dict(columns)
            stripped.pop("shape_summary")
            shapes_b: list = []
            rebuilt = remap_month(stripped, payload["shapes"], shapes_b, {})
            assert shapes_a == shapes_b
            assert _column_blob(translated) == _column_blob(rebuilt)


def _pack_rows(generator, months):
    """Pack a generator's expectation rows the way the runner does."""
    packer = StreamPacker()
    for month in months:
        packer.add_rows(month, generator.stream_expectation_month(month))
    return packer.finish()


class TestScaleSemantics:
    """The generator-side contract of ``--scale`` (satellite of the
    tentpole): record counts multiply, weights divide, totals hold."""

    @pytest.fixture(scope="class")
    def month(self):
        return dt.date(2014, 6, 1)

    def test_scale_1_stream_equals_batch_store(
        self, client_population, server_population, month
    ):
        from repro.notary import PassiveMonitor, TrafficGenerator

        monitor = PassiveMonitor()
        generator = TrafficGenerator(client_population, server_population, monitor)
        streamed = _pack_rows(generator, [month])
        generator.run_expectation_month(month)
        assert_payloads_identical(
            streamed, pack_records(monitor.store.records(month))
        )

    def test_scaled_stream_multiplies_counts_not_totals(
        self, client_population, server_population, month
    ):
        from repro.notary import PassiveMonitor, TrafficGenerator

        scale = 7
        base_gen = TrafficGenerator(
            client_population, server_population, PassiveMonitor()
        )
        scaled_gen = TrafficGenerator(
            client_population, server_population, PassiveMonitor(), scale=scale
        )
        base = _pack_rows(base_gen, [month])
        scaled = _pack_rows(scaled_gen, [month])
        # Same shape table: scaling replicates records, never invents new ones.
        assert scaled["shapes"] == base["shapes"]
        (base_cols,) = base["months"].values()
        (scaled_cols,) = scaled["months"].values()
        assert len(scaled_cols["weights"]) == scale * len(base_cols["weights"])
        base_store, scaled_store = NotaryStore(), NotaryStore()
        base_store.attach_packed(PackedDataset(base))
        scaled_store.attach_packed(PackedDataset(scaled))
        assert scaled_store.total_weight(month) == pytest.approx(
            base_store.total_weight(month), rel=1e-9
        )
        assert scaled_store.fraction(month, lambda r: r.established) == pytest.approx(
            base_store.fraction(month, lambda r: r.established), rel=1e-9
        )


#: Dec 2013 .. Mar 2014: spans the Feb-2014 fingerprint cutover, and
#: every month carries the SSL 2 record and affinity-routed families.
_ROW_WINDOW = month_range(dt.date(2013, 12, 1), dt.date(2014, 3, 1))


def _reference_records(generator, month, scale=1):
    """The per-row stream that template rows replace: one ``make_record``
    per row, yielded ``scale`` times, each with its template key."""
    from repro.notary.events import make_record
    from repro.servers.population import DEDICATED_PORTS

    record_month = month_of(month)
    fingerprint = month >= generator.monitor.fingerprint_fields_since
    server_mix = generator.servers.mix(month, weighting="traffic")
    for release, client_weight in generator.clients.mix(month):
        tag = generator.affinity.get(release.family)
        if tag is not None:
            destinations = [(generator.servers.dedicated(tag), 1.0)]
            port = DEDICATED_PORTS.get(tag, 443)
        else:
            destinations, port = server_mix, 443
        for tls13, tls13_weight in generator._tls13_splits(release, month):
            for server, server_weight in destinations:
                weight = client_weight * tls13_weight * server_weight
                if weight <= 0:
                    continue
                hello, result = generator._negotiate(release, tls13, server)
                record = make_record(
                    month=record_month,
                    day=None,
                    server_profile=server.name,
                    server_port=port,
                    weight=weight if scale == 1 else weight / scale,
                    hello=hello,
                    result=result,
                    client_family=release.family,
                    client_version=release.version,
                    client_category=release.category,
                    client_in_database=release.in_database,
                    record_fingerprint=fingerprint,
                )
                key = (
                    release.family, release.version, tls13,
                    server.name, port, fingerprint,
                )
                for _ in range(scale):
                    yield key, record
    ssl2 = ConnectionRecord(
        month=record_month,
        weight=generator.SSL2_WEIGHT / scale,
        client_family="Nagios NRPE",
        client_version="ssl2-probe",
        client_category="OS Tools and Services",
        client_in_database=False,
        fingerprint=None,
        advertised=frozenset({"rc4", "export"}),
        positions={},
        suite_count=2,
        offered_tls13=False,
        offered_tls13_versions=(),
        established=True,
        negotiated_version="SSLv2",
        negotiated_wire=0x0002,
        negotiated_suite=None,
        negotiated_curve=None,
        heartbeat_negotiated=False,
        server_chose_unoffered=False,
        server_profile="nagios-server",
        server_port=5666,
    )
    for _ in range(scale):
        yield ("ssl2",), ssl2


class TestTemplateRows:
    """Template rows ≡ the per-row ``make_record`` stream they replace."""

    def _generator(self, client_population, server_population, scale=1):
        from repro.notary import PassiveMonitor, TrafficGenerator

        return TrafficGenerator(
            client_population, server_population, PassiveMonitor(), scale=scale
        )

    def _reference(self, client_population, server_population, scale=1):
        generator = self._generator(client_population, server_population)
        return [
            pair
            for month in _ROW_WINDOW
            for pair in _reference_records(generator, month, scale)
        ]

    def test_window_covers_cutover_affinity_and_ssl2(
        self, client_population, server_population
    ):
        keys = {key for key, _ in self._reference(client_population, server_population)}
        assert ("ssl2",) in keys
        assert {key[-1] for key in keys if len(key) > 1} == {False, True}
        assert {key[0] for key in keys} & {"GridFTP", "Nagios NRPE"}

    @pytest.mark.parametrize("scale", [1, 3])
    def test_packed_rows_equal_per_row_pack(
        self, client_population, server_population, scale
    ):
        reference = self._reference(client_population, server_population, scale)
        generator = self._generator(client_population, server_population, scale)
        assert_payloads_identical(
            _pack_rows(generator, _ROW_WINDOW),
            pack_records(record for _, record in reference),
        )

    def test_run_expectation_month_records_equal_reference(
        self, client_population, server_population
    ):
        reference = [r for _, r in self._reference(client_population, server_population)]
        generator = self._generator(client_population, server_population)
        for month in _ROW_WINDOW:
            generator.run_expectation_month(month)
        records = generator.monitor.store.records()
        assert len(records) == len(reference)
        for got, want in zip(records, reference):
            assert type(got) is ConnectionRecord
            assert vars(got) == vars(want)

    def test_make_record_runs_once_per_distinct_key(
        self, client_population, server_population, monkeypatch
    ):
        from repro.notary import events

        reference = self._reference(client_population, server_population)
        keys = {key for key, _ in reference if key != ("ssl2",)}
        calls = []
        real = events.make_record
        monkeypatch.setattr(
            events, "make_record", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        generator = self._generator(client_population, server_population)
        rows = sum(
            1
            for month in _ROW_WINDOW
            for _ in generator.stream_expectation_month(month)
        )
        assert rows == len(reference)
        assert len(calls) == len(keys) < rows


class TestIndexVectorization:
    """Satellite: numpy counter construction ≡ pure-Python row loop ≡
    record-scan build — asserted with ``==``, never ``approx``."""

    @pytest.fixture(scope="class")
    def dataset(self, small_window_store):
        return PackedDataset(pack_records(small_window_store.records()))

    @pytest.mark.skipif(not _vector.available(), reason="numpy not installed")
    def test_vector_path_equals_python_path_equals_scan(
        self, dataset, small_window_store, monkeypatch
    ):
        for month in dataset.months():
            vectorized = _MonthIndex.from_columns(dataset, month)
            monkeypatch.setattr(_vector, "available", lambda: False)
            try:
                row_loop = _MonthIndex.from_columns(dataset, month)
            finally:
                monkeypatch.undo()
            scan = _MonthIndex.from_records(small_window_store.records(month))
            for a, b in ((vectorized, row_loop), (vectorized, scan)):
                assert a.total == b.total
                assert a.established == b.established
                assert a.weights == b.weights
                assert a.established_weights == b.established_weights

    def test_vector_path_handles_empty_month(self, dataset):
        index = _MonthIndex.from_columns(dataset, dt.date(1999, 1, 1))
        assert index.total == 0.0
        assert index.weights == {}
