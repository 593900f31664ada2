"""The Notary store: monthly-aggregated connection records.

The analysis layer reads everything through this store.  All percentage
series are weight-based: monthly fractions of connection weight matching
a predicate, mirroring the paper's "percent monthly connections" axes.

Aggregation runs four tiers, fastest first:

* **Indexed** — each month lazily builds an aggregate index: weight
  sums keyed by (dimension, value) for the standard figure dimensions
  (negotiated version/mode/kex/AEAD, advertised suite-class tags,
  establishment), over all records and over established records.
  Queries whose predicate is a :class:`repro.notary.query.IndexedPredicate`
  (or a composite that :meth:`simplify`-unwraps to one) are answered
  from these counters in O(1).
* **Vectorized** — predicates and value functions that declare a
  ``vector_field`` (every built-in predicate, ``All``/``AnyOf``/``Not``
  composites of them, ``PositionOf``) compile to numpy boolean masks
  over the payload's int-coded shape matrix — one Python call per
  *distinct field value*, not per shape — and fold with sequential
  ``cumsum`` kernels that replay the scan's row-order additions
  exactly (:mod:`repro.notary.vector`).  Skipped silently when numpy
  is absent or the callable doesn't compile; ``use_vector = False``
  disables just this tier (the bench's shape-tier comparator).
* **Shape-compiled** — packed months are dictionary-encoded: every row
  is a (weight, shape-index) pair into a table of distinct shapes, so
  an arbitrary predicate or ``weighted_mean`` value function has only
  O(shapes) distinct answers per month.  The store evaluates it once
  per *guarded* template record (memoized per dataset, so a whole
  multi-month series pays the per-shape evaluation once), then folds
  the verdicts with the month's weight columns — no record objects are
  ever materialized on this path.  Predicates that read per-row state
  (``month``, ``weight``) raise on the guarded templates and drop to a
  scan instead of answering wrongly; months carrying day columns skip
  this tier for the same reason.
* **Scan** — anything else falls back to scanning the month's record
  objects, exactly as before.  ``use_index = False`` forces this path
  everywhere, disabling *both* fast tiers (used by equivalence tests).

All three tiers are float-identical, not merely approximately equal:
counter accumulation and every shape-tier fold walk rows in record
order (IEEE addition is non-associative, so grouped per-shape sums
would drift in the last bits), and the differential suites assert
exact equality.  See DESIGN.md §6f for the full discipline.

The store can also hold months in packed columnar form
(:class:`repro.engine.partition.PackedDataset` — the parallel runner's
partitions and the persistent dataset cache attach these).  Packed
months *stay* packed: a scan or ``records()`` call materializes record
objects into a small transient LRU side-cache
(``materialize_cache_months``) while the columnar form remains
attached, so a one-off scan no longer permanently degrades the month.
Only mutation (``add`` / ``add_batch`` / ``extend``) materializes a
month for good, invalidating its index, shape view, and the all-months
record cache so lazy months are indistinguishable from eager ones —
with one exception: ``add_batch`` of a *new*, day-less month into a
store that already holds packed months takes the **incremental ingest**
path instead.  The batch is packed into a store-local ingest dataset
(:meth:`~repro.engine.partition.PackedDataset.append_month`, O(new
month)), sealed months are never re-packed, and the new month is
immediately servable by every fast tier.
"""

from __future__ import annotations

import datetime as _dt
import os
from collections import OrderedDict, defaultdict
from collections.abc import Callable, Iterable
from itertools import compress
from operator import mul

from repro.engine.perf import PERF
from repro.notary import vector as _vector
from repro.notary.events import ConnectionRecord
from repro.notary.query import Established, IndexedPredicate
from repro.obs import emit_event, get_logger

_log = get_logger("repro.notary.store")


def month_of(day: _dt.date) -> _dt.date:
    """Normalize a date to the first of its month."""
    return day.replace(day=1)


def month_range(start: _dt.date, end: _dt.date) -> list[_dt.date]:
    """All month-firsts from ``start``'s month to ``end``'s month inclusive."""
    months = []
    cursor = month_of(start)
    last = month_of(end)
    while cursor <= last:
        months.append(cursor)
        cursor = (cursor.replace(day=28) + _dt.timedelta(days=4)).replace(day=1)
    return months


def _scan_fold(weights: list) -> float:
    """Row-order weight fold for the scan oracle.

    With numpy present the collected weights fold through ``cumsum`` —
    one compiled pass instead of a per-row interpreted add.  The two
    paths are equal bit-for-bit, not merely close: the Python fold
    starts at ``0.0`` (and ``0.0 + w == w`` exactly) and adds
    left-to-right, and ``cumsum`` performs the same float64 additions
    on the same operands in the same order — the differential test
    asserts ``==``, never approximate equality.
    """
    if not weights:
        return 0.0
    if _vector.available():
        import numpy as _np

        return float(_np.cumsum(_np.asarray(weights, dtype=_np.float64))[-1])
    total = 0.0
    for weight in weights:
        total += weight
    return total


def _record_keys(record: ConnectionRecord) -> list[tuple[str, object]]:
    """The (dimension, value) index keys one record contributes to."""
    keys = [
        ("version", record.negotiated_version),
        ("mode", record.negotiated_mode_class),
        ("kex", record.negotiated_kex),
        ("aead", record.negotiated_aead_algorithm),
        ("established", record.established),
    ]
    keys.extend(("advert", tag) for tag in record.advertised)
    return keys


class _MonthIndex:
    """Precomputed weight sums for one month's records."""

    __slots__ = ("total", "established", "weights", "established_weights")

    def __init__(self) -> None:
        self.total = 0.0
        self.established = 0.0
        self.weights: dict[tuple[str, object], float] = {}
        self.established_weights: dict[tuple[str, object], float] = {}

    @classmethod
    def from_records(cls, records: list[ConnectionRecord]) -> "_MonthIndex":
        index = cls()
        weights: dict = defaultdict(float)
        established_weights: dict = defaultdict(float)
        for record in records:
            weight = record.weight
            index.total += weight
            keys = _record_keys(record)
            for key in keys:
                weights[key] += weight
            if record.established:
                index.established += weight
                for key in keys:
                    established_weights[key] += weight
        index.weights = dict(weights)
        index.established_weights = dict(established_weights)
        return index

    @classmethod
    def from_columns(cls, dataset, month: _dt.date) -> "_MonthIndex":
        """Build from a packed month without materializing records.

        Per-shape key lists are derived once from the dataset's template
        records and cached on the dataset; accumulation then walks the
        weight column in row order, so the result is float-identical to
        :meth:`from_records` over the materialized month.

        With numpy present the per-key counters are built by vectorized
        folds instead of a per-row Python loop (see
        :meth:`_from_columns_vector`); the two paths are equal — not
        merely close — because every vectorized fold replays the same
        row-order addition sequence, and the differential test asserts
        it.
        """
        shape_keys = getattr(dataset, "_index_shape_keys", None)
        if shape_keys is None:
            shape_keys = [
                (_record_keys(template), template.established)
                for template in dataset.template_records()
            ]
            dataset._index_shape_keys = shape_keys
        columns = dataset.columns(month)
        if columns is not None and _vector.available():
            masks = getattr(dataset, "_index_shape_masks", None)
            if masks is None:
                masks = dataset._index_shape_masks = cls._shape_masks(shape_keys)
            return cls._from_columns_vector(masks, columns)
        index = cls()
        weights: dict = defaultdict(float)
        established_weights: dict = defaultdict(float)
        if columns is not None:
            weight_column, idx_column = columns
            for i, idx in enumerate(idx_column):
                weight = weight_column[i]
                index.total += weight
                keys, established = shape_keys[idx]
                for key in keys:
                    weights[key] += weight
                if established:
                    index.established += weight
                    for key in keys:
                        established_weights[key] += weight
        index.weights = dict(weights)
        index.established_weights = dict(established_weights)
        return index

    @staticmethod
    def _shape_masks(shape_keys) -> tuple:
        """``(est_shape, key_shapes)`` over a whole shape table.

        ``est_shape`` flags the established shapes; ``key_shapes`` maps
        each index key, in first-occurrence order over the table, to the
        flags of the shapes that carry it.  Month-independent, so it is
        built once per dataset and cached next to ``_index_shape_keys``.
        """
        import numpy as _np

        n_shapes = len(shape_keys)
        est_shape = _np.fromiter(
            (established for _keys, established in shape_keys),
            dtype=bool,
            count=n_shapes,
        )
        key_rows: dict = {}
        for shape_idx, (keys, _established) in enumerate(shape_keys):
            for key in keys:
                key_rows.setdefault(key, []).append(shape_idx)
        key_shapes: dict = {}
        for key, rows in key_rows.items():
            mask = key_shapes[key] = _np.zeros(n_shapes, dtype=bool)
            mask[rows] = True
        return est_shape, key_shapes

    @classmethod
    def _from_columns_vector(cls, masks, columns) -> "_MonthIndex":
        """Numpy counter construction over :meth:`_shape_masks`.

        Float-identity argument: the row loop keeps one accumulator per
        (dimension, value) key, added to once per matching row in row
        order starting from ``0.0`` (and ``0.0 + w == w`` exactly).  A
        ``cumsum`` over the weights *compressed by that key's row mask*
        performs the same additions on the same operands in the same
        order — so each counter, the month total, and the established
        fold come out bit-for-bit equal to :meth:`from_records`.
        """
        import numpy as _np

        index = cls()
        weight_column, idx_column = columns
        rows = len(weight_column)
        if rows == 0:
            return index
        w = _np.frombuffer(weight_column, dtype=_np.float64)
        idx = _np.frombuffer(
            idx_column, dtype=_np.dtype(f"u{idx_column.itemsize}")
        )

        def fold(values) -> float:
            return float(_np.cumsum(values)[-1]) if len(values) else 0.0

        index.total = fold(w)
        est_shape, key_shapes = masks
        est_rows = est_shape[idx]
        index.established = fold(w[est_rows])
        weights: dict = {}
        established_weights: dict = {}
        for key, shape_mask in key_shapes.items():
            key_rows = shape_mask[idx]
            if not key_rows.any():
                continue
            weights[key] = fold(w[key_rows])
            both = key_rows & est_rows
            if both.any():
                established_weights[key] = fold(w[both])
        index.weights = weights
        index.established_weights = established_weights
        return index

    # ---- cache (de)serialization -------------------------------------------

    def to_payload(self) -> dict:
        return {
            "total": self.total,
            "established": self.established,
            "weights": list(self.weights.items()),
            "established_weights": list(self.established_weights.items()),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "_MonthIndex":
        index = cls()
        index.total = payload["total"]
        index.established = payload["established"]
        index.weights = dict(payload["weights"])
        index.established_weights = dict(payload["established_weights"])
        return index


class _ShapeView:
    """Compiled per-month state for the shape tier.

    Holds the month's weight/shape-index columns, the pack-time
    per-shape group-by, and the dataset's guarded templates.  Every
    fold below walks rows in record order; the only shortcuts taken
    are the ones that are *provably* the same left fold the scan path
    performs (empty match, single matching shape, all rows matching).
    The folds run through ``itertools.compress`` + ``map`` + ``sum``,
    which perform the identical addition sequence at C speed.

    Views are immutable, so they are shared *per dataset* (every store
    attaching the same packed dataset reuses them) — see
    :meth:`NotaryStore._shape_view`.
    """

    #: Fold-result memo cap; the memos are cleared wholesale past this.
    CACHE_LIMIT = 1024

    __slots__ = (
        "dataset",
        "templates",
        "weights",
        "idxs",
        "sum_of",
        "total",
        "established",
        "est_shapes",
        "_weight_cache",
        "_pair_cache",
        "_mean_cache",
    )

    def __init__(self, dataset, month: _dt.date) -> None:
        summary = dataset.shape_summary(month)
        self.dataset = dataset
        self.templates = dataset.guarded_templates()
        self.weights, self.idxs = dataset.columns(month)
        #: shape index -> total weight of its rows (row-order fold).
        self.sum_of = dict(zip(summary["order"], summary["sums"]))
        self.total = summary["total"]
        self.established = summary["established"]
        self.est_shapes = frozenset(
            idx for idx in self.sum_of if self.templates[idx].established
        )
        # Columns are immutable, so fold results are cacheable by match
        # set: equivalent predicates (even distinct callables) pay the
        # O(rows) fold once per view.  Cached values were computed by
        # the exact fold, so hits preserve float identity trivially.
        self._weight_cache: dict = {}
        self._pair_cache: dict = {}
        self._mean_cache: dict = {}

    def weight_of(self, matches: frozenset) -> float:
        """Total weight of rows whose shape is in ``matches`` (exact)."""
        cached = self._weight_cache.get(matches)
        if cached is not None:
            return cached
        present = matches & self.sum_of.keys()
        if not present:
            result = 0.0
        elif len(present) == 1:
            # One shape's pack-time sum is a fold over exactly its rows
            # in row order — the same fold the scan would perform.
            result = self.sum_of[next(iter(present))]
        elif len(present) == len(self.sum_of):
            result = self.total
        else:
            flags = self._flags(present)
            result = sum(compress(self.weights, map(flags.__getitem__, self.idxs)))
        if len(self._weight_cache) >= self.CACHE_LIMIT:
            self._weight_cache.clear()
        self._weight_cache[matches] = result
        return result

    def _flags(self, shape_indices) -> bytearray:
        """Per-shape membership flags (row selectors via ``shape_idx``)."""
        flags = bytearray(len(self.templates))
        for idx in shape_indices:
            flags[idx] = 1
        return flags

    def restrict_weights(
        self, within_matches: frozenset, matches: frozenset
    ) -> tuple[float, float]:
        """(denominator, numerator) folds under a ``within`` restriction.

        Mirrors the scan exactly: the denominator folds the restricted
        rows in row order, the numerator folds the restricted-and-
        matching rows in row order, both from zero.
        """
        key = (within_matches, matches)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        wflags = self._flags(within_matches)
        bflags = self._flags(within_matches & matches)
        total = sum(compress(self.weights, map(wflags.__getitem__, self.idxs)))
        matched = sum(compress(self.weights, map(bflags.__getitem__, self.idxs)))
        if len(self._pair_cache) >= self.CACHE_LIMIT:
            self._pair_cache.clear()
        self._pair_cache[key] = (total, matched)
        return total, matched

    def mean_of(self, values: list) -> float | None:
        """Row-order weighted mean of per-shape values (exact).

        The scan keeps two accumulators over the non-None rows —
        ``acc += w * v`` and ``total += w`` — and each sees its own
        addition sequence, so folding them in two passes (same row
        order, same per-row products) is float-identical.
        """
        try:
            key = tuple(values)
            cached = self._mean_cache.get(key, _MISSING)
        except TypeError:  # unhashable per-shape values: fold uncached
            key = None
            cached = _MISSING
        if cached is not _MISSING:
            return cached
        vflags = bytes(0 if v is None else 1 for v in values)

        def selected(source):
            return compress(source, map(vflags.__getitem__, self.idxs))

        acc = sum(map(mul, selected(self.weights), selected(map(values.__getitem__, self.idxs))))
        total = sum(selected(self.weights))
        result = None if total <= 0 else acc / total
        if key is not None:
            if len(self._mean_cache) >= self.CACHE_LIMIT:
                self._mean_cache.clear()
            self._mean_cache[key] = result
        return result


def build_index_payloads(payload: dict) -> dict[int, dict]:
    """Serializable aggregate indexes for one packed payload's months.

    The parallel runner calls this per adopted chunk, while the chunk's
    columns are still ordinary resident arrays — so by the time the
    dataset lives behind an mmap, every month's index already exists
    and neither the cache save nor a later ``stats`` query has to page
    column bytes back in.  Accumulation is row-order
    (:meth:`_MonthIndex.from_columns`), so the result is float-identical
    no matter which payload (chunk-local or merged) it was built from.
    """
    from repro.engine.partition import PackedDataset

    dataset = PackedDataset(payload)
    return {
        month.toordinal(): _MonthIndex.from_columns(dataset, month).to_payload()
        for month in dataset.months()
    }


def _index_key(predicate) -> tuple[str, object] | None:
    if isinstance(predicate, IndexedPredicate):
        return predicate.index_key
    simplify = getattr(predicate, "simplify", None)
    if simplify is not None:
        simplified = simplify()
        if isinstance(simplified, IndexedPredicate):
            return simplified.index_key
    return None


def _is_established_marker(within) -> bool:
    return isinstance(within, Established) and within.value is True


#: Cache-miss sentinel (``None`` is a legitimate cached result).
_MISSING = object()


class NotaryStore:
    """Holds connection records grouped by month."""

    #: How many packed months keep a transiently materialized record
    #: list around (LRU).  Read paths materialize into this side cache
    #: and leave the packed columnar form attached.
    materialize_cache_months = 4

    def __init__(self) -> None:
        self._by_month: dict[_dt.date, list[ConnectionRecord]] = defaultdict(list)
        #: Months still held in packed columnar form: month -> dataset.
        self._packed: dict[_dt.date, object] = {}
        self._indexes: dict[_dt.date, _MonthIndex] = {}
        self._shape_views: dict[_dt.date, _ShapeView] = {}
        self._vector_views: dict[_dt.date, object] = {}
        #: Store-local dataset accumulating incrementally ingested
        #: months (see :meth:`add_batch`); lazily created.
        self._ingest = None
        #: Transient record lists for packed months (read path only).
        self._mat_cache: OrderedDict[_dt.date, list[ConnectionRecord]] = OrderedDict()
        #: Months evicted from the transient LRU (churn diagnostics).
        self._mat_evicted: set[_dt.date] = set()
        self._all_records: list[ConnectionRecord] | None = None
        #: Escape hatch: force every aggregate through the scan path.
        #: Disables the index, vector, and shape tiers.
        self.use_index = True
        #: Narrower escape hatch: keep index + shape tiers but skip the
        #: vectorized tier (differential tests and the bench's
        #: shape-tier comparator arm).
        self.use_vector = True

    # ---- mutation ----------------------------------------------------------

    def add(self, record: ConnectionRecord) -> None:
        self._materialize(record.month)
        self._by_month[record.month].append(record)
        self._invalidate(record.month)

    def add_batch(self, month: _dt.date, records: list[ConnectionRecord]) -> None:
        """Append a whole month partition in one call (engine merge path).

        A *new*, day-less month arriving at a store that already holds
        packed months is **ingested incrementally**: packed straight
        into a store-local ingest dataset (O(new month) — the shared
        shape table, matrix, and this month's summary extend in place)
        and attached packed, so its index, shape view, and vector view
        build lazily like any other packed month and no sealed month is
        ever re-packed.  Every other case — a colliding month, a store
        with no packed months, day-carrying records — keeps the
        materializing behaviour.
        """
        month = month_of(month)
        if (
            records
            and (self._packed or self._ingest is not None)
            and month not in self._packed
            and month not in self._by_month
            and all(r.day is None for r in records)
        ):
            self._ingest_month(month, records)
            return
        self._materialize(month)
        self._by_month[month].extend(records)
        self._invalidate(month)

    def _ingest_month(self, month: _dt.date, records: list[ConnectionRecord]) -> None:
        from repro.engine.partition import PackedDataset

        dataset = self._ingest
        if dataset is None:
            dataset = self._ingest = PackedDataset.empty()
        dataset.append_month(month, records)
        self._packed[month] = dataset
        # The append invalidated the dataset's compiled memos; drop this
        # store's per-month handles into them so they rebuild in sync.
        self._vector_views = {}
        self._all_records = None

    def extend(self, records: Iterable[ConnectionRecord]) -> None:
        grouped: dict[_dt.date, list[ConnectionRecord]] = defaultdict(list)
        for record in records:
            grouped[record.month].append(record)
        for month, batch in grouped.items():
            self.add_batch(month, batch)

    def attach_packed(self, dataset, *, idempotent: bool = False) -> None:
        """Adopt a :class:`~repro.engine.partition.PackedDataset` lazily.

        Months the store does not hold yet stay packed until a scan needs
        them; months that collide with existing data are materialized
        and appended immediately.

        With ``idempotent=True`` colliding months are *skipped* instead
        of appended: the engine's recovery paths (checkpoint resume,
        chunk retries) may legitimately present a month the store
        already holds, and re-attaching must not double its records.
        """
        for month in dataset.months():
            if month in self._by_month or month in self._packed:
                if idempotent:
                    continue
                self.add_batch(month, dataset.materialize(month))
            else:
                self._packed[month] = dataset
        self._all_records = None

    def install_index_payloads(self, payloads: dict) -> None:
        """Adopt persisted aggregate indexes for still-packed months."""
        for month_ord, data in payloads.items():
            month = _dt.date.fromordinal(month_ord)
            if month in self._packed and month not in self._indexes:
                self._indexes[month] = _MonthIndex.from_payload(data)

    def index_payloads(self) -> dict[int, dict]:
        """Serializable aggregate indexes for every month (cache path)."""
        out = {}
        for month in self.months():
            index = self._index(month)
            if index is not None:
                out[month.toordinal()] = index.to_payload()
        return out

    def _materialize(self, month: _dt.date) -> None:
        """Permanently convert a packed month into mutable record lists.

        Only the mutation path calls this.  Read paths go through
        :meth:`_month_records`, which materializes into the transient
        LRU cache and keeps the packed dataset attached.
        """
        dataset = self._packed.pop(month, None)
        if dataset is not None:
            cached = self._mat_cache.pop(month, None)
            self._by_month[month].extend(
                dataset.materialize(month) if cached is None else cached
            )
            self._shape_views.pop(month, None)
            self._vector_views.pop(month, None)
            self._all_records = None

    def _invalidate(self, month: _dt.date) -> None:
        self._indexes.pop(month, None)
        self._shape_views.pop(month, None)
        self._vector_views.pop(month, None)
        self._mat_cache.pop(month, None)
        self._all_records = None

    # ---- access ------------------------------------------------------------

    def months(self) -> list[_dt.date]:
        if self._packed:
            return sorted(set(self._by_month) | set(self._packed))
        return sorted(self._by_month)

    def _materialize_limit(self) -> int:
        """The transient-LRU bound: ``REPRO_MATERIALIZE_LRU`` when set
        (and a valid integer), else :attr:`materialize_cache_months`."""
        raw = os.environ.get("REPRO_MATERIALIZE_LRU", "").strip()
        if raw:
            try:
                return max(1, int(raw))
            except ValueError:
                _log.warning(
                    "ignoring non-integer REPRO_MATERIALIZE_LRU=%r", raw
                )
        return max(1, int(self.materialize_cache_months))

    def _month_records(self, month: _dt.date) -> list[ConnectionRecord]:
        """The month's record list; packed months materialize transiently."""
        if month in self._by_month:
            return self._by_month[month]
        dataset = self._packed.get(month)
        if dataset is None:
            return []
        records = self._mat_cache.get(month)
        if records is None:
            records = dataset.materialize(month)
            if month in self._mat_evicted:
                # The working set is cycling through the LRU: every
                # revisit pays a full re-materialization.
                self._mat_evicted.discard(month)
                _log.info(
                    "materialize LRU churn: month %s re-materialized after "
                    "eviction (bound %d; raise REPRO_MATERIALIZE_LRU to fit "
                    "the working set)",
                    month.isoformat(),
                    self._materialize_limit(),
                )
            self._mat_cache[month] = records
            limit = self._materialize_limit()
            while len(self._mat_cache) > limit:
                evicted, _records = self._mat_cache.popitem(last=False)
                self._mat_evicted.add(evicted)
        else:
            self._mat_cache.move_to_end(month)
        return records

    def records(self, month: _dt.date | None = None) -> list[ConnectionRecord]:
        if month is not None:
            return list(self._month_records(month_of(month)))
        if self._all_records is None:
            self._all_records = [
                r for m in self.months() for r in self._month_records(m)
            ]
        return list(self._all_records)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_month.values()) + sum(
            dataset.count(month) for month, dataset in self._packed.items()
        )

    def packed_merge(self):
        """A streaming merge over the store's packed payloads, or None.

        Available when every month is held in packed form (no raw
        record lists): the per-dataset payloads merge columnar-ly
        (:class:`repro.engine.partition.PackedMerge`) — byte-identical
        to ``pack_records(self.records())`` without materializing a
        single record object, and consumable month by month, which is
        what keeps the cache-save path O(one month) resident at any
        ``--scale``.
        """
        if any(self._by_month.values()) or not self._packed:
            return None
        from repro.engine.partition import PackedMerge

        seen: dict[int, object] = {}
        payloads = []
        for dataset in self._packed.values():
            if id(dataset) not in seen:
                seen[id(dataset)] = dataset
                payloads.append(dataset._payload)
        covered = [
            month_ord
            for payload in payloads
            for month_ord in payload["months"]
        ]
        if len(covered) != len(set(covered)) or set(covered) != {
            month.toordinal() for month in self._packed
        }:
            # A dataset month the store skipped at attach time (the
            # idempotent-resume collision case) would smuggle duplicate
            # rows into the merge; let the record path handle it.
            return None
        return PackedMerge(payloads)

    def packed_spill(self):
        """The ``BlobSpill`` backing this store's packed months, or None.

        Available when the store holds exactly one packed dataset whose
        payload was produced by :meth:`repro.engine.cache.BlobSpill.finish_payload`
        and every month the store serves came from it — the cache-save
        path then seals the blob by splicing the spill's region file
        instead of reading the mapped columns back.
        """
        if any(self._by_month.values()) or not self._packed:
            return None
        datasets = {id(d): d for d in self._packed.values()}
        if len(datasets) != 1:
            return None
        payload = next(iter(datasets.values()))._payload
        spill = payload.get("_spill")
        if spill is None:
            return None
        if set(payload["months"]) != {m.toordinal() for m in self._packed}:
            return None
        return spill

    def packed_payload(self) -> dict | None:
        """One merged in-memory payload covering the whole store, or
        None (the materializing wrapper over :meth:`packed_merge`)."""
        merge = self.packed_merge()
        if merge is None:
            return None
        from repro.engine.partition import build_shape_matrix, PARTITION_FORMAT

        months = {month_ord: columns for month_ord, columns in merge.months()}
        return {
            "format": PARTITION_FORMAT,
            "shapes": merge.shapes,
            "months": months,
            "shape_matrix": build_shape_matrix(merge.shapes),
        }

    # ---- shape-level access (figure fast paths) ----------------------------

    def shape_templates(
        self, month: _dt.date, *, order: str = "first"
    ) -> list[ConnectionRecord] | None:
        """Guarded template records of the shapes present in ``month``.

        Returns ``None`` whenever the shape tier cannot serve the month
        (not packed, day columns present, or ``use_index`` is off);
        callers then fall back to ``records(month)``.  ``order="first"``
        yields shapes by first appearance in record order,
        ``order="last"`` by last appearance — the order a last-wins
        dict fold over the records would visit its surviving writers.
        """
        month = month_of(month)
        if not self.use_index:
            return None
        dataset = self._packed.get(month)
        if dataset is None or dataset.has_days(month):
            return None
        summary = dataset.shape_summary(month)
        templates = dataset.guarded_templates()
        picks = summary["last"] if order == "last" else summary["order"]
        return [templates[idx] for idx in picks]

    def packed_columns(self, month: _dt.date):
        """``(weights, shape_idx, guarded templates)`` for a packed month.

        Same availability rules as :meth:`shape_templates`; lets figure
        code run exact row-order folds without materializing records.
        """
        month = month_of(month)
        if not self.use_index:
            return None
        dataset = self._packed.get(month)
        if dataset is None or dataset.has_days(month):
            return None
        weights, idxs = dataset.columns(month)
        return weights, idxs, dataset.guarded_templates()

    # ---- aggregation -------------------------------------------------------

    def _index(self, month: _dt.date) -> _MonthIndex | None:
        if not self.use_index:
            return None
        index = self._indexes.get(month)
        if index is not None:
            return index
        dataset = self._packed.get(month)
        if dataset is not None:
            index = _MonthIndex.from_columns(dataset, month)
        else:
            records = self._by_month.get(month)
            if not records:
                return None
            index = _MonthIndex.from_records(records)
        self._indexes[month] = index
        return index

    def _shape_view(self, month: _dt.date) -> _ShapeView | None:
        if not self.use_index:
            return None
        view = self._shape_views.get(month)
        if view is not None:
            return view
        dataset = self._packed.get(month)
        if dataset is None or dataset.has_days(month):
            # Day columns vary per row; the shared guarded templates pin
            # ``day = None``, so day-carrying months must scan.
            return None
        # Views are immutable, so they live on the dataset and are
        # shared by every store that attaches it (same pattern as the
        # index shape keys); a fresh store pays only a dict lookup.
        shared = getattr(dataset, "_shape_view_cache", None)
        if shared is None:
            shared = dataset._shape_view_cache = {}
        view = shared.get(month)
        if view is None:
            view = shared[month] = _ShapeView(dataset, month)
            emit_event(
                "shape_view_build",
                month=month.isoformat(),
                shapes=len(view.sum_of),
                rows=len(view.weights),
            )
        self._shape_views[month] = view
        return view

    def _vector_view(self, month: _dt.date):
        """The month's vector view, or None when the tier can't serve it
        (numpy absent, month not packed / day-carrying, or either escape
        hatch flipped).  ``None`` always means "try the shape tier"."""
        if not (self.use_index and self.use_vector and _vector.available()):
            return None
        view = self._vector_views.get(month)
        if view is not None:
            return view
        dataset = self._packed.get(month)
        if dataset is None or dataset.has_days(month):
            return None
        view = _vector.view_for(dataset, month)
        if view is not None:
            self._vector_views[month] = view
        return view

    def _vector_note(self, month: _dt.date, reason: str) -> None:
        """Record a vector compile miss (the shape tier serves instead)."""
        if self.use_index and month in self._packed:
            PERF.vector_compile_misses += 1
            emit_event(
                "vector_path",
                month=month.isoformat(),
                outcome="compile_miss",
                reason=reason,
            )

    def _scan_note(self, month: _dt.date, reason: str) -> None:
        """Record a scan the fast tiers could have served but did not."""
        if self.use_index and month in self._packed:
            PERF.scan_fallbacks += 1
            emit_event("scan_fallback", month=month.isoformat(), reason=reason)

    def total_weight(self, month: _dt.date) -> float:
        month = month_of(month)
        index = self._index(month)
        if index is not None:
            return index.total
        return _scan_fold([r.weight for r in self._month_records(month)])

    def weight_where(
        self, month: _dt.date, predicate: Callable[[ConnectionRecord], bool]
    ) -> float:
        month = month_of(month)
        if self.use_index:
            key = _index_key(predicate)
            if key is not None:
                index = self._index(month)
                if index is not None:
                    return index.weights.get(key, 0.0)
            vview = self._vector_view(month)
            if vview is not None:
                mask = vview.matrix.compile_mask(predicate)
                if mask is not None:
                    PERF.vector_path_hits += 1
                    return vview.weight_of(mask)
                self._vector_note(month, "predicate")
            view = self._shape_view(month)
            if view is not None:
                matches = view.dataset.compile_predicate(predicate)
                if matches is not None:
                    PERF.shape_path_hits += 1
                    return view.weight_of(matches)
                self._scan_note(month, "predicate")
        return _scan_fold(
            [r.weight for r in self._month_records(month) if predicate(r)]
        )

    def fraction(
        self,
        month: _dt.date,
        predicate: Callable[[ConnectionRecord], bool],
        within: Callable[[ConnectionRecord], bool] | None = None,
    ) -> float:
        """Weighted fraction of records matching ``predicate``.

        ``within`` restricts the denominator (e.g. established
        connections only); default denominator is all records of the
        month.  Returns 0.0 for empty months.
        """
        month = month_of(month)
        if self.use_index:
            key = _index_key(predicate)
            if key is not None:
                index = self._index(month)
                if index is not None:
                    if within is None:
                        if index.total <= 0:
                            return 0.0
                        return index.weights.get(key, 0.0) / index.total
                    if _is_established_marker(within):
                        if index.established <= 0:
                            return 0.0
                        return (
                            index.established_weights.get(key, 0.0)
                            / index.established
                        )
            result = self._vector_fraction(month, predicate, within)
            if result is not None:
                PERF.vector_path_hits += 1
                return result
            result = self._shape_fraction(month, predicate, within)
            if result is not None:
                PERF.shape_path_hits += 1
                return result
        records = self._month_records(month)
        if within is not None:
            records = [r for r in records if within(r)]
        total = _scan_fold([r.weight for r in records])
        if total <= 0:
            return 0.0
        return _scan_fold([r.weight for r in records if predicate(r)]) / total

    def _vector_fraction(self, month, predicate, within) -> float | None:
        """``fraction`` via the vector tier; None means "next tier".

        Mirrors :meth:`_shape_fraction` case by case; every fold is the
        same row-order addition sequence the shape tier (and the scan)
        performs, so a hit here returns the identical bytes.
        """
        vview = self._vector_view(month)
        if vview is None:
            return None
        mask = vview.matrix.compile_mask(predicate)
        if mask is None:
            self._vector_note(month, "predicate")
            return None
        if within is None:
            if vview.total <= 0:
                return 0.0
            return vview.weight_of(mask) / vview.total
        if _is_established_marker(within):
            if vview.established <= 0:
                return 0.0
            est_mask = vview.matrix.compile_mask(Established())
            return vview.weight_of(mask & est_mask) / vview.established
        within_mask = vview.matrix.compile_mask(within)
        if within_mask is None:
            self._vector_note(month, "within")
            return None
        total, matched = vview.restrict_weights(within_mask, mask)
        if total <= 0:
            return 0.0
        return matched / total

    def _shape_fraction(self, month, predicate, within) -> float | None:
        """``fraction`` via the shape tier; None means "scan instead"."""
        view = self._shape_view(month)
        if view is None:
            return None
        matches = view.dataset.compile_predicate(predicate)
        if matches is None:
            self._scan_note(month, "predicate")
            return None
        if within is None:
            if view.total <= 0:
                return 0.0
            return view.weight_of(matches) / view.total
        if _is_established_marker(within):
            if view.established <= 0:
                return 0.0
            return view.weight_of(matches & view.est_shapes) / view.established
        within_matches = view.dataset.compile_predicate(within)
        if within_matches is None:
            self._scan_note(month, "within")
            return None
        total, matched = view.restrict_weights(within_matches, matches)
        if total <= 0:
            return 0.0
        return matched / total

    def monthly_fraction(
        self,
        predicate: Callable[[ConnectionRecord], bool],
        within: Callable[[ConnectionRecord], bool] | None = None,
        months: list[_dt.date] | None = None,
    ) -> list[tuple[_dt.date, float]]:
        """The ``fraction`` series over every month in the store.

        ``months`` lets batch callers (the figure evaluator) compute
        the sorted month list once instead of re-sorting per series.
        """
        if months is None:
            months = self.months()
        return [(m, self.fraction(m, predicate, within)) for m in months]

    def weighted_mean(
        self,
        month: _dt.date,
        value: Callable[[ConnectionRecord], float | None],
    ) -> float | None:
        """Weight-averaged value over records where ``value`` is not None."""
        month = month_of(month)
        if self.use_index:
            vview = self._vector_view(month)
            if vview is not None:
                compiled = vview.matrix.compile_values(value)
                if compiled is not None:
                    PERF.vector_path_hits += 1
                    return vview.mean_of(*compiled)
                self._vector_note(month, "value")
            view = self._shape_view(month)
            if view is not None:
                values = view.dataset.compile_values(value)
                if values is not None:
                    PERF.shape_path_hits += 1
                    return view.mean_of(values)
                self._scan_note(month, "value")
        # Each term ``weight * v`` is a single float64 multiply whether
        # it happens in the old scalar loop or in this comprehension, so
        # folding the products preserves the scalar path's bytes.
        pairs = [
            (record.weight, v)
            for record in self._month_records(month)
            if (v := value(record)) is not None
        ]
        total = _scan_fold([w for w, _ in pairs])
        if total <= 0:
            return None
        return _scan_fold([w * v for w, v in pairs]) / total
