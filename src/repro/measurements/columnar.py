"""Columnar measurement plane: the native layout of a measurement batch.

The IQB score consumes nothing but per-test ``(dl, ul, rtt, loss,
region, time)`` tuples and is percentile-centric, so barometer-scale
cost is dominated by repeated quantile aggregation over the same
measurements. :class:`ColumnarStore` therefore keeps a batch as typed
columns, not as records:

* the four metrics and the timestamp as float64 columns, NaN where a
  metric is unobserved;
* region, dataset, ISP and access technology as int32 codes into
  interned key tables, each table in first-seen order;
* each row's ``meta`` mapping as a raw per-row list, which only
  :meth:`ColumnarStore.records` reads.

:func:`repro.measurements.io.read_jsonl` decodes straight into these
columns (a :class:`ColumnBatch`), so a store read from a file never
holds a :class:`~.record.Measurement` until a caller asks for
:meth:`ColumnarStore.records`; a store built from records transposes
them once and keeps the record list as that cache. Group indexes and
the (region, dataset) pair index are built from the codes with numpy
(stable argsort, bincount), and :class:`ColumnarView` objects —
lightweight row-index selections that implement the QuantileSource
protocol — share the store's columns and memoize every
(metric, percentile) answer.

Sorting happens once per metric, store-wide: :meth:`_pair_plane` groups
a metric column by (region, dataset) pair with one ``lexsort`` and
keeps the segment offsets, so a pair view's ``sorted_values`` is a
zero-copy slice of the shared plane instead of a per-view re-sort.
The same planes feed :meth:`aggregate_cube`, the batched aggregate
``A[region, dataset, metric]`` (plus sample counts) that the
vectorized scoring kernel (:mod:`repro.core.kernel`) consumes: every
cell's percentile is computed in one vectorized pass with exactly the
:func:`~repro.core.aggregation._interpolate_sorted` arithmetic.

Numerical contract: every quantile a view answers — and every cell of
the aggregate cube — is bit-identical to ``MeasurementSet.quantile``
over the same records (all reduce to the single
:func:`~repro.core.aggregation.percentile_of` definition), which is
what lets :func:`repro.core.scoring.score_regions` swap in for the
per-region re-group loop without changing a single ScoreBreakdown.

The exact plane is incremental: :meth:`ColumnarStore.append` merges
each batch into whatever the store has already built — columns, key
tables, group indexes, the pair index and the sorted per-metric planes
— instead of rebuilding them. New rows always follow old rows and the
plane's ``lexsort`` is stable, so inserting each batch value on the
right of its (slot, value) position reproduces the cold build exactly,
ties and signed zeros included: a store grown by appends is
bit-identical to ``ColumnarStore(all records)``. A merge costs
O(batch·log batch + n) numpy copying instead of one O(n log n) sort
per metric. Cubes and views are dropped (stale views must be
re-fetched); they rebuild cheaply from the merged planes. Derived state
that was never built stays unbuilt. The store's attached
:class:`~.sketchplane.SketchPlane` (if one was requested via
:meth:`ColumnarStore.sketch_plane`) is fed from the batch columns,
which keeps the streaming scoring path O(1) per arrival.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.core.aggregation import percentile_of
from repro.core.metrics import Metric
from repro.obs import counter, span

from .record import Measurement

# Columnar quantile-plane telemetry: these are what make PR 1's
# memoization verifiable in production — a healthy batch-scoring run
# shows hits ≫ misses and sorts bounded by the number of metric planes
# (or, for ad-hoc views, groups × metrics). Appends merge into built
# planes without sorting them again: ``merges`` counts the records
# merged, ``sorts`` stays the count of full plane sorts.
_HITS = counter("quantile_cache.columnar.hits")
_MISSES = counter("quantile_cache.columnar.misses")
_SORTS = counter("quantile_cache.columnar.sorts")
_MERGES = counter("quantile_cache.columnar.merges")

#: Group axes the store indexes out of the box.
AXES = ("region", "source", "isp")

#: String fields a batch carries as codes into interned key tables.
KEY_AXES = ("region", "source", "isp", "access_tech")

_K = TypeVar("_K", bound=Hashable)


class ColumnBatch:
    """Typed columns of one batch of measurements.

    ``values[metric]`` and ``timestamp`` are float64 columns (NaN where
    a metric is unobserved); ``codes[axis]`` are int32 indexes into
    ``keys[axis]``, one interned key table per :data:`KEY_AXES` entry,
    in first-seen order; ``meta`` holds each row's raw meta mapping
    (rows may share one mapping object; nothing mutates them). Every
    row satisfies ``Measurement``'s validation: the decoders in
    :mod:`.io` and :meth:`from_records` only ever build valid rows.
    """

    __slots__ = ("values", "timestamp", "codes", "keys", "meta")

    def __init__(
        self,
        values: Dict[Metric, np.ndarray],
        timestamp: np.ndarray,
        codes: Dict[str, np.ndarray],
        keys: Dict[str, List[str]],
        meta: List[Mapping],
    ) -> None:
        self.values = values
        self.timestamp = timestamp
        self.codes = codes
        self.keys = keys
        self.meta = meta

    def __len__(self) -> int:
        return int(self.timestamp.size)

    def __repr__(self) -> str:
        return f"ColumnBatch({len(self)} rows)"

    @classmethod
    def from_records(cls, records: Sequence[Measurement]) -> "ColumnBatch":
        """Transpose records once into columns (row order kept)."""
        codes: Dict[str, np.ndarray] = {}
        keys: Dict[str, List[str]] = {}
        for axis in KEY_AXES:
            codes[axis], keys[axis] = intern(
                list(map(attrgetter(axis), records))
            )
        return cls(
            values={
                metric: _float_column(records, metric.field_name)
                for metric in Metric.ordered()
            },
            timestamp=np.fromiter(
                map(attrgetter("timestamp"), records),
                dtype=np.float64,
                count=len(records),
            ),
            codes=codes,
            keys=keys,
            meta=list(map(attrgetter("meta"), records)),
        )

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """One batch holding ``batches``' rows in order, keys re-interned."""
        if not batches:
            return cls.from_records([])
        if len(batches) == 1:
            return batches[0]
        keys: Dict[str, List[str]] = {axis: [] for axis in KEY_AXES}
        tables: Dict[str, Dict[str, int]] = {axis: {} for axis in KEY_AXES}
        codes: Dict[str, List[np.ndarray]] = {axis: [] for axis in KEY_AXES}
        for batch in batches:
            for axis in KEY_AXES:
                remap = _add_keys(tables[axis], keys[axis], batch.keys[axis])
                codes[axis].append(remap[batch.codes[axis]])
        return cls(
            values={
                metric: _concat([batch.values[metric] for batch in batches])
                for metric in Metric.ordered()
            },
            timestamp=_concat([batch.timestamp for batch in batches]),
            codes={
                axis: _concat(parts, np.int32) for axis, parts in codes.items()
            },
            keys=keys,
            meta=[entry for batch in batches for entry in batch.meta],
        )

    def strings(self, axis: str) -> List[str]:
        """The axis's value per row."""
        keys = self.keys[axis]
        return list(map(keys.__getitem__, self.codes[axis].tolist()))



def as_batch(records: object) -> ColumnBatch:
    """``records`` as columns, transposing only when nothing holds them.

    A :class:`ColumnBatch` is returned as-is, a :class:`ColumnarStore`
    (or a store-backed ``MeasurementSet``) as its native columns; any
    other iterable of records is transposed once.
    """
    if isinstance(records, ColumnBatch):
        return records
    if isinstance(records, ColumnarStore):
        return records.columns()
    from .collection import MeasurementSet

    if isinstance(records, MeasurementSet):
        store = records.columnar()
        if store is not None:
            return store.columns()
    if not isinstance(records, list):
        records = list(records)  # type: ignore[call-overload]
    return ColumnBatch.from_records(records)


def intern(values: Sequence[str]) -> Tuple[np.ndarray, List[str]]:
    """(int32 codes, key table) of ``values``; keys in first-seen order."""
    keys = list(dict.fromkeys(values))
    lookup = {key: code for code, key in enumerate(keys)}
    codes = np.fromiter(
        map(lookup.__getitem__, values), dtype=np.int32, count=len(values)
    )
    return codes, keys


def _add_keys(
    table: Dict[str, int], keys: List[str], new: Sequence[str]
) -> np.ndarray:
    """Codes of ``new`` in ``table``; unseen keys join ``table``/``keys``."""
    remap = np.empty(len(new), dtype=np.int32)
    for i, key in enumerate(new):
        code = table.get(key)
        if code is None:
            code = table[key] = len(keys)
            keys.append(key)
        remap[i] = code
    return remap


def _concat(parts: Sequence[np.ndarray], dtype=np.float64) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _float_column(records: Sequence[Measurement], field: str) -> np.ndarray:
    """One metric field of ``records`` as float64 (NaN where unobserved)."""
    return np.array(
        [
            value if value is not None else np.nan
            for value in map(attrgetter(field), records)
        ],
        dtype=np.float64,
    )


def group_rows(ids: np.ndarray, groups: int) -> List[np.ndarray]:
    """Each group's row indexes, ascending (one stable argsort).

    ``ids`` holds every row's group, in ``range(groups)``.
    """
    order = np.argsort(ids, kind="stable")
    return np.split(order, np.cumsum(np.bincount(ids, minlength=groups))[:-1])


def _code_groups(
    codes: np.ndarray, keys: Sequence[str], offset: int = 0
) -> Dict[str, np.ndarray]:
    """key → row-index array, rows numbered from ``offset``.

    Keys keep their table (first-seen) order; falsy keys (empty ISP
    names) and keys without rows are skipped.
    """
    return {
        key: rows + offset if offset else rows
        for key, rows in zip(keys, group_rows(codes, len(keys)))
        if key and rows.size
    }


def _extend_index(
    index: Mapping[_K, np.ndarray], batch: Mapping[_K, np.ndarray]
) -> Dict[_K, np.ndarray]:
    """A copy of ``index`` with ``batch``'s rows appended per key."""
    merged = dict(index)
    for key, rows in batch.items():
        old = merged.get(key)
        merged[key] = rows if old is None else np.concatenate((old, rows))
    return merged


def pair_cells(
    codes: Mapping[str, np.ndarray], keys: Mapping[str, Sequence[str]]
) -> Tuple[List[Tuple[str, str]], np.ndarray, np.ndarray]:
    """The distinct (region, dataset) pairs of coded rows, in code order.

    Returns the pairs, each row's index into them, and each pair's
    first row.
    """
    width = max(1, len(keys["source"]))
    combined = codes["region"].astype(np.int64) * width + codes["source"]
    distinct, firsts, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    region_keys, source_keys = keys["region"], keys["source"]
    pairs = [
        (region_keys[code // width], source_keys[code % width])
        for code in distinct.tolist()
    ]
    return pairs, inverse, firsts


def record_arrivals(batch: ColumnBatch) -> None:
    """Tell the installed health monitor about every row, in order."""
    from repro.obs.health import get_health_monitor

    health = get_health_monitor()
    if health is not None:
        for region, source, at in zip(
            batch.strings("region"),
            batch.strings("source"),
            batch.timestamp.tolist(),
        ):
            health.record_arrival(region, source, at)


class _MetricPlane:
    """One metric column grouped by (region, dataset) pair, sorted once.

    ``values`` holds every non-missing observation of the metric,
    ordered by pair slot then ascending value; pair ``slot``'s segment
    is ``values[starts[slot] : starts[slot] + counts[slot]]``.
    """

    __slots__ = ("values", "starts", "counts")

    def __init__(
        self, values: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> None:
        self.values = values
        self.starts = starts
        self.counts = counts

    def merged(
        self,
        remap: Optional[np.ndarray],
        pairs: int,
        batch_values: np.ndarray,
        batch_ids: np.ndarray,
    ) -> "_MetricPlane":
        """This plane with one appended batch merged in.

        ``remap`` maps old slots to new ones (None when the batch adds
        no pair); ``pairs`` is the new slot count; ``batch_values`` and
        ``batch_ids`` are the batch's column (NaN where unobserved) and
        new-numbering slots. Batch rows follow every old row, so the
        cold build's stable lexsort puts each batch value after the
        equal values already in its segment: ``searchsorted`` on the
        right side finds that spot, and the batch's own stable
        (slot, value) sort orders values that land on the same spot.
        """
        valid = ~np.isnan(batch_values)
        values = batch_values[valid]
        ids = batch_ids[valid]
        order = np.lexsort((values, ids))
        values = values[order]
        ids = ids[order]
        if remap is None:
            old_counts = self.counts
        else:
            old_counts = np.zeros(pairs, dtype=self.counts.dtype)
            old_counts[remap] = self.counts
        old_starts = np.cumsum(old_counts) - old_counts
        positions = np.empty(values.size, dtype=np.intp)
        touched, firsts = np.unique(ids, return_index=True)
        lasts = np.append(firsts[1:], ids.size)
        for slot, first, last in zip(
            touched.tolist(), firsts.tolist(), lasts.tolist()
        ):
            start = int(old_starts[slot])
            segment = self.values[start : start + int(old_counts[slot])]
            positions[first:last] = start + np.searchsorted(
                segment, values[first:last], side="right"
            )
        counts = old_counts + np.bincount(ids, minlength=pairs)
        return _MetricPlane(
            np.insert(self.values, positions, values),
            np.cumsum(counts) - counts,
            counts,
        )


class AggregateCube:
    """Batched percentile aggregates: ``A[region, dataset, metric]``.

    ``aggregates`` is NaN where a (region, dataset) pair has no
    observations for a metric (including datasets absent from the
    batch); ``counts`` carries the matching sample counts. ``cells`` is
    the number of non-empty cells — the quantile answers the cube
    effectively memoizes, reported on the columnar cache counters.
    """

    __slots__ = ("regions", "aggregates", "counts", "cells")

    def __init__(
        self,
        regions: Tuple[str, ...],
        aggregates: np.ndarray,
        counts: np.ndarray,
        cells: int,
    ) -> None:
        self.regions = regions
        self.aggregates = aggregates
        self.counts = counts
        self.cells = cells


class ColumnarView:
    """A row selection of a :class:`ColumnarStore` (QuantileSource).

    Holds only a reference to the parent store and an integer row-index
    array; per-metric sorted value arrays and quantile answers are
    materialized on first use and cached for the life of the view.
    Views covering exactly one (region, dataset) pair additionally know
    their pair slot, so their sorted values are shared slices of the
    store-wide metric planes.
    """

    __slots__ = ("_store", "_rows", "_sorted", "_quantiles", "_pair")

    def __init__(
        self,
        store: "ColumnarStore",
        rows: np.ndarray,
        pair: Optional[int] = None,
    ) -> None:
        self._store = store
        self._rows = rows
        self._sorted: Dict[Metric, np.ndarray] = {}
        self._quantiles: Dict[Tuple[Metric, float], Optional[float]] = {}
        self._pair = pair

    def __len__(self) -> int:
        return int(self._rows.size)

    def __repr__(self) -> str:
        return f"ColumnarView({self._rows.size} rows)"

    def sorted_values(self, metric: Metric) -> np.ndarray:
        """Sorted non-missing values of ``metric`` in this view (cached).

        Pair views slice the store's shared per-metric plane (sorted
        once store-wide); ad-hoc views fall back to a per-view sort.
        """
        cached = self._sorted.get(metric)
        if cached is None:
            if self._pair is not None:
                plane = self._store._pair_plane(metric)
                start = int(plane.starts[self._pair])
                stop = start + int(plane.counts[self._pair])
                cached = plane.values[start:stop]
            else:
                _SORTS.inc()
                column = self._store.column(metric)
                values = column[self._rows] if self._rows.size else column[:0]
                values = values[~np.isnan(values)]
                values.sort()
                cached = values
            self._sorted[metric] = cached
        return cached

    def values(self, metric: Metric) -> np.ndarray:
        """Non-missing values of ``metric``, in record order (ndarray).

        Returns the float64 array directly — this sits on the scoring
        hot path. Callers that need a Python list (serialization,
        ``==`` against literals) should use :meth:`value_list`.
        """
        column = self._store.column(metric)
        selected = column[self._rows] if self._rows.size else column[:0]
        return selected[~np.isnan(selected)]

    def value_list(self, metric: Metric) -> List[float]:
        """:meth:`values` as a plain Python list (compat shim)."""
        return self.values(metric).tolist()

    # -- QuantileSource protocol ------------------------------------------

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        """Memoized percentile over the view's sorted column."""
        key = (metric, percentile)
        if key in self._quantiles:
            _HITS.inc()
            return self._quantiles[key]
        _MISSES.inc()
        values = self.sorted_values(metric)
        answer: Optional[float]
        if values.size == 0:
            answer = None
        else:
            answer = percentile_of(values, percentile, assume_sorted=True)
        self._quantiles[key] = answer
        return answer

    def sample_count(self, metric: Metric) -> int:
        """Observation count for the metric (QuantileSource)."""
        return int(self.sorted_values(metric).size)


class ColumnarStore:
    """Typed columns + group indexes over one measurement batch.

    The columns are the store's native state (see the module
    docstring); every index, plane, and view is built lazily on first
    request and shared thereafter. Records are built only when
    :meth:`records` is called. A record list passed in is adopted
    as-is as that record cache (the store never mutates it).
    """

    #: Native quantile plane (kernel provenance): exact sorted columns.
    QUANTILE_SOURCE = "exact"

    def __init__(
        self, records: Union[ColumnBatch, Iterable[Measurement]] = ()
    ) -> None:
        cache: Optional[List[Measurement]] = None
        if isinstance(records, ColumnBatch):
            batch = records
        else:
            cache = records if isinstance(records, list) else list(records)
            batch = ColumnBatch.from_records(cache)
        self._columns: Dict[Metric, np.ndarray] = dict(batch.values)
        self._timestamp = batch.timestamp
        self._codes: Dict[str, np.ndarray] = dict(batch.codes)
        self._keys: Dict[str, List[str]] = dict(batch.keys)
        self._key_codes: Dict[str, Dict[str, int]] = {
            axis: {key: code for code, key in enumerate(keys)}
            for axis, keys in self._keys.items()
        }
        # Per-row meta, one list per appended batch (joined on demand:
        # only records() and columns() read it).
        self._meta: List[List[Mapping]] = [batch.meta]
        # Built records for rows [0, len(cache)); extended on demand.
        self._records = cache
        self._indexes: Dict[str, Dict[str, np.ndarray]] = {}
        self._pair_keys: Optional[Tuple[Tuple[str, str], ...]] = None
        self._pair_slots: Optional[Dict[Tuple[str, str], int]] = None
        self._pair_ids: Optional[np.ndarray] = None
        self._slot_rows: Optional[List[np.ndarray]] = None
        self._planes: Dict[Metric, _MetricPlane] = {}
        self._cubes: Dict[
            Tuple[Tuple[str, ...], Tuple[float, ...]], AggregateCube
        ] = {}
        self._all_view: Optional[ColumnarView] = None
        self._axis_views: Dict[Tuple[str, str], ColumnarView] = {}
        self._pair_views: Dict[Tuple[str, str], ColumnarView] = {}
        self._by_region: Optional[Dict[str, Dict[str, ColumnarView]]] = None
        self._sketch = None  # type: Optional["SketchPlane"]
        self.generation = 0

    @classmethod
    def from_measurements(
        cls, records: Iterable[Measurement]
    ) -> "ColumnarStore":
        """A store over any record iterable (incl. MeasurementSet).

        A ``MeasurementSet`` that wraps a store (as the readers in
        :mod:`.io` return) hands back that store itself, so its rows
        are never turned into records and transposed again.
        """
        from .collection import MeasurementSet

        if isinstance(records, MeasurementSet):
            store = records.columnar()
            if store is not None:
                return store
        return cls(list(records))

    def __len__(self) -> int:
        return int(self._timestamp.size)

    def __repr__(self) -> str:
        return f"ColumnarStore({len(self)} records)"

    def columns(self) -> ColumnBatch:
        """The store's rows as a :class:`ColumnBatch` (shared, not copied)."""
        return ColumnBatch(
            values=self._columns,
            timestamp=self._timestamp,
            codes=self._codes,
            keys=self._keys,
            meta=self._joined_meta(),
        )

    def _joined_meta(self) -> List[Mapping]:
        if len(self._meta) > 1:
            self._meta = [[entry for part in self._meta for entry in part]]
        return self._meta[0]

    def records(self) -> Tuple[Measurement, ...]:
        """The rows as records (row order preserved).

        Records are built from the columns on the first call and cached;
        a store built from records returns those very objects.
        """
        return tuple(self._record_list())

    def _record_list(self) -> List[Measurement]:
        """The cached record list, built up to the current row count.

        The list is replaced, never mutated, when it grows, so callers
        may share it.
        """
        cached = self._records if self._records is not None else []
        built = len(cached)
        if built < len(self):
            cached = cached + self._build_records(built, len(self))
            self._records = cached
        return cached

    def _build_records(self, start: int, stop: int) -> List[Measurement]:
        """Records for rows ``start..stop-1``, as ``from_dict`` builds them."""

        def strings(axis: str) -> List[str]:
            keys = self._keys[axis]
            return list(
                map(keys.__getitem__, self._codes[axis][start:stop].tolist())
            )

        def optional(metric: Metric) -> List[Optional[float]]:
            return [
                None if value != value else value
                for value in self._columns[metric][start:stop].tolist()
            ]

        return list(
            map(
                Measurement,
                strings("region"),
                strings("source"),
                self._timestamp[start:stop].tolist(),
                *(optional(metric) for metric in Metric.ordered()),
                strings("isp"),
                strings("access_tech"),
                map(dict, self._joined_meta()[start:stop]),
            )
        )

    # -- streaming ingest --------------------------------------------------

    def append(
        self, records: Union[ColumnBatch, Iterable[Measurement]]
    ) -> None:
        """Adopt new rows, merging them into the built exact plane.

        ``records`` is a :class:`ColumnBatch` (what the readers decode)
        or records, which are transposed once. Every column, key table,
        group index, pair index and sorted plane the store has built is
        extended in place of a rebuild (see :meth:`_merge`),
        bit-identical to a fresh ``ColumnarStore(all records)``; state
        never built stays unbuilt. Cubes and views are dropped — views
        handed out before the append are stale (pair slots may have
        moved) and must be re-fetched. The attached sketch plane (see
        :meth:`sketch_plane`) is fed *incrementally* from the batch
        columns.

        Each non-empty call also bumps :attr:`generation` — but only
        *after* the rows are merged, the stale cubes and views
        dropped, and the sketch plane fed, so a reader that observes
        the new stamp is guaranteed a fully consistent plane.
        Generation-keyed caches (the serving layer's score cache)
        invalidate on a single integer compare.
        """
        new: Optional[List[Measurement]] = None
        if isinstance(records, ColumnBatch):
            batch = records
        else:
            new = records if isinstance(records, list) else list(records)
            batch = ColumnBatch.from_records(new)
        if not len(batch):
            return
        with span("columnar_append", records=len(batch)):
            self._merge(batch, new)
        _MERGES.inc(len(batch))
        if self._sketch is not None:
            # The plane's extend notifies the health monitor per row;
            # notifying here too would double-count arrivals.
            self._sketch.extend(batch)
        else:
            record_arrivals(batch)
        # Bumped last: the plane is fully consistent (rows merged,
        # cubes and views dropped, sketch fed) before the stamp moves,
        # so a stamp can never name a partially-appended batch.
        self.generation += 1

    def _merge(
        self, batch: ColumnBatch, new: Optional[List[Measurement]]
    ) -> None:
        """Merge ``batch`` into every built column, index and plane.

        Cost is O(batch·log batch + n) numpy copying. Every merged
        array is built before any is assigned, so a failure part-way
        leaves the store as it was.
        """
        offset = len(self)
        keys: Dict[str, List[str]] = {}
        key_codes: Dict[str, Dict[str, int]] = {}
        batch_codes: Dict[str, np.ndarray] = {}
        for axis in KEY_AXES:
            keys[axis] = list(self._keys[axis])
            key_codes[axis] = dict(self._key_codes[axis])
            remap = _add_keys(key_codes[axis], keys[axis], batch.keys[axis])
            batch_codes[axis] = remap[batch.codes[axis]]
        columns = {
            metric: np.concatenate((column, batch.values[metric]))
            for metric, column in self._columns.items()
        }
        timestamp = np.concatenate((self._timestamp, batch.timestamp))
        codes = {
            axis: np.concatenate((self._codes[axis], batch_codes[axis]))
            for axis in KEY_AXES
        }
        indexes = {
            axis: _extend_index(
                index, _code_groups(batch_codes[axis], keys[axis], offset)
            )
            for axis, index in self._indexes.items()
        }
        pairs = None
        planes: Dict[Metric, _MetricPlane] = {}
        if self._pair_slots is not None:
            batch_pairs, inverse, _ = pair_cells(batch_codes, keys)
            added = [
                pair for pair in batch_pairs if pair not in self._pair_slots
            ]
            if not added:
                pair_keys, slots = self._pair_keys, self._pair_slots
                remap = None
                old_ids = self._pair_ids
            else:
                # New pairs take their sorted slots; old slot ids move
                # up by one monotone gather.
                pair_keys = tuple(sorted((*self._pair_keys, *added)))
                slots = {key: slot for slot, key in enumerate(pair_keys)}
                remap = np.fromiter(
                    (slots[key] for key in self._pair_keys),
                    dtype=np.intp,
                    count=len(self._pair_keys),
                )
                old_ids = remap[self._pair_ids]
            batch_ids = np.fromiter(
                (slots[pair] for pair in batch_pairs),
                dtype=np.intp,
                count=len(batch_pairs),
            )[inverse]
            pairs = (pair_keys, slots, np.concatenate((old_ids, batch_ids)))
            planes = {
                metric: plane.merged(
                    remap, len(pair_keys), batch.values[metric], batch_ids
                )
                for metric, plane in self._planes.items()
            }
        records = self._records
        if new is not None and records is not None and len(records) == offset:
            records = records + new
        self._columns = columns
        self._timestamp = timestamp
        self._codes = codes
        self._keys = keys
        self._key_codes = key_codes
        self._meta = self._meta + [batch.meta]
        self._records = records
        self._indexes = indexes
        if pairs is not None:
            self._pair_keys, self._pair_slots, self._pair_ids = pairs
        self._slot_rows = None
        self._planes = planes
        self._cubes = {}
        self._all_view = None
        self._axis_views = {}
        self._pair_views = {}
        self._by_region = None

    def sketch_plane(self, delta: Optional[int] = None) -> "SketchPlane":
        """The store's attached sketch plane, built lazily and kept fed.

        The first call sketches the current rows in one pass over the
        columns; afterwards :meth:`append` streams new rows straight
        into the plane, so re-reading it is free. ``delta`` only takes
        effect on the first call (the plane is built once); later calls
        with a different delta raise rather than silently answer at the
        wrong compression.
        """
        from .sketchplane import SketchPlane
        from .tdigest import DEFAULT_DELTA

        if self._sketch is None:
            self._sketch = SketchPlane(
                delta=delta if delta is not None else DEFAULT_DELTA
            )
            self._sketch.extend(self.columns())
        elif delta is not None and delta != self._sketch.delta:
            raise ValueError(
                f"store sketch plane already built at delta="
                f"{self._sketch.delta}; requested {delta}"
            )
        return self._sketch

    # -- columns & indexes -------------------------------------------------

    def column(self, metric: Metric) -> np.ndarray:
        """The full value column for ``metric`` (NaN where unobserved)."""
        return self._columns[metric]

    def index(self, axis: str) -> Dict[str, np.ndarray]:
        """Group index for one axis: key → row-index array.

        Axes are ``"region"``, ``"source"``, ``"isp"``. The ISP index
        excludes empty ISP names, matching ``MeasurementSet.isps``.
        """
        if axis not in AXES:
            raise KeyError(f"unknown group axis: {axis!r} (have {AXES})")
        cached = self._indexes.get(axis)
        if cached is None:
            cached = _code_groups(self._codes[axis], self._keys[axis])
            self._indexes[axis] = cached
        return cached

    def regions(self) -> Tuple[str, ...]:
        """Distinct regions, sorted."""
        return tuple(sorted(self._keys["region"]))

    def sources(self) -> Tuple[str, ...]:
        """Distinct dataset names, sorted."""
        return tuple(sorted(self._keys["source"]))

    def isps(self) -> Tuple[str, ...]:
        """Distinct ISPs, sorted (empty names excluded)."""
        return tuple(sorted(key for key in self._keys["isp"] if key))

    # -- pair planes (store-wide one-sort-per-metric layout) ---------------

    def _ensure_pairs(self) -> None:
        """Build the (region, dataset) pair slots and the row → slot map.

        Slots follow the sorted pair keys, whichever order the codes
        first met them in.
        """
        if self._pair_slots is not None:
            return
        pairs, inverse, _ = pair_cells(self._codes, self._keys)
        order = sorted(range(len(pairs)), key=pairs.__getitem__)
        slot_of = np.empty(len(pairs), dtype=np.intp)
        slot_of[order] = np.arange(len(pairs), dtype=np.intp)
        self._pair_keys = tuple(pairs[i] for i in order)
        self._pair_slots = {
            key: slot for slot, key in enumerate(self._pair_keys)
        }
        self._pair_ids = slot_of[inverse]

    def _rows_of_slot(self, slot: int) -> np.ndarray:
        """Ascending row indexes of one pair slot."""
        if self._slot_rows is None:
            self._ensure_pairs()
            assert self._pair_ids is not None  # _ensure_pairs built it
            self._slot_rows = group_rows(
                self._pair_ids, len(self._pair_keys or ())
            )
        return self._slot_rows[slot]

    def _pair_plane(self, metric: Metric) -> _MetricPlane:
        """The metric's column grouped by pair and sorted, built once.

        One ``lexsort`` replaces a sort per (region, dataset) view: the
        column is ordered by pair slot first, value second, and every
        pair's segment is located by the prefix-sum offsets.
        """
        plane = self._planes.get(metric)
        if plane is None:
            self._ensure_pairs()
            _SORTS.inc()
            column = self.column(metric)
            valid = ~np.isnan(column)
            values = column[valid]
            ids = self._pair_ids[valid]
            order = np.lexsort((values, ids))
            counts = np.bincount(ids, minlength=len(self._pair_keys))
            starts = np.cumsum(counts) - counts
            plane = _MetricPlane(values[order], starts, counts)
            self._planes[metric] = plane
        return plane

    def aggregate_cube(
        self,
        datasets: Sequence[str],
        percentiles: Sequence[float],
    ) -> AggregateCube:
        """Percentile aggregates for every (region, dataset, metric) cell.

        Args:
            datasets: dataset axis of the cube, in order (typically the
                config's sorted dataset names); batch datasets not
                listed are dropped, listed datasets without data yield
                NaN cells.
            percentiles: the percentile to evaluate per metric, aligned
                with :meth:`Metric.ordered` (direction-resolved by the
                caller's aggregation policy).

        Every cell is computed with the vectorized equivalent of
        :func:`~repro.core.aggregation._interpolate_sorted` — the same
        floor/lerp branch structure, so answers are bit-identical to
        ``ColumnarView.quantile`` on the pair's sorted values. Cubes
        are cached per (datasets, percentiles) key; the cache counters
        mirror the per-view memoization they replace (one miss per
        non-empty cell on build, the same number of hits on reuse).
        """
        key = (tuple(datasets), tuple(float(p) for p in percentiles))
        cached = self._cubes.get(key)
        if cached is not None:
            _HITS.inc(cached.cells)
            return cached
        self._ensure_pairs()
        metrics = Metric.ordered()
        if len(key[1]) != len(metrics):
            raise ValueError(
                f"aggregate_cube needs one percentile per metric "
                f"({len(metrics)}), got {len(key[1])}"
            )
        regions = self.regions()
        region_slot = {name: g for g, name in enumerate(regions)}
        dataset_slot = {name: d for d, name in enumerate(key[0])}
        shape = (len(regions), len(key[0]), len(metrics))
        aggregates = np.full(shape, np.nan, dtype=np.float64)
        counts = np.zeros(shape, dtype=np.int64)
        # Pairs that land in the cube: their plane slot and (g, d) cell.
        slots: List[int] = []
        g_idx: List[int] = []
        d_idx: List[int] = []
        for slot, (region, source) in enumerate(self._pair_keys or ()):
            d = dataset_slot.get(source)
            if d is None:
                continue
            slots.append(slot)
            g_idx.append(region_slot[region])
            d_idx.append(d)
        if slots:
            slot_arr = np.asarray(slots, dtype=np.intp)
            g_arr = np.asarray(g_idx, dtype=np.intp)
            d_arr = np.asarray(d_idx, dtype=np.intp)
            for r, metric in enumerate(metrics):
                plane = self._pair_plane(metric)
                n = plane.counts[slot_arr]
                counts[g_arr, d_arr, r] = n
                nz = n > 0
                if not nz.any():
                    continue
                ns = n[nz].astype(np.float64)
                seg_starts = plane.starts[slot_arr][nz]
                pos = (key[1][r] / 100.0) * (ns - 1.0)
                lo = np.floor(pos)
                hi = np.minimum(lo + 1.0, ns - 1.0)
                gamma = pos - lo
                a = plane.values[seg_starts + lo.astype(np.intp)]
                b = plane.values[seg_starts + hi.astype(np.intp)]
                aggregates[g_arr[nz], d_arr[nz], r] = np.where(
                    gamma >= 0.5,
                    b - (b - a) * (1.0 - gamma),
                    a + (b - a) * gamma,
                )
        cube = AggregateCube(
            regions=regions,
            aggregates=aggregates,
            counts=counts,
            cells=int(np.count_nonzero(counts)),
        )
        _MISSES.inc(cube.cells)
        self._cubes[key] = cube
        return cube

    # -- views -------------------------------------------------------------

    def view(
        self,
        region: Optional[str] = None,
        source: Optional[str] = None,
        isp: Optional[str] = None,
    ) -> ColumnarView:
        """A QuantileSource over the selected rows.

        With no arguments, the whole store; with one argument the cached
        per-group view; with several, the intersection of the group
        indexes (row order preserved). (region, source) selections are
        cached pair views sharing the store-wide sorted planes.
        """
        if region is not None and source is not None and isp is None:
            return self._pair_view(region, source)
        selected = [
            (axis, key)
            for axis, key in (
                ("region", region),
                ("source", source),
                ("isp", isp),
            )
            if key is not None
        ]
        if not selected:
            if self._all_view is None:
                self._all_view = ColumnarView(
                    self, np.arange(len(self), dtype=np.intp)
                )
            return self._all_view
        if len(selected) == 1:
            axis, key = selected[0]
            cache_key = (axis, key)
            view = self._axis_views.get(cache_key)
            if view is None:
                rows = self.index(axis).get(
                    key, np.empty(0, dtype=np.intp)
                )
                view = ColumnarView(self, rows)
                self._axis_views[cache_key] = view
            return view
        rows: Optional[np.ndarray] = None
        for axis, key in selected:
            axis_rows = self.index(axis).get(key, np.empty(0, dtype=np.intp))
            rows = (
                axis_rows
                if rows is None
                else np.intersect1d(rows, axis_rows, assume_unique=True)
            )
        return ColumnarView(self, rows)

    def _pair_view(self, region: str, source: str) -> ColumnarView:
        """The cached plane-backed view of one (region, dataset) pair."""
        key = (region, source)
        view = self._pair_views.get(key)
        if view is None:
            self._ensure_pairs()
            assert self._pair_slots is not None  # _ensure_pairs built it
            slot = self._pair_slots.get(key)
            if slot is None:
                view = ColumnarView(self, np.empty(0, dtype=np.intp))
            else:
                view = ColumnarView(self, self._rows_of_slot(slot), pair=slot)
            self._pair_views[key] = view
        return view

    def sources_by_region(self) -> Dict[str, Dict[str, ColumnarView]]:
        """region → dataset → QuantileSource, grouped in one pass.

        This is the batch-scoring plane: the mapping plugs straight into
        :func:`repro.core.scoring.score_region` per region (or, better,
        :func:`repro.core.scoring.score_regions` consumes it wholesale).
        Views are cached pair views, so repeated scoring shares every
        plane-sorted column.
        """
        if self._by_region is None:
            self._ensure_pairs()
            grouped: Dict[str, Dict[str, ColumnarView]] = {}
            for region, source in self._pair_keys or ():
                grouped.setdefault(region, {})[source] = self._pair_view(
                    region, source
                )
            self._by_region = grouped
        return {region: dict(views) for region, views in self._by_region.items()}

    # -- whole-store QuantileSource ---------------------------------------

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        """Percentile over every record in the store (QuantileSource)."""
        return self.view().quantile(metric, percentile)

    def sample_count(self, metric: Metric) -> int:
        """Store-wide observation count for the metric (QuantileSource)."""
        return self.view().sample_count(metric)
