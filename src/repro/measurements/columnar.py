"""Columnar measurement plane: the scoring hot path's fast layout.

The IQB scoring rule is percentile-centric, so barometer-scale cost is
dominated by repeated quantile aggregation over the same measurements.
The row-oriented :class:`~repro.measurements.collection.MeasurementSet`
is the right *ingest* shape — one frozen record per test — but scoring
six use cases over four metrics re-reads every record dozens of times.

:class:`ColumnarStore` transposes a record batch once into per-metric
numpy columns plus dict-based group indexes (region / source / ISP),
then hands out :class:`ColumnarView` objects — lightweight row-index
selections that implement the QuantileSource protocol. Views share the
store's columns (no record copying) and memoize every
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
each batch into whatever the store has already built — columns, group
indexes, the pair index and the sorted per-metric planes — instead of
rebuilding them. New rows always follow old rows and the plane's
``lexsort`` is stable, so inserting each batch value on the right of
its (slot, value) position reproduces the cold build exactly, ties and
signed zeros included: a store grown by appends is bit-identical to
``ColumnarStore(all records)``. A merge costs O(batch·log batch + n)
numpy copying instead of O(n) Python field reads plus one O(n log n)
sort per metric. Cubes and views are dropped (stale views must be
re-fetched); they rebuild cheaply from the merged planes. Derived state
that was never built stays unbuilt. The store's attached
:class:`~.sketchplane.SketchPlane` (if one was requested via
:meth:`ColumnarStore.sketch_plane`) is fed O(1) amortized per record,
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

_K = TypeVar("_K", bound=Hashable)

#: A record's (region, dataset) pair key.
_PAIR = attrgetter("region", "source")


def _float_column(records: Sequence[Measurement], field: str) -> np.ndarray:
    """One metric field of ``records`` as float64 (NaN where unobserved)."""
    return np.array(
        [
            value if value is not None else np.nan
            for value in map(attrgetter(field), records)
        ],
        dtype=np.float64,
    )


def _group_rows(keys: Iterable[_K], offset: int = 0) -> Dict[_K, np.ndarray]:
    """key → row-index array, rows numbered from ``offset``.

    Falsy keys (empty ISP names) are skipped; keys keep first-seen
    order.
    """
    buckets: Dict[_K, List[int]] = {}
    for row, key in enumerate(keys, offset):
        if key:
            buckets.setdefault(key, []).append(row)
    return {
        key: np.asarray(rows, dtype=np.intp) for key, rows in buckets.items()
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
    """Per-metric columns + group indexes over one measurement batch.

    Construction is O(records); every column, index, plane, and view is
    built lazily on first request and shared thereafter. The record
    list is adopted as-is when a list is passed (the store never
    mutates it).
    """

    #: Native quantile plane (kernel provenance): exact sorted columns.
    QUANTILE_SOURCE = "exact"

    def __init__(self, records: Iterable[Measurement] = ()) -> None:
        self._records: List[Measurement] = (
            records if isinstance(records, list) else list(records)
        )
        self._columns: Dict[Metric, np.ndarray] = {}
        self._indexes: Dict[str, Dict[str, np.ndarray]] = {}
        self._pair_index: Optional[Dict[Tuple[str, str], np.ndarray]] = None
        self._pair_keys: Optional[Tuple[Tuple[str, str], ...]] = None
        self._pair_slots: Optional[Dict[Tuple[str, str], int]] = None
        self._pair_ids: Optional[np.ndarray] = None
        self._planes: Dict[Metric, _MetricPlane] = {}
        self._cubes: Dict[
            Tuple[Tuple[str, ...], Tuple[float, ...]], AggregateCube
        ] = {}
        self._all_view: Optional[ColumnarView] = None
        self._axis_views: Dict[Tuple[str, str], ColumnarView] = {}
        self._pair_views: Dict[Tuple[str, str], ColumnarView] = {}
        self._by_region: Optional[Dict[str, Dict[str, ColumnarView]]] = None
        # Adopted lists belong to the caller until the first append
        # copies them (the store promises never to mutate its input).
        self._owns_records = not isinstance(records, list)
        self._sketch = None  # type: Optional["SketchPlane"]
        self.generation = 0

    @classmethod
    def from_measurements(
        cls, records: Iterable[Measurement]
    ) -> "ColumnarStore":
        """Build a store from any record iterable (incl. MeasurementSet)."""
        return cls(list(records))

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return f"ColumnarStore({len(self._records)} records)"

    def records(self) -> Tuple[Measurement, ...]:
        """The underlying records (row order preserved)."""
        return tuple(self._records)

    # -- streaming ingest --------------------------------------------------

    def append(self, records: Iterable[Measurement]) -> None:
        """Adopt new records, merging them into the built exact plane.

        Every column, group index, pair index and sorted plane the
        store has built is extended in place of a rebuild (see
        :meth:`_merge`), bit-identical to a fresh
        ``ColumnarStore(all records)``; state never built stays
        unbuilt. Cubes and views are dropped — views handed out before
        the append are stale (pair slots may have moved) and must be
        re-fetched. The attached sketch plane (see :meth:`sketch_plane`)
        is fed *incrementally*, O(1) amortized per record.

        Each non-empty call also bumps :attr:`generation` — but only
        *after* the records are merged, the stale cubes and views
        dropped, and the sketch plane fed, so a reader that observes
        the new stamp is guaranteed a fully consistent plane.
        Generation-keyed caches (the serving layer's score cache)
        invalidate on a single integer compare.
        """
        new = records if isinstance(records, list) else list(records)
        if not new:
            return
        with span("columnar_append", records=len(new)):
            self._merge(new)
        _MERGES.inc(len(new))
        if self._sketch is not None:
            # The plane's own add() notifies the health monitor per
            # record; notifying here too would double-count arrivals.
            self._sketch.extend(new)
        else:
            from repro.obs.health import get_health_monitor

            health = get_health_monitor()
            if health is not None:
                for record in new:
                    health.record_arrival(
                        record.region, record.source, record.timestamp
                    )
        # Bumped last: the plane is fully consistent (records merged,
        # cubes and views dropped, sketch fed) before the stamp moves,
        # so a stamp can never name a partially-appended batch.
        self.generation += 1

    def _merge(self, new: List[Measurement]) -> None:
        """Merge ``new`` into every built column, index and plane.

        Cost is O(batch·log batch + n) numpy copying. Every merged
        array is built before any is assigned, so a failure part-way
        leaves the store as it was.
        """
        offset = len(self._records)
        batch_columns = {
            metric: _float_column(new, metric.field_name)
            for metric in self._columns
        }
        columns = {
            metric: np.concatenate((column, batch_columns[metric]))
            for metric, column in self._columns.items()
        }
        indexes = {
            axis: _extend_index(
                index, _group_rows(map(attrgetter(axis), new), offset)
            )
            for axis, index in self._indexes.items()
        }
        pairs = None
        planes: Dict[Metric, _MetricPlane] = {}
        if self._pair_slots is not None:
            batch_pairs = _group_rows(map(_PAIR, new), offset)
            pair_index = _extend_index(self._pair_index, batch_pairs)
            if len(pair_index) == len(self._pair_keys):
                keys, slots = self._pair_keys, self._pair_slots
                remap = None
                old_ids = self._pair_ids
            else:
                # New pairs take their sorted slots; old slot ids move
                # up by one monotone gather.
                keys = tuple(sorted(pair_index))
                slots = {key: slot for slot, key in enumerate(keys)}
                remap = np.fromiter(
                    (slots[key] for key in self._pair_keys),
                    dtype=np.intp,
                    count=len(self._pair_keys),
                )
                old_ids = remap[self._pair_ids]
            batch_ids = np.empty(len(new), dtype=np.intp)
            for key, rows in batch_pairs.items():
                batch_ids[rows - offset] = slots[key]
            pairs = (
                pair_index,
                keys,
                slots,
                np.concatenate((old_ids, batch_ids)),
            )
            planes = {
                metric: plane.merged(
                    remap, len(keys), batch_columns[metric], batch_ids
                )
                for metric, plane in self._planes.items()
            }
        if not self._owns_records:
            # Adopted lists belong to the caller: copy before growing.
            self._records = list(self._records)
            self._owns_records = True
        self._records.extend(new)
        self._columns = columns
        self._indexes = indexes
        if pairs is not None:
            (
                self._pair_index,
                self._pair_keys,
                self._pair_slots,
                self._pair_ids,
            ) = pairs
        self._planes = planes
        self._cubes = {}
        self._all_view = None
        self._axis_views = {}
        self._pair_views = {}
        self._by_region = None

    def sketch_plane(self, delta: Optional[int] = None) -> "SketchPlane":
        """The store's attached sketch plane, built lazily and kept fed.

        The first call sketches the current records in one pass;
        afterwards :meth:`append` streams new records straight into the
        plane, so re-reading it is free. ``delta`` only takes effect on
        the first call (the plane is built once); later calls with a
        different delta raise rather than silently answer at the wrong
        compression.
        """
        from .sketchplane import SketchPlane
        from .tdigest import DEFAULT_DELTA

        if self._sketch is None:
            self._sketch = SketchPlane(
                delta=delta if delta is not None else DEFAULT_DELTA
            )
            self._sketch.extend(self._records)
        elif delta is not None and delta != self._sketch.delta:
            raise ValueError(
                f"store sketch plane already built at delta="
                f"{self._sketch.delta}; requested {delta}"
            )
        return self._sketch

    # -- columns & indexes -------------------------------------------------

    def column(self, metric: Metric) -> np.ndarray:
        """The full value column for ``metric`` (NaN where unobserved)."""
        cached = self._columns.get(metric)
        if cached is None:
            cached = _float_column(self._records, metric.field_name)
            self._columns[metric] = cached
        return cached

    def index(self, axis: str) -> Dict[str, np.ndarray]:
        """Group index for one axis: key → row-index array.

        Axes are ``"region"``, ``"source"``, ``"isp"``. The ISP index
        excludes empty ISP names, matching ``MeasurementSet.isps``.
        """
        if axis not in AXES:
            raise KeyError(f"unknown group axis: {axis!r} (have {AXES})")
        cached = self._indexes.get(axis)
        if cached is None:
            cached = _group_rows(map(attrgetter(axis), self._records))
            self._indexes[axis] = cached
        return cached

    def regions(self) -> Tuple[str, ...]:
        """Distinct regions, sorted."""
        return tuple(sorted(self.index("region")))

    def sources(self) -> Tuple[str, ...]:
        """Distinct dataset names, sorted."""
        return tuple(sorted(self.index("source")))

    def isps(self) -> Tuple[str, ...]:
        """Distinct ISPs, sorted (empty names excluded)."""
        return tuple(sorted(self.index("isp")))

    # -- pair planes (store-wide one-sort-per-metric layout) ---------------

    def _ensure_pairs(self) -> None:
        """Build the (region, dataset) pair index, slots, and row → slot map."""
        if self._pair_slots is not None:
            return
        self._pair_index = _group_rows(map(_PAIR, self._records))
        self._pair_keys = tuple(sorted(self._pair_index))
        self._pair_slots = {
            key: slot for slot, key in enumerate(self._pair_keys)
        }
        ids = np.empty(len(self._records), dtype=np.intp)
        for key, rows in self._pair_index.items():
            ids[rows] = self._pair_slots[key]
        self._pair_ids = ids

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
                    self, np.arange(len(self._records), dtype=np.intp)
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
            assert self._pair_index is not None  # _ensure_pairs built it
            rows = self._pair_index.get(key)
            if rows is None:
                view = ColumnarView(self, np.empty(0, dtype=np.intp))
            else:
                view = ColumnarView(
                    self, rows, pair=self._pair_slots[key]
                )
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
