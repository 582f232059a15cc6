"""MeasurementSet: a queryable collection of measurement records.

This is the workhorse container between data generation/ingest and
scoring. It implements the :class:`~repro.core.aggregation.QuantileSource`
protocol, so a filtered MeasurementSet can be handed directly to
``score_region`` as one dataset's evidence.

A set returned by the readers in :mod:`.io` wraps the
:class:`~repro.measurements.columnar.ColumnarStore` they decoded into:
its length, distinct keys and the store itself (:meth:`columnar`) come
from the columns, and its records are built only when a caller
iterates, indexes, filters or groups it. Scoring and the sketch and
tile builders read the wrapped store directly, so a file read to be
scored never becomes records at all.

Filters return new sets sharing the underlying frozen records; grouping
results and the per-metric value/quantile plane are memoized, because
the IQB scorer asks the same (metric, percentile) question up to six
times per score (once per use case). Mutating a set via :meth:`add` /
:meth:`extend` invalidates every cache; sets handed out by the cached
group indexes copy-on-write before mutating so siblings and parents
never see each other's appends. For batch scoring of many regions at
once, prefer the columnar plane
(:class:`~repro.measurements.columnar.ColumnarStore` via
:func:`repro.core.scoring.score_regions`), which shares sorted columns
across every grouping instead of caching per set.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.aggregation import percentile_of
from repro.core.metrics import Metric
from repro.obs import counter

from .columnar import ColumnarStore
from .record import Measurement

# Quantile-plane telemetry (see docs/methodology.md, "Observability"):
# hits answer from the memoized (metric, percentile) map, misses pay
# for an aggregation, sorts count the per-metric column sorts behind
# them. Instruments are bound once here; .inc() is one attribute add,
# cheap enough for the scoring hot path.
_HITS = counter("quantile_cache.rowset.hits")
_MISSES = counter("quantile_cache.rowset.misses")
_SORTS = counter("quantile_cache.rowset.sorts")


class MeasurementSet:
    """An immutable-ish bag of :class:`Measurement` records.

    "Immutable-ish": the only mutators are :meth:`add` and
    :meth:`extend`, which invalidate the set's caches. Everything else
    returns shared or fresh sets without touching the receiver.
    """

    def __init__(self, records: Iterable[Measurement] = ()) -> None:
        self._list: Optional[List[Measurement]] = list(records)
        self._store: Optional[ColumnarStore] = None
        self._rows = 0
        self._shared = False
        self._parent_cache: Optional[Tuple[Dict[str, "MeasurementSet"], str]] = None
        self._reset_caches()

    @classmethod
    def _adopt(
        cls, records: List[Measurement], shared: bool = True
    ) -> "MeasurementSet":
        """Wrap an existing list without copying.

        ``shared=True`` marks the list as aliased elsewhere (e.g. a
        parent's group index); the first mutation then copies-on-write.
        """
        out = cls.__new__(cls)
        out._list = records
        out._store = None
        out._rows = 0
        out._shared = shared
        out._parent_cache = None
        out._reset_caches()
        return out

    @classmethod
    def _wrap(cls, store: ColumnarStore) -> "MeasurementSet":
        """A set of ``store``'s current rows, built into records lazily."""
        out = cls._adopt([])
        out._list, out._store, out._rows = None, store, len(store)
        return out

    @property
    def _records(self) -> List[Measurement]:
        records = self._list
        if records is None:
            assert self._store is not None  # only _wrap leaves _list unset
            records = self._store._record_list()
            if len(records) != self._rows:
                # The store grew after this set was taken from it.
                records = records[: self._rows]
            self._list = records
        return records

    @_records.setter
    def _records(self, records: List[Measurement]) -> None:
        self._list = records

    def columnar(self) -> Optional[ColumnarStore]:
        """The store holding exactly this set's rows, if the set wraps one.

        None for sets built from records, and for a wrapped set once it
        has been mutated or its store has grown past it.
        """
        store = self._store
        if store is not None and len(store) == self._rows:
            return store
        return None

    def _reset_caches(self) -> None:
        self._values_cache: Dict[Metric, List[float]] = {}
        self._sorted_cache: Dict[Metric, np.ndarray] = {}
        self._quantile_cache: Dict[Tuple[Metric, float], Optional[float]] = {}
        self._region_groups: Optional[Dict[str, List[Measurement]]] = None
        self._source_groups: Optional[Dict[str, List[Measurement]]] = None
        self._isp_groups: Optional[Dict[str, List[Measurement]]] = None
        self._region_sets: Dict[str, "MeasurementSet"] = {}
        self._source_sets: Dict[str, "MeasurementSet"] = {}
        self._isp_sets: Dict[str, "MeasurementSet"] = {}

    # -- container basics -------------------------------------------------

    def __len__(self) -> int:
        return self._rows if self._list is None else len(self._list)

    def __iter__(self) -> Iterator[Measurement]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Measurement:
        return self._records[index]

    def __add__(self, other: "MeasurementSet") -> "MeasurementSet":
        if not isinstance(other, MeasurementSet):
            return NotImplemented
        # Empty-side fast paths: share the non-empty set instead of
        # re-copying its records (both sets are marked shared so a later
        # mutation of either copies-on-write first).
        if not len(other):
            self._shared = True
            return MeasurementSet._adopt(self._records)
        if not len(self):
            other._shared = True
            return MeasurementSet._adopt(other._records)
        return MeasurementSet._adopt(
            self._records + other._records, shared=False
        )

    def __repr__(self) -> str:
        return f"MeasurementSet({len(self)} records)"

    # -- mutation ----------------------------------------------------------

    def _prepare_mutation(self) -> None:
        if self._shared:
            self._records = list(self._records)
            self._shared = False
        self._store = None
        if self._parent_cache is not None:
            # A cached group subset diverges from its parent on first
            # mutation: drop it from the parent's handout cache so the
            # parent keeps serving unmutated snapshots.
            cache, key = self._parent_cache
            if cache.get(key) is self:
                del cache[key]
            self._parent_cache = None
        self._reset_caches()

    def add(self, record: Measurement) -> None:
        """Append one record, invalidating every cached answer."""
        self._prepare_mutation()
        self._records.append(record)

    def extend(self, records: Iterable[Measurement]) -> None:
        """Append many records, invalidating every cached answer."""
        self._prepare_mutation()
        self._records.extend(records)

    # -- filtering / grouping ---------------------------------------------

    def filter(
        self, predicate: Callable[[Measurement], bool]
    ) -> "MeasurementSet":
        """Records matching an arbitrary predicate."""
        if not len(self):
            return self
        matched = [r for r in self._records if predicate(r)]
        if len(matched) == len(self._records):
            # Everything matched: share the record list instead of
            # carrying a second copy of it.
            self._shared = True
            return MeasurementSet._adopt(self._records)
        return MeasurementSet._adopt(matched, shared=False)

    def _grouped(
        self, axis: str
    ) -> Dict[str, List[Measurement]]:
        attr = f"_{axis}_groups"
        groups = getattr(self, attr)
        if groups is None:
            groups = {}
            for record in self._records:
                key = getattr(record, axis)
                groups.setdefault(key, []).append(record)
            setattr(self, attr, groups)
        return groups

    def _group_set(self, axis: str, key: str) -> "MeasurementSet":
        sets = getattr(self, f"_{axis}_sets")
        subset = sets.get(key)
        if subset is None:
            records = self._grouped(axis).get(key)
            if records is None:
                subset = MeasurementSet()
            else:
                subset = MeasurementSet._adopt(records)
            subset._parent_cache = (sets, key)
            sets[key] = subset
        return subset

    def for_region(self, region: str) -> "MeasurementSet":
        """Records from one region (cached; reuses the group index)."""
        return self._group_set("region", region)

    def for_source(self, source: str) -> "MeasurementSet":
        """Records from one dataset (cached; reuses the group index)."""
        return self._group_set("source", source)

    def for_isp(self, isp: str) -> "MeasurementSet":
        """Records from one ISP (cached; reuses the group index)."""
        return self._group_set("isp", isp)

    def between(self, start: float, end: float) -> "MeasurementSet":
        """Records with ``start <= timestamp < end``."""
        return self.filter(lambda r: start <= r.timestamp < end)

    def regions(self) -> Tuple[str, ...]:
        """Distinct regions, sorted (from the cached group index)."""
        store = self.columnar()
        if store is not None:
            return store.regions()
        return tuple(sorted(self._grouped("region")))

    def sources(self) -> Tuple[str, ...]:
        """Distinct dataset names, sorted (from the cached group index)."""
        store = self.columnar()
        if store is not None:
            return store.sources()
        return tuple(sorted(self._grouped("source")))

    def isps(self) -> Tuple[str, ...]:
        """Distinct ISPs, sorted (empty names excluded)."""
        store = self.columnar()
        if store is not None:
            return store.isps()
        return tuple(sorted(key for key in self._grouped("isp") if key))

    def group_by_region(self) -> Dict[str, "MeasurementSet"]:
        """Split into one set per region (shared with :meth:`for_region`)."""
        return {
            region: self._group_set("region", region)
            for region in self._grouped("region")
        }

    def group_by_source(self) -> Dict[str, "MeasurementSet"]:
        """Split into one set per dataset, ready for ``score_region``."""
        return {
            source: self._group_set("source", source)
            for source in self._grouped("source")
        }

    # -- metric access / QuantileSource protocol ---------------------------

    def values(self, metric: Metric) -> List[float]:
        """All non-missing values of ``metric``, in record order (cached)."""
        cached = self._values_cache.get(metric)
        if cached is None:
            field = metric.field_name
            cached = [
                value
                for value in (getattr(r, field) for r in self._records)
                if value is not None
            ]
            self._values_cache[metric] = cached
        return cached

    def _sorted_values(self, metric: Metric) -> np.ndarray:
        cached = self._sorted_cache.get(metric)
        if cached is None:
            _SORTS.inc()
            cached = np.asarray(self.values(metric), dtype=np.float64)
            cached.sort()
            self._sorted_cache[metric] = cached
        return cached

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        """Percentile of the stored metric values (QuantileSource).

        Memoized per (metric, percentile); the backing value array is
        sorted once per metric so distinct percentiles share the sort.
        """
        key = (metric, percentile)
        if key in self._quantile_cache:
            _HITS.inc()
            return self._quantile_cache[key]
        _MISSES.inc()
        values = self._sorted_values(metric)
        answer: Optional[float]
        if values.size == 0:
            answer = None
        else:
            answer = percentile_of(values, percentile, assume_sorted=True)
        self._quantile_cache[key] = answer
        return answer

    def sample_count(self, metric: Metric) -> int:
        """Observation count for the metric (QuantileSource)."""
        return len(self.values(metric))

    # -- summaries ---------------------------------------------------------

    def mean(self, metric: Metric) -> Optional[float]:
        """Arithmetic mean of the metric (None when unobserved)."""
        values = self.values(metric)
        if not values:
            return None
        return sum(values) / len(values)

    def median(self, metric: Metric) -> Optional[float]:
        """Median of the metric (None when unobserved)."""
        return self.quantile(metric, 50.0)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-metric count/mean/median/p95 digest for reports."""
        digest: Dict[str, Dict[str, float]] = {}
        for metric in Metric:
            values = self.values(metric)
            if not values:
                continue
            digest[metric.value] = {
                "count": float(len(values)),
                "mean": sum(values) / len(values),
                "median": self.quantile(metric, 50.0),
                "p95": self.quantile(metric, 95.0),
            }
        return digest
