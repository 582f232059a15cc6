"""MeasurementSet: an immutable, queryable list of measurement records.

This is the workhorse container between data generation/ingest and
scoring. It implements the :class:`~repro.core.aggregation.QuantileSource`
protocol, so a filtered MeasurementSet can be handed directly to
``score_region`` as one dataset's evidence.

Every query a set answers reads one
:class:`~repro.measurements.columnar.ColumnarStore` (:meth:`columnar`).
A set returned by the readers in :mod:`.io` wraps the store they
decoded into; a set built from records transposes them into a store
once, on the first query. Groups and other subsets select rows: a
subset reads its rows of the parent's store, and builds a store of its
own (:meth:`ColumnarStore.select`) only when it is grouped, listed or
iterated; groups are cached per key. Values, counts and quantiles come
from one :class:`~repro.measurements.columnar.ColumnarView` bound on
the set, so repeated questions are memo hits. Records are built only
when a caller iterates, indexes or filters a set read from a file.
Scoring and the sketch and tile builders read the store directly, so
a file read to be scored never becomes records at all.
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

from repro.core.metrics import Metric

from .columnar import ColumnarStore, ColumnarView
from .record import Measurement


class MeasurementSet:
    """An immutable list of :class:`Measurement` records."""

    def __init__(self, records: Iterable[Measurement] = ()) -> None:
        self._list: Optional[List[Measurement]] = list(records)
        self._rows = len(self._list)
        # A subset reads its rows of a larger store until it needs a
        # store of its own.
        self._selection: Optional[Tuple[ColumnarStore, np.ndarray]] = None
        self._store: Optional[ColumnarStore] = None
        self._view: Optional[ColumnarView] = None
        self._subsets: Dict[Tuple[str, str], "MeasurementSet"] = {}

    @classmethod
    def _wrap(
        cls, store: ColumnarStore, rows: Optional[np.ndarray] = None
    ) -> "MeasurementSet":
        """A set of ``store``'s current rows, or of ``rows`` of it.

        Its records are built only when a caller asks for them.
        """
        out = cls()
        out._list = None
        if rows is None:
            out._store, out._rows = store, len(store)
        else:
            out._selection, out._rows = (store, rows), int(rows.size)
        return out

    @property
    def _records(self) -> List[Measurement]:
        records = self._list
        if records is None:
            records = self._list = self.columnar()._record_list()
        return records

    def columnar(self) -> ColumnarStore:
        """The store holding exactly this set's rows.

        The readers' store, or one built on first need: from the
        records, or, for a subset, from its rows of the parent's store.
        """
        store = self._store
        if store is None:
            if self._selection is None:
                store = ColumnarStore(self._records)
            else:
                store = self._selection[0].select(self._selection[1])
            self._store = store
        elif len(store) != self._rows:
            # The store grew after this set was taken from it.
            store = self._store = store.select(np.arange(self._rows))
        return store

    def _located(self) -> Tuple[ColumnarStore, Optional[np.ndarray]]:
        """A store holding this set's rows, and their positions in it.

        None stands for every row of a store of this set alone.
        """
        if self._store is None and self._selection is not None:
            return self._selection
        return self.columnar(), None

    def _whole(self) -> ColumnarView:
        view = self._view
        if view is None:
            store, rows = self._located()
            view = store.view() if rows is None else ColumnarView(store, rows)
            self._view = view
        return view

    # -- container basics -------------------------------------------------

    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator[Measurement]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Measurement:
        return self._records[index]

    def __add__(self, other: "MeasurementSet") -> "MeasurementSet":
        if not isinstance(other, MeasurementSet):
            return NotImplemented
        if not len(other):
            return self
        if not len(self):
            return other
        return MeasurementSet(self._records + other._records)

    def __repr__(self) -> str:
        return f"MeasurementSet({len(self)} records)"

    # -- filtering / grouping ---------------------------------------------

    def filter(
        self, predicate: Callable[[Measurement], bool]
    ) -> "MeasurementSet":
        """Records matching an arbitrary predicate."""
        matched = [r for r in self._records if predicate(r)]
        if len(matched) == len(self):
            return self
        return MeasurementSet(matched)

    def _select(self, rows: np.ndarray) -> "MeasurementSet":
        """The subset at ``rows`` (positions in this set)."""
        store, own = self._located()
        return MeasurementSet._wrap(store, rows if own is None else own[rows])

    def _group_set(self, axis: str, key: str) -> "MeasurementSet":
        subset = self._subsets.get((axis, key))
        if subset is None:
            store = self.columnar()
            rows = store.index(axis).get(key)
            if rows is None:
                # Absent, or an empty ISP name, which the index skips.
                columns = store.columns()
                names = columns.keys[axis]
                rows = (
                    np.flatnonzero(columns.codes[axis] == names.index(key))
                    if key in names
                    else np.empty(0, dtype=np.intp)
                )
            subset = self._subsets[(axis, key)] = self._select(rows)
        return subset

    def for_region(self, region: str) -> "MeasurementSet":
        """Records from one region (cached)."""
        return self._group_set("region", region)

    def for_source(self, source: str) -> "MeasurementSet":
        """Records from one dataset (cached)."""
        return self._group_set("source", source)

    def for_isp(self, isp: str) -> "MeasurementSet":
        """Records from one ISP (cached)."""
        return self._group_set("isp", isp)

    def between(self, start: float, end: float) -> "MeasurementSet":
        """Records with ``start <= timestamp < end``."""
        store, rows = self._located()
        timestamp = store.columns().timestamp
        if rows is not None:
            timestamp = timestamp[rows]
        return self._select(
            np.flatnonzero((timestamp >= start) & (timestamp < end))
        )

    def regions(self) -> Tuple[str, ...]:
        """Distinct regions, sorted."""
        return self.columnar().regions()

    def sources(self) -> Tuple[str, ...]:
        """Distinct dataset names, sorted."""
        return self.columnar().sources()

    def isps(self) -> Tuple[str, ...]:
        """Distinct ISPs, sorted (empty names excluded)."""
        return self.columnar().isps()

    def group_by_region(self) -> Dict[str, "MeasurementSet"]:
        """Split into one set per region, in first-seen order."""
        return {
            region: self._group_set("region", region)
            for region in self.columnar().index("region")
        }

    def group_by_source(self) -> Dict[str, "MeasurementSet"]:
        """Split into one set per dataset, ready for ``score_region``."""
        return {
            source: self._group_set("source", source)
            for source in self.columnar().index("source")
        }

    # -- metric access / QuantileSource protocol ---------------------------

    def values(self, metric: Metric) -> List[float]:
        """All non-missing values of ``metric``, in record order."""
        return self._whole().value_list(metric)

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        """Percentile of the stored metric values (QuantileSource)."""
        return self._whole().quantile(metric, percentile)

    def sample_count(self, metric: Metric) -> int:
        """Observation count for the metric (QuantileSource)."""
        return self._whole().sample_count(metric)

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
