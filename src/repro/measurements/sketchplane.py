"""Sketch-backed quantile plane: the incremental streaming scoring path.

The columnar plane (:mod:`.columnar`) is the right layout for *batch*
scoring — transpose once, sort once per metric, answer every quantile
from shared planes — but it is a batch artifact: one new measurement
invalidates the sort, so a monitor re-scoring a live window pays
O(n log n) per arrival. The paper's own Ookla path already scores from
aggregate summaries rather than raw samples (PAPER.md §2), which is
precedent for the other direction: keep a per-(region, dataset, metric)
*sketch* of the distribution and answer the kernel's percentile queries
from it.

:class:`SketchPlane` maintains one mergeable t-digest per
(region, dataset, metric) cell. ``add`` is O(1) amortized per
measurement (buffered digest inserts); ``aggregate_cube`` answers the
same ``A[region, dataset, metric]`` cube the vectorized kernel
(:mod:`repro.core.kernel`) consumes, so the plane plugs directly into
``score_store`` / ``score_values`` — no kernel changes, just a
different quantile source. Sample counts are exact (digests track true
counts); the percentile *values* are estimates with relative error
concentrated away from the tails, which is the right trade for the
IQB's 95th-percentile rule (see ``docs/methodology.md``, "Streaming
scoring", for measured bounds; the parity suite pins p95/p99 relative
error ≤ 1% vs the exact plane).

Planes are mergeable and serializable (``merge`` / ``to_state`` /
``from_state``), mirroring the t-digest plumbing PR 4 ships for shard
timer telemetry: workers sketch their shard and the parent merges, and
monitor journals can checkpoint sketch state instead of raw records.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.metrics import Metric
from repro.obs import counter
from repro.obs.health import get_health_monitor

from .columnar import (
    AggregateCube,
    ColumnBatch,
    as_batch,
    group_rows,
    pair_cells,
    record_arrivals,
)
from .record import Measurement
from .tdigest import DEFAULT_DELTA, TDigest

# Streaming-plane telemetry: ``updates`` counts digest inserts (one per
# observed metric value), ``rescore.hits`` counts quantile-plane reads
# served from sketch state instead of a raw-record recompute.
_UPDATES = counter("sketch.updates")
_RESCORE_HITS = counter("sketch.rescore.hits")


class SketchView:
    """QuantileSource over one (region, dataset) cell of a SketchPlane.

    Holds one t-digest per metric, created lazily on first observation.
    Implements the same protocol as :class:`~.columnar.ColumnarView`,
    so :func:`repro.core.scoring.score_region` accepts it unchanged.
    """

    __slots__ = ("_delta", "_digests", "_records")

    def __init__(self, delta: int = DEFAULT_DELTA) -> None:
        self._delta = delta
        self._digests: Dict[Metric, TDigest] = {}
        self._records = 0

    def __len__(self) -> int:
        """Measurements observed by this cell (not per-metric counts)."""
        return self._records

    def __repr__(self) -> str:
        return f"SketchView({self._records} records)"

    def observe(self, record: Measurement) -> None:
        """Fold one measurement into the cell's metric digests."""
        self._records += 1
        for metric in Metric.ordered():
            value = getattr(record, metric.field_name)
            if value is None:
                continue
            digest = self._digests.get(metric)
            if digest is None:
                digest = TDigest(delta=self._delta)
                self._digests[metric] = digest
            digest.add(float(value))
            _UPDATES.inc()

    def observe_rows(self, batch: ColumnBatch, rows: np.ndarray) -> None:
        """Fold ``batch``'s ``rows`` (ascending) into the cell's digests.

        Each digest sees the same values in the same order as
        :meth:`observe` over those rows would give it, so the sketch
        state is identical; digests are created in the order the rows
        first observe their metric.
        """
        self._records += int(rows.size)
        metrics = Metric.ordered()
        values = [batch.values[metric][rows] for metric in metrics]
        observed = [~np.isnan(column) for column in values]
        firsts = [
            int(np.argmax(mask)) if mask.any() else None for mask in observed
        ]
        for r in sorted(
            (r for r in range(len(metrics)) if firsts[r] is not None),
            key=lambda r: (firsts[r], r),
        ):
            digest = self._digests.get(metrics[r])
            if digest is None:
                digest = TDigest(delta=self._delta)
                self._digests[metrics[r]] = digest
            column = values[r][observed[r]].tolist()
            digest.extend(column)
            _UPDATES.inc(len(column))

    # -- QuantileSource protocol ------------------------------------------

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        digest = self._digests.get(metric)
        if digest is None:
            return None
        return digest.quantile_or_none(percentile)

    def sample_count(self, metric: Metric) -> int:
        digest = self._digests.get(metric)
        return 0 if digest is None else len(digest)

    # -- state / merge -----------------------------------------------------

    def to_state(self) -> dict:
        return {
            "records": self._records,
            "digests": {
                metric.value: digest.to_state()
                for metric, digest in self._digests.items()
            },
        }

    @classmethod
    def from_state(cls, state: dict, delta: int = DEFAULT_DELTA) -> "SketchView":
        view = cls(delta=delta)
        view._records = int(state.get("records", 0))
        for name, digest_state in state.get("digests", {}).items():
            view._digests[Metric(name)] = TDigest.from_state(digest_state)
        return view

    def merge(self, other: "SketchView") -> "SketchView":
        """A new view summarizing both inputs (inputs unchanged)."""
        merged = SketchView(delta=min(self._delta, other._delta))
        merged._records = self._records + other._records
        for metric in set(self._digests) | set(other._digests):
            own = self._digests.get(metric)
            theirs = other._digests.get(metric)
            if own is not None and theirs is not None:
                merged._digests[metric] = own.merge(theirs)
            else:
                source = own if own is not None else theirs
                assert source is not None
                merged._digests[metric] = TDigest.from_state(source.to_state())
        return merged


class SketchPlane:
    """Per-(region, dataset, metric) t-digests, updated per measurement.

    The streaming counterpart of :class:`~.columnar.ColumnarStore`:
    same ``aggregate_cube`` / ``sources_by_region`` surface (the
    scoring kernel reads the cube; per-region callers score the
    views), but built by
    O(1)-amortized ``add`` instead of a batch transpose, and mergeable
    across shards and serializable into journals.
    """

    #: Native quantile plane (kernel provenance): streaming t-digests.
    QUANTILE_SOURCE = "sketch"

    def __init__(self, delta: int = DEFAULT_DELTA) -> None:
        self.delta = delta
        self._views: Dict[Tuple[str, str], SketchView] = {}
        self._records = 0

    def __len__(self) -> int:
        return self._records

    @property
    def generation(self) -> int:
        """Monotone change stamp for generation-keyed score caches.

        Advances once per accepted record, and only *after* the cell
        digests have observed it (``add`` updates the view before the
        count), so a reader that sees a stamp sees a plane consistent
        with it. Survives :meth:`to_state`/:meth:`from_state` and adds
        across :meth:`merge`, mirroring
        :attr:`~repro.measurements.columnar.ColumnarStore.generation`.
        """
        return self._records

    def __repr__(self) -> str:
        return (
            f"SketchPlane({self._records} records, "
            f"{len(self._views)} cells)"
        )

    # -- ingestion ---------------------------------------------------------

    def add(self, record: Measurement) -> None:
        """Fold one measurement in — O(1) amortized."""
        key = (record.region, record.source)
        view = self._views.get(key)
        if view is None:
            view = SketchView(delta=self.delta)
            self._views[key] = view
        view.observe(record)
        self._records += 1
        # Data-quality hook: every accepted measurement advances the
        # health monitor's freshness watermark (one None check when
        # health tracking is off).
        health = get_health_monitor()
        if health is not None:
            health.record_arrival(
                record.region, record.source, record.timestamp
            )

    def extend(self, records: Iterable[Measurement]) -> None:
        """Fold many rows in: the same plane as :meth:`add` per row.

        Reads columns — a :class:`~.columnar.ColumnBatch`, a
        ``ColumnarStore`` or a store-backed ``MeasurementSet`` as they
        are, any other records transposed once — and feeds each cell
        its rows in row order.
        """
        batch = as_batch(records)
        if not len(batch):
            return
        pairs, inverse, firsts = pair_cells(batch.codes, batch.keys)
        rows = group_rows(inverse, len(pairs))
        # Cells in first-seen order, as add() would create them.
        for cell in np.argsort(firsts).tolist():
            key = pairs[cell]
            view = self._views.get(key)
            if view is None:
                view = SketchView(delta=self.delta)
                self._views[key] = view
            view.observe_rows(batch, rows[cell])
        self._records += len(batch)
        record_arrivals(batch)

    # -- axes --------------------------------------------------------------

    def regions(self) -> Tuple[str, ...]:
        """Distinct regions observed, sorted."""
        return tuple(sorted({region for region, _ in self._views}))

    def sources(self) -> Tuple[str, ...]:
        """Distinct dataset names observed, sorted."""
        return tuple(sorted({source for _, source in self._views}))

    def view(self, region: str, source: str) -> SketchView:
        """The (region, dataset) cell; an empty view when unobserved."""
        return self._views.get((region, source)) or SketchView(self.delta)

    def sources_by_region(self) -> Dict[str, Dict[str, SketchView]]:
        """region → dataset → QuantileSource, for per-region scoring."""
        grouped: Dict[str, Dict[str, SketchView]] = {}
        for (region, source), view in sorted(self._views.items()):
            grouped.setdefault(region, {})[source] = view
        return grouped

    # -- kernel surface ----------------------------------------------------

    def aggregate_cube(
        self,
        datasets: Tuple[str, ...],
        percentiles: Tuple[float, ...],
    ) -> AggregateCube:
        """The kernel's ``A[region, dataset, metric]`` cube, from sketches.

        Shape and NaN/count semantics match
        :meth:`~.columnar.ColumnarStore.aggregate_cube` exactly — the
        vectorized kernel cannot tell the planes apart — but each cell
        is a t-digest estimate instead of an exact sorted-column
        interpolation. Counts are exact, so missing-data policies and
        degraded-mode renormalization behave identically on both
        planes. Not cached: reads are O(cells · delta) against live
        sketches, which is the point — a re-score after an ``add``
        needs no invalidation machinery.
        """
        metrics = Metric.ordered()
        if len(percentiles) != len(metrics):
            raise ValueError(
                f"aggregate_cube needs one percentile per metric "
                f"({len(metrics)}), got {len(percentiles)}"
            )
        regions = self.regions()
        region_slot = {name: g for g, name in enumerate(regions)}
        dataset_slot = {name: d for d, name in enumerate(datasets)}
        shape = (len(regions), len(datasets), len(metrics))
        aggregates = np.full(shape, np.nan, dtype=np.float64)
        counts = np.zeros(shape, dtype=np.int64)
        for (region, source), view in self._views.items():
            d = dataset_slot.get(source)
            if d is None:
                continue
            g = region_slot[region]
            for r, metric in enumerate(metrics):
                n = view.sample_count(metric)
                if n == 0:
                    continue
                counts[g, d, r] = n
                estimate = view.quantile(metric, float(percentiles[r]))
                if estimate is not None:
                    aggregates[g, d, r] = estimate
        cube = AggregateCube(
            regions=regions,
            aggregates=aggregates,
            counts=counts,
            cells=int(np.count_nonzero(counts)),
        )
        _RESCORE_HITS.inc()
        return cube

    # -- state / merge -----------------------------------------------------

    def to_state(self) -> dict:
        """JSON-compatible mergeable state (journals, shard shipping)."""
        return {
            "delta": self.delta,
            "records": self._records,
            "views": [
                [region, source, view.to_state()]
                for (region, source), view in sorted(self._views.items())
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "SketchPlane":
        """Rebuild a plane exported by :meth:`to_state`."""
        plane = cls(delta=int(state.get("delta", DEFAULT_DELTA)))
        plane._records = int(state.get("records", 0))
        for region, source, view_state in state.get("views", []):
            plane._views[(str(region), str(source))] = SketchView.from_state(
                view_state, delta=plane.delta
            )
        return plane

    def merge(self, other: "SketchPlane") -> "SketchPlane":
        """A new plane summarizing both inputs (inputs unchanged).

        Disjoint cells are copied; shared cells t-digest-merge, so
        per-shard planes built over partitioned records combine into
        exactly the plane a single pass would have built (same counts,
        sketch-equivalent quantiles) — the same contract PR 4's shard
        timer digests rely on.
        """
        merged = SketchPlane(delta=min(self.delta, other.delta))
        merged._records = self._records + other._records
        for key in set(self._views) | set(other._views):
            own = self._views.get(key)
            theirs = other._views.get(key)
            if own is not None and theirs is not None:
                merged._views[key] = own.merge(theirs)
            else:
                source = own if own is not None else theirs
                assert source is not None
                merged._views[key] = SketchView.from_state(
                    source.to_state(), delta=source._delta
                )
        return merged


def sketch_records(
    records: Iterable[Measurement], delta: int = DEFAULT_DELTA
) -> SketchPlane:
    """One-pass plane over a finished batch (convenience constructor).

    Reads the columns of a store or store-backed set directly (see
    :meth:`SketchPlane.extend`).
    """
    plane = SketchPlane(delta=delta)
    plane.extend(records)
    return plane
