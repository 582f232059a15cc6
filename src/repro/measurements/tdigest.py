"""A merging t-digest for distributed quantile collection.

A fleet of collectors (M-Lab runs hundreds of sites) shards the work,
so its quantile state must combine. The t-digest (Dunning & Ertl) does:
centroids are mergeable, accuracy concentrates at the tails — exactly
where the IQB's 95th-percentile rule lives — and memory stays bounded
by the compression parameter.

This is the *merging* variant: incoming values buffer and periodically
merge into the centroid list under a size bound of
``4 · total · q(1−q) / δ`` per centroid (the classic q(1−q) bound),
which keeps tail centroids tiny and mid-range centroids coarse.

Accuracy is property-tested against the exact estimator; shard-merge
equivalence is exercised by the distributed-collection integration
test.
"""

from __future__ import annotations

import threading
from itertools import repeat
from typing import Iterable, List, Optional, Tuple

from repro.core.exceptions import AggregationError

#: Default compression: ~2x delta centroids retained.
DEFAULT_DELTA = 100


class TDigest:
    """Mergeable streaming quantile sketch.

    Thread-safe: every operation that touches centroid state holds a
    per-instance lock (the same discipline ``Timer`` uses for its
    latency digest), so a monitor thread ``add``-ing while a scorer
    calls ``quantile`` cannot corrupt the centroid list. ``quantile``
    still compacts the buffer — keeping reads amortized O(1) — but the
    compaction happens entirely under the lock, so it is invisible to
    concurrent callers.
    """

    def __init__(self, delta: int = DEFAULT_DELTA) -> None:
        if delta < 10:
            raise AggregationError(f"delta must be >= 10: {delta}")
        self.delta = delta
        #: (mean, weight) centroids, kept sorted by mean after merges.
        self._centroids: List[Tuple[float, float]] = []
        self._buffer: List[Tuple[float, float]] = []
        self._count = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    # -- ingestion ----------------------------------------------------------

    def add(self, value: float, weight: float = 1.0) -> None:
        """Add one observation (optionally weighted)."""
        if weight <= 0:
            raise AggregationError(f"weight must be positive: {weight}")
        value = float(value)
        with self._lock:
            self._buffer.append((value, float(weight)))
            self._count += weight
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            if len(self._buffer) >= 4 * self.delta:
                self._compress()

    def extend(self, values: Iterable[float]) -> None:
        """Add many unweighted observations under one lock acquisition.

        The digest ends exactly as :meth:`add` per value, in order,
        leaves it: the buffer flushes at the same points, and the
        count and extremes fold the same way.
        """
        floats = list(map(float, values))
        if not floats:
            return
        points = list(zip(floats, repeat(1.0)))
        low, high = min(floats), max(floats)
        limit = 4 * self.delta
        with self._lock:
            # One 1.0 at a time, as add() counts: a count that is not a
            # whole number would round differently if summed at once.
            count = self._count
            for _ in points:
                count += 1.0
            self._count = count
            if self._min is None or low < self._min:
                self._min = low
            if self._max is None or high > self._max:
                self._max = high
            start = 0
            while start < len(points):
                stop = start + limit - len(self._buffer)
                self._buffer.extend(points[start:stop])
                start = stop
                if len(self._buffer) >= limit:
                    self._compress()

    def merge(self, other: "TDigest") -> "TDigest":
        """A new digest summarizing both inputs (inputs unchanged).

        The combined centroids are handed straight to one compression
        pass under the merged digest's (smaller) delta — *not* replayed
        through :meth:`add` — so the merged count is exactly
        ``self._count + other._count`` and the extremes are the true
        observed extremes of both inputs, independent of buffering
        thresholds or float re-accumulation order.
        """
        own_points, own_count, own_min, own_max = self._snapshot()
        other_points, other_count, other_min, other_max = other._snapshot()
        merged = TDigest(delta=min(self.delta, other.delta))
        merged._buffer = own_points + other_points
        merged._count = own_count + other_count
        merged._min = _opt_min(own_min, other_min)
        merged._max = _opt_max(own_max, other_max)
        merged._compress()
        return merged

    def _all_centroids(self) -> List[Tuple[float, float]]:
        return self._centroids + self._buffer

    def _snapshot(
        self,
    ) -> Tuple[List[Tuple[float, float]], float, Optional[float], Optional[float]]:
        """A consistent (centroids, count, min, max) view, under the lock."""
        with self._lock:
            return self._all_centroids(), self._count, self._min, self._max

    def copy(self) -> "TDigest":
        """An independent digest equal to this one in every field.

        Centroids and buffer are copied as they are, under the lock.
        A :meth:`to_state`/:meth:`from_state` round trip is not a copy:
        it hands the centroids to :meth:`_compress` again, and
        compression is not idempotent.
        """
        clone = TDigest(delta=self.delta)
        with self._lock:
            clone._centroids = list(self._centroids)
            clone._buffer = list(self._buffer)
            clone._count = self._count
            clone._min = self._min
            clone._max = self._max
        return clone

    # -- mergeable state (serialization) --------------------------------------

    def to_state(self) -> dict:
        """JSON-compatible mergeable state (centroids plus extremes).

        The state round-trips through :meth:`from_state` with sketch
        accuracy preserved: centroids carry their weights, and the true
        observed min/max travel alongside (centroid means alone would
        understate the extremes). Cache tiles and the sketch
        checkpoints in monitor journals are made of it.
        """
        points, count, minimum, maximum = self._snapshot()
        return {
            "delta": self.delta,
            "count": count,
            "centroids": [[mean, weight] for mean, weight in points],
            "min": minimum,
            "max": maximum,
        }

    @classmethod
    def from_state(cls, state: dict) -> "TDigest":
        """Rebuild a digest exported by :meth:`to_state`.

        Centroids are restored directly (one compression pass) rather
        than replayed through :meth:`add`: replaying re-derives the
        extremes from centroid *means* and re-accumulates the count in
        a different float order, both of which drift from the exported
        digest. The state's recorded count and min/max are
        authoritative; older states without a ``count`` key fall back
        to summing centroid weights.
        """
        digest = cls(delta=int(state.get("delta", DEFAULT_DELTA)))
        points = [
            (float(mean), float(weight))
            for mean, weight in state.get("centroids", [])
        ]
        digest._buffer = points
        count = state.get("count")
        digest._count = (
            float(count)
            if count is not None
            else sum(weight for _, weight in points)
        )
        minimum = state.get("min")
        maximum = state.get("max")
        if minimum is not None:
            digest._min = float(minimum)
        elif points:
            digest._min = min(mean for mean, _ in points)
        if maximum is not None:
            digest._max = float(maximum)
        elif points:
            digest._max = max(mean for mean, _ in points)
        if len(digest._buffer) >= 4 * digest.delta:
            digest._compress()
        return digest

    def _compress(self) -> None:
        points = sorted(self._all_centroids())
        self._buffer = []
        if not points:
            self._centroids = []
            return
        total = sum(weight for _, weight in points)
        compressed: List[Tuple[float, float]] = []
        current_mean, current_weight = points[0]
        cumulative = 0.0
        for mean, weight in points[1:]:
            q = (cumulative + current_weight / 2.0) / total
            limit = max(1.0, 4.0 * total * q * (1.0 - q) / self.delta)
            if current_weight + weight <= limit:
                merged_weight = current_weight + weight
                current_mean = (
                    current_mean * current_weight + mean * weight
                ) / merged_weight
                current_weight = merged_weight
            else:
                compressed.append((current_mean, current_weight))
                cumulative += current_weight
                current_mean, current_weight = mean, weight
        compressed.append((current_mean, current_weight))
        self._centroids = compressed

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return int(self._count)

    @property
    def centroid_count(self) -> int:
        """Current sketch size (memory proxy)."""
        with self._lock:
            return len(self._all_centroids())

    def quantile(self, percentile: float) -> float:
        """Estimate the percentile in [0, 100].

        Safe to call concurrently with :meth:`add`: the buffer
        compaction a read triggers happens under the instance lock, so
        callers can treat this as a const query.

        Raises:
            AggregationError: on an empty digest or bad percentile.
        """
        if not 0.0 <= percentile <= 100.0:
            raise AggregationError(
                f"percentile out of [0, 100]: {percentile!r}"
            )
        with self._lock:
            if self._count == 0:
                raise AggregationError("t-digest has seen no values")
            if self._buffer:
                self._compress()
            centroids = self._centroids
            count = self._count
            minimum = self._min
            maximum = self._max
        assert minimum is not None and maximum is not None
        if percentile == 0.0:
            return minimum
        if percentile == 100.0:
            return maximum
        target = percentile / 100.0 * count
        cumulative = 0.0
        previous_mean = minimum
        previous_cum = 0.0
        for mean, weight in centroids:
            centre = cumulative + weight / 2.0
            if target <= centre:
                span = centre - previous_cum
                if span <= 0:
                    return mean
                frac = (target - previous_cum) / span
                return previous_mean + frac * (mean - previous_mean)
            previous_mean = mean
            previous_cum = centre
            cumulative += weight
        return maximum

    def quantile_or_none(self, percentile: float) -> Optional[float]:
        """Like :meth:`quantile` but None when empty."""
        return None if self._count == 0 else self.quantile(percentile)


def _opt_min(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _opt_max(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)
