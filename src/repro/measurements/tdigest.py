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

A digest's compressed centroids are two sorted, read-only float64
arrays, means and weights: a merging t-digest's state by design.
Compression replaces the arrays and never writes into them, so copies
share them. ``add`` and ``extend`` append to a Python list buffer that
is folded in every ``4·δ`` values. The state (:meth:`TDigest.to_state`)
carries the arrays as base64 little-endian float64 and the buffer as
its own list, so a round trip is an exact copy; cache tiles and
monitor journals are made of it.

Accuracy is property-tested against the exact estimator; shard-merge
equivalence is exercised by the distributed-collection integration
test.
"""

from __future__ import annotations

import binascii
import threading
from itertools import repeat
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import AggregationError

#: Default compression: ~2x delta centroids retained.
DEFAULT_DELTA = 100

_EMPTY = np.zeros(0, dtype=np.float64)
_EMPTY.setflags(write=False)


def _frozen(values: Sequence[float]) -> np.ndarray:
    array = np.array(values, dtype=np.float64)
    array.setflags(write=False)
    return array


def _encode(array: np.ndarray) -> str:
    raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _decode(text: str) -> np.ndarray:
    array = np.frombuffer(binascii.a2b_base64(text), dtype="<f8")
    array = array.astype(np.float64, copy=False)
    array.setflags(write=False)
    return array


class TDigest:
    """Mergeable streaming quantile sketch.

    Thread-safe: every operation that touches centroid state holds a
    per-instance lock (the same discipline ``Timer`` uses for its
    latency digest), so a monitor thread ``add``-ing while a scorer
    calls ``quantile`` cannot corrupt the buffer. ``quantile`` still
    compacts the buffer — keeping reads amortized O(1) — but the
    compaction happens entirely under the lock, so it is invisible to
    concurrent callers.
    """

    def __init__(self, delta: int = DEFAULT_DELTA) -> None:
        if delta < 10:
            raise AggregationError(f"delta must be >= 10: {delta}")
        self.delta = delta
        #: Compressed centroids, sorted by mean; never written in place.
        self._means = _EMPTY
        self._weights = _EMPTY
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

    def _points(self) -> List[Tuple[float, float]]:
        """Centroids, then the buffer, as (mean, weight) tuples."""
        points = list(zip(self._means.tolist(), self._weights.tolist()))
        points.extend(self._buffer)
        return points

    def _snapshot(
        self,
    ) -> Tuple[List[Tuple[float, float]], float, Optional[float], Optional[float]]:
        """A consistent (points, count, min, max) view, under the lock."""
        with self._lock:
            return self._points(), self._count, self._min, self._max

    def copy(self) -> "TDigest":
        """An independent digest equal to this one in every field.

        The centroid arrays are shared (nothing writes into them); the
        buffer is copied.
        """
        clone = TDigest(delta=self.delta)
        with self._lock:
            clone._means = self._means
            clone._weights = self._weights
            clone._buffer = list(self._buffer)
            clone._count = self._count
            clone._min = self._min
            clone._max = self._max
        return clone

    # -- mergeable state (serialization) --------------------------------------

    def to_state(self) -> dict:
        """JSON-compatible mergeable state: centroids, buffer, extremes.

        The compressed centroids travel as base64 little-endian float64
        (``means``, ``weights``) and the buffer as ``[value, weight]``
        pairs, apart, so :meth:`from_state` restores the digest exactly:
        its quantiles, and whatever it becomes after further values.
        The true observed min/max travel alongside (centroid means
        alone would understate the extremes). Cache tiles and the
        sketch checkpoints in monitor journals are made of it.
        """
        with self._lock:
            means, weights = self._means, self._weights
            buffer = [[value, weight] for value, weight in self._buffer]
            count, minimum, maximum = self._count, self._min, self._max
        return {
            "delta": self.delta,
            "count": count,
            "means": _encode(means),
            "weights": _encode(weights),
            "buffer": buffer,
            "min": minimum,
            "max": maximum,
        }

    @classmethod
    def from_state(cls, state: dict) -> "TDigest":
        """Rebuild a digest exported by :meth:`to_state`.

        A state with a ``centroids`` list, the form written before the
        centroids were arrays, loads those points into the buffer (and
        compresses them once there are ``4·δ``), so a monitor journal
        written then still resumes. The state's recorded count and
        min/max are authoritative; states without a ``count`` key fall
        back to summing weights.
        """
        digest = cls(delta=int(state.get("delta", DEFAULT_DELTA)))
        if "centroids" in state:
            pairs = state["centroids"]
        else:
            digest._means = _decode(state.get("means", ""))
            digest._weights = _decode(state.get("weights", ""))
            if digest._means.size != digest._weights.size:
                raise AggregationError(
                    f"t-digest state has {digest._means.size} means and "
                    f"{digest._weights.size} weights"
                )
            pairs = state.get("buffer", [])
        digest._buffer = [(float(mean), float(weight)) for mean, weight in pairs]
        count, minimum, maximum = (state.get(k) for k in ("count", "min", "max"))
        if None in (count, minimum, maximum):
            points = digest._points()
            if count is None:
                count = sum(weight for _, weight in points)
            if points:
                if minimum is None:
                    minimum = min(mean for mean, _ in points)
                if maximum is None:
                    maximum = max(mean for mean, _ in points)
        digest._count = float(count)
        if minimum is not None:
            digest._min = float(minimum)
        if maximum is not None:
            digest._max = float(maximum)
        if len(digest._buffer) >= 4 * digest.delta:
            digest._compress()
        return digest

    def compress(self) -> None:
        """Fold the buffer into the centroids now, as a read would."""
        with self._lock:
            if self._buffer:
                self._compress()

    def _compress(self) -> None:
        # The arithmetic and its order are pinned bit for bit by the
        # tuple-list oracle in tests/measurements/test_tdigest_arrays.py.
        points = self._points()
        points.sort()
        self._buffer = []
        if not points:
            self._means = self._weights = _EMPTY
            return
        total = sum(weight for _, weight in points)
        scale = 4.0 * total
        delta = self.delta
        means: List[float] = []
        weights: List[float] = []
        remaining = iter(points)
        current_mean, current_weight = next(remaining)
        cumulative = 0.0
        for mean, weight in remaining:
            q = (cumulative + current_weight / 2.0) / total
            limit = scale * q * (1.0 - q) / delta
            if not limit > 1.0:  # max(1.0, limit), without a call
                limit = 1.0
            merged_weight = current_weight + weight
            if merged_weight <= limit:
                current_mean = (
                    current_mean * current_weight + mean * weight
                ) / merged_weight
                current_weight = merged_weight
            else:
                means.append(current_mean)
                weights.append(current_weight)
                cumulative += current_weight
                current_mean, current_weight = mean, weight
        means.append(current_mean)
        weights.append(current_weight)
        self._means = _frozen(means)
        self._weights = _frozen(weights)

    def compressed(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, float, Optional[float], Optional[float]]:
        """(means, weights, count, min, max), the buffer folded in first.

        The arrays are the digest's own, read-only.
        """
        with self._lock:
            if self._buffer:
                self._compress()
            return (
                self._means,
                self._weights,
                self._count,
                self._min,
                self._max,
            )

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return int(self._count)

    @property
    def centroid_count(self) -> int:
        """Current sketch size (memory proxy)."""
        with self._lock:
            return int(self._means.size) + len(self._buffer)

    def quantile(self, percentile: float) -> float:
        """Estimate the percentile in [0, 100].

        Interpolates between the centres of the centroids either side
        of the target rank (the true extremes stand in beyond the
        outermost centres). Safe to call concurrently with :meth:`add`:
        the buffer compaction a read triggers happens under the
        instance lock, so callers can treat this as a const query.

        Raises:
            AggregationError: on an empty digest or bad percentile.
        """
        _check_percentile(percentile)
        if self._count == 0:
            raise AggregationError("t-digest has seen no values")
        means, weights, count, minimum, maximum = self.compressed()
        assert minimum is not None and maximum is not None
        if percentile == 0.0:
            return minimum
        if percentile == 100.0:
            return maximum
        target = percentile / 100.0 * count
        # Each centre is the weight before its centroid plus half its
        # own, summed left to right. The array methods skip the numpy
        # function wrappers, which cost more than the math here.
        centres = weights / 2.0
        if centres.size > 1:
            centres[1:] += weights[:-1].cumsum()
        i = int(centres.searchsorted(target, side="left"))
        if i == centres.size:
            return maximum
        mean = means.item(i)
        if i == 0:
            previous_mean, previous_cum = minimum, 0.0
        else:
            previous_mean = means.item(i - 1)
            previous_cum = centres.item(i - 1)
        span = centres.item(i) - previous_cum
        if span <= 0:
            return mean
        frac = (target - previous_cum) / span
        return previous_mean + frac * (mean - previous_mean)

    def quantile_or_none(self, percentile: float) -> Optional[float]:
        """Like :meth:`quantile` but None when empty."""
        return None if self._count == 0 else self.quantile(percentile)


def _check_percentile(percentile: float) -> None:
    if not 0.0 <= percentile <= 100.0:
        raise AggregationError(
            f"percentile out of [0, 100]: {percentile!r}"
        )


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
