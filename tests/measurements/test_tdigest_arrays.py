"""The array layout of ``TDigest`` against the list digest it replaced.

``ListDigest`` is the merging t-digest as it was written over
``(mean, weight)`` tuple lists: the same buffer flushes, the same
compression arithmetic and the same interpolation loop. It is the
oracle. ``TDigest.quantile`` and ``SketchPlane.aggregate_cube`` must
give its floats bit for bit, on ties, one-centroid digests, weighted
values and values still in the buffer.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metrics import Metric
from repro.measurements.record import Measurement
from repro.measurements.sketchplane import SketchPlane
from repro.measurements.tdigest import TDigest


class ListDigest:
    """The tuple-list t-digest: add, compress and quantile as they were."""

    def __init__(self, delta):
        self.delta = delta
        self.centroids = []
        self.buffer = []
        self.count = 0.0
        self.min = None
        self.max = None

    def add(self, value, weight=1.0):
        self.buffer.append((value, weight))
        self.count += weight
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self.buffer) >= 4 * self.delta:
            self.compress()

    def compress(self):
        points = sorted(self.centroids + self.buffer)
        self.buffer = []
        total = sum(weight for _, weight in points)
        compressed = []
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
        self.centroids = compressed

    def quantile(self, percentile):
        if self.buffer:
            self.compress()
        if percentile == 0.0:
            return self.min
        if percentile == 100.0:
            return self.max
        target = percentile / 100.0 * self.count
        cumulative = 0.0
        previous_mean = self.min
        previous_cum = 0.0
        for mean, weight in self.centroids:
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
        return self.max


def _bits(value):
    return float(value).hex()


@st.composite
def _seeded_values(draw):
    """Up to 2,500 values, enough for several buffer flushes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 2500))
    kind = draw(st.sampled_from(["ties", "rounded", "lognormal"]))
    if kind == "ties":
        return rng.integers(0, 6, size).astype(float).tolist()
    values = rng.lognormal(3.0, 1.0, size)
    return (np.round(values) if kind == "rounded" else values).tolist()


#: Few distinct values (ties everywhere) or spread-out ones.
VALUES = st.one_of(
    st.lists(st.integers(0, 6).map(float), min_size=1, max_size=60),
    st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=1, max_size=60),
    _seeded_values(),
)
PERCENTILES = st.lists(
    st.one_of(
        st.sampled_from([0.0, 100.0, 50.0, 95.0, 99.0]),
        st.floats(0.0, 100.0),
    ),
    min_size=1,
    max_size=6,
).map(lambda drawn: [0.0, 100.0] + drawn)


@settings(max_examples=150, deadline=None)
@given(
    values=VALUES,
    weights=st.lists(st.floats(0.25, 8.0), max_size=40),
    delta=st.sampled_from([10, 25, 100]),
    split=st.integers(0, 2500),
    percentiles=PERCENTILES,
)
def test_quantile_matches_the_list_digest(
    values, weights, delta, split, percentiles
):
    digest = TDigest(delta=delta)
    oracle = ListDigest(delta)
    digest.extend(values[:split])
    for value in values[:split]:
        oracle.add(value)
    # Weighted adds make running sums that are not whole numbers.
    for value, weight in zip(values[split:], weights + [1.0] * len(values)):
        digest.add(value, weight)
        oracle.add(value, weight)
    for percentile in percentiles:
        assert _bits(digest.quantile(percentile)) == _bits(
            oracle.quantile(percentile)
        ), percentile
    means, weights_out, count, low, high = digest.compressed()
    assert means.tolist() == [mean for mean, _ in oracle.centroids]
    assert weights_out.tolist() == [weight for _, weight in oracle.centroids]
    assert (count, low, high) == (oracle.count, oracle.min, oracle.max)


def _cell_records(region, source, values):
    """One cell's records: latency on even rows only, no packet loss."""
    return [
        Measurement(
            region=region,
            source=source,
            timestamp=float(i),
            download_mbps=value,
            upload_mbps=value / 2.0,
            latency_ms=value + 1.0 if i % 2 == 0 else None,
        )
        for i, value in enumerate(values)
    ]


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(VALUES, min_size=1, max_size=6),
    delta=st.sampled_from([10, 100]),
    percentiles=st.tuples(*[PERCENTILES.map(lambda p: p[-1])] * 4),
)
def test_aggregate_cube_matches_the_list_digest(cells, delta, percentiles):
    plane = SketchPlane(delta=delta)
    keys = [(f"r{c // 2}", ("ndt", "ookla")[c % 2]) for c in range(len(cells))]
    for (region, source), values in zip(keys, cells):
        plane.extend(_cell_records(region, source, values))
    datasets = ("ndt", "ookla")
    cube = plane.aggregate_cube(datasets, percentiles)
    for (region, source), values in zip(keys, cells):
        g = cube.regions.index(region)
        d = datasets.index(source)
        for r, metric in enumerate(Metric.ordered()):
            observed = [
                getattr(record, metric.field_name)
                for record in _cell_records(region, source, values)
            ]
            observed = [value for value in observed if value is not None]
            if not observed:
                assert cube.counts[g, d, r] == 0
                assert np.isnan(cube.aggregates[g, d, r])
                continue
            oracle = ListDigest(delta)
            for value in observed:
                oracle.add(value)
            assert cube.counts[g, d, r] == len(observed)
            assert _bits(cube.aggregates[g, d, r]) == _bits(
                oracle.quantile(percentiles[r])
            ), (region, source, metric)


class TestStateRoundTrip:
    def test_round_trip_is_a_copy(self):
        rng = np.random.default_rng(7)
        first, more = rng.lognormal(3.0, 1.0, 1050), rng.lognormal(3.0, 1.0, 1950)
        original = TDigest()
        original.extend(first.tolist())
        state = json.loads(json.dumps(original.to_state()))
        restored = TDigest.from_state(state)
        assert restored.to_state() == original.to_state()
        for digest in (original, restored):
            for value in more.tolist():
                digest.add(value)
        for percentile in (50.0, 90.0, 95.0, 99.0):
            assert restored.quantile(percentile) == original.quantile(percentile)
        assert restored.to_state() == original.to_state()

    def test_state_keeps_centroids_and_buffer_apart(self):
        digest = TDigest(delta=10)
        digest.extend(float(i % 7) for i in range(45))
        state = digest.to_state()
        assert len(state["buffer"]) == 45 - 40
        restored = TDigest.from_state(state)
        assert restored.centroid_count == digest.centroid_count
        restored.compress()
        assert restored.to_state()["buffer"] == []

    def test_a_centroids_list_state_still_loads(self):
        oracle = ListDigest(100)
        for i in range(700):
            oracle.add(float(i * 37 % 101))
        # The form written before centroids were arrays: centroids and
        # buffer poured into one list.
        state = {
            "delta": 100,
            "count": oracle.count,
            "centroids": [list(point) for point in oracle.centroids + oracle.buffer],
            "min": oracle.min,
            "max": oracle.max,
        }
        digest = TDigest.from_state(state)
        assert len(digest) == 700
        reloaded = ListDigest(100)
        reloaded.buffer = [tuple(point) for point in state["centroids"]]
        reloaded.count, reloaded.min, reloaded.max = 700.0, oracle.min, oracle.max
        for percentile in (0.0, 5.0, 50.0, 95.0, 100.0):
            assert digest.quantile(percentile) == reloaded.quantile(percentile)

    def test_mismatched_arrays_are_refused(self):
        from repro.core.exceptions import AggregationError

        state = TDigest().to_state()
        state["means"] = "AAAAAAAA8D8="  # one float64, 1.0; no weights
        with pytest.raises(AggregationError, match="means"):
            TDigest.from_state(state)

    def test_copies_share_centroid_arrays_read_only(self):
        digest = TDigest(delta=10)
        digest.extend(float(i) for i in range(100))
        digest.compress()
        clone = digest.copy()
        means, *_ = digest.compressed()
        assert clone.compressed()[0] is means
        assert not means.flags.writeable
        clone.extend(float(i) for i in range(100))
        clone.compress()
        assert digest.compressed()[0] is means
