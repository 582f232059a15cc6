"""Property-based tests for data substrates (hypothesis).

* the columnar store and MeasurementSet answer the sorted-list
  interpolation oracle bit for bit;
* aggregate tables reproduce exact percentiles at their knots and stay
  monotone between them;
* measurement records and configs survive serialization round trips;
* percentile_of is monotone in the percentile.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.aggregation import _interpolate_sorted, percentile_of
from repro.core.config import IQBConfig, paper_config
from repro.core.metrics import Metric
from repro.measurements.aggregates import MetricAggregate
from repro.measurements.record import Measurement

finite = st.floats(
    min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(finite, min_size=1, max_size=200),
       p=st.floats(0.0, 100.0))
def test_percentile_within_data_range(values, p):
    result = percentile_of(values, p)
    assert min(values) <= result <= max(values)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(finite, min_size=2, max_size=100),
       p1=st.floats(0.0, 100.0), p2=st.floats(0.0, 100.0))
def test_percentile_monotone_in_percentile(values, p1, p2):
    lo, hi = sorted((p1, p2))
    assert percentile_of(values, lo) <= percentile_of(values, hi) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(finite, min_size=3, max_size=100),
    p_query=st.floats(0.0, 100.0),
)
def test_aggregate_table_monotone_and_bounded(values, p_query):
    knots = tuple(
        (p, percentile_of(values, p)) for p in (5.0, 25.0, 50.0, 75.0, 95.0)
    )
    aggregate = MetricAggregate(knots=knots, count=len(values))
    result = aggregate.quantile(p_query)
    assert knots[0][1] <= result <= knots[-1][1]
    # Exact at published knots.
    for p, v in knots:
        assert aggregate.quantile(p) == pytest.approx(v)


@settings(max_examples=50, deadline=None)
@given(
    region=st.text(min_size=1, max_size=10),
    source=st.text(min_size=1, max_size=10),
    timestamp=st.floats(0.0, 1e10, allow_nan=False),
    down=st.one_of(st.none(), st.floats(0.0, 1e5, allow_nan=False)),
    up=st.one_of(st.none(), st.floats(0.0, 1e5, allow_nan=False)),
    latency=st.one_of(st.none(), st.floats(0.001, 1e5, allow_nan=False)),
    loss=st.one_of(st.none(), st.floats(0.0, 1.0, allow_nan=False)),
)
def test_measurement_round_trip(region, source, timestamp, down, up, latency, loss):
    assume(any(v is not None for v in (down, up, latency, loss)))
    record = Measurement(
        region=region,
        source=source,
        timestamp=timestamp,
        download_mbps=down,
        upload_mbps=up,
        latency_ms=latency,
        packet_loss=loss,
    )
    assert Measurement.from_dict(record.to_dict()) == record


@settings(max_examples=20, deadline=None)
@given(
    percentile=st.floats(0.0, 100.0),
    weights=st.lists(st.integers(0, 5), min_size=24, max_size=24),
)
def test_config_round_trip_for_random_variants(percentile, weights):
    from repro.core.aggregation import AggregationPolicy
    from repro.core.usecases import UseCase
    from repro.core.weights import RequirementWeights

    matrix = {}
    index = 0
    for use_case in UseCase:
        row = weights[index : index + 4]
        if sum(row) == 0:
            row = [1] + list(row[1:])
        for metric, weight in zip(Metric.ordered(), row):
            matrix[(use_case, metric)] = weight
        index += 4
    config = paper_config().with_(
        aggregation=AggregationPolicy(percentile=percentile),
        requirement_weights=RequirementWeights(matrix),
    )
    rebuilt = IQBConfig.from_json(config.to_json())
    assert rebuilt.to_dict() == config.to_dict()
    assert rebuilt.aggregation.percentile == pytest.approx(percentile)


def sorted_list_quantile(values, p):
    """Oracle: interpolate a Python-sorted copy of ``values``."""
    return _interpolate_sorted(sorted(values), p)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(finite, min_size=1, max_size=120),
    p=st.floats(0.0, 100.0),
)
def test_columnar_store_quantiles_equal_exact_quantiles(values, p):
    """The columnar plane agrees with the sorted-list oracle bit-for-bit."""
    from repro.measurements.columnar import ColumnarStore

    records = [
        Measurement(
            region="r", source="ndt", timestamp=float(i), download_mbps=v
        )
        for i, v in enumerate(values)
    ]
    store = ColumnarStore(records)
    expected = sorted_list_quantile(values, p)
    assert store.quantile(Metric.DOWNLOAD, p) == expected
    assert store.view(region="r", source="ndt").quantile(
        Metric.DOWNLOAD, p
    ) == expected
    assert percentile_of(values, p) == expected


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(finite, min_size=1, max_size=120),
    p=st.floats(0.0, 100.0),
)
def test_measurement_set_cache_equals_exact_quantiles(values, p):
    """Memoized MeasurementSet.quantile answers equal the oracle."""
    from repro.measurements.collection import MeasurementSet

    records = MeasurementSet(
        Measurement(
            region="r", source="ndt", timestamp=float(i), download_mbps=v
        )
        for i, v in enumerate(values)
    )
    first = records.quantile(Metric.DOWNLOAD, p)
    assert first == sorted_list_quantile(values, p)
    # The memo must return the same answer on a repeat query.
    assert records.quantile(Metric.DOWNLOAD, p) == first
