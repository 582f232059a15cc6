"""Unit tests for repro.measurements.aggregates (Ookla-style tables)."""

import json

import pytest

from repro.core.exceptions import SchemaError
from repro.core.metrics import Metric
from repro.measurements.aggregates import (
    AggregateTable,
    MetricAggregate,
    aggregate_measurements,
)
from repro.measurements.collection import MeasurementSet
from repro.measurements.record import Measurement


def knots(*pairs):
    return tuple(pairs)


class TestMetricAggregate:
    def test_interpolation_between_knots(self):
        aggregate = MetricAggregate(
            knots=knots((25.0, 10.0), (75.0, 30.0)), count=100
        )
        assert aggregate.quantile(50.0) == pytest.approx(20.0)

    def test_exact_knot_lookup(self):
        aggregate = MetricAggregate(
            knots=knots((25.0, 10.0), (75.0, 30.0)), count=100
        )
        assert aggregate.quantile(25.0) == 10.0
        assert aggregate.quantile(75.0) == 30.0

    def test_clamping_beyond_published_range(self):
        aggregate = MetricAggregate(
            knots=knots((25.0, 10.0), (75.0, 30.0)), count=100
        )
        assert aggregate.quantile(5.0) == 10.0
        assert aggregate.quantile(99.0) == 30.0

    def test_single_knot(self):
        aggregate = MetricAggregate(knots=knots((95.0, 42.0)), count=10)
        assert aggregate.quantile(50.0) == 42.0
        assert aggregate.quantile(95.0) == 42.0

    def test_validation_rejects_unsorted_percentiles(self):
        with pytest.raises(SchemaError, match="sorted"):
            MetricAggregate(knots=knots((75.0, 30.0), (25.0, 10.0)), count=1)

    def test_validation_rejects_duplicates(self):
        with pytest.raises(SchemaError, match="duplicate"):
            MetricAggregate(knots=knots((25.0, 10.0), (25.0, 30.0)), count=1)

    def test_validation_rejects_decreasing_values(self):
        with pytest.raises(SchemaError, match="non-decreasing"):
            MetricAggregate(knots=knots((25.0, 30.0), (75.0, 10.0)), count=1)

    def test_validation_rejects_bad_counts_and_ranges(self):
        with pytest.raises(SchemaError, match="count"):
            MetricAggregate(knots=knots((50.0, 1.0)), count=0)
        with pytest.raises(SchemaError, match="percentile"):
            MetricAggregate(knots=knots((150.0, 1.0)), count=1)
        with pytest.raises(SchemaError, match="knot"):
            MetricAggregate(knots=(), count=1)


class TestAggregateTable:
    def make_table(self):
        return AggregateTable(
            region="r",
            source="ookla",
            metrics={
                Metric.DOWNLOAD: MetricAggregate(
                    knots=knots((5.0, 10.0), (50.0, 60.0), (95.0, 200.0)),
                    count=500,
                ),
                Metric.LATENCY: MetricAggregate(
                    knots=knots((50.0, 15.0), (95.0, 40.0)), count=500
                ),
            },
        )

    def test_quantile_source_protocol(self):
        table = self.make_table()
        assert table.quantile(Metric.DOWNLOAD, 50.0) == 60.0
        assert table.quantile(Metric.PACKET_LOSS, 95.0) is None
        assert table.sample_count(Metric.DOWNLOAD) == 500
        assert table.sample_count(Metric.PACKET_LOSS) == 0

    def test_metrics_listing_ordered(self):
        assert self.make_table().metrics() == (Metric.DOWNLOAD, Metric.LATENCY)

    def test_round_trip(self):
        table = self.make_table()
        rebuilt = AggregateTable.from_dict(table.to_dict())
        assert rebuilt.region == "r"
        for percentile in (5.0, 42.0, 95.0):
            assert rebuilt.quantile(
                Metric.DOWNLOAD, percentile
            ) == table.quantile(Metric.DOWNLOAD, percentile)

    def test_malformed_document_rejected(self):
        with pytest.raises(SchemaError, match="malformed"):
            AggregateTable.from_dict({"region": "r"})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_knot_rejected(self, literal):
        # JSON's non-standard literals parse to float NaN / ±inf.
        document = json.loads(
            '{"region": "r", "source": "ookla", "metrics": {"download_mbps":'
            ' {"count": 3, "knots": [[50, %s]]}}}' % literal
        )
        with pytest.raises(SchemaError) as caught:
            AggregateTable.from_dict(document)
        value = float(literal.lower().replace("infinity", "inf"))
        assert str(caught.value) == f"non-finite knot value at p50.0: {value}"

    def test_finite_document_loads_unchanged(self):
        document = json.loads(json.dumps(self.make_table().to_dict()))
        assert AggregateTable.from_dict(document).to_dict() == document

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError, match="no metrics"):
            AggregateTable(region="r", source="s", metrics={})


class TestAggregateMeasurements:
    def make_records(self):
        return MeasurementSet(
            Measurement(
                region="r",
                source="ookla",
                timestamp=float(i),
                download_mbps=float(i + 1),
                latency_ms=10.0 + i,
            )
            for i in range(100)
        )

    def test_publisher_reduction(self):
        table = aggregate_measurements(self.make_records(), "r", "ookla")
        assert table.region == "r"
        assert Metric.DOWNLOAD in dict.fromkeys(table.metrics())
        assert table.sample_count(Metric.DOWNLOAD) == 100

    def test_published_knots_match_exact_percentiles(self):
        records = self.make_records()
        table = aggregate_measurements(records, "r", "ookla")
        for percentile in (5.0, 50.0, 95.0):
            assert table.quantile(Metric.DOWNLOAD, percentile) == pytest.approx(
                records.quantile(Metric.DOWNLOAD, percentile)
            )

    def test_metric_subset_selection(self):
        table = aggregate_measurements(
            self.make_records(), "r", "ookla", metrics=(Metric.DOWNLOAD,)
        )
        assert table.metrics() == (Metric.DOWNLOAD,)

    def test_no_matching_records_rejected(self):
        with pytest.raises(SchemaError, match="no records"):
            aggregate_measurements(self.make_records(), "elsewhere", "ookla")
