"""Unit tests for repro.measurements.columnar (the scoring fast path)."""

import numpy as np
import pytest

from repro.core.metrics import Metric
from repro.measurements.collection import MeasurementSet
from repro.measurements.columnar import ColumnarStore
from repro.measurements.record import Measurement


def rec(region="r1", source="ndt", ts=0.0, isp="ispA", **metrics):
    metrics.setdefault("download_mbps", 50.0)
    return Measurement(
        region=region, source=source, timestamp=ts, isp=isp, **metrics
    )


@pytest.fixture()
def records():
    return [
        rec(region="r1", source="ndt", ts=10.0, download_mbps=10.0,
            latency_ms=30.0),
        rec(region="r1", source="ookla", ts=20.0, download_mbps=20.0),
        rec(region="r2", source="ndt", ts=30.0, download_mbps=30.0,
            isp="ispB"),
        rec(region="r2", source="cloudflare", ts=40.0, download_mbps=40.0,
            latency_ms=25.0),
        rec(region="r1", source="ndt", ts=50.0, download_mbps=15.0,
            upload_mbps=5.0),
    ]


@pytest.fixture()
def store(records):
    return ColumnarStore(records)


class TestConstruction:
    def test_len_and_repr(self, store):
        assert len(store) == 5
        assert "5 records" in repr(store)

    def test_from_measurements_accepts_a_set(self, records):
        store = ColumnarStore.from_measurements(MeasurementSet(records))
        assert len(store) == 5

    def test_records_round_trip(self, store, records):
        assert store.records() == tuple(records)

    def test_empty_store(self):
        store = ColumnarStore()
        assert len(store) == 0
        assert store.regions() == ()
        assert store.quantile(Metric.DOWNLOAD, 95.0) is None
        assert store.sample_count(Metric.DOWNLOAD) == 0


class TestColumns:
    def test_column_has_nan_for_missing(self, store):
        latency = store.column(Metric.LATENCY)
        assert latency.shape == (5,)
        assert np.isnan(latency[1])
        assert latency[0] == 30.0

    def test_column_is_cached(self, store):
        assert store.column(Metric.DOWNLOAD) is store.column(Metric.DOWNLOAD)


class TestIndexes:
    def test_axis_listings(self, store):
        assert store.regions() == ("r1", "r2")
        assert store.sources() == ("cloudflare", "ndt", "ookla")
        assert store.isps() == ("ispA", "ispB")

    def test_region_index_rows(self, store):
        index = store.index("region")
        assert index["r1"].tolist() == [0, 1, 4]
        assert index["r2"].tolist() == [2, 3]

    def test_unknown_axis_rejected(self, store):
        with pytest.raises(KeyError):
            store.index("city")


class TestViews:
    def test_whole_store_view(self, store):
        view = store.view()
        assert len(view) == 5
        assert view.sample_count(Metric.DOWNLOAD) == 5

    def test_single_axis_view_is_cached(self, store):
        assert store.view(region="r1") is store.view(region="r1")

    def test_view_values_in_record_order(self, store):
        view = store.view(region="r1")
        values = view.values(Metric.DOWNLOAD)
        assert isinstance(values, np.ndarray)
        assert values.tolist() == [10.0, 20.0, 15.0]
        assert view.value_list(Metric.DOWNLOAD) == [10.0, 20.0, 15.0]

    def test_intersection_view(self, store):
        view = store.view(region="r1", source="ndt")
        assert len(view) == 2
        assert view.value_list(Metric.DOWNLOAD) == [10.0, 15.0]

    def test_missing_group_is_empty(self, store):
        view = store.view(region="nowhere")
        assert len(view) == 0
        assert view.quantile(Metric.DOWNLOAD, 95.0) is None

    def test_quantile_none_when_metric_unobserved(self, store):
        assert store.view(region="r2").quantile(Metric.PACKET_LOSS, 95.0) is None

    def test_quantile_memoized(self, store):
        view = store.view(region="r1")
        first = view.quantile(Metric.DOWNLOAD, 95.0)
        assert view.quantile(Metric.DOWNLOAD, 95.0) == first
        assert (Metric.DOWNLOAD, 95.0) in view._quantiles


class TestSelect:
    def test_keys_reinterned_in_first_seen_order(self, store, records):
        picked = store.select(np.array([3, 2, 0], dtype=np.intp))
        assert len(picked) == 3
        assert picked.regions() == ("r1", "r2")
        assert picked.sources() == ("cloudflare", "ndt")
        assert list(picked.index("region")) == ["r2", "r1"]
        assert list(picked.index("source")) == ["cloudflare", "ndt"]
        assert picked.columns().keys["isp"] == ["ispA", "ispB"]
        assert picked.column(Metric.DOWNLOAD).tolist() == [40.0, 30.0, 10.0]
        assert list(picked.records()) == [records[3], records[2], records[0]]

    def test_records_built_for_the_parent_carry_over(self, store):
        built = store.records()
        picked = store.select(np.array([4, 1], dtype=np.intp))
        assert picked.records()[0] is built[4]
        assert picked.records()[1] is built[1]

    def test_empty_selection(self, store):
        picked = store.select(np.empty(0, dtype=np.intp))
        assert len(picked) == 0
        assert picked.regions() == ()
        assert picked.quantile(Metric.DOWNLOAD, 95.0) is None

    def test_parent_is_untouched(self, store, records):
        store.select(np.array([1], dtype=np.intp))
        assert store.regions() == ("r1", "r2")
        assert list(store.records()) == records


class TestEqualityWithRowPlane:
    """Columnar answers must be bit-identical to MeasurementSet's."""

    @pytest.mark.parametrize("percentile", [0.0, 5.0, 50.0, 95.0, 100.0])
    def test_group_quantiles_match(self, records, percentile):
        row_set = MeasurementSet(records)
        store = ColumnarStore(records)
        for region in row_set.regions():
            row_sources = row_set.for_region(region).group_by_source()
            col_sources = store.sources_by_region()[region]
            assert set(row_sources) == set(col_sources)
            for source in row_sources:
                for metric in Metric:
                    expected = row_sources[source].quantile(
                        metric, percentile
                    )
                    actual = col_sources[source].quantile(metric, percentile)
                    assert actual == expected
                    assert col_sources[source].sample_count(metric) == (
                        row_sources[source].sample_count(metric)
                    )

    def test_whole_store_matches_set(self, records):
        row_set = MeasurementSet(records)
        store = ColumnarStore(records)
        for metric in Metric:
            assert store.quantile(metric, 95.0) == row_set.quantile(
                metric, 95.0
            )


class TestSourcesByRegion:
    def test_shape(self, store):
        grouped = store.sources_by_region()
        assert set(grouped) == {"r1", "r2"}
        assert set(grouped["r1"]) == {"ndt", "ookla"}
        assert set(grouped["r2"]) == {"ndt", "cloudflare"}

    def test_views_are_shared_across_calls(self, store):
        first = store.sources_by_region()["r1"]["ndt"]
        second = store.sources_by_region()["r1"]["ndt"]
        assert first is second

    def test_returned_mapping_is_a_copy(self, store):
        grouped = store.sources_by_region()
        grouped["r1"].clear()
        assert store.sources_by_region()["r1"]
