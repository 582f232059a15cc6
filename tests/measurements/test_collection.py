"""Unit tests for repro.measurements.collection."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import _interpolate_sorted
from repro.core.metrics import Metric
from repro.measurements.collection import MeasurementSet
from repro.measurements.io import read_jsonl, write_jsonl
from repro.measurements.record import Measurement


def rec(region="r1", source="ndt", ts=0.0, isp="ispA", **metrics):
    metrics.setdefault("download_mbps", 50.0)
    return Measurement(
        region=region, source=source, timestamp=ts, isp=isp, **metrics
    )


@pytest.fixture()
def records():
    return MeasurementSet(
        [
            rec(region="r1", source="ndt", ts=10.0, download_mbps=10.0),
            rec(region="r1", source="ookla", ts=20.0, download_mbps=20.0),
            rec(region="r2", source="ndt", ts=30.0, download_mbps=30.0,
                isp="ispB"),
            rec(region="r2", source="cloudflare", ts=40.0, download_mbps=40.0,
                latency_ms=25.0),
        ]
    )


class TestContainer:
    def test_len_iter_getitem(self, records):
        assert len(records) == 4
        assert [r.timestamp for r in records] == [10.0, 20.0, 30.0, 40.0]
        assert records[0].download_mbps == 10.0

    def test_addition_concatenates(self, records):
        combined = records + records
        assert len(combined) == 8

    def test_empty_set(self):
        empty = MeasurementSet()
        assert len(empty) == 0
        assert empty.regions() == ()
        assert empty.quantile(Metric.DOWNLOAD, 95.0) is None

    def test_repr(self, records):
        assert "4 records" in repr(records)


class TestFiltering:
    def test_for_region(self, records):
        assert len(records.for_region("r1")) == 2
        assert len(records.for_region("missing")) == 0

    def test_for_source(self, records):
        assert len(records.for_source("ndt")) == 2

    def test_for_isp(self, records):
        assert len(records.for_isp("ispB")) == 1

    def test_between_is_half_open(self, records):
        window = records.between(10.0, 30.0)
        assert [r.timestamp for r in window] == [10.0, 20.0]

    def test_filter_predicate(self, records):
        fast = records.filter(lambda r: (r.download_mbps or 0) > 25.0)
        assert len(fast) == 2

    def test_filters_do_not_mutate_original(self, records):
        records.for_region("r1")
        assert len(records) == 4


class TestGrouping:
    def test_distinct_listings(self, records):
        assert records.regions() == ("r1", "r2")
        assert records.sources() == ("cloudflare", "ndt", "ookla")
        assert records.isps() == ("ispA", "ispB")

    def test_group_by_region(self, records):
        groups = records.group_by_region()
        assert set(groups) == {"r1", "r2"}
        assert len(groups["r1"]) == 2

    def test_group_by_source(self, records):
        groups = records.group_by_source()
        assert set(groups) == {"ndt", "ookla", "cloudflare"}
        assert len(groups["ndt"]) == 2


class TestQuantileSource:
    def test_values_skip_missing(self, records):
        assert records.values(Metric.LATENCY) == [25.0]

    def test_quantile(self, records):
        assert records.quantile(Metric.DOWNLOAD, 50.0) == 25.0

    def test_quantile_none_when_unobserved(self, records):
        assert records.quantile(Metric.PACKET_LOSS, 95.0) is None

    def test_sample_count(self, records):
        assert records.sample_count(Metric.DOWNLOAD) == 4
        assert records.sample_count(Metric.LATENCY) == 1


class TestSummaries:
    def test_mean_median(self, records):
        assert records.mean(Metric.DOWNLOAD) == 25.0
        assert records.median(Metric.DOWNLOAD) == 25.0
        assert records.mean(Metric.PACKET_LOSS) is None

    def test_summary_digest(self, records):
        digest = records.summary()
        assert digest["download_mbps"]["count"] == 4.0
        assert "packet_loss" not in digest
        assert digest["latency_ms"]["p95"] == 25.0


class TestOneStore:
    def test_set_is_immutable(self, records):
        assert not hasattr(records, "add")
        assert not hasattr(records, "extend")

    def test_queries_read_one_store_built_once(self, records):
        store = records.columnar()
        assert store is records.columnar()
        assert list(store.records()) == list(records)
        records.quantile(Metric.DOWNLOAD, 95.0)
        assert records.columnar() is store

    def test_subsets_are_stores_of_their_rows(self, records):
        subset = records.for_region("r2")
        assert len(subset.columnar()) == 2
        assert subset.sources() == ("cloudflare", "ndt")
        assert subset.for_isp("ispB").values(Metric.DOWNLOAD) == [30.0]

    def test_a_set_keeps_its_rows_after_its_store_grows(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(
            MeasurementSet([rec(ts=1.0, download_mbps=10.0)]), path
        )
        loaded = read_jsonl(path)
        loaded.columnar().append([rec(ts=2.0, download_mbps=20.0)])
        store = loaded.columnar()
        assert len(store) == len(loaded) == 1
        assert loaded.values(Metric.DOWNLOAD) == [10.0]
        assert [r.timestamp for r in loaded] == [1.0]


class TestMutationInvalidation:
    """__add__ must never serve stale cached answers."""

    def test_dunder_add_result_sees_both_sides(self, records):
        other = MeasurementSet(
            [rec(region="r9", source="ndt", ts=1.0, download_mbps=90.0)]
        )
        records.quantile(Metric.DOWNLOAD, 50.0)  # warm the cache
        combined = records + other
        assert combined.quantile(Metric.DOWNLOAD, 100.0) == 90.0
        assert combined.regions() == ("r1", "r2", "r9")


class TestSharedFastPaths:
    def test_add_empty_right_shares_records(self, records):
        combined = records + MeasurementSet()
        assert combined._records is records._records
        assert len(combined) == 4

    def test_add_empty_left_shares_records(self, records):
        combined = MeasurementSet() + records
        assert combined._records is records._records

    def test_filter_on_empty_returns_self(self):
        empty = MeasurementSet()
        assert empty.filter(lambda r: True) is empty

    def test_filter_matching_everything_shares_records(self, records):
        everything = records.filter(lambda r: True)
        assert everything._records is records._records

    def test_group_subsets_are_cached(self, records):
        assert records.for_region("r1") is records.for_region("r1")
        assert records.for_source("ndt") is records.for_source("ndt")
        assert records.for_isp("ispA") is records.for_isp("ispA")


# -- differential: record-built and file-read sets vs a per-record oracle -----

_METRIC_VALUES = st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.0, 7.25, 30.0]))


@st.composite
def _records(draw):
    out = []
    for i in range(draw(st.integers(0, 30))):
        values = draw(st.tuples(*[_METRIC_VALUES] * 4))
        if all(value is None for value in values):
            values = (1.0,) + values[1:]
        download, upload, latency, loss = values
        out.append(
            Measurement(
                region=draw(st.sampled_from(["r2", "r1", "r3"])),
                source=draw(st.sampled_from(["ookla", "ndt", "cloudflare"])),
                timestamp=draw(st.sampled_from([0.0, 5.0, 10.0, 15.5, 20.0])),
                download_mbps=download,
                upload_mbps=upload,
                latency_ms=latency,
                packet_loss=None if loss is None else loss / 100.0,
                isp=draw(st.sampled_from(["", "ispA", "ispB"])),
                access_tech=draw(st.sampled_from(["", "fiber"])),
                meta={"i": i} if i % 3 == 0 else {},
            )
        )
    return out


def _oracle_values(records, metric):
    return [
        getattr(r, metric.field_name)
        for r in records
        if getattr(r, metric.field_name) is not None
    ]


def _oracle_quantile(records, metric, percentile):
    values = _oracle_values(records, metric)
    if not values:
        return None
    return _interpolate_sorted(sorted(values), percentile)


def _oracle_groups(records, axis):
    groups = {}
    for record in records:
        groups.setdefault(getattr(record, axis), []).append(record)
    return groups


def _assert_matches(subset, records):
    """Every read of ``subset`` equals the per-record oracle."""
    assert len(subset) == len(records)
    assert list(subset) == records
    assert subset.regions() == tuple(sorted({r.region for r in records}))
    assert subset.sources() == tuple(sorted({r.source for r in records}))
    assert subset.isps() == tuple(sorted({r.isp for r in records} - {""}))
    store = subset.columnar()
    assert len(store) == len(records)
    assert list(store.records()) == records
    digest = {}
    for metric in Metric:
        values = _oracle_values(records, metric)
        assert subset.values(metric) == values
        assert subset.sample_count(metric) == len(values)
        for percentile in (0.0, 5.0, 50.0, 95.0, 100.0):
            assert subset.quantile(metric, percentile) == _oracle_quantile(
                records, metric, percentile
            )
        if values:
            digest[metric.value] = {
                "count": float(len(values)),
                "mean": sum(values) / len(values),
                "median": _oracle_quantile(records, metric, 50.0),
                "p95": _oracle_quantile(records, metric, 95.0),
            }
    assert subset.summary() == digest


class TestStoreReadsEqualRecordOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        records=_records(),
        window=st.tuples(
            st.sampled_from([0.0, 5.0, 12.0, 15.5]),
            st.sampled_from([5.0, 15.5, 20.0, 99.0]),
        ),
    )
    def test_record_built_and_file_read_sets(self, records, window):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.jsonl"
            write_jsonl(MeasurementSet(records), path)
            loaded = read_jsonl(path)
        for whole in (MeasurementSet(records), loaded):
            _assert_matches(whole, records)
            for axis, groups in (
                ("region", whole.group_by_region()),
                ("source", whole.group_by_source()),
            ):
                expected = _oracle_groups(records, axis)
                assert list(groups) == list(expected)
                for key, subset in groups.items():
                    _assert_matches(subset, expected[key])
                    assert list(subset.group_by_source()) == list(
                        _oracle_groups(expected[key], "source")
                    )
            for region, in_region in _oracle_groups(records, "region").items():
                for source, cell in _oracle_groups(in_region, "source").items():
                    _assert_matches(
                        whole.for_region(region).for_source(source), cell
                    )
            _assert_matches(whole.for_region("absent"), [])
            _assert_matches(
                whole.for_isp(""), [r for r in records if r.isp == ""]
            )
            _assert_matches(
                whole.for_isp("ispB"), [r for r in records if r.isp == "ispB"]
            )
            start, end = window
            _assert_matches(
                whole.between(start, end),
                [r for r in records if start <= r.timestamp < end],
            )
