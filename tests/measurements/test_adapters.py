"""Unit tests for repro.measurements.adapters (real dataset shapes)."""

import pytest

from repro.core.exceptions import SchemaError
from repro.core.metrics import Metric
from repro.measurements.adapters import (
    cloudflare_row_to_measurement,
    flatten_nested,
    ingest_cloudflare,
    ingest_ndt,
    ndt_row_to_measurement,
    ookla_tiles_to_aggregate,
)


def ndt_row(**overrides):
    row = {
        "direction": "download",
        "a.MeanThroughputMbps": 87.3,
        "a.MinRTT": 12.4,
        "a.LossRate": 0.004,
        "client.Geo.Region": "metroland",
        "client.Network.ASName": "ExampleNet",
        "test_time": 1700000000.0,
        "id": "ndt-xyz",
    }
    row.update(overrides)
    return row


def cloudflare_row(**overrides):
    row = {
        "region": "metroland",
        "timestamp": 1700000100.0,
        "download_mbps": 212.0,
        "upload_mbps": 24.0,
        "latency_ms": 18.0,
        "packet_loss_pct": 0.4,
        "asn_name": "ExampleNet",
    }
    row.update(overrides)
    return row


class TestNdtAdapter:
    def test_download_row(self):
        record = ndt_row_to_measurement(ndt_row())
        assert record.source == "ndt"
        assert record.region == "metroland"
        assert record.download_mbps == 87.3
        assert record.upload_mbps is None
        assert record.latency_ms == 12.4
        assert record.packet_loss == 0.004
        assert record.isp == "ExampleNet"
        assert record.meta == {"uuid": "ndt-xyz"}

    def test_upload_row(self):
        record = ndt_row_to_measurement(ndt_row(direction="upload"))
        assert record.upload_mbps == 87.3
        assert record.download_mbps is None

    def test_unknown_direction(self):
        with pytest.raises(SchemaError, match="direction"):
            ndt_row_to_measurement(ndt_row(direction="sideways"))

    def test_missing_field_named(self):
        row = ndt_row()
        del row["a.MinRTT"]
        with pytest.raises(SchemaError, match="a.MinRTT"):
            ndt_row_to_measurement(row)

    def test_loss_rate_clamped(self):
        record = ndt_row_to_measurement(ndt_row(**{"a.LossRate": 1.7}))
        assert record.packet_loss == 1.0

    def test_non_numeric_field(self):
        with pytest.raises(SchemaError, match="not numeric"):
            ndt_row_to_measurement(ndt_row(**{"a.MinRTT": "fast"}))

    def test_bulk_ingest(self):
        records = ingest_ndt([ndt_row(), ndt_row(direction="upload")])
        assert len(records) == 2
        assert records.sources() == ("ndt",)


class TestCloudflareAdapter:
    def test_row_conversion(self):
        record = cloudflare_row_to_measurement(cloudflare_row())
        assert record.source == "cloudflare"
        assert record.packet_loss == pytest.approx(0.004)
        assert record.download_mbps == 212.0

    def test_percent_bounds_checked(self):
        with pytest.raises(SchemaError, match="out of range"):
            cloudflare_row_to_measurement(
                cloudflare_row(packet_loss_pct=250.0)
            )

    def test_bulk_ingest(self):
        records = ingest_cloudflare([cloudflare_row(), cloudflare_row()])
        assert len(records) == 2


class TestOoklaTiles:
    def tiles(self):
        return [
            {"avg_d_kbps": 100_000, "avg_u_kbps": 10_000, "avg_lat_ms": 15,
             "tests": 10},
            {"avg_d_kbps": 300_000, "avg_u_kbps": 30_000, "avg_lat_ms": 10,
             "tests": 30},
            {"avg_d_kbps": 20_000, "avg_u_kbps": 2_000, "avg_lat_ms": 40,
             "tests": 5},
        ]

    def test_units_converted_to_mbps(self):
        table = ookla_tiles_to_aggregate(self.tiles(), region="metroland")
        assert table.quantile(Metric.DOWNLOAD, 50.0) == pytest.approx(300.0)
        assert table.quantile(Metric.UPLOAD, 95.0) <= 30.0

    def test_test_count_weighting(self):
        # 30 of 45 tests sit on the 300 Mb/s tile: the median is there.
        table = ookla_tiles_to_aggregate(self.tiles(), region="metroland")
        assert table.sample_count(Metric.DOWNLOAD) == 45
        assert table.quantile(Metric.DOWNLOAD, 50.0) == pytest.approx(300.0)

    def test_no_loss_published(self):
        table = ookla_tiles_to_aggregate(self.tiles(), region="metroland")
        assert table.quantile(Metric.PACKET_LOSS, 95.0) is None

    def test_scoreable_alongside_raw_sources(self, config):
        from repro.core import score_region
        from repro.core.aggregation import SequenceSource

        table = ookla_tiles_to_aggregate(self.tiles(), region="metroland")
        raw = SequenceSource(
            download_mbps=[200.0] * 10,
            upload_mbps=[50.0] * 10,
            latency_ms=[12.0] * 10,
            packet_loss=[0.001] * 10,
        )
        breakdown = score_region(
            {"ookla": table, "ndt": raw, "cloudflare": raw}, config
        )
        assert 0.0 <= breakdown.value <= 1.0

    @pytest.mark.parametrize(
        "field", ["avg_d_kbps", "avg_u_kbps", "avg_lat_ms", "tests"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        # One bad tile among finite ones used to garble the sorted knots.
        tiles = self.tiles()
        tiles[1] = dict(tiles[1], **{field: value})
        with pytest.raises(SchemaError) as caught:
            ookla_tiles_to_aggregate(tiles, region="metroland")
        assert str(caught.value) == (
            f"ookla: non-finite {field}: {float(value)}"
        )

    def test_finite_tiles_publish_unchanged_knots(self):
        table = ookla_tiles_to_aggregate(self.tiles(), region="metroland")
        assert table.to_dict()["metrics"] == {
            "download_mbps": {
                "count": 45,
                "knots": [[5.0, 20.0], [25.0, 100.0], [50.0, 300.0],
                          [75.0, 300.0], [95.0, 300.0]],
            },
            "upload_mbps": {
                "count": 45,
                "knots": [[5.0, 2.0], [25.0, 10.0], [50.0, 30.0],
                          [75.0, 30.0], [95.0, 30.0]],
            },
            "latency_ms": {
                "count": 45,
                "knots": [[5.0, 10.0], [25.0, 10.0], [50.0, 10.0],
                          [75.0, 15.0], [95.0, 40.0]],
            },
        }

    def test_validation(self):
        with pytest.raises(SchemaError, match="no tile rows"):
            ookla_tiles_to_aggregate([], region="x")
        with pytest.raises(SchemaError, match="non-positive tests"):
            ookla_tiles_to_aggregate(
                [{"avg_d_kbps": 1, "avg_u_kbps": 1, "avg_lat_ms": 1,
                  "tests": 0}],
                region="x",
            )


class TestFlatten:
    def test_nested_to_dotted(self):
        nested = {
            "a": {"MinRTT": 12, "LossRate": 0.01},
            "client": {"Geo": {"Region": "r"}},
            "id": "x",
        }
        flat = flatten_nested(nested)
        assert flat == {
            "a.MinRTT": 12,
            "a.LossRate": 0.01,
            "client.Geo.Region": "r",
            "id": "x",
        }

    def test_round_trip_into_adapter(self):
        nested = {
            "direction": "download",
            "a": {"MeanThroughputMbps": 50.0, "MinRTT": 9.0, "LossRate": 0.0},
            "client": {"Geo": {"Region": "r"}, "Network": {"ASName": "A"}},
            "test_time": 1.0,
        }
        record = ndt_row_to_measurement(flatten_nested(nested))
        assert record.region == "r"
        assert record.download_mbps == 50.0
