"""Unit tests for repro.measurements.io (JSONL and CSV round trips)."""

import csv
import json

import numpy as np
import pytest

import repro.measurements.io as ingest
from repro.core.exceptions import SchemaError
from repro.measurements.collection import MeasurementSet
from repro.measurements.columnar import ColumnarStore
from repro.measurements.io import (
    CSV_FIELDS,
    IngestStats,
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
)
from repro.measurements.record import Measurement


@pytest.fixture()
def records():
    return MeasurementSet(
        [
            Measurement(
                region="r1",
                source="ndt",
                timestamp=1.5,
                download_mbps=50.25,
                upload_mbps=10.0,
                latency_ms=20.0,
                packet_loss=0.01,
                isp="ispA",
                access_tech="cable",
                meta={"streams": 1},
            ),
            Measurement(
                region="r2",
                source="ookla",
                timestamp=2.5,
                download_mbps=100.0,
                latency_ms=9.0,
            ),
        ]
    )


def numbered(count):
    """``count`` records over three regions and two sources, in time order."""
    return MeasurementSet(
        [
            Measurement(
                region=f"r{i % 3}",
                source=("ndt", "ookla")[i % 2],
                timestamp=float(i),
                download_mbps=100.0 + i,
                upload_mbps=20.0,
                latency_ms=15.0,
                packet_loss=0.002,
            )
            for i in range(count)
        ]
    )


class TestJsonl:
    def test_round_trip(self, records, tmp_path):
        path = tmp_path / "data.jsonl"
        assert write_jsonl(records, path) == 2
        loaded = read_jsonl(path)
        assert list(loaded) == list(records)

    def test_blank_lines_skipped(self, records, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(records, path)
        text = path.read_text()
        path.write_text("\n" + text + "\n\n")
        assert len(read_jsonl(path)) == 2

    def test_malformed_line_raises_with_location(self, records, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(records, path)
        with open(path, "a") as handle:
            handle.write("{not json}\n")
        with pytest.raises(SchemaError, match=":3"):
            read_jsonl(path)

    def test_malformed_line_skippable(self, records, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(records, path)
        with open(path, "a") as handle:
            handle.write("{not json}\n")
            handle.write('{"region": "r3"}\n')  # valid JSON, invalid record
        assert len(read_jsonl(path, on_error="skip")) == 2

    def test_on_error_validated(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="on_error"):
            read_jsonl(path, on_error="ignore")

    def test_empty_file_loads_empty_set(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        assert len(read_jsonl(path)) == 0


class TestCsv:
    def test_round_trip_drops_meta_only(self, records, tmp_path):
        path = tmp_path / "data.csv"
        assert write_csv(records, path) == 2
        loaded = read_csv(path)
        assert len(loaded) == 2
        first = loaded[0]
        assert first.region == "r1"
        assert first.download_mbps == 50.25
        assert first.timestamp == 1.5
        assert first.isp == "ispA"
        assert first.meta == {}  # meta is not representable in CSV

    def test_missing_metrics_stay_missing(self, records, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(records, path)
        loaded = read_csv(path)
        assert loaded[1].packet_loss is None
        assert loaded[1].upload_mbps is None

    def test_float_precision_preserved(self, tmp_path):
        precise = MeasurementSet(
            [
                Measurement(
                    region="r",
                    source="s",
                    timestamp=0.1 + 0.2,
                    download_mbps=1.0 / 3.0,
                )
            ]
        )
        path = tmp_path / "data.csv"
        write_csv(precise, path)
        loaded = read_csv(path)
        assert loaded[0].download_mbps == 1.0 / 3.0
        assert loaded[0].timestamp == 0.1 + 0.2

    def test_bad_row_raises_with_location(self, records, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(records, path)
        with open(path, "a") as handle:
            handle.write("r3,ndt,notanumber,1,,,,,\n")
        with pytest.raises(SchemaError, match=":4"):
            read_csv(path)

    def test_bad_row_skippable(self, records, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(records, path)
        with open(path, "a") as handle:
            handle.write("r3,ndt,notanumber,1,,,,,\n")
        assert len(read_csv(path, on_error="skip")) == 2

    def test_on_error_validated(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("region,source\n")
        with pytest.raises(ValueError, match="on_error"):
            read_csv(path, on_error="ignore")


class TestEdgeFiles:
    """Degenerate files, where off-by-one bugs in line handling live."""

    def test_zero_byte_jsonl(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        assert len(read_jsonl(path)) == 0

    def test_zero_byte_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        assert len(read_csv(path)) == 0

    def test_header_only_csv(self, records, tmp_path):
        path = tmp_path / "header.csv"
        write_csv(records, path)
        path.write_text(path.read_text().splitlines()[0] + "\n")
        assert len(read_csv(path)) == 0

    @pytest.mark.parametrize("count", [1, 2])
    def test_few_lines_jsonl(self, records, tmp_path, count):
        head = MeasurementSet(list(records)[:count])
        path = tmp_path / "few.jsonl"
        write_jsonl(head, path)
        assert list(read_jsonl(path)) == list(head)

    @pytest.mark.parametrize("count", [1, 2])
    def test_few_rows_csv(self, records, tmp_path, count):
        head = MeasurementSet(list(records)[:count])
        path = tmp_path / "few.csv"
        write_csv(head, path)
        assert [r.region for r in read_csv(path)] == [
            r.region for r in head
        ]

    # 25 lines in chunks of 2, 4 or 8: the unterminated last line is the
    # only line of the final decode chunk.
    @pytest.mark.parametrize("chunk_lines", [2, 4, 8])
    def test_no_trailing_newline_jsonl(
        self, tmp_path, monkeypatch, chunk_lines
    ):
        monkeypatch.setattr(ingest, "CHUNK_LINES", chunk_lines)
        records = numbered(25)
        path = tmp_path / "data.jsonl"
        write_jsonl(records, path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert list(read_jsonl(path)) == list(records)

    @pytest.mark.parametrize("chunk_lines", [2, 4, 8])
    def test_no_trailing_newline_csv(
        self, tmp_path, monkeypatch, chunk_lines
    ):
        monkeypatch.setattr(ingest, "CHUNK_LINES", chunk_lines)
        records = numbered(25)
        path = tmp_path / "data.csv"
        write_csv(records, path)
        path.write_bytes(path.read_bytes().rstrip(b"\r\n"))
        assert list(read_csv(path)) == list(records)

    @pytest.mark.parametrize("read", [read_jsonl, read_csv])
    def test_missing_file_raises_oserror(self, read, tmp_path):
        with pytest.raises(OSError):
            read(tmp_path / "missing")

    def test_csv_stats_updated_in_place(self, records, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(records, path)
        with open(path, "a") as handle:
            handle.write("r3,ndt,notanumber,1,,,,,\n")
        stats = IngestStats()
        loaded = read_csv(path, on_error="skip", stats=stats)
        assert len(loaded) == 2
        assert (stats.read, stats.skipped) == (2, 1)


class TestNonFiniteValues:
    """NaN and ±Infinity (JSON literals, CSV ``nan``/``inf``) are rejected.

    NaN is the columnar plane's missing-value sentinel, so an accepted
    NaN row would count differently in the exact and sketch planes.
    """

    GOOD = {
        "region": "r1",
        "source": "ndt",
        "timestamp": 1.0,
        "download_mbps": 40.0,
        "latency_ms": 20.0,
    }
    BAD = (
        ("download_mbps", float("nan"), "non-finite download_mbps"),
        ("latency_ms", float("inf"), "non-finite latency_ms"),
        ("upload_mbps", float("inf"), "non-finite upload_mbps"),
        ("timestamp", float("-inf"), "non-finite timestamp"),
    )

    def _documents(self):
        documents = [dict(self.GOOD)]
        for field, value, _ in self.BAD:
            documents.append({**self.GOOD, field: value})
            documents.append(dict(self.GOOD, download_mbps=60.0))
        return documents

    @staticmethod
    def _assert_planes_agree(records):
        """Exact and sketch planes count the 5 kept rows alike."""
        store = ColumnarStore(list(records))
        percentiles = (50.0, 50.0, 50.0, 50.0)
        exact = store.aggregate_cube(("ndt",), percentiles)
        sketch = store.sketch_plane().aggregate_cube(("ndt",), percentiles)
        assert np.array_equal(exact.counts, sketch.counts)
        assert exact.counts[0, 0].tolist() == [5, 0, 5, 0]
        assert not np.isnan(exact.aggregates[exact.counts > 0]).any()

    def test_jsonl_literals_skipped_or_raised(self, tmp_path):
        path = tmp_path / "data.jsonl"
        # json.dumps writes NaN / Infinity / -Infinity literals.
        path.write_text(
            "".join(json.dumps(doc) + "\n" for doc in self._documents())
        )
        stats = IngestStats()
        records = read_jsonl(path, on_error="skip", stats=stats)
        assert (stats.read, stats.skipped) == (5, 4)
        self._assert_planes_agree(records)
        with pytest.raises(SchemaError, match=":2: non-finite download_mbps"):
            read_jsonl(path)

    def test_csv_cells_skipped_or_raised(self, tmp_path):
        path = tmp_path / "data.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
            writer.writeheader()
            for doc in self._documents():
                # repr() writes the cells as nan / inf / -inf.
                writer.writerow(
                    {
                        key: repr(value) if isinstance(value, float) else value
                        for key, value in doc.items()
                    }
                )
        stats = IngestStats()
        records = read_csv(path, on_error="skip", stats=stats)
        assert (stats.read, stats.skipped) == (5, 4)
        self._assert_planes_agree(records)
        with pytest.raises(SchemaError, match=":3: non-finite download_mbps"):
            read_csv(path)

    @pytest.mark.parametrize("field, value, message", BAD)
    def test_record_names_the_field(self, field, value, message):
        with pytest.raises(SchemaError, match=message):
            Measurement.from_dict({**self.GOOD, field: value})
