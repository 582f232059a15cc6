"""Differential ingest corpus: every reader against a per-line oracle.

The oracle below is the reader as it is defined, one line at a time:
``json.loads`` plus ``Measurement.from_dict`` per JSONL line (per
``csv.DictReader`` row, empty cells dropped, for CSV), with the
skip/raise handling, ``path:line`` wrapping, :class:`IngestStats` and
``ingest.*`` counter increments of the production readers. Whatever
``read_jsonl``, ``read_csv`` and the ``serve --follow`` follower do
internally, they must accept and reject exactly what the oracle does,
with the same error text, and a store built from what they read must
equal a store built from the oracle's records bit for bit.
"""

import csv
import io
import json
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.measurements.io as ingest
from repro.cli import _follow_jsonl
from repro.core.config import paper_config
from repro.core.exceptions import DataError, SchemaError
from repro.core.metrics import Metric
from repro.core.scoring import score_regions
from repro.measurements.columnar import AXES, ColumnarStore
from repro.measurements.io import (
    CSV_FIELDS,
    IngestStats,
    decode_jsonl,
    read_csv,
    read_jsonl,
)
from repro.measurements.record import Measurement
from repro.obs import REGISTRY
from repro.serve import ScoringService

CONFIG = paper_config()

#: Two percentile vectors (one per metric, Metric.ordered()).
PERCENTILES = ((50.0, 50.0, 50.0, 50.0), (5.0, 95.0, 99.0, 25.0))

COUNTERS = (
    "ingest.jsonl.lines",
    "ingest.jsonl.skipped",
    "ingest.csv.rows",
    "ingest.csv.skipped",
)

_DROP = object()

GOOD = {
    "region": "r1",
    "source": "ndt",
    "timestamp": 1.5,
    "download_mbps": 40.25,
    "upload_mbps": 9.5,
    "latency_ms": 20.0,
    "packet_loss": 0.01,
    "isp": "ispA",
    "access_tech": "fiber",
    "meta": {"streams": 1, "methodology": "single-stream-tcp"},
}


def doc(**changes):
    out = dict(GOOD)
    for key, value in changes.items():
        if value is _DROP:
            out.pop(key, None)
        else:
            out[key] = value
    return out


def line(document):
    return json.dumps(document)


NO_METRICS = dict.fromkeys(
    ("download_mbps", "upload_mbps", "latency_ms", "packet_loss"), _DROP
)

#: name → one JSONL line (text, no newline). Valid and malformed rows
#: alike; which is which is for the oracle to say.
CASES = {
    "valid": line(GOOD),
    "ints_everywhere": line(
        doc(timestamp=3, download_mbps=100, upload_mbps=0, latency_ms=7,
            packet_loss=0)
    ),
    "big_exact_int": line(doc(download_mbps=2**60, timestamp=2**53 + 1)),
    "negative_zero": line(doc(download_mbps=-0.0, packet_loss=-0.0)),
    "only_latency": line(doc(**{**NO_METRICS, "latency_ms": 12.0})),
    "extra_keys": line(doc(extra="x", nested={"a": [1, 2]})),
    "no_optional_fields": line(doc(isp=_DROP, access_tech=_DROP, meta=_DROP)),
    "missing_region": line(doc(region=_DROP)),
    "empty_region": line(doc(region="")),
    "missing_source": line(doc(source=_DROP)),
    "empty_source": line(doc(source="")),
    "numeric_region": line(doc(region=5)),
    "null_region": line(doc(region=None)),
    "list_source": line(doc(source=["ndt"])),
    "all_metrics_null": line(
        doc(download_mbps=None, upload_mbps=None, latency_ms=None,
            packet_loss=None)
    ),
    "no_metrics": line(doc(**NO_METRICS)),
    "negative_download": line(doc(download_mbps=-1.0)),
    "negative_upload": line(doc(upload_mbps=-0.5)),
    "zero_latency": line(doc(latency_ms=0.0)),
    "negative_latency": line(doc(latency_ms=-3)),
    "loss_above_one": line(doc(packet_loss=1.5)),
    "loss_below_zero": line(doc(packet_loss=-0.01)),
    "numeric_string_metric": line(doc(download_mbps="12.5")),
    "numeric_string_timestamp": line(doc(timestamp=" 17 ")),
    "word_string_metric": line(doc(upload_mbps="fast")),
    "true_metric": line(doc(download_mbps=True)),
    "false_loss": line(doc(packet_loss=False)),
    "bool_timestamp": line(doc(timestamp=True)),
    "list_metric": line(doc(latency_ms=[1])),
    "dict_metric": line(doc(packet_loss={"a": 1})),
    "huge_int_metric": line(doc(download_mbps=10**400)),
    "huge_int_timestamp": line(doc(timestamp=-(10**400))),
    "nan_literal": line(doc(download_mbps=float("nan"))),
    "infinity_literal": line(doc(latency_ms=float("inf"))),
    "negative_infinity_timestamp": line(doc(timestamp=float("-inf"))),
    "nan_string": line(doc(upload_mbps="nan")),
    "inf_string": line(doc(latency_ms="inf")),
    "missing_timestamp": line(doc(timestamp=_DROP)),
    "null_timestamp": line(doc(timestamp=None)),
    "null_isp": line(doc(isp=None)),
    "numeric_isp": line(doc(isp=7)),
    "null_access_tech": line(doc(access_tech=None)),
    "meta_pair_list": line(doc(meta=[["streams", 4]])),
    "meta_float_twin": line(
        doc(meta={"streams": 1.0, "methodology": "single-stream-tcp"})
    ),
    "meta_string": line(doc(meta="ab")),
    "meta_empty_string": line(doc(meta="")),
    "meta_null": line(doc(meta=None)),
    "meta_number": line(doc(meta=3)),
    "json_array": "[1, 2]",
    "json_string": '"r1"',
    "json_number": "5",
    "json_null": "null",
    "broken_json": '{"region": "r1", "source"',
    "trailing_garbage": line(GOOD) + " x",
    "two_documents": line(GOOD) + " " + line(GOOD),
    "padded": "  \t" + line(doc(region="padded")) + " \t ",
    "unicode_padded": "\u00a0" + line(doc(region="nbsp")) + "\u3000",
    "unicode_values": line(doc(region="Zürich", isp="Telefónica")),
    "lone_cr_between_documents": line(GOOD) + "\r" + line(doc(region="cr")),
    "int_past_digit_limit": line(doc(download_mbps=1)).replace(
        '"download_mbps": 1', '"download_mbps": ' + "7" * 5000
    ),
    "deep_nesting": line(doc(meta=None)).replace(
        '"meta": null', '"meta": ' + "[" * 100000 + "]" * 100000
    ),
}

#: Lines that are not valid UTF-8 (bytes, no newline).
RAW_CASES = {
    "invalid_utf8_region": line(doc(region="r-X")).encode().replace(b"-X", b"\xff"),
    "invalid_utf8_after_document": line(GOOD).encode() + b" \xc3",
    "truncated_multibyte": line(doc(isp="caf\u00e9")).encode().replace(
        b"\xc3\xa9", b"\xc3"
    ),
    "overlong_slash": b"\xc0\xaf" + line(GOOD).encode(),
    "encoded_surrogate": line(doc(source="nd-X")).encode().replace(
        b"-X", b"\xed\xa0\x80"
    ),
}

ALL_CASES = {
    **{name: text.encode("utf-8") for name, text in CASES.items()},
    **RAW_CASES,
}


def good(i):
    """A valid line that differs from its neighbours."""
    return line(
        doc(
            region=("r1", "r2", "r3")[i % 3],
            source=("ndt", "ookla", "cloudflare")[i % 3],
            timestamp=float(i),
            download_mbps=10.0 + i * 0.37,
            latency_ms=5.0 + (i % 7),
            isp=("ispA", "", "ispB")[i % 3],
        )
    )


# -- the oracle ---------------------------------------------------------------


def _text_lines(data):
    """Lines as a text-mode reader splits them (universal newlines)."""
    return io.TextIOWrapper(
        io.BytesIO(data), encoding="latin-1", newline=None
    ).readlines()


def oracle_jsonl(data, path, on_error):
    """(records, read, skipped, error) of reading ``data`` line by line."""
    records, skipped, error = [], 0, None
    for lineno, raw in enumerate(_text_lines(data), start=1):
        try:
            text = raw.encode("latin-1").decode("utf-8")
        except UnicodeDecodeError as exc:
            problem = SchemaError(f"not valid UTF-8: {exc}")
        else:
            text = text.strip()
            if not text:
                continue
            try:
                records.append(Measurement.from_dict(json.loads(text)))
                continue
            except (ValueError, RecursionError, SchemaError) as exc:
                problem = exc
        if on_error == "skip":
            skipped += 1
            continue
        error = ("SchemaError", f"{path}:{lineno}: {problem}")
        break
    return records, len(records), skipped, error


def oracle_csv(data, path, on_error):
    """(records, read, skipped, error) of reading CSV ``data`` row by row.

    Cells are split from the bytes (latin-1 keeps one char per byte)
    and each decoded as UTF-8 on its own.
    """
    records, skipped, error = [], 0, None
    text = data.decode("latin-1")
    reader = csv.DictReader(io.StringIO(text, newline=""))
    for lineno, row in enumerate(reader, start=2):
        try:
            document = {
                key.encode("latin-1").decode("utf-8"): value.encode(
                    "latin-1"
                ).decode("utf-8")
                for key, value in row.items()
                if value not in ("", None) and isinstance(value, str)
            }
        except UnicodeDecodeError as exc:
            problem = SchemaError(f"not valid UTF-8: {exc}")
        else:
            try:
                records.append(Measurement.from_dict(document))
                continue
            except SchemaError as exc:
                problem = exc
        if on_error == "skip":
            skipped += 1
            continue
        error = ("SchemaError", f"{path}:{lineno}: {problem}")
        break
    return records, len(records), skipped, error


def oracle(reader, data, path, on_error):
    """The oracle's outcome, or the exception it lets escape."""
    try:
        return reader(data, path, on_error)
    except Exception as exc:  # noqa: BLE001 - escaping errors must match too
        return None, None, None, (type(exc).__name__, str(exc))


# -- running the readers ------------------------------------------------------


def _counters():
    return {name: REGISTRY.counter(name).value for name in COUNTERS}


def run_reader(read, path, on_error):
    """(records, stats, counter deltas, error) of one production read."""
    stats = IngestStats()
    before = _counters()
    try:
        records = list(read(path, on_error=on_error, stats=stats))
    except Exception as exc:  # noqa: BLE001 - compared against the oracle
        records, error = None, (type(exc).__name__, str(exc))
    else:
        error = None
    after = _counters()
    deltas = {name: after[name] - before[name] for name in COUNTERS}
    return records, stats, deltas, error


def row_key(record):
    """Exact, order-sensitive text of one record (floats as hex)."""

    def exact(value):
        return None if value is None else float(value).hex()

    return (
        record.region,
        record.source,
        exact(record.timestamp),
        *(exact(record.value(metric)) for metric in Metric.ordered()),
        record.isp,
        record.access_tech,
        repr(record.meta),
    )


def assert_matches_oracle(read, oracle_reader, data, path, kind):
    for on_error in ("skip", "raise"):
        expected = oracle(oracle_reader, data, str(path), on_error)
        want_records, want_read, want_skipped, want_error = expected
        records, stats, deltas, error = run_reader(read, path, on_error)
        assert error == want_error, (on_error, error, want_error)
        if want_error is not None and want_read is None:
            continue  # an escaping exception: nothing else to compare
        assert (stats.read, stats.skipped) == (want_read, want_skipped)
        read_name, skipped_name = (
            ("ingest.jsonl.lines", "ingest.jsonl.skipped")
            if kind == "jsonl"
            else ("ingest.csv.rows", "ingest.csv.skipped")
        )
        assert deltas == {
            name: want_read
            if name == read_name
            else want_skipped
            if name == skipped_name
            else 0
            for name in COUNTERS
        }
        if error is None:
            assert [row_key(r) for r in records] == [
                row_key(r) for r in want_records
            ]
            assert records == want_records


# -- store equality -----------------------------------------------------------


def bits(array):
    return np.asarray(array, dtype=np.float64).view(np.uint64)


def scored(store):
    try:
        return json.dumps(
            {
                region: breakdown.to_dict()
                for region, breakdown in score_regions(store, CONFIG).items()
            },
            sort_keys=True,
        )
    except DataError as exc:
        return repr(exc)


def assert_same_store(read_back, records):
    """A store built from what was read equals one built from ``records``."""
    store = ColumnarStore.from_measurements(read_back)
    cold = ColumnarStore(list(records))
    assert len(store) == len(cold)
    assert [row_key(r) for r in store.records()] == [
        row_key(r) for r in cold.records()
    ]
    assert store.regions() == cold.regions()
    assert store.sources() == cold.sources()
    assert store.isps() == cold.isps()
    for metric in Metric.ordered():
        assert np.array_equal(
            bits(store.column(metric)), bits(cold.column(metric))
        )
    for axis in AXES:
        got, want = store.index(axis), cold.index(axis)
        assert list(got) == list(want)
        for key, rows in want.items():
            assert np.array_equal(got[key], rows)
            assert got[key].dtype == rows.dtype
    if not len(cold):
        return
    store.sources_by_region()
    cold.sources_by_region()
    assert store._pair_keys == cold._pair_keys
    for metric in Metric.ordered():
        got, want = store._pair_plane(metric), cold._pair_plane(metric)
        assert np.array_equal(bits(got.values), bits(want.values))
        assert np.array_equal(got.starts, want.starts)
        assert np.array_equal(got.counts, want.counts)
    datasets = cold.sources() + ("absent",)
    for percentiles in PERCENTILES:
        got = store.aggregate_cube(datasets, percentiles)
        want = cold.aggregate_cube(datasets, percentiles)
        assert got.regions == want.regions
        assert np.array_equal(bits(got.aggregates), bits(want.aggregates))
        assert np.array_equal(got.counts, want.counts)
    assert scored(store) == scored(cold)


# -- CSV rendering of the same rows ------------------------------------------


def csv_bytes(lines):
    """The JSON object lines as CSV rows (other lines have no CSV form).

    Lines are text decoded with surrogateescape, so undecodable bytes
    in a JSON string reach the CSV cell unchanged.
    """
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(CSV_FIELDS)
    for text in lines:
        try:
            document = json.loads(text)
        except (ValueError, RecursionError):
            continue
        if not isinstance(document, dict):
            continue
        writer.writerow(
            [
                ""
                if document.get(field) is None
                else repr(document[field])
                if isinstance(document[field], float)
                else str(document[field])
                for field in CSV_FIELDS
            ]
        )
    return out.getvalue().encode("utf-8", "surrogateescape")


# -- the follower -------------------------------------------------------------


def _counter(name):
    return REGISTRY.counter(name).value


def _wait_for(condition, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"follower: {what}"
        time.sleep(0.01)


def follow(data, directory):
    """Records and skip count of ``serve --follow`` tailing ``data``.

    A sentinel line goes first, so the corpus is appended only once the
    follower is known to be tailing the file.
    """
    path = Path(directory) / "follow.jsonl"
    path.write_bytes(b"")
    store = ColumnarStore()
    service = ScoringService(store, CONFIG)
    stop = threading.Event()
    records0 = _counter("serve.follow.records")
    skipped0 = _counter("serve.follow.skipped")
    thread = threading.Thread(
        target=_follow_jsonl,
        args=(str(path), service, stop, 0.005, "skip"),
        daemon=True,
    )
    thread.start()
    try:
        time.sleep(0.1)
        with open(path, "ab") as handle:
            handle.write((line(doc(region="sentinel")) + "\n").encode())
        _wait_for(
            lambda: _counter("serve.follow.records") - records0 >= 1,
            "sentinel never ingested",
        )
        expected = oracle_jsonl(data, str(path), "skip")
        with open(path, "ab") as handle:
            handle.write(data)
        _wait_for(
            lambda: _counter("serve.follow.records") - records0
            >= 1 + expected[1]
            and _counter("serve.follow.skipped") - skipped0 >= expected[2],
            "corpus never fully consumed",
        )
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    return (
        list(store.records())[1:],
        _counter("serve.follow.skipped") - skipped0,
        expected,
    )


def follower_decode(path, on_error, stats):
    """The follower's decoder over ``path``, fed as the follower feeds it."""
    lines = io.StringIO(
        path.read_bytes().decode("utf-8", "surrogateescape"), newline=None
    ).readlines()
    batch = decode_jsonl(lines, path, on_error=on_error, stats=stats)
    return ColumnarStore(batch).records()


def assert_follower_matches(data):
    complete = data[: data.rfind(b"\n") + 1]  # a torn tail is not a line yet
    with tempfile.TemporaryDirectory() as directory:
        records, skipped, expected = follow(complete, directory)
    assert skipped == expected[2]
    assert [row_key(r) for r in records] == [row_key(r) for r in expected[0]]


# -- the corpus ---------------------------------------------------------------


def case_file(name):
    """One malformed (or odd) line between valid ones."""
    return b"".join(
        text + b"\n"
        for text in (
            good(0).encode(), good(1).encode(), ALL_CASES[name], good(2).encode()
        )
    )


def corpus_file(exclude=()):
    """Every case, CRLF and blank lines, and a torn last line."""
    parts = []
    cases = [text for name, text in ALL_CASES.items() if name not in exclude]
    for i, text in enumerate(cases):
        parts.append(good(i).encode() + b"\n")
        parts.append(text + (b"\r\n" if i % 4 == 1 else b"\n"))
        if i % 5 == 0:
            parts.append(b"\n   \n")
    parts.append(good(999).encode() + b"\n")
    parts.append(line(GOOD)[:25].encode())  # torn: the writer died mid-line
    return b"".join(parts)


def escaping_cases():
    """Cases whose error escapes the oracle instead of being skipped."""
    return {
        name
        for name, text in ALL_CASES.items()
        if oracle(oracle_jsonl, text + b"\n", "x", "skip")[0] is None
    }


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def jsonl_and_csv(tmp_path, data, name="corpus"):
    """Check read_jsonl, the follower's decoder and read_csv on the same rows."""
    path = write(tmp_path, f"{name}.jsonl", data)
    assert_matches_oracle(read_jsonl, oracle_jsonl, data, path, "jsonl")
    assert_matches_oracle(follower_decode, oracle_jsonl, data, path, "jsonl")
    text = data.decode("utf-8", "surrogateescape")
    table = csv_bytes([raw.strip() for raw in text.splitlines() if raw.strip()])
    csv_path = write(tmp_path, f"{name}.csv", table)
    assert_matches_oracle(read_csv, oracle_csv, table, csv_path, "csv")
    return path, csv_path


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_each_case_matches_the_oracle(tmp_path, monkeypatch, name):
    # Two-line decode chunks: the case line opens the second chunk.
    monkeypatch.setattr(ingest, "CHUNK_LINES", 2, raising=False)
    data = case_file(name)
    path, csv_path = jsonl_and_csv(tmp_path, data, name)
    want = oracle(oracle_jsonl, data, str(path), "skip")
    if want[0] is not None:
        assert_same_store(read_jsonl(path, on_error="skip"), want[0])


def test_whole_corpus_matches_the_oracle(tmp_path):
    jsonl_and_csv(tmp_path, corpus_file(), "full")
    # A row whose error escapes the oracle ends the read; the rest of
    # the corpus is also checked without such rows.
    clean = corpus_file(exclude=escaping_cases())
    path, _ = jsonl_and_csv(tmp_path, clean, "clean")
    want = oracle(oracle_jsonl, clean, str(path), "skip")
    assert want[2] > 20  # the corpus really is dirty
    assert_same_store(read_jsonl(path, on_error="skip"), want[0])


def test_follower_matches_the_oracle():
    assert_follower_matches(corpus_file(exclude=escaping_cases()))


@pytest.mark.parametrize(
    "name, data",
    [
        ("zero_byte", b""),
        ("blank_only", b"\n\n  \n\t\n"),
        ("no_trailing_newline", (good(0) + "\n" + good(1)).encode()),
        ("crlf_only", (good(0) + "\r\n" + good(1) + "\r\n").encode()),
        ("single_torn_line", line(GOOD)[:10].encode()),
        ("single_line", (good(3) + "\n").encode()),
    ],
)
def test_edge_files_match_the_oracle(tmp_path, name, data):
    path, _ = jsonl_and_csv(tmp_path, data, name)
    want = oracle(oracle_jsonl, data, str(path), "skip")
    assert_same_store(read_jsonl(path, on_error="skip"), want[0])


# -- random mixes spanning several decode chunks ------------------------------

_POOL = (
    [good(i).encode() for i in range(12)]
    + [text for name, text in ALL_CASES.items() if name not in escaping_cases()]
    + [b"", b"   "]
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    lead=st.integers(0, 25),
    picks=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=60),
    torn=st.booleans(),
)
def test_random_mixes_match_the_oracle(monkeypatch, lead, picks, torn):
    # Small decode chunks, so a few dozen lines span several of them;
    # the valid lead lines move the first bad line past the first chunk.
    monkeypatch.setattr(ingest, "CHUNK_LINES", 7, raising=False)
    payload = b"".join(good(i).encode() + b"\n" for i in range(lead))
    payload += b"".join(_POOL[i] + b"\n" for i in picks)
    if torn:
        payload += line(GOOD)[:30].encode()
    with tempfile.TemporaryDirectory() as directory:
        path, _ = jsonl_and_csv(Path(directory), payload)
        want = oracle(oracle_jsonl, payload, str(path), "skip")
        assert_same_store(read_jsonl(path, on_error="skip"), want[0])
