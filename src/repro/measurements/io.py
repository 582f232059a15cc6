"""Reading and writing measurement records (JSONL and CSV).

JSON Lines is the primary interchange format: one measurement document
per line, append-friendly, and the natural shape for the probing
framework's streaming sinks. CSV import/export exists for spreadsheet
interoperability; the CSV dialect is plain (header row, comma, no
quoting surprises) with ``meta`` omitted.

Readers decode straight into the typed columns of a
:class:`~repro.measurements.columnar.ColumnarStore` — no
:class:`~repro.measurements.record.Measurement` per row. Input is
decoded in chunks of :data:`CHUNK_LINES` lines, so memory tracks the
columns rather than the parsed documents. Each chunk's documents are
parsed, their fields gathered into columns, and validated by
vectorized masks that mirror ``Measurement``'s checks and the
conversions in ``Measurement.from_dict``. A row a mask flags, or one
holding a value that is not plain (a bool, a string where a number
belongs, a nested value, an int too large for a float, a NaN that is
present rather than absent), is decoded again on its own by
``Measurement.from_dict`` — ``Measurement`` stays the one definition of
a valid row, so what is accepted, the error text and the counts are
those of a per-line ``from_dict`` reader by construction. CSV rows,
empty cells dropped, go through the same builder.

Readers are strict by default — a malformed line raises
:class:`~repro.core.exceptions.SchemaError` naming ``path:line`` — and
tolerant on request (``on_error="skip"``), because real measurement
dumps do contain garbage rows. A line that is not valid UTF-8 is
malformed like any other. Skips are never silent: they increment the
``ingest.*.skipped`` counters and the whole-file readers log one
WARNING with the drop count (see :mod:`repro.obs`).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.exceptions import SchemaError
from repro.core.metrics import Metric
from repro.obs import counter, get_logger

from .collection import MeasurementSet
from .columnar import KEY_AXES, ColumnarStore, ColumnBatch, intern
from .record import Measurement

_PathLike = Union[str, Path]

_logger = get_logger(__name__)

_JSONL_READ = counter("ingest.jsonl.lines")
_JSONL_SKIPPED = counter("ingest.jsonl.skipped")
_CSV_READ = counter("ingest.csv.rows")
_CSV_SKIPPED = counter("ingest.csv.skipped")

#: Lines (or CSV rows) decoded per chunk. Bounds the parsed documents
#: alive at once; past a few thousand, larger chunks only cost memory.
CHUNK_LINES = 4096


@dataclass
class IngestStats:
    """Per-call accounting of one reader invocation.

    ``read`` counts records successfully decoded; ``skipped`` counts
    malformed lines/rows dropped under ``on_error="skip"`` (always 0 in
    ``"raise"`` mode, where the first bad line aborts the read).
    """

    read: int = 0
    skipped: int = 0

CSV_FIELDS = (
    "region",
    "source",
    "timestamp",
    "download_mbps",
    "upload_mbps",
    "latency_ms",
    "packet_loss",
    "isp",
    "access_tech",
)


def write_jsonl(records: MeasurementSet, path: _PathLike) -> int:
    """Write records as JSON Lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(
    path: _PathLike,
    on_error: str = "raise",
    stats: Optional[IngestStats] = None,
) -> MeasurementSet:
    """Load a whole JSONL file into a (store-backed) MeasurementSet.

    In ``on_error="skip"`` mode, a file with malformed lines loads the
    good records and logs one WARNING with the skip count (also visible
    as the ``ingest.jsonl.skipped`` counter). Pass ``stats`` to receive
    this call's exact read/skip counts (run-provenance manifests record
    them per input file).
    """
    _check_on_error(on_error)
    if stats is None:
        stats = IngestStats()
    # surrogateescape: an undecodable byte reaches the decoder as a
    # lone surrogate, which rejects that one line (see _utf8_problem).
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        batch = decode_jsonl(handle, path, on_error=on_error, stats=stats)
    _warn_skips(stats, path, "line")
    return MeasurementSet._wrap(ColumnarStore(batch))


def decode_jsonl(
    lines: Iterable[str],
    path: _PathLike,
    on_error: str = "raise",
    stats: Optional[IngestStats] = None,
    first_line: int = 1,
) -> ColumnBatch:
    """Decode JSONL text lines into one :class:`ColumnBatch`.

    The single JSONL decoder: :func:`read_jsonl` feeds it a file, and
    ``iqb serve --follow`` the complete lines it tails. ``lines`` are
    text as the readers' text mode yields it: ``\n``, ``\r\n`` and
    ``\r`` end lines, and undecodable bytes arrive as lone surrogates
    (``errors="surrogateescape"``), which mark their line malformed.
    ``path`` and ``first_line`` (the number of the first line given)
    name the offending line in errors.

    Raises:
        SchemaError: in ``"raise"`` mode, for the first malformed line.
    """
    _check_on_error(on_error)
    if stats is None:
        stats = IngestStats()
    chunks: List[ColumnBatch] = []
    lines = iter(lines)
    lineno = first_line
    while True:
        chunk = list(islice(lines, CHUNK_LINES))
        if not chunk:
            break
        documents, linenos, failures = _parse(chunk, lineno)
        lineno += len(chunk)
        chunks.append(
            _build(
                documents,
                linenos,
                failures,
                path,
                on_error,
                stats,
                _JSONL_READ,
                _JSONL_SKIPPED,
            )
        )
    return ColumnBatch.concat(chunks)


def write_csv(records: MeasurementSet, path: _PathLike) -> int:
    """Write records as CSV (``meta`` is not representable and dropped)."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for record in records:
            row = {field: "" for field in CSV_FIELDS}
            row["region"] = record.region
            row["source"] = record.source
            row["timestamp"] = repr(record.timestamp)
            for metric in Metric:
                value = record.value(metric)
                if value is not None:
                    row[metric.field_name] = repr(value)
            row["isp"] = record.isp
            row["access_tech"] = record.access_tech
            writer.writerow(row)
            count += 1
    return count


def read_csv(
    path: _PathLike,
    on_error: str = "raise",
    stats: Optional[IngestStats] = None,
) -> MeasurementSet:
    """Load measurements from a CSV produced by :func:`write_csv`.

    Unknown extra columns are ignored; missing metric cells become None.
    Line numbers count the header as line 1. In ``on_error="skip"``
    mode, dropped rows are counted (``ingest.csv.skipped``) and
    reported with one WARNING. ``stats`` receives this call's
    read/skip counts, as in :func:`read_jsonl`.
    """
    _check_on_error(on_error)
    if stats is None:
        stats = IngestStats()
    chunks: List[ColumnBatch] = []
    with open(
        path, "r", encoding="utf-8", errors="surrogateescape", newline=""
    ) as handle:
        rows = enumerate(csv.DictReader(handle), start=2)
        while True:
            chunk = list(islice(rows, CHUNK_LINES))
            if not chunk:
                break
            documents: List[Any] = []
            linenos: List[int] = []
            failures: List[Tuple[int, Exception]] = []
            for lineno, row in chunk:
                document = {
                    key: value
                    for key, value in row.items()
                    if value not in ("", None)
                }
                problem = next(
                    filter(
                        None,
                        (
                            _utf8_problem(value)
                            for value in document.values()
                            if type(value) is str
                        ),
                    ),
                    None,
                )
                if problem is not None:
                    failures.append((lineno, problem))
                    continue
                documents.append(document)
                linenos.append(lineno)
            chunks.append(
                _build(
                    documents,
                    linenos,
                    failures,
                    path,
                    on_error,
                    stats,
                    _CSV_READ,
                    _CSV_SKIPPED,
                )
            )
    _warn_skips(stats, path, "row")
    return MeasurementSet._wrap(ColumnarStore(ColumnBatch.concat(chunks)))


# -- the decoder -----------------------------------------------------------


def _check_on_error(on_error: str) -> None:
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip': {on_error!r}")


def _warn_skips(stats: IngestStats, path: _PathLike, what: str) -> None:
    if stats.skipped:
        _logger.warning(
            "skipped %d malformed %s(s) reading %s",
            stats.skipped,
            what,
            path,
            extra={"ctx": {"read": stats.read, "skipped": stats.skipped}},
        )


def _utf8_problem(text: str) -> Optional[SchemaError]:
    """Why ``text`` (decoded with surrogateescape) is not UTF-8, if so."""
    if text.isascii():
        return None
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return SchemaError(f"not valid UTF-8: {exc}")
    return None


def _parse(
    chunk: List[str], first: int
) -> Tuple[List[Any], List[int], List[Tuple[int, Exception]]]:
    """Parse one chunk of lines: (documents, their line numbers, failures).

    Blank lines are dropped, as a per-line reader drops them. A line
    ``json.loads`` rejects is malformed: besides syntax errors, that is
    an integer past the interpreter's digit limit (ValueError) and
    nesting past its recursion limit.
    """
    texts = list(map(str.strip, chunk))
    if all(texts) and all(map(str.isascii, texts)):
        try:
            return (
                list(map(json.loads, texts)),
                list(range(first, first + len(texts))),
                [],
            )
        except (ValueError, RecursionError):
            pass  # some line is malformed: find it line by line
    documents: List[Any] = []
    linenos: List[int] = []
    failures: List[Tuple[int, Exception]] = []
    lines = range(first, first + len(chunk))
    for lineno, raw, text in zip(lines, chunk, texts):
        if not text:
            continue
        problem: Optional[Exception] = _utf8_problem(raw)
        if problem is None:
            try:
                documents.append(json.loads(text))
            except (ValueError, RecursionError) as exc:
                problem = exc
            else:
                linenos.append(lineno)
                continue
        failures.append((lineno, problem))
    return documents, linenos, failures


_NUMBER_FIELDS = ("timestamp",) + tuple(
    metric.field_name for metric in Metric.ordered()
)
_PLAIN_NUMBER = (float, int, type(None))
#: Stands in for an absent ``meta`` and for a document that is not a
#: JSON object (never mutated).
_EMPTY: Mapping[str, Any] = {}
#: What ``Measurement.from_dict`` reads for an absent optional field.
_DEFAULTS = {"isp": "", "access_tech": "", "meta": _EMPTY}


def _field(documents: List[dict], field: str) -> List[Any]:
    """``document.get(field)`` per document, with from_dict's default."""
    return list(
        map(dict.get, documents, repeat(field), repeat(_DEFAULTS.get(field)))
    )


def _flag_unless(
    values: List[Any], plain: Tuple[type, ...], flagged: np.ndarray
) -> List[Any]:
    """``values`` with every value of another type flagged and set to None."""
    if set(map(type, values)).issubset(plain):
        return values
    cleaned = []
    for row, value in enumerate(values):
        if type(value) in plain:
            cleaned.append(value)
        else:
            flagged[row] = True
            cleaned.append(None)
    return cleaned


def _number_column(values: List[Any], flagged: np.ndarray) -> np.ndarray:
    """Plain numbers as float64 (None → NaN); anything else is flagged.

    A NaN that was present in the document (a JSON ``NaN``), as opposed
    to absent, is flagged too: ``Measurement`` rejects it.
    """
    values = _flag_unless(values, _PLAIN_NUMBER, flagged)
    column = np.array(values, dtype=np.float64)
    missing = np.isnan(column)
    if int(np.count_nonzero(missing)) != values.count(None):
        present = np.fromiter(
            (value is not None for value in values),
            dtype=bool,
            count=len(values),
        )
        flagged |= missing & present
    return column


def _key_column(
    values: List[Any], flagged: np.ndarray, required: bool
) -> List[Any]:
    """Strings as-is; anything else (and, if ``required``, "") flagged."""
    values = _flag_unless(values, (str,), flagged)
    if required and "" in values:
        flagged |= np.fromiter(
            (value == "" for value in values), dtype=bool, count=len(values)
        )
    return values


def _gather(
    documents: List[Any],
) -> Tuple[
    Dict[str, np.ndarray], Dict[str, List[Any]], List[Any], np.ndarray
]:
    """The chunk's fields as columns, and the rows no mask can vouch for.

    Returns (numbers, keys, meta, flagged): float64 columns per number
    field, value lists per key axis, the meta list, and a boolean mask
    of rows that must be decoded again by ``Measurement.from_dict``.
    """
    n = len(documents)
    flagged = np.zeros(n, dtype=bool)
    if not set(map(type, documents)).issubset((dict,)):
        documents = list(documents)
        for row, document in enumerate(documents):
            if type(document) is not dict:
                flagged[row] = True
                documents[row] = _EMPTY
    numbers = {
        field: _number_column(_field(documents, field), flagged)
        for field in _NUMBER_FIELDS
    }
    keys = {
        axis: _key_column(
            _field(documents, axis),
            flagged,
            required=axis in ("region", "source"),
        )
        for axis in KEY_AXES
    }
    meta = _flag_unless(_field(documents, "meta"), (dict,), flagged)
    # Measurement.__post_init__, as masks (NaN stands for "absent").
    inf = np.inf
    timestamp = numbers["timestamp"]
    download, upload = numbers["download_mbps"], numbers["upload_mbps"]
    latency, loss = numbers["latency_ms"], numbers["packet_loss"]
    with np.errstate(invalid="ignore"):
        flagged |= ~((timestamp > -inf) & (timestamp < inf))
        flagged |= (
            np.isnan(download)
            & np.isnan(upload)
            & np.isnan(latency)
            & np.isnan(loss)
        )
        for column in (download, upload):
            flagged |= ~(np.isnan(column) | ((column >= 0.0) & (column < inf)))
        flagged |= ~(np.isnan(latency) | ((latency > 0.0) & (latency < inf)))
        flagged |= ~(np.isnan(loss) | ((loss >= 0.0) & (loss <= 1.0)))
    return numbers, keys, meta, flagged


def _build(
    documents: List[Any],
    linenos: List[int],
    failures: List[Tuple[int, Exception]],
    path: _PathLike,
    on_error: str,
    stats: IngestStats,
    read_counter,
    skip_counter,
) -> ColumnBatch:
    """One chunk's parsed documents as a validated :class:`ColumnBatch`.

    ``failures`` holds (line, error) for lines that did not parse.
    Rows the masks flag are decoded again by ``Measurement.from_dict``,
    whose verdict and error text stand.
    """
    n = len(documents)
    try:
        numbers, keys, meta, flagged = _gather(documents)
    except (OverflowError, ValueError, TypeError):
        # An int too large for a float (or another value numpy will not
        # convert): decode the whole chunk row by row.
        numbers = {field: np.full(n, np.nan) for field in _NUMBER_FIELDS}
        keys = {axis: [None] * n for axis in KEY_AXES}
        meta = [_EMPTY] * n
        flagged = np.ones(n, dtype=bool)
    keep = np.ones(n, dtype=bool)
    failures = list(failures)
    for row in np.flatnonzero(flagged).tolist():
        try:
            record = Measurement.from_dict(documents[row])
        except SchemaError as exc:
            failures.append((linenos[row], exc))
            keep[row] = False
            continue
        numbers["timestamp"][row] = record.timestamp
        for metric in Metric.ordered():
            value = record.value(metric)
            column = numbers[metric.field_name]
            column[row] = np.nan if value is None else value
        for axis in KEY_AXES:
            keys[axis][row] = getattr(record, axis)
        meta[row] = record.meta
    if failures:
        failures.sort(key=lambda failure: failure[0])
        if on_error == "raise":
            lineno, exc = failures[0]
            before = sum(
                1 for row in range(n) if keep[row] and linenos[row] < lineno
            )
            read_counter.inc(before)
            stats.read += before
            raise SchemaError(f"{path}:{lineno}: {exc}") from exc
        skip_counter.inc(len(failures))
        stats.skipped += len(failures)
        if _logger.isEnabledFor(10):  # logging.DEBUG
            for lineno, _exc in failures:
                _logger.debug(
                    "skipped malformed line",
                    extra={"ctx": {"path": str(path), "line": lineno}},
                )
    kept = int(np.count_nonzero(keep))
    if kept < n:
        rows = np.flatnonzero(keep).tolist()
        numbers = {field: column[keep] for field, column in numbers.items()}
        keys = {
            axis: [values[row] for row in rows]
            for axis, values in keys.items()
        }
        meta = [meta[row] for row in rows]
    read_counter.inc(kept)
    stats.read += kept
    codes = {}
    tables = {}
    for axis in KEY_AXES:
        codes[axis], tables[axis] = intern(keys[axis])
    # Rows repeat a handful of meta documents: keep one object per
    # distinct document (repr tells types, -0.0 and key order apart).
    shared: dict = {}
    meta = list(map(shared.setdefault, map(repr, meta), meta))
    return ColumnBatch(
        values={
            metric: numbers[metric.field_name] for metric in Metric.ordered()
        },
        timestamp=numbers["timestamp"],
        codes=codes,
        keys=tables,
        meta=meta,
    )

