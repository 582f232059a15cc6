"""Result sinks: where completed probe measurements go.

Sinks receive each measurement as the runner completes it. Three
implementations cover the realistic deployment modes:

* :class:`MemorySink` — accumulate into a MeasurementSet (analysis in
  the same process);
* :class:`JsonlSink` — stream to an append-only JSONL file (durable
  collection; what a long-running prober would actually do);
* :class:`SketchSink` — feed a live
  :class:`~repro.measurements.sketchplane.SketchPlane`, one t-digest
  per (region, source, metric) cell, so an arbitrarily long campaign
  feeds the IQB scorer in bounded memory. The digests answer any
  percentile after the fact, are mergeable (:meth:`SketchSink.merge`
  combines collector shards) and serializable, so a campaign can
  checkpoint/resume sketch state (``state_dict`` / ``restore_state``)
  and score any prefix of the stream through the standard
  ``score_regions`` surface.

:class:`FanOutSink` fans one runner's results out to several sinks
(e.g. durable JSONL plus a live sketch plane).
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

import json

from repro.measurements.collection import MeasurementSet
from repro.measurements.columnar import ColumnarStore, ColumnarView
from repro.measurements.record import Measurement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import IQBConfig
    from repro.core.scoring import ScoreBreakdown


@runtime_checkable
class ResultSink(Protocol):
    """Anything that accepts completed measurements."""

    def accept(self, measurement: Measurement) -> None:
        """Consume one measurement."""
        ...


class MemorySink:
    """Accumulates measurements in memory.

    :meth:`as_set` snapshots everything collected so far as one
    :class:`MeasurementSet`, kept until the next :meth:`accept`; its
    store (:meth:`as_columnar`) is transposed once per snapshot, so
    periodically re-scoring a live campaign does not re-group the
    ever-growing record list from scratch each refresh.
    """

    def __init__(self) -> None:
        self._records: List[Measurement] = []
        self._set: Optional[MeasurementSet] = None

    def accept(self, measurement: Measurement) -> None:
        self._records.append(measurement)
        self._set = None

    def __len__(self) -> int:
        return len(self._records)

    def as_set(self) -> MeasurementSet:
        """Everything collected so far (cached until the next accept)."""
        if self._set is None:
            self._set = MeasurementSet(self._records)
        return self._set

    def as_columnar(self) -> ColumnarStore:
        """Columnar view of everything collected so far (cached)."""
        return self.as_set().columnar()

    def sources_by_region(self) -> Dict[str, Dict[str, "ColumnarView"]]:
        """region → dataset → QuantileSource over the collected batch."""
        return self.as_columnar().sources_by_region()

    def score_all(
        self,
        config: "IQBConfig",
        quantiles: Optional[str] = None,
    ) -> Dict[str, "ScoreBreakdown"]:
        """Batch-score every region collected so far (columnar path).

        ``quantiles`` overrides the config's quantile policy (exact /
        sketch plane selection).
        """
        from repro.core.scoring import score_regions

        return score_regions(self.as_columnar(), config, quantiles=quantiles)


class SketchSink:
    """Folds measurements into a live t-digest plane as they arrive.

    O(1) amortized per measurement and O(cells · delta) memory. The
    plane is mergeable and serializable: :meth:`merge` combines the
    sinks of collector shards that each saw a slice of the stream,
    :meth:`state_dict` / :meth:`restore_state` let a campaign journal
    checkpoint mid-stream, and :meth:`score_all` re-scores the stream
    so far without ever materializing records.
    """

    def __init__(self, delta: Optional[int] = None) -> None:
        from repro.measurements.sketchplane import SketchPlane
        from repro.measurements.tdigest import DEFAULT_DELTA

        self._plane = SketchPlane(
            delta=DEFAULT_DELTA if delta is None else delta
        )

    def accept(self, measurement: Measurement) -> None:
        self._plane.add(measurement)

    def __len__(self) -> int:
        return len(self._plane)

    @property
    def plane(self) -> "object":
        """The live :class:`SketchPlane` (shared, not a copy)."""
        return self._plane

    def merge(self, other: "SketchSink") -> "SketchSink":
        """Combine two collector shards' sinks (inputs unchanged)."""
        merged = SketchSink()
        merged._plane = self._plane.merge(other._plane)
        return merged

    def score_all(self, config: "IQBConfig") -> Dict[str, "ScoreBreakdown"]:
        """Score every region's live sketches (no batch recompute)."""
        from repro.core.scoring import score_regions

        return score_regions(self._plane, config)

    def state_dict(self) -> dict:
        """JSON-compatible checkpoint of the plane."""
        return self._plane.to_state()

    def restore_state(self, state: dict) -> None:
        """Replace the plane with a :meth:`state_dict` checkpoint."""
        from repro.measurements.sketchplane import SketchPlane

        self._plane = SketchPlane.from_state(dict(state))


class JsonlSink:
    """Appends measurements to a JSONL file as they arrive.

    With ``flush_every_record=True`` each accepted measurement is
    flushed to the OS before ``accept`` returns — required when a
    campaign journal records the probe as complete right afterwards,
    since a completed-but-buffered measurement would be lost by a crash
    while the journal survives (breaking resume parity).
    """

    def __init__(
        self,
        path: Union[str, Path],
        flush_every_record: bool = False,
    ) -> None:
        self.path = Path(path)
        self.written = 0
        self.flush_every_record = flush_every_record
        self._handle = open(self.path, "a", encoding="utf-8")

    def accept(self, measurement: Measurement) -> None:
        self._handle.write(json.dumps(measurement.to_dict(), sort_keys=True))
        self._handle.write("\n")
        if self.flush_every_record:
            self._handle.flush()
        self.written += 1

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FanOutSink:
    """Forwards each measurement to several child sinks."""

    def __init__(self, *sinks: ResultSink) -> None:
        if not sinks:
            raise ValueError("FanOutSink needs at least one child sink")
        self._sinks = sinks

    def accept(self, measurement: Measurement) -> None:
        for sink in self._sinks:
            sink.accept(measurement)
