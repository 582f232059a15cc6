"""Parallel sketch-plane construction: shard by region, merge digests.

A large finished batch is partitioned into region shards, each worker
folds its shard's records into a private
:class:`~repro.measurements.sketchplane.SketchPlane`, and the parent
merges the per-shard planes. Because regions partition the records and
a plane's (region, dataset) cells only ever see their own region's
measurements, the per-shard planes cover disjoint cells and the merge
is a cell union — the merged plane has exactly the counts (and
sketch-equivalent quantiles) of a single serial pass, the same
contract PR 4's shard timer digests rely on.

Workers ship ``SketchPlane.to_state()`` dicts back to the parent (the
plane's own serialization, so nothing here needs to pickle live
t-digests); the parent rebuilds and merges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from repro.measurements.sketchplane import SketchPlane
from repro.measurements.tdigest import DEFAULT_DELTA

from .plan import ShardPlan
from .pool import run_sharded

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measurements.record import Measurement


def _sketch_shard(
    payload: Tuple[Dict[str, List["Measurement"]], int],
    shard: Tuple[str, ...],
) -> dict:
    """Sketch one shard of regions; returns the plane's state dict."""
    groups, delta = payload
    plane = SketchPlane(delta=delta)
    for region in shard:
        plane.extend(groups[region])
    return plane.to_state()


def sketch_records_parallel(
    records: Iterable["Measurement"],
    workers: int,
    delta: int = DEFAULT_DELTA,
) -> SketchPlane:
    """Multi-worker :func:`~repro.measurements.sketchplane.sketch_records`.

    Args:
        records: any iterable of Measurement records (or a
            ``ColumnarStore``, sketched from its record list).
        workers: target pool size; ``<= 1`` still runs through the
            sharded path serially (same output, no fork).
        delta: t-digest compression factor for every cell.

    Returns:
        One merged :class:`SketchPlane` covering every record, with the
        same per-cell counts a serial ``sketch_records`` pass builds.

    Raises:
        ShardError: when a worker shard fails (after the serial retry),
            naming its regions.
    """
    record_list = (
        records.records()
        if hasattr(records, "records")
        else list(records)
    )
    groups: Dict[str, List["Measurement"]] = {}
    for record in record_list:
        groups.setdefault(record.region, []).append(record)
    if not groups:
        return SketchPlane(delta=delta)

    plan = ShardPlan.for_keys(sorted(groups), workers)
    states = run_sharded(
        _sketch_shard, (groups, delta), plan.shards, workers=workers
    )
    merged = SketchPlane(delta=delta)
    for state in states:
        merged = merged.merge(SketchPlane.from_state(state))
    return merged
