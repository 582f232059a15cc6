"""Pre-aggregated quantile-sketch tiles: score without re-ingesting.

A *tile* is one (time period, dataset, granularity) slice of the
measurement stream reduced to mergeable t-digest state — the cache's
unit of distribution. The serialization is exactly
:meth:`SketchPlane.to_state <repro.measurements.sketchplane.SketchPlane.to_state>`
after every digest is compressed, so a tile's buffers are empty and
each digest is its centroid arrays as base64 little-endian float64
(tile version 2). Warming a scoring plane from tiles is parse, decode
and merge: no record replay, no object per centroid, no compression
of a cell only one tile holds. The paper's own Ookla aggregate-only
path (PAPER.md §2) is the methodological precedent for scoring from
summaries, and the sketch parity suite bounds the percentile error
(p95/p99 relative error ≤ 1% vs the exact plane).

Granularities mirror the real IQB's multi-level aggregation (country /
subdivision / ASN / city). On this repo's record schema they map to:

* ``region``       — the region axis as-is (the scoring default);
* ``region_isp``   — ``{region}/{isp}`` keys (per-provider tiles, the
  ASN analog);
* ``region_tech``  — ``{region}/{access_tech}`` keys (fiber vs DSL vs
  cable tiles).

Tiles are deterministic: the same records serialize to byte-identical
JSON (sorted keys, canonical separators), so content addressing
dedupes rebuilt periods for free and ``iqb cache build`` is
idempotent. A rebuild replaces the manifest entries of every (period,
plane) it builds, so a period rebuilt from a grown file is counted
once; the tiles it replaces stay on disk for ``iqb cache gc``. So one
build must cover a whole period: of two files that each hold part of
one period, only the second one built keeps its tiles.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import DataError, IntegrityError
from repro.measurements.columnar import as_batch, group_rows, intern
from repro.measurements.record import Measurement
from repro.measurements.sketchplane import SketchPlane, SketchView, merge_planes
from repro.measurements.tdigest import DEFAULT_DELTA

from .layout import DEFAULT_PERIOD_S, CacheEntry, period_key, plane_name
from .store import LocalCache

#: Current tile document shape: 2 carries compressed centroids as
#: base64 float64 arrays (1 carried them as JSON lists, uncompressed).
TILE_VERSION = 2

#: Supported aggregation granularities (see module docstring).
GRANULARITIES = ("region", "region_isp", "region_tech")

#: Default granularities ``iqb cache build`` materializes.
DEFAULT_GRANULARITIES = ("region",)


def tile_key(record: Measurement, granularity: str) -> str:
    """The aggregation-axis key one record falls under."""
    axis = _KEY_AXIS.get(granularity)
    if axis is None:
        raise ValueError(
            f"unknown granularity: {granularity!r} (have {GRANULARITIES})"
        )
    return _tile_key(record.region, getattr(record, axis), granularity)


#: The record field each granularity keys on besides the region.
_KEY_AXIS = {
    "region": "region",
    "region_isp": "isp",
    "region_tech": "access_tech",
}


def _tile_key(region: str, other: str, granularity: str) -> str:
    if granularity == "region":
        return region
    return f"{region}/{other or 'unknown'}"


def build_tiles(
    records: Iterable[Measurement],
    granularity: str = "region",
    period_s: float = DEFAULT_PERIOD_S,
    delta: int = DEFAULT_DELTA,
) -> Dict[Tuple[str, str], dict]:
    """Reduce records to tile documents, keyed by (period, source).

    Reads columns: a ``ColumnarStore`` or a store-backed
    ``MeasurementSet`` as they are, other records transposed once.
    Rows are grouped by (period, source, tile key) with numpy, and each
    cell's digests take its rows in row order, exactly as observing the
    records one by one would — building tiles over a multi-GB dump
    costs ingest, not sorting. Each digest is then compressed, as its
    first quantile read would compress it, so tiles hold no buffer.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"unknown granularity: {granularity!r} (have {GRANULARITIES})"
        )
    batch = as_batch(records)
    periods, period_names = intern(
        list(map(period_key, batch.timestamp.tolist(), repeat(period_s)))
    )
    # Each row's tile key. Distinct (region, other) pairs can spell the
    # same key ("" and "unknown" ISPs, say); their rows share a view.
    axis = _KEY_AXIS[granularity]
    regions, others = batch.codes["region"], batch.codes[axis]
    _, firsts, pair_of = np.unique(
        regions.astype(np.int64) * len(batch.keys[axis]) + others,
        return_index=True,
        return_inverse=True,
    )
    key_of_pair, key_names = intern(
        [
            _tile_key(
                batch.keys["region"][regions[row]],
                batch.keys[axis][others[row]],
                granularity,
            )
            for row in firsts.tolist()
        ]
    )
    labels = (
        (periods, len(period_names)),
        (batch.codes["source"], len(batch.keys["source"])),
        (key_of_pair[pair_of], len(key_names)),
    )
    # One dense code per (period, source, key) cell, combined a label
    # at a time so no product outgrows the row count squared.
    cells = np.zeros(len(batch), dtype=np.int64)
    for codes, size in labels:
        combined = cells * size + codes
        cells = np.unique(combined, return_inverse=True)[1]
    grouped: Dict[Tuple[str, str], Dict[str, SketchView]] = {}
    for rows in group_rows(cells, int(cells.max()) + 1 if cells.size else 0):
        if not rows.size:
            continue
        first = int(rows[0])
        view = SketchView(delta=delta)
        view.observe_rows(batch, rows)
        view.compress()
        source = batch.keys["source"][batch.codes["source"][first]]
        period = period_names[periods[first]]
        key = key_names[labels[2][0][first]]
        grouped.setdefault((period, source), {})[key] = view
    tiles: Dict[Tuple[str, str], dict] = {}
    for (period, source), views in sorted(grouped.items()):
        plane_state = {
            "delta": delta,
            "records": sum(len(view) for view in views.values()),
            "views": [
                [key, source, view.to_state()]
                for key, view in sorted(views.items())
            ],
        }
        tiles[(period, source)] = {
            "tile_version": TILE_VERSION,
            "period": period,
            "source": source,
            "granularity": granularity,
            "records": plane_state["records"],
            "plane": plane_state,
        }
    return tiles


def tile_payload(document: dict) -> bytes:
    """Canonical tile bytes: sorted keys, compact separators, newline.

    Canonicalization is what makes tiles content-addressable — two
    builds over the same records produce byte-identical payloads and
    therefore the same artifact name.
    """
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def parse_tile(payload: bytes) -> dict:
    """Decode and shape-check one tile artifact's bytes."""
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"tile artifact is not JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise IntegrityError("tile artifact is not an object")
    version = document.get("tile_version")
    if version != TILE_VERSION:
        raise IntegrityError(
            f"unsupported tile_version: {version!r} (this build reads "
            f"{TILE_VERSION}); rebuild the cache with `iqb cache build`"
        )
    if not isinstance(document.get("plane"), dict):
        raise IntegrityError("tile artifact carries no plane state")
    return document


def write_tiles(
    cache: LocalCache,
    records: Iterable[Measurement],
    granularities: Sequence[str] = DEFAULT_GRANULARITIES,
    period_s: float = DEFAULT_PERIOD_S,
    delta: int = DEFAULT_DELTA,
) -> List[CacheEntry]:
    """Build tiles at each granularity and publish them into ``cache``.

    Artifacts land content-addressed (a rebuilt unchanged period is a
    no-op put) and durably before the manifest that names them. The
    new entries replace every manifest entry of the same (period,
    plane) (:meth:`~.layout.CacheManifest.replacing`), so a period
    rebuilt from a grown file is counted once, and ``records`` must
    hold each of its periods whole; the replaced artifacts are left
    for ``iqb cache gc``. Other periods' entries are kept. Returns the
    entries built this call.
    """
    batch = as_batch(records)
    entries: List[CacheEntry] = []
    for granularity in granularities:
        for (period, source), document in build_tiles(
            batch, granularity=granularity, period_s=period_s, delta=delta
        ).items():
            payload = tile_payload(document)
            entries.append(
                cache.put(
                    payload,
                    period=period,
                    plane=plane_name(source, granularity),
                    records=int(document["records"]),
                )
            )
    cache.write_manifest(cache.manifest().replacing(entries))
    return entries


def tile_entries(
    cache: LocalCache,
    granularity: str = "region",
    periods: Optional[Sequence[str]] = None,
) -> List[CacheEntry]:
    """Manifest entries holding tiles at one granularity.

    Args:
        periods: restrict to these period keys (``None`` = all) — the
            time-travel hook: warm a plane as of any cached window.
    """
    suffix = f"_by_{granularity}"
    wanted = set(periods) if periods is not None else None
    return [
        entry
        for entry in cache.manifest().entries
        if entry.plane.endswith(suffix)
        and (wanted is None or entry.period in wanted)
    ]


def warm_plane(
    cache: LocalCache,
    granularity: str = "region",
    periods: Optional[Sequence[str]] = None,
) -> SketchPlane:
    """A scoring-ready :class:`SketchPlane` merged from cached tiles.

    Every tile read is digest-verified (:meth:`LocalCache.read`), so a
    corrupted artifact raises — and quarantines — instead of warming a
    plane with wrong aggregates. The result plugs straight into
    ``score_regions`` / ``ScoringService``: this is the ``iqb score
    --from-cache`` / ``iqb serve --from-cache`` fast path.

    Raises:
        DataError: the cache holds no tiles at this granularity (an
            empty plane would score nothing and mask the operator
            error).
        IntegrityError: a tile failed verification (quarantined).
    """
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"unknown granularity: {granularity!r} (have {GRANULARITIES})"
        )
    entries = tile_entries(cache, granularity=granularity, periods=periods)
    if not entries:
        raise DataError(
            f"cache at {cache.root} holds no tiles for granularity "
            f"{granularity!r}"
            + (f" in periods {sorted(set(periods))}" if periods else "")
        )
    return merge_planes(
        [
            SketchPlane.from_state(parse_tile(cache.read(entry))["plane"])
            for entry in sorted(entries, key=lambda e: e.path)
        ]
    )


__all__ = [
    "DEFAULT_GRANULARITIES",
    "GRANULARITIES",
    "TILE_VERSION",
    "build_tiles",
    "parse_tile",
    "tile_entries",
    "tile_key",
    "tile_payload",
    "warm_plane",
]
