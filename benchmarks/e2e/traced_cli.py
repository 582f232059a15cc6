"""Run the ``repro`` CLI with a span around each layer call it makes.

    python benchmarks/e2e/traced_cli.py score FILE --json --trace-out T.json

The program already records spans for scoring (``score_regions``,
``columnar_group``, ``aggregate_cube``, ``score_cube``,
``rebuild_breakdowns``). Parsing, the provenance digest, the tile cache
and rendering have none, so this wraps the public functions the CLI
calls for them in spans named after their layer, then runs
``repro.cli.main`` unchanged. The CLI's own ``--trace-out`` writes the
Chrome trace, and ``--manifest-out`` the counters.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Callable, Optional

import repro.cache
import repro.cache.tiles
import repro.cli
import repro.obs.manifest
from repro.core.scoring import ScoreBreakdown
from repro.obs import span


def _records(records) -> dict:
    return {"records": len(records)}


def _tiles(entries) -> dict:
    return {"tiles": len(entries), "bytes": sum(entry.bytes for entry in entries)}


def _text(text: str) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


#: (owner, attribute the CLI looks the function up by, layer span name,
#: fields to attach from the result).
LAYER_CALLS = (
    (repro.cli, "read_jsonl", "measurements.io", _records),
    (repro.obs.manifest, "file_digest", "obs.manifest", None),
    (repro.cache, "write_tiles", "cache.write", _tiles),
    (repro.cache.tiles, "build_tiles", "measurements.sketchplane", None),
    (repro.cache, "warm_plane", "cache.warm", None),
    (ScoreBreakdown, "to_dict", "render.to_dict", None),
    (json, "dumps", "json.dumps", _text),
)


def spanned(name: str, function: Callable, fields: Optional[Callable] = None) -> Callable:
    """``function`` inside a span called ``name``."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with span(name) as stage:
            result = function(*args, **kwargs)
            if fields is not None:
                stage.annotate(**fields(result))
        return result

    return wrapper


if __name__ == "__main__":
    for owner, attribute, name, fields in LAYER_CALLS:
        setattr(owner, attribute, spanned(name, getattr(owner, attribute), fields))
    sys.exit(repro.cli.main(sys.argv[1:]))
