"""Chrome trace-event export for recorded span trees.

Converts a :class:`~repro.obs.spans.TraceRecorder`'s records into the
Trace Event Format JSON that Perfetto and ``chrome://tracing`` load
directly, so any pipeline run dumped with ``--trace-out trace.json``
opens as a stage flamegraph: one complete ("ph": "X") event per span,
nested by start/duration on the thread track it ran on.

Only the stdlib is involved, and only the *document* shape matters:

* ``ts``/``dur`` are microseconds (the format's unit) relative to the
  recorder's epoch;
* ``pid`` is the real process id, ``tid`` the recording thread's id,
  with metadata events naming the process and each thread;
* span ``fields``, the slash-joined ``path``/``depth``, and the trace
  context (``trace_id``/``span_id``/``parent_id``) ride in ``args``,
  so clicking a slice in the viewer shows the same context a DEBUG
  span log line carries.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Union

from repro.fsutil import atomic_write

from .spans import TraceRecorder

_PathLike = Union[str, "os.PathLike[str]"]


def to_chrome_trace(recorder: TraceRecorder) -> Dict[str, object]:
    """The recorder's spans as a Trace Event Format document (dict)."""
    pid = os.getpid()
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "iqb pipeline"},
        }
    ]
    named_threads = set()
    for record in recorder.records():
        if record.thread_id not in named_threads:
            named_threads.add(record.thread_id)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": record.thread_id,
                    "args": {"name": record.thread_name},
                }
            )
        args: Dict[str, object] = {"path": record.path, "depth": record.depth}
        if record.trace_id:
            args["trace_id"] = record.trace_id
            args["span_id"] = record.span_id
            if record.parent_id is not None:
                args["parent_id"] = record.parent_id
        for key, value in record.fields.items():
            args[key] = value if isinstance(value, (int, float, bool)) else str(value)
        events.append(
            {
                "name": record.name,
                "cat": "span",
                "ph": "X",
                "ts": round(record.start_s * 1e6, 3),
                "dur": round(record.duration_s * 1e6, 3),
                "pid": pid,
                "tid": record.thread_id,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"started_unix": recorder.started_unix},
    }


def write_chrome_trace(recorder: TraceRecorder, path: _PathLike) -> int:
    """Write the trace JSON to ``path``; returns the span-event count."""
    document = to_chrome_trace(recorder)
    atomic_write(
        path, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    return sum(
        1 for event in document["traceEvents"] if event.get("ph") == "X"
    )
