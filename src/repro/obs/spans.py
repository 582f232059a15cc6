"""Lightweight spans: timed, nested pipeline stages.

A span is a context manager marking one pipeline stage — "ingest",
"score_regions", "national.rollup" — recording its wall-clock duration
into the metrics registry (timer ``span.<name>``) and, at DEBUG level,
logging a structured enter/exit pair. Spans nest: each thread keeps a
span stack, and a span knows its slash-joined ``path`` and ``depth``,
so a JSONL log of a pipeline run reconstructs the stage tree.

Cost model: an enabled span is two ``perf_counter`` calls, one id
draw, one digest insert, and (only when DEBUG logging is on) two log
records. There is deliberately no sampling machinery — this is stage
timing for a batch pipeline — but every span does carry a minimal
trace context (``trace_id`` / ``span_id`` / ``parent_id``): a root
span starts a new trace and children inherit it from the stack. A
span's duration lands in the ``span.<name>`` timer with the span id as
its *exemplar*, so the slowest observation points straight back at its
trace slice.

Usage::

    from repro.obs import span

    with span("score", regions=len(batch)):
        with span("group"):
            ...
        with span("quantiles"):
            ...
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .logs import get_logger
from .registry import counter, timer

_logger = get_logger("repro.obs.span")

_state = threading.local()

#: Out-of-order span exits repaired by popping stale stack entries (see
#: :meth:`Span.__exit__`). A non-zero value means some code path holds
#: spans across generator/coroutine suspension points.
_MISMATCH = counter("span.stack.mismatch")

#: The process-wide trace recorder, or None when tracing is off. A
#: single ``is None`` check per span exit is the entire cost of the
#: disabled path.
_trace_recorder: Optional["TraceRecorder"] = None


def _stack() -> List["Span"]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    return stack


def _new_id() -> str:
    """A fresh 64-bit hex id (trace and span ids share the format)."""
    return os.urandom(8).hex()


def current_span() -> Optional["Span"]:
    """The innermost active span on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


def clear_span_stack() -> None:
    """Drop every span still open on this thread.

    A thread that runs one task after another calls this before each,
    so a span an earlier task left open cannot parent the next task's
    spans; each dropped entry counts one ``span.stack.mismatch``.
    """
    stack = _stack()
    if stack:
        _MISMATCH.inc(len(stack))
        stack.clear()


class Span:
    """One timed pipeline stage (use via :func:`span`)."""

    __slots__ = (
        "name",
        "fields",
        "path",
        "depth",
        "duration",
        "trace_id",
        "span_id",
        "parent_id",
        "_start",
    )

    def __init__(self, name: str, fields: Dict[str, object]) -> None:
        self.name = name
        self.fields = fields
        self.path = name  # finalized on __enter__ from the active stack
        self.depth = 0
        #: Wall-clock seconds, populated on exit (None while running).
        self.duration: Optional[float] = None
        #: Trace context, finalized on __enter__: the root span of a
        #: thread mints a new trace id; nested spans inherit the
        #: parent's.
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self._start = 0.0

    def annotate(self, **fields: object) -> None:
        """Attach extra fields mid-flight (shown on the exit event)."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            parent = stack[-1]
            self.path = f"{parent.path}/{self.name}"
            self.depth = parent.depth + 1
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = _new_id()
        self.span_id = _new_id()
        stack.append(self)
        if _logger.isEnabledFor(10):  # logging.DEBUG
            _logger.debug(
                "span enter",
                extra={"ctx": {"span": self.path, **self.fields}},
            )
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self.duration = time.perf_counter() - self._start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:
            # Out-of-order exit: a span held across a suspended (and
            # never resumed) generator or an abandoned context left
            # stale entries above us. Leaving them would silently
            # corrupt path/depth for every later span on this thread,
            # so pop down to and including self, counting each stale
            # entry repaired; if self is not on the stack at all (its
            # frame was already swept), count one mismatch and leave
            # the stack alone.
            position = next(
                (
                    index
                    for index in range(len(stack) - 1, -1, -1)
                    if stack[index] is self
                ),
                None,
            )
            if position is None:
                _MISMATCH.inc()
            else:
                _MISMATCH.inc(len(stack) - position - 1)
                del stack[position:]
        timer(f"span.{self.name}").observe(self.duration, exemplar=self.span_id)
        recorder = _trace_recorder
        if recorder is not None:
            recorder.record(self)
        if _logger.isEnabledFor(10):  # logging.DEBUG
            ctx: Dict[str, object] = {
                "span": self.path,
                "seconds": round(self.duration, 6),
                **self.fields,
            }
            if exc_type is not None:
                ctx["error"] = getattr(exc_type, "__name__", str(exc_type))
            _logger.debug("span exit", extra={"ctx": ctx})
        # Exceptions always propagate (context manager returns None).


def span(name: str, **fields: object) -> Span:
    """A new span context manager for the named pipeline stage."""
    return Span(name, dict(fields))


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, as captured by a :class:`TraceRecorder`.

    ``start_s`` is seconds since the recorder's own epoch (the moment
    it was constructed), which keeps every record on one monotonic
    timeline regardless of thread; spans that were already running when
    the recorder was installed clamp to 0.
    """

    name: str
    path: str
    depth: int
    start_s: float
    duration_s: float
    thread_id: int
    thread_name: str
    fields: Dict[str, object] = field(default_factory=dict)
    #: Trace context (empty for a span recorded without entering).
    trace_id: str = ""
    span_id: str = ""
    parent_id: Optional[str] = None


class TraceRecorder:
    """Collects every completed span for post-run trace export.

    Installed per-run via :func:`install_trace_recorder` (the CLI does
    this for ``--trace-out``); recording is thread-safe and append-only,
    so a multi-threaded pipeline interleaves safely. The recorder sees
    spans on *exit* — a span still running at export time is simply
    absent, which is the right semantics for a run-scoped dump.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._epoch = time.perf_counter()
        self.started_unix = time.time()

    def record(self, completed: Span) -> None:
        """Capture one completed span (called from ``Span.__exit__``)."""
        current = threading.current_thread()
        entry = SpanRecord(
            name=completed.name,
            path=completed.path,
            depth=completed.depth,
            start_s=max(0.0, completed._start - self._epoch),
            duration_s=completed.duration or 0.0,
            thread_id=current.ident or 0,
            thread_name=current.name,
            fields=dict(completed.fields),
            trace_id=completed.trace_id,
            span_id=completed.span_id,
            parent_id=completed.parent_id,
        )
        with self._lock:
            self._records.append(entry)

    def records(self) -> Tuple[SpanRecord, ...]:
        """Everything recorded so far, in completion order."""
        with self._lock:
            return tuple(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def install_trace_recorder(recorder: TraceRecorder) -> None:
    """Make ``recorder`` the process-wide span sink (replaces any)."""
    global _trace_recorder
    _trace_recorder = recorder


def uninstall_trace_recorder() -> Optional[TraceRecorder]:
    """Stop recording spans; returns the recorder that was active."""
    global _trace_recorder
    recorder = _trace_recorder
    _trace_recorder = None
    return recorder


def get_trace_recorder() -> Optional[TraceRecorder]:
    """The active trace recorder, if any."""
    return _trace_recorder
