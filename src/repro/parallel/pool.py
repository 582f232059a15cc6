"""Sharded process-pool execution with merged telemetry.

The execution layer under every parallel fan-out in the pipeline
(sketch-plane building, campaign simulation). One call shape:

    results = run_sharded(worker, payload, shards, workers=N)

``worker(payload, shard)`` is a module-level function; ``payload`` is
the large shared input (a record grouping, a config) and each ``shard``
is a small descriptor of one slice of the work (region names).
Results come back as a list in *shard order*, regardless of
completion order, so parallel output merges deterministically.

Design decisions, in order of importance:

1. **The payload travels by fork, not pickle.** Workers are forked
   (copy-on-write) after the payload is stashed in a module global, so
   a multi-hundred-megabyte record batch costs nothing to "send". Only
   the shard descriptors, the results, and the telemetry snapshots
   cross the pipe. On platforms without ``fork`` the call degrades to
   the serial path — same results, one process.

2. **Telemetry survives the fork.** Each worker process resets its
   inherited default :class:`~repro.obs.registry.MetricsRegistry`
   before a shard, runs the shard under a ``span("shard")`` annotated
   with the worker's pid, then ships ``snapshot(include_digests=True)``
   home; the parent folds every snapshot into its own registry via
   :meth:`~repro.obs.registry.MetricsRegistry.merge` in shard order.
   Counters (quantile-cache hits, sketch updates) and span timers
   therefore read the same under ``iqb metrics`` whether the run was
   serial or sharded.

3. **Crash isolation names the shard.** A worker exception is caught
   in the worker, transported back (as the original exception when it
   pickles), and re-raised as :class:`ShardError` carrying the failed
   shard's key list — never a bare ``BrokenProcessPool`` with no clue
   which regions were in flight. A hard worker death (signal, OOM) and
   an untransportable result are mapped the same way from the future
   that observed them. Before giving up, a poisoned shard is retried
   *serially in the parent* (default on): transient worker faults heal
   with the run completing normally, and only a shard that fails twice
   raises — or, when the caller passes a ``quarantine`` list, is
   reported there (result ``None``) while the rest of the run finishes.

4. **Serial fallback is the same code path.** ``workers <= 1``, a
   single shard, an unavailable ``fork`` start method, or shard
   descriptors that don't pickle all run ``worker(payload, shard)``
   inline in-process — instruments then land in the parent registry
   directly, and failures raise the same :class:`ShardError`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import REGISTRY, counter, gauge, span
from repro.obs.spans import (
    TraceRecorder,
    get_trace_recorder,
    install_trace_recorder,
    set_remote_parent,
)

_SHARDS_COMPLETED = counter("parallel.shards.completed")
_SHARDS_FAILED = counter("parallel.shards.failed")
_SHARDS_RETRIED = counter("parallel.shards.retried")
_SHARDS_QUARANTINED = counter("parallel.shards.quarantined")
_SERIAL_FALLBACKS = counter("parallel.serial_fallbacks")
_POOL_WORKERS = gauge("parallel.pool.workers")

#: The fork-shared payload: set by :func:`run_sharded` immediately
#: before the pool forks, inherited copy-on-write by every worker,
#: cleared when the fan-out finishes. Never pickled.
_PAYLOAD: Any = None

ShardWorker = Callable[[Any, Any], Any]


class ShardError(RuntimeError):
    """One shard of a parallel fan-out failed.

    Carries the shard's index and key list (the regions / ranges it
    covered) plus the underlying cause, so an operator sees *which*
    slice of the work died instead of a bare pool error.
    """

    def __init__(
        self, shard_index: int, keys: Sequence[Any], cause: object
    ) -> None:
        self.shard_index = shard_index
        self.keys = tuple(keys)
        self.cause = cause
        shown = ", ".join(str(key) for key in self.keys[:8])
        if len(self.keys) > 8:
            shown += ", ..."
        super().__init__(
            f"shard {shard_index} ({len(self.keys)} key(s): {shown}) "
            f"failed: {cause}"
        )


def fork_available() -> bool:
    """Whether this platform can fork worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def _shipped_spans(
    recorder: Optional[TraceRecorder],
) -> Optional[Tuple[float, List[Dict[str, object]]]]:
    """A worker recorder's records as a picklable adopt() payload.

    Field values are coerced the same way the Chrome exporter coerces
    them, so an unpicklable annotation object cannot poison the shard
    result on its way home.
    """
    if recorder is None:
        return None
    entries: List[Dict[str, object]] = []
    for record in recorder.records():
        entry = dataclasses.asdict(record)
        entry["fields"] = {
            key: value if isinstance(value, (int, float, bool)) else str(value)
            for key, value in record.fields.items()
        }
        entries.append(entry)
    return (recorder.started_unix, entries)


def _run_shard(
    worker: ShardWorker,
    index: int,
    shard: Any,
    trace_ctx: Optional[Tuple[str, str]] = None,
) -> Tuple:
    """Worker-side wrapper: isolate telemetry, contain failures.

    Runs in the forked child. The registry reset makes the returned
    snapshot cover exactly this shard even when the pool reuses one
    process for several shards (without it a reused worker would ship
    cumulative counts and the parent would double-merge). Trace
    isolation mirrors it: the fork-inherited trace recorder (when the
    parent is tracing) is replaced with a private one whose records
    ship home with the result, and ``trace_ctx`` — the parent fan-out
    span's (trace_id, span_id) — is adopted so the shard span nests
    under it in the merged trace.
    """
    from repro.obs import reset

    reset()
    recorder: Optional[TraceRecorder] = None
    if get_trace_recorder() is not None:
        recorder = TraceRecorder()
        install_trace_recorder(recorder)
    if trace_ctx is not None:
        set_remote_parent(*trace_ctx)
    try:
        with span("shard", shard=index, worker=os.getpid()):
            result = worker(_PAYLOAD, shard)
        return (
            "ok",
            index,
            result,
            REGISTRY.snapshot(include_digests=True),
            _shipped_spans(recorder),
        )
    except Exception as exc:
        transported: object = (
            exc if _picklable(exc) else f"{type(exc).__name__}: {exc}"
        )
        return (
            "error",
            index,
            transported,
            REGISTRY.snapshot(include_digests=True),
            _shipped_spans(recorder),
        )


def _shard_keys_for(
    shards: Sequence[Any], shard_keys: Optional[Sequence[Sequence[Any]]]
) -> List[Tuple[Any, ...]]:
    if shard_keys is not None:
        return [tuple(keys) for keys in shard_keys]
    return [
        tuple(shard) if isinstance(shard, (tuple, list)) else (shard,)
        for shard in shards
    ]


def _run_serial(
    worker: ShardWorker,
    payload: Any,
    shards: Sequence[Any],
    keys: List[Tuple[Any, ...]],
    quarantine: Optional[List[ShardError]] = None,
) -> List[Any]:
    """In-process execution with the same ShardError contract."""
    _SERIAL_FALLBACKS.inc()
    results: List[Any] = []
    for index, shard in enumerate(shards):
        try:
            with span("shard", shard=index, worker=os.getpid()):
                results.append(worker(payload, shard))
        except Exception as exc:
            _SHARDS_FAILED.inc()
            error = ShardError(index, keys[index], exc)
            error.__cause__ = exc
            if quarantine is not None:
                _SHARDS_QUARANTINED.inc()
                quarantine.append(error)
                results.append(None)
                continue
            raise error from exc
        _SHARDS_COMPLETED.inc()
    return results


def _recover_shard(
    worker: ShardWorker,
    payload: Any,
    shard: Any,
    index: int,
    keys: List[Tuple[Any, ...]],
    cause: object,
    retry_failed: bool,
    quarantine: Optional[List[ShardError]],
    results: List[Any],
) -> None:
    """Handle one poisoned shard: retry serially, then quarantine/raise.

    The retry runs in the parent process, so its telemetry lands in the
    parent registry directly and a crash-prone worker environment (OOM,
    signal) is taken out of the equation for the second attempt.
    """
    _SHARDS_FAILED.inc()
    error: ShardError
    if retry_failed:
        _SHARDS_RETRIED.inc()
        try:
            with span("shard_retry", shard=index, worker=os.getpid()):
                results[index] = worker(payload, shard)
        except Exception as retry_exc:
            error = ShardError(index, keys[index], retry_exc)
            error.__cause__ = retry_exc
        else:
            _SHARDS_COMPLETED.inc()
            return
    else:
        error = ShardError(index, keys[index], cause)
        if isinstance(cause, BaseException):
            error.__cause__ = cause
    if quarantine is not None:
        _SHARDS_QUARANTINED.inc()
        quarantine.append(error)
        results[index] = None
        return
    raise error


def run_sharded(
    worker: ShardWorker,
    payload: Any,
    shards: Sequence[Any],
    workers: int,
    shard_keys: Optional[Sequence[Sequence[Any]]] = None,
    retry_failed: bool = True,
    quarantine: Optional[List[ShardError]] = None,
) -> List[Any]:
    """Run ``worker(payload, shard)`` over every shard; results in order.

    Args:
        worker: a module-level function (it crosses the process
            boundary by reference) taking ``(payload, shard)``.
        payload: the shared input, delivered to workers by fork
            inheritance — never pickled, so size is effectively free.
        shards: small per-shard descriptors (region-name tuples);
            these *are* pickled, keep them light.
        workers: target pool size; the pool never exceeds the shard
            count. ``<= 1`` runs serially.
        shard_keys: optional per-shard key lists for error reporting;
            defaults to the shard descriptors themselves.
        retry_failed: retry a poisoned shard serially in the parent
            before giving up on it (transient worker faults — a killed
            process, an untransportable result — heal in place;
            deterministic worker exceptions fail again and surface).
        quarantine: when given, shards that still fail after the retry
            are reported here as :class:`ShardError` entries with a
            ``None`` result, and the run completes instead of raising.

    Returns:
        Per-shard results, index-aligned with ``shards`` regardless of
        completion order (``None`` for quarantined shards).

    Raises:
        ShardError: when any shard fails (worker exception, worker
            process death, or untransportable result), its serial retry
            also fails, and no ``quarantine`` was given — naming the
            shard's keys. Worker telemetry collected before the failure
            is still merged.
    """
    shards = list(shards)
    keys = _shard_keys_for(shards, shard_keys)
    if len(keys) != len(shards):
        raise ValueError(
            f"shard_keys length {len(keys)} != shard count {len(shards)}"
        )
    if not shards:
        return []
    if (
        workers <= 1
        or len(shards) <= 1
        or not fork_available()
        or not _picklable(shards)
    ):
        return _run_serial(worker, payload, shards, keys, quarantine)

    global _PAYLOAD
    pool_size = min(workers, len(shards))
    _POOL_WORKERS.set(pool_size)
    _PAYLOAD = payload
    results: List[Any] = [None] * len(shards)
    try:
        with span(
            "parallel_fanout", workers=pool_size, shards=len(shards)
        ) as fanout:
            trace_ctx = (fanout.trace_id, fanout.span_id)
            with ProcessPoolExecutor(
                max_workers=pool_size,
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                futures = [
                    pool.submit(
                        _run_shard, worker, index, shard, trace_ctx
                    )
                    for index, shard in enumerate(shards)
                ]
                for index, future in enumerate(futures):
                    try:
                        (
                            status,
                            _,
                            outcome,
                            metrics,
                            shipped,
                        ) = future.result()
                    except BrokenProcessPool as exc:
                        _recover_shard(
                            worker, payload, shards[index], index, keys,
                            f"worker process died: {exc}",
                            retry_failed, quarantine, results,
                        )
                        continue
                    except Exception as exc:
                        # The shard "succeeded" but its result (or the
                        # transported exception) could not cross the
                        # pipe — e.g. an unpicklable return value.
                        _recover_shard(
                            worker, payload, shards[index], index, keys,
                            f"shard result not transportable: {exc}",
                            retry_failed, quarantine, results,
                        )
                        continue
                    if metrics:
                        REGISTRY.merge(metrics)
                    if shipped is not None:
                        recorder = get_trace_recorder()
                        if recorder is not None:
                            recorder.adopt(*shipped)
                    if status == "error":
                        _recover_shard(
                            worker, payload, shards[index], index, keys,
                            outcome, retry_failed, quarantine, results,
                        )
                        continue
                    _SHARDS_COMPLETED.inc()
                    results[index] = outcome
    finally:
        _PAYLOAD = None
    return results
