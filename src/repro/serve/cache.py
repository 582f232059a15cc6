"""Generation-keyed LRU score cache + single-flight request coalescing.

The two perf primitives under the serving layer:

* :class:`ScoreCache` — a thread-safe LRU over *immutable* scoring
  results keyed by ``(query shape, config digest, plane generation)``.
  There is no TTL and no explicit invalidation: ingest bumps the
  plane's generation stamp (see
  :attr:`~repro.measurements.columnar.ColumnarStore.generation`), so a
  stale entry simply stops being looked up and ages out of the LRU.
  Invalidation correctness costs one integer compare per request.

* :class:`SingleFlight` — collapses concurrent cache misses for the
  same key onto one in-flight compute. The first caller (the *leader*)
  runs the compute; every other caller for that key (a *follower*)
  blocks on the leader's event and shares the result — or the raised
  exception, so an error is reported to everyone who asked, once
  computed. N identical misses cost one kernel sweep, not N.

Metrics: ``serve.cache.hits`` / ``serve.cache.misses`` /
``serve.cache.evictions`` on the cache, ``serve.coalesced`` per
follower that piggybacked on a leader's compute.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.obs.registry import counter

_HITS = counter("serve.cache.hits")
_MISSES = counter("serve.cache.misses")
_EVICTIONS = counter("serve.cache.evictions")
_COALESCED = counter("serve.coalesced")

#: get() sentinel — cached values themselves are never None.
_ABSENT = object()


class ScoreCache:
    """Bounded thread-safe LRU for generation-stamped scoring results.

    Values must be treated as immutable by callers (they are handed
    out to concurrent readers). ``maxsize`` bounds the *count* of
    retained results — a scores pass keeps its cube and tensors, a
    few hundred KB at a few hundred regions, so the bound is what
    keeps a long-lived server from accreting one result set per
    ingest batch forever.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1: {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed to most-recently-used; else None."""
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is not _ABSENT:
                self._entries.move_to_end(key)
                _HITS.inc()
                return value
        _MISSES.inc()
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU past ``maxsize``."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                _EVICTIONS.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class _InFlight:
    """One leader's pending compute: followers wait on ``done``."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Per-key duplicate-call suppression for concurrent computes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: Dict[Hashable, _InFlight] = {}

    def run(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """``(value, led)`` — run ``compute`` once per concurrent key.

        ``led`` is True for the caller whose ``compute`` actually ran.
        Followers re-raise the leader's exception, so one failing
        sweep fails the whole burst identically. Results are *not*
        retained past the in-flight window — pairing with
        :class:`ScoreCache` is what makes repeats cheap.
        """
        with self._lock:
            flight = self._pending.get(key)
            if flight is None:
                flight = _InFlight()
                self._pending[key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            _COALESCED.inc()
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result, False
        try:
            flight.result = compute()
            return flight.result, True
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._pending.pop(key, None)
            flight.done.set()
