"""Process-wide metrics registry: counters, gauges, timers.

Operational telemetry for the barometer pipeline. The registry is the
single place every subsystem reports into — probe retries, skipped
ingest lines, quantile-cache hits — so an operator (or the ``iqb
metrics`` subcommand) can snapshot the whole pipeline's health in one
call, the way Feamster & Livingood argue measurement *infrastructure*
health must ship alongside the measurements themselves.

Design constraints, in order:

1. **Near-zero cost on hot paths.** Instruments are plain objects with
   ``__slots__``; ``Counter.inc`` is one attribute add. Callers bind
   instruments once at module import time and hold the reference —
   :meth:`MetricsRegistry.reset` zeroes instruments *in place* rather
   than replacing them, so module-level bindings never go stale.
2. **No mandatory configuration.** The default registry exists at
   import; counting is always on (it is cheaper than checking a flag).
   Only *logging* has an enable/disable story (see :mod:`.logs`).
3. **Rich timers without new dependencies.** :class:`Timer` feeds a
   :class:`~repro.measurements.tdigest.TDigest`, so snapshots report
   p50/p95/max latency from bounded memory (the digest import is lazy
   to keep ``repro.obs`` free of import cycles).

Instrument names are dotted paths, coarse-to-fine:
``<subsystem>.<object>.<event>`` — e.g. ``probe.runner.retried``,
``ingest.jsonl.skipped``, ``quantile_cache.columnar.hits``. The full
naming scheme is documented in ``docs/methodology.md``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measurements.tdigest import TDigest


class Counter:
    """A monotonically increasing count (resettable to zero)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        self.value += amount

    def reset(self) -> None:
        """Zero the count in place (the instrument object survives)."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge upward."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the gauge downward."""
        self.value -= amount

    def reset(self) -> None:
        """Zero the gauge in place."""
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Timer:
    """A duration/size histogram backed by a t-digest.

    ``observe`` takes seconds (or any non-negative magnitude); the
    snapshot reports count, total, and p50/p95/max from the digest.
    Observing zero is fine; the digest is created lazily on the first
    observation so building a registry costs nothing.

    Unlike counter/gauge updates, digest operations are guarded by a
    per-timer lock: the t-digest *mutates* internal centroid lists on
    both insert and quantile (it compresses lazily), so a telemetry
    scrape snapshotting quantiles while a pipeline thread observes
    would otherwise race on shared list state. Timers fire per stage or
    per probe — orders of magnitude rarer than counter ticks — so the
    lock is off every per-record path.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "max_value",
        "exemplar",
        "_digest",
        "_digest_lock",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        #: Largest observation so far (None before any observation).
        self.max_value: Optional[float] = None
        #: Trace context of the largest observation — the span id a
        #: caller attached via ``observe(..., exemplar=...)`` — so a
        #: slow outlier in a timer points straight at its slice in the
        #: Chrome trace export. None until an exemplar-bearing
        #: observation sets the maximum.
        self.exemplar: Optional[str] = None
        self._digest: Optional["TDigest"] = None
        self._digest_lock = threading.Lock()

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        """Record one observation (seconds for latency timers).

        ``exemplar`` optionally attaches a span id to the observation;
        the timer keeps the exemplar of its largest observation (the
        slow-span pointer an operator actually wants).
        """
        self.count += 1
        self.total += value
        if self.max_value is None or value >= self.max_value:
            self.max_value = value
            if exemplar is not None:
                self.exemplar = exemplar
        with self._digest_lock:
            if self._digest is None:
                # Lazy: repro.obs must not import repro.measurements at
                # module load (measurements.io imports repro.obs back).
                from repro.measurements.tdigest import TDigest

                self._digest = TDigest()
            # The digest rejects non-positive weights, not values; but
            # a zero-duration stage is a legitimate observation, so
            # clamp nothing and add the value directly.
            self._digest.add(value)

    def time(self) -> "_TimerContext":
        """Context manager recording the block's wall-clock duration."""
        return _TimerContext(self)

    def quantile(self, percentile: float) -> Optional[float]:
        """Estimated percentile of the observations (None when empty)."""
        with self._digest_lock:
            if self._digest is None:
                return None
            return self._digest.quantile_or_none(percentile)

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of the observations (None when empty)."""
        return self.total / self.count if self.count else None

    def reset(self) -> None:
        """Drop all observations in place."""
        self.count = 0
        self.total = 0.0
        self.max_value = None
        self.exemplar = None
        with self._digest_lock:
            self._digest = None

    def __repr__(self) -> str:
        return f"Timer({self.name}: n={self.count}, total={self.total:.6f}s)"


class _TimerContext:
    """``with timer.time():`` — observes the elapsed wall clock."""

    __slots__ = ("_timer", "_start")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        import time

        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        import time

        self._timer.observe(time.perf_counter() - self._start)


class MetricsRegistry:
    """Get-or-create home for every instrument in the process.

    Instrument creation is locked (idempotent across threads); the
    increment/observe paths are lock-free — a racing ``+=`` can at
    worst lose a tick, which is the standard trade for not serializing
    every hot-path event through a mutex.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    # -- instrument access (get-or-create, stable identity) ----------------

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first request)."""
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first request)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def timer(self, name: str) -> Timer:
        """The timer named ``name`` (created on first request)."""
        instrument = self._timers.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._timers.setdefault(name, Timer(name))
        return instrument

    def __iter__(self) -> Iterator[str]:
        yield from sorted(self._counters)
        yield from sorted(self._gauges)
        yield from sorted(self._timers)

    # -- snapshot / reset ---------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-compatible dump of every instrument's current state.

        The instrument maps are materialized under the creation lock so
        a snapshot racing a get-or-create on another thread never
        iterates a mutating dict; individual values are then read
        lock-free (a torn counter read costs at most one tick, the same
        trade the increment path makes).
        """
        with self._lock:
            counter_items = sorted(self._counters.items())
            gauge_items = sorted(self._gauges.items())
            timer_items = sorted(self._timers.items())
        counters = {
            name: instrument.value for name, instrument in counter_items
        }
        gauges = {
            name: instrument.value for name, instrument in gauge_items
        }
        timers: Dict[str, object] = {}
        for name, instrument in timer_items:
            entry: Dict[str, object] = {
                "count": instrument.count,
                "total_s": instrument.total,
            }
            if instrument.count:
                entry["mean_s"] = instrument.mean
                entry["p50_s"] = instrument.quantile(50.0)
                entry["p95_s"] = instrument.quantile(95.0)
                entry["max_s"] = instrument.quantile(100.0)
                # Emitted only when set, so exemplar-free snapshots
                # keep their pre-existing shape.
                if instrument.exemplar is not None:
                    entry["exemplar"] = instrument.exemplar
            timers[name] = entry
        return {"counters": counters, "gauges": gauges, "timers": timers}

    def reset(self) -> None:
        """Zero every instrument in place.

        Module-level references held by instrumented code stay valid:
        the instruments themselves survive, only their state clears.
        """
        with self._lock:
            for counter in self._counters.values():
                counter.reset()
            for gauge in self._gauges.values():
                gauge.reset()
            for timer in self._timers.values():
                timer.reset()

    # -- rendering ----------------------------------------------------------

    def render_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document."""
        import json

        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """The snapshot as Prometheus text exposition (format 0.0.4).

        See :mod:`repro.obs.exposition` for the name-mapping rules.
        The import is lazy so the registry module itself stays free of
        intra-package import edges.
        """
        from .exposition import render_prometheus

        return render_prometheus(self)

    def render_text(self) -> str:
        """Human-readable one-line-per-instrument rendering."""
        snap = self.snapshot()
        lines = []
        for name, value in snap["counters"].items():
            lines.append(f"counter {name} = {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"gauge   {name} = {value}")
        for name, stats in snap["timers"].items():
            if stats["count"]:
                lines.append(
                    f"timer   {name}: n={stats['count']} "
                    f"total={stats['total_s']:.6f}s "
                    f"p50={stats['p50_s']:.6f}s "
                    f"p95={stats['p95_s']:.6f}s "
                    f"max={stats['max_s']:.6f}s"
                )
            else:
                lines.append(f"timer   {name}: n=0")
        return "\n".join(lines)


#: The process-wide default registry. Subsystems bind instruments off
#: this at import time; tests may also build private registries.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Get-or-create a counter on the default registry."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return REGISTRY.gauge(name)


def timer(name: str) -> Timer:
    """Get-or-create a timer on the default registry."""
    return REGISTRY.timer(name)


def snapshot() -> Dict[str, Dict[str, object]]:
    """Snapshot the default registry."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Zero the default registry in place."""
    REGISTRY.reset()
