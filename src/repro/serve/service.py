"""The scoring service: cached, coalesced queries over a live plane.

:class:`ScoringService` is the engine behind ``iqb serve`` — it owns
one measurement plane (a
:class:`~repro.measurements.columnar.ColumnarStore` or a
:class:`~repro.measurements.sketchplane.SketchPlane`), one scoring
config, and answers the query shapes the HTTP layer exposes:

* :meth:`scores`     — every region's composite ``S_IQB`` (the
  ``score_values`` scores-only fast path);
* :meth:`breakdowns` / :meth:`breakdown` — full per-region
  :class:`~repro.core.scoring.ScoreBreakdown` trees, bit-identical to
  ``iqb score --json`` on the same plane state (both run
  :func:`~repro.core.scoring.score_regions`);
* :meth:`national`   — the population-weighted rollup;
* :meth:`ingest`     — append measurements, which is what invalidates.

Consistency model
-----------------

Every result is stamped with the plane generation it was computed
from. One plane lock serializes ingest against cache-miss computes:
``append`` bumps the generation only after the plane is fully
consistent, and a compute re-reads the generation *inside* the lock,
so a stamped result can never reflect a partially-appended batch.
Cache hits take no lock at all — the steady-state read path is a dict
lookup.

A burst of concurrent misses for the same (shape, digest, generation)
key single-flights onto one kernel sweep; per-region breakdown
requests share one ``score_regions`` sweep through the breakdown
cache, so N regions × M clients still cost one compute per
generation. An optional batch window makes the leader linger before
sweeping so stragglers of the same burst coalesce instead of missing
the flight.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.analysis.national import NationalScore, national_score
from repro.core.config import IQBConfig, QuantileMode
from repro.core.kernel import score_values
from repro.core.scoring import (
    QUANTILE_SOURCES,
    ScoreBreakdown,
    effective_modes,
    score_regions,
)
from repro.measurements.columnar import ColumnBatch
from repro.obs.manifest import config_digest
from repro.obs.registry import counter

from .cache import ScoreCache, SingleFlight

_SWEEPS = counter("serve.compute.sweeps")


@dataclass(frozen=True)
class ScoresResult:
    """One generation's composite scores (the /v1/scores payload)."""

    generation: int
    values: Mapping[str, float]
    quantile_source: str


@dataclass(frozen=True)
class BreakdownsResult:
    """One generation's full breakdown trees."""

    generation: int
    regions: Mapping[str, ScoreBreakdown]


@dataclass(frozen=True)
class NationalResult:
    """One generation's national rollup."""

    generation: int
    national: NationalScore


class ScoringService:
    """Query engine over one plane: generation-cached, single-flighted.

    Args:
        store: the measurement plane — a ``ColumnarStore`` (exact,
            optionally with an attached sketch plane) or a bare
            ``SketchPlane`` (streaming-only).
        config: the scoring configuration (fixed for the service's
            lifetime; its digest is half of the ETag).
        populations: region → population for :meth:`national`;
            ``None`` weighs every scored region equally.
        quantiles: global quantile-plane override (``"exact"`` /
            ``"sketch"`` / ``None`` = follow the config policy).
        cache_size: LRU bound on retained results (each entry is a
            whole sweep's output; breakdown trees dominate memory).
        batch_window_s: how long a cache-miss leader waits before
            sweeping, so a request burst lands on one compute. 0
            (default) sweeps immediately.
    """

    def __init__(
        self,
        store: "object",
        config: IQBConfig,
        populations: Optional[Mapping[str, float]] = None,
        quantiles: Optional[str] = None,
        cache_size: int = 64,
        batch_window_s: float = 0.0,
    ) -> None:
        if quantiles is not None and quantiles not in QUANTILE_SOURCES:
            raise ValueError(
                f"unknown quantile source: {quantiles!r} "
                f"(have {QUANTILE_SOURCES})"
            )
        native = getattr(store, "QUANTILE_SOURCE", "exact")
        if native == "sketch" and quantiles == "exact":
            raise ValueError(
                "a sketch plane carries no exact quantile plane; serve "
                "the raw records to use quantiles='exact'"
            )
        self._store = store
        self._config = config
        self._populations = (
            dict(populations) if populations is not None else None
        )
        self._quantiles = quantiles
        self._batch_window_s = float(batch_window_s)
        self.config_sha256 = config_digest(config)
        if native == "sketch":
            # A bare sketch plane is its own (only) quantile source;
            # score_values resolves the native cube with modes=None.
            self._modes: Optional[Tuple[QuantileMode, ...]] = None
            self._source = "sketch"
        else:
            self._modes = effective_modes(config, quantiles)
            if all(m is QuantileMode.EXACT for m in self._modes):
                self._source = "exact"
            elif all(m is QuantileMode.SKETCH for m in self._modes):
                self._source = "sketch"
            else:
                self._source = "mixed"
        # One lock orders ingest against cache-miss computes: a sweep
        # holding it sees either none or all of any appended batch.
        self._plane_lock = threading.Lock()
        self._cache = ScoreCache(maxsize=cache_size)
        self._flight = SingleFlight()

    # -- plane state --------------------------------------------------------

    @property
    def generation(self) -> int:
        """The plane's current change stamp."""
        return int(self._store.generation)

    @property
    def empty(self) -> bool:
        """True while the plane holds no measurements."""
        return len(self._store) == 0

    def etag(self, generation: Optional[int] = None) -> str:
        """The (strong) entity tag for one generation's results.

        ``"<config digest prefix>-<generation>"`` — changes iff the
        config or the plane does, which is exactly when any cached
        representation goes stale.
        """
        stamp = self.generation if generation is None else generation
        return f'"{self.config_sha256[:12]}-{stamp}"'

    def ingest(self, records: Iterable["object"]) -> int:
        """Append measurements to the plane; returns records added.

        ``records`` is a :class:`~repro.measurements.columnar.ColumnBatch`
        (what ``serve --follow`` decodes) or measurement records. Runs
        under the plane lock, so no concurrent sweep observes a
        half-appended batch; the generation bump (inside ``append`` /
        ``extend``) is what retires every cached result.
        """
        batch = (
            records
            if isinstance(records, (list, ColumnBatch))
            else list(records)
        )
        if not len(batch):
            return 0
        with self._plane_lock:
            append = getattr(self._store, "append", None)
            if append is not None:
                append(batch)
            else:
                self._store.extend(batch)
        return len(batch)

    # -- the cached sweep core ----------------------------------------------

    def _sweep(self, shape: str, compute_locked):
        """Serve one query shape: cache → single-flight → locked compute.

        ``compute_locked(generation)`` runs under the plane lock with
        the *re-read* generation and must return a result stamped with
        it. The result is cached under the generation it was computed
        from — not the (possibly stale) one the request observed — so
        a result can only ever be served for the plane state it
        actually reflects.
        """
        observed = self.generation
        key = (shape, self.config_sha256, observed)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        def leader():
            if self._batch_window_s > 0.0:
                # Let the rest of the burst pile onto this flight
                # before paying for the sweep once.
                time.sleep(self._batch_window_s)
            with self._plane_lock:
                fresh = self.generation
                result = compute_locked(fresh)
            self._cache.put((shape, self.config_sha256, fresh), result)
            return result

        result, _led = self._flight.run(key, leader)
        return result

    # -- query shapes --------------------------------------------------------

    def scores(self) -> ScoresResult:
        """Every region's composite score at the current generation."""

        def compute(generation: int) -> ScoresResult:
            _SWEEPS.inc()
            values = score_values(self._store, self._config, modes=self._modes)
            return ScoresResult(
                generation=generation,
                values=values,
                quantile_source=self._source,
            )

        return self._sweep("values", compute)

    def breakdowns(self) -> BreakdownsResult:
        """Full breakdown trees, bit-identical to ``iqb score --json``."""

        def compute(generation: int) -> BreakdownsResult:
            _SWEEPS.inc()
            scored = score_regions(
                self._store, self._config, quantiles=self._quantiles
            )
            return BreakdownsResult(generation=generation, regions=scored)

        return self._sweep("breakdowns", compute)

    def breakdown(self, region: str) -> Tuple[int, ScoreBreakdown]:
        """One region's breakdown off the shared per-generation sweep.

        A burst of per-region requests is answered by a single
        ``score_regions`` sweep — this is the batch-window payoff.

        Raises:
            KeyError: when the region is not in the plane.
        """
        result = self.breakdowns()
        return result.generation, result.regions[region]

    def national(self) -> NationalResult:
        """The population-weighted rollup at the current generation.

        Rides the :meth:`scores` sweep (scores-only values are all
        Eq. 5 needs); with no population table every region weighs the
        same, which is the honest default for fixture campaigns.
        """
        scores = self.scores()

        def compute(generation: int) -> NationalResult:
            populations = self._populations
            if populations is None:
                populations = {region: 1.0 for region in scores.values}
            rollup = national_score(scores.values, populations)
            return NationalResult(
                generation=scores.generation, national=rollup
            )

        # Cheap relative to a kernel sweep, but cached so repeated
        # polls are dict lookups; keyed by the scores result's own
        # stamp (not a re-read) to stay consistent with it.
        observed = scores.generation
        key = ("national", self.config_sha256, observed)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = compute(observed)
        self._cache.put(key, result)
        return result

    def config_document(self) -> Dict[str, object]:
        """The /v1/config payload: digest, knobs, and the config."""
        return {
            "config_sha256": self.config_sha256,
            "quantiles": self._quantiles,
            "quantile_source": self._source,
            "cache_size": self._cache.maxsize,
            "batch_window_s": self._batch_window_s,
            "config": json.loads(self._config.to_json()),
        }
