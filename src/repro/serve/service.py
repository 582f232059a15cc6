"""The scoring service: one generation's scores pass over a live plane.

:class:`ScoringService` is the engine behind ``iqb serve`` — it owns
one measurement plane (a
:class:`~repro.measurements.columnar.ColumnarStore` or a
:class:`~repro.measurements.sketchplane.SketchPlane`), one scoring
config, and answers the query shapes the HTTP layer exposes:

* :meth:`scores`    — every region's composite ``S_IQB`` off one
  scores-only tensor pass (:func:`~repro.core.kernel.scored_store`);
* :meth:`breakdown` — one region's
  :class:`~repro.core.scoring.ScoreBreakdown` tree, rebuilt from that
  region's row of the same pass and bit-identical to its tree in
  ``iqb score --json`` on the same plane state;
* :meth:`national`  — the population-weighted rollup;
* :meth:`ingest`    — append measurements, which is what invalidates.

Consistency model
-----------------

Every result is stamped with the plane generation it was computed
from. The service holds one scores pass, the current generation's;
generations only grow, so no read can ask for an older one. A read
whose generation matches the held pass takes no lock: one attribute
read and one integer compare. A miss takes the plane lock, which also
serializes ingest: ``append`` bumps the generation only after the
plane is fully consistent, and the miss re-reads the generation
*inside* the lock, so a stamped result can never reflect a
partially-appended batch.

Misses that arrive while a sweep runs wait for it on the plane lock,
then find the pass held and share it (``serve.coalesced`` counts
them), so a burst of readers after an ingest costs one sweep. That
scores pass is the only sweep a generation runs: it keeps its cube and
tensors, and a per-region read rebuilds that one region's tree from
them, so N regions × M clients cost one tensor pass plus N one-row
rebuilds per generation (the HTTP layer keeps each rendered region,
so a repeat read rebuilds nothing). A pass that raises ``DataError``
is held as its error, so a plane that cannot be scored also costs one
pass per generation: every read of it raises a new error with the same
type and text until an ingest bumps the generation.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Type, Union

from repro.analysis.national import NationalScore, national_score
from repro.core.config import IQBConfig, QuantileMode
from repro.core.exceptions import DataError
from repro.core.kernel import ScoredCube, scored_store
from repro.core.scoring import (
    QUANTILE_SOURCES,
    ScoreBreakdown,
    effective_modes,
)
from repro.measurements.columnar import ColumnBatch
from repro.obs.manifest import config_digest
from repro.obs.registry import counter

_SWEEPS = counter("serve.compute.sweeps")
_COALESCED = counter("serve.coalesced")


@dataclass(frozen=True)
class ScoresResult:
    """One generation's scores pass (the /v1/scores payload).

    ``scored`` is the pass itself, kept so that a region's breakdown
    tree can be rebuilt from its row when the region is read.
    """

    generation: int
    values: Mapping[str, float]
    quantile_source: str
    scored: ScoredCube


@dataclass(frozen=True)
class _FailedPass:
    """A generation whose scores pass raised: the error's type and args.

    Each read at that generation raises a new error built from them;
    re-raising one stored instance would grow its traceback per raise.
    """

    generation: int
    error: Type[DataError]
    args: Tuple[object, ...]


@dataclass(frozen=True)
class NationalResult:
    """One generation's national rollup."""

    generation: int
    national: NationalScore


class ScoringService:
    """Query engine over one plane, holding its current scores pass.

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
    """

    def __init__(
        self,
        store: "object",
        config: IQBConfig,
        populations: Optional[Mapping[str, float]] = None,
        quantiles: Optional[str] = None,
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
        # One lock orders ingest against sweeps: a sweep holding it
        # sees either none or all of any appended batch.
        self._plane_lock = threading.Lock()
        self._held: Union[ScoresResult, _FailedPass, None] = None

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
        config or the plane does, which is exactly when any held
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
        ``extend``) is what retires the held scores pass.
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

    # -- query shapes --------------------------------------------------------

    def scores(self) -> ScoresResult:
        """Every region's composite score at the current generation.

        Answered from the held pass when its generation is current;
        otherwise the plane lock is taken and the generation re-read,
        and the pass is run once and held unless a reader that got the
        lock first already did (this reader then counts
        ``serve.coalesced``). The result is stamped with the generation
        re-read under the lock, so it is only ever served for the plane
        state it reflects. A pass that raises ``DataError`` is held as
        its error: every read at that generation raises the same error
        without running the pass again, and the next ingest retries.
        """
        held = self._held
        if held is None or held.generation != self.generation:
            held = self._sweep()
        if isinstance(held, _FailedPass):
            raise held.error(*held.args)
        return held

    def _sweep(self) -> Union[ScoresResult, _FailedPass]:
        """The current generation's pass, run under the plane lock
        unless a reader that got the lock first already ran it."""
        with self._plane_lock:
            generation = self.generation
            held = self._held
            if held is not None and held.generation == generation:
                _COALESCED.inc()
                return held
            _SWEEPS.inc()
            try:
                scored = scored_store(
                    self._store, self._config, modes=self._modes
                )
            except DataError as exc:
                self._held = _FailedPass(generation, type(exc), exc.args)
                raise
            held = self._held = ScoresResult(
                generation=generation,
                values=scored.values(),
                quantile_source=self._source,
                scored=scored,
            )
            return held

    def breakdown(self, region: str) -> Tuple[int, ScoreBreakdown]:
        """One region's breakdown tree at the current generation.

        Rebuilt from the region's row of the :meth:`scores` pass, so it
        is bit-identical to that region's tree in ``iqb score --json``
        on the same plane state, and it costs one row's rebuild, not a
        sweep.

        Raises:
            KeyError: when the region is not in the plane (no tree is
                rebuilt).
            DataError: when the scores pass raises one.
        """
        result = self.scores()
        return result.generation, result.scored.breakdowns((region,))[region]

    def national(self) -> NationalResult:
        """The population-weighted rollup at the current generation.

        Computed from the :meth:`scores` pass on each call (scores-only
        values are all Eq. 5 needs, and the HTTP layer keeps the
        rendered rollup per generation); with no population table every
        region weighs the same, which is the honest default for fixture
        campaigns.
        """
        scores = self.scores()
        populations = self._populations
        if populations is None:
            populations = {region: 1.0 for region in scores.values}
        return NationalResult(
            generation=scores.generation,
            national=national_score(scores.values, populations),
        )

    def config_document(self) -> Dict[str, object]:
        """The /v1/config payload: digest, quantile plane, and the config."""
        return {
            "config_sha256": self.config_sha256,
            "quantiles": self._quantiles,
            "quantile_source": self._source,
            "config": json.loads(self._config.to_json()),
        }
