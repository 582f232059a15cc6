"""The IQB score: Eqs. 1-5 of the paper, with a full audit trail.

Scoring proceeds bottom-up through the three tiers exactly as §3
describes:

1. For every (use case *u*, requirement *r*, dataset *d*): aggregate the
   dataset's measurements with the percentile rule and compare against
   the threshold → **binary requirement score** ``S_{u,r,d} ∈ {0, 1}``.
2. Eq. 1 — **requirement agreement score**
   ``S_{u,r} = Σ_d w'_{u,r,d} · S_{u,r,d}``.
3. Eq. 2 — **use-case score** ``S_u = Σ_r w'_{u,r} · S_{u,r}``.
4. Eq. 4 — **IQB score** ``S_IQB = Σ_u w'_u · S_u``.

Every intermediate value is retained in the returned
:class:`ScoreBreakdown`, because the framework's whole point is
explainability: a decision-maker must be able to ask *why* a region
scored 0.62.

One implementation computes Eqs. 1-4: the batched kernel in
:mod:`repro.core.kernel`, run over an aggregate cube
``A[region, dataset, metric]``. Every entry point reduces its input to
such a cube first — :func:`score_regions` from a measurement store, a
sketch plane or a pre-grouped source mapping, and :func:`score_region`
from one region's sources. The scalar tier-by-tier walk is kept as the
test oracle (``tests/core/scalar_oracle.py``).

Missing data: a dataset whose weight is positive but which carries no
observations for a metric silently drops out of Eq. 1's normalization
(corroboration over the datasets that *did* measure). When **no**
dataset observes a requirement, :class:`~repro.core.config.MissingDataPolicy`
decides: skip-and-renormalize Eq. 2 (default), count the requirement as
failed, or raise.

:func:`flat_score` implements the fully-expanded Eq. 5 as an independent
cross-check; tests assert it always equals the tier-by-tier result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.obs import counter, gauge, span, timer

from .aggregation import QuantileSource
from .config import IQBConfig, QuantileMode
from .exceptions import DataError
from .metrics import Metric
from .quality import credit_scale, grade
from .usecases import UseCase

_REGION_SCORES = counter("scoring.region_scores")
_BATCH_REGIONS = counter("scoring.batch.regions")

#: Quantile planes ``score_regions`` can source aggregates from: the
#: exact sorted columnar plane (the oracle) and the streaming t-digest
#: plane. The exact-vs-sketch parity suite bounds the sketch plane's
#: p95/p99 relative error at ≤ 1%.
QUANTILE_SOURCES = ("exact", "sketch")

# Degraded-mode visibility: regions scored without one or more of their
# configured datasets in the latest batch. Eq. 1 already renormalizes
# over the datasets that did report (corroboration over what exists);
# this gauge is what keeps that silent fallback from being *invisible*.
_DEGRADED_REGIONS = gauge("score.degraded.regions")

# End-to-end scoring latency (per region/batch call), the input of the
# health subsystem's latency SLO rules — p95 of this timer against a
# declared budget is what "serving scores on time" means.
_SCORE_LATENCY = timer("score.latency")


@dataclass(frozen=True)
class DatasetVerdict:
    """One ``S_{u,r,d}``: a dataset's verdict on one requirement.

    ``score`` is the value Eq. 1 consumes: 0/1 under the paper's
    BINARY mode, 0/0.5/1 under the GRADED extension. ``passed`` means
    the configured bar is fully met (score == 1).
    """

    dataset: str
    aggregate: float
    threshold: float
    passed: bool
    weight: int
    sample_count: int
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"verdict score outside [0, 1]: {self.score}")
        if self.passed != (self.score == 1.0):
            raise ValueError(
                f"inconsistent verdict: passed={self.passed} score={self.score}"
            )


@dataclass(frozen=True)
class RequirementScore:
    """One ``S_{u,r}`` (Eq. 1) with its supporting dataset verdicts.

    ``value`` is ``None`` when no dataset observed the metric and the
    missing-data policy is SKIP; such requirements do not participate in
    Eq. 2.
    """

    metric: Metric
    threshold: float
    value: Optional[float]
    weight: int
    verdicts: Tuple[DatasetVerdict, ...]

    @property
    def observed(self) -> bool:
        """True when at least one dataset backed this requirement."""
        return len(self.verdicts) > 0

    @property
    def unanimous(self) -> bool:
        """True when every contributing dataset issued the same verdict."""
        if not self.verdicts:
            return True
        first = self.verdicts[0].score
        return all(v.score == first for v in self.verdicts)


@dataclass(frozen=True)
class UseCaseScore:
    """One ``S_u`` (Eq. 2) with its requirement scores."""

    use_case: UseCase
    value: float
    weight: int
    requirements: Tuple[RequirementScore, ...]

    def requirement(self, metric: Metric) -> RequirementScore:
        """The requirement score for ``metric``."""
        for req in self.requirements:
            if req.metric is metric:
                return req
        raise KeyError(metric)

    @property
    def skipped_metrics(self) -> Tuple[Metric, ...]:
        """Requirements dropped from Eq. 2 for lack of data."""
        return tuple(r.metric for r in self.requirements if r.value is None)


@dataclass(frozen=True)
class ScoreBreakdown:
    """The composite ``S_IQB`` (Eq. 4) and the entire tier-by-tier trail."""

    value: float
    use_cases: Tuple[UseCaseScore, ...]
    #: Configured datasets (positive weight somewhere in the tensor)
    #: that contributed no verdict anywhere in this breakdown: the
    #: score is legitimate under Eq. 1's renormalization, but it rests
    #: on less corroboration than the config intended.
    degraded_datasets: Tuple[str, ...] = ()
    #: Which quantile plane answered the percentile rule: ``"exact"``
    #: (sorted columns, the default and the historical behaviour),
    #: ``"sketch"`` (streaming t-digests), or ``"mixed"`` (per-dataset
    #: split). Provenance for comparing archived scores: sketch-sourced
    #: aggregates carry bounded estimation error.
    quantile_source: str = "exact"

    @property
    def degraded(self) -> bool:
        """True when at least one configured dataset went dark."""
        return bool(self.degraded_datasets)

    def use_case(self, use_case: UseCase) -> UseCaseScore:
        """The score object for one use case."""
        for entry in self.use_cases:
            if entry.use_case is use_case:
                return entry
        raise KeyError(use_case)

    @property
    def grade(self) -> str:
        """Nutri-Score-style letter for the composite score."""
        return grade(self.value)

    @property
    def credit(self) -> int:
        """Credit-score-style 300..850 presentation of the score."""
        return credit_scale(self.value)

    def use_case_values(self) -> Dict[UseCase, float]:
        """Mapping of use case → ``S_u`` for quick inspection."""
        return {entry.use_case: entry.value for entry in self.use_cases}

    # -- serialization (archiving / machine-readable CLI output) --------

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation of the full breakdown.

        ``quantile_source`` is emitted only for non-exact provenance,
        so exact-plane output stays byte-identical to pre-streaming
        archives.
        """
        document: Dict[str, object] = {
            "score": self.value,
            "grade": self.grade,
            "credit": self.credit,
            "degraded_datasets": list(self.degraded_datasets),
        }
        if self.quantile_source != "exact":
            document["quantile_source"] = self.quantile_source
        document["use_cases"] = [
                {
                    "use_case": entry.use_case.value,
                    "score": entry.value,
                    "weight": entry.weight,
                    "requirements": [
                        {
                            "metric": req.metric.value,
                            "threshold": req.threshold,
                            "score": req.value,
                            "weight": req.weight,
                            "verdicts": [
                                {
                                    "dataset": verdict.dataset,
                                    "aggregate": verdict.aggregate,
                                    "threshold": verdict.threshold,
                                    "passed": verdict.passed,
                                    "score": verdict.score,
                                    "weight": verdict.weight,
                                    "samples": verdict.sample_count,
                                }
                                for verdict in req.verdicts
                            ],
                        }
                        for req in entry.requirements
                    ],
                }
                for entry in self.use_cases
        ]
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "ScoreBreakdown":
        """Rebuild a breakdown archived by :meth:`to_dict`.

        Raises:
            DataError: on malformed documents.
        """
        try:
            use_cases = tuple(
                UseCaseScore(
                    use_case=UseCase(entry["use_case"]),
                    value=float(entry["score"]),
                    weight=int(entry["weight"]),
                    requirements=tuple(
                        RequirementScore(
                            metric=Metric(req["metric"]),
                            threshold=float(req["threshold"]),
                            value=(
                                None
                                if req["score"] is None
                                else float(req["score"])
                            ),
                            weight=int(req["weight"]),
                            verdicts=tuple(
                                DatasetVerdict(
                                    dataset=str(verdict["dataset"]),
                                    aggregate=float(verdict["aggregate"]),
                                    threshold=float(verdict["threshold"]),
                                    passed=bool(verdict["passed"]),
                                    weight=int(verdict["weight"]),
                                    sample_count=int(verdict["samples"]),
                                    score=float(verdict["score"]),
                                )
                                for verdict in req["verdicts"]
                            ),
                        )
                        for req in entry["requirements"]
                    ),
                )
                for entry in document["use_cases"]
            )
            return cls(
                value=float(document["score"]),
                use_cases=use_cases,
                # Absent in pre-degraded-mode archives: default clean.
                degraded_datasets=tuple(
                    str(d) for d in document.get("degraded_datasets", ())
                ),
                # Absent in pre-streaming archives: exact plane.
                quantile_source=str(
                    document.get("quantile_source", "exact")
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed breakdown document: {exc}") from exc


def score_region(
    sources: Mapping[str, QuantileSource],
    config: IQBConfig,
    quantile_source: str = "exact",
) -> ScoreBreakdown:
    """Compute ``S_IQB`` (Eq. 4) from per-dataset measurement sources.

    ``sources`` maps dataset name (matching the config's dataset weights)
    to anything implementing the QuantileSource protocol — raw
    measurement collections, pre-computed aggregate tables, plain
    sequences via :class:`~repro.core.aggregation.SequenceSource`, or
    streaming sketch views. The sources fill a one-region aggregate
    cube (:func:`~repro.core.kernel.source_cube`) that the kernel
    scores. ``quantile_source`` is a provenance stamp recorded on the
    breakdown (the math is whatever the sources answer); callers
    feeding sketch-backed sources pass ``"sketch"``.

    Raises:
        DataError: on empty ``sources``, on a non-finite quantile
            answer, and where the missing-data policy or the weights
            leave a use case without a score.
    """
    if not sources:
        raise DataError("score_region needs at least one dataset source")
    # Imported lazily: the kernel imports this module's dataclasses.
    from .kernel import score_cube, source_cube

    with _SCORE_LATENCY.time():
        aggregates, counts = source_cube({None: sources}, config.compiled())
        return score_cube(
            (None,), aggregates, counts, config, quantile_source
        )[None]


def effective_modes(
    config: IQBConfig, quantiles: Optional[str] = None
) -> Tuple[QuantileMode, ...]:
    """Resolved quantile mode per configured dataset.

    ``quantiles`` (the CLI-style global override) wins over the
    config's per-dataset :class:`~repro.core.config.QuantilePolicy`.
    Public so callers that pre-resolve modes once and reuse them per
    request (the serving layer's cached ``score_values`` sweeps) stay
    in lockstep with what :func:`score_regions` would pick.
    """
    cc = config.compiled()
    if quantiles is None:
        return config.quantiles.modes(cc.datasets)
    mode = QuantileMode(quantiles)
    return (mode,) * len(cc.datasets)


def score_regions(
    records: "object",
    config: IQBConfig,
    quantiles: Optional[str] = None,
) -> Dict[str, ScoreBreakdown]:
    """Batch-score every region of a combined measurement batch (Eq. 4 each).

    The batch is reduced to one aggregate cube ``A[region, dataset,
    metric]`` and every region is scored in one batched kernel pass
    (:mod:`repro.core.kernel`). Record input is transposed once into a
    :class:`~repro.measurements.columnar.ColumnarStore`, whose shared
    per-metric planes answer every region's percentiles.

    Args:
        records: a :class:`~repro.measurements.collection.MeasurementSet`,
            any iterable of Measurement records, an already-built
            ``ColumnarStore``, a
            :class:`~repro.measurements.sketchplane.SketchPlane`, or a
            pre-grouped mapping ``region → {dataset → QuantileSource}``.
            Mapping sources are opaque: each fills its cube cells
            through the QuantileSource protocol and is scored as given
            (stamped ``"exact"``; ``quantiles`` does not apply).
        config: the scoring configuration applied to every region.
        quantiles: global override of the config's
            :class:`~repro.core.config.QuantilePolicy` — ``"exact"``
            forces the sorted columnar plane for every dataset
            (bit-identical to pre-streaming output), ``"sketch"``
            forces the streaming t-digest plane, ``None`` (default)
            follows the config's per-dataset policy. A
            ``SketchPlane`` passed as ``records`` always scores from
            its sketches (it has no exact plane; requesting
            ``"exact"`` on one raises).

    Returns:
        region → :class:`ScoreBreakdown` in sorted region order,
        identical to calling :func:`score_region` per region on
        per-region groupings (tests assert bit-equality).

    Raises:
        ValueError: on an unknown ``quantiles`` name.
        DataError: when the batch holds no regions, a mapping region
            has no sources, a source answers a non-finite quantile, or
            the missing-data policy or weights leave a use case without
            a score.
    """
    if quantiles is not None and quantiles not in QUANTILE_SOURCES:
        raise ValueError(
            f"unknown quantile source: {quantiles!r} "
            f"(have {QUANTILE_SOURCES})"
        )
    with span("score_regions") as stage:
        if isinstance(records, Mapping):
            # Imported lazily: the kernel imports this module's dataclasses.
            from .kernel import score_cube, source_cube

            regions = tuple(sorted(records))
            if not all(records[region] for region in regions):
                raise DataError(
                    "score_region needs at least one dataset source"
                )
            stage.annotate(regions=len(regions), quantiles="exact")
            with _SCORE_LATENCY.time():
                with span("aggregate_cube"):
                    aggregates, counts = source_cube(
                        {region: records[region] for region in regions},
                        config.compiled(),
                    )
                with span("score_cube"):
                    scored = score_cube(regions, aggregates, counts, config)
        else:
            # Imported lazily: repro.measurements depends on repro.core.
            from repro.measurements.columnar import ColumnarStore
            from repro.measurements.sketchplane import SketchPlane

            with span("columnar_group"):
                if isinstance(records, SketchPlane):
                    if quantiles == "exact":
                        raise ValueError(
                            "a sketch plane carries no exact quantile "
                            "plane; score the raw records to use "
                            "quantiles='exact'"
                        )
                    store: "object" = records
                    modes: Tuple[QuantileMode, ...] = (
                        QuantileMode.SKETCH,
                    ) * len(config.compiled().datasets)
                else:
                    store = (
                        records
                        if isinstance(records, ColumnarStore)
                        else ColumnarStore.from_measurements(records)  # type: ignore[arg-type]
                    )
                    modes = effective_modes(config, quantiles)
            from .kernel import score_store

            with _SCORE_LATENCY.time():
                scored = score_store(store, config, stage=stage, modes=modes)
        _BATCH_REGIONS.inc(len(scored))
        _DEGRADED_REGIONS.set(
            float(sum(1 for b in scored.values() if b.degraded))
        )
        return scored


def flat_score(breakdown: ScoreBreakdown) -> float:
    """Recompute ``S_IQB`` via the fully-expanded Eq. 5.

    ``S_IQB = Σ_u Σ_r Σ_d w'_u · w'_{u,r} · w'_{u,r,d} · S_{u,r,d}``

    The expansion uses the *effective* normalizations (over observed
    datasets and non-skipped requirements), mirroring how Eqs. 1-4
    actually combined. Tests assert this equals ``breakdown.value`` to
    floating-point tolerance — a direct check of the paper's algebra.
    """
    use_case_total = sum(entry.weight for entry in breakdown.use_cases)
    score = 0.0
    for entry in breakdown.use_cases:
        w_u = entry.weight / use_case_total
        contributing = [r for r in entry.requirements if r.value is not None]
        requirement_total = sum(r.weight for r in contributing)
        for req in contributing:
            w_ur = req.weight / requirement_total
            if req.verdicts:
                dataset_total = sum(v.weight for v in req.verdicts)
                for verdict in req.verdicts:
                    w_urd = verdict.weight / dataset_total
                    score += w_u * w_ur * w_urd * verdict.score
            else:
                # Requirement resolved by the FAIL policy: S_{u,r} is 0,
                # contributing nothing to the sum (kept for clarity).
                score += 0.0
    return score
