"""The scalar Eq. 1-4 walk: the readable reference for the scoring kernel.

Production scoring runs one implementation, the batched numpy kernel
(:mod:`repro.core.kernel`). This module keeps the original scalar walk
— region → use case → requirement → dataset, one Python loop per tier
— as the oracle the kernel is tested against. It builds the same
:class:`~repro.core.scoring.ScoreBreakdown` dataclasses, so results
compare with ``==`` (bitwise on every float).

* :func:`score_requirement` — Eq. 1, ``S_{u,r}`` over the datasets
  with positive weight that observe the metric;
* :func:`score_use_case` — Eq. 2, ``S_u`` over the contributing
  requirements;
* :func:`score_region` — Eq. 4, ``S_IQB`` plus degraded-dataset
  bookkeeping;
* :func:`score_regions` — the batch form: groups a record batch, a
  columnar store, a sketch plane or a pre-grouped mapping into
  per-region sources (stitching exact and sketch views per dataset
  under a mixed quantile policy, :func:`grouped_sources`) and scores
  each region in sorted order.

It uses only the public data types of ``repro``; it carries no
telemetry.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.aggregation import QuantileSource, aggregate_metric
from repro.core.config import (
    IQBConfig,
    MissingDataPolicy,
    QuantileMode,
    ScoreMode,
)
from repro.core.exceptions import DataError
from repro.core.metrics import Direction, Metric
from repro.core.quality import QualityLevel
from repro.core.scoring import (
    DatasetVerdict,
    RequirementScore,
    ScoreBreakdown,
    UseCaseScore,
)
from repro.core.usecases import UseCase


def score_requirement(
    use_case: UseCase,
    metric: Metric,
    sources: Mapping[str, QuantileSource],
    config: IQBConfig,
) -> RequirementScore:
    """Compute ``S_{u,r}`` (Eq. 1) for one requirement of one use case.

    Datasets participate when their configured weight ``w_{u,r,d}`` is
    positive *and* they carry observations for the metric; Eq. 1's
    normalization runs over exactly those datasets.
    """
    threshold = config.threshold_value(use_case, metric)
    verdicts: List[DatasetVerdict] = []
    for dataset in sorted(sources):
        weight = config.dataset_weights.get(use_case, metric, dataset)
        if weight <= 0:
            continue
        source = sources[dataset]
        aggregate = aggregate_metric(source, metric, config.aggregation)
        if aggregate is None:
            continue
        value = _verdict_value(use_case, metric, aggregate, config)
        verdicts.append(
            DatasetVerdict(
                dataset=dataset,
                aggregate=aggregate,
                threshold=threshold,
                passed=value == 1.0,
                weight=weight,
                sample_count=source.sample_count(metric),
                score=value,
            )
        )
    weight = config.requirement_weights.get(use_case, metric)
    if not verdicts:
        return RequirementScore(
            metric=metric,
            threshold=threshold,
            value=_resolve_missing(use_case, metric, config),
            weight=weight,
            verdicts=(),
        )
    total = sum(v.weight for v in verdicts)
    value = sum(v.weight * v.score for v in verdicts) / total
    return RequirementScore(
        metric=metric,
        threshold=threshold,
        value=value,
        weight=weight,
        verdicts=tuple(verdicts),
    )


def _verdict_value(
    use_case: UseCase,
    metric: Metric,
    aggregate: float,
    config: IQBConfig,
) -> float:
    """``S_{u,r,d}`` for one aggregate under the configured score mode.

    BINARY (the paper): 1 when the configured quality level's threshold
    is met, else 0. GRADED (documented extension): 1 at the high bar,
    0.5 at the minimum bar, else 0 — strictly between the two binary
    readings.
    """
    if config.score_mode is ScoreMode.BINARY:
        return 1.0 if metric.meets(aggregate, config.threshold_value(use_case, metric)) else 0.0
    high = config.thresholds.value(
        use_case, metric, QualityLevel.HIGH, config.range_policy
    )
    minimum = config.thresholds.value(use_case, metric, QualityLevel.MINIMUM)
    if config.score_mode is ScoreMode.CONTINUOUS:
        return _continuous_value(metric, aggregate, minimum, high)
    if metric.meets(aggregate, high):
        return 1.0
    if metric.meets(aggregate, minimum):
        return 0.5
    return 0.0


def _continuous_value(
    metric: Metric, aggregate: float, minimum: float, high: float
) -> float:
    """Piecewise-linear/ratio requirement score anchored at both tiers.

    1.0 at (or beyond) the high tier; linear down to 0.5 at the minimum
    tier; below minimum a proportional ramp toward 0 so a 5 Mb/s and a
    0.5 Mb/s region no longer tie (the ext-qoe resolution finding).
    For lower-is-better metrics the sub-minimum ramp is the reciprocal
    ratio (score → 0 as the metric blows up). Degenerate cells where
    the tiers coincide ramp straight from 0 to 1 at the single bar.
    """
    if metric.direction is Direction.HIGHER_IS_BETTER:
        if aggregate >= high:
            return 1.0
        if aggregate >= minimum:
            if high == minimum:
                return 1.0
            return 0.5 + 0.5 * (aggregate - minimum) / (high - minimum)
        if minimum <= 0:
            return 0.0
        return 0.5 * max(0.0, aggregate) / minimum
    # Lower is better (latency, loss).
    if aggregate <= high:
        return 1.0
    if aggregate <= minimum:
        if minimum == high:
            return 1.0
        return 0.5 + 0.5 * (minimum - aggregate) / (minimum - high)
    if aggregate <= 0:
        return 1.0  # unreachable for positive metrics; defensive
    return 0.5 * minimum / aggregate


def _resolve_missing(
    use_case: UseCase, metric: Metric, config: IQBConfig
) -> Optional[float]:
    """Value of an unobserved requirement per the missing-data policy."""
    policy = config.missing_data
    if policy is MissingDataPolicy.SKIP:
        return None
    if policy is MissingDataPolicy.FAIL:
        return 0.0
    raise DataError(
        f"no dataset observes {metric.value} for {use_case.value} "
        f"and missing-data policy is strict"
    )


def score_use_case(
    use_case: UseCase,
    sources: Mapping[str, QuantileSource],
    config: IQBConfig,
) -> UseCaseScore:
    """Compute ``S_u`` (Eq. 2) for one use case.

    Requirements skipped for lack of data are excluded from the weighted
    average; the remaining ``w_{u,r}`` renormalize over what was
    observed.

    Raises:
        DataError: when *every* requirement of the use case is skipped.
    """
    requirements = tuple(
        score_requirement(use_case, metric, sources, config)
        for metric in Metric.ordered()
    )
    contributing = [r for r in requirements if r.value is not None]
    if not contributing:
        raise DataError(
            f"no requirement of {use_case.value} has any data; "
            f"cannot compute a use-case score"
        )
    total = sum(r.weight for r in contributing)
    if total <= 0:
        raise DataError(
            f"all observed requirements of {use_case.value} have zero weight"
        )
    value = sum(r.weight * r.value for r in contributing) / total
    return UseCaseScore(
        use_case=use_case,
        value=value,
        weight=config.use_case_weights.get(use_case),
        requirements=requirements,
    )


def score_region(
    sources: Mapping[str, QuantileSource],
    config: IQBConfig,
    quantile_source: str = "exact",
) -> ScoreBreakdown:
    """Compute ``S_IQB`` (Eq. 4) from per-dataset measurement sources.

    ``quantile_source`` is the provenance stamp recorded on the
    breakdown; the math is whatever the sources answer.
    """
    if not sources:
        raise DataError("score_region needs at least one dataset source")
    use_cases = tuple(
        score_use_case(use_case, sources, config)
        for use_case in UseCase.ordered()
    )
    total = sum(entry.weight for entry in use_cases)
    value = sum(entry.weight * entry.value for entry in use_cases) / total
    observed = {
        verdict.dataset
        for entry in use_cases
        for req in entry.requirements
        for verdict in req.verdicts
    }
    degraded = tuple(
        dataset
        for dataset in config.dataset_weights.positively_weighted()
        if dataset not in observed
    )
    return ScoreBreakdown(
        value=value,
        use_cases=use_cases,
        degraded_datasets=degraded,
        quantile_source=quantile_source,
    )


def grouped_sources(
    store: "object",
    config: IQBConfig,
    modes: Tuple[QuantileMode, ...],
) -> Tuple[Mapping[str, Mapping[str, QuantileSource]], str]:
    """(region → dataset → source, provenance label) honoring ``modes``.

    Exact modes read the store's columnar views, sketch modes read the
    attached sketch plane's views, and a mixed policy stitches the two
    per dataset. Batch datasets outside the configured axis keep their
    exact views (they carry no weight, so only ``sample_count``
    cosmetics could differ).
    """
    cc = config.compiled()
    if all(mode is QuantileMode.EXACT for mode in modes):
        return store.sources_by_region(), "exact"
    native_sketch = getattr(store, "QUANTILE_SOURCE", "exact") == "sketch"
    sketch = store if native_sketch else store.sketch_plane()
    if all(mode is QuantileMode.SKETCH for mode in modes):
        return sketch.sources_by_region(), "sketch"
    exact_grouped = store.sources_by_region()
    sketch_grouped = sketch.sources_by_region()
    mode_of = dict(zip(cc.datasets, modes))
    combined: Dict[str, Dict[str, QuantileSource]] = {}
    for region, sources in exact_grouped.items():
        row: Dict[str, QuantileSource] = {}
        for dataset, view in sources.items():
            if mode_of.get(dataset) is QuantileMode.SKETCH:
                row[dataset] = sketch_grouped.get(region, {}).get(
                    dataset, view
                )
            else:
                row[dataset] = view
        combined[region] = row
    return combined, "mixed"


def score_regions(
    records: "object",
    config: IQBConfig,
    quantiles: Optional[str] = None,
) -> Dict[str, ScoreBreakdown]:
    """Score every region of a batch, one :func:`score_region` each.

    ``records`` is a record iterable or MeasurementSet, a
    ``ColumnarStore``, a ``SketchPlane``, or a pre-grouped mapping
    ``region → {dataset → QuantileSource}``. ``quantiles`` overrides
    the config's quantile policy (``"exact"`` / ``"sketch"``).
    """
    from repro.measurements.columnar import ColumnarStore
    from repro.measurements.sketchplane import SketchPlane

    if isinstance(records, Mapping):
        grouped: Mapping[str, Mapping[str, QuantileSource]] = records
        label = "exact"
    else:
        datasets = config.compiled().datasets
        if isinstance(records, SketchPlane):
            if quantiles == "exact":
                raise ValueError(
                    "a sketch plane carries no exact quantile plane; "
                    "score the raw records to use quantiles='exact'"
                )
            store: "object" = records
            modes = (QuantileMode.SKETCH,) * len(datasets)
        else:
            store = (
                records
                if isinstance(records, ColumnarStore)
                else ColumnarStore.from_measurements(records)
            )
            modes = (
                config.quantiles.modes(datasets)
                if quantiles is None
                else (QuantileMode(quantiles),) * len(datasets)
            )
        grouped, label = grouped_sources(store, config, modes)
    if not grouped:
        raise DataError("score_regions needs at least one region of data")
    return {
        region: score_region(grouped[region], config, quantile_source=label)
        for region in sorted(grouped)
    }
