"""Batched numpy scoring kernel: Eqs. 1-5 over every region at once.

The kernel is the one implementation of Eqs. 1-4. It expresses the
tier-by-tier math (region → use case → requirement → dataset) as dense
tensor operations over every region at once:

* :class:`CompiledConfig` — :class:`~repro.core.config.IQBConfig`
  precompiled once into aligned numpy tensors: the dataset-weight
  tensor ``W[u, r, d]``, the requirement-weight matrix ``w[u, r]``, the
  use-case weight vector ``w[u]``, threshold matrices for the scored /
  MINIMUM / HIGH tiers, a per-metric direction mask, the effective
  percentile per metric, and the positively-weighted dataset mask that
  drives degraded-mode detection.
* :func:`score_cube` — consumes an aggregate cube ``A[region, dataset,
  metric]`` (plus sample counts) and evaluates every verdict,
  requirement, use case, and composite score as masked matrix ops:
  threshold compares for BINARY, the two-tier compare for GRADED, the
  piecewise ramp for CONTINUOUS, and the three weighted-average tiers
  (Eq. 1 → Eq. 2-3 → Eq. 4) with missing cells masked out of each
  normalization (degraded-mode renormalization).
* :class:`ScoredCube` — that one tensor pass, kept: it yields the
  composite scores and rebuilds the breakdown trees of any subset of
  rows. :func:`score_cube` (every tree), :func:`score_cube_values`
  (no tree) and ``iqb serve`` (one tree per region read) all go
  through it.

Every input reaches the kernel as a cube: ``ColumnarStore`` and
``SketchPlane`` build theirs (:func:`score_store`), and opaque
QuantileSources fill one through :func:`source_cube`.

Numerical contract: the kernel's ``ScoreBreakdown`` trees are
*bit-identical* to the scalar tier-by-tier walk kept as the test
oracle (``tests/core/scalar_oracle.py``; parity in
``tests/core/test_kernel_parity.py`` and
``tests/core/test_entry_points.py``) under BINARY and GRADED scoring,
and within 1e-12 under CONTINUOUS (in practice also bit-identical; the
documented tolerance covers summation-order changes on dataset axes
longer than numpy's sequential-sum cutoff). Three facts make this work:

1. the cube's quantiles replicate
   :func:`~repro.core.aggregation._interpolate_sorted` operation for
   operation over the same sorted values (or are the sources' own
   answers, for :func:`source_cube`);
2. every weighted sum runs over a fixed short axis (4 requirements, 6
   use cases, the configured datasets) where numpy reduces in the same
   sequential order as the scalar ``sum``; masked-out cells contribute
   an exact ``0.0``, which is additively inert;
3. the error paths raise the scalar walk's exact exceptions in its
   encounter order (region, use case, requirement).

The kernel stays in ``repro.core``: it never imports the measurements
layer, it only consumes the cube arrays handed to it (duck-typed via
:func:`score_store`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.obs import counter, span

from .aggregation import QuantileSource
from .config import IQBConfig, MissingDataPolicy, QuantileMode, ScoreMode
from .exceptions import DataError
from .metrics import Direction, Metric
from .quality import QualityLevel
from .scoring import (
    _REGION_SCORES,
    DatasetVerdict,
    RequirementScore,
    ScoreBreakdown,
    UseCaseScore,
)
from .usecases import UseCase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Span

__all__ = [
    "CompiledConfig",
    "ScoredCube",
    "compile_config",
    "score_cube",
    "score_cube_values",
    "score_store",
    "score_values",
    "scored_store",
    "source_cube",
]

# The kernel answers the six-use-case percentile fan-out from the
# shared aggregate cube instead of per-view memo dicts; the reuse is
# reported on the same counter the view cache uses so the quantile-plane
# telemetry stays comparable with per-view scoring.
_CUBE_FANOUT_HITS = counter("quantile_cache.columnar.hits")


@dataclass(frozen=True, eq=False)
class CompiledConfig:
    """An :class:`IQBConfig` flattened into kernel-ready tensors.

    Axis conventions (shared with the aggregate cube): ``u`` indexes
    :meth:`UseCase.ordered`, ``r`` indexes :meth:`Metric.ordered`,
    ``d`` indexes the config's sorted dataset names. The ``*_int``
    twins keep the raw integer weights for breakdown reconstruction.
    """

    use_cases: Tuple[UseCase, ...]
    metrics: Tuple[Metric, ...]
    datasets: Tuple[str, ...]
    #: effective aggregation percentile per metric (direction-resolved)
    percentiles: Tuple[float, ...]
    #: ``w_{u,r,d}`` as float64, shape (U, R, D)
    dataset_w: np.ndarray
    #: ``w_{u,r}`` as float64, shape (U, R)
    req_w: np.ndarray
    #: ``w_u`` as float64, shape (U,)
    uc_w: np.ndarray
    #: threshold the config scores against (quality level + range policy)
    thr_scored: np.ndarray
    #: MINIMUM-tier thresholds, shape (U, R)
    thr_minimum: np.ndarray
    #: HIGH-tier thresholds (range-policy resolved, "Other" falls back
    #: to minimum), shape (U, R)
    thr_high: np.ndarray
    #: True where the metric is higher-is-better, shape (R,)
    higher: np.ndarray
    #: True where the dataset carries positive weight somewhere (D,)
    positive: np.ndarray
    score_mode: ScoreMode
    missing_data: MissingDataPolicy
    # Raw integers and Python lists for reconstruction (no ndarray
    # scalars may leak into breakdowns: json needs bool/int, and the
    # breakdown dataclasses carry Python types).
    dataset_w_int: Tuple[Tuple[Tuple[int, ...], ...], ...]
    req_w_int: Tuple[Tuple[int, ...], ...]
    uc_w_int: Tuple[int, ...]
    positive_list: Tuple[bool, ...]


def compile_config(config: IQBConfig) -> CompiledConfig:
    """Flatten ``config`` into dense tensors (done once per config).

    Prefer :meth:`IQBConfig.compiled`, which memoizes the result on the
    (frozen) config instance.
    """
    use_cases = UseCase.ordered()
    metrics = Metric.ordered()
    datasets = config.dataset_weights.datasets
    dataset_w_int = tuple(
        tuple(
            tuple(config.dataset_weights.get(u, m, d) for d in datasets)
            for m in metrics
        )
        for u in use_cases
    )
    req_w_int = tuple(
        tuple(config.requirement_weights.get(u, m) for m in metrics)
        for u in use_cases
    )
    uc_w_int = tuple(config.use_case_weights.get(u) for u in use_cases)
    thr_scored = np.array(
        [
            [config.threshold_value(u, m) for m in metrics]
            for u in use_cases
        ],
        dtype=np.float64,
    )
    thr_minimum = np.array(
        [
            [
                config.thresholds.value(u, m, QualityLevel.MINIMUM)
                for m in metrics
            ]
            for u in use_cases
        ],
        dtype=np.float64,
    )
    thr_high = np.array(
        [
            [
                config.thresholds.value(
                    u, m, QualityLevel.HIGH, config.range_policy
                )
                for m in metrics
            ]
            for u in use_cases
        ],
        dtype=np.float64,
    )
    positive_set = set(config.dataset_weights.positively_weighted())
    positive_list = tuple(d in positive_set for d in datasets)
    return CompiledConfig(
        use_cases=use_cases,
        metrics=metrics,
        datasets=datasets,
        percentiles=tuple(
            config.aggregation.effective_percentile(m) for m in metrics
        ),
        dataset_w=np.array(dataset_w_int, dtype=np.float64).reshape(
            len(use_cases), len(metrics), len(datasets)
        ),
        req_w=np.array(req_w_int, dtype=np.float64),
        uc_w=np.array(uc_w_int, dtype=np.float64),
        thr_scored=thr_scored,
        thr_minimum=thr_minimum,
        thr_high=thr_high,
        higher=np.array(
            [m.direction is Direction.HIGHER_IS_BETTER for m in metrics]
        ),
        positive=np.array(positive_list, dtype=bool),
        score_mode=config.score_mode,
        missing_data=config.missing_data,
        dataset_w_int=dataset_w_int,
        req_w_int=req_w_int,
        uc_w_int=uc_w_int,
        positive_list=positive_list,
    )


def _verdict_scores(
    aggregates: np.ndarray, cc: CompiledConfig
) -> np.ndarray:
    """``S_{u,r,d}`` for every cube cell, shape (G, U, R, D).

    ``aggregates`` is broadcast as (G, 1, R, D) with NaN where a dataset
    did not observe a metric; NaN cells produce garbage scores that the
    caller masks out, so every comparison/division runs under errstate
    suppression. Each arithmetic branch replicates the oracle's
    ``_verdict_value`` / ``_continuous_value`` expression op for op.
    """
    thr = cc.thr_scored[None, :, :, None]
    higher = cc.higher[None, None, :, None]
    if cc.score_mode is ScoreMode.BINARY:
        with np.errstate(invalid="ignore"):
            meets = np.where(higher, aggregates >= thr, aggregates <= thr)
        return meets.astype(np.float64)
    mn = cc.thr_minimum[None, :, :, None]
    hi = cc.thr_high[None, :, :, None]
    # Both np.where lanes are evaluated, so masked-out cells (NaN
    # aggregates, denormal ratios) trip float flags the selected lane
    # never does; suppress them all.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if cc.score_mode is ScoreMode.GRADED:
            meets_high = np.where(
                higher, aggregates >= hi, aggregates <= hi
            )
            meets_min = np.where(
                higher, aggregates >= mn, aggregates <= mn
            )
            return np.where(
                meets_high, 1.0, np.where(meets_min, 0.5, 0.0)
            )
        # CONTINUOUS: the two-direction piecewise ramp.
        mid_h = np.where(
            hi == mn, 1.0, 0.5 + 0.5 * (aggregates - mn) / (hi - mn)
        )
        below_h = np.where(
            mn <= 0, 0.0, 0.5 * np.maximum(0.0, aggregates) / mn
        )
        value_h = np.where(
            aggregates >= hi,
            1.0,
            np.where(aggregates >= mn, mid_h, below_h),
        )
        mid_l = np.where(
            mn == hi, 1.0, 0.5 + 0.5 * (mn - aggregates) / (mn - hi)
        )
        below_l = np.where(aggregates <= 0, 1.0, 0.5 * mn / aggregates)
        value_l = np.where(
            aggregates <= hi,
            1.0,
            np.where(aggregates <= mn, mid_l, below_l),
        )
        return np.where(higher, value_h, value_l)


class ScoredCube:
    """One batched Eq. 1 → Eq. 4 tensor pass over an aggregate cube.

    The composite scores come straight off the pass (:meth:`values`);
    the ``ScoreBreakdown`` trees are rebuilt from the kept cube and
    tensors for the rows asked for, and only for them
    (:meth:`breakdowns`). :func:`score_cube` rebuilds every row,
    :func:`score_cube_values` none, and the serving layer keeps one
    pass per plane generation and rebuilds a region's row when that
    region is read. The cube arrays must not be mutated afterwards.

    Raises:
        DataError: on construction, exactly where and with exactly the
            message the scalar oracle raises (see :func:`score_cube`).
    """

    # Weak-referenceable, so a holder's release of a pass is checkable.
    __slots__ = (
        "regions",
        "quantile_source",
        "_cc",
        "_cube",
        "_tensors",
        "__weakref__",
    )

    def __init__(
        self,
        regions: Tuple[str, ...],
        aggregates: np.ndarray,
        counts: np.ndarray,
        config: IQBConfig,
        quantile_source: str = "exact",
    ) -> None:
        self._cc, self._tensors = _score_tensors(
            regions, aggregates, counts, config
        )
        self.regions = regions
        self.quantile_source = quantile_source
        self._cube = (aggregates, counts)

    def values(self) -> Dict[str, float]:
        """Composite S_IQB per region, in cube row order."""
        return dict(zip(self.regions, self._tensors[4].tolist()))

    def breakdowns(
        self, regions: Optional[Iterable[str]] = None
    ) -> Dict[str, ScoreBreakdown]:
        """The breakdown trees of ``regions`` (default: every row).

        Raises:
            KeyError: for a region with no row in the cube, before any
                tree is rebuilt.
        """
        if regions is None:
            names, rows = tuple(self.regions), slice(None)
        else:
            names = tuple(regions)
            rows = [self._row(region) for region in names]
        aggregates, counts = self._cube
        verdict, observed, s_ur, s_u, s_iqb, observed_dataset = (
            tensor[rows] for tensor in self._tensors
        )
        cc = self._cc
        with span("rebuild_breakdowns"):
            # (G, D, R) → (G, R, D) so the reconstruction loop's innermost
            # dataset scan indexes one flat row instead of striding.
            return _rebuild(
                names,
                cc,
                aggregates[rows].transpose(0, 2, 1).tolist(),
                counts[rows].transpose(0, 2, 1).tolist(),
                verdict.tolist(),
                observed.tolist(),
                s_ur.tolist(),
                s_u.tolist(),
                s_iqb.tolist(),
                observed_dataset.tolist(),
                cc.missing_data is MissingDataPolicy.FAIL,
                self.quantile_source,
            )

    def _row(self, region: str) -> int:
        try:
            return self.regions.index(region)
        except ValueError:
            raise KeyError(region) from None


def score_cube(
    regions: Tuple[str, ...],
    aggregates: np.ndarray,
    counts: np.ndarray,
    config: IQBConfig,
    quantile_source: str = "exact",
) -> Dict[str, ScoreBreakdown]:
    """Score every region of an aggregate cube in one batched pass.

    Args:
        regions: region names, aligned with the cube's first axis.
        aggregates: ``A[region, dataset, metric]`` percentile
            aggregates, NaN where a dataset has no observations.
        counts: matching per-cell sample counts.
        config: the scoring configuration (compiled on first use).
        quantile_source: provenance stamp for the rebuilt breakdowns
            (which plane produced ``aggregates``).

    Returns:
        region → :class:`ScoreBreakdown`, reconstructed to match the
        scalar oracle object for object (see the module contract).

    Raises:
        DataError: exactly where and with exactly the message the
            scalar oracle raises — empty batches, STRICT missing data,
            use cases with no data or only zero-weight requirements.
    """
    return ScoredCube(
        regions, aggregates, counts, config, quantile_source
    ).breakdowns()


def score_cube_values(
    regions: Tuple[str, ...],
    aggregates: np.ndarray,
    counts: np.ndarray,
    config: IQBConfig,
) -> Dict[str, float]:
    """Composite S_IQB per region, skipping breakdown reconstruction.

    Identical math and identical error behaviour to :func:`score_cube`
    — every value equals ``score_cube(...)[region].value`` bit for bit
    — but the output is just the Eq. 4 composite per region. Rebuilding
    the full ``ScoreBreakdown`` trees costs more than the tensor pass
    itself at national scale (~25k dataclass objects for 256 regions),
    so consumers that only need scores (dashboards, sweeps, rollup
    monitors) should take this path.
    """
    return ScoredCube(regions, aggregates, counts, config).values()


def _score_tensors(
    regions: Tuple[str, ...],
    aggregates: np.ndarray,
    counts: np.ndarray,
    config: IQBConfig,
) -> Tuple[CompiledConfig, Tuple[np.ndarray, ...]]:
    """The batched Eq. 1 → Eq. 4 tensor pass behind :class:`ScoredCube`."""
    if not len(regions):
        raise DataError("score_regions needs at least one region of data")
    cc = config.compiled()
    _REGION_SCORES.inc(len(regions))
    policy = cc.missing_data

    # (G, 1, R, D) observation tensors against (1, U, R, D) weights.
    agg = aggregates.transpose(0, 2, 1)[:, None, :, :]
    weights = cc.dataset_w[None, :, :, :]
    observed = ~np.isnan(agg) & (weights > 0.0)

    # Eq. 1 — requirement agreement over the observed datasets.
    verdict = _verdict_scores(agg, cc)
    weights_m = np.where(observed, weights, 0.0)
    den1 = weights_m.sum(axis=3)
    num1 = (weights_m * np.where(observed, verdict, 0.0)).sum(axis=3)
    with np.errstate(invalid="ignore"):
        s_ur = np.divide(
            num1, den1, out=np.zeros_like(num1), where=den1 > 0.0
        )
    observed_req = observed.any(axis=3)

    # Eq. 2 — use-case scores over the contributing requirements,
    # with the scalar oracle's error taxonomy in its encounter order.
    if policy is MissingDataPolicy.FAIL:
        contributing = np.ones_like(observed_req)
    else:
        contributing = observed_req
    req_w = cc.req_w[None, :, :]
    den2 = np.where(contributing, req_w, 0.0).sum(axis=2)
    any_contrib = contributing.any(axis=2)
    bad = ~any_contrib | (den2 <= 0.0)
    if policy is MissingDataPolicy.STRICT:
        bad = bad | ~observed_req.all(axis=2)
    if bad.any():
        _raise_first_error(bad, observed_req, any_contrib, cc)
    num2 = (
        np.where(contributing, req_w, 0.0)
        * np.where(observed_req, s_ur, 0.0)
    ).sum(axis=2)
    s_u = num2 / den2

    # Eq. 4 — the composite score.
    s_iqb = (cc.uc_w[None, :] * s_u).sum(axis=1) / cc.uc_w.sum()

    # Degraded-mode bookkeeping: configured-positive datasets that
    # contributed no verdict anywhere in a region's breakdown.
    observed_dataset = observed.any(axis=(1, 2))

    return cc, (verdict, observed, s_ur, s_u, s_iqb, observed_dataset)


def _raise_first_error(
    bad: np.ndarray,
    observed_req: np.ndarray,
    any_contrib: np.ndarray,
    cc: CompiledConfig,
) -> None:
    """Raise the scalar oracle's first error, in its (g, u, r) order."""
    g, u = (int(i) for i in np.argwhere(bad)[0])
    missing = ~observed_req[g, u]
    if cc.missing_data is MissingDataPolicy.STRICT and missing.any():
        r = int(np.argmax(missing))
        raise DataError(
            f"no dataset observes {cc.metrics[r].value} for "
            f"{cc.use_cases[u].value} and missing-data policy is strict"
        )
    if not any_contrib[g, u]:
        raise DataError(
            f"no requirement of {cc.use_cases[u].value} has any data; "
            f"cannot compute a use-case score"
        )
    raise DataError(
        f"all observed requirements of {cc.use_cases[u].value} "
        f"have zero weight"
    )


def _rebuild(
    regions,
    cc: CompiledConfig,
    agg_l,
    count_l,
    verdict_l,
    observed_l,
    s_ur_l,
    s_u_l,
    s_iqb_l,
    observed_dataset_l,
    fail_policy: bool,
    quantile_source: str = "exact",
) -> Dict[str, ScoreBreakdown]:
    """Reconstruct the breakdown trees from kernel output.

    All inputs arrive pre-``tolist()``-ed so the loop touches only
    Python floats/bools/ints (aggregates and counts already transposed
    to (G, R, D)). Instances are built by ``__new__`` plus a direct
    ``__dict__`` fill from per-(u, r, d) template dicts: the config-
    constant fields (dataset, threshold, weight, metric, use case) are
    prebuilt once per compiled config, so each of the ~25k verdict
    objects of a national batch costs one ``dict.copy`` plus the four
    region-varying entries. The values are valid by construction —
    every score came off a kernel tensor that already satisfies the
    dataclass invariants — so skipping ``__init__`` is safe, and it is
    what keeps reconstruction from eating the kernel's win.
    """
    datasets = cc.datasets
    use_cases = cc.use_cases
    positive = cc.positive_list
    dataset_range = tuple(range(len(datasets)))
    templates = _templates(cc)
    new_verdict = DatasetVerdict.__new__
    new_req = RequirementScore.__new__
    new_uc = UseCaseScore.__new__
    new_breakdown = ScoreBreakdown.__new__
    fill = object.__setattr__  # frozen dataclasses veto plain assignment
    out: Dict[str, ScoreBreakdown] = {}
    for region, agg_g, count_g, verdict_g, observed_g, s_ur_g, s_u_g, \
            s_iqb_g, observed_row in zip(
        regions,
        agg_l,
        count_l,
        verdict_l,
        observed_l,
        s_ur_l,
        s_u_l,
        s_iqb_l,
        observed_dataset_l,
    ):
        scored_use_cases = []
        for (req_templates, uc_template), verdict_u, observed_u, \
                s_ur_u, s_u_v in zip(
            templates, verdict_g, observed_g, s_ur_g, s_u_g
        ):
            requirements = []
            for (verdict_templates, req_template), verdict_r, \
                    observed_r, agg_r, count_r, s_ur_v in zip(
                req_templates, verdict_u, observed_u, agg_g, count_g, s_ur_u
            ):
                verdicts = []
                for template, observed_v, score, agg_v, count_v in zip(
                    verdict_templates, observed_r, verdict_r, agg_r, count_r
                ):
                    if not observed_v:
                        continue
                    body = template.copy()
                    body["aggregate"] = agg_v
                    body["passed"] = score == 1.0
                    body["sample_count"] = count_v
                    body["score"] = score
                    entry = new_verdict(DatasetVerdict)
                    fill(entry, "__dict__", body)
                    verdicts.append(entry)
                if verdicts:
                    value = s_ur_v
                elif fail_policy:
                    value = 0.0
                else:
                    value = None
                body = req_template.copy()
                body["value"] = value
                body["verdicts"] = tuple(verdicts)
                req = new_req(RequirementScore)
                fill(req, "__dict__", body)
                requirements.append(req)
            body = uc_template.copy()
            body["value"] = s_u_v
            body["requirements"] = tuple(requirements)
            entry = new_uc(UseCaseScore)
            fill(entry, "__dict__", body)
            scored_use_cases.append(entry)
        breakdown = new_breakdown(ScoreBreakdown)
        fill(breakdown, "__dict__", {
            "value": s_iqb_g,
            "use_cases": tuple(scored_use_cases),
            "degraded_datasets": tuple(
                datasets[d]
                for d in dataset_range
                if positive[d] and not observed_row[d]
            ),
            "quantile_source": quantile_source,
        })
        out[region] = breakdown
    return out


def _templates(cc: CompiledConfig):
    """Per-(u, r, d) ``__dict__`` templates, memoized on the config.

    Key order matches the dataclass field order, so rebuilt instances
    have the same ``__dict__`` layout as ``__init__``-built ones.
    """
    cached = cc.__dict__.get("_rebuild_templates")
    if cached is None:
        thr_l = cc.thr_scored.tolist()
        cached = []
        for u, use_case in enumerate(cc.use_cases):
            req_templates = []
            for r, metric in enumerate(cc.metrics):
                threshold = thr_l[u][r]
                verdict_templates = tuple(
                    {
                        "dataset": cc.datasets[d],
                        "aggregate": 0.0,
                        "threshold": threshold,
                        "passed": False,
                        "weight": cc.dataset_w_int[u][r][d],
                        "sample_count": 0,
                        "score": 0.0,
                    }
                    for d in range(len(cc.datasets))
                )
                req_templates.append(
                    (
                        verdict_templates,
                        {
                            "metric": metric,
                            "threshold": threshold,
                            "value": None,
                            "weight": cc.req_w_int[u][r],
                            "verdicts": (),
                        },
                    )
                )
            cached.append(
                (
                    tuple(req_templates),
                    {
                        "use_case": use_case,
                        "value": 0.0,
                        "weight": cc.uc_w_int[u],
                        "requirements": (),
                    },
                )
            )
        cached = tuple(cached)
        object.__setattr__(cc, "_rebuild_templates", cached)
    return cached


def source_cube(
    grouped: Mapping[Optional[str], Mapping[str, QuantileSource]],
    cc: CompiledConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(aggregates, counts)`` cube over opaque QuantileSources.

    ``grouped`` maps region → dataset → source, one cube row per region
    in iteration order (``None`` names the single region of
    :func:`~repro.core.scoring.score_region`). Each source is asked
    ``.quantile(metric, percentile)`` and ``.sample_count(metric)``
    once per (dataset, metric) cell that carries positive weight in
    some use case — exactly the cells Eq. 1 reads. Every other cell,
    and every cell a source answers ``None`` for, stays NaN / 0, the
    cube's missing-observation sentinel.

    Raises:
        DataError: when a source answers a non-finite quantile, naming
            the region, dataset and metric: a NaN would otherwise read
            as "no observations" instead of a failed verdict.
    """
    weighted = (cc.dataset_w > 0.0).any(axis=0).T.tolist()  # (D, R)
    shape = (len(grouped), len(cc.datasets), len(cc.metrics))
    aggregates = np.full(shape, np.nan, dtype=np.float64)
    counts = np.zeros(shape, dtype=np.int64)
    for g, (region, sources) in enumerate(grouped.items()):
        for d, dataset in enumerate(cc.datasets):
            source = sources.get(dataset)
            if source is None:
                continue
            for r, metric in enumerate(cc.metrics):
                if not weighted[d][r]:
                    continue
                value = source.quantile(metric, cc.percentiles[r])
                if value is None:
                    continue
                if not math.isfinite(value):
                    where = "" if region is None else f" in region {region!r}"
                    raise DataError(
                        f"non-finite {metric.value} quantile {float(value)} "
                        f"from dataset {dataset!r}{where}"
                    )
                aggregates[g, d, r] = value
                counts[g, d, r] = source.sample_count(metric)
    return aggregates, counts


def _resolve_cube(
    store: "object",
    cc: CompiledConfig,
    modes: Optional[Tuple[QuantileMode, ...]] = None,
) -> Tuple["object", str]:
    """The aggregate cube honoring per-dataset quantile modes.

    ``store`` is duck-typed: anything exposing
    ``aggregate_cube(datasets, percentiles)``. Its class-level
    ``QUANTILE_SOURCE`` attribute (``"exact"`` for the columnar store,
    ``"sketch"`` for a sketch plane; absent means exact) names the
    native plane, and ``sketch_plane()`` — when present — yields the
    attached streaming plane for sketch/mixed modes.

    Returns ``(cube, label)`` where ``label`` is the provenance stamp
    (``"exact"`` / ``"sketch"`` / ``"mixed"``) for the breakdowns.
    """
    native = getattr(store, "QUANTILE_SOURCE", "exact")
    if modes is None:
        return store.aggregate_cube(cc.datasets, cc.percentiles), native
    wants_sketch = tuple(mode is QuantileMode.SKETCH for mode in modes)
    if not any(wants_sketch):
        if native != "exact":
            raise DataError(
                "store has no exact quantile plane but every dataset "
                "requested exact quantiles"
            )
        return store.aggregate_cube(cc.datasets, cc.percentiles), "exact"
    if all(wants_sketch):
        sketch = store if native == "sketch" else store.sketch_plane()
        return (
            sketch.aggregate_cube(cc.datasets, cc.percentiles),
            "sketch",
        )
    if native != "exact":
        raise DataError(
            "mixed quantile modes need both planes; store only carries "
            "sketches"
        )
    exact_cube = store.aggregate_cube(cc.datasets, cc.percentiles)
    sketch_cube = store.sketch_plane().aggregate_cube(
        cc.datasets, cc.percentiles
    )
    # Both planes summarize the same records, so the region axes agree.
    assert exact_cube.regions == sketch_cube.regions
    mask = np.asarray(wants_sketch, dtype=bool)[None, :, None]
    aggregates = np.where(
        mask, sketch_cube.aggregates, exact_cube.aggregates
    )
    cube = type(exact_cube)(
        regions=exact_cube.regions,
        aggregates=aggregates,
        counts=exact_cube.counts,
        cells=exact_cube.cells,
    )
    return cube, "mixed"


def _store_cube(
    store: "object",
    cc: CompiledConfig,
    modes: Optional[Tuple[QuantileMode, ...]],
) -> Tuple["object", str]:
    """:func:`_resolve_cube` under the ``aggregate_cube`` span."""
    with span("aggregate_cube"):
        cube, source = _resolve_cube(store, cc, modes)
    # Each of the |U| use cases reads every computed cube cell; the
    # first read computed it (a miss, counted by aggregate_cube), the
    # rest are served by the shared cube.
    _CUBE_FANOUT_HITS.inc((len(cc.use_cases) - 1) * cube.cells)
    return cube, source


def score_store(
    store: "object",
    config: IQBConfig,
    stage: Optional["Span"] = None,
    modes: Optional[Tuple[QuantileMode, ...]] = None,
) -> Dict[str, ScoreBreakdown]:
    """Vectorized batch scoring over a store's aggregate cube.

    ``store`` is duck-typed (anything exposing
    ``aggregate_cube(datasets, percentiles)`` — in practice a
    :class:`~repro.measurements.columnar.ColumnarStore` or a
    :class:`~repro.measurements.sketchplane.SketchPlane`), which keeps
    this module free of measurement-layer imports. ``modes`` selects
    the quantile plane per configured dataset (see
    :func:`_resolve_cube`); None scores the store's native plane.
    """
    cube, source = _store_cube(store, config.compiled(), modes)
    if stage is not None:
        stage.annotate(regions=len(cube.regions), quantiles=source)
    with span("score_cube"):
        return score_cube(
            cube.regions,
            cube.aggregates,
            cube.counts,
            config,
            quantile_source=source,
        )


def scored_store(
    store: "object",
    config: IQBConfig,
    modes: Optional[Tuple[QuantileMode, ...]] = None,
) -> ScoredCube:
    """The scores-only pass over a store, kept for later row rebuilds.

    Same cube, same tensor pass and same errors as :func:`score_store`
    (``modes`` as there), but no tree is rebuilt until
    :meth:`ScoredCube.breakdowns` is asked for one; each tree it
    rebuilds equals the one :func:`score_store` gives, bit for bit.
    """
    cube, source = _store_cube(store, config.compiled(), modes)
    with span("score_cube_values"):
        return ScoredCube(
            cube.regions, cube.aggregates, cube.counts, config, source
        )


def score_values(
    store: "object",
    config: IQBConfig,
    modes: Optional[Tuple[QuantileMode, ...]] = None,
) -> Dict[str, float]:
    """Composite S_IQB per region off a store, scores only.

    The scores-only twin of :func:`score_store`: same cube, same
    tensor pass, same errors, but no breakdown reconstruction — the
    cheapest way to refresh every region's composite score. See
    :func:`score_cube_values`. Accepts a sketch plane directly, which
    is the streaming monitor's re-score hot path.
    """
    return scored_store(store, config, modes).values()
