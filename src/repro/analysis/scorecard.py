"""Consumer scorecards: the broadband-label presentation of IQB.

The IQB use-case taxonomy comes from Cranor et al.'s consumer broadband
-label study (the paper's reference [2]); this module closes that loop
by rendering a region's IQB breakdown as the kind of label a consumer
(or a regulator's comparison site) would actually read: an overall
grade, per-use-case grades with plain-language verdicts, and the one
thing most worth fixing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import IQBConfig, paper_config
from repro.core.explain import improvement_opportunities
from repro.core.quality import credit_scale, grade
from repro.core.scoring import ScoreBreakdown, score_region, score_regions
from repro.core.usecases import UseCase
from repro.measurements.collection import MeasurementSet

#: Plain-language verdicts per letter grade.
VERDICTS = {
    "A": "works great",
    "B": "works well",
    "C": "usable with issues",
    "D": "frequently frustrating",
    "E": "effectively broken",
}


@dataclass(frozen=True)
class UseCaseLine:
    """One use-case row of the label."""

    use_case: UseCase
    score: float
    grade: str
    verdict: str


@dataclass(frozen=True)
class Scorecard:
    """Everything the rendered label contains, as data."""

    region: str
    score: float
    grade: str
    credit: int
    lines: Tuple[UseCaseLine, ...]
    fix_first: Optional[str]
    tests: int
    datasets: Tuple[str, ...]
    #: Configured datasets that contributed nothing to this region's
    #: score (degraded-mode scoring); empty for full coverage.
    degraded_datasets: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when the label rests on less data than configured."""
        return bool(self.degraded_datasets)


def build_scorecard(
    records: MeasurementSet,
    region: str,
    config: Optional[IQBConfig] = None,
) -> Scorecard:
    """Build a consumer scorecard for one region of a measurement set."""
    config = config or paper_config()
    subset = records.for_region(region)
    sources = subset.group_by_source()
    breakdown = score_region(sources, config)
    return scorecard_from_breakdown(
        breakdown,
        region=region,
        tests=len(subset),
        datasets=tuple(sorted(sources)),
    )


def build_scorecards(
    records: MeasurementSet,
    config: Optional[IQBConfig] = None,
) -> Dict[str, Scorecard]:
    """Scorecards for every region of a batch, off shared columns.

    The comparison-site workload: one national measurement batch in,
    one label per region out. Grouping and quantile aggregation are
    shared across regions via :func:`repro.core.scoring.score_regions`.
    """
    config = config or paper_config()
    breakdowns = score_regions(records, config)
    by_region = records.group_by_region()
    return {
        region: scorecard_from_breakdown(
            breakdown,
            region=region,
            tests=len(by_region[region]),
            datasets=by_region[region].sources(),
        )
        for region, breakdown in breakdowns.items()
    }


def scorecard_from_breakdown(
    breakdown: ScoreBreakdown,
    region: str,
    tests: int = 0,
    datasets: Tuple[str, ...] = (),
) -> Scorecard:
    """Build the scorecard from an already-computed breakdown."""
    lines = tuple(
        UseCaseLine(
            use_case=entry.use_case,
            score=entry.value,
            grade=grade(entry.value),
            verdict=VERDICTS[grade(entry.value)],
        )
        for entry in breakdown.use_cases
    )
    opportunities = improvement_opportunities(breakdown)
    fix_first = None
    if opportunities:
        top = opportunities[0]
        fix_first = (
            f"{top.metric.display_name.lower()} for "
            f"{top.use_case.display_name.lower()} (+{top.iqb_gain:.2f})"
        )
    return Scorecard(
        region=region,
        score=breakdown.value,
        grade=breakdown.grade,
        credit=credit_scale(breakdown.value),
        lines=lines,
        fix_first=fix_first,
        tests=tests,
        datasets=datasets,
        degraded_datasets=breakdown.degraded_datasets,
    )


def render_scorecard(card: Scorecard, width: int = 68) -> str:
    """ASCII broadband-label rendering of a scorecard."""
    inner = width - 2

    def row(text: str = "") -> str:
        return "|" + text.ljust(inner)[:inner] + "|"

    rule = "+" + "-" * inner + "+"
    lines: List[str] = [
        rule,
        row(f" INTERNET QUALITY BAROMETER  -  {card.region}"),
        rule,
        row(
            f" Overall: grade {card.grade}   "
            f"score {card.score:.2f}   {card.credit}/850"
        ),
        rule,
    ]
    for line in card.lines:
        bar = "#" * round(line.score * 10)
        lines.append(
            row(
                f" {line.use_case.display_name:<19}"
                f"{line.grade}  {bar:<10} {line.verdict}"
            )
        )
    lines.append(rule)
    if card.fix_first:
        lines.append(row(" Fix first: " + card.fix_first))
    source = ", ".join(card.datasets) if card.datasets else "n/a"
    lines.append(row(f" Based on {card.tests} tests from: {source}"))
    if card.degraded:
        missing = ", ".join(card.degraded_datasets)
        lines.append(row(f" DEGRADED: no usable data from {missing}"))
    lines.append(rule)
    return "\n".join(lines)
