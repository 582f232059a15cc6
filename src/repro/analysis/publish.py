"""Publication builder: the periodic barometer report as Markdown.

A deployed barometer publishes a document, not a dict: headline
national score, the regional table, per-region drill-downs (grades,
failing requirements, improvement targets), and data provenance. This
module assembles that document from a measurement set so `iqb publish`
(and any scheduled job wrapping it) is one call.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.core.config import IQBConfig, paper_config
from repro.core.scoring import ScoreBreakdown, score_regions
from repro.core.targets import metric_targets
from repro.measurements.collection import MeasurementSet
from repro.obs import span

from .national import national_score
from .ranking import rank_regions
from .tables import render_markdown


def build_publication(
    records: MeasurementSet,
    config: Optional[IQBConfig] = None,
    populations: Optional[Mapping[str, float]] = None,
    title: str = "Internet Quality Barometer report",
    breakdowns: Optional[Mapping[str, ScoreBreakdown]] = None,
) -> str:
    """Assemble the full Markdown publication for a measurement set.

    Args:
        records: the reporting period's measurements (all regions).
        config: scoring config (default: the paper's).
        populations: region → population; when provided, a national
            roll-up section is included.
        breakdowns: pre-computed per-region breakdowns; when given the
            batch scorer is skipped (callers that already scored —
            e.g. to register degraded regions in a run manifest —
            publish without paying for a second pass).

    Raises:
        DataError: when the measurement set is empty (nothing to
            publish) — via the underlying scorers.
    """
    config = config or paper_config()
    with span("publish", measurements=len(records)) as stage:
        # Batch fast path: one grouping pass + shared columns for all
        # regions.
        if breakdowns is None:
            breakdowns = score_regions(records, config)
        stage.annotate(regions=len(breakdowns))

        with span("publish_render"):
            sections: List[str] = [f"# {title}", ""]
            sections.extend(_headline_section(breakdowns, populations))
            sections.extend(_regional_table(records, breakdowns))
            for region, _ in rank_regions(
                {name: b.value for name, b in breakdowns.items()}
            ):
                sections.extend(_region_section(region, breakdowns[region]))
            sections.extend(_provenance_section(records, config))
    return "\n".join(sections)


def _headline_section(
    breakdowns: Mapping[str, ScoreBreakdown],
    populations: Optional[Mapping[str, float]],
) -> List[str]:
    if not populations:
        return []
    national = national_score(
        {region: b.value for region, b in breakdowns.items()}, populations
    )
    lines = [
        "## National headline",
        "",
        f"**National IQB: {national.value:.3f}** "
        f"(grade-equivalent spread below; shortfall {national.shortfall:.3f})",
        "",
        "Largest shortfall contributors:",
        "",
    ]
    for share in national.ranked_by_shortfall()[:3]:
        lines.append(
            f"- **{share.region}** — score {share.score:.3f}, "
            f"{share.weight:.1%} of population, "
            f"{share.shortfall_contribution:.3f} of the shortfall"
        )
    lines.append("")
    return lines


def _regional_table(
    records: MeasurementSet,
    breakdowns: Mapping[str, ScoreBreakdown],
) -> List[str]:
    rows = []
    degraded_notes: List[str] = []
    for region, score in rank_regions(
        {name: b.value for name, b in breakdowns.items()}
    ):
        breakdown = breakdowns[region]
        label = region
        if breakdown.degraded:
            label = f"{region} \\*"
            degraded_notes.append(
                f"- \\* **{region}**: scored without "
                f"{', '.join(breakdown.degraded_datasets)} "
                f"(degraded data coverage)"
            )
        rows.append(
            (
                label,
                f"{score:.3f}",
                breakdown.grade,
                breakdown.credit,
                len(records.for_region(region)),
            )
        )
    lines = [
        "## Regional scores",
        "",
        render_markdown(
            ["Region", "IQB", "Grade", "Credit", "Tests"], rows
        ),
        "",
    ]
    if degraded_notes:
        lines.extend(degraded_notes)
        lines.append("")
    return lines


def _region_section(region: str, breakdown: ScoreBreakdown) -> List[str]:
    lines = [
        f"## {region}",
        "",
        f"Score **{breakdown.value:.3f}** (grade {breakdown.grade}).",
        "",
    ]
    if breakdown.degraded:
        lines.extend(
            [
                f"> **Degraded:** no usable measurements from "
                f"{', '.join(breakdown.degraded_datasets)}; the score "
                f"rests on the remaining datasets (Eq. 1 renormalized).",
                "",
            ]
        )
    lines.extend([
        render_markdown(
            ["Use case", "Score"],
            [
                (entry.use_case.display_name, f"{entry.value:.2f}")
                for entry in breakdown.use_cases
            ],
        ),
        "",
    ])
    targets = metric_targets(breakdown)
    if targets:
        lines.append("Improvement needed to clear every failing bar:")
        lines.append("")
        for metric, value in sorted(
            targets.items(), key=lambda kv: kv[0].value
        ):
            lines.append(f"- {metric.display_name}: {value:.3g} {metric.unit}")
        lines.append("")
    else:
        lines.append("Every requirement threshold is met.")
        lines.append("")
    return lines


def _provenance_section(
    records: MeasurementSet, config: IQBConfig
) -> List[str]:
    sources = ", ".join(records.sources())
    return [
        "## Methodology & provenance",
        "",
        f"- {len(records)} measurements from: {sources}",
        f"- Aggregation: p{config.aggregation.percentile:g} "
        f"({config.aggregation.semantics.value} semantics)",
        f"- Quality level: {config.quality_level.value}; "
        f"score mode: {config.score_mode.value}",
        "- Scoring per the IQB framework (Fig. 2 thresholds, Table 1 "
        "weights unless overridden).",
        "",
    ]
