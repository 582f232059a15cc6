"""Region report builder.

Assembles everything a decision-maker would want for one region into a
single plain-text document: the composite score and grade, per-use-case
scores, requirement-level detail with dataset corroboration, data
volumes, dataset disagreements, and top improvement opportunities.
Used by the CLI's ``report`` command and the regional examples.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import IQBConfig, paper_config
from repro.core.explain import disagreements, improvement_opportunities
from repro.core.metrics import Metric
from repro.core.scoring import ScoreBreakdown, score_region, score_regions
from repro.measurements.collection import MeasurementSet

from .tables import render_table


def region_report(
    records: MeasurementSet,
    region: str,
    config: Optional[IQBConfig] = None,
) -> str:
    """Full plain-text report for one region of a measurement set."""
    config = config or paper_config()
    subset = records.for_region(region)
    sources = subset.group_by_source()
    breakdown = score_region(sources, config)
    lines: List[str] = [
        f"=== IQB report: {region} ===",
        "",
        f"IQB score : {breakdown.value:.3f}",
        f"Grade     : {breakdown.grade}",
        f"Credit    : {breakdown.credit}/850",
        f"Records   : {len(subset)} across {len(sources)} datasets "
        f"({', '.join(sorted(sources))})",
        "",
        "Use-case scores",
        render_table(
            ["Use case", "S_u", "Weight"],
            [
                (entry.use_case.display_name, entry.value, entry.weight)
                for entry in breakdown.use_cases
            ],
            indent="  ",
        ),
        "",
        "Requirement detail",
        _requirement_table(breakdown),
    ]
    lines.extend(_disagreement_section(breakdown))
    lines.extend(_opportunity_section(breakdown))
    return "\n".join(lines)


def _requirement_table(breakdown: ScoreBreakdown) -> str:
    rows = []
    for entry in breakdown.use_cases:
        for req in entry.requirements:
            verdicts = (
                " ".join(
                    f"{v.dataset}:{'P' if v.passed else 'F'}"
                    for v in req.verdicts
                )
                or "(no data)"
            )
            rows.append(
                (
                    entry.use_case.value,
                    req.metric.value,
                    "skip" if req.value is None else f"{req.value:.2f}",
                    f"{req.threshold:.3g}",
                    verdicts,
                )
            )
    return render_table(
        ["Use case", "Requirement", "S_u,r", "Threshold", "Datasets"],
        rows,
        indent="  ",
    )


def _disagreement_section(breakdown: ScoreBreakdown) -> List[str]:
    findings = disagreements(breakdown)
    if not findings:
        return ["", "Dataset corroboration: all datasets agree on every requirement."]
    lines = ["", "Dataset disagreements (corroboration weak here):"]
    for finding in findings:
        lines.append(
            f"  {finding.use_case.value}/{finding.metric.value}: "
            f"S={finding.agreement:.2f} [{finding.detail}]"
        )
    return lines


def _opportunity_section(breakdown: ScoreBreakdown) -> List[str]:
    gaps = improvement_opportunities(breakdown)
    if not gaps:
        return ["", "No improvement opportunities: every requirement fully met."]
    lines = ["", "Top improvement opportunities:"]
    for opportunity in gaps[:5]:
        lines.append(
            f"  +{opportunity.iqb_gain:.3f} IQB — "
            f"{opportunity.use_case.value}/{opportunity.metric.value} "
            f"(currently {opportunity.current_agreement:.2f})"
        )
    return lines


def comparison_report(
    records: MeasurementSet,
    config: Optional[IQBConfig] = None,
    quantiles: Optional[str] = None,
) -> str:
    """Side-by-side score table for every region in a measurement set.

    ``quantiles`` overrides the config's exact/sketch quantile-plane
    policy.
    """
    config = config or paper_config()
    # Batch fast path: group once, score every region off shared columns.
    # An empty set renders as an empty table, matching the old loop.
    breakdowns = (
        score_regions(records, config, quantiles=quantiles)
        if len(records)
        else {}
    )
    rows = []
    for region, breakdown in breakdowns.items():
        rows.append(
            (
                region,
                breakdown.value,
                breakdown.grade,
                breakdown.credit,
                _region_tests(records, region),
            )
        )
    rows.sort(key=lambda row: -float(row[1]))
    return render_table(
        ["Region", "IQB", "Grade", "Credit", "Tests"], rows
    )


def _region_tests(records: object, region: str) -> int:
    """One region's observation count, for any scoreable store.

    Record-backed stores expose ``for_region``; sketch planes (the
    ``--from-cache`` path) only carry per-view sample tallies, so fall
    back to summing those.
    """
    for_region = getattr(records, "for_region", None)
    if for_region is not None:
        return len(for_region(region))
    views = records.sources_by_region().get(region, {})
    return sum(len(view) for view in views.values())
