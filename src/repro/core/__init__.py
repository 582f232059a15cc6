"""The IQB core: the paper's contribution.

Public surface of the framework — use cases, metrics, thresholds
(Fig. 2), weights (Table 1), the aggregation rule, the score formulas
(Eqs. 1-5), and the analysis extensions (explain / sensitivity /
uncertainty / elicitation).
"""

from .aggregation import (
    AggregationPolicy,
    PercentileSemantics,
    QuantileSource,
    SequenceSource,
    aggregate_metric,
    percentile_of,
)
from .compare import (
    Attribution,
    AttributionEntry,
    Contribution,
    attribute_difference,
    render_attribution,
    requirement_contributions,
)
from .config import (
    DEFAULT_DATASET_CAPABILITIES,
    IQBConfig,
    MissingDataPolicy,
    QuantileMode,
    QuantilePolicy,
    ScoreMode,
    paper_config,
)
from .exceptions import (
    AggregationError,
    BackendError,
    ConfigurationError,
    DataError,
    IQBError,
    ProbeError,
    SchemaError,
    ThresholdError,
    WeightError,
)
from .framework import IQBFramework, region_scores_table
from .lint import LintFinding, Severity, lint_config
from .targets import (
    ThresholdGap,
    VerdictMargin,
    metric_targets,
    render_targets,
    threshold_gaps,
    verdict_margins,
)
from .metrics import (
    Direction,
    Metric,
    loss_fraction_to_percent,
    loss_percent_to_fraction,
)
from .quality import QualityLevel, credit_scale, describe, grade
from .scoring import (
    DatasetVerdict,
    RequirementScore,
    ScoreBreakdown,
    UseCaseScore,
    flat_score,
    score_region,
    score_regions,
)
from .thresholds import (
    RangePolicy,
    Threshold,
    ThresholdRange,
    ThresholdTable,
    paper_thresholds,
)
from .usecases import UseCase
from .weights import (
    DatasetWeights,
    RequirementWeights,
    UseCaseWeights,
    equal_use_case_weights,
    paper_requirement_weights,
    popularity_use_case_weights,
)

__all__ = [
    "AggregationError",
    "AggregationPolicy",
    "Attribution",
    "AttributionEntry",
    "BackendError",
    "ConfigurationError",
    "Contribution",
    "DEFAULT_DATASET_CAPABILITIES",
    "DataError",
    "DatasetVerdict",
    "DatasetWeights",
    "Direction",
    "IQBConfig",
    "IQBError",
    "IQBFramework",
    "LintFinding",
    "Metric",
    "MissingDataPolicy",
    "QuantileMode",
    "QuantilePolicy",
    "PercentileSemantics",
    "ProbeError",
    "QualityLevel",
    "QuantileSource",
    "RangePolicy",
    "RequirementScore",
    "RequirementWeights",
    "SchemaError",
    "ScoreBreakdown",
    "ScoreMode",
    "SequenceSource",
    "Severity",
    "Threshold",
    "ThresholdError",
    "ThresholdGap",
    "ThresholdRange",
    "ThresholdTable",
    "UseCase",
    "UseCaseScore",
    "UseCaseWeights",
    "VerdictMargin",
    "WeightError",
    "aggregate_metric",
    "attribute_difference",
    "credit_scale",
    "describe",
    "equal_use_case_weights",
    "flat_score",
    "grade",
    "lint_config",
    "loss_fraction_to_percent",
    "metric_targets",
    "loss_percent_to_fraction",
    "paper_config",
    "paper_requirement_weights",
    "paper_thresholds",
    "percentile_of",
    "popularity_use_case_weights",
    "region_scores_table",
    "render_attribution",
    "render_targets",
    "requirement_contributions",
    "score_region",
    "score_regions",
    "threshold_gaps",
    "verdict_margins",
]
