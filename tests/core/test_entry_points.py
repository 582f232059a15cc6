"""Differential test: every scoring entry point against the scalar oracle.

A published score is defensible only if every way of asking for it
gives the same answer. Hypothesis draws a ragged measurement batch
(``batches()`` from the kernel parity suite) and a random
configuration — dataset weights 0-5 with whole zero rows, random
requirement and use-case weights, percentile rule, quality level,
range policy, score mode, missing-data policy and a mixed exact/sketch
quantile policy — and runs each entry point on it:

* ``score_regions`` on a record batch, a ``ColumnarStore`` and a
  pre-grouped ``region → {dataset → source}`` mapping;
* ``score_region`` on five source kinds: MeasurementSet groups,
  ColumnarStore views, sketch views, published aggregate tables and
  plain ``SequenceSource`` sequences;
* ``score_values`` on a store (the scores-only path);
* ``ScoringService.breakdown(region)`` for every region, and
  ``.scores()``;
* ``iqb score FILE --json``.

The ``serve --follow`` entry point is held to a cold store instead: a
service fed the same records as two or more ``ColumnBatch`` ingests
must give every region's tree and value that a ``ColumnarStore`` built
from all of them at once gives.

Each result must equal the scalar walk in :mod:`tests.core.scalar_oracle`
bit for bit — the ``ScoreBreakdown`` trees compare equal and serialize
to the same JSON — and satisfy the fully expanded Eq. 5
(:func:`repro.core.scoring.flat_score`). Wherever the oracle raises a
``DataError``, the entry point raises one with the same text.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.cli import main
from repro.core.aggregation import (
    AggregationPolicy,
    PercentileSemantics,
    SequenceSource,
)
from repro.core.config import (
    MissingDataPolicy,
    QuantileMode,
    QuantilePolicy,
    ScoreMode,
    paper_config,
)
from repro.core.exceptions import DataError
from repro.core.kernel import score_values
from repro.core.metrics import Metric
from repro.core.quality import QualityLevel
from repro.core.scoring import flat_score, score_region, score_regions
from repro.core.thresholds import RangePolicy
from repro.core.usecases import UseCase
from repro.core.weights import (
    DatasetWeights,
    RequirementWeights,
    UseCaseWeights,
)
from repro.measurements.aggregates import aggregate_measurements
from repro.measurements.columnar import ColumnarStore, ColumnBatch
from repro.measurements.io import write_jsonl
from repro.serve.service import ScoringService

from tests.core import scalar_oracle as oracle
from tests.core.test_kernel_parity import DATASETS, batches

PERCENTILES = (0.0, 5.0, 50.0, 95.0, 99.0, 100.0)
WEIGHTS = st.integers(min_value=0, max_value=5)
CELLS = tuple((u, m) for u in UseCase.ordered() for m in Metric.ordered())

#: Eq. 5 expands the tiers into one sum, so it agrees with the nested
#: Eqs. 1-4 to rounding, not bit for bit.
EQ5_TOLERANCE = 1e-12

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def configs(draw):
    """A random scoring configuration over the batch datasets."""
    zero_rows = draw(st.sets(st.sampled_from(CELLS), max_size=6))
    dataset_weights = DatasetWeights(
        {
            (u, m, d): 0 if (u, m) in zero_rows else draw(WEIGHTS)
            for u, m in CELLS
            for d in DATASETS
        }
    )
    requirement = {cell: draw(WEIGHTS) for cell in CELLS}
    for use_case in UseCase.ordered():
        # Each use case needs one positive requirement weight.
        if not any(requirement[(use_case, m)] for m in Metric.ordered()):
            metric = draw(st.sampled_from(Metric.ordered()))
            requirement[(use_case, metric)] = draw(
                st.integers(min_value=1, max_value=5)
            )
    use_case_weights = {u: draw(WEIGHTS) for u in UseCase.ordered()}
    if not any(use_case_weights.values()):
        use_case_weights[draw(st.sampled_from(UseCase.ordered()))] = 1
    modes = st.sampled_from(tuple(QuantileMode))
    overrides = draw(st.sets(st.sampled_from(DATASETS)))
    return paper_config().with_(
        dataset_weights=dataset_weights,
        requirement_weights=RequirementWeights(requirement),
        use_case_weights=UseCaseWeights(use_case_weights),
        aggregation=AggregationPolicy(
            percentile=draw(st.sampled_from(PERCENTILES)),
            semantics=draw(st.sampled_from(tuple(PercentileSemantics))),
        ),
        quality_level=draw(st.sampled_from(tuple(QualityLevel))),
        range_policy=draw(st.sampled_from(tuple(RangePolicy))),
        score_mode=draw(st.sampled_from(tuple(ScoreMode))),
        missing_data=draw(st.sampled_from(tuple(MissingDataPolicy))),
        quantiles=QuantilePolicy(
            default=draw(modes),
            overrides=tuple((d, draw(modes)) for d in sorted(overrides)),
        ),
    )


def _document(breakdowns):
    """The serialized form ``iqb score --json`` prints per region."""
    return json.dumps(
        {region: breakdown.to_dict() for region, breakdown in breakdowns.items()}
    )


def _oracle(call):
    """(result, None) or (None, DataError text) for one oracle call."""
    try:
        return call(), None
    except DataError as exc:
        return None, str(exc)


def _assert_matches(call, expected, error):
    """``call()`` equals the oracle's breakdowns, or raises its error."""
    if error is not None:
        with pytest.raises(DataError) as caught:
            call()
        assert str(caught.value) == error
        return
    got = call()
    assert list(got) == list(expected)
    assert got == expected  # dataclass ==: bitwise on every float
    assert _document(got) == _document(expected)
    for breakdown in got.values():
        assert math.isclose(
            flat_score(breakdown),
            breakdown.value,
            rel_tol=0.0,
            abs_tol=EQ5_TOLERANCE,
        )


def _assert_values_match(call, expected, error):
    """A scores-only result equals the oracle's composites."""
    if error is not None:
        with pytest.raises(DataError) as caught:
            call()
        assert str(caught.value) == error
        return
    got = call()
    assert list(got) == list(expected)
    for region, breakdown in expected.items():
        assert got[region] == breakdown.value
        assert type(got[region]) is float


def _source_kinds(records, store, region):
    """(label, dataset → source) for each of the five source kinds."""
    groups = records.for_region(region).group_by_source()
    return (
        ("exact", groups),
        ("exact", store.sources_by_region()[region]),
        ("sketch", store.sketch_plane().sources_by_region()[region]),
        (
            "exact",
            {
                dataset: aggregate_measurements(records, region, dataset)
                for dataset in groups
            },
        ),
        (
            "exact",
            {
                dataset: SequenceSource(
                    **{
                        metric.field_name: group.values(metric) or None
                        for metric in Metric.ordered()
                    }
                )
                for dataset, group in groups.items()
            },
        ),
    )


class TestBatchEntryPoints:
    @settings(max_examples=60, **SETTINGS)
    @given(records=batches(), config=configs())
    def test_batch_surfaces_match_oracle(self, records, config):
        store = ColumnarStore(list(records))
        expected, error = _oracle(lambda: oracle.score_regions(records, config))
        _assert_matches(lambda: score_regions(records, config), expected, error)
        _assert_matches(lambda: score_regions(store, config), expected, error)

        service = ScoringService(store, config)
        _assert_matches(
            lambda: _service_breakdowns(service, records), expected, error
        )
        _assert_values_match(lambda: dict(service.scores().values), expected, error)

        # A store with no mode override scores its native exact plane.
        exact, exact_error = _oracle(
            lambda: oracle.score_regions(store, config, quantiles="exact")
        )
        _assert_values_match(lambda: score_values(store, config), exact, exact_error)

        # Pre-grouped sources are opaque: scored as given, stamped exact.
        grouped = store.sources_by_region()
        expected, error = _oracle(lambda: oracle.score_regions(grouped, config))
        _assert_matches(lambda: score_regions(grouped, config), expected, error)

    @settings(max_examples=60, **SETTINGS)
    @given(records=batches(), config=configs())
    def test_score_region_on_every_source_kind(self, records, config):
        store = ColumnarStore(list(records))
        for region in records.regions():
            for label, sources in _source_kinds(records, store, region):
                expected, error = _oracle(
                    lambda: {
                        region: oracle.score_region(
                            sources, config, quantile_source=label
                        )
                    }
                )
                _assert_matches(
                    lambda: {
                        region: score_region(
                            sources, config, quantile_source=label
                        )
                    },
                    expected,
                    error,
                )


def _service_breakdowns(service, records):
    """Every region's tree as ``ScoringService.breakdown`` answers it."""
    return {
        region: service.breakdown(region)[1]
        for region in sorted(records.regions())
    }


class TestFollowEntryPoint:
    @settings(max_examples=40, **SETTINGS)
    @given(records=batches(), config=configs(), data=st.data())
    def test_appended_batches_match_a_cold_store(self, records, config, data):
        rows = list(records)
        assume(len(rows) >= 2)
        cuts = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=1, max_value=len(rows) - 1),
                    min_size=1,
                    max_size=3,
                )
            )
        )
        service = ScoringService(ColumnarStore([]), config)
        for start, stop in zip([0] + cuts, cuts + [len(rows)]):
            batch = ColumnBatch.from_records(rows[start:stop])
            assert service.ingest(batch) == stop - start
            # serve --follow reads between appends; a generation whose
            # records leave a use case unscored answers an error.
            with contextlib.suppress(DataError):
                service.scores()
        assert service.generation == len(cuts) + 1

        cold = ColumnarStore(rows)
        expected, error = _oracle(lambda: score_regions(cold, config))
        _assert_matches(
            lambda: _service_breakdowns(service, records), expected, error
        )
        _assert_values_match(lambda: dict(service.scores().values), expected, error)


class TestCliEntryPoint:
    @settings(max_examples=12, **SETTINGS)
    @given(records=batches(), config=configs())
    def test_score_json_matches_oracle(self, records, config):
        expected, error = _oracle(lambda: oracle.score_regions(records, config))
        with tempfile.TemporaryDirectory() as work:
            data = Path(work) / "batch.jsonl"
            config_path = Path(work) / "config.json"
            write_jsonl(records, data)
            config.save(config_path)
            argv = ["score", str(data), "--json", "--config", str(config_path)]
            stdout = io.StringIO()
            if error is not None:
                with pytest.raises(DataError) as caught:
                    with contextlib.redirect_stdout(stdout):
                        main(argv)
                assert str(caught.value) == error
                return
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0
        document = json.loads(stdout.getvalue())
        assert document["regions"] == json.loads(_document(expected))


class TestMappingErrors:
    def test_region_without_sources_keeps_score_region_text(self):
        config = paper_config()
        with pytest.raises(DataError) as want:
            oracle.score_regions({"alpha": {}}, config)
        with pytest.raises(DataError) as got:
            score_regions({"alpha": {}}, config)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "score_region needs at least one dataset source"

    def test_empty_mapping_rejected(self):
        with pytest.raises(DataError) as want:
            oracle.score_regions({}, paper_config())
        with pytest.raises(DataError) as got:
            score_regions({}, paper_config())
        assert str(got.value) == str(want.value)

    def test_score_region_without_sources(self):
        with pytest.raises(DataError) as want:
            oracle.score_region({}, paper_config())
        with pytest.raises(DataError) as got:
            score_region({}, paper_config())
        assert str(got.value) == str(want.value)
