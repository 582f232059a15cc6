"""score_regions (one columnar batch cube) vs score_region per region.

The batch API exists purely for speed; these tests pin the contract
that makes it safe: the batch path must return *bit-identical*
ScoreBreakdowns to scoring each region separately from its row-plane
groups, and the Eq. 5 expansion must agree with both.
"""

import pytest

from repro.core.exceptions import DataError
from repro.core.scoring import flat_score, score_region, score_regions
from repro.measurements.collection import MeasurementSet
from repro.measurements.columnar import ColumnarStore


@pytest.fixture(scope="module")
def batch(small_campaign):
    return small_campaign


def reference_breakdowns(records, config):
    """The pre-batch per-region loop, kept as the ground truth."""
    return {
        region: score_region(
            records.for_region(region).group_by_source(), config
        )
        for region in records.regions()
    }


class TestEquality:
    def test_bit_identical_to_per_region_path(self, batch, config):
        expected = reference_breakdowns(batch, config)
        actual = score_regions(batch, config)
        assert set(actual) == set(expected)
        for region in expected:
            # Frozen dataclasses compare field-by-field; float equality
            # here means every aggregate, verdict, and composite is
            # bit-identical, not merely approximately equal.
            assert actual[region] == expected[region]
            assert actual[region].value == expected[region].value

    def test_flat_score_agrees_on_fast_path(self, batch, config):
        for breakdown in score_regions(batch, config).values():
            assert flat_score(breakdown) == pytest.approx(
                breakdown.value, abs=1e-12
            )

    def test_conservative_semantics_also_identical(self, batch, config):
        from repro.core.aggregation import (
            AggregationPolicy,
            PercentileSemantics,
        )

        conservative = config.with_(
            aggregation=AggregationPolicy(
                percentile=95.0,
                semantics=PercentileSemantics.CONSERVATIVE,
            )
        )
        expected = reference_breakdowns(batch, conservative)
        actual = score_regions(batch, conservative)
        for region in expected:
            assert actual[region] == expected[region]


class TestInputs:
    def test_accepts_prebuilt_store(self, batch, config):
        store = ColumnarStore.from_measurements(batch)
        assert score_regions(store, config) == score_regions(batch, config)

    def test_accepts_pregrouped_mapping(self, batch, config):
        grouped = {
            region: batch.for_region(region).group_by_source()
            for region in batch.regions()
        }
        actual = score_regions(grouped, config)
        assert actual == reference_breakdowns(batch, config)

    def test_accepts_plain_record_iterable(self, batch, config):
        actual = score_regions(list(batch), config)
        assert set(actual) == set(batch.regions())

    def test_empty_batch_rejected(self, config):
        with pytest.raises(DataError):
            score_regions(MeasurementSet(), config)

    def test_result_keys_sorted(self, batch, config):
        assert list(score_regions(batch, config)) == sorted(batch.regions())


class TestTelemetry:
    """The scoring counters and latency timer, on every input kind."""

    @staticmethod
    def _readings():
        from repro.obs import REGISTRY

        snapshot = REGISTRY.snapshot()
        counters = snapshot["counters"]
        return (
            counters.get("scoring.batch.regions", 0),
            counters.get("scoring.region_scores", 0),
            snapshot["timers"].get("score.latency", {}).get("count", 0),
        )

    def _delta(self, call):
        before = self._readings()
        call()
        return tuple(b - a for a, b in zip(before, self._readings()))

    def test_batch_counts_every_region_once(self, batch, config):
        regions = len(batch.regions())
        grouped = ColumnarStore(list(batch)).sources_by_region()
        for records in (batch, grouped):
            assert self._delta(lambda: score_regions(records, config)) == (
                regions,
                regions,
                1,
            )

    def test_single_region_counts_one_score(self, batch, config):
        sources = batch.for_region(batch.regions()[0]).group_by_source()
        assert self._delta(lambda: score_region(sources, config)) == (0, 1, 1)
