"""Bench ext-scale — pipeline throughput at deployment scale.

Paper artifact: none directly; the framework is pitched as a continuously
updated public barometer, so the reproduction documents what the
scoring pipeline costs. Among the benches:

* scoring cost for one region as the per-dataset measurement volume
  grows (the percentile aggregation dominates);
* full-pipeline cost (simulate + score) per region, the number that
  bounds how many regions a periodic barometer refresh can cover;
* ``score_regions`` over a cold columnar store of all six presets at
  the largest volume, in one process, as every command scores.
"""

import pytest

from repro.core import score_region, score_regions
from repro.measurements import ColumnarStore, MeasurementSet
from repro.netsim import CampaignConfig, region_preset, simulate_region
from repro.netsim.population import REGION_PRESETS

#: Matches the largest volume in test_bench_scoring_vs_volume's sweep.
TESTS_PER_CLIENT = 1600


@pytest.mark.parametrize("tests_per_client", [100, 400, 1600])
def test_bench_scoring_vs_volume(benchmark, config, tests_per_client):
    campaign = CampaignConfig(subscribers=50, tests_per_client=tests_per_client)
    records = simulate_region(region_preset("mixed-urban"), 3, campaign)
    sources = records.group_by_source()

    breakdown = benchmark(score_region, sources, config)

    assert 0.0 <= breakdown.value <= 1.0
    assert sum(len(s) for s in sources.values()) == 3 * tests_per_client


def test_bench_full_pipeline_per_region(benchmark, config):
    campaign = CampaignConfig(subscribers=60, tests_per_client=250)

    def pipeline():
        records = simulate_region(region_preset("suburban-cable"), 5, campaign)
        return score_region(records.group_by_source(), config).value

    value = benchmark(pipeline)
    assert 0.0 <= value <= 1.0


def test_bench_grouping_cost(benchmark, config):
    campaign = CampaignConfig(subscribers=60, tests_per_client=400)
    combined = MeasurementSet()
    for name in ("metro-fiber", "rural-dsl", "mixed-urban"):
        combined = combined + simulate_region(region_preset(name), 7, campaign)

    def group_and_score():
        return {
            region: score_region(subset.group_by_source(), config).value
            for region, subset in combined.group_by_region().items()
        }

    scores = benchmark(group_and_score)
    assert len(scores) == 3


def test_bench_batch_score_regions(benchmark, config):
    """The columnar batch path over a cold store, including transpose."""
    campaign = CampaignConfig(subscribers=60, tests_per_client=400)
    combined = MeasurementSet()
    for name in ("metro-fiber", "rural-dsl", "mixed-urban"):
        combined = combined + simulate_region(region_preset(name), 7, campaign)
    records = list(combined)

    def batch_score():
        # Rebuild the store every round so the bench includes the
        # one-pass transpose + grouping, not just warm-cache hits.
        return score_regions(ColumnarStore(records), config)

    breakdowns = benchmark(batch_score)

    assert len(breakdowns) == 3
    # The fast path must agree with the reference loop bit-for-bit.
    for region, subset in combined.group_by_region().items():
        assert breakdowns[region] == score_region(
            subset.group_by_source(), config
        )


@pytest.fixture(scope="module")
def large_batch():
    """All six presets at the largest scale-bench volume."""
    campaign = CampaignConfig(
        subscribers=50, tests_per_client=TESTS_PER_CLIENT
    )
    combined = MeasurementSet()
    for name in sorted(REGION_PRESETS):
        combined = combined + simulate_region(
            region_preset(name), seed=42, config=campaign
        )
    return list(combined)


def test_bench_score_regions_serial(benchmark, config, large_batch):
    """Baseline: the columnar batch path, one process."""

    def serial():
        return score_regions(ColumnarStore(large_batch), config)

    breakdowns = benchmark(serial)
    assert len(breakdowns) == len(REGION_PRESETS)
