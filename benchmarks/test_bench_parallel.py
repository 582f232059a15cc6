"""Bench ext-parallel — serial batch scoring at scale.

Paper artifact: none directly; a deployed barometer refreshing many
regions wants wall-clock. This bench measures ``score_regions`` over a
cold columnar store at the largest scale-bench volume, in one process:
scoring is not sharded, since splitting it by region cost more in fork
and merge overhead than it saved, and ingest is not sharded either (a
forked reader lost to the serial one).
"""

import pytest

from repro.core import score_regions
from repro.measurements import ColumnarStore, MeasurementSet
from repro.netsim import CampaignConfig, region_preset, simulate_region
from repro.netsim.population import REGION_PRESETS

#: Matches the largest volume in test_bench_scale.py's volume sweep.
TESTS_PER_CLIENT = 1600


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
