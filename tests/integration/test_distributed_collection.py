"""Integration test: sharded collection with mergeable digest sinks.

Models the distributed reality of real measurement fleets: several
collector shards each see a disjoint slice of the probe stream, build
bounded-memory t-digest state, and a coordinator merges the shards and
scores regions — with no raw measurement ever centralized.
"""

import pytest

from repro.core import paper_config, score_region
from repro.core.metrics import Metric
from repro.netsim import CampaignConfig, region_preset, simulate_region
from repro.probing.sinks import SketchSink


@pytest.fixture(scope="module")
def campaign():
    config = CampaignConfig(subscribers=50, tests_per_client=400)
    return simulate_region(region_preset("suburban-cable"), seed=47, config=config)


class TestShardedCollection:
    def shard(self, records, shards=4):
        sinks = [SketchSink() for _ in range(shards)]
        for i, record in enumerate(records):
            sinks[i % shards].accept(record)
        return sinks

    def test_merged_shards_match_exact_scoring(self, campaign, config):
        sinks = self.shard(campaign)
        merged = sinks[0]
        for sink in sinks[1:]:
            merged = merged.merge(sink)
        assert len(merged) == len(campaign)

        exact = score_region(campaign.group_by_source(), config).value
        sketched = score_region(
            merged.plane.sources_by_region()["suburban-cable"], config
        ).value
        # Binary thresholding amplifies tiny quantile errors only when
        # an aggregate sits exactly on a bar; allow one verdict of slack.
        assert sketched == pytest.approx(exact, abs=0.12)

    def test_merged_quantiles_close_to_exact(self, campaign):
        sinks = self.shard(campaign)
        merged = sinks[0]
        for sink in sinks[1:]:
            merged = merged.merge(sink)
        view = merged.plane.sources_by_region()["suburban-cable"]["ndt"]
        exact_source = campaign.for_source("ndt")
        for metric in (Metric.DOWNLOAD, Metric.LATENCY):
            exact = exact_source.quantile(metric, 95.0)
            sketched = view.quantile(metric, 95.0)
            assert sketched == pytest.approx(exact, rel=0.05)

    def test_shards_unchanged_by_merge(self, campaign):
        sinks = self.shard(campaign, shards=2)
        before = sinks[0].state_dict()
        sinks[0].merge(sinks[1])
        assert sinks[0].state_dict() == before

    def test_single_shard_equals_unsharded(self, campaign, config):
        whole = SketchSink()
        for record in campaign:
            whole.accept(record)
        sharded = self.shard(campaign, shards=1)[0]
        whole_score = score_region(
            whole.plane.sources_by_region()["suburban-cable"], config
        ).value
        shard_score = score_region(
            sharded.plane.sources_by_region()["suburban-cable"], config
        ).value
        assert whole_score == pytest.approx(shard_score)

    def test_missing_metric_stays_missing_through_merge(self, campaign):
        sinks = self.shard(campaign)
        merged = sinks[0].merge(sinks[1])
        ookla = merged.plane.sources_by_region()["suburban-cable"]["ookla"]
        assert ookla.quantile(Metric.PACKET_LOSS, 95.0) is None
        assert ookla.sample_count(Metric.PACKET_LOSS) == 0
