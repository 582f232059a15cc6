"""Integration tests: the full simulate → collect → score → report path."""

import pytest

from repro.core import IQBFramework, paper_config, score_region
from repro.core.scoring import flat_score
from repro.measurements import aggregate_measurements, read_jsonl, write_jsonl
from repro.netsim import CampaignConfig, REGION_PRESETS, region_preset, simulate_region
from repro.probing import (
    DiurnalSchedule,
    FanOutSink,
    MemorySink,
    ProbeRunner,
    SimulatedBackend,
    SketchSink,
)

CAMPAIGN = CampaignConfig(subscribers=30, tests_per_client=150)


class TestSimulateScorePipeline:
    @pytest.fixture(scope="class")
    def scores(self):
        framework = IQBFramework()
        out = {}
        for name in REGION_PRESETS:
            records = simulate_region(region_preset(name), seed=21, config=CAMPAIGN)
            out[name] = framework.score_measurements(records, name)
        return out

    def test_quality_gradient_across_presets(self, scores):
        # The central sanity check: IQB resolves the designed-in quality
        # spectrum of the region presets.
        assert scores["metro-fiber"].value > scores["suburban-cable"].value
        assert scores["suburban-cable"].value > scores["rural-dsl"].value
        assert scores["metro-fiber"].value > scores["satellite-remote"].value

    def test_fiber_earns_a_decent_grade(self, scores):
        assert scores["metro-fiber"].grade in ("A", "B")

    def test_satellite_fails_interactive_use_cases(self, scores):
        from repro.core import UseCase

        breakdown = scores["satellite-remote"]
        conferencing = breakdown.use_case(UseCase.VIDEO_CONFERENCING)
        assert conferencing.value < 0.3

    def test_eq5_expansion_on_real_campaigns(self, scores):
        for breakdown in scores.values():
            assert flat_score(breakdown) == pytest.approx(breakdown.value)


class TestRoundTripThroughDisk:
    def test_jsonl_round_trip_preserves_scores(self, tmp_path):
        records = simulate_region(region_preset("mixed-urban"), seed=5, config=CAMPAIGN)
        framework = IQBFramework()
        direct = framework.score_measurements(records, "mixed-urban")
        path = tmp_path / "campaign.jsonl"
        write_jsonl(records, path)
        loaded = read_jsonl(path)
        reloaded = framework.score_measurements(loaded, "mixed-urban")
        assert reloaded.value == pytest.approx(direct.value)


class TestProbingToScore:
    def test_probing_framework_matches_streaming_sink(self):
        regions = ("metro-fiber", "rural-dsl")
        backend = SimulatedBackend(
            profiles=[region_preset(r) for r in regions],
            seed=3,
            subscribers=30,
            failure_rate=0.05,
        )
        memory = MemorySink()
        streaming = SketchSink()
        runner = ProbeRunner(backend, FanOutSink(memory, streaming), max_attempts=4)
        schedule = DiurnalSchedule(
            regions=regions,
            clients=backend.clients(),
            tests_per_pair=200,
            seed=3,
        )
        report = runner.run(schedule)
        assert report.success_rate > 0.95  # retries recover most transients

        config = paper_config()
        records = memory.as_set()
        for region in regions:
            exact = score_region(
                records.for_region(region).group_by_source(), config
            ).value
            streamed = score_region(
                streaming.plane.sources_by_region()[region], config
            ).value
            assert streamed == pytest.approx(exact, abs=0.15)


class TestAggregatePath:
    def test_mixed_raw_and_aggregate_scores_close(self):
        records = simulate_region(
            region_preset("suburban-cable"), seed=8, config=CAMPAIGN
        )
        config = paper_config()
        raw_sources = records.group_by_source()
        published = aggregate_measurements(records, "suburban-cable", "ookla")
        mixed = dict(raw_sources)
        mixed["ookla"] = published
        raw_score = score_region(raw_sources, config).value
        mixed_score = score_region(mixed, config).value
        # The p95 knot is published exactly: scores must agree exactly
        # under literal semantics.
        assert mixed_score == pytest.approx(raw_score)
