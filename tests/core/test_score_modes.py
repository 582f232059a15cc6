"""Unit tests for the GRADED score-mode extension (DESIGN.md §2)."""

import pytest

from repro.core.aggregation import SequenceSource
from repro.core.config import ScoreMode, paper_config
from repro.core.metrics import Metric
from repro.core.quality import QualityLevel
from repro.core.scoring import score_region
from repro.core.usecases import UseCase

from tests.core.scalar_oracle import score_requirement

U, M = UseCase, Metric

ALL = tuple(Metric)


def single_source_config(**overrides):
    return paper_config(datasets={"a": ALL}, **overrides)


def source_with(download):
    return {"a": SequenceSource(download_mbps=[download] * 10)}


class TestGradedRequirementScores:
    """Web-browsing download: minimum 10, high 100 (Fig. 2)."""

    @pytest.mark.parametrize(
        "download,expected",
        [
            (150.0, 1.0),  # meets high
            (100.0, 1.0),  # exactly at high (inclusive)
            (50.0, 0.5),   # between min and high
            (10.0, 0.5),   # exactly at minimum
            (5.0, 0.0),    # below minimum
        ],
    )
    def test_three_levels(self, download, expected):
        config = single_source_config(score_mode=ScoreMode.GRADED)
        req = score_requirement(
            U.WEB_BROWSING, M.DOWNLOAD, source_with(download), config
        )
        assert req.value == pytest.approx(expected)

    def test_graded_on_lower_is_better_metric(self):
        # Conferencing latency: minimum 50 ms, high 20 ms.
        config = single_source_config(score_mode=ScoreMode.GRADED)
        for latency, expected in [(10.0, 1.0), (35.0, 0.5), (80.0, 0.0)]:
            req = score_requirement(
                U.VIDEO_CONFERENCING,
                M.LATENCY,
                {"a": SequenceSource(latency_ms=[latency] * 10)},
                config,
            )
            assert req.value == pytest.approx(expected)

    def test_other_cell_collapses_to_binary(self):
        # Web-browsing upload has no published high threshold: high
        # falls back to minimum, so graded degenerates to 0/1.
        config = single_source_config(score_mode=ScoreMode.GRADED)
        for upload, expected in [(15.0, 1.0), (5.0, 0.0)]:
            req = score_requirement(
                U.WEB_BROWSING,
                M.UPLOAD,
                {"a": SequenceSource(upload_mbps=[upload] * 10)},
                config,
            )
            assert req.value == pytest.approx(expected)

    def test_verdict_consistency(self):
        config = single_source_config(score_mode=ScoreMode.GRADED)
        req = score_requirement(
            U.WEB_BROWSING, M.DOWNLOAD, source_with(50.0), config
        )
        verdict = req.verdicts[0]
        assert verdict.score == 0.5
        assert not verdict.passed


class TestSandwichProperty:
    """GRADED sits between BINARY@HIGH and BINARY@MINIMUM."""

    def test_sandwich_on_simulated_regions(self, fiber_sources, dsl_sources):
        for sources in (fiber_sources, dsl_sources):
            high = score_region(
                sources, paper_config(quality_level=QualityLevel.HIGH)
            ).value
            minimum = score_region(
                sources, paper_config(quality_level=QualityLevel.MINIMUM)
            ).value
            graded = score_region(
                sources, paper_config(score_mode=ScoreMode.GRADED)
            ).value
            assert high - 1e-12 <= graded <= minimum + 1e-12

    def test_graded_distinguishes_mid_tier_regions(self, fiber_sources):
        # A region passing min everywhere but high nowhere scores 0 in
        # the paper's binary-high mode but 0.5 graded — the extension's
        # point: resolution between "minimum" and "nothing".
        mid = {
            "a": SequenceSource(
                download_mbps=[30.0] * 10,
                upload_mbps=[30.0] * 10,
                latency_ms=[60.0] * 10,
                packet_loss=[0.002] * 10,
            )
        }
        config = paper_config(datasets={"a": ALL})
        binary = score_region(config=config, sources=mid).value
        graded = score_region(
            config=config.with_(score_mode=ScoreMode.GRADED), sources=mid
        ).value
        assert graded > binary


class TestContinuousMode:
    """The CONTINUOUS refinement (ext-qoe resolution finding)."""

    def config(self):
        return single_source_config(score_mode=ScoreMode.CONTINUOUS)

    @pytest.mark.parametrize(
        "download,expected",
        [
            (150.0, 1.0),   # beyond high
            (100.0, 1.0),   # at high (web browsing: min 10, high 100)
            (55.0, 0.75),   # halfway up the min→high ramp
            (10.0, 0.5),    # at minimum
            (5.0, 0.25),    # half of minimum → proportional ramp
            (0.0, 0.0),     # nothing
        ],
    )
    def test_throughput_anchors_and_ramps(self, download, expected):
        req = score_requirement(
            U.WEB_BROWSING, M.DOWNLOAD, source_with(download), self.config()
        )
        assert req.value == pytest.approx(expected)

    @pytest.mark.parametrize(
        "latency,expected",
        [
            (10.0, 1.0),    # at/below high (conferencing: min 50, high 20)
            (35.0, 0.75),   # halfway down the ramp
            (50.0, 0.5),    # at minimum
            (100.0, 0.25),  # 2x minimum → reciprocal ramp
        ],
    )
    def test_latency_anchors_and_ramps(self, latency, expected):
        req = score_requirement(
            U.VIDEO_CONFERENCING,
            M.LATENCY,
            {"a": SequenceSource(latency_ms=[latency] * 10)},
            self.config(),
        )
        assert req.value == pytest.approx(expected)

    def test_degenerate_equal_tiers(self):
        # Online backup download: min == high == 10 → binary at the bar
        # with a proportional ramp below.
        for download, expected in [(12.0, 1.0), (10.0, 1.0), (5.0, 0.25)]:
            req = score_requirement(
                U.ONLINE_BACKUP,
                M.DOWNLOAD,
                source_with(download),
                self.config(),
            )
            assert req.value == pytest.approx(expected)

    def test_distinguishes_failing_regions(self):
        # The whole point: 5 Mb/s and 0.5 Mb/s no longer tie.
        slow = score_region(source_with(5.0), self.config()).use_cases
        slower = score_region(source_with(0.5), self.config()).use_cases
        # compare first use case's download requirement
        a = slow[0].requirement(M.DOWNLOAD).value
        b = slower[0].requirement(M.DOWNLOAD).value
        assert a > b > 0.0

    def test_dominates_graded_dominates_binary(self, dsl_sources):
        base = paper_config()
        binary = score_region(dsl_sources, base).value
        graded = score_region(
            dsl_sources, base.with_(score_mode=ScoreMode.GRADED)
        ).value
        continuous = score_region(
            dsl_sources, base.with_(score_mode=ScoreMode.CONTINUOUS)
        ).value
        assert binary - 1e-12 <= graded <= continuous + 1e-12


class TestSerialization:
    def test_round_trip(self):
        from repro.core import IQBConfig

        config = paper_config(score_mode=ScoreMode.GRADED)
        rebuilt = IQBConfig.from_json(config.to_json())
        assert rebuilt.score_mode is ScoreMode.GRADED

    def test_older_documents_default_to_binary(self):
        from repro.core import IQBConfig

        document = paper_config().to_dict()
        del document["score_mode"]
        assert IQBConfig.from_dict(document).score_mode is ScoreMode.BINARY
