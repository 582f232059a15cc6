"""Unit tests for Eqs. 1-5, with hand-computed cases.

Requirement (Eq. 1) and use-case (Eq. 2) scores are read off the scalar
oracle, which the kernel matches bit for bit (test_entry_points); the
region score (Eq. 4) runs the production ``score_region``.
"""

import pytest

from repro.core.aggregation import SequenceSource
from repro.core.config import MissingDataPolicy, paper_config
from repro.core.exceptions import DataError
from repro.core.metrics import Metric
from repro.core.scoring import flat_score, score_region, score_regions
from repro.core.usecases import UseCase
from repro.core.weights import DatasetWeights

from tests.core.scalar_oracle import score_requirement, score_use_case

U, M = UseCase, Metric

ALL_METRICS = tuple(Metric)


def perfect():
    return SequenceSource(
        download_mbps=[500.0] * 10,
        upload_mbps=[500.0] * 10,
        latency_ms=[5.0] * 10,
        packet_loss=[0.0] * 10,
    )


def terrible():
    return SequenceSource(
        download_mbps=[1.0] * 10,
        upload_mbps=[0.5] * 10,
        latency_ms=[900.0] * 10,
        packet_loss=[0.2] * 10,
    )


def two_dataset_config(weight_a=1, weight_b=1):
    """Paper thresholds/weights, two synthetic datasets 'a' and 'b'."""
    return paper_config(
        datasets={"a": ALL_METRICS, "b": ALL_METRICS}
    ).with_(
        dataset_weights=DatasetWeights(
            {
                (u, m, d): w
                for u in UseCase
                for m in Metric
                for d, w in (("a", weight_a), ("b", weight_b))
            }
        )
    )


class TestExtremes:
    def test_all_pass_scores_one(self, perfect_sources, config):
        assert score_region(perfect_sources, config).value == pytest.approx(1.0)

    def test_all_fail_scores_zero(self, terrible_sources, config):
        assert score_region(terrible_sources, config).value == pytest.approx(0.0)

    def test_score_is_bounded(self, fiber_sources, dsl_sources, config):
        for sources in (fiber_sources, dsl_sources):
            value = score_region(sources, config).value
            assert 0.0 <= value <= 1.0


class TestEquationOne:
    """Requirement agreement score: weighted average of dataset verdicts."""

    def test_equal_weights_split_verdict(self):
        config = two_dataset_config()
        sources = {"a": perfect(), "b": terrible()}
        req = score_requirement(U.GAMING, M.DOWNLOAD, sources, config)
        assert req.value == pytest.approx(0.5)
        assert not req.unanimous

    def test_unequal_weights(self):
        config = two_dataset_config(weight_a=3, weight_b=1)
        sources = {"a": perfect(), "b": terrible()}
        req = score_requirement(U.GAMING, M.DOWNLOAD, sources, config)
        assert req.value == pytest.approx(0.75)

    def test_zero_weight_dataset_excluded(self):
        config = two_dataset_config(weight_a=1, weight_b=0)
        sources = {"a": perfect(), "b": terrible()}
        req = score_requirement(U.GAMING, M.DOWNLOAD, sources, config)
        assert req.value == pytest.approx(1.0)
        assert [v.dataset for v in req.verdicts] == ["a"]

    def test_dataset_without_observations_drops_out(self):
        config = two_dataset_config()
        sources = {
            "a": perfect(),
            "b": SequenceSource(download_mbps=None, latency_ms=[900.0] * 5),
        }
        req = score_requirement(U.GAMING, M.DOWNLOAD, sources, config)
        assert req.value == pytest.approx(1.0)

    def test_verdict_details_recorded(self):
        config = two_dataset_config()
        sources = {"a": perfect(), "b": terrible()}
        req = score_requirement(U.GAMING, M.LATENCY, sources, config)
        by_name = {v.dataset: v for v in req.verdicts}
        assert by_name["a"].passed and not by_name["b"].passed
        assert by_name["a"].aggregate == pytest.approx(5.0)
        assert by_name["a"].threshold == pytest.approx(50.0)
        assert by_name["a"].sample_count == 10
        assert by_name["a"].score == 1 and by_name["b"].score == 0


class TestThresholdBoundaries:
    def test_exactly_at_throughput_threshold_passes(self):
        config = two_dataset_config(weight_b=0)
        source = SequenceSource(download_mbps=[100.0] * 10)
        req = score_requirement(
            U.WEB_BROWSING, M.DOWNLOAD, {"a": source}, config
        )
        assert req.value == pytest.approx(1.0)

    def test_just_below_throughput_threshold_fails(self):
        config = two_dataset_config(weight_b=0)
        source = SequenceSource(download_mbps=[99.99] * 10)
        req = score_requirement(
            U.WEB_BROWSING, M.DOWNLOAD, {"a": source}, config
        )
        assert req.value == pytest.approx(0.0)

    def test_exactly_at_latency_threshold_passes(self):
        config = two_dataset_config(weight_b=0)
        source = SequenceSource(latency_ms=[50.0] * 10)
        req = score_requirement(
            U.WEB_BROWSING, M.LATENCY, {"a": source}, config
        )
        assert req.value == pytest.approx(1.0)

    def test_percentile_rule_sees_the_tail(self):
        # 94 % of tests at 10 ms, 6 % at 900 ms: the 95th percentile
        # fails the 50 ms bar even though the median is excellent.
        config = two_dataset_config(weight_b=0)
        latencies = [10.0] * 94 + [900.0] * 6
        source = SequenceSource(latency_ms=latencies)
        req = score_requirement(
            U.WEB_BROWSING, M.LATENCY, {"a": source}, config
        )
        assert req.value == pytest.approx(0.0)


class TestEquationTwo:
    def test_hand_computed_use_case_score(self):
        # b carries no loss data, so loss is judged by a alone (S=1);
        # all other requirements split 0.5. Web browsing weights 3,2,4,4:
        # S_u = (3*0.5 + 2*0.5 + 4*0.5 + 4*1.0) / 13 = 8.5/13.
        config = two_dataset_config()
        b = SequenceSource(
            download_mbps=[1.0] * 10,
            upload_mbps=[0.5] * 10,
            latency_ms=[900.0] * 10,
            packet_loss=None,
        )
        sources = {"a": perfect(), "b": b}
        entry = score_use_case(U.WEB_BROWSING, sources, config)
        assert entry.value == pytest.approx(8.5 / 13)

    def test_requirement_lookup(self, perfect_sources, config):
        entry = score_use_case(U.GAMING, perfect_sources, config)
        assert entry.requirement(M.LATENCY).value == pytest.approx(1.0)
        with pytest.raises(KeyError):
            entry.requirement("nope")


class TestMissingDataPolicies:
    def make_sources_without_latency(self):
        source = SequenceSource(
            download_mbps=[500.0] * 10,
            upload_mbps=[500.0] * 10,
            packet_loss=[0.0] * 10,
        )
        return {"a": source}

    def test_skip_renormalizes(self):
        config = two_dataset_config().with_(
            missing_data=MissingDataPolicy.SKIP
        )
        sources = self.make_sources_without_latency()
        entry = score_use_case(U.GAMING, sources, config)
        # dl/ul/loss all pass; latency skipped entirely.
        assert entry.value == pytest.approx(1.0)
        assert entry.skipped_metrics == (M.LATENCY,)

    def test_fail_counts_missing_as_zero(self):
        config = two_dataset_config().with_(
            missing_data=MissingDataPolicy.FAIL
        )
        sources = self.make_sources_without_latency()
        entry = score_use_case(U.GAMING, sources, config)
        # Gaming weights 4,4,5,4: latency (5) scores 0 → 12/17.
        assert entry.value == pytest.approx(12 / 17)

    def test_strict_raises(self):
        config = two_dataset_config().with_(
            missing_data=MissingDataPolicy.STRICT
        )
        sources = self.make_sources_without_latency()
        with pytest.raises(DataError, match="strict"):
            score_use_case(U.GAMING, sources, config)

    def test_no_data_at_all_raises(self):
        config = two_dataset_config()
        with pytest.raises(DataError, match="no requirement"):
            score_use_case(U.GAMING, {"a": SequenceSource()}, config)


class TestEquationsFourFive:
    def test_empty_sources_rejected(self, config):
        with pytest.raises(DataError, match="at least one"):
            score_region({}, config)

    def test_use_case_weighting(self):
        # All use cases 0.5 when half the (equal-weight) datasets pass.
        cfg = two_dataset_config()
        mixed = {"a": perfect(), "b": terrible()}
        breakdown = score_region(mixed, cfg)
        for entry in breakdown.use_cases:
            assert entry.value == pytest.approx(0.5)
        assert breakdown.value == pytest.approx(0.5)

    def test_flat_expansion_equals_nested(self, fiber_sources, dsl_sources, config):
        for sources in (fiber_sources, dsl_sources):
            breakdown = score_region(sources, config)
            assert flat_score(breakdown) == pytest.approx(
                breakdown.value, abs=1e-12
            )

    def test_flat_expansion_with_missing_data(self):
        config = two_dataset_config()
        b = SequenceSource(download_mbps=[1.0] * 10)
        breakdown = score_region({"a": perfect(), "b": b}, config)
        assert flat_score(breakdown) == pytest.approx(breakdown.value, abs=1e-12)

    def test_breakdown_navigation(self, perfect_sources, config):
        breakdown = score_region(perfect_sources, config)
        assert len(breakdown.use_cases) == 6
        assert breakdown.use_case(U.GAMING).use_case is U.GAMING
        with pytest.raises(KeyError):
            breakdown.use_case("nope")
        values = breakdown.use_case_values()
        assert set(values) == set(UseCase)

    def test_grades_exposed(self, perfect_sources, config):
        breakdown = score_region(perfect_sources, config)
        assert breakdown.grade == "A"
        assert breakdown.credit == 850


class TestNonFiniteQuantiles:
    """NaN is the cube's missing-value sentinel: a source may not answer it."""

    class Answers:
        """A QuantileSource answering one fixed value for latency only."""

        def __init__(self, value):
            self.value = value

        def quantile(self, metric, percentile):
            return self.value if metric is M.LATENCY else None

        def sample_count(self, metric):
            return 3 if metric is M.LATENCY else 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_score_region_rejects_non_finite_answer(self, bad):
        config = two_dataset_config()
        sources = {"a": perfect(), "b": self.Answers(bad)}
        with pytest.raises(DataError) as caught:
            score_region(sources, config)
        assert str(caught.value) == (
            f"non-finite latency_ms quantile {bad!r} from dataset 'b'"
        )

    def test_score_regions_names_the_region(self):
        config = two_dataset_config()
        grouped = {
            "alpha": {"a": perfect()},
            "beta": {"a": SequenceSource(download_mbps=[float("nan")])},
        }
        with pytest.raises(DataError) as caught:
            score_regions(grouped, config)
        assert str(caught.value) == (
            "non-finite download_mbps quantile nan from dataset 'a' "
            "in region 'beta'"
        )

    def test_unweighted_cells_are_not_queried(self):
        # Dataset "b" carries no weight, so its NaN answer is never read.
        config = two_dataset_config(weight_b=0)
        sources = {"a": perfect(), "b": SequenceSource(latency_ms=[float("nan")])}
        assert score_region(sources, config).value == pytest.approx(1.0)
