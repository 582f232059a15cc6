"""Unit tests for repro.core.uncertainty (bootstrap)."""

import numpy as np
import pytest

from repro.core.aggregation import SequenceSource
from repro.core.scoring import score_region
from repro.core.uncertainty import (
    BootstrapResult,
    bootstrap_score,
    sample_size_curve,
)
from repro.measurements import MeasurementSet, read_jsonl, write_jsonl


# -- oracle: the bootstrap over records ---------------------------------------
#
# Each replicate is a new MeasurementSet of the drawn records, and each
# subsample a set of the chosen records. The production bootstrap draws
# the same indexes and resamples rows of the set's store instead.


def _record_resample(records, rng):
    n = len(records)
    indices = rng.integers(0, n, size=n)
    return MeasurementSet(records[int(i)] for i in indices)


def _record_bootstrap(sources, config, replicates, seed):
    point = score_region(sources, config).value
    rng = np.random.default_rng(seed)
    scores = []
    for _ in range(replicates):
        resampled = {}
        for name, source in sources.items():
            if isinstance(source, MeasurementSet) and len(source) > 0:
                resampled[name] = _record_resample(source, rng)
            else:
                resampled[name] = source
        scores.append(score_region(resampled, config).value)
    return BootstrapResult(point_estimate=point, scores=tuple(scores))


def _record_sample_size_curve(sources, config, sizes, replicates, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for size in sizes:
        subsampled = {}
        for name, records in sources.items():
            if len(records) <= size:
                subsampled[name] = records
            else:
                indices = rng.choice(len(records), size=size, replace=False)
                subsampled[name] = MeasurementSet(
                    records[int(i)] for i in sorted(indices)
                )
        out[size] = _record_bootstrap(
            subsampled, config, replicates=replicates, seed=seed + size
        )
    return out


class TestRowResamplingEqualsRecordResampling:
    """Resampling store rows gives the record bootstrap bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_bootstrap_score(self, dsl_sources, config, seed):
        mixed = dict(dsl_sources)
        mixed["extra"] = SequenceSource(download_mbps=[40.0, 60.0, 80.0])
        assert bootstrap_score(
            mixed, config, replicates=40, seed=seed
        ) == _record_bootstrap(mixed, config, replicates=40, seed=seed)

    def test_bootstrap_score_on_sets_read_from_a_file(
        self, small_campaign, config, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        write_jsonl(small_campaign, path)
        sources = read_jsonl(path).for_region("rural-dsl").group_by_source()
        assert bootstrap_score(
            sources, config, replicates=40, seed=5
        ) == _record_bootstrap(sources, config, replicates=40, seed=5)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_sample_size_curve(self, fiber_sources, config, seed):
        sizes = (10, 40, 10_000)
        assert sample_size_curve(
            fiber_sources, config, sizes=sizes, replicates=15, seed=seed
        ) == _record_sample_size_curve(
            fiber_sources, config, sizes=sizes, replicates=15, seed=seed
        )


class TestBootstrapScore:
    def test_reproducible(self, fiber_sources, config):
        a = bootstrap_score(fiber_sources, config, replicates=25, seed=3)
        b = bootstrap_score(fiber_sources, config, replicates=25, seed=3)
        assert a.scores == b.scores

    def test_point_estimate_matches_direct_score(self, fiber_sources, config):
        from repro.core.scoring import score_region

        result = bootstrap_score(fiber_sources, config, replicates=10, seed=0)
        assert result.point_estimate == pytest.approx(
            score_region(fiber_sources, config).value
        )

    def test_interval_ordering(self, dsl_sources, config):
        result = bootstrap_score(dsl_sources, config, replicates=50, seed=0)
        lo, hi = result.interval(0.95)
        assert lo <= hi
        assert result.width95 == pytest.approx(hi - lo)
        narrow_lo, narrow_hi = result.interval(0.5)
        assert narrow_hi - narrow_lo <= hi - lo + 1e-12

    def test_interval_validation(self, fiber_sources, config):
        result = bootstrap_score(fiber_sources, config, replicates=10, seed=0)
        with pytest.raises(ValueError):
            result.interval(0.0)
        with pytest.raises(ValueError):
            result.interval(1.5)

    def test_replicate_validation(self, fiber_sources, config):
        with pytest.raises(ValueError):
            bootstrap_score(fiber_sources, config, replicates=0)

    def test_degenerate_data_has_zero_width(self, perfect_sources, config):
        # SequenceSources are not resampleable and every verdict is
        # deterministic: the bootstrap distribution collapses.
        result = bootstrap_score(perfect_sources, config, replicates=20, seed=0)
        assert result.width95 == pytest.approx(0.0)
        assert result.std == pytest.approx(0.0)

    def test_non_measurement_sources_held_fixed(self, fiber_sources, config):
        mixed = dict(fiber_sources)
        mixed["extra"] = SequenceSource(download_mbps=[500.0] * 5)
        result = bootstrap_score(mixed, config, replicates=10, seed=0)
        assert len(result.scores) == 10

    def test_scores_bounded(self, dsl_sources, config):
        result = bootstrap_score(dsl_sources, config, replicates=30, seed=0)
        assert all(0.0 <= s <= 1.0 for s in result.scores)


class TestSampleSizeCurve:
    def test_returns_requested_sizes(self, fiber_sources, config):
        curve = sample_size_curve(
            fiber_sources, config, sizes=(20, 60), replicates=20, seed=0
        )
        assert set(curve) == {20, 60}

    def test_more_data_does_not_widen_much(self, dsl_sources, config):
        # CI width should broadly shrink with sample size; allow noise.
        curve = sample_size_curve(
            dsl_sources, config, sizes=(15, 120), replicates=60, seed=0
        )
        assert curve[120].width95 <= curve[15].width95 + 0.15

    def test_size_validation(self, fiber_sources, config):
        with pytest.raises(ValueError):
            sample_size_curve(fiber_sources, config, sizes=(0,), replicates=5)
