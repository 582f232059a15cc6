"""Unit tests for repro.serve.service (ScoringService)."""

import dataclasses
import gc
import threading
import weakref

import pytest

from repro.core.config import MissingDataPolicy
from repro.core.exceptions import DataError
from repro.core.kernel import score_values
from repro.core.scoring import score_regions
from repro.measurements.columnar import ColumnarStore
from repro.measurements.sketchplane import SketchPlane
from repro.obs.registry import REGISTRY
from repro.serve import ScoringService


def _sweeps():
    return REGISTRY.counter("serve.compute.sweeps").value


def _coalesced():
    return REGISTRY.counter("serve.coalesced").value


def _together(n, read):
    """Run ``read()`` on n barrier-synced threads; returns what each
    returned, or the exception it raised."""
    outcomes = []
    barrier = threading.Barrier(n)

    def run():
        barrier.wait(timeout=5.0)
        try:
            outcomes.append(read())
        except Exception as exc:  # noqa: BLE001 - compared by the caller
            outcomes.append(exc)

    threads = [threading.Thread(target=run) for _ in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    return outcomes


class TestScores:
    def test_values_match_kernel_fast_path(self, store, config, records):
        service = ScoringService(store, config)
        result = service.scores()
        expected = score_values(ColumnarStore(list(records)), config)
        assert result.values == expected
        assert result.generation == 0
        assert result.quantile_source == "exact"

    def test_second_read_is_a_cache_hit(self, store, config):
        service = ScoringService(store, config)
        before = _sweeps()
        first = service.scores()
        assert _sweeps() == before + 1
        second = service.scores()
        assert second is first  # the very same immutable result object
        assert _sweeps() == before + 1

    def test_unknown_quantiles_rejected(self, store, config):
        with pytest.raises(ValueError):
            ScoringService(store, config, quantiles="fuzzy")


class TestInvalidation:
    def test_ingest_bumps_generation_once_per_batch(
        self, store, config, records
    ):
        service = ScoringService(store, config)
        assert service.generation == 0
        added = service.ingest(
            [dataclasses.replace(records[0], region="region-new")]
        )
        assert added == 1
        assert service.generation == 1
        service.ingest([records[0], records[1]])
        assert service.generation == 2

    def test_ingest_empty_batch_changes_nothing(self, store, config):
        service = ScoringService(store, config)
        assert service.ingest([]) == 0
        assert service.generation == 0

    def test_ingest_retires_cached_scores(self, store, config, records):
        service = ScoringService(store, config)
        stale = service.scores()
        before = _sweeps()
        service.ingest(
            [dataclasses.replace(records[0], region="region-new")]
        )
        fresh = service.scores()
        assert _sweeps() == before + 1
        assert fresh.generation == 1
        assert "region-new" in fresh.values
        assert "region-new" not in stale.values

    def test_etag_tracks_generation_and_digest(self, store, config):
        service = ScoringService(store, config)
        first = service.etag()
        assert service.config_sha256[:12] in first
        assert first.endswith('-0"')
        service.ingest([store.records()[0]])
        assert service.etag() != first
        assert service.etag().endswith('-1"')
        assert service.etag(0) == first


class TestBreakdowns:
    def test_bit_identical_to_score_regions(self, store, config, records):
        service = ScoringService(store, config)
        expected = score_regions(ColumnarStore(list(records)), config)
        assert set(service.scores().values) == set(expected)
        for region in expected:
            generation, breakdown = service.breakdown(region)
            assert generation == 0
            assert breakdown == expected[region]
            assert breakdown.to_dict() == expected[region].to_dict()

    def test_single_region_rides_the_shared_sweep(self, store, config):
        service = ScoringService(store, config)
        before = _sweeps()
        gen_a, a = service.breakdown("region-000")
        gen_b, b = service.breakdown("region-001")
        assert _sweeps() == before + 1  # one sweep answered both
        assert gen_a == gen_b == 0
        assert a.value != b.value or a.to_dict() != {}

    def test_unknown_region_raises_keyerror(self, store, config):
        service = ScoringService(store, config)
        with pytest.raises(KeyError):
            service.breakdown("atlantis")


class TestNational:
    def test_uniform_weights_by_default(self, store, config):
        service = ScoringService(store, config)
        result = service.national()
        values = service.scores().values
        expected = sum(values.values()) / len(values)
        assert result.national.value == pytest.approx(expected, abs=1e-12)
        assert result.generation == 0

    def test_population_weighting(self, store, config):
        populations = {
            "region-000": 100.0,
            "region-001": 1.0,
            "region-002": 1.0,
            "region-003": 1.0,
        }
        service = ScoringService(store, config, populations=populations)
        result = service.national()
        values = service.scores().values
        total = sum(populations.values())
        expected = sum(
            values[region] * populations[region] / total
            for region in values
        )
        assert result.national.value == pytest.approx(expected, abs=1e-12)

    def test_missing_population_is_a_data_error(self, store, config):
        service = ScoringService(
            store, config, populations={"region-000": 1.0}
        )
        with pytest.raises(DataError):
            service.national()

    def test_equal_rollups_from_one_sweep(self, store, config):
        service = ScoringService(store, config)
        before = _sweeps()
        first = service.national()
        second = service.national()
        assert _sweeps() == before + 1
        assert second == first
        assert second.national.value == first.national.value
        assert second.generation == first.generation == 0


class TestSketchPlane:
    def test_serves_from_a_bare_sketch_plane(self, config, records):
        plane = SketchPlane()
        plane.extend(records)
        service = ScoringService(plane, config)
        result = service.scores()
        assert result.quantile_source == "sketch"
        assert set(result.values) == {f"region-{i:03d}" for i in range(4)}
        assert result.generation == len(records)

    def test_sketch_plane_rejects_exact_quantiles(self, config, records):
        plane = SketchPlane()
        plane.extend(records)
        with pytest.raises(ValueError):
            ScoringService(plane, config, quantiles="exact")

    def test_sketch_add_bumps_generation_per_record(self, config, records):
        plane = SketchPlane()
        plane.extend(records)
        service = ScoringService(plane, config)
        before = service.generation
        service.ingest([records[0]])
        assert service.generation == before + 1

    def test_columnar_with_sketch_override(self, store, config):
        service = ScoringService(store, config, quantiles="sketch")
        result = service.scores()
        assert result.quantile_source == "sketch"
        gen, breakdown = service.breakdown("region-000")
        assert breakdown.quantile_source == "sketch"


class TestCoalescing:
    def test_concurrent_misses_share_one_sweep(self, store, config):
        service = ScoringService(store, config)
        before = _sweeps()
        results = _together(8, service.scores)
        assert len(results) == 8
        assert _sweeps() == before + 1
        assert all(r is results[0] for r in results)
        assert all(r.generation == 0 for r in results)

    def test_readers_held_behind_a_sweep_count_coalesced(
        self, store, config, monkeypatch
    ):
        import repro.serve.service as service_module

        entered, release = threading.Event(), threading.Event()
        sweep = service_module.scored_store

        def held_sweep(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=10.0)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(service_module, "scored_store", held_sweep)
        service = ScoringService(store, config)
        # Count arrivals at the plane lock: the held readers must be
        # queued on it before the sweep is let go.
        plane_lock = service._plane_lock
        arrived = threading.Semaphore(0)

        class _CountingLock:
            def __enter__(self):
                arrived.release()
                return plane_lock.__enter__()

            def __exit__(self, *exc_info):
                return plane_lock.__exit__(*exc_info)

        service._plane_lock = _CountingLock()
        before_sweeps, before_coalesced = _sweeps(), _coalesced()
        results = []

        def read():
            results.append(service.scores())

        leader = threading.Thread(target=read)
        leader.start()
        assert entered.wait(timeout=10.0)
        assert arrived.acquire(timeout=10.0)
        riders = [threading.Thread(target=read) for _ in range(3)]
        for thread in riders:
            thread.start()
        for _ in riders:
            assert arrived.acquire(timeout=10.0)
        release.set()
        for thread in [leader, *riders]:
            thread.join(timeout=10.0)
        assert len(results) == 4
        assert all(r is results[0] for r in results)
        assert _sweeps() == before_sweeps + 1
        assert _coalesced() == before_coalesced + 3
        # A later read at the same generation is a plain hit.
        assert service.scores() is results[0]
        assert _coalesced() == before_coalesced + 3

    def test_a_failing_pass_gives_every_reader_its_error(
        self, config, records
    ):
        plane = ColumnarStore(
            [dataclasses.replace(r, packet_loss=None) for r in records]
        )
        strict = config.with_(missing_data=MissingDataPolicy.STRICT)
        with pytest.raises(DataError) as alone:
            ScoringService(plane, strict).scores()
        service = ScoringService(plane, strict)
        before = _sweeps()
        outcomes = _together(8, service.scores)
        assert len(outcomes) == 8
        for _ in range(5):
            with pytest.raises(DataError) as later:
                service.scores()
            outcomes.append(later.value)
        # One pass for the generation, however many read it, and each
        # read raises its own error (one re-raised instance would grow
        # its traceback on every raise).
        assert _sweeps() == before + 1
        assert all(type(o) is DataError for o in outcomes)
        assert {str(o) for o in outcomes} == {str(alone.value)}
        assert len({id(o) for o in outcomes}) == 13
        assert "strict" in str(alone.value)
        # The next ingest retries the pass, once.
        service.ingest(
            [dataclasses.replace(r, packet_loss=None) for r in records[:3]]
        )
        for _ in range(3):
            with pytest.raises(DataError, match="strict"):
                service.scores()
        assert _sweeps() == before + 2


class TestRetention:
    def test_earlier_generations_passes_are_freed(
        self, store, config, records
    ):
        service = ScoringService(store, config)
        passes = []
        for i in range(4):
            passes.append(weakref.ref(service.scores().scored))
            service.national()
            service.breakdown("region-000")
            service.ingest(
                [dataclasses.replace(records[0], region=f"region-new-{i}")]
            )
        current = service.scores().scored
        gc.collect()
        assert [ref() for ref in passes] == [None] * len(passes)
        assert service.scores().scored is current


class TestConfigDocument:
    def test_document_shape(self, store, config):
        service = ScoringService(store, config)
        document = service.config_document()
        assert set(document) == {
            "config",
            "config_sha256",
            "quantile_source",
            "quantiles",
        }
        assert document["config_sha256"] == service.config_sha256
        assert document["quantiles"] is None
        assert document["quantile_source"] == "exact"
        assert "version" in document["config"]
        assert "thresholds" in document["config"]
