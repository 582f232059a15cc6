"""Tile tests: deterministic builds, granularity keying, and warm-start
score parity against direct ingestion."""

import numpy as np
import pytest

from repro.cache.store import LocalCache
from repro.cache.tiles import (
    build_tiles,
    parse_tile,
    tile_entries,
    tile_key,
    tile_payload,
    warm_plane,
    write_tiles,
)
from repro.core.exceptions import DataError, IntegrityError
from repro.core.scoring import score_regions
from repro.measurements.record import Measurement
from repro.measurements.sketchplane import SketchPlane, sketch_records
from repro.netsim import CampaignConfig, region_preset, simulate_region

WEEK = 7 * 86400.0


def record(i, region="alpha", source="ndt", **overrides):
    values = {
        "download_mbps": 80.0 + (i * 37 % 200),
        "upload_mbps": 10.0 + (i * 13 % 40),
        "latency_ms": 15.0 + (i * 7 % 60),
        "packet_loss": 0.001 * (i % 5),
        "isp": ("fiberco", "coppernet")[i % 2],
        "access_tech": ("fiber", "dsl", "cable")[i % 3],
    }
    values.update(overrides)
    return Measurement(
        region=region, source=source, timestamp=float(i) * 3600.0, **values
    )


@pytest.fixture()
def records():
    out = []
    for region in ("alpha", "beta"):
        for source in ("ndt", "ookla"):
            out.extend(
                record(i, region=region, source=source) for i in range(400)
            )
    return out


class TestTileKey:
    def test_granularity_keys(self):
        r = record(0, region="alpha")
        assert tile_key(r, "region") == "alpha"
        assert tile_key(r, "region_isp") == "alpha/fiberco"
        assert tile_key(r, "region_tech") == "alpha/fiber"

    def test_missing_axes_key_as_unknown(self):
        r = record(0, isp="", access_tech="")
        assert tile_key(r, "region_isp") == "alpha/unknown"
        assert tile_key(r, "region_tech") == "alpha/unknown"

    def test_unknown_granularity_raises(self):
        with pytest.raises(ValueError):
            tile_key(record(0), "continent")
        with pytest.raises(ValueError):
            build_tiles([], granularity="continent")


class TestBuildTiles:
    def test_tiles_split_by_period_and_source(self, records):
        tiles = build_tiles(records, period_s=WEEK)
        periods = {period for period, _ in tiles}
        sources = {source for _, source in tiles}
        assert len(periods) == 3  # 400 hourly samples span 3 weeks
        assert sources == {"ndt", "ookla"}
        assert sum(doc["records"] for doc in tiles.values()) == len(records)

    def test_build_is_deterministic_bytes(self, records):
        first = build_tiles(records, granularity="region_isp")
        second = build_tiles(list(records), granularity="region_isp")
        assert first.keys() == second.keys()
        for key in first:
            assert tile_payload(first[key]) == tile_payload(second[key])

    def test_rebuild_into_cache_is_idempotent(self, tmp_path, records):
        cache = LocalCache(tmp_path / "cache")
        write_tiles(cache, records)
        manifest_sha = cache.manifest().manifest_sha256
        write_tiles(cache, records)
        assert cache.manifest().manifest_sha256 == manifest_sha
        assert cache.verify().ok

    def test_parse_tile_rejects_garbage(self):
        with pytest.raises(IntegrityError):
            parse_tile(b"not json")
        with pytest.raises(IntegrityError):
            parse_tile(b'{"tile_version": 99}')
        with pytest.raises(IntegrityError, match="plane"):
            parse_tile(b'{"tile_version": 2, "plane": 3}')

    def test_parse_tile_refuses_a_version_1_tile(self):
        v1 = b'{"tile_version": 1, "plane": {"delta": 100, "views": []}}'
        with pytest.raises(IntegrityError, match="iqb cache build"):
            parse_tile(v1)

    def test_tiles_hold_compressed_centroids_and_no_buffer(self, records):
        for document in build_tiles(records).values():
            assert document["tile_version"] == 2
            for _, _, view in document["plane"]["views"]:
                for digest in view["digests"].values():
                    assert digest["buffer"] == []
                    assert isinstance(digest["means"], str)


class TestWarmPlane:
    def test_three_tiles_of_one_cell_equal_the_tile_by_tile_fold(
        self, tmp_path
    ):
        records = [
            record(i, latency_ms=float(i * 7919 % 97) + 1.0)
            for i in range(900)
        ]
        cache = LocalCache(tmp_path / "cache")
        write_tiles(cache, records, period_s=300 * 3600.0)
        entries = sorted(tile_entries(cache), key=lambda e: e.path)
        assert len(entries) == 3
        planes = [
            SketchPlane.from_state(parse_tile(cache.read(e))["plane"])
            for e in entries
        ]
        folded = planes[0].merge(planes[1]).merge(planes[2])
        warmed = warm_plane(cache)
        assert warmed.to_state() == folded.to_state()
        assert len(warmed) == 900
        assert warmed.regions() == ("alpha",)

    def test_warm_plane_matches_direct_sketch_scores(
        self, tmp_path, records, config
    ):
        """The --from-cache contract: warming from tiles scores within
        the sketch plane's own accuracy envelope of direct ingestion."""
        cache = LocalCache(tmp_path / "cache")
        write_tiles(cache, records)
        warmed = warm_plane(cache)
        assert len(warmed) == len(records)

        direct = SketchPlane()
        direct.extend(records)
        warm_scores = score_regions(warmed, config, quantiles="sketch")
        direct_scores = score_regions(direct, config, quantiles="sketch")
        assert warm_scores.keys() == direct_scores.keys()
        for region in warm_scores:
            assert warm_scores[region].value == pytest.approx(
                direct_scores[region].value, abs=0.01
            )

    def test_warm_plane_quantiles_within_sketch_error_of_exact(
        self, tmp_path, records
    ):
        """p50/p95 off cached tiles stay within 1% relative error of
        exact percentiles over the raw records — the same envelope the
        sketch parity suite holds the live plane to."""
        cache = LocalCache(tmp_path / "cache")
        write_tiles(cache, records)
        warmed = warm_plane(cache)
        for region in ("alpha", "beta"):
            downloads = np.array(
                [
                    r.download_mbps
                    for r in records
                    if r.region == region and r.source == "ndt"
                ]
            )
            view = warmed.view(region, "ndt")
            from repro.core.metrics import Metric

            for pct in (50.0, 95.0):
                exact = float(np.percentile(downloads, pct))
                sketched = view.quantile(Metric.DOWNLOAD, pct)
                assert sketched == pytest.approx(exact, rel=0.01)

    def test_one_period_campaign_warms_to_the_direct_sketch_scores(
        self, tmp_path, config
    ):
        """``score --from-cache`` equals ``--quantiles sketch`` exactly.

        One period and three sources give three tiles, each cell held
        by one of them. This campaign holds cells whose digests a
        state round trip would re-compress into different quantiles,
        so the merge must copy them as they are.
        """
        records = simulate_region(
            region_preset("mixed-urban"),
            3,
            CampaignConfig(subscribers=40, tests_per_client=1500),
        )
        cache = LocalCache(tmp_path / "cache")
        write_tiles(cache, records)
        assert len(tile_entries(cache, granularity="region")) == 3
        assert len(cache.manifest().periods()) == 1

        warmed = score_regions(warm_plane(cache), config, quantiles="sketch")
        direct = score_regions(
            sketch_records(records), config, quantiles="sketch"
        )
        assert {r: b.to_dict() for r, b in warmed.items()} == {
            r: b.to_dict() for r, b in direct.items()
        }

    def test_period_filter_time_travels(self, tmp_path, records):
        cache = LocalCache(tmp_path / "cache")
        write_tiles(cache, records)
        all_periods = cache.manifest().periods()
        first = all_periods[0]
        partial = warm_plane(cache, periods=[first])
        assert 0 < len(partial) < len(records)
        assert len(tile_entries(cache, periods=[first])) < len(
            tile_entries(cache)
        )

    def test_multiple_granularities_coexist(self, tmp_path, records):
        cache = LocalCache(tmp_path / "cache")
        write_tiles(
            cache, records, granularities=("region", "region_isp")
        )
        by_isp = warm_plane(cache, granularity="region_isp")
        assert any("/" in key for key in by_isp.regions())
        by_region = warm_plane(cache, granularity="region")
        assert set(by_region.regions()) == {"alpha", "beta"}
        # Both granularities tally every record.
        assert len(by_isp) == len(by_region) == len(records)

    def test_empty_cache_raises_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no tiles"):
            warm_plane(LocalCache(tmp_path / "empty"))

    def test_corrupt_tile_is_never_warmed(self, tmp_path, records):
        cache = LocalCache(tmp_path / "cache")
        write_tiles(cache, records)
        victim = cache.manifest().entries[0]
        (cache.root / victim.path).write_bytes(b'{"tile_version": 1}')
        with pytest.raises(IntegrityError, match=victim.path):
            warm_plane(cache)
        # Evidence quarantined, not served.
        assert list(cache.quarantine_dir.iterdir())
