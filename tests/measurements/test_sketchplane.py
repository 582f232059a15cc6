"""Unit tests for the streaming sketch plane (see test_sketch_parity
for the exact-vs-sketch accuracy contract)."""

import json

import numpy as np
import pytest

from repro.core.metrics import Metric
from repro.measurements.columnar import ColumnarStore
from repro.measurements.record import Measurement
from repro.measurements.sketchplane import (
    SketchPlane,
    SketchView,
    sketch_records,
)
from repro.measurements.tdigest import TDigest
from repro.obs import REGISTRY


def _record(i, region="alpha", source="ndt", **overrides):
    values = {
        "download_mbps": 100.0 + i,
        "upload_mbps": 20.0 + i,
        "latency_ms": 30.0 + i,
        "packet_loss": 0.001,
    }
    values.update(overrides)
    return Measurement(
        region=region, source=source, timestamp=float(i), **values
    )


class TestSketchView:
    def test_observe_tracks_counts_per_metric(self):
        view = SketchView()
        view.observe(_record(0))
        view.observe(_record(1, upload_mbps=None))
        assert len(view) == 2
        assert view.sample_count(Metric.DOWNLOAD) == 2
        assert view.sample_count(Metric.UPLOAD) == 1

    def test_unobserved_metric_quantile_is_none(self):
        view = SketchView()
        view.observe(_record(0, packet_loss=None))
        assert view.quantile(Metric.PACKET_LOSS, 95.0) is None
        assert view.sample_count(Metric.PACKET_LOSS) == 0

    def test_state_roundtrip(self):
        view = SketchView()
        for i in range(25):
            view.observe(_record(i))
        rebuilt = SketchView.from_state(
            json.loads(json.dumps(view.to_state()))
        )
        assert len(rebuilt) == len(view)
        for metric in Metric.ordered():
            assert rebuilt.sample_count(metric) == view.sample_count(metric)
            assert rebuilt.quantile(metric, 95.0) == pytest.approx(
                view.quantile(metric, 95.0)
            )

    def test_merge_leaves_inputs_unchanged(self):
        a, b = SketchView(), SketchView()
        for i in range(10):
            a.observe(_record(i))
        for i in range(5):
            b.observe(_record(i, latency_ms=None))
        merged = a.merge(b)
        assert len(merged) == 15
        assert merged.sample_count(Metric.LATENCY) == 10
        assert len(a) == 10 and len(b) == 5


class TestSketchPlane:
    def test_add_routes_records_to_cells(self):
        plane = SketchPlane()
        plane.add(_record(0))
        plane.add(_record(1, region="beta"))
        plane.add(_record(2, source="ookla"))
        assert len(plane) == 3
        assert plane.regions() == ("alpha", "beta")
        assert plane.sources() == ("ndt", "ookla")
        assert len(plane.view("alpha", "ndt")) == 1
        # An unobserved cell reads as empty, not a KeyError.
        assert len(plane.view("beta", "ookla")) == 0

    def test_sources_by_region_shape(self):
        plane = sketch_records(
            [_record(0), _record(1, source="ookla"), _record(2, region="b")]
        )
        grouped = plane.sources_by_region()
        assert sorted(grouped) == ["alpha", "b"]
        assert sorted(grouped["alpha"]) == ["ndt", "ookla"]

    def test_aggregate_cube_rejects_percentile_mismatch(self):
        plane = sketch_records([_record(0)])
        with pytest.raises(ValueError, match="one percentile per metric"):
            plane.aggregate_cube(("ndt",), (95.0, 95.0))

    def test_plane_state_roundtrip(self):
        plane = sketch_records([_record(i) for i in range(40)])
        rebuilt = SketchPlane.from_state(
            json.loads(json.dumps(plane.to_state()))
        )
        assert len(rebuilt) == 40
        assert rebuilt.delta == plane.delta
        assert rebuilt.regions() == plane.regions()
        view, original = rebuilt.view("alpha", "ndt"), plane.view("alpha", "ndt")
        assert view.quantile(Metric.DOWNLOAD, 95.0) == pytest.approx(
            original.quantile(Metric.DOWNLOAD, 95.0)
        )

    def test_update_counter_increments_per_metric_value(self):
        before = REGISTRY.counter("sketch.updates").value
        sketch_records([_record(0), _record(1, upload_mbps=None)])
        # 4 metric values + 3 metric values.
        assert REGISTRY.counter("sketch.updates").value - before == 7

    def test_rescore_counter_increments_per_cube_read(self):
        plane = sketch_records([_record(i) for i in range(5)])
        before = REGISTRY.counter("sketch.rescore.hits").value
        plane.aggregate_cube(("ndt",), (95.0, 95.0, 95.0, 95.0))
        plane.aggregate_cube(("ndt",), (95.0, 95.0, 95.0, 95.0))
        assert REGISTRY.counter("sketch.rescore.hits").value - before == 2


PERCENTILES = (0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0)


def _tile_plane(records):
    """A plane as ``warm_plane`` reads it back from a cache tile."""
    return SketchPlane.from_state(sketch_records(records).to_state())


class TestOneSidedMerge:
    """A cell, or a metric, that only one side holds is copied exactly.

    Whole-millisecond latencies tie often, and re-compressing tied
    centroids can reorder them, so a copy that compressed the digest
    again would move its quantiles.
    """

    @pytest.fixture()
    def plane(self):
        rng = np.random.default_rng(3)
        latencies = np.round(rng.lognormal(3.0, 0.5, 1500))
        return _tile_plane(
            [_record(i, latency_ms=float(v)) for i, v in enumerate(latencies)]
        )

    @pytest.fixture()
    def source(self, plane):
        return plane.view("alpha", "ndt")

    def _assert_copied(self, copied, source, metrics):
        for metric in metrics:
            for percentile in PERCENTILES:
                assert copied.quantile(metric, percentile) == source.quantile(
                    metric, percentile
                ), (metric, percentile)
        copied_state = copied.to_state()["digests"]
        source_state = source.to_state()["digests"]
        for metric in metrics:
            assert copied_state[metric.value] == source_state[metric.value]

    def test_plane_merge_copies_a_cell_one_side_holds(self, plane, source):
        # The sample is one that compressing again would move: a
        # ``centroids``-list state loads its points into the buffer.
        digest = source._digests[Metric.LATENCY]
        assert digest.to_state()["buffer"]  # the copy must carry it
        means, weights, *_ = digest.copy().compressed()
        state = dict(digest.to_state(), centroids=list(zip(means, weights)))
        assert any(
            TDigest.from_state(state).quantile(p)
            != source.quantile(Metric.LATENCY, p)
            for p in PERCENTILES
        )
        other = sketch_records([_record(0, region="beta")])
        for merged in (plane.merge(other), other.merge(plane)):
            self._assert_copied(
                merged.view("alpha", "ndt"), source, Metric.ordered()
            )

    def test_view_merge_copies_a_metric_one_side_holds(self, source):
        other = SketchView()
        other.observe(_record(0, latency_ms=None))
        for merged in (source.merge(other), other.merge(source)):
            self._assert_copied(merged, source, [Metric.LATENCY])


class TestColumnarAppend:
    def test_append_feeds_attached_sketch(self):
        store = ColumnarStore([_record(i) for i in range(10)])
        plane = store.sketch_plane()
        assert len(plane) == 10
        store.append([_record(10), _record(11)])
        # The live plane absorbed the new records incrementally.
        assert store.sketch_plane() is plane
        assert len(plane) == 12

    def test_append_invalidates_exact_caches(self):
        store = ColumnarStore([_record(i) for i in range(4)])
        cube_before = store.aggregate_cube(
            ("ndt",), (95.0, 95.0, 5.0, 5.0)
        )
        assert cube_before.counts.max() == 4
        store.append([_record(4)])
        cube_after = store.aggregate_cube(
            ("ndt",), (95.0, 95.0, 5.0, 5.0)
        )
        assert cube_after.counts.max() == 5

    def test_append_does_not_mutate_adopted_list(self):
        adopted = [_record(0), _record(1)]
        store = ColumnarStore(adopted)
        store.append([_record(2)])
        assert len(adopted) == 2
        assert len(store.records()) == 3

    def test_sketch_plane_delta_is_sticky(self):
        store = ColumnarStore([_record(0)])
        store.sketch_plane(delta=50)
        assert store.sketch_plane(delta=50).delta == 50
        assert store.sketch_plane().delta == 50  # default = existing
        with pytest.raises(ValueError, match="delta"):
            store.sketch_plane(delta=200)

    def test_quantile_source_markers(self):
        assert ColumnarStore.QUANTILE_SOURCE == "exact"
        assert SketchPlane.QUANTILE_SOURCE == "sketch"


class TestOnDiskRoundTrip:
    def test_state_survives_a_cache_artifact_bit_identically(
        self, tmp_path
    ):
        """The dataset-cache contract: serialize → content-address →
        reload must reproduce the plane exactly, not approximately —
        ``score --from-cache`` promises the same numbers as scoring
        the plane that built the tile."""
        import hashlib

        import numpy as np

        plane = sketch_records(
            [_record(i, region=r) for i in range(200) for r in ("a", "b")]
        )
        payload = (
            json.dumps(
                plane.to_state(), sort_keys=True, separators=(",", ":")
            )
            + "\n"
        ).encode("utf-8")
        artifact = tmp_path / (
            hashlib.sha256(payload).hexdigest() + ".json"
        )
        artifact.write_bytes(payload)

        raw = artifact.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == artifact.stem
        rebuilt = SketchPlane.from_state(json.loads(raw.decode("utf-8")))

        assert len(rebuilt) == len(plane)
        assert rebuilt.regions() == plane.regions()
        percentiles = (95.0, 95.0, 95.0, 95.0)
        original = plane.aggregate_cube(("ndt",), percentiles)
        recovered = rebuilt.aggregate_cube(("ndt",), percentiles)
        np.testing.assert_array_equal(
            recovered.aggregates, original.aggregates
        )
        np.testing.assert_array_equal(recovered.counts, original.counts)
        assert recovered.cells == original.cells

    def test_reserialized_state_is_byte_stable(self):
        """Same plane, serialized twice, gives identical bytes — the
        property that makes cache tiles content-addressable."""
        records = [_record(i) for i in range(60)]
        one = sketch_records(records).to_state()
        two = sketch_records(list(records)).to_state()
        dump = lambda s: json.dumps(s, sort_keys=True, separators=(",", ":"))  # noqa: E731
        assert dump(one) == dump(two)
