"""Unit tests for repro.probing.sinks."""

import pytest

from repro.core.metrics import Metric
from repro.measurements.io import read_jsonl
from repro.measurements.record import Measurement
from repro.probing.sinks import (
    FanOutSink,
    JsonlSink,
    MemorySink,
    SketchSink,
)


def record(i, region="r", source="ndt"):
    return Measurement(
        region=region,
        source=source,
        timestamp=float(i),
        download_mbps=float(i + 1),
        latency_ms=10.0 + i,
    )


class TestMemorySink:
    def test_accumulates(self):
        sink = MemorySink()
        for i in range(5):
            sink.accept(record(i))
        assert len(sink) == 5
        assert len(sink.as_set()) == 5

    def test_as_set_snapshot(self):
        sink = MemorySink()
        sink.accept(record(0))
        snapshot = sink.as_set()
        sink.accept(record(1))
        assert len(snapshot) == 1


class TestJsonlSink:
    def test_streams_to_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlSink(path) as sink:
            for i in range(4):
                sink.accept(record(i))
            assert sink.written == 4
        loaded = read_jsonl(path)
        assert len(loaded) == 4
        assert loaded[2].download_mbps == 3.0

    def test_appends_across_openings(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlSink(path) as sink:
            sink.accept(record(0))
        with JsonlSink(path) as sink:
            sink.accept(record(1))
        assert len(read_jsonl(path)) == 2

    def test_close_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "out.jsonl")
        sink.accept(record(0))
        sink.close()
        sink.close()


class TestFanOutSink:
    def test_forwards_to_all_children(self, tmp_path):
        memory_a, memory_b = MemorySink(), MemorySink()
        fan = FanOutSink(memory_a, memory_b)
        fan.accept(record(0))
        assert len(memory_a) == 1
        assert len(memory_b) == 1

    def test_needs_children(self):
        with pytest.raises(ValueError):
            FanOutSink()


class TestMemorySinkColumnar:
    def test_as_columnar_caches_until_next_accept(self):
        sink = MemorySink()
        for i in range(4):
            sink.accept(record(i))
        store = sink.as_columnar()
        assert store is sink.as_columnar()
        assert len(store) == 4
        sink.accept(record(4))
        fresh = sink.as_columnar()
        assert fresh is not store
        assert len(fresh) == 5
        assert len(store) == 4  # old snapshot untouched

    def test_sources_by_region_shape(self):
        sink = MemorySink()
        sink.accept(record(0, region="a", source="ndt"))
        sink.accept(record(1, region="a", source="ookla"))
        sink.accept(record(2, region="b", source="ndt"))
        grouped = sink.sources_by_region()
        assert set(grouped) == {"a", "b"}
        assert set(grouped["a"]) == {"ndt", "ookla"}
        assert grouped["b"]["ndt"].sample_count(Metric.DOWNLOAD) == 1

    def test_score_all_matches_per_region_scoring(self):
        from repro.core import paper_config
        from repro.core.scoring import score_region

        config = paper_config()
        sink = MemorySink()
        for i in range(60):
            for source in ("ndt", "cloudflare"):
                sink.accept(
                    Measurement(
                        region="a" if i % 2 else "b",
                        source=source,
                        timestamp=float(i),
                        download_mbps=100.0 + i,
                        upload_mbps=20.0 + i,
                        latency_ms=20.0,
                        packet_loss=0.001,
                    )
                )
        breakdowns = sink.score_all(config)
        records = sink.as_set()
        for region in ("a", "b"):
            expected = score_region(
                records.for_region(region).group_by_source(), config
            )
            assert breakdowns[region] == expected


class TestSketchSink:
    def _measure(self, i, region="a", source="ndt"):
        return Measurement(
            region=region,
            source=source,
            timestamp=float(i),
            download_mbps=100.0 + i,
            upload_mbps=20.0 + i,
            latency_ms=25.0,
            packet_loss=0.001,
        )

    def test_accept_feeds_live_plane(self):
        from repro.probing.sinks import SketchSink

        sink = SketchSink()
        for i in range(30):
            sink.accept(self._measure(i, region="a" if i % 2 else "b"))
        assert len(sink) == 30
        assert sink.plane.regions() == ("a", "b")

    def test_score_all_matches_sketch_scoring_of_records(self):
        from repro.core import paper_config
        from repro.core.scoring import score_regions
        from repro.probing.sinks import SketchSink

        config = paper_config()
        sink = SketchSink()
        records = [self._measure(i) for i in range(50)] + [
            self._measure(i, source="cloudflare") for i in range(50)
        ]
        for record in records:
            sink.accept(record)
        assert sink.score_all(config) == score_regions(
            records, config, quantiles="sketch"
        )

    def test_state_roundtrip(self):
        import json

        from repro.probing.sinks import SketchSink

        sink = SketchSink()
        for i in range(20):
            sink.accept(self._measure(i))
        restored = SketchSink()
        restored.restore_state(json.loads(json.dumps(sink.state_dict())))
        assert len(restored) == 20
        assert restored.plane.regions() == ("a",)

    def test_fan_out_with_memory_sink(self):
        from repro.probing.sinks import FanOutSink, MemorySink, SketchSink

        memory, sketch = MemorySink(), SketchSink()
        tee = FanOutSink(memory, sketch)
        for i in range(5):
            tee.accept(self._measure(i))
        assert len(memory) == 5
        assert len(sketch) == 5

    def test_memory_sink_score_all_quantiles_passthrough(self):
        from repro.core import paper_config
        from repro.probing.sinks import MemorySink

        config = paper_config()
        sink = MemorySink()
        for i in range(40):
            sink.accept(self._measure(i))
        sketch = sink.score_all(config, quantiles="sketch")
        assert sketch["a"].quantile_source == "sketch"
        assert sink.score_all(config, quantiles="exact") == sink.score_all(
            config
        )

    def test_merge_combines_shards_and_leaves_them_unchanged(self):
        shards = [SketchSink(), SketchSink()]
        for i in range(40):
            shards[i % 2].accept(
                self._measure(i, source="ndt" if i % 4 < 2 else "ookla")
            )
        before = [shard.state_dict() for shard in shards]
        merged = shards[0].merge(shards[1])
        assert len(merged) == 40
        assert merged.plane.to_state() == shards[0].plane.merge(
            shards[1].plane
        ).to_state()
        assert [shard.state_dict() for shard in shards] == before
        view = merged.plane.sources_by_region()["a"]["ndt"]
        assert view.sample_count(Metric.DOWNLOAD) == 20

    def test_merge_keeps_the_smaller_delta(self):
        coarse, fine = SketchSink(delta=50), SketchSink()
        coarse.accept(self._measure(0))
        fine.accept(self._measure(1))
        assert fine.plane.delta == 100
        assert coarse.merge(fine).plane.delta == 50
