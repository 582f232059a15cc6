"""End-to-end checks that the pipeline actually reports into the registry.

Every test reads counters as *deltas*: the default registry is
process-wide and other tests also pump it, so absolute values mean
nothing but per-operation increments are exact.
"""

import logging

import pytest

from repro.core.config import paper_config
from repro.core.exceptions import BackendError
from repro.core.scoring import score_region, score_regions
from repro.measurements.collection import MeasurementSet
from repro.measurements.io import IngestStats, read_jsonl, write_jsonl
from repro.measurements.record import Measurement
from repro.obs import REGISTRY
from repro.probing.backends import ProbeRequest
from repro.probing.runner import ProbeRunner
from repro.probing.sinks import MemorySink


def _counter(name):
    return REGISTRY.counter(name).value


@pytest.fixture()
def records():
    out = []
    for i in range(40):
        for source in ("ndt", "ookla"):
            for region in ("east", "west"):
                out.append(
                    Measurement(
                        region=region,
                        source=source,
                        timestamp=float(i),
                        download_mbps=50.0 + i,
                        upload_mbps=10.0 + i,
                        latency_ms=20.0,
                        packet_loss=0.001,
                    )
                )
    return MeasurementSet(out)


class TestQuantileCacheCounters:
    def test_columnar_batch_scoring_reports_hits_and_misses(self, records):
        config = paper_config()
        hits0 = _counter("quantile_cache.columnar.hits")
        misses0 = _counter("quantile_cache.columnar.misses")
        sorts0 = _counter("quantile_cache.columnar.sorts")

        batch = score_regions(records, config)

        misses = _counter("quantile_cache.columnar.misses") - misses0
        hits = _counter("quantile_cache.columnar.hits") - hits0
        sorts = _counter("quantile_cache.columnar.sorts") - sorts0
        assert misses > 0
        assert hits > 0  # the six-use-case fan-out re-asks quantiles
        assert 0 < sorts <= misses

        # Instrumentation must not perturb the numbers: the batch path
        # still matches per-region scoring bit for bit.
        for region, breakdown in batch.items():
            sources = records.for_region(region).group_by_source()
            assert score_region(sources, config).to_dict() == breakdown.to_dict()

    def test_rowset_quantiles_report_hits_and_misses(self, records):
        from repro.core.metrics import Metric

        subset = records.for_region("east")
        hits0 = _counter("quantile_cache.rowset.hits")
        misses0 = _counter("quantile_cache.rowset.misses")
        first = subset.quantile(Metric.DOWNLOAD, 95.0)
        second = subset.quantile(Metric.DOWNLOAD, 95.0)
        assert first == second
        assert _counter("quantile_cache.rowset.misses") - misses0 == 1
        assert _counter("quantile_cache.rowset.hits") - hits0 == 1


class FlakyBackend:
    """Fails the first ``failures`` attempts of every probe."""

    def __init__(self, failures):
        self.failures = failures
        self._attempts = {}

    def run(self, probe):
        seen = self._attempts.get(probe.timestamp, 0)
        self._attempts[probe.timestamp] = seen + 1
        if seen < self.failures:
            raise BackendError("transient")
        return Measurement(
            region=probe.region,
            source=probe.client,
            timestamp=probe.timestamp,
            download_mbps=10.0,
        )

    def regions(self):
        return ("r",)

    def clients(self):
        return ("ndt",)


class TestRunnerCounters:
    def test_retry_and_abandon_counters_advance(self):
        scheduled0 = _counter("probe.runner.scheduled")
        retried0 = _counter("probe.runner.retried")
        abandoned0 = _counter("probe.runner.abandoned")

        runner = ProbeRunner(FlakyBackend(failures=1), MemorySink(),
                             max_attempts=2)
        runner.run([ProbeRequest("ndt", "r", float(i)) for i in range(5)])
        # Every probe retried once then succeeded.
        assert _counter("probe.runner.scheduled") - scheduled0 == 5
        assert _counter("probe.runner.retried") - retried0 == 5
        assert _counter("probe.runner.abandoned") - abandoned0 == 0

        runner = ProbeRunner(FlakyBackend(failures=9), MemorySink(),
                             max_attempts=2)
        runner.run([ProbeRequest("ndt", "r", float(i)) for i in range(3)])
        assert _counter("probe.runner.abandoned") - abandoned0 == 3

    def test_latency_timer_observes_every_attempt(self):
        latency = REGISTRY.timer("probe.latency.FlakyBackend")
        before = latency.count
        runner = ProbeRunner(FlakyBackend(failures=1), MemorySink(),
                             max_attempts=2)
        runner.run([ProbeRequest("ndt", "r", 0.0)])
        assert latency.count - before == 2  # one failure + one success


class TestIngestCounters:
    @pytest.fixture()
    def dirty_file(self, tmp_path):
        records = MeasurementSet(
            [
                Measurement(region="r", source="ndt", timestamp=1.0,
                            download_mbps=5.0),
                Measurement(region="r", source="ndt", timestamp=2.0,
                            download_mbps=6.0),
            ]
        )
        path = tmp_path / "dirty.jsonl"
        write_jsonl(records, path)
        with open(path, "a") as handle:
            handle.write("{broken\n")
            handle.write('{"region": "x"}\n')  # valid JSON, invalid record
        return path

    def test_skip_mode_counts_and_warns(self, dirty_file, caplog):
        read0 = _counter("ingest.jsonl.lines")
        skipped0 = _counter("ingest.jsonl.skipped")
        logger = logging.getLogger("repro.measurements.io")
        with caplog.at_level(logging.WARNING, logger=logger.name):
            saved = logging.getLogger("repro").propagate
            logging.getLogger("repro").propagate = True
            try:
                loaded = read_jsonl(dirty_file, on_error="skip")
            finally:
                logging.getLogger("repro").propagate = saved
        assert len(loaded) == 2
        assert _counter("ingest.jsonl.lines") - read0 == 2
        assert _counter("ingest.jsonl.skipped") - skipped0 == 2
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert any("skipped 2 malformed line(s)" in r.getMessage()
                   for r in warnings)

    def test_read_jsonl_fills_caller_stats(self, dirty_file):
        stats = IngestStats()
        consumed = read_jsonl(dirty_file, on_error="skip", stats=stats)
        assert len(consumed) == 2
        assert stats.read == 2
        assert stats.skipped == 2

    def test_raise_mode_skips_nothing(self, records, tmp_path):
        path = tmp_path / "clean.jsonl"
        write_jsonl(records, path)
        skipped0 = _counter("ingest.jsonl.skipped")
        read_jsonl(path)
        assert _counter("ingest.jsonl.skipped") == skipped0


class TestMonitorCounters:
    def test_unscorable_window_is_counted(self):
        from repro.probing.monitor import BarometerMonitor

        # Plenty of records, but from a dataset the config gives zero
        # weight everywhere -> DataError inside score_region, swallowed
        # but counted.
        records = MeasurementSet(
            [
                Measurement(region="r", source="mystery", timestamp=float(i),
                            download_mbps=10.0)
                for i in range(30)
            ]
        )
        unscorable0 = _counter("monitor.windows.unscorable")
        monitor = BarometerMonitor(paper_config(), min_samples=10)
        alerts = monitor.ingest(records, 0.0, 100.0)
        assert alerts == []
        assert _counter("monitor.windows.unscorable") - unscorable0 == 1
