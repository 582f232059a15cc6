"""Integration tests for the global ``--workers`` flag.

The contract: any worker count produces byte-identical command output,
and worker-side telemetry (quantile-cache counters, ingest counters)
merges back so ``iqb metrics`` reports a truthful pipeline picture.
"""

import json

import pytest

from repro.cli import main
from repro.parallel import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("workers") / "campaign.jsonl"
    code = main(
        [
            "simulate",
            str(path),
            "--tests",
            "40",
            "--subscribers",
            "20",
            "--seed",
            "13",
        ]
    )
    assert code == 0
    return path


class TestSimulate:
    @needs_fork
    def test_parallel_simulation_writes_identical_file(
        self, campaign_file, tmp_path
    ):
        parallel_path = tmp_path / "parallel.jsonl"
        code = main(
            [
                "--workers",
                "4",
                "simulate",
                str(parallel_path),
                "--tests",
                "40",
                "--subscribers",
                "20",
                "--seed",
                "13",
            ]
        )
        assert code == 0
        assert parallel_path.read_bytes() == campaign_file.read_bytes()


class TestScore:
    @needs_fork
    @pytest.mark.parametrize("workers", ["2", "4"])
    def test_json_output_identical_to_serial(
        self, campaign_file, capsys, workers
    ):
        assert main(["score", str(campaign_file), "--json"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                ["--workers", workers, "score", str(campaign_file), "--json"]
            )
            == 0
        )
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert json.loads(parallel)  # and it is real JSON

    @needs_fork
    def test_table_output_identical_to_serial(self, campaign_file, capsys):
        assert main(["score", str(campaign_file)]) == 0
        serial = capsys.readouterr().out
        assert main(["--workers", "4", "score", str(campaign_file)]) == 0
        assert capsys.readouterr().out == serial

    def test_workers_one_is_the_serial_path(self, campaign_file, capsys):
        assert main(["score", str(campaign_file)]) == 0
        serial = capsys.readouterr().out
        assert main(["--workers", "1", "score", str(campaign_file)]) == 0
        assert capsys.readouterr().out == serial


class TestPublish:
    @needs_fork
    def test_publication_identical_to_serial(self, campaign_file, capsys):
        assert main(["publish", str(campaign_file)]) == 0
        serial = capsys.readouterr().out
        assert main(["--workers", "3", "publish", str(campaign_file)]) == 0
        assert capsys.readouterr().out == serial


@needs_fork
class TestMetricsMerge:
    def test_metrics_reports_merged_worker_counters(
        self, campaign_file, capsys
    ):
        """After a --workers run, the snapshot shows the in-process
        scoring hot path's cache activity next to the ingest counters
        shipped home from the workers."""
        code = main(
            ["--workers", "4", "metrics", str(campaign_file), "--probes", "5"]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        counters = snapshot["counters"]
        assert counters["quantile_cache.columnar.hits"] > 0
        assert counters["quantile_cache.columnar.sorts"] > 0
        # The parallel ingest's per-line counters merged too.
        assert counters["ingest.jsonl.lines"] == sum(
            1 for _ in open(campaign_file)
        )
        assert counters["parallel.shards.completed"] > 0

    def test_prometheus_rendering_includes_merged_counters(
        self, campaign_file, capsys
    ):
        code = main(
            [
                "--workers",
                "4",
                "metrics",
                str(campaign_file),
                "--probes",
                "5",
                "--format",
                "prom",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quantile_cache_columnar_hits" in out


class TestErrorPaths:
    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(
            ["--workers", "4", "score", str(tmp_path / "missing.jsonl")]
        )
        assert code == 2
        assert "iqb: error:" in capsys.readouterr().err

    @needs_fork
    def test_malformed_input_exits_2(self, campaign_file, tmp_path, capsys):
        dirty = tmp_path / "dirty.jsonl"
        lines = campaign_file.read_text().splitlines()
        lines[len(lines) // 2] = "{broken"
        dirty.write_text("\n".join(lines) + "\n")
        code = main(["--workers", "4", "score", str(dirty)])
        assert code == 2
        err = capsys.readouterr().err
        assert "iqb: error:" in err
        assert "Traceback" not in err
