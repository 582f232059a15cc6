"""Integration tests for the CLI's one in-process execution path.

Every command, ``simulate`` included, runs in the process that parsed
its flags; there is no worker pool and no ``--workers`` option. So
``iqb metrics`` reports every stage's counters from the one registry,
and a bad input ends in one ``iqb: error:`` line and exit 2 whichever
stage meets it.
"""

import json

import pytest

from repro.cli import main


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


class TestMetricsMerge:
    def test_metrics_reports_merged_worker_counters(
        self, campaign_file, capsys
    ):
        """One snapshot shows the scoring hot path's cache activity next
        to the ingest counters, and no ``parallel.*`` counter: nothing
        ran in another process."""
        code = main(["metrics", str(campaign_file), "--probes", "5"])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        counters = snapshot["counters"]
        assert counters["quantile_cache.columnar.hits"] > 0
        assert counters["quantile_cache.columnar.sorts"] > 0
        assert counters["ingest.jsonl.lines"] == sum(
            1 for _ in open(campaign_file)
        )
        assert not [name for name in counters if name.startswith("parallel.")]

    def test_prometheus_rendering_includes_merged_counters(
        self, campaign_file, capsys
    ):
        code = main(
            [
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
        assert "iqb_parallel_" not in out


class TestErrorPaths:
    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["score", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "iqb: error:" in capsys.readouterr().err

    def test_malformed_input_exits_2(self, campaign_file, tmp_path, capsys):
        dirty = tmp_path / "dirty.jsonl"
        lines = campaign_file.read_text().splitlines()
        lines[len(lines) // 2] = "{broken"
        dirty.write_text("\n".join(lines) + "\n")
        code = main(["score", str(dirty)])
        assert code == 2
        err = capsys.readouterr().err
        assert "iqb: error:" in err
        assert "Traceback" not in err
