"""Integration tests for the observability export surface of the CLI:
``metrics --format prom``, ``--trace-out``/``--manifest-out``,
``iqb runs``, and a live ``monitor --telemetry-port`` campaign.
"""

import json
import re
import threading
import time
import urllib.request

import pytest

import repro.cli as cli
from repro.cli import main
from repro.obs.manifest import RunManifest

# Prometheus text-format line grammar (same shape as the unit-level
# check in tests/obs/test_exposition.py, restated here because the
# acceptance bar is "CLI output parses", not "module output parses").
_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_LINE = re.compile(
    rf"^(# HELP {_NAME} .+"
    rf"|# TYPE {_NAME} (counter|gauge|summary|histogram|untyped)"
    rf"|{_NAME}(\{{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"\}})? "
    r"[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[0-9]+))$"
)


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("telemetry") / "campaign.jsonl"
    code = main(
        [
            "simulate",
            str(path),
            "--regions",
            "metro-fiber",
            "rural-dsl",
            "--tests",
            "60",
            "--subscribers",
            "20",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return path


class TestMetricsPromFormat:
    def test_output_is_valid_prometheus_exposition(
        self, campaign_file, capsys
    ):
        argv = ["metrics", str(campaign_file), "--probes", "5"]
        assert main(argv + ["--format", "prom"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines, "prom exposition must not be empty"
        for line in lines:
            assert _PROM_LINE.match(line), f"invalid line: {line!r}"
        # The instrumented pipeline's own counters made it through:
        # probing, ingest of the input file, and the scoring pass.
        samples = dict(
            line.rsplit(" ", 1) for line in lines if not line.startswith("#")
        )
        assert int(samples["iqb_probe_runner_scheduled_total"]) > 0
        assert int(samples["iqb_ingest_jsonl_lines_total"]) == sum(
            1 for _ in open(campaign_file)
        )
        assert int(samples["iqb_quantile_cache_columnar_hits_total"]) > 0
        assert int(samples["iqb_quantile_cache_columnar_sorts_total"]) > 0

    def test_text_flag_still_works_as_alias(self, capsys):
        assert main(["metrics", "--probes", "5", "--text"]) == 0
        assert "counter probe.runner.scheduled" in capsys.readouterr().out


class TestTraceAndManifest:
    def test_score_trace_matches_manifest_span_timers(
        self, campaign_file, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        manifest_path = tmp_path / "score.manifest.json"
        code = main(
            [
                "--trace-out",
                str(trace_path),
                "--manifest-out",
                str(manifest_path),
                "score",
                str(campaign_file),
                "--json",
            ]
        )
        assert code == 0
        json.loads(capsys.readouterr().out)  # stdout stayed clean JSON

        trace = json.loads(trace_path.read_text())
        span_events = [
            event
            for event in trace["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert span_events, "a scoring run must produce spans"
        manifest = RunManifest.load(manifest_path)
        timers = manifest.metrics["timers"]
        # Every traced span has its span.<name> timer in the manifest's
        # snapshot, with at least as many observations as trace events.
        for name in {event["name"] for event in span_events}:
            assert f"span.{name}" in timers
            observed = sum(
                1 for event in span_events if event["name"] == name
            )
            assert timers[f"span.{name}"]["count"] >= observed
        # Nesting survived: the root scoring span contains its stages.
        paths = {event["args"]["path"] for event in span_events}
        assert "score_regions" in paths
        assert any(path.startswith("score_regions/") for path in paths)

    def test_manifest_records_input_provenance(
        self, campaign_file, tmp_path
    ):
        manifest_path = tmp_path / "m.manifest.json"
        assert (
            main(
                [
                    "--manifest-out",
                    str(manifest_path),
                    "score",
                    str(campaign_file),
                ]
            )
            == 0
        )
        manifest = RunManifest.load(manifest_path)
        assert manifest.command[-1] == str(campaign_file)
        (entry,) = manifest.inputs
        assert entry["path"] == str(campaign_file)
        assert entry["records_read"] == entry["lines"] == 360
        assert entry["records_skipped"] == 0
        assert len(entry["sha256"]) == 64
        assert manifest.config_sha256 is not None
        assert manifest.config["aggregation"]["percentile"] == 95.0

    def test_publish_output_writes_manifest_alongside(
        self, campaign_file, tmp_path
    ):
        report = tmp_path / "report.md"
        assert (
            main(["publish", str(campaign_file), "--output", str(report)])
            == 0
        )
        sidecar = tmp_path / "report.md.manifest.json"
        assert sidecar.exists()
        manifest = RunManifest.load(sidecar)
        assert manifest.outputs == (str(report),)
        assert "span.publish" in manifest.metrics["timers"]

    def test_failed_run_writes_no_artifacts(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        manifest_path = tmp_path / "m.json"
        code = main(
            [
                "--trace-out",
                str(trace_path),
                "--manifest-out",
                str(manifest_path),
                "score",
                str(tmp_path / "missing.jsonl"),
            ]
        )
        assert code == 2
        assert not trace_path.exists()
        assert not manifest_path.exists()


class TestRunsSubcommand:
    @pytest.fixture()
    def two_manifests(self, campaign_file, tmp_path):
        paths = []
        for name, extra in (
            ("a.manifest.json", []),
            ("b.manifest.json", ["--json"]),
        ):
            path = tmp_path / name
            assert (
                main(
                    ["--manifest-out", str(path), "score",
                     str(campaign_file)] + extra
                )
                == 0
            )
            paths.append(path)
        return paths

    def test_list_tabulates_directory(
        self, two_manifests, tmp_path, capsys
    ):
        capsys.readouterr()
        assert main(["runs", "list", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "a.manifest.json" in out
        assert "b.manifest.json" in out
        assert "Duration" in out

    def test_diff_reports_config_and_counter_deltas(
        self, two_manifests, capsys
    ):
        capsys.readouterr()
        a, b = two_manifests
        assert main(["runs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        # Same config both runs: the identical digest is called out.
        assert "config: identical" in out
        assert "run A:" in out and "run B:" in out

    def test_diff_on_divergent_configs(
        self, campaign_file, tmp_path, capsys
    ):
        custom = tmp_path / "custom.json"
        assert main(["config", "--output", str(custom)]) == 0
        document = json.loads(custom.read_text())
        document["aggregation"]["percentile"] = 90.0
        custom.write_text(json.dumps(document))
        a = tmp_path / "paper.manifest.json"
        b = tmp_path / "custom.manifest.json"
        assert (
            main(["--manifest-out", str(a), "score", str(campaign_file)])
            == 0
        )
        assert (
            main(
                ["--manifest-out", str(b), "score", str(campaign_file),
                 "--config", str(custom)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["runs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "aggregation.percentile: 95.0 -> 90.0" in out

    def test_manifests_with_a_kernel_key_still_load(
        self, two_manifests, tmp_path, capsys
    ):
        # Older manifests recorded which scoring kernel ran.
        for path in two_manifests:
            document = json.loads(path.read_text())
            assert "kernel" not in document
            document["kernel"] = "vectorized"
            path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["runs", "list", str(tmp_path)]) == 0
        assert "a.manifest.json" in capsys.readouterr().out
        assert main(["runs", "diff", *map(str, two_manifests)]) == 0
        assert "config: identical" in capsys.readouterr().out

    def test_diff_rejects_non_manifest(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("not json at all")
        code = main(["runs", "diff", str(bogus), str(bogus)])
        assert code == 2
        assert "iqb: error:" in capsys.readouterr().err

    def test_list_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "void"
        empty.mkdir()
        assert main(["runs", "list", str(empty)]) == 0
        assert "no manifests" in capsys.readouterr().out


class TestLiveTelemetry:
    """curl /metrics, /metrics.json, /healthz against a live campaign."""

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read().decode("utf-8")

    def test_monitor_with_telemetry_port(self, campaign_file):
        result = {}

        def run_campaign():
            result["code"] = main(
                [
                    "--telemetry-port",
                    "0",
                    "monitor",
                    str(campaign_file),
                    "--window-days",
                    "0.5",
                    "--cycle-sleep",
                    "0.15",
                ]
            )

        campaign = threading.Thread(target=run_campaign)
        campaign.start()
        try:
            # Wait for the ephemeral-port server to come up mid-run.
            deadline = time.time() + 10.0
            server = None
            while time.time() < deadline:
                server = cli._TELEMETRY
                if server is not None and server.port:
                    break
                time.sleep(0.02)
            assert server is not None and server.port, (
                "telemetry server never came up"
            )
            base = f"http://127.0.0.1:{server.port}"

            status, body = self._get(f"{base}/metrics")
            assert status == 200
            for line in body.splitlines():
                assert _PROM_LINE.match(line), f"invalid line: {line!r}"
            assert "iqb_monitor_cycles" in body

            status, body = self._get(f"{base}/metrics.json")
            assert status == 200
            snapshot = json.loads(body)
            assert "monitor.last_cycle_unix" in snapshot["gauges"]

            status, body = self._get(f"{base}/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["last_cycle_unix"] is not None
        finally:
            campaign.join(timeout=60.0)
        assert not campaign.is_alive()
        assert result["code"] == 0
        # The endpoint is torn down with the campaign.
        assert cli._TELEMETRY is None
