"""Integration tests for `iqb health` and `monitor --slo-rules`.

The subcommand replays a measurement file through the sketch-backed
monitor with a HealthMonitor installed, so these tests cover the whole
wire: arrival hooks -> window closes -> burn-rate evaluation -> table /
JSON / manifest surfaces and exit codes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.measurements.io import write_jsonl
from repro.measurements.record import Measurement
from repro.obs.manifest import RunManifest


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("health") / "campaign.jsonl"
    code = main(
        [
            "simulate",
            str(path),
            "--regions",
            "metro-fiber",
            "rural-dsl",
            "--tests",
            "40",
            "--subscribers",
            "20",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    return path


@pytest.fixture()
def paging_rules(tmp_path):
    # A 1s freshness bound against day-wide windows: every evaluation
    # tick is bad, so the rule pages by the end of any replay.
    path = tmp_path / "rules.json"
    path.write_text(
        json.dumps(
            [
                {
                    "name": "fresh-tight",
                    "signal": "freshness",
                    "target": 0.9,
                    "threshold_s": 1.0,
                }
            ]
        )
    )
    return path


class TestHealthSubcommand:
    def test_table_lists_default_rules_per_dataset(
        self, campaign_file, capsys
    ):
        code = main(["health", str(campaign_file)])
        out = capsys.readouterr().out
        assert code == 0  # warn at worst on a healthy simulation
        for column in ("Rule", "Signal", "State", "Burn (fast)"):
            assert column in out
        # One freshness rule per dataset present in the file, plus the
        # pipeline-level rules.
        for rule in (
            "freshness-ndt",
            "freshness-ookla",
            "freshness-cloudflare",
            "completeness",
            "ingest-errors",
            "scoring-latency",
        ):
            assert rule in out
        assert "health: " in out

    def test_json_report_is_deterministic(self, campaign_file, capsys):
        assert main(["health", str(campaign_file), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["health", str(campaign_file), "--json"]) == 0
        second = capsys.readouterr().out
        # Data-time evaluation: same file, byte-identical report.
        assert first == second
        report = json.loads(first)
        assert report["status"] in ("ok", "warn", "page")
        names = [rule["name"] for rule in report["rules"]]
        assert names == sorted(names)
        quality = report["quality"]
        assert quality["freshness_s"]["metro-fiber"]["ndt"] > 0.0
        assert 0.0 <= quality["completeness"]["rural-dsl"]["ndt"] <= 1.0

    def test_page_sets_exit_code_one(
        self, campaign_file, paging_rules, capsys
    ):
        code = main(
            [
                "health",
                str(campaign_file),
                "--rules",
                str(paging_rules),
                "--json",
            ]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "page"
        (rule,) = report["rules"]
        assert rule["name"] == "fresh-tight"
        assert rule["state"] == "page"

    def test_invalid_rules_file_is_a_usage_error(
        self, campaign_file, tmp_path, capsys
    ):
        path = tmp_path / "rules.json"
        document = {
            "name": "typo",
            "signal": "freshness",
            "thresold_s": 1.0,
        }
        path.write_text(json.dumps([document]))
        code = main(
            ["health", str(campaign_file), "--rules", str(path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "iqb: error:" in err
        assert "thresold_s" in err

    def test_manifest_carries_the_health_report(
        self, campaign_file, tmp_path, capsys
    ):
        manifest_path = tmp_path / "health.manifest.json"
        code = main(
            [
                "--manifest-out",
                str(manifest_path),
                "health",
                str(campaign_file),
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        manifest = RunManifest.load(manifest_path)
        assert manifest.health is not None
        assert manifest.health["status"] == report["status"]
        assert manifest.health["rules"] == report["rules"]

    def test_watch_prints_one_line_per_window(
        self, campaign_file, capsys
    ):
        code = main(
            [
                "health",
                str(campaign_file),
                "--watch",
                "--cycles",
                "2",
                "--interval",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "window +0.0d:" in out
        assert "window +1.0d:" in out
        assert "window +2.0d:" not in out  # --cycles capped the replay
        assert "health: " in out  # the final table still prints

    def test_empty_input_is_a_clean_noop(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["health", str(empty)]) == 0
        assert "no measurements" in capsys.readouterr().out


class TestMonitorSLORules:
    def test_monitor_reports_health_and_manifest(
        self, campaign_file, paging_rules, tmp_path, capsys
    ):
        manifest_path = tmp_path / "monitor.manifest.json"
        code = main(
            [
                "--manifest-out",
                str(manifest_path),
                "monitor",
                str(campaign_file),
                "--slo-rules",
                str(paging_rules),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0  # monitor reports; only `health` gates exit
        assert "health: page" in out
        manifest = RunManifest.load(manifest_path)
        assert manifest.health["status"] == "page"

    def test_monitor_without_flag_records_no_health(
        self, campaign_file, tmp_path, capsys
    ):
        manifest_path = tmp_path / "plain.manifest.json"
        code = main(
            [
                "--manifest-out",
                str(manifest_path),
                "monitor",
                str(campaign_file),
            ]
        )
        assert code == 0
        assert "health:" not in capsys.readouterr().out
        assert RunManifest.load(manifest_path).health is None


def _dark_cells_file(path):
    """Eight cells report for three days, then all go dark at once.

    The last window scores each of them 0.0 completeness: eight cells
    tie for worst, and the completeness rule names one of them.
    """
    records = [
        Measurement(
            region=region,
            source=source,
            timestamp=day * 86400.0 + k * 600.0,
            download_mbps=50.0,
            upload_mbps=10.0,
            latency_ms=20.0,
            packet_loss=0.01,
        )
        for day in range(3)
        for region in ("north", "south", "east", "west")
        for source in ("ndt", "ookla")
        for k in range(3)
    ]
    records.append(
        Measurement(
            region="late",
            source="ndt",
            timestamp=3 * 86400.0 + 60.0,
            download_mbps=50.0,
            upload_mbps=10.0,
            latency_ms=20.0,
            packet_loss=0.01,
        )
    )
    write_jsonl(records, path)
    return path


def test_health_report_does_not_depend_on_string_hashing(tmp_path):
    data = _dark_cells_file(tmp_path / "dark.jsonl")
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = {}
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "health", str(data), "--json"],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert result.returncode in (0, 1), result.stderr
        outputs[seed] = result.stdout
    assert len(set(outputs.values())) == 1, {
        seed: [
            rule["detail"]
            for rule in json.loads(out)["rules"]
            if rule["name"] == "completeness"
        ]
        for seed, out in outputs.items()
    }
    completeness = [
        rule
        for rule in json.loads(outputs["1"])["rules"]
        if rule["name"] == "completeness"
    ]
    assert completeness[0]["detail"].startswith("east/ndt completeness 0.00")
